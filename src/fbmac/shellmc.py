"""Power-shell sampling, modified information densities, and numeric checks.

Inputs drawn uniformly on the power shell ``||x||^2 = n p`` are realized by
normalizing an i.i.d. Gaussian vector.  With reference output laws chosen as
the capacity-achieving Gaussians, the modified information densities reduce
to quadratic forms in a handful of inner products:

    p2p:  i  = n C(p)  + [p  (n - ||z||^2) + 2 <x, z>] / (2 (1 + p))
    mac:  i1 = n C(p1) + [p1 (n - ||z||^2) + 2 <x1, z>] / (2 (1 + p1))
          i2 = n C(p2) + [p2 (n - ||z||^2) + 2 <x2, z>] / (2 (1 + p2))
          i3 = n C(ps) + [ps (n - ||z||^2) + 2 <x1, x2> + 2 <x1, z>
                          + 2 <x2, z>] / (2 (1 + ps)),   ps = p1 + p2.

The samplers draw these densities under the channel law from the exact joint
law of the required inner products: by rotational invariance they depend on a
few chi-square and normal scalars only, which makes 1e7-trial runs cheap at
any blocklength.  The tests check them in distribution against samplers that
materialize the Gaussian vectors and evaluate each density as a log-ratio of
Gaussian densities.

Everything here is run by the ``fbmac`` command, but for
:func:`empirical_outage_p2p`, which the acceptance suite and the benchmark
run.  Each ``verify_*`` function is the verdict of one ``fbmac verify``
target: it returns the payload the command prints under the target name,
whose ``pass`` is decided by the rule written in it, beside the estimator it
judges.  The CLT check takes its Gaussian target from the dispersions in
:mod:`fbmac.core`, so the shell dispersion matrix is written once.  The
references that only check this code (the paper's CLT-for-functions
construction and its Jacobian, the density of the superimposed input
x1 + x2, the output density of a shell input) live in ``tests/oracles.py``.

Memory: a sampler holds one chunk of draws per worker.  The estimators pass
a per-chunk ``reduce`` and keep only per-chunk moments (count, mean, sum of
squared deviations), combined in chunk order, so their memory does not grow
with the number of trials.  The CLT check draws its chunks twice: the first
pass fills a histogram of each row, the second keeps only the draws of the
bins that can hold the KS maximum, so its memory grows like trials^(2/3).

The module needs no scipy: the CLT check's Gaussian cdf (at the KS bin edges
and the kept draws) is ``0.5 erfc(-x / sqrt 2)`` from ``math.erfc``, and the
Bessel series' log-gamma is ``math.lgamma``, each mapped over its array.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from ._rng import chunk_sizes, substream, thread_map
from .core import DomainError, PowerPair, _require_finite_positive, capacity, capacity_vector, dispersion
from .core import dispersion_matrix_shell

_CHUNK = 1 << 16


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    """The scalar ``fn`` of each element of the float array ``x``: the standard library's math in place of scipy."""
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _phi(x: np.ndarray) -> np.ndarray:
    """Standard Gaussian cdf of each element, 0.5 erfc(-x / sqrt 2): :func:`fbmac.gaussquad.q_scalar` at -x."""
    return 0.5 * _elementwise(math.erfc, x / -math.sqrt(2.0))


@dataclass(frozen=True, eq=False)
class KsReport:
    """Gaussian-approximation check of a normalized-sum functional."""

    n: int
    trials: int
    ks_distance: float
    target_cov: np.ndarray
    cov_rel_err: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.ks_distance <= 1.0):
            raise DomainError("KS distance must lie in [0, 1]")


@dataclass(frozen=True)
class OutageEstimate:
    value: float
    std_err: float
    trials: int
    ci95_low: float
    ci95_high: float


def _density(n, p, zsq, xz):
    """n C(p) + [p (n - ||z||^2) + 2 <x, z>] / (2 (1 + p)): the density formula of the samplers."""
    return n * capacity(p) + (p * (n - zsq) + 2.0 * xz) / (2.0 * (1.0 + p))


def _ratio_density(n, p, other_sq, rsq):
    """n C(p) + (||y - other||^2 / (1 + p) - ||r||^2) / 2, r = y - x: :func:`_density` in its likelihood-ratio
    form, the same quantity, as the link simulator reads it."""
    return n * capacity(p) + (other_sq / (1.0 + p) - rsq) / 2.0


def _confusion(it, log_w, log_gamma):
    """e^{ln w - i} 1{i > ln gamma}: a confusion term of weight w, importance-sampled under the channel law.  The
    exponent never passes ln w - ln gamma, so no weight overflows it, and a trivial codebook's -inf gives 0."""
    return np.where(it > log_gamma, np.exp(log_w - np.maximum(it, log_gamma)), 0.0)


def _mac_densities(n, p1, p2, zsq, x1z, x2z, x12):
    xsz = x12 + x1z + x2z  # <x1 + x2, z> + <x1, x2>
    return _density(n, p1, zsq, x1z), _density(n, p2, zsq, x2z), _density(n, p1 + p2, zsq, xsz)


# ---------------------------------------------------------------------------
# vectorized samplers for the density laws
# ---------------------------------------------------------------------------


def _p2p_stats_reduced(n: int, p: float, m: int, rng: np.random.Generator):
    """Joint law of (||z||^2, <x, z>) for a shell input; exact in distribution.

    By rotational invariance only the noise component along the codeword
    direction matters: g ~ N(0,1), ||z||^2 = g^2 + chi2(n-1).
    """
    g = rng.standard_normal(m)
    h = rng.chisquare(n - 1, m)
    return g * g + h, math.sqrt(n * p) * g


def _stream(trials, seed, draw, reduce, chunk: int = _CHUNK):
    """Chunked draws: ``draw(m, rng)`` per chunk of up to ``chunk``, chunk i on the substream
    (seed, i), reduced as drawn into a list, or with ``reduce=None`` joined into one array
    along the last axis."""
    sizes = chunk_sizes(trials, chunk)  # refuses an over-budget run before anything is drawn

    def run(item):
        idx, m = item
        draws = draw(m, substream(seed, idx))
        return draws if reduce is None else reduce(draws)

    parts = thread_map(run, enumerate(sizes))
    if reduce is not None:
        return parts
    return np.concatenate(parts or [draw(0, substream(seed, 0))], axis=-1)  # an empty run keeps its shape


def p2p_density_samples(n: int, p: float, trials: int, seed=0, reduce=None):
    """Draws of the p2p modified information density under the channel law, or with
    ``reduce`` the list of ``reduce(chunk)`` over the chunks of draws, in chunk order."""
    if n < 2:
        raise DomainError("need n >= 2")

    def draw(m, rng):
        return _density(n, p, *_p2p_stats_reduced(n, p, m, rng))

    return _stream(trials, seed, draw, reduce)


def _inner_scale(n: int, p1: float, p2: float) -> float:
    """n sqrt(p1 p2), the largest |<x1, x2>| of shell inputs, or DomainError where it overflows; sqrt(p1) sqrt(p2)
    once p1 p2 overflows (about 1541 dB each), as :func:`fbmac.core.dispersion` falls back, so smaller powers keep
    their bits."""
    root = math.sqrt(p1 * p2) if math.isfinite(p1 * p2) else math.sqrt(p1) * math.sqrt(p2)
    if not math.isfinite(n * root):
        raise DomainError(f"p1 = {p1!r}, p2 = {p2!r} are too large: n sqrt(p1 p2) overflows at n = {n}")
    return n * root


def _mac_stats_reduced(n: int, p1: float, p2: float, m: int, rng: np.random.Generator):
    """Joint law of (||z||^2, <x1,z>, <x2,z>, <x1,x2>); exact in distribution.

    Coordinates: g2 = component of w2 along w1, h2 = squared residual norm;
    z1, z2 = noise components along w1 and the w2 residual, hz the rest.
    """
    scale = _inner_scale(n, p1, p2)
    g2 = rng.standard_normal(m)
    h2 = rng.chisquare(n - 1, m)
    z1 = rng.standard_normal(m)
    z2 = rng.standard_normal(m)
    hz = rng.chisquare(n - 2, m)
    w2norm = np.sqrt(g2 * g2 + h2)
    zsq = z1 * z1 + z2 * z2 + hz
    x1z = math.sqrt(n * p1) * z1
    x2z = math.sqrt(n * p2) * (g2 * z1 + np.sqrt(h2) * z2) / w2norm
    x12 = scale * g2 / w2norm
    return zsq, x1z, x2z, x12


def mac_density_samples(n: int, pp: PowerPair, trials: int, seed=0, reduce=None):
    """(3, trials) draws of the MAC density vector under the channel law; ``reduce``
    as in :func:`p2p_density_samples`, applied to (3, m) chunks."""
    if n < 3:
        raise DomainError("need n >= 3")
    _inner_scale(n, pp.p1, pp.p2)  # refused before anything is drawn

    def draw(m, rng):
        return np.stack(_mac_densities(n, pp.p1, pp.p2, *_mac_stats_reduced(n, pp.p1, pp.p2, m, rng)))

    return _stream(trials, seed, draw, reduce)


def moments(x: np.ndarray) -> tuple:
    """(count, mean, sum of squared deviations) of each row of a chunk of draws."""
    mean = x.mean(axis=-1)
    dev = x - mean[..., None]
    return x.shape[-1], mean, (dev * dev).sum(axis=-1)


def merge_moments(parts: list) -> tuple:
    """(mean, standard error) from per-chunk moments; Chan, Golub & LeVeque (1979) in chunk order."""
    if sum(c for c, _, _ in parts) < 2:
        raise DomainError("need at least 2 draws for a standard error")
    count, mean, m2 = parts[0]
    for c, mu, sq in parts[1:]:
        total = count + c
        delta = mu - mean
        mean = mean + delta * (c / total)
        m2 = m2 + sq + delta * delta * (count * c / total)
        count = total
    return mean, np.sqrt(m2 / (count - 1)) / math.sqrt(count)


def _wilson_ci(k: int, n: int) -> tuple[float, float]:
    z = 1.959963984540054
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom
    # at k = 0 (k = n) the low (high) end is 0 (1) exactly, which center -+ half misses by rounding
    return (max(0.0, center - half) if k > 0 else 0.0), (min(1.0, center + half) if k < n else 1.0)


def empirical_outage_p2p(n: int, p: float, log_threshold: float, trials: int, seed=0) -> OutageEstimate:
    """Fraction of density draws at or below the threshold, with Wilson CI."""
    if trials < 1000:
        raise DomainError("trials must be >= 1000")
    if math.isnan(log_threshold):
        raise DomainError("threshold must not be NaN")

    def below(it):
        return int(np.count_nonzero(it <= log_threshold))

    hits = sum(p2p_density_samples(n, p, trials, seed, reduce=below))
    phat = hits / trials
    lo, hi = _wilson_ci(hits, trials)
    return OutageEstimate(phat, math.sqrt(max(phat * (1 - phat), 1e-300) / trials), trials, lo, hi)


# ---------------------------------------------------------------------------
# CLT-for-functions check
# ---------------------------------------------------------------------------


#: the KS screen's bins are uniform in x / sigma on [-8, 8), with an open bin at each end
_KS_SPAN = 8.0


def _ks_bins(trials: int) -> int:
    """Bins of the KS screen: a power of two near 2 trials^(2/3), where the histogram and the kept
    draws take about the same memory."""
    return 2 << -(-2 * trials.bit_length() // 3)


def _ks_bin(x: np.ndarray, sigma, bins: int) -> np.ndarray:
    """Bin of each x / sigma: 1 to ``bins`` on [-8, 8), 0 below and ``bins + 1`` above, up to rounding.

    Nondecreasing in x, as every operation here is, so the draws of a bin are a run of the sorted draws.
    """
    t = x * (bins / (2.0 * _KS_SPAN) / sigma)
    t += bins / 2.0 + 1.0
    np.clip(t, 0.0, bins + 1.0, out=t)
    return t.astype(np.int32)  # truncates, the floor of t >= 0; several times faster than to int64


def _ks_and_cov(stream, trials: int, sigma: np.ndarray) -> tuple[float, np.ndarray]:
    """Worst KS distance of the rows to N(0, sigma_i^2), and the rows' covariance, in two passes.

    ``stream(reduce)`` returns ``reduce`` of each (rows, m) chunk of the draws, in chunk order, and
    yields the same chunks on every call.  Pass 1 counts each row's draws in the bins of
    :func:`_ks_bin` and takes the row means.  A bin's counts bound the KS terms of its draws from
    above and below; pass 2 keeps the draws of every bin whose upper bound reaches the largest lower
    bound, and sums the centred co-moments.  The kept draws are sorted and scanned: each one's rank
    is the count below its bin plus its place in the bin, so the distance is the one a sort of every
    draw gives, bit for bit.
    """
    rows, bins = len(sigma), _ks_bins(trials)
    hist = np.zeros((rows, bins + 2), dtype=np.int64)
    lock = threading.Lock()

    def count(x):
        found = [np.bincount(idx, minlength=bins + 2) for idx in _ks_bin(x, sigma[:, None], bins)]
        with lock:  # integer sums: the same counts in any order
            np.add(hist, found, out=hist)
        return x.sum(axis=1)

    mean = sum(stream(count)) / trials  # in chunk order
    # the draws of a bin lie in [lo, hi) and hold the ranks below + 1 to below + count
    edges = _phi(-_KS_SPAN + np.arange(bins + 1) * (2.0 * _KS_SPAN / bins))
    lo, hi = np.r_[0.0, edges], np.r_[edges, 1.0]

    def bounds(h):
        """Upper and lower bounds of the KS terms in each bin of one row's counts ``h``."""
        below = np.cumsum(h)
        below -= h
        top, bottom = (below + h) / trials, below / trials
        return np.maximum(top - lo, hi - bottom), np.where(h > 0, np.maximum(top - hi, lo - bottom), -np.inf)

    reach = max(bounds(h)[1].max() for h in hist) - 1e-12  # the margin covers rounding at the bin edges
    keep = np.array([(h > 0) & (bounds(h)[0] >= reach) for h in hist])
    hist[keep] = 0
    skipped = np.cumsum(hist, axis=1)  # the draws below each bin that are not kept
    skipped -= hist
    del hist

    def kept(x):
        dev = x - mean[:, None]
        idx = _ks_bin(x, sigma[:, None], bins)
        return dev @ dev.T, [row[kept_bins[ix]] for row, kept_bins, ix in zip(x, keep, idx)]

    parts = stream(kept)
    cov = sum(co for co, _ in parts)  # in chunk order
    dist = -math.inf
    for i in range(rows):
        xs = np.concatenate([draws[i] for _, draws in parts])
        xs.sort()
        for start in range(0, xs.size, _CHUNK):
            block = xs[start : start + _CHUNK]
            cdf = _phi(block / sigma[i])
            ranks = np.arange(start + 1, start + block.size + 1) + skipped[i, _ks_bin(block, sigma[i], bins)]
            grid = ranks / trials
            dist = max(dist, (grid - cdf).max(), (cdf - grid + 1.0 / trials).max())
    return float(dist), cov / (trials - 1)


def clt_function_check(
    case: str,
    n: int,
    trials: int,
    seed=0,
    p: float = 1.0,
    pp: PowerPair | None = None,
) -> KsReport:
    """Compare the normalized-sum functional against its Gaussian limit.

    The functional is (i - nC) d / n, d = 2 (1 + p) per density, and its
    limit is N(0, d V d / n) with V the dispersion from :mod:`fbmac.core`:
    ``dispersion(p)`` for ``case='p2p'``, one row, and
    ``dispersion_matrix_shell(pp)`` for ``case='mac-joint'``, three.  Reports
    the worst KS distance over the rows and, for the MAC, the relative
    Frobenius error of the empirical covariance.
    """
    if n < 16 or trials < 1000:
        raise DomainError("need n >= 16 and trials >= 1000")
    if case not in ("p2p", "mac-joint"):
        raise DomainError(f"unknown case {case!r}")
    pp = pp if pp is not None else PowerPair(1.0, 1.0)
    name, top = ("p", _require_finite_positive("p", p)) if case == "p2p" else ("p1 + p2", pp.p_sum)
    # entries are below 4 (top + 2)^2 / n: ten deviations, squared and summed over the trials, stay finite
    if not math.isfinite(400.0 * trials * (top + 2.0) * (top + 2.0)):
        raise DomainError(f"{name} = {top!r} is too large: the covariance of {trials} draws overflows")
    # the Frobenius norm squares the entries, the largest of which is above 4 (p1 + p2) / n
    if case == "mac-joint" and not (4.0 * top / n) ** 2 >= sys.float_info.min:
        raise DomainError(f"p1 + p2 = {top!r} is too small: the covariance's Frobenius norm underflows")
    chunk_sizes(trials, _CHUNK)  # before the KS screen's histogram is sized
    if case == "p2p":
        powers, cap, v = np.array([p]), np.array([capacity(p)]), np.array([[dispersion(p)]])
        sample = functools.partial(p2p_density_samples, n, p)
    else:
        powers, cap, v = np.array([pp.p1, pp.p2, pp.p_sum]), capacity_vector(pp), dispersion_matrix_shell(pp)
        sample = functools.partial(mac_density_samples, n, pp)
    d = 2.0 * (1.0 + powers)
    target = d[:, None] * v * d[None, :] / n

    def stream(reduce):
        def rows(x):
            # each row [p (n - ||z||^2) + 2 <x, z>] / n = (i - nC) d / n, recovered from the density draws
            x = x.reshape(len(d), -1)  # the p2p draws are one row
            x -= n * cap[:, None]
            x *= d[:, None] / n
            return reduce(x)

        return sample(trials, seed, reduce=rows)

    ks, emp = _ks_and_cov(stream, trials, np.sqrt(np.diag(target)))
    rel = float(np.linalg.norm(emp - target) / np.linalg.norm(target)) if case == "mac-joint" else None
    return KsReport(n, trials, ks, target, rel)


def verify_clt(case: str, n: int, trials: int, p: float, p1: float, p2: float, seed=0) -> dict:
    """The ``verify clt`` verdict on :func:`clt_function_check`: a KS distance up to max(0.01, 3/sqrt(n)) passes."""
    rep = clt_function_check(case, n, trials, seed, p=p, pp=PowerPair(p1, p2))
    ok = rep.ks_distance <= max(0.01, 3.0 / math.sqrt(n))
    return {"case": case, "n": n, "trials": trials, "ks_distance": rep.ks_distance, "cov_rel_err": rep.cov_rel_err,
            "pass": bool(ok)}


# ---------------------------------------------------------------------------
# divergence-bound functions (uniform Radon-Nikodym constants)
# ---------------------------------------------------------------------------


def rn_bound_function_p2p(t: float, p: float) -> float:
    """Log divergence-bound profile for the shell-input output law; <= 0 on t > 0."""
    if t <= 0:
        raise DomainError("t must be positive")
    root = math.sqrt(1.0 + 4.0 * p * t)
    return (
        math.log(2.0 * (1.0 + p)) - (1.0 + p) - p * t / (1.0 + p) + root - math.log1p(root)
    )


def _hollow_sphere(p1: float, p2: float) -> tuple[float, float]:
    """(lo, hi): the open interval of ||x1 + x2||^2 / n for shell inputs, (sqrt(p1) -+ sqrt(p2))^2."""
    return (math.sqrt(p1) - math.sqrt(p2)) ** 2, (math.sqrt(p1) + math.sqrt(p2)) ** 2


def _log_sin_sq(t: float, p1: float, p2: float) -> float:
    """ln sin^2 theta0, theta0 the angle of x1 to x1 + x2 at ||x1 + x2||^2 = n t.

    1 - (t + p1 - p2)^2 / (4 p1 t) is exactly (hi - t)(t - lo) / (4 p1 t), which keeps its precision
    when p2 << p1, where cos^2 theta0 rounds toward 1.  -inf off the open support of :func:`_hollow_sphere`.
    """
    lo, hi = _hollow_sphere(p1, p2)
    if not (lo < t < hi):
        return -math.inf
    return math.log(hi - t) + math.log(t - lo) - math.log(4.0 * p1) - math.log(t)


def rn_bound_function_mac(t: float, p1: float, p2: float) -> float:
    """Log divergence-bound profile for the superimposed-input law.

    Defined on the open interval ((sqrt(p1)-sqrt(p2))^2, (sqrt(p1)+sqrt(p2))^2);
    -inf outside.
    """
    ps = p1 + p2
    log_sin_sq = _log_sin_sq(t, p1, p2)
    return log_sin_sq if log_sin_sq == -math.inf else math.log(ps / (math.e * p2)) + t / ps + log_sin_sq


def _golden_max(fn, grid: np.ndarray, tol: float) -> tuple[float, float]:
    """(max, argmax) of ``fn``: its best grid point, refined by golden section between the neighbours."""
    k = int(np.array([fn(t) for t in grid]).argmax())
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return fn(x), x


def _peak_verdict(profile, grid: np.ndarray, tol: float, expected: float, constants: dict) -> dict:
    """The ``verify rn-p2p``/``rn-mac`` verdict: a maximum <= 1e-9 at ``expected``, to 1e-6 relative, passes."""
    fmax, argmax = _golden_max(profile, grid, tol)
    ok = fmax <= 1e-9 and abs(argmax - expected) <= 1e-6 * expected
    return {"max": fmax, "argmax": argmax, "expected_argmax": expected, "constants": constants, "pass": bool(ok)}


#: grid points the divergence-bound maxima are scanned on before golden-section refinement
_T_GRID = 4096


def verify_rn_p2p(p: float) -> dict:
    """Maximize the p2p divergence-bound profile over (0, 20(1+p)]: the ``verify rn-p2p`` verdict.

    Reports the realized uniform constants alongside: the large-n constant
    uses c_gamma = ln sqrt(2 pi) (giving a bound <= 1), the finite-n variant
    uses c_gamma = 2.
    """
    p = _require_finite_positive("p", p)
    hi = 20.0 * (1.0 + p)
    if not math.isfinite(4.0 * p * hi):  # the profile's sqrt(1 + 4 p t) must stay finite
        raise DomainError(f"p = {p!r} is too large: the search interval (0, 20(1+p)] overflows")
    grid = np.linspace(hi / _T_GRID, hi, _T_GRID)
    c_asym = math.log(0.5) + math.log(math.sqrt(2.0 * math.pi)) + math.log(math.sqrt(math.pi / 8.0))
    c_fin = math.log(0.5) + 2.0 + math.log(math.sqrt(math.pi / 8.0))
    constants = {"k_asymptotic": math.exp(c_asym), "k_finite_n": math.exp(c_fin)}
    profile = functools.partial(rn_bound_function_p2p, p=p)
    return {"p": p, **_peak_verdict(profile, grid, 1e-9 * (1.0 + p), 1.0 + p, constants)}


def shell_rn_constants(pp: PowerPair) -> tuple[float, float, float]:
    """(k1, k2, k3): per-user ratios are bounded by 1; k3 from the sum density with c_gamma = 2."""
    return 1.0, 1.0, math.exp(2.0) * pp.p2 / math.sqrt(2.0 * math.pi * pp.p1)


def verify_rn_mac(p1: float, p2: float) -> dict:
    """Maximize the MAC divergence-bound profile over its open interval: the ``verify rn-mac`` verdict.

    Also reports the sum-density uniform constant K3 = e^{c_gamma} p2 /
    sqrt(2 pi p1) for the finite-n choice c_gamma = 2 and the asymptotic
    choice c_gamma = ln sqrt(2 pi).
    """
    pp = PowerPair(p1, p2)
    lo, hi = _hollow_sphere(p1, p2)
    if not math.isfinite(4.0 * hi * (hi + pp.p_sum)):  # bounds (t + p1 - p2)^2 and 4 p1 t on the interval
        raise DomainError(f"p1 + p2 = {pp.p_sum!r} is too large: the profile's (t + p1 - p2)^2 overflows")
    width = hi - lo
    inset = 1e-9 * width
    if not lo < lo + inset < hi - inset < hi:  # the grid must lie inside, where the profile is finite
        raise DomainError(f"p1 / p2 = {p1 / p2!r} is too extreme: the interval ({lo!r}, {hi!r}) rounds shut")
    grid = np.linspace(lo + inset, hi - inset, _T_GRID)
    constants = {"k3_finite_n": shell_rn_constants(pp)[2], "k3_asymptotic": p2 / math.sqrt(p1)}
    profile = functools.partial(rn_bound_function_mac, p1=p1, p2=p2)
    return {"p1": p1, "p2": p2, **_peak_verdict(profile, grid, 1e-9 * width, pp.p_sum, constants)}


# ---------------------------------------------------------------------------
# log-domain modified Bessel function of the first kind
# ---------------------------------------------------------------------------


def _log_bessel_series(k: float, z: float) -> float:
    lz = math.log(0.5 * z)
    peak = 0.5 * (-(k + 1.0) + math.sqrt((k + 1.0) ** 2 + z * z))
    mmax = int(peak + 12.0 * math.sqrt(peak + 4.0) + 24.0)
    m = np.arange(mmax + 1, dtype=float)
    logs = (k + 2.0 * m) * lz - _elementwise(math.lgamma, m + 1.0) - _elementwise(math.lgamma, m + k + 1.0)
    top = logs.max()
    return float(top + math.log(np.exp(logs - top).sum()))


def _log_bessel_uniform(k: float, z: float) -> float:
    # Olver's large-order expansion, uniformly valid in z; three correction terms
    x = z / k
    s = math.hypot(1.0, x)
    eta = s + math.log(x / (1.0 + s))
    t = 1.0 / s
    t2 = t * t
    u1 = t * (3.0 - 5.0 * t2) / 24.0
    u2 = t2 * (81.0 - 462.0 * t2 + 385.0 * t2 * t2) / 1152.0
    u3 = t * t2 * (30375.0 - 369603.0 * t2 + 765765.0 * t2 * t2 - 425425.0 * t2 * t2 * t2) / 414720.0
    corr = 1.0 + u1 / k + u2 / (k * k) + u3 / (k * k * k)
    x_sq = x * x  # overflows above about 1.3e154: then 0.25 ln(1 + x^2) = 0.5 ln s
    quarter_log = 0.25 * math.log1p(x_sq) if x_sq < math.inf else 0.5 * math.log(s)
    return k * eta - 0.5 * math.log(2.0 * math.pi * k) - quarter_log + math.log(corr)


def _log_bessel_large_z(k: float, z: float) -> float:
    mu = 4.0 * k * k
    term, total = 1.0, 1.0
    for m in range(1, 16):
        term *= -(mu - (2.0 * m - 1.0) ** 2) / (m * 8.0 * z)
        total += term
        if abs(term) < 1e-17 * abs(total):
            break
    two_pi_z = 2.0 * math.pi * z  # overflows above about 2.9e307: then split the log
    log_2pi_z = math.log(two_pi_z) if two_pi_z < math.inf else math.log(2.0 * math.pi) + math.log(z)
    return z - 0.5 * log_2pi_z + math.log(total)


def log_bessel_i(k: float, z: float) -> float:
    """ln I_k(z) for real order k >= 0 and z >= 0, safe at any magnitude."""
    k = float(k)
    z = float(z)
    if not (0.0 <= k < math.inf and 0.0 <= z < math.inf):
        raise DomainError(f"need finite k >= 0 and z >= 0, got k={k!r}, z={z!r}")
    if z == 0.0:
        return 0.0 if k == 0.0 else -math.inf
    if k >= 16.0:
        if z / k < sys.float_info.min:  # Olver's expansion takes ln(z/k)
            raise DomainError(f"k = {k!r} is too large for z = {z!r}: z/k underflows")
        return _log_bessel_uniform(k, z)
    if z <= 400.0:
        return _log_bessel_series(k, z)
    return _log_bessel_large_z(k, z)


#: most checks ``verify bessel --grid N`` makes (N^2 of them, a few microseconds each)
_BESSEL_GRID_CALLS = 1 << 20


def verify_bessel(k: float | None, z: float | None, grid: int = 0, seed=0) -> dict:
    """The ``verify bessel`` verdict: z^{-k} I_k(z) <= sqrt(pi/8) r^{-1/2} (k + r)^{-k} e^r, r = sqrt(k^2 + z^2).

    At one (k, z), or with ``grid = N`` at each of N random k in (0, 300) with each of N random z in (0, 600).
    """
    if grid:
        if not 0 < grid <= math.isqrt(_BESSEL_GRID_CALLS):
            raise DomainError(f"--grid N makes N^2 checks, at most {_BESSEL_GRID_CALLS}")
        rng = substream(seed)
        ks, zs = rng.uniform(0.0, 300.0, grid), rng.uniform(1e-6, 600.0, grid)
        return {"grid": grid, "pass": all(verify_bessel(k, z)["pass"] for k in ks for z in zs)}
    if k is None or z is None:
        raise DomainError("need --k and --z (or --grid)")
    if not 0.0 <= k < math.inf:  # before the overflow guard below, which would call a NaN too large
        raise DomainError(f"k must be finite and >= 0, got {k!r}")
    z = _require_finite_positive("z", z)
    root = math.hypot(k, z)
    if not math.isfinite(k * math.log(k + root)):
        raise DomainError(f"k = {k!r} is too large: the bound's k ln(k + sqrt(k^2 + z^2)) overflows")
    log_lhs = log_bessel_i(k, z) - k * math.log(z)
    log_rhs = 0.5 * math.log(math.pi / 8.0) - 0.5 * math.log(root) - k * math.log(k + root) + root
    return {"k": k, "z": z, "log_lhs": log_lhs, "log_rhs": log_rhs, "pass": bool(log_lhs <= log_rhs)}


# ---------------------------------------------------------------------------
# inner product of the two shell inputs
# ---------------------------------------------------------------------------


def sum_inner_product_samples(n: int, pp: PowerPair, trials: int, seed=0, reduce=None):
    """Draws of ||x1 + x2||^2 / n for independent shell inputs; ``reduce`` as in :func:`p2p_density_samples`."""
    if n < 2:
        raise DomainError("need n >= 2")
    scale = _inner_scale(n, pp.p1, pp.p2)

    def draw(m, rng):
        g2 = rng.standard_normal(m)
        h2 = rng.chisquare(n - 1, m)
        x12 = scale * g2 / np.sqrt(g2 * g2 + h2)
        return pp.p1 + pp.p2 + 2.0 * x12 / n

    return _stream(trials, seed, draw, reduce)


def verify_inner_product(n: int, p1: float, p2: float, pairs: int, seed=0) -> dict:
    """Var <x1, x2> over n p1 p2, its value for independent shell inputs, from ``pairs`` draws: the ``verify
    inner-product`` verdict, which passes within 1 +- 5%."""
    pp = PowerPair(p1, p2)
    if pairs < 2:
        raise DomainError("need at least 2 pairs for a variance")
    # the draws lie below 2 (p1 + p2) and have variance 4 p1 p2 / n; their moments must stay normal doubles
    top, var = 4.0 * pairs * pp.p_sum * pp.p_sum, 4.0 * pp.p1 * pp.p2
    if not (math.isfinite(top) and var >= sys.float_info.min * n * pairs):
        raise DomainError(f"p1 = {pp.p1!r}, p2 = {pp.p2!r}: the draws' variance overflows or underflows")
    # <x1, x2> = (n/2)(t - p1 - p2) for the draws t, so Var <x1, x2> = (n/2)^2 Var t
    _, se = merge_moments(sum_inner_product_samples(n, pp, pairs, seed, reduce=moments))
    ratio = float(se * se * pairs * n / (4.0 * p1 * p2))
    return {"n": n, "pairs": pairs, "variance_ratio": ratio, "pass": bool(abs(ratio - 1.0) <= 0.05)}


# ---------------------------------------------------------------------------
# confusion probabilities under the reference measure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfusionScalePoint:
    n: int
    value: float
    std_err: float


def confusion_scaling_check(n_list, p: float, seed=0, trials: int = 1 << 17) -> list[ConfusionScalePoint]:
    """gamma_n * Pr_Q[i > ln gamma_n] at ln gamma_n = nC - sqrt(nV); ~ n^{-1/2}.

    Computed entirely with the bounded terms e^{ln gamma - i} of :func:`_confusion`, so no
    under/overflow at any blocklength.
    """
    p = _require_finite_positive("p", p)
    # refused where (1 + p)^2 overflows, well before the densities' p (n - ||z||^2) turns into inf - inf
    # and the payload into NaN near the double limit
    if not math.isfinite((1.0 + p) * (1.0 + p)):
        raise DomainError(f"p = {p!r} is too large: (1 + p)^2 overflows")
    # the whole list is checked before the first draw: each n is one run of ``trials`` draws
    if any(int(n) < 2 for n in n_list):
        raise DomainError(f"need n >= 2 for every n in n_list, got {list(n_list)}")
    chunk_sizes(len(n_list) * trials, _CHUNK)

    def contrib(lg, it):
        return moments(_confusion(it, lg, lg))  # the confusion term of weight w = gamma

    out = []
    for j, n in enumerate(n_list):
        lg = n * capacity(p) - math.sqrt(n * dispersion(p))
        reduce = functools.partial(contrib, lg)
        mean, se = merge_moments(p2p_density_samples(int(n), p, trials, (seed, j), reduce=reduce))
        out.append(ConfusionScalePoint(int(n), float(mean), float(se)))
    return out


def verify_confusion_scaling(p: float, n_list, trials: int, seed=0) -> dict:
    """The ``verify confusion-scaling`` verdict on :func:`confusion_scaling_check`: the first value over the
    last must be 0.7 to 1.45 times the predicted sqrt(n_last / n_first)."""
    if not n_list or n_list[0] == n_list[-1]:  # the ratio 1 would match the prediction 1 whatever the values
        raise DomainError(f"need a first and a last n that differ, got n_list {list(n_list)}")
    points = confusion_scaling_check(n_list, p, seed, trials)
    ratio = points[0].value / points[-1].value if points[-1].value > 0 else math.inf
    expected = math.sqrt(points[-1].n / points[0].n)
    payload = [{"n": q.n, "value": q.value, "std_err": q.std_err} for q in points]
    return {"points": payload, "ratio_first_last": ratio, "expected_sqrt_ratio": expected,
            "pass": bool(0.7 * expected <= ratio <= 1.45 * expected)}
