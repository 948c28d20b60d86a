"""Finite-blocklength random-coding simulator with one-sided typicality decoding.

Each trial draws a fresh codebook (the quantity being estimated is the
ensemble-average error probability), a uniform message, and Gaussian noise.
The decoder accepts the first codeword (lexicographically first pair for the
MAC) whose modified information density exceeds its threshold; the densities
are those of ``shellmc``, fed each candidate's residual r = y - x (for the
MAC, y - x1 - x2) through ||r||^2 and <x, r>.  ||r||^2 is summed from the
codeword differences, which are exactly 0 at the sent codeword: the expansion
||y||^2 - 2 <y, x> + n p loses the noise's order-n norm to rounding once
n p >> n (at n = 100 it failed sent codewords from about 165 dB).
A trial draws the Gram matrix of its k = m1 + m2 + 1 codeword and noise
vectors, which is all the decoder reads: by Bartlett's decomposition of the
Wishart law, k i.i.d. N(0, I_n) vectors are, in a basis of their span, the
rows of a lower triangular factor in d = min(n, k) coordinates, row i holding
min(i, d) standard normals and, for i < d, sqrt(chi2(n - i)) on the diagonal.
Codeword rows are scaled onto their shells.  The error counts are exact in
law, and a trial costs the same at any n >= k.

The companion ``*_achievability_bound`` estimators evaluate the matching
upper bounds on the ensemble-average error: an outage term under the channel
law plus confusion terms under the reference measures.  Confusion
probabilities are estimated by importance sampling from the channel measure
with weight e^{-i}, which resolves reference-tail probabilities near 1/gamma
at any blocklength.  The MAC bound weighs its confusion terms with the
uniform density-ratio constants of :func:`shell_rn_constants`, and :func:`link`
sets the MAC thresholds with the same constants for ``fbmac simulate`` and
``verify bounds`` alike.  The simulators draw chunk i from the substream
``(seed, i)`` and the bound estimators from ``(seed, 1, i)``, so for one seed
the two estimates are independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import chunk_sizes, substream, thread_map
from .core import DomainError, PowerPair, _require_finite_positive, db_to_linear
from .shellmc import _mac_densities, _density, _wilson_ci, importance_weights, merge_moments, moments
from .shellmc import mac_density_samples, p2p_density_samples, shell_rn_constants

#: scalars per simulation chunk; a trial holds its k x min(n, k) Bartlett rows and
#: its (m1, m2) pair arrays or m dot products, so its cost stops growing at n = k.
#: The bound estimators hold one density chunk (see ``shellmc``).
_SIM_BUDGET = 1 << 18


@dataclass(frozen=True)
class CodebookSpec:
    """Shape of the random-coding experiment; m2 = 1 selects point-to-point."""

    n: int
    m1: int
    p1: float
    m2: int = 1
    p2: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1 or self.m1 < 1 or self.m2 < 1:
            raise DomainError("need n >= 1 and codebook sizes >= 1")
        _require_finite_positive("p1", self.p1)
        if self.m2 > 1:
            _require_finite_positive("p2", self.p2)


@dataclass(frozen=True)
class Thresholds:
    """Decoding thresholds in nats; -inf/+inf sentinels allowed."""

    log_gamma1: float
    log_gamma2: float = -math.inf
    log_gamma3: float = -math.inf

    def __post_init__(self) -> None:
        for g in (self.log_gamma1, self.log_gamma2, self.log_gamma3):
            if math.isnan(g):
                raise DomainError("thresholds must not be NaN")


@dataclass(frozen=True)
class SimResult:
    trials: int
    errors: int
    eps_hat: float
    ci95_low: float
    ci95_high: float

    def __post_init__(self) -> None:
        if not (0 <= self.errors <= self.trials) or not (0.0 <= self.eps_hat <= 1.0):
            raise DomainError("inconsistent simulation result")


@dataclass(frozen=True)
class BoundEstimate:
    value: float
    std_err: float
    outage: float
    confusion: float
    trials: int


def _log_half(x: float) -> float:
    return math.log(x / 2.0) if x > 0 else -math.inf


def default_thresholds(spec: CodebookSpec, k1: float, k2: float, k3: float) -> Thresholds:
    """Rate-optimal thresholds ln(k (M-1)/2); -inf when a codebook is trivial."""
    k1, k2, k3 = (_require_finite_positive(name, k) for name, k in (("k1", k1), ("k2", k2), ("k3", k3)))
    return Thresholds(
        _log_half(k1 * (spec.m1 - 1)),
        _log_half(k2 * (spec.m2 - 1)),
        _log_half(k3 * (spec.m1 - 1) * (spec.m2 - 1)),
    )


def _sim_chunk(n: int, m1: int, m2: int = 0) -> int:
    """Trials per chunk (``m2 = 0``: point-to-point); DomainError if one trial is over budget."""
    k = m1 + m2 + 1
    held = k * min(n, k) + (m1 * m2 if m2 else m1)
    if held > _SIM_BUDGET:
        raise DomainError(f"one trial needs {held} scalars, over the budget of {_SIM_BUDGET}")
    return _SIM_BUDGET // held


def _span_rows(rng: np.random.Generator, b: int, n: int, shells: np.ndarray) -> np.ndarray:
    """(b, k, d) Bartlett rows of k = len(shells) + 1 N(0, I_n) vectors, d = min(n, k).

    Draws the below-diagonal normals row by row, then the (b, d) chi-squares;
    row i < k - 1 is scaled to squared norm n shells[i], the noise row is not.
    """
    k = len(shells) + 1
    d = min(n, k)
    w = np.zeros((b, k, d))
    rows, cols = np.tril_indices(k, -1, d)
    w[:, rows, cols] = rng.standard_normal((b, rows.size))
    diag = np.arange(d)
    w[:, diag, diag] = np.sqrt(rng.chisquare(n - diag, (b, d)))
    x = w[:, :-1]
    x *= np.sqrt(n * shells / np.einsum("bkd,bkd->bk", x, x))[:, :, None]
    return w


def _count_errors(run, seed, trials: int, chunk: int) -> SimResult:
    """Sum ``run(rng, b)`` error counts over chunks of ``trials``, chunk i on substream (seed, i)."""
    if trials < 1:
        raise DomainError("need trials >= 1")
    items = enumerate(chunk_sizes(trials, chunk))
    errors = sum(thread_map(lambda item: run(substream(seed, item[0]), item[1]), items))
    lo, hi = _wilson_ci(errors, trials)
    return SimResult(trials, errors, errors / trials, lo, hi)


def simulate_p2p(spec: CodebookSpec, th: Thresholds, trials: int) -> SimResult:
    """Ensemble-average error of the first-past-threshold decoder."""
    n, m, p = spec.n, spec.m1, spec.p1

    def run(rng, b):
        w = _span_rows(rng, b, n, np.full(m, p))
        x, z = w[:, :m], w[:, m]
        msg = rng.integers(0, m, b)
        sent = x[np.arange(b), msg]
        dot = np.einsum("bn,bmn->bm", sent + z, x)
        x -= sent[:, None]  # x - y, each codeword's residual negated, in place: see the module docstring
        x -= z[:, None]
        passing = _density(n, p, np.einsum("bmn,bmn->bm", x, x), dot - n * p) > th.log_gamma1
        first = passing.argmax(axis=1)
        ok = passing.any(axis=1) & (first == msg)
        return int(b - np.count_nonzero(ok))

    return _count_errors(run, spec.seed, trials, _sim_chunk(n, m))


def simulate_mac(spec: CodebookSpec, th: Thresholds, trials: int) -> SimResult:
    """Ensemble-average error of the first jointly-typical pair decoder."""
    n, m1, m2 = spec.n, spec.m1, spec.m2
    p1, p2 = spec.p1, spec.p2

    def run(rng, b):
        w = _span_rows(rng, b, n, np.repeat([p1, p2], [m1, m2]))
        x1, x2, z = w[:, :m1], w[:, m1:-1], w[:, -1]
        j = rng.integers(0, m1, b)
        k = rng.integers(0, m2, b)
        s1, s2 = x1[np.arange(b), j], x2[np.arange(b), k]
        y = s1 + s2 + z
        d1 = np.einsum("bn,bmn->bm", y, x1)[:, :, None]
        d2 = np.einsum("bn,bmn->bm", y, x2)[:, None, :]
        d12 = x1 @ x2.transpose(0, 2, 1)
        # every pair's residual r = y - x1 - x2 = u + e2, u = s1 - x1 + z and e2 = s2 - x2 held negated in x1
        # and x2: ||r||^2 = ||u||^2 + ||e2||^2 + 2 <u, e2> (see the module docstring), <x1, r>, <x2, r>
        x1 -= s1[:, None]
        x1 -= z[:, None]
        x2 -= s2[:, None]
        rsq = x1 @ x2.transpose(0, 2, 1)
        rsq *= 2.0
        rsq += np.einsum("bim,bim->bi", x1, x1)[:, :, None]
        rsq += np.einsum("bjm,bjm->bj", x2, x2)[:, None, :]
        it1, it2, it3 = _mac_densities(n, p1, p2, rsq, d1 - n * p1 - d12, d2 - n * p2 - d12, d12)
        passing = (it1 > th.log_gamma1) & (it2 > th.log_gamma2) & (it3 > th.log_gamma3)
        flat = passing.reshape(b, m1 * m2)
        first = flat.argmax(axis=1)
        ok = flat.any(axis=1) & (first == j * m2 + k)
        return int(b - np.count_nonzero(ok))

    return _count_errors(run, spec.seed, trials, _sim_chunk(n, m1, m2))


def link(mode: str, n: int, m1: int, m2: int, p1_db: float, p2_db: float | None, seed=0) -> tuple:
    """(spec, thresholds, simulator) of ``fbmac simulate`` and ``verify bounds``, the one rule both use.

    ``p2p`` mode has one user and thresholds ln((M - 1)/2); every other mode has two users, whose
    thresholds ln(k (M - 1)/2) take k from :func:`shell_rn_constants`, as the MAC bound weighs them.
    """
    p1 = db_to_linear(p1_db)
    if mode == "p2p":
        spec = CodebookSpec(n=n, m1=m1, p1=p1, seed=seed)
        return spec, default_thresholds(spec, 1.0, 1.0, 1.0), simulate_p2p
    if p2_db is None:
        raise DomainError(f"--p2-db is required in {mode} mode")
    spec = CodebookSpec(n=n, m1=m1, m2=m2, p1=p1, p2=db_to_linear(p2_db), seed=seed)
    return spec, default_thresholds(spec, *shell_rn_constants(PowerPair(spec.p1, spec.p2))), simulate_mac


def p2p_achievability_bound(spec: CodebookSpec, th: Thresholds, trials: int) -> BoundEstimate:
    """Outage plus (M-1)/2 times the reference-tail confusion estimate.

    The cost-violation term is identically zero for shell codebooks.
    """
    if trials < 1000:
        raise DomainError("need trials >= 1000")
    weight = (spec.m1 - 1) / 2.0

    def chunk_moments(it):
        outage = it <= th.log_gamma1
        return moments(np.stack([outage + weight * importance_weights(it, th.log_gamma1), outage]))

    parts = p2p_density_samples(spec.n, spec.p1, trials, (spec.seed, 1), reduce=chunk_moments)
    (value, outage), (se, _) = merge_moments(parts)
    return BoundEstimate(float(value), float(se), float(outage), float(value - outage), trials)


def mac_achievability_bound(
    spec: CodebookSpec, th: Thresholds, trials: int, mode: str = "joint"
) -> BoundEstimate:
    """Joint-outage or outage-splitting bound with three confusion terms.

    ``mode='splitting'`` replaces the joint outage with the sum of the three
    marginal outages (a union bound), so it is never below the joint value.
    """
    if trials < 1000:
        raise DomainError("need trials >= 1000")
    if mode not in ("joint", "splitting"):
        raise DomainError(f"unknown mode {mode!r}")
    pp = PowerPair(spec.p1, spec.p2)
    k1, k2, k3 = shell_rn_constants(pp)
    gammas = (th.log_gamma1, th.log_gamma2, th.log_gamma3)
    weights = (k1 * (spec.m1 - 1) / 2.0, k2 * (spec.m2 - 1) / 2.0,
               k3 * (spec.m1 - 1) * (spec.m2 - 1) / 2.0)

    def chunk_moments(iv):
        o1, o2, o3 = (i <= g for i, g in zip(iv, gammas))
        outage = (o1 | o2 | o3).astype(float) if mode == "joint" else o1.astype(float) + o2 + o3
        conf = sum(w * importance_weights(i, g) for w, i, g in zip(weights, iv, gammas))
        return moments(np.stack([outage + conf, outage, conf]))

    (value, outage, conf), (se, _, _) = merge_moments(
        mac_density_samples(spec.n, pp, trials, (spec.seed, 1), reduce=chunk_moments)
    )
    return BoundEstimate(float(value), float(se), float(outage), float(conf), trials)


def verify_bounds(mode: str, n: int, m1: int, m2: int, p1_db: float, p2_db: float | None, sim_trials: int,
                  bound_trials: int, seed=0) -> dict:
    """The ``verify bounds`` verdict: the simulated error passes when it exceeds its achievability bound
    (``mode`` p2p, mac-joint or mac-splitting) by at most 2 hypot(se_sim, se_bound)."""
    # the bound runs first, so an over-budget bound_trials is refused before the simulation draws
    spec, th, simulate = link(mode, n, m1, m2, p1_db, p2_db, seed)
    if mode == "p2p":
        rhs = p2p_achievability_bound(spec, th, bound_trials)
    else:
        rhs = mac_achievability_bound(spec, th, bound_trials, mode=mode.removeprefix("mac-"))
    sim = simulate(spec, th, sim_trials)
    sim_se = math.sqrt(max(sim.eps_hat * (1 - sim.eps_hat), 1e-300) / sim.trials)
    margin = 2.0 * math.hypot(sim_se, rhs.std_err)
    return {
        "mode": mode,
        "eps_hat": sim.eps_hat,
        "bound": rhs.value,
        "outage": rhs.outage,
        "confusion": rhs.confusion,
        "sim_std_err": sim_se,
        "bound_std_err": rhs.std_err,
        "margin": margin,
        "pass": bool(sim.eps_hat <= rhs.value + margin),
    }
