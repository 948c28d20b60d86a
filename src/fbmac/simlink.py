"""Finite-blocklength random-coding simulator with one-sided typicality decoding.

Each trial draws a fresh codebook (the quantity being estimated is the
ensemble-average error probability), a uniform message, and Gaussian noise.
The one decoder accepts the lexicographically first codeword pair whose three
``shellmc`` densities exceed their thresholds, in the likelihood-ratio form of
``shellmc._ratio_density`` with r = y - x1 - x2 the pair's residual.  Every
||r||^2 and ||y - x1||^2 is summed from codeword differences, the sent codeword
and the noise subtracted one at a time, so the sent pair's ||r||^2 is the
noise's norm at any SNR (an expansion in <y, x> or in s1 + z rounds it away
once a power is large); s1 + z and y enter only divided by 1 + p.
``CodebookSpec`` refuses the powers at which a wrong pair's ||r||^2, about
4 n (sqrt p1 + sqrt p2)^2, overflows (from about 3057 dB at n = 100).  Point-
to-point is the MAC whose second user sends one known codeword on the zero
shell (m2 = 1, p2 = 0): its difference is exactly 0, i2 = 0 and i3 = i1 meet
their -inf thresholds, and user 1's decision is the point-to-point rule on the
same residual (n = 100, M = 8: 47 ms per 20 000 trials on one core, the 8 x 8
MAC 135 ms).  The Wilson interval ends exactly at 0 (1) at 0 (all) errors.
A trial draws the Gram matrix of its k = m1 + m2 + 1 codeword and noise
vectors, which is all the decoder reads: by Bartlett's decomposition of the
Wishart law, k i.i.d. N(0, I_n) vectors are, in a basis of their span, the
rows of a lower triangular factor in d = min(n, k) coordinates, row i holding
min(i, d) standard normals and, for i < d, sqrt(chi2(n - i)) on the diagonal.
Codeword rows are scaled onto their shells.  The error counts are exact in
law, and a trial costs the same at any n >= k.

The one estimator :func:`mac_achievability_bound` evaluates the matching
upper bound on the ensemble-average error of either link: an outage term under
the channel law plus confusion terms under the reference measures, over the 1
(point-to-point) or 3 (MAC) density rows of one chunk reduction.  Confusion
probabilities are estimated by importance sampling from the channel measure
with weight e^{-i}, which resolves reference-tail probabilities near 1/gamma
at any blocklength.  Every codebook weight is a logarithm: ln(k (M - 1)/2),
taken from the integer sizes by :func:`default_thresholds`, so it is finite
at any size, with k = 1 for point-to-point and the uniform density-ratio
constants of :func:`shell_rn_constants` for the MAC.  The same values are the
thresholds :func:`link` sets for ``fbmac simulate`` and ``verify bounds`` and
the weights of the bound, whose terms ``shellmc._confusion`` keeps in the log
domain.  The simulator draws chunk i from the substream ``(seed, i)`` and the
bound from ``(seed, 1, i)``, so for one seed the two estimates are
independent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import astuple, dataclass

import numpy as np

from ._rng import chunk_sizes
from ._rng import thread_map  # noqa: F401  unused here: perfbench/tracing.py wraps it as a pool user's attribute
from .core import DomainError, PowerPair, _require_finite_positive, db_to_linear
from .shellmc import _CHUNK, _confusion, _ratio_density, _stream, _wilson_ci, merge_moments, moments
from .shellmc import mac_density_samples, p2p_density_samples, shell_rn_constants

#: scalars per simulation chunk; a trial holds its k x min(n, k) Bartlett rows and
#: its (m1, m2) pair arrays, so its cost stops growing at n = k.
#: The bound estimators hold one density chunk (see ``shellmc``).
_SIM_BUDGET = 1 << 18


@dataclass(frozen=True)
class CodebookSpec:
    """Shape of the random-coding experiment; m2 = 1 and p2 = 0 select point-to-point, the MAC whose
    second user sends one known codeword (see the module docstring)."""

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
        if self.m2 > 1 or self.p2 != 0.0:  # p2 = 0 only for the one known codeword
            _require_finite_positive("p2", self.p2)
        root = math.sqrt(self.p1) + math.sqrt(self.p2)
        if not math.isfinite(4.0 * self.n * root * root):  # about the largest ||r||^2 of a wrong pair
            raise DomainError(f"powers p1 = {self.p1!r}, p2 = {self.p2!r} are too large at n = {self.n}: "
                              "the decoder's squared residual 4 n (sqrt p1 + sqrt p2)^2 overflows")


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


def default_thresholds(spec: CodebookSpec, k1: float, k2: float, k3: float) -> Thresholds:
    """Rate-optimal thresholds ln(k prod(M - 1)/2), the log weights of the bound's confusion terms; -inf when a
    codebook is trivial.  prod(M - 1) is an integer, whose logarithm is finite at any size."""

    def log_weight(name, k, *sizes):
        log_half_k = math.log(_require_finite_positive(name, k)) - math.log(2.0)  # finite at the least subnormal k
        product = math.prod(m - 1 for m in sizes)
        return math.log(product) + log_half_k if product else -math.inf

    return Thresholds(log_weight("k1", k1, spec.m1), log_weight("k2", k2, spec.m2),
                      log_weight("k3", k3, spec.m1, spec.m2))


def _log_weights(spec: CodebookSpec) -> Thresholds:
    """The thresholds of :func:`link` and the log weights of the bound: k = 1 for point-to-point (p2 = 0, the one
    known codeword), :func:`shell_rn_constants` for the MAC."""
    return default_thresholds(spec, *(shell_rn_constants(PowerPair(spec.p1, spec.p2)) if spec.p2 else (1, 1, 1)))


def _sim_chunk(n: int, m1: int, m2: int = 1) -> int:
    """Trials per chunk; DomainError if one trial is over budget."""
    k = m1 + m2 + 1
    held = k * min(n, k) + m1 * m2
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


def simulate_mac(spec: CodebookSpec, th: Thresholds, trials: int) -> SimResult:
    """Ensemble-average error of the first jointly-typical pair decoder; point-to-point at m2 = 1, p2 = 0."""
    n, m1, m2 = spec.n, spec.m1, spec.m2
    p1, p2 = spec.p1, spec.p2
    if trials < 1:
        raise DomainError("need trials >= 1")

    def decode(b, rng):
        """Whether each of ``b`` trials decodes its sent pair."""
        w = _span_rows(rng, b, n, np.repeat([p1, p2], [m1, m2]))
        x1, x2, z = w[:, :m1], w[:, m1:-1], w[:, -1]
        j = rng.integers(0, m1, b)
        k = rng.integers(0, m2, b)
        s1, s2 = x1[np.arange(b), j], x2[np.arange(b), k]
        # every pair's residual r = y - x1 - x2 = u + e2, with u = s1 - x1 + z and e2 = s2 - x2 held negated in x1
        # and x2; the likelihood-ratio form (see the module docstring) also reads ||y - x2||^2 = ||v + e2||^2 for
        # v = s1 + z, ||y - x1||^2 = ||u + s2||^2 and ||y||^2; the sent row of x1 is -z exactly, not -(s1 + z)
        v, y = s1 + z, s1 + s2 + z
        x1 -= s1[:, None]
        x1 -= z[:, None]
        x2 -= s2[:, None]
        usq, esq = np.einsum("bim,bim->bi", x1, x1), np.einsum("bjm,bjm->bj", x2, x2)
        rsq = 2.0 * (x1 @ x2.transpose(0, 2, 1)) + usq[:, :, None] + esq[:, None, :]
        other2 = np.einsum("bm,bm->b", v, v)[:, None] + esq - 2.0 * np.einsum("bm,bjm->bj", v, x2)
        other1 = np.einsum("bm,bm->b", s2, s2)[:, None] + usq - 2.0 * np.einsum("bm,bim->bi", s2, x1)
        it1 = _ratio_density(n, p1, other2[:, None, :], rsq)
        it2 = _ratio_density(n, p2, other1[:, :, None], rsq)
        it3 = _ratio_density(n, p1 + p2, np.einsum("bm,bm->b", y, y)[:, None, None], rsq)
        passing = (it1 > th.log_gamma1) & (it2 > th.log_gamma2) & (it3 > th.log_gamma3)
        flat = passing.reshape(b, m1 * m2)
        return flat.any(axis=1) & (flat.argmax(axis=1) == j * m2 + k)

    errors = trials - int(sum(_stream(trials, spec.seed, decode, np.count_nonzero, _sim_chunk(n, m1, m2))))
    lo, hi = _wilson_ci(errors, trials)
    return SimResult(trials, errors, errors / trials, lo, hi)


# one decoder for both links: perfbench's montecarlo workload calls, and perfbench/tracing.py wraps, this name
simulate_p2p = simulate_mac


def link(mode: str, n: int, m1: int, m2: int, p1_db: float, p2_db: float | None, seed=0) -> tuple:
    """(spec, thresholds) of ``fbmac simulate`` and ``verify bounds``, the one rule both use.

    ``p2p`` mode has one user (the MAC whose second user sends one known codeword), every other mode
    two; the thresholds are the log weights of :func:`_log_weights`, which the bound weighs its terms by.
    """
    p1 = db_to_linear(p1_db)
    if mode == "p2p":
        spec = CodebookSpec(n=n, m1=m1, p1=p1, seed=seed)
    elif p2_db is None:
        raise DomainError(f"--p2-db is required in {mode} mode")
    else:
        spec = CodebookSpec(n=n, m1=m1, m2=m2, p1=p1, p2=db_to_linear(p2_db), seed=seed)
    return spec, _log_weights(spec)


def mac_achievability_bound(spec: CodebookSpec, th: Thresholds, trials: int, mode: str = "joint") -> BoundEstimate:
    """Outage plus the confusion terms of weights k prod(M - 1)/2 (:func:`_log_weights`), reduced chunk by chunk;
    point-to-point (m2 = 1, p2 = 0) has one density row, the MAC three.

    ``mode='splitting'`` replaces the joint outage, the union of the rows' outages, with their sum (a union
    bound), so it is never below the joint value.  The cost-violation term is identically zero for shell
    codebooks.
    """
    if mode not in ("joint", "splitting"):
        raise DomainError(f"unknown mode {mode!r}")
    if trials < 1000:
        raise DomainError("need trials >= 1000")
    if spec.p2:
        rows, sample = 3, functools.partial(mac_density_samples, spec.n, PowerPair(spec.p1, spec.p2))
    else:  # 2-variate: cheaper than the MAC sampler
        rows, sample = 1, functools.partial(p2p_density_samples, spec.n, spec.p1)
    gammas, weights = astuple(th)[:rows], astuple(_log_weights(spec))[:rows]

    def chunk_moments(iv):
        iv = iv.reshape(rows, -1)  # the p2p draws are one row
        below = [i <= g for i, g in zip(iv, gammas)]
        outage = (functools.reduce(np.logical_or, below).astype(float) if mode == "joint"
                  else sum(o.astype(float) for o in below))
        conf = sum(_confusion(i, w, g) for i, w, g in zip(iv, weights, gammas))
        return moments(np.stack([outage + conf, outage, conf]))

    (value, outage, conf), (se, _, _) = merge_moments(sample(trials, (spec.seed, 1), reduce=chunk_moments))
    return BoundEstimate(float(value), float(se), float(outage), float(conf), trials)


# one bound for both links: perfbench/tracing.py wraps this name, as it does ``simulate_p2p``
p2p_achievability_bound = mac_achievability_bound


def verify_bounds(mode: str, n: int, m1: int, m2: int, p1_db: float, p2_db: float | None, sim_trials: int,
                  bound_trials: int, seed=0) -> dict:
    """The ``verify bounds`` verdict: the simulated error passes when it exceeds its achievability bound
    (``mode`` p2p, mac-joint or mac-splitting) by at most 2 hypot(se_sim, se_bound)."""
    spec, th = link(mode, n, m1, m2, p1_db, p2_db, seed)
    chunk_sizes(sim_trials, _sim_chunk(spec.n, spec.m1, spec.m2))  # every budget is refused before any draw
    chunk_sizes(bound_trials, _CHUNK)
    rhs = mac_achievability_bound(spec, th, bound_trials, mode="splitting" if mode == "mac-splitting" else "joint")
    sim = simulate_mac(spec, th, sim_trials)
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
