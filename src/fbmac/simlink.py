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

The companion ``*_achievability_bound`` estimators evaluate the matching
upper bounds on the ensemble-average error: an outage term under the channel
law plus confusion terms under the reference measures.  Confusion
probabilities are estimated by importance sampling from the channel measure
with weight e^{-i}, which resolves reference-tail probabilities near 1/gamma
at any blocklength; both bounds reduce their 1 (point-to-point) or 3 (MAC)
density rows in one chunk reduction.  The MAC bound weighs its confusion terms
with the uniform density-ratio constants of :func:`shell_rn_constants`, and
:func:`link` sets the MAC thresholds with the same constants for ``fbmac
simulate`` and ``verify bounds`` alike.  The simulator draws chunk i from the
substream ``(seed, i)`` and the bound estimators from ``(seed, 1, i)``, so for
one seed the two estimates are independent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._rng import thread_map  # noqa: F401  unused here: perfbench/tracing.py wraps it as a pool user's attribute
from .core import DomainError, PowerPair, _require_finite_positive, db_to_linear
from .shellmc import _ratio_density, _stream, _wilson_ci, importance_weights, merge_moments, moments
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

    ``p2p`` mode has one user (the MAC whose second user sends one known codeword) and thresholds
    ln((M - 1)/2); every other mode has two users, whose thresholds ln(k (M - 1)/2) take k from
    :func:`shell_rn_constants`, as the MAC bound weighs them.
    """
    p1 = db_to_linear(p1_db)
    if mode == "p2p":
        spec = CodebookSpec(n=n, m1=m1, p1=p1, seed=seed)
        return spec, default_thresholds(spec, 1.0, 1.0, 1.0)
    if p2_db is None:
        raise DomainError(f"--p2-db is required in {mode} mode")
    spec = CodebookSpec(n=n, m1=m1, m2=m2, p1=p1, p2=db_to_linear(p2_db), seed=seed)
    return spec, default_thresholds(spec, *shell_rn_constants(PowerPair(spec.p1, spec.p2)))


def _bound(seed, trials: int, sample, gammas: tuple, weights: tuple, joint: bool) -> BoundEstimate:
    """Outage plus the weighted confusion terms of the density rows ``sample`` draws, reduced chunk by chunk; the
    outage is the union of the rows' outages (``joint``) or their sum, a union bound."""
    if trials < 1000:
        raise DomainError("need trials >= 1000")

    def chunk_moments(iv):
        iv = iv.reshape(len(gammas), -1)  # the p2p draws are one row
        below = [i <= g for i, g in zip(iv, gammas)]
        outage = functools.reduce(np.logical_or, below).astype(float) if joint else sum(o.astype(float) for o in below)
        conf = sum(w * importance_weights(i, g) for w, i, g in zip(weights, iv, gammas))
        return moments(np.stack([outage + conf, outage, conf]))

    (value, outage, conf), (se, _, _) = merge_moments(sample(trials, (seed, 1), reduce=chunk_moments))
    return BoundEstimate(float(value), float(se), float(outage), float(conf), trials)


def p2p_achievability_bound(spec: CodebookSpec, th: Thresholds, trials: int) -> BoundEstimate:
    """Outage plus (M-1)/2 times the reference-tail confusion estimate.

    The cost-violation term is identically zero for shell codebooks.
    """
    sample = functools.partial(p2p_density_samples, spec.n, spec.p1)  # 2-variate: cheaper than the MAC sampler
    return _bound(spec.seed, trials, sample, (th.log_gamma1,), ((spec.m1 - 1) / 2.0,), joint=True)


def mac_achievability_bound(spec: CodebookSpec, th: Thresholds, trials: int, mode: str = "joint") -> BoundEstimate:
    """Joint-outage or outage-splitting bound with three confusion terms.

    ``mode='splitting'`` replaces the joint outage with the sum of the three
    marginal outages (a union bound), so it is never below the joint value.
    """
    if mode not in ("joint", "splitting"):
        raise DomainError(f"unknown mode {mode!r}")
    pp = PowerPair(spec.p1, spec.p2)
    k1, k2, k3 = shell_rn_constants(pp)
    gammas = (th.log_gamma1, th.log_gamma2, th.log_gamma3)
    weights = (k1 * (spec.m1 - 1) / 2.0, k2 * (spec.m2 - 1) / 2.0, k3 * (spec.m1 - 1) * (spec.m2 - 1) / 2.0)
    sample = functools.partial(mac_density_samples, spec.n, pp)
    return _bound(spec.seed, trials, sample, gammas, weights, joint=mode == "joint")


def verify_bounds(mode: str, n: int, m1: int, m2: int, p1_db: float, p2_db: float | None, sim_trials: int,
                  bound_trials: int, seed=0) -> dict:
    """The ``verify bounds`` verdict: the simulated error passes when it exceeds its achievability bound
    (``mode`` p2p, mac-joint or mac-splitting) by at most 2 hypot(se_sim, se_bound)."""
    # the bound runs first, so an over-budget bound_trials is refused before the simulation draws
    spec, th = link(mode, n, m1, m2, p1_db, p2_db, seed)
    if mode == "p2p":
        rhs = p2p_achievability_bound(spec, th, bound_trials)
    else:
        rhs = mac_achievability_bound(spec, th, bound_trials, mode=mode.removeprefix("mac-"))
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
