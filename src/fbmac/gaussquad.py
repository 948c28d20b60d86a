"""Gaussian tails, quantiles, and the trivariate lower-orthant probability.

The scalar tail :func:`q_scalar` and its inverse :func:`q_inv_scalar` come from the standard library
(``math.erfc`` and ``statistics.NormalDist``, Wichura's AS241), so the Monte Carlo layer that calls them
imports no scipy; only the orthant integrator below loads ``scipy.special``, when it is built.

The set-valued quantile of a centered trivariate Gaussian,

    Qinv(eps; Sigma) = { z : Pr[N(0, Sigma) <= z] >= 1 - eps },

is explored through two primitives: :func:`lower_orthant_prob`, which
evaluates ``Pr[N(0, Sigma) <= z]`` on the Genz separation-of-variables
representation, and :func:`boundary_scale`, which solves along a ray for the
scale at which the ray crosses the quantile-set boundary: a safeguarded secant
from the caller's start (the union-bound radius, for the region rays), whose
first step takes the slope of the union bound, so the module needs no
``scipy.optimize``.

The covariance is factored exactly at its rank r (Genz & Kwong, J. Stat.
Comput. Simul. 68, 2000); the conditioned integrand lives on the unit cube of
dimension r - 1.  At r <= 2 the probability is exact to rounding, with zero
standard error: in closed form at r <= 1, and at r = 2 (the sum-shell matrix,
or an i.i.d. one that loses rank) by composite Gauss-Legendre on the one free
coordinate, in tail form, so that a small outage keeps its relative accuracy
(Genz & Bretz, Computation of Multivariate Normal and t Probabilities, 2009).
At r = 3 the integrand is sampled with a rank-1 Kronecker lattice under a tent
periodization, repeated over a small number of randomly shifted replicates
whose means give the reported standard error.
All membership tests inside one :func:`boundary_scale` call reuse one point
set, so the profile being root-found is a smooth deterministic function of
the scale.  For fixed ``(seed, samples)`` every estimate is bit-identical
across runs and worker counts.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass

import numpy as np

from ._rng import seed_path, seed_sequence
from .core import DomainError

#: generating vector of the rank-3 Kronecker lattice (fractional parts of powers of the inverse plastic constant)
_GEN_2D = np.array([0.7548776662466927, 0.5698402909980532])

#: randomly shifted lattice replicates per estimate; their spread is the standard error
_RANDOMIZATIONS = 8

#: most lattice points per randomization: the lattice, its normals and the running product take
#: about 400 bytes a point, some 50 MB at this size (criterion 8 runs at it)
_MAX_SAMPLES = 1 << 17

_TINY = 1e-300
_ONE_MINUS = 1.0 - 1e-16

#: the rank-2 rule: Gauss-Legendre nodes per piece, the widest piece, and the ends of the integral over the
#: first free coordinate (phi(39) is about 1e-331, below every double)
_GL_NODES = 16
_GL_WIDTH = 4.0
_GL_END = 39.0
#: cuts about the zero of each bound line, in widths of its transition (1 / |slope|)
_GL_CUTS = np.array([-8.0, -3.0, -1.0, 1.0, 3.0, 8.0])


class BracketError(RuntimeError):
    """A ray solve found no quantile-set boundary crossing within its step budget."""


def q_scalar(x: float) -> float:
    """Standard Gaussian upper-tail probability Q(x) via erfc."""
    x = float(x)
    if math.isnan(x):
        raise DomainError("q_scalar requires a non-NaN argument")
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def q_inv_scalar(eps: float) -> float:
    """Functional inverse of :func:`q_scalar` on (0, 1): within a few ulps of the exact root down to 1e-300."""
    eps = float(eps)
    if not (0.0 < eps < 1.0):
        raise DomainError(f"eps must lie in (0, 1), got {eps!r}")
    return -statistics.NormalDist().inv_cdf(eps)


@dataclass(frozen=True, eq=False)
class OrthantQuery:
    """A covariance and a (possibly +/-inf) threshold vector."""

    sigma: np.ndarray
    z: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.sigma, dtype=float)
        z = np.asarray(self.z, dtype=float)
        if s.shape != (3, 3) or z.shape != (3,):
            raise DomainError("expected a 3x3 covariance and a 3-vector threshold")
        if not np.allclose(s, s.T, rtol=0.0, atol=1e-10 * max(1.0, abs(s).max())):
            raise DomainError("covariance must be symmetric")
        if np.linalg.eigvalsh(s).min() < -1e-10 * max(1.0, float(np.trace(s))):
            raise DomainError("covariance must be positive semidefinite")
        if np.isnan(z).any():
            raise DomainError("threshold vector must not contain NaN")
        object.__setattr__(self, "sigma", s)
        object.__setattr__(self, "z", z)


@dataclass(frozen=True)
class ProbEstimate:
    value: float
    std_err: float
    samples: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.value <= 1.0) or self.std_err < 0.0:
            raise DomainError("probability estimate out of range")


@functools.lru_cache(maxsize=1)
def _lattice(samples: int, seed: tuple) -> np.ndarray:
    """The tent-periodized shifted lattice of the rank-3 integrand, one replicate per randomization.

    It depends on (samples, seed) alone, so the rays of a curve, which share both, read one read-only
    copy; figure1's rank-3 curves share one.  Built per ray, it took about 7% of a figure1 round.
    """
    # Philox, not the package's SFC64 substreams: these shifts fix every rank-3 quantile-set curve, which
    # stays byte-identical until the lattice goes (ROADMAP item 3)
    shifts = np.random.Generator(np.random.Philox(seed_sequence(seed))).random((_RANDOMIZATIONS, 2))
    idx = np.arange(1, samples + 1, dtype=float)
    x = np.remainder(idx[None, :, None] * _GEN_2D[None, None, :] + shifts[:, None, :], 1.0)
    x = np.abs(np.subtract(np.multiply(x, 2.0, out=x), 1.0, out=x), out=x)
    x.flags.writeable = False
    return x


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``_GL_NODES``-point Gauss-Legendre rule on [-1, 1], by Golub-Welsch: the
    nodes are the eigenvalues of the Legendre polynomials' Jacobi matrix, the weights twice the squared
    first components of its eigenvectors."""
    k = np.arange(1.0, _GL_NODES)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vecs = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    weights = 2.0 * vecs[0] ** 2
    nodes.flags.writeable = weights.flags.writeable = False  # every caller reads the one cached pair
    return nodes, weights


class _OrthantIntegrator:
    """Evaluator of z -> Pr[N(0, sigma_active) <= z_active], factored once.

    Coordinates where ``active`` is False are treated as unconstrained.  The
    active block is permuted so the largest variance is conditioned first (and,
    below full rank, the largest variance conditional on it second, so that the
    leading block is not singular), then written X = F Y on r = rank free
    normals: a Cholesky factor, rows past r solved onto it.
    """

    def __init__(self, sigma: np.ndarray, active: np.ndarray, samples: int, seed):
        from scipy.special import ndtr, ndtri  # the rules alone need scipy; the Monte Carlo layer runs without it

        self.ndtr, self.ndtri = ndtr, ndtri
        if not 1000 <= samples <= _MAX_SAMPLES:
            raise DomainError(f"samples must lie in [1000, {_MAX_SAMPLES}], got {samples}")
        self.active = active
        self.samples = int(samples)
        self.dim = int(active.sum())
        block = sigma[np.ix_(active, active)]
        self.order = np.argsort(-np.diag(block), kind="stable")
        sub = block[np.ix_(self.order, self.order)]
        r = self.rank = int(np.linalg.matrix_rank(sub, hermitian=True))
        if 1 < r < self.dim:
            k = 1 + int(np.argmax(np.diag(sub)[1:] - sub[0, 1:] ** 2 / sub[0, 0]))
            self.order[[1, k]] = self.order[[k, 1]]
            sub = block[np.ix_(self.order, self.order)]
        try:
            lead = np.linalg.cholesky(sub[:r, :r])
        except np.linalg.LinAlgError:
            raise DomainError("the covariance's leading coordinates are collinear") from None
        self.factor = np.vstack([lead, np.linalg.solve(lead, sub[:r, r:]).T])
        if r == 3:
            self.x = _lattice(self.samples, seed_path(seed))

    def _last(self, zz: np.ndarray, hi, y: np.ndarray):
        """Pr of the last free coordinate's interval, and of its complement.  Its own row puts it below
        ``hi``; a row past the rank reads c Y_last <= t, t net of the earlier free coordinates ``y``: a
        bound from above if c > 0, from below if c < 0, and the indicator of t >= 0 if c = 0."""
        r, lo = self.rank, -np.inf
        for j in range(r, self.dim):
            c, t = self.factor[j, r - 1], zz[j] - np.einsum("j,j...->...", self.factor[j, : r - 1], y)
            bound = t / c if c else np.where(t >= 0.0, np.inf, -np.inf)
            hi, lo = (np.minimum(hi, bound), lo) if c >= 0.0 else (hi, np.maximum(lo, bound))
        return np.maximum(self.ndtr(hi) - self.ndtr(lo), 0.0), np.minimum(self.ndtr(-hi) + self.ndtr(lo), 1.0)

    def _rule(self, zz: np.ndarray, top: float) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights of the rank-2 rule for the first free coordinate on [-_GL_END, top].

        Given Y_1 = y, each row j >= 1 bounds the last free coordinate by a line (zz_j - F_j0 y) / F_j1.
        The pieces, at most ``_GL_WIDTH`` wide, are cut where two lines cross (where their min or max
        switches) and about where each line crosses zero (where its tail turns over, or jumps at
        F_j1 = 0), so that every piece has a smooth integrand.
        """
        f = self.factor[1:]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            icpt, slope = zz[1:] / f[:, 1], f[:, 0] / f[:, 1]
            cross = (icpt[:, None] - icpt) / (slope[:, None] - slope)
            turns = zz[1:, None] / f[:, :1] + _GL_CUTS * np.abs(f[:, 1:] / f[:, :1])
        edges = np.concatenate([np.arange(-_GL_END, top, _GL_WIDTH), [top], cross.ravel(), turns.ravel()])
        edges = np.unique(edges[(edges >= -_GL_END) & (edges <= top)])
        mid, half = (edges[1:] + edges[:-1]) / 2.0, np.diff(edges) / 2.0
        nodes, weights = _gauss_legendre()
        return (mid[:, None] + half[:, None] * nodes).ravel(), (half[:, None] * weights).ravel()

    def __call__(self, z: np.ndarray) -> tuple[float, float]:
        zz = z[self.active][self.order]
        f, r = self.factor, self.rank
        if r <= 1:  # closed form: no free coordinate, or one that every row bounds
            return float(self._last(zz, zz[0] / f[0, 0], np.empty(0))[0] if r else (zz >= 0.0).all()), 0.0
        if r == 2:  # one integral left: outage = Q(top) + int phi(y) Pr[Y_2 outside its interval | y] dy
            top = zz[0] / f[0, 0]
            y, w = self._rule(zz, min(top, _GL_END))
            inside, tail = self._last(zz, (zz[1] - f[1, 0] * y) / f[1, 1], y[None])
            w *= np.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)
            outage = float(self.ndtr(-top) + w @ tail)
            # past 1/2 the probability itself is the small side, integrated directly (0 where no interval is open)
            return (1.0 - outage if outage <= 0.5 else float(w @ inside)), 0.0
        e0 = float(self.ndtr(zz[0] / f[0, 0]))
        # all randomization replicates in one (R, N) block, updated in place
        prob = np.full((_RANDOMIZATIONS, self.samples), e0)
        e_prev = prob
        y = np.empty((r - 1, _RANDOMIZATIONS, self.samples))
        shift = np.empty_like(prob)  # once e_prev is read, its block holds the next shift
        for i in range(1, r):
            yi = np.multiply(self.x[:, :, i - 1], e_prev, out=y[i - 1])
            self.ndtri(np.clip(yi, _TINY, _ONE_MINUS, out=yi), out=yi)
            np.einsum("j,jrn->rn", f[i, :i], y[:i], out=shift)
            hi = np.divide(np.subtract(zz[i], shift, out=shift), f[i, i], out=shift)
            e_prev = self.ndtr(hi, out=shift)
            prob *= e_prev
        means = prob.mean(axis=1)
        value = float(np.clip(means.mean(), 0.0, 1.0))
        return value, float(means.std(ddof=1) / math.sqrt(_RANDOMIZATIONS))


def lower_orthant_prob(q: OrthantQuery, samples: int = 1 << 17, seed=0) -> ProbEstimate:
    """Evaluate ``Pr[N(0, sigma) <= z]`` element-wise.

    Coordinates with ``z = +inf`` do not constrain and are dropped; any
    ``z = -inf`` gives 0.  Constrained blocks of rank at most 2 are exact to
    rounding, with zero standard error: rank 0 and 1 in closed form, rank 2 by
    the deterministic rule on its one conditioned integral.  Rank 3 is
    estimated on the lattice, ``samples`` points per randomization (exact
    too on a diagonal covariance, whose conditioned integrand is constant).
    """
    total = int(samples) * _RANDOMIZATIONS
    if np.isneginf(q.z).any():
        return ProbEstimate(0.0, 0.0, total)
    active = ~np.isposinf(q.z)
    value, std_err = _OrthantIntegrator(q.sigma, active, samples, seed)(q.z)
    return ProbEstimate(value, std_err, total)


def quantile_set_member(
    eps: float,
    sigma: np.ndarray,
    z: np.ndarray,
    samples: int = 1 << 17,
    seed=0,
) -> bool:
    """Point-estimate membership test ``Pr[N(0, sigma) <= z] >= 1 - eps``."""
    if not (0.0 < eps < 1.0):
        raise DomainError(f"eps must lie in (0, 1), got {eps!r}")
    est = lower_orthant_prob(OrthantQuery(np.asarray(sigma), np.asarray(z)), samples, seed)
    return est.value >= 1.0 - eps


#: most steps of one ray solve, each one orthant evaluation past the start's
_MAX_STEPS = 100


def boundary_scale(
    eps: float,
    sigma: np.ndarray,
    direction: np.ndarray,
    origin: np.ndarray,
    start: float,
    samples: int = 1 << 14,
    seed=0,
) -> float:
    """Largest scale ``t`` at which ``z(t) = origin - t * direction`` is still in ``Qinv(eps; sigma)``.

    The orthant probability shrinks along the ray; 0.0 is returned when the
    origin itself is already outside.  A safeguarded secant solves for the
    crossing from ``start >= 0``: its first step takes the slope of the union
    bound ``1 - sum_i Q(z_i / sigma_i)`` there, and each later one the secant
    through the last two evaluations.  A step that would leave the interval
    between the largest member and the smallest non-member seen bisects it
    instead; before any non-member is seen, each step moves outward and at most
    doubles ``t`` (plus one).  Steps clip at 0.  The solve returns the stepped
    iterate once a step is within 1e-6 in ``t``, and raises
    :class:`BracketError` after ``_MAX_STEPS`` steps.
    """
    if not (0.0 < eps < 1.0):
        raise DomainError(f"eps must lie in (0, 1), got {eps!r}")
    d = np.asarray(direction, dtype=float)
    if d.shape != (3,) or (d < 0).any() or not d.any():
        raise DomainError("direction must be a nonzero, nonnegative 3-vector")
    t = float(start)
    if not 0.0 <= t < math.inf:
        raise DomainError(f"start must be finite and >= 0, got {start!r}")
    sigma = np.asarray(sigma, dtype=float)
    OrthantQuery(sigma, np.zeros(3))  # validates the covariance
    integ = _OrthantIntegrator(sigma, np.ones(3, dtype=bool), samples, seed)
    origin = np.asarray(origin, dtype=float)
    target = 1.0 - eps

    def gap(t: float) -> float:
        """Orthant probability at scale ``t`` on the ray, minus the target."""
        return integ(origin - t * d)[0] - target

    sd = np.sqrt(np.diag(sigma))
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero variance or an infinite origin adds nothing
        density = np.where(sd > 0.0, d / sd * np.exp(-0.5 * ((origin - t * d) / sd) ** 2), 0.0)
    g, slope = gap(t), -float(density.sum()) / math.sqrt(2.0 * math.pi)
    lo, hi = -math.inf, math.inf  # the largest member and the smallest non-member seen
    for _ in range(_MAX_STEPS):
        if g >= 0.0:
            lo = t
        elif t == 0.0:
            return 0.0
        else:
            hi = t
        x = max(t - g / slope, 0.0) if slope < 0.0 else math.nan
        if hi == math.inf:
            x = min(x, 2.0 * t + 1.0) if x >= t else 2.0 * t + 1.0
        elif not lo < x < hi:
            x = 0.5 * (max(lo, 0.0) + hi)
        if abs(x - t) <= 1e-6:
            return x
        g_prev, t_prev = g, t
        t, g = x, gap(x)
        slope = (g - g_prev) / (t - t_prev)
    raise BracketError(f"no crossing within 1e-6 after {_MAX_STEPS} steps (member {lo}, non-member {hi})")
