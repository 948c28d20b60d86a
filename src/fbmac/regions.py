"""Second-order achievable and outer rate-region boundaries.

All regions here are downward closed and star shaped from the origin of the
rate plane, so boundaries are sampled along rays ``(cos t, sin t)`` for
``t in (0, pi/2)`` and returned as monotone polylines (r2 non-increasing in
r1).  Third-order ``O(1/n)`` and ``O(log n / n)`` corrections are uniformly
dropped; negative rates clamp to zero.

The region kinds are the keys of ``REGIONS`` at the end of this module, in
figure1 file order; each maps to its figure1 CSV name and to a builder that
calls the constructor below, whose docstring says what the region is.  The six
curved kinds (joint, iid, sumshell, splitting, gallager, tdma) are each a
batched map from ray angles to radii, which ``_curve`` turns into a boundary;
at equal powers it solves the rays up to pi/4 only and mirrors the rest.  No
radius depends on the other angles of its batch, so the single-ray views
(``second_order_ray``, ``splitting_ray``, ``gallager_ray``, ``tdma_ray``) are
the maps at one angle and equal their curves' radii bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import log_ndtr, logsumexp, ndtr, softmax

from ._rng import thread_map
from .core import (
    LN2,
    DomainError,
    PowerPair,
    _require_finite_positive,
    _require_operating_point,
    _require_square_finite,
    capacity,
    capacity_vector,
    dispersion,
    dispersion_matrix_iid,
    dispersion_matrix_shell,
    dispersion_matrix_sumshell,
)
from .gaussquad import boundary_scale, q_inv_scalar

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True, eq=False)
class RegionBoundary:
    """Sampled boundary polyline with provenance metadata."""

    kind: str
    params: dict
    points: np.ndarray
    units: str = "nats"
    empty: bool = False

    #: monotone-repair budget; covers root-finder jitter plus the residual
    #: lattice error of the quantile-set rays, far below the 1e-3
    #: resolution the boundaries are consumed at.  At equal powers every
    #: curved kind is mirrored after this repair, so it ships exactly symmetric
    _REPAIR_TOL = 5e-4

    def __post_init__(self) -> None:
        if self.kind not in REGIONS:
            raise DomainError(f"unknown region kind {self.kind!r}")
        pts = np.asarray(self.points, dtype=float).reshape(-1, 2)
        if self.empty:
            pts = pts[:0]
        else:
            if pts.shape[0] == 0:
                raise DomainError("non-empty boundary required")
            if (pts < -1e-12).any():
                raise DomainError("rates must be nonnegative")
            pts = np.maximum(pts, 0.0)
            # points arrive in boundary order (r1 ascending along the curve);
            # vertical/flat segments carry solver jitter, projected out here
            r1 = np.maximum.accumulate(pts[:, 0])
            r2 = np.minimum.accumulate(pts[:, 1])
            if (r1 - pts[:, 0]).max() > self._REPAIR_TOL or (pts[:, 1] - r2).max() > self._REPAIR_TOL:
                raise DomainError("boundary is not monotone")
            pts = np.stack([r1, r2], axis=1)
        object.__setattr__(self, "points", pts)

    def in_units(self, units: str) -> "RegionBoundary":
        if units not in ("nats", "bits"):
            raise DomainError(f"unknown units {units!r}")
        if units == self.units:
            return self
        factor = 1.0 / LN2 if units == "bits" else LN2
        return RegionBoundary(self.kind, self.params, self.points * factor, units, self.empty)


@dataclass(frozen=True)
class GallagerParams:
    """Knobs of the error-exponent region: prefactor constant and (n, eps)."""

    a: float
    n: int
    eps: float

    def __post_init__(self) -> None:
        _require_finite_positive("a", self.a)
        _require_operating_point(self.n, self.eps)


#: most rays a curve is sampled on: a quantile-set ray is a lattice solve of about 7 ms at one worker (the
#: 99 solves of a 64-ray figure1 round took 0.72 s on 2 cores), so this many take about 30 s per region
#: (half that at equal powers, which solve half the rays)
_MAX_RAYS = 1 << 12


def ray_angles(num_points: int) -> np.ndarray:
    if not 8 <= num_points <= _MAX_RAYS:
        raise DomainError(f"need 8 to {_MAX_RAYS} rays, got {num_points}")
    return (np.arange(num_points) + 0.5) / num_points * (math.pi / 2.0)


def _curve(kind: str, params: dict, num_points: int, radii, empty_at_origin: bool = False) -> RegionBoundary:
    """Region ``kind`` from its batched ray map ``radii(thetas)``: the one constructor of every curved kind.

    At equal powers the users swap places and the region stays the same, so the radius at theta is the
    radius at pi/2 - theta: only the rays up to pi/4 are solved (at the figure point the lattice falls
    less far below the union-bound radius there), and the curve is mirrored after the monotone repair,
    which raises r1 and lowers r2, so that it ships exactly symmetric.  With ``empty_at_origin`` a curve
    whose every radius is 0 (the origin already fails) is the empty boundary.
    """
    mirror = params["p1"] == params["p2"]
    thetas = ray_angles(num_points)[: (num_points + 1) // 2 if mirror else None]
    r = radii(thetas)
    pts = np.maximum(np.stack([r * np.cos(thetas), r * np.sin(thetas)], axis=1)[::-1], 0.0)  # r1 ascending
    rb = RegionBoundary(kind, params, pts, empty=empty_at_origin and not r.any())
    if mirror:  # ray N-1-k is ray k with r1 and r2 swapped; an odd count's pi/4 ray is its own mirror,
        # where cos and sin differ by an ulp: it takes the smaller of its two rates for both
        pts = np.concatenate([rb.points[num_points % 2 :][::-1, ::-1], rb.points])
        rb = RegionBoundary(kind, params, np.minimum(pts, pts[::-1, ::-1]), empty=rb.empty)
    return rb


def _normal_rate(c, v, n: int, penalty):
    """The normal approximation c - sqrt(v/n) penalty, clamped at zero; broadcasts."""
    return np.maximum(c - np.sqrt(v / n) * penalty, 0.0)


def _penalty(level: float) -> float:
    """Q^{-1}(level) clamped at zero: an error budget past 1/2 earns no rate bonus."""
    return max(q_inv_scalar(level), 0.0)


def p2p_second_order_rate(n: int, eps: float, p: float) -> float:
    """C(p) - sqrt(V(p)/n) Qinv(eps), clamped at zero; nats per use."""
    _require_operating_point(n, eps)
    return float(_normal_rate(capacity(p), dispersion(p), n, q_inv_scalar(eps)))


# ---------------------------------------------------------------------------
# trivariate quantile-set regions (joint / iid / sumshell)
# ---------------------------------------------------------------------------


def _quantile_region_setup(kind: str, pp: PowerPair, delta: float):
    """(capacity vector, covariance) of the quantile set of region ``kind``."""
    if kind == "joint":
        return capacity_vector(pp), dispersion_matrix_shell(pp)
    if kind == "sumshell":
        return capacity_vector(pp), dispersion_matrix_sumshell(pp)
    if kind == "iid":
        if delta >= 1.0:
            raise DomainError("power back-off delta must be < 1")
        ppb = PowerPair(pp.p1 * (1.0 - delta), pp.p2 * (1.0 - delta))
        return capacity_vector(ppb), dispersion_matrix_iid(ppb)
    raise DomainError(f"unknown quantile-region kind {kind!r}")


def resolve_delta(delta_rule, n: int) -> float:
    """Power back-off for the i.i.d.-Gaussian region: 0, n^(-1/4), or a float."""
    if delta_rule in (None, 0, 0.0, "zero"):
        return 0.0
    if delta_rule in ("n^-1/4", "quartic"):
        return float(n) ** -0.25
    try:
        delta = float(delta_rule)
    except (TypeError, ValueError):
        raise DomainError(f"unknown delta rule {delta_rule!r}") from None
    if not (0.0 <= delta < 1.0):
        raise DomainError("delta must lie in [0, 1)")
    return delta


def _quantile_radii(kind: str, n: int, eps: float, pp: PowerPair, thetas, samples: int, seed, delta: float):
    """Largest radius r with (r cos, r sin, r(cos+sin)) inside the quantile region, on each ray.

    The only solver of the quantile-set rays: every curve and check built on one goes through here.  The
    setup, the origin test and the union-bound radius are computed once for all rays; a ray on which one
    marginal alone fails at the origin reads 0, and each other ray is one :func:`boundary_scale` solve from
    its union-bound radius, inside the quantile set by Bonferroni (for eps < 1/2 the ray is outside past the
    single-constraint radius, where one marginal outage alone is eps).
    """
    _require_operating_point(n, eps)
    cvec, sigma = _quantile_region_setup(kind, pp, delta)
    thetas = np.asarray(thetas, dtype=float)
    live = pentagon_ray(thetas, *_normal_rate(cvec, np.diag(sigma), n, _penalty(eps))) != 0.0
    start = union_bound_radius(cvec, np.diag(sigma), n, eps, thetas)

    def solve(ray):
        theta, t0 = ray
        c, s = math.cos(theta), math.sin(theta)
        direction = math.sqrt(n) * np.array([c, s, c + s])  # the ray's step in (r1, r2, r1 + r2), normalized
        return boundary_scale(eps, sigma, direction, math.sqrt(n) * cvec, t0, samples, seed)

    r = np.zeros(thetas.shape)
    r[live] = thread_map(solve, zip(thetas[live], start[live]))
    return r


def second_order_ray(n: int, eps: float, pp: PowerPair, theta: float, kind: str = "joint", samples: int = 1 << 12,
                     seed=0, delta: float = 0.0) -> float:
    """Ray radius of quantile region ``kind``: the one-angle view of :func:`_quantile_radii`."""
    return float(_quantile_radii(kind, n, eps, pp, [theta], samples, seed, delta)[0])


def _quantile_curve(kind, n, eps, pp, num_points, samples, seed, **extra) -> RegionBoundary:
    """Region ``kind``: :func:`_quantile_radii` at every angle, one seed for all, at ``extra``'s back-off delta."""
    params = {"n": n, "eps": eps, "p1": pp.p1, "p2": pp.p2, "samples": samples, "seed": seed, **extra}
    return _curve(kind, params, num_points, functools.partial(
        _quantile_radii, kind, n, eps, pp, samples=samples, seed=seed, delta=extra.get("delta", 0.0)))


def joint_outage_boundary(
    n: int, eps: float, pp: PowerPair, num_points: int = 256, samples: int = 1 << 12, seed=0
) -> RegionBoundary:
    """Power-shell joint-outage region boundary."""
    return _quantile_curve("joint", n, eps, pp, num_points, samples, seed)


def sumshell_hypothetical_boundary(
    n: int, eps: float, pp: PowerPair, num_points: int = 256, samples: int = 1 << 12, seed=0
) -> RegionBoundary:
    """Hypothetical sum-power-shell region; conjectured outer bound."""
    return _quantile_curve("sumshell", n, eps, pp, num_points, samples, seed, conjectured_outer=True)


def iid_gaussian_boundary(n: int, eps: float, pp: PowerPair, delta_rule="zero", num_points: int = 256,
                          samples: int = 1 << 12, seed=0) -> RegionBoundary:
    """i.i.d.-Gaussian-input region boundary at backed-off powers."""
    _require_operating_point(n, eps)
    return _quantile_curve("iid", n, eps, pp, num_points, samples, seed, delta=resolve_delta(delta_rule, n))


# ---------------------------------------------------------------------------
# outage splitting: the union-bound radius
# ---------------------------------------------------------------------------


def _newton_roots(f, lo, hi, x, xtol: float = 1e-15):
    """Roots of nondecreasing maps in the brackets ``[lo, hi]``, all elements at once.

    ``f(x) -> (value, slope)`` elementwise, with value <= 0 at ``lo`` and >= 0 at ``hi``; the ends are
    never evaluated.  Each element takes Newton steps from ``x`` and bisects its bracket wherever a
    step would leave it, so every iterate stays bracketed, and wherever a step would land on an end
    more than ``xtol`` away, since such steps can cycle (where f turns from convex to concave, or where
    rounding makes them hop between two floats).  Each element is frozen at its first step within
    ``xtol``, or once its bracket is within ``xtol``, so its root depends on its own map only, never on
    the other elements; the solve stops once every element is frozen, or after 100 steps.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = np.broadcast_to(lo, x.shape), np.broadcast_to(hi, x.shape)
    frozen = False
    for _ in range(100):
        value, slope = f(x)
        lo, hi = np.where(value <= 0.0, x, lo), np.where(value >= 0.0, x, hi)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            step = x - value / slope
        inside = ((step > lo) & (step < hi)) | ((step >= lo) & (step <= hi) & (np.abs(step - x) <= xtol))
        step = np.where(inside, step, 0.5 * (lo + hi))
        settled = (np.abs(step - x) <= xtol) | (hi - lo <= xtol)
        x = np.where(frozen, x, step)
        frozen = frozen | settled
        if frozen.all():
            break
    return x


def _ray_roots(f, cap, start) -> np.ndarray:
    """Largest r in [0, cap] with f(r) <= 0 on each ray, for f(r) -> (value, slope) nondecreasing in r: 0 where
    the origin already fails, else the :func:`_newton_roots` root from ``start``, the cap if f stays <= 0."""
    return np.where(f(0.0)[0] > 0.0, 0.0, _newton_roots(f, 0.0, cap, start))


def union_bound_radius(cvec, vdiag, n: int, eps: float, thetas) -> np.ndarray:
    """Largest r <= min_i C_i/d_i with sum_i Q(sqrt(n/V_ii)(C_i - r d_i)) <= eps, on each ray; broadcasts.

    Here d = (cos, sin, cos + sin), ``cvec`` is a capacity vector and ``vdiag`` the diagonal of its
    dispersion matrix (the shell, i.i.d. or sum-shell setup).  By Bonferroni every point where the
    three marginal outages add up to at most eps lies in the joint quantile set, and these points are
    exactly the union over weights lambda on the simplex of the pentagons
    {r_i <= C_i - sqrt(V_ii/n) Qinv(lambda_i eps)}, the splitting region.  The sum rises with r and is
    convex below the cap, so Newton's method from the single-constraint radius (where one term alone
    is eps) falls onto the root.  The sum stays within eps up to the cap only for eps >= 1/2 (one term is
    1/2 there), where the single-constraint radius is the cap itself: the solve starts and stops there.
    """
    cvec, vdiag = np.asarray(cvec, dtype=float)[:, None], np.asarray(vdiag, dtype=float)[:, None]
    thetas = np.asarray(thetas, dtype=float)
    c, s = np.cos(thetas).ravel(), np.sin(thetas).ravel()
    d = np.stack([c, s, c + s])
    scale = np.sqrt(n / vdiag)
    cap = (cvec / d).min(axis=0)

    def excess(r):
        z = scale * (cvec - r * d)
        return ndtr(-z).sum(axis=0) - eps, (scale * d * np.exp(-0.5 * z * z)).sum(axis=0) / _SQRT_2PI

    start = pentagon_ray(thetas.ravel(), *_normal_rate(cvec, vdiag, n, _penalty(eps)))
    return _ray_roots(excess, cap, start).reshape(thetas.shape)


def _splitting_radius(n: int, eps: float, pp: PowerPair, thetas) -> np.ndarray:
    _require_operating_point(n, eps)
    cvec, sigma = _quantile_region_setup("joint", pp, 0.0)
    return union_bound_radius(cvec, np.diag(sigma), n, eps, thetas)


def splitting_ray(n: int, eps: float, pp: PowerPair, theta: float) -> float:
    """Ray radius of the outage-splitting region: the union-bound radius of the joint setup."""
    return float(_splitting_radius(n, eps, pp, theta))


def outage_splitting_boundary(n: int, eps: float, pp: PowerPair, lambda_grid_resolution=None,
                              num_points: int = 256) -> RegionBoundary:
    """Union over the weight simplex of three scalar-quantile constraints, solved exactly on each ray."""
    # lambda_grid_resolution is accepted for old callers and ignored: no weight grid is sampled
    params = {"n": n, "eps": eps, "p1": pp.p1, "p2": pp.p2}
    return _curve("splitting", params, num_points, functools.partial(_splitting_radius, n, eps, pp))


# ---------------------------------------------------------------------------
# error-exponent region of the truncated-Gaussian ensemble
# ---------------------------------------------------------------------------


class ExponentValue(NamedTuple):
    """An exponent (nats) and its slope in the rate, each shaped like the rates."""

    value: np.ndarray
    slope: np.ndarray


def _exponent(rate, cap: float, r_c: float, line0: float, curve) -> ExponentValue:
    """The slope -1 line line0 - R below the switch rate r_c, the branch ``curve(R) -> (value, slope)`` up to
    capacity (it sees rates clipped to [r_c, cap] only), and 0 with slope 0 from capacity on."""
    rate = np.asarray(rate, dtype=float)
    if (rate < 0).any():
        raise DomainError("need rate >= 0")
    value, slope = curve(np.clip(rate, r_c, cap))
    branch = [rate < r_c, rate < cap]
    return ExponentValue(np.select(branch, [line0 - rate, value], 0.0)[()], np.select(branch, [-1.0, slope], 0.0)[()])


def gallager_individual_exponent(rate, p: float) -> ExponentValue:
    """Per-user error exponent (nats) of the truncated-Gaussian ensemble and its slope; broadcasts over rates.

    On the curved branch, with s = e^{2R} = 1 + u and alpha = 2s / (1 + sqrt(1 + 4s/(p u))), the exponent is
    (p - alpha)/(2s) + log(s - alpha)/2 with slope -(p - alpha)/alpha, tangent to a slope -1 line at the switch
    rate.  s - alpha - 1 and p - alpha go through u - p = (1 + p)(e^{2(R - C)} - 1), free of cancellation.
    """
    _require_finite_positive("p", p)
    h, cap = math.hypot(2.0, p), 0.5 * math.log1p(p)
    top = p * (2.0 + h + p)
    if not math.isfinite(top):
        raise DomainError(f"p = {p!r} is too large: p (2 + sqrt(4 + p^2) + p) overflows")
    g = top / (2.0 + h)  # 4(beta - 1) with beta = (2 + p + h)/4, and beta - p/2 - 1 = -g/(2(h + p))
    line0 = p * (0.5 + 1.0 / (h + p)) / (2.0 + h) + 0.5 * (math.log1p(g / 4.0) + math.log1p(-g / (2.0 * (h + p))))

    def curve(r):
        u = np.expm1(2.0 * r)
        s = 1.0 + u
        root = np.sqrt(1.0 + 4.0 * s / (p * u))
        below = (1.0 + p) * np.expm1(2.0 * (r - cap))  # u - p
        # s - alpha - 1; below / p is O(1), so neither product reaches p^2, which overflows from p ~ 1.3e154
        w = 4.0 * s * (below / p) / ((1.0 + root) * (u * root + s + 1.0))
        return (w - below) / (2.0 * s) + 0.5 * np.log1p(w), (below - w) * (1.0 + root) / (2.0 * s)

    return _exponent(rate, cap, 0.5 * math.log1p(g / 4.0), line0, curve)


def gallager_sum_exponent(rate_sum, ps: float) -> ExponentValue:
    """Sum-rate error exponent (nats) of the truncated-Gaussian ensemble and its slope; broadcasts over rates.

    The curved branch is parameterized by a tilt rho, from 0 at capacity to 1 at the switch rate, and its
    slope is -rho; below the switch rate the exponent is the slope -1 tangent line.  The exponent is
    (1 + rho)(1 - t) + log t for t = theta1 / (1 + rho), with t - 1 written with its factor rho taken out.
    """
    _require_finite_positive("ps", ps)
    q, cap = ps, 0.5 * math.log1p(ps)
    k = math.hypot(0.5 * (q + 1.0), math.sqrt(0.75))  # sqrt(1 + q/2 + q^2/4)
    r_c = 0.5 * math.log1p(q / 8.0 * (1.0 + (2.0 + q) / (k + 1.0)))
    delta = 0.5 * q / (1.0 + 0.5 * q + k)  # 2 - theta2

    def curve(r):
        u = np.expm1(2.0 * r)
        s = 1.0 + u
        c = q / s  # O(1) like q / u: the products q^2 and s q overflow from q ~ 4.7e153
        rho = np.sqrt((q / u) * (c + 4.0 + np.sqrt(c * c + 8.0 * c + 16.0 / s)) / 8.0) - 1.0
        h = np.hypot(math.sqrt(q) * math.sqrt(q + 2.0), 1.0 + rho)  # q (q + 2) overflows from q ~ 1.3e154
        # t - 1, in O(1) ratios: its numerator and denominator are each of order q^3
        tau = -rho / (1.0 + rho) * (q / (h + q)) * ((q + 2.0) / (1.0 + rho + h)) * (
            (2.0 * q + (1.0 + rho) ** 2) / ((1.0 - rho) * h + (1.0 + rho) * (1.0 + rho + q))
        )
        return np.log1p(tau) - (1.0 + rho) * tau, -rho

    return _exponent(rate_sum, cap, r_c, delta + math.log1p(-0.5 * delta) + r_c, curve)


def _gallager_excess(gp: GallagerParams, pp: PowerPair, d):
    """t -> (log budget - log eps, slope) at the rates t d = t (d1, d2, d1 + d2) on each ray; the budget
    a n e^{-n E1} + a n e^{-n E2} + a n^2 e^{-n E3} is taken as a log-sum-exp, which overflows at no n."""
    offset = (math.log(gp.a) + math.log(gp.n) - math.log(gp.eps) + np.array([0.0, 0.0, math.log(gp.n)]))[:, None]
    individual = gallager_individual_exponent
    kinds = ((individual, pp.p1), (individual, pp.p2), (gallager_sum_exponent, pp.p_sum))

    def excess(t):
        values, slopes = zip(*(f(t * di, p) for (f, p), di in zip(kinds, d)))
        terms = offset - gp.n * np.stack(values)
        return logsumexp(terms, axis=0), -gp.n * (softmax(terms, axis=0) * np.stack(slopes) * d).sum(axis=0)

    return excess


def _gallager_radii(gp: GallagerParams, pp: PowerPair, thetas) -> np.ndarray:
    """Largest radius within the capacity pentagon whose exponent budget meets eps, on each ray.  Each exponent
    falls as its rate rises, so the log budget rises along the ray; it is solved for the pentagon share, so the
    tolerance is relative at any SNR."""
    thetas = np.asarray(thetas, dtype=float)
    cap = pentagon_ray(thetas, capacity(pp.p1), capacity(pp.p2), capacity(pp.p_sum))
    d = cap * np.stack([np.cos(thetas), np.sin(thetas), np.cos(thetas) + np.sin(thetas)])  # the rates at the cap
    return cap * _ray_roots(_gallager_excess(gp, pp, d), 1.0, 0.5)


def gallager_ray(gp: GallagerParams, pp: PowerPair, theta: float) -> float:
    """Ray radius of the exponent-budget region; 0 if the origin is infeasible."""
    return float(_gallager_radii(gp, pp, np.array([theta]))[0])


def gallager_boundary(gp: GallagerParams, pp: PowerPair, num_points: int = 256) -> RegionBoundary:
    """Boundary of the rate pairs whose three-term exponent budget meets eps; empty if the origin is infeasible."""
    params = {"n": gp.n, "eps": gp.eps, "a": gp.a, "p1": pp.p1, "p2": pp.p2}
    return _curve("gallager", params, num_points, functools.partial(_gallager_radii, gp, pp), empty_at_origin=True)


# ---------------------------------------------------------------------------
# TDMA with power control
# ---------------------------------------------------------------------------


#: golden-section steps over the time share, which shrink its bracket (0, 1) below 1e-7
_TDMA_STEPS = 36


def _tdma_shares(n, pp: PowerPair, alpha):
    """Per user, (cap, scale) when user 1 sends a share alpha of the block: at error level e the user's rate
    is cap + scale ndtri(e) = cap - scale Qinv(e), clipped to [0, cap]; broadcasts."""
    shares = []
    for share, p in ((alpha, pp.p1), (1.0 - alpha, pp.p2)):
        q = p / share  # the power of a user silent outside its share
        v = (q / (1.0 + q)) * ((q + 2.0) / (1.0 + q))  # 2 V(q), in ratios: (1 + q)^2 overflows from q ~ 1.3e154
        shares.append((share * 0.5 * np.log1p(q), np.sqrt(share * 0.5 * v / n)))
    return shares


def _tdma_radius(n, eps, pp: PowerPair, alpha, c, s):
    """Ray radius at time share alpha on the ray (c, s); broadcasts.

    The error levels share the budget as (1 - e1)(1 - e2) = 1 - eps, and r d_i is within user i's
    clipped rate at level e_i exactly when z_i = (cap_i - r d_i)/scale_i >= 0 and 1 - e_i <= Phi(z_i).
    So the radius is the largest r <= min_i cap_i/d_i with log Phi(z1) + log Phi(z2) >= log(1 - eps).
    The excess rises with r and is convex, so Newton's method from the single-constraint radius falls
    onto the root (for eps >= 1/2 it starts at the cap).
    """
    (cap1, k1), (cap2, k2) = _tdma_shares(n, pp, alpha)
    terms = np.stack(np.broadcast_arrays(cap1, cap2, k1, k2, c, s))
    cap, scale, d = terms.reshape((3, 2) + terms.shape[1:])
    level = math.log1p(-eps)

    def excess(r):
        z = (cap - r * d) / scale
        log_phi = log_ndtr(z)  # d(-log Phi(z))/dr = d/scale phi(z)/Phi(z)
        slope = (d / scale * np.exp(-0.5 * z * z - log_phi)).sum(axis=0) / _SQRT_2PI
        return level - log_phi.sum(axis=0), slope

    top = (cap / d).min(axis=0)
    start = np.minimum((np.maximum(cap - scale * _penalty(eps), 0.0) / d).min(axis=0), top)
    return _ray_roots(excess, top, start)


def _tdma_radii(n: int, eps: float, pp: PowerPair, thetas) -> np.ndarray:
    """Largest ray radius over the time share of the TDMA rectangles, on each ray.

    A golden-section search over the share in (0, 1).  It relies on the radius rising, then falling in
    the share, which held on every ray at 180 operating points (n from 20 to 1e6, eps from 1e-9 to 0.9,
    each SNR from -20 to 20 dB; 2000 shares, 64 rays).
    """
    _require_operating_point(n, eps)
    _require_square_finite("p1", pp.p1)  # then (1 + p/share)^2 overflows at every time share
    _require_square_finite("p2", pp.p2)
    thetas = np.asarray(thetas, dtype=float)
    c, s = np.cos(thetas), np.sin(thetas)
    g = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = np.zeros_like(thetas), np.ones_like(thetas)
    x1, x2 = hi - g, lo + g
    f1, f2 = _tdma_radius(n, eps, pp, x1, c, s), _tdma_radius(n, eps, pp, x2, c, s)
    best = np.maximum(f1, f2)
    for _ in range(_TDMA_STEPS):
        left = f1 >= f2  # keep [lo, x2], whose inner golden point is x1, else [x1, hi]
        lo, hi = np.where(left, lo, x1), np.where(left, x2, hi)
        x = np.where(left, hi - g * (hi - lo), lo + g * (hi - lo))
        f = _tdma_radius(n, eps, pp, x, c, s)
        x1, f1, x2, f2 = (np.where(left, u, v) for u, v in zip((x, f, x1, f1), (x2, f2, x, f)))
        best = np.maximum(best, f)
    return best


def tdma_ray(n: int, eps: float, pp: PowerPair, theta: float) -> float:
    """Ray radius of the TDMA region with power control."""
    return float(_tdma_radii(n, eps, pp, np.array([theta]))[0])


def tdma_boundary(n: int, eps: float, pp: PowerPair, num_points: int = 256) -> RegionBoundary:
    """Union over time shares and error splits of the TDMA rectangles, solved on each ray."""
    params = {"n": n, "eps": eps, "p1": pp.p1, "p2": pp.p2}
    return _curve("tdma", params, num_points, functools.partial(_tdma_radii, n, eps, pp))


# ---------------------------------------------------------------------------
# outer boxes and pentagons
# ---------------------------------------------------------------------------


def _pentagon_polyline(b1: float, b2: float, bs: float) -> np.ndarray:
    """Monotone polyline of {r1 <= b1, r2 <= b2, r1 + r2 <= bs}."""
    b1, b2, bs = max(b1, 0.0), max(b2, 0.0), max(bs, 0.0)
    pts = [(0.0, min(b2, bs))]
    if bs >= b1 + b2:  # rectangle
        pts.append((b1, b2))
    else:
        if bs > b2:
            pts.append((bs - b2, b2))
        if bs > b1:
            pts.append((b1, bs - b1))
    pts.append((min(b1, bs), 0.0))
    uniq = []
    for q in pts:
        if not uniq or (abs(q[0] - uniq[-1][0]) > 1e-15 or abs(q[1] - uniq[-1][1]) > 1e-15):
            uniq.append(q)
    return np.array(uniq)


def pentagon_ray(theta, b1, b2, bs):
    """Radius along (cos theta, sin theta) of {r1 <= b1, r2 <= b2, r1 + r2 <= bs}; broadcasts."""
    c, s = np.cos(theta), np.sin(theta)
    return np.minimum(np.minimum(b1 / c, b2 / s), bs / (c + s))


def su_outer_box(n: int, eps: float, pp: PowerPair) -> RegionBoundary:
    """Single-user outer rectangle (full error budget on each outage)."""
    _require_operating_point(n, eps)
    b1 = p2p_second_order_rate(n, eps, pp.p1)
    b2 = p2p_second_order_rate(n, eps, pp.p2)
    pts = np.array([[0.0, b2], [b1, b2], [b1, 0.0]])
    params = {"n": n, "eps": eps, "p1": pp.p1, "p2": pp.p2}
    return RegionBoundary("su-outer", params, pts)


def conjectured_sum_outer_boundary(n: int, eps: float, pp: PowerPair) -> RegionBoundary:
    """Scalar sum-rate cap intersected with the single-user box; conjecture only."""
    _require_operating_point(n, eps)
    b1, b2, bs = (p2p_second_order_rate(n, eps, p) for p in (pp.p1, pp.p2, pp.p_sum))
    params = {"n": n, "eps": eps, "p1": pp.p1, "p2": pp.p2, "conjecture": True}
    return RegionBoundary("conjectured-sum-outer", params, _pentagon_polyline(b1, b2, bs))


def cover_wyner_pentagon(pp: PowerPair) -> RegionBoundary:
    """Asymptotic capacity pentagon."""
    b1, b2 = capacity(pp.p1), capacity(pp.p2)
    bs = capacity(pp.p_sum)
    params = {"p1": pp.p1, "p2": pp.p2}
    return RegionBoundary("pentagon", params, _pentagon_polyline(b1, b2, bs))


# ---------------------------------------------------------------------------
# the table of region kinds
# ---------------------------------------------------------------------------


class RegionOptions(NamedTuple):
    """Knobs of the builders, each kind reading the ones it takes; the defaults are figure1's."""

    points: int = 256
    samples: int = 1 << 12
    seed: object = 0
    delta_rule: object = "zero"
    gallager_a: float = 1.0


#: every region kind, in figure1 file order: kind -> (figure1 CSV name, builder), where
#: builder(n, eps, pp, RegionOptions) -> RegionBoundary.  The builders look their
#: function up in this module when called, so a wrapper set on the module is the one run.
REGIONS = {
    "joint": (
        "joint.csv", lambda n, eps, pp, o: joint_outage_boundary(n, eps, pp, o.points, o.samples, o.seed)
    ),
    "splitting": (
        "splitting.csv",
        lambda n, eps, pp, o: outage_splitting_boundary(n, eps, pp, num_points=o.points),
    ),
    "iid": (
        "iid.csv",
        lambda n, eps, pp, o: iid_gaussian_boundary(n, eps, pp, o.delta_rule, o.points, o.samples, o.seed),
    ),
    "gallager": (
        "gallager.csv",
        lambda n, eps, pp, o: gallager_boundary(GallagerParams(o.gallager_a, n, eps), pp, o.points),
    ),
    "tdma": ("tdma.csv", lambda n, eps, pp, o: tdma_boundary(n, eps, pp, o.points)),
    "su-outer": ("su_outer.csv", lambda n, eps, pp, o: su_outer_box(n, eps, pp)),
    "sumshell": (
        "sumshell.csv",
        lambda n, eps, pp, o: sumshell_hypothetical_boundary(n, eps, pp, o.points, o.samples, o.seed),
    ),
    "conjectured-sum-outer": (
        "conjectured_sum_outer.csv", lambda n, eps, pp, o: conjectured_sum_outer_boundary(n, eps, pp)
    ),
    "pentagon": ("pentagon.csv", lambda n, eps, pp, o: cover_wyner_pentagon(pp)),
}
