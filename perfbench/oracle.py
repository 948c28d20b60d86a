"""Reference values that the benchmark checks fbmac's outputs against.

Nothing here imports fbmac.  The closed forms are written out from the
model (unit-variance noise, rates in nats, powers linear):

    C(p) = ln(1 + p) / 2,        V(p) = p (p + 2) / (2 (1 + p)^2).

The quantile-set regions (``joint``, ``iid``, ``sumshell``) contain the ray
point r (cos t, sin t) when Pr[N(0, S) > z(r) in some coordinate] <= eps, with
z(r) = sqrt(n) (C - r d) and d = (cos t, sin t, cos t + sin t).  The union
bound and the largest single tail sandwich that probability, so their roots
bracket the true radius with 1-D functions only (see ``radius_bracket``).
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import integrate, optimize, special, stats


def capacity(p: float) -> float:
    return 0.5 * math.log1p(p)


def dispersion(p: float) -> float:
    return 0.5 * p * (p + 2.0) / (1.0 + p) ** 2


def q_inv(eps: float) -> float:
    """Upper-tail Gaussian quantile: Q(q_inv(eps)) = eps."""
    return float(-special.ndtri(eps))


def capacities(p1: float, p2: float) -> np.ndarray:
    return np.array([capacity(p1), capacity(p2), capacity(p1 + p2)])


def sigma_shell(p1: float, p2: float) -> np.ndarray:
    """Per-use covariance of (i1, i2, i3) for independent power-shell inputs.

    From the per-use moments Var(|z|^2) = 2, Var(<x_k, z>) = p_k and
    Var(<x1, x2>) = p1 p2 (all other cross moments vanish).
    """
    ps = p1 + p2
    v12 = p1 * p2 / (2.0 * (1.0 + p1) * (1.0 + p2))
    v13 = p1 * (2.0 + ps) / (2.0 * (1.0 + p1) * (1.0 + ps))
    v23 = p2 * (2.0 + ps) / (2.0 * (1.0 + p2) * (1.0 + ps))
    v33 = dispersion(ps) + p1 * p2 / (1.0 + ps) ** 2
    return np.array([[dispersion(p1), v12, v13], [v12, dispersion(p2), v23], [v13, v23, v33]])


def sigma_sumshell(p1: float, p2: float) -> np.ndarray:
    """Shell covariance without the <x1, x2> term: rank 2."""
    s = sigma_shell(p1, p2)
    s[2, 2] = dispersion(p1 + p2)
    return s


def sigma_iid(p1: float, p2: float) -> np.ndarray:
    """Per-use covariance of (i1, i2, i3) for i.i.d. Gaussian inputs.

    With w_k = x_k + z, Cov(U^2, W^2) = 2 Cov(U, W)^2 for jointly Gaussian
    scalars gives V_kk = p_k / (1 + p_k), V12 = p1 p2 / (2 (1 + p1)(1 + p2))
    and V_k3 = p_k (2 + p_k + ps) / (2 (1 + p_k)(1 + ps)).
    """
    ps = p1 + p2
    v12 = p1 * p2 / (2.0 * (1.0 + p1) * (1.0 + p2))
    v13 = p1 * (2.0 + p1 + ps) / (2.0 * (1.0 + p1) * (1.0 + ps))
    v23 = p2 * (2.0 + p2 + ps) / (2.0 * (1.0 + p2) * (1.0 + ps))
    return np.array(
        [[p1 / (1.0 + p1), v12, v13], [v12, p2 / (1.0 + p2), v23], [v13, v23, ps / (1.0 + ps)]]
    )


def quantile_region(kind: str, n: int, p1: float, p2: float, delta: float = 0.0):
    """(C, S) of a quantile-set region; ``iid`` is evaluated at backed-off powers."""
    if kind == "joint":
        return capacities(p1, p2), sigma_shell(p1, p2)
    if kind == "sumshell":
        return capacities(p1, p2), sigma_sumshell(p1, p2)
    if kind == "iid":
        b1, b2 = p1 * (1.0 - delta), p2 * (1.0 - delta)
        return capacities(b1, b2), sigma_iid(b1, b2)
    raise ValueError(f"no quantile region {kind!r}")


def _directions(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([c, s, c + s])


def radius_bracket(n: int, eps: float, cvec: np.ndarray, sigma: np.ndarray, theta: float):
    """(lo, hi) with lo <= true radius <= hi along the ray at angle ``theta``.

    hi: the smallest radius at which one coordinate alone has tail eps, so
    the outage there is at least eps.  lo: the root of the union bound
    sum_i Q(z_i / s_i) = eps, so the outage there is at most eps.
    """
    d = _directions(theta)
    sd = np.sqrt(np.diag(sigma) / n)
    hi = max(float(np.min((cvec - sd * q_inv(eps)) / d)), 0.0)

    def union_excess(r: float) -> float:
        return float(special.ndtr(-(cvec - r * d) / sd).sum()) - eps

    if hi == 0.0 or union_excess(0.0) >= 0.0:
        return 0.0, hi
    if union_excess(hi) <= 0.0:  # the other tails vanish in double precision
        return hi, hi
    return float(optimize.brentq(union_excess, 0.0, hi, xtol=1e-13, rtol=1e-15)), hi


def p2p_rate(n: int, eps: float, p: float) -> float:
    return max(capacity(p) - math.sqrt(dispersion(p) / n) * q_inv(eps), 0.0)


def pentagon_vertices(b1: float, b2: float, bs: float) -> np.ndarray:
    """Corners of {r >= 0, r1 <= b1, r2 <= b2, r1 + r2 <= bs}, r1 ascending."""
    b1, b2, bs = max(b1, 0.0), max(b2, 0.0), max(bs, 0.0)
    top = min(b2, bs)
    right = min(b1, bs)
    corners = [
        (0.0, top),
        (max(0.0, min(b1, bs - b2)), top),
        (right, max(0.0, min(b2, bs - b1))),
        (right, 0.0),
    ]
    out = [corners[0]]
    for q in corners[1:]:
        if max(abs(q[0] - out[-1][0]), abs(q[1] - out[-1][1])) > 1e-15:
            out.append(q)
    return np.array(out)


def outer_vertices(kind: str, n: int, eps: float, p1: float, p2: float) -> np.ndarray:
    """Closed-form corners of ``su-outer``, ``conjectured-sum-outer`` and ``pentagon``."""
    if kind == "pentagon":
        return pentagon_vertices(capacity(p1), capacity(p2), capacity(p1 + p2))
    b1, b2 = p2p_rate(n, eps, p1), p2p_rate(n, eps, p2)
    if kind == "su-outer":
        return np.array([[0.0, b2], [b1, b2], [b1, 0.0]])
    if kind == "conjectured-sum-outer":
        return pentagon_vertices(b1, b2, p2p_rate(n, eps, p1 + p2))
    raise ValueError(f"no outer curve {kind!r}")


def _log_integral(log_integrand, lo: float, hi: float) -> float:
    """ln of the integral of exp(log_integrand) over [lo, hi]; the integrand is unimodal."""
    mode = optimize.minimize_scalar(
        lambda g: -log_integrand(g), bounds=(lo, hi), method="bounded", options={"xatol": 1e-7}
    ).x
    peak = log_integrand(mode)
    a, b = max(lo, mode - 16.0), min(hi, mode + 16.0)
    val, _ = integrate.quad(
        lambda g: math.exp(log_integrand(g) - peak), a, b,
        points=[mode] if a < mode < b else None, limit=200, epsabs=0.0, epsrel=1e-11,
    )
    return math.log(val) + peak


@functools.lru_cache(maxsize=None)
def p2p_outage(n: int, p: float, log_threshold: float) -> float:
    """Pr[i <= log_threshold] under the channel law, power-shell input.

    With g ~ N(0, 1) the noise along x and h ~ chi2(n - 1) the rest,
    i = n C(p) + (p (n - g^2 - h) + 2 sqrt(n p) g) / (2 (1 + p)), so the
    outage is E_g[chi2.sf(h0(g), n - 1)] with h0 quadratic in g.
    """
    k = n - 1
    slack = log_threshold - n * capacity(p)

    def log_integrand(g: float) -> float:
        h0 = n - g * g + 2.0 * g * math.sqrt(n / p) - 2.0 * (1.0 + p) * slack / p
        return stats.norm.logpdf(g) + (0.0 if h0 <= 0.0 else stats.chi2.logsf(h0, k))

    return math.exp(_log_integral(log_integrand, -100.0, 100.0))


@functools.lru_cache(maxsize=None)
def p2p_confusion(n: int, p: float, log_gamma: float) -> float:
    """gamma Pr_Q[i > ln gamma] with y ~ N(0, (1 + p) I) independent of x.

    Under that reference law i = n C(p) - p (g^2 + h) / 2 + sqrt(n p (1 + p)) g
    - n p / 2 with g ~ N(0, 1) and h ~ chi2(n - 1); i > ln gamma is h < h1(g),
    and h1 is positive only between the roots of a concave parabola.
    """
    k = n - 1
    a = math.sqrt(n * p * (1.0 + p)) / p
    base = 2.0 * (n * capacity(p) - 0.5 * n * p - log_gamma) / p
    disc = a * a + base
    if disc <= 0.0:
        return 0.0
    lo, hi = max(a - math.sqrt(disc), -100.0), min(a + math.sqrt(disc), 100.0)

    def log_integrand(g: float) -> float:
        h1 = base + 2.0 * a * g - g * g
        return stats.norm.logpdf(g) + stats.chi2.logcdf(max(h1, 1e-300), k)

    return math.exp(log_gamma + _log_integral(log_integrand, lo, hi))


def dt_bound_p2p(n: int, p: float, m: int) -> float:
    """Outage plus (m - 1)/2 times the reference tail at ln gamma = ln((m - 1)/2)."""
    log_gamma = math.log((m - 1) / 2.0)
    return p2p_outage(n, p, log_gamma) + p2p_confusion(n, p, log_gamma)


def clt_cov_mac(n: int, p1: float, p2: float) -> np.ndarray:
    """J Cov(U) J^T / n of the MAC functional; U has covariance diag(2, p1, p2, p1 p2, 2, 2)."""
    ps = p1 + p2
    jac = np.array(
        [[p1, 2.0, 0.0, 0.0, 0.0, 0.0], [p2, 0.0, 2.0, 0.0, 0.0, 0.0], [ps, 2.0, 2.0, 2.0, 0.0, 0.0]]
    )
    return jac @ np.diag([2.0, p1, p2, p1 * p2, 2.0, 2.0]) @ jac.T / n
