"""Independent numeric oracles shared by the test modules.

Everything here deliberately avoids the library's own code paths, and the
module imports nothing from ``fbmac`` (a test parses it to keep it so):
quantiles come from bisecting an mpmath erfc, tail probabilities from mpmath
directly, Bessel values from mpmath's arbitrary-precision implementation, the
exact point-to-point outage and confusion probabilities from mpmath
quadratures over the regularized incomplete gamma function, the sum-shell
orthant probability from a scipy quadrature over one coordinate, and the
direct density samplers from materialized Gaussian vectors and explicit
squared distances.

The paper's own constructions live here too, as references for the program:
the CLT-for-functions functionals and their Jacobian (for the shell
dispersion matrix and the CLT check's target covariance), the point density
of the superimposed input x1 + x2 (for its sampler and the divergence-bound
profile's log sin^2), and the Bessel closed form of a shell input's output
density (for the p2p divergence-bound profile).
"""

import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

mp.mp.dps = 40


def q_tail(x: float) -> float:
    """Standard Gaussian upper tail via mpmath erfc."""
    return float(mp.erfc(mp.mpf(x) / mp.sqrt(2)) / 2)


def q_tail_inv(eps: float, tol: float = 1e-13) -> float:
    """Bisection inverse of the mpmath tail."""
    lo, hi = -40.0, 40.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if q_tail(mid) > eps:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def q_tail_inv_mp(eps: float):
    """Q^{-1}(eps) at mpmath's working precision: Newton's method on log Q(t) = log eps from t = 0.

    log Q is concave and decreasing, so past the first step every iterate lies at or beyond the root
    and the steps fall monotonically onto it.
    """
    log_eps, t = mp.log(mp.mpf(eps)), mp.mpf(0)
    for _ in range(200):
        tail = mp.erfc(t / mp.sqrt(2)) / 2
        step = (mp.log(tail) - log_eps) * tail / mp.npdf(t)  # -g/g' for g = log Q - log eps
        t += step
        if abs(step) <= 1e-30 * (1 + abs(t)):  # the precision's last digits only round
            return t
    raise ArithmeticError(f"no Newton convergence at eps={eps!r}")


def log_bessel_i_mp(order: float, z: float) -> float:
    """ln I_order(z) at 40 significant digits."""
    return float(mp.log(mp.besseli(order, z)))


def exact_outage_p2p(n: int, p: float, log_threshold: float) -> float:
    """Pr[i(X; Y) <= log_threshold] for a power-shell input, by quadrature.

    With ||x||^2 = n p, y = x + z and the output reference N(0, (1+p) I),
    i = n ln(1+p)/2 + (n p + 2<x, z> - p ||z||^2) / (2 (1+p)).  Split z into
    g ~ N(0, 1) along x and an independent chi-square h with n - 1 degrees of
    freedom; the outage is then E_g[Pr(h >= h0(g))] with
    h0(g) = n - g^2 + 2 g sqrt(n/p) - 2 (1+p) (log_threshold - n ln(1+p)/2) / p.
    """
    n_mp, p_mp = mp.mpf(n), mp.mpf(p)
    slack = mp.mpf(log_threshold) - n_mp * mp.log1p(p_mp) / 2
    half_dof = (n_mp - 1) / 2

    def integrand(g):
        h0 = n_mp - g * g + 2 * g * mp.sqrt(n_mp / p_mp) - 2 * (1 + p_mp) * slack / p_mp
        tail = mp.mpf(1) if h0 <= 0 else mp.gammainc(half_dof, h0 / 2, mp.inf, regularized=True)
        return mp.npdf(g) * tail

    return float(mp.quad(integrand, [-mp.inf, -8, -4, 0, 4, 8, mp.inf]))


def exact_confusion_p2p(n: int, p: float, log_gamma: float) -> float:
    """Pr_Q[i(X; Y) > log_gamma] for a power-shell input and Y ~ N(0, (1+p) I), by quadrature.

    Write Y = sqrt(1+p) U and split U into g ~ N(0, 1) along x and an
    independent chi-square h with n - 1 degrees of freedom; then
    i = n ln(1+p)/2 - p (g^2 + h)/2 + sqrt(n p (1+p)) g - n p/2, and the
    probability is E_g[Pr(h < h_q(g))] with h_q(g) = c + 2 b g - g^2,
    b = sqrt(n (1+p)/p) and c = (n ln(1+p) - n p - 2 log_gamma)/p.
    The integrand vanishes outside the roots of h_q and, deep in the tail, is
    a narrow spike between them: the quadrature is split at the roots, at the
    peak of the (concave) log-integrand and at multiples of its curvature
    width, or mpmath misses the mass.
    """
    n_mp, p_mp = mp.mpf(n), mp.mpf(p)
    b = mp.sqrt(n_mp * (1 + p_mp) / p_mp)
    c = (n_mp * mp.log1p(p_mp) - n_mp * p_mp - 2 * mp.mpf(log_gamma)) / p_mp
    if b * b + c <= 0:
        return 0.0
    lo, hi = b - mp.sqrt(b * b + c), b + mp.sqrt(b * b + c)
    half_dof = (n_mp - 1) / 2

    def log_integrand(g):
        hq = c + 2 * b * g - g * g
        return -g * g / 2 + mp.log(mp.gammainc(half_dof, 0, hq / 2, regularized=True)) if hq > 0 else -mp.inf

    # golden-section search for the peak
    a, z = lo, hi
    invphi = (mp.sqrt(5) - 1) / 2
    u, v = z - invphi * (z - a), a + invphi * (z - a)
    fu, fv = log_integrand(u), log_integrand(v)
    while z - a > mp.mpf(10) ** -9 * (hi - lo):
        if fu > fv:
            z, v, fv = v, u, fu
            u = z - invphi * (z - a)
            fu = log_integrand(u)
        else:
            a, u, fu = u, v, fv
            v = a + invphi * (z - a)
            fv = log_integrand(v)
    peak = (a + z) / 2
    top = log_integrand(peak)
    d = mp.mpf(10) ** -5 * (hi - lo)
    width = d / mp.sqrt(2 * top - log_integrand(peak + d) - log_integrand(peak - d))
    steps = [peak + s * k * width for s in (-1, 1) for k in (1, 2, 4, 8, 16, 32, 64)]
    pts = sorted({lo, peak, hi, *(t for t in steps if lo < t < hi)})
    scaled = mp.quad(lambda g: mp.exp(log_integrand(g) - top), pts, method="gauss-legendre")
    return float(mp.exp(top) * scaled / mp.sqrt(2 * mp.pi))


def sumshell_orthant(p1: float, p2: float, z) -> float:
    """Pr[X <= z] for X ~ N(0, V) with V the rank-2 sum-shell dispersion matrix, by quadrature.

    (X1, X2) has the per-user dispersions p (p + 2) / (2 (1 + p)^2) and the
    cross term p1 p2 / (2 (1 + p1) (1 + p2)); the sum coordinate is exactly
    X3 = a X1 + b X2 with a = (1 + p1) / (1 + p1 + p2), b = (1 + p2) / (1 + p1 + p2).
    Given X1 = s1 u, X2 is normal and bounded by min(z2, (z3 - a s1 u) / b), so
    the probability is the integral of phi(u) Phi(...) over u <= z1 / s1, split
    at the kink of the min.
    """
    ps = p1 + p2
    v1, v2 = (p * (p + 2.0) / (2.0 * (1.0 + p) ** 2) for p in (p1, p2))
    v12 = p1 * p2 / (2.0 * (1.0 + p1) * (1.0 + p2))
    a, b = (1.0 + p1) / (1.0 + ps), (1.0 + p2) / (1.0 + ps)
    s1 = math.sqrt(v1)
    slope = v12 / s1  # E[X2 | X1 = s1 u] = slope u
    sd = math.sqrt(v2 - slope * slope)
    z1, z2, z3 = (float(v) for v in z)

    def integrand(u):
        bound = min(z2, (z3 - a * s1 * u) / b)
        return math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi) * float(ndtr((bound - slope * u) / sd))

    top = z1 / s1
    kink = (z3 - b * z2) / (a * s1)
    cuts = [-math.inf, *([kink] if kink < top else []), top]
    return sum(quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200)[0] for lo, hi in zip(cuts, cuts[1:]))


def sumshell_outage(p1: float, p2: float, z) -> float:
    """1 - :func:`sumshell_orthant`, by quadrature of the tail, so that a small outage keeps its relative accuracy.

    The outage is Q(z1 / s1) plus the integral over u <= z1 / s1 of phi(u) times the conditional tail
    of X2 past min(z2, (z3 - a s1 u) / b); the quadrature runs on [-40, z1 / s1], split at the kink of the
    min and where each of its two terms meets the conditional mean of X2.
    """
    ps = p1 + p2
    v1, v2 = (p * (p + 2.0) / (2.0 * (1.0 + p) ** 2) for p in (p1, p2))
    v12 = p1 * p2 / (2.0 * (1.0 + p1) * (1.0 + p2))
    a, b = (1.0 + p1) / (1.0 + ps), (1.0 + p2) / (1.0 + ps)
    s1 = math.sqrt(v1)
    slope = v12 / s1
    sd = math.sqrt(v2 - slope * slope)
    z1, z2, z3 = (float(v) for v in z)

    def integrand(u):
        bound = min(z2, (z3 - a * s1 * u) / b)
        return math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi) * float(ndtr((slope * u - bound) / sd))

    top = min(z1 / s1, 40.0)
    marks = [(z3 - b * z2) / (a * s1), z2 / slope if slope else math.inf, z3 / (a * s1 + b * slope)]
    cuts = [-40.0, *sorted(m for m in marks if -40.0 < m < top), top]
    tail = sum(quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0] for lo, hi in zip(cuts, cuts[1:]))
    return float(ndtr(-z1 / s1)) + tail


def shell_setup(p1: float, p2: float):
    """(capacity vector, dispersion matrix) of independent power-shell inputs, from their closed forms.

    The per-user dispersions are p (p + 2) / (2 (1 + p)^2); the sum coordinate adds the inner-product
    term p1 p2 / (1 + p1 + p2)^2 to the dispersion at p1 + p2.
    """
    ps = p1 + p2
    v1, v2, vs = (p * (p + 2.0) / (2.0 * (1.0 + p) ** 2) for p in (p1, p2, ps))
    v12 = p1 * p2 / (2.0 * (1.0 + p1) * (1.0 + p2))
    v13, v23 = (pu * (2.0 + ps) / (2.0 * (1.0 + pu) * (1.0 + ps)) for pu in (p1, p2))
    sigma = np.array([[v1, v12, v13], [v12, v2, v23], [v13, v23, vs + p1 * p2 / (1.0 + ps) ** 2]])
    return np.array([0.5 * math.log1p(p) for p in (p1, p2, ps)]), sigma


def union_bound_root(n: int, eps: float, cvec, vdiag, theta: float) -> float:
    """Largest r <= min_i C_i/d_i with sum_i Q(sqrt(n/V_ii)(C_i - r d_i)) <= eps, d = (cos, sin, cos + sin).

    Bisection of the mpmath tails at 40 digits; 0 if the origin already fails, the cap if the sum
    stays within eps up to it.
    """
    c, s = mp.cos(mp.mpf(theta)), mp.sin(mp.mpf(theta))
    d = (c, s, c + s)
    caps = [mp.mpf(float(ci)) for ci in cvec]
    scales = [mp.sqrt(mp.mpf(n) / mp.mpf(float(v))) for v in vdiag]

    def excess(r):
        return sum(mp.erfc(k * (ci - r * di) / mp.sqrt(2)) / 2 for k, ci, di in zip(scales, caps, d)) - eps

    lo, hi = mp.mpf(0), min(ci / di for ci, di in zip(caps, d))
    if excess(lo) > 0:
        return 0.0
    if excess(hi) <= 0:
        return float(hi)
    for _ in range(120):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if excess(mid) <= 0 else (lo, mid)
    return float(lo)


def splitting_grid_radius(n: int, eps: float, cvec, vdiag, theta: float, resolution: int) -> float:
    """Ray radius of the union of the split-budget pentagons {r_i <= C_i - sqrt(V_ii/n) Qinv(lambda_i eps)}
    over the positive weights lambda = (a, b, c)/resolution on the simplex; penalties and rates clamp at 0."""
    a, b = np.meshgrid(np.arange(1, resolution), np.arange(1, resolution), indexing="ij")
    keep = a + b < resolution
    lam = np.stack([a[keep], b[keep], resolution - a[keep] - b[keep]]) / resolution
    v = np.asarray(vdiag, dtype=float)[:, None]
    caps = np.asarray(cvec, dtype=float)[:, None]
    b1, b2, bs = np.maximum(caps - np.sqrt(v / n) * np.maximum(-ndtri(lam * eps), 0.0), 0.0)
    c, s = math.cos(theta), math.sin(theta)
    return float(np.minimum(np.minimum(b1 / c, b2 / s), bs / (c + s)).max())


def tdma_grid_radius(n: int, eps: float, p1: float, p2: float, thetas, size: int = 1000) -> np.ndarray:
    """Ray radii of the union of TDMA rectangles over a size x size grid of time shares and error splits.

    User 1 sends a share a of the block at power p1/a with error level b eps, user 2 the rest at
    p2/(1 - a) with level (1 - b) eps / (1 - b eps); each rate is the share's capacity term minus
    sqrt(share V(power) / n) Qinv(level), clipped to [0, capacity term].  The rectangles are first
    cut to their Pareto frontier.
    """
    grid = np.arange(1, size + 1) / (size + 1)
    a, b = grid[:, None], grid[None, :]

    def rate(share, p, level):
        q = p / share
        cap = share * 0.5 * np.log1p(q)
        v = share * q * (q + 2.0) / (2.0 * (1.0 + q) ** 2)
        return np.clip(cap + np.sqrt(v / n) * ndtri(level), 0.0, cap).ravel()

    r1, r2 = rate(a, p1, b * eps), rate(1.0 - a, p2, (1.0 - b) * eps / (1.0 - b * eps))
    order = np.argsort(-r1, kind="stable")
    r1, r2 = r1[order], r2[order]
    front = r2 >= np.maximum.accumulate(r2)  # no rectangle with a larger r1 has a larger r2
    thetas = np.asarray(thetas, dtype=float)[:, None]
    return np.minimum(r1[front] / np.cos(thetas), r2[front] / np.sin(thetas)).max(axis=1)


def gallager_individual_exponent_mp(rate, p):
    """Per-user error exponent (nats) of the truncated-Gaussian ensemble, in its textbook form at mpmath's
    working precision (Gallager 1968, section 7.4): on the curved branch, with s = e^{2R},
    alpha = (p (s - 1)/2)(sqrt(1 + 4s/(p (s - 1))) - 1) and E = (p - alpha)/(2s) + log(s - alpha)/2; below the
    switch rate the slope -1 tangent line, and 0 at and above capacity.  The form cancels about
    2 |log10 p| digits at extreme p, so the caller's working precision must cover them."""
    rate, p = mp.mpf(rate), mp.mpf(p)
    if rate >= mp.log1p(p) / 2:
        return mp.mpf(0)
    beta = (2 + p + mp.sqrt(4 + p * p)) / 4
    if rate >= mp.log(beta) / 2:
        s = mp.exp(2 * rate)
        alpha = (p * (s - 1) / 2) * (mp.sqrt(1 + 4 * s / (p * (s - 1))) - 1)
        return (p - alpha) / (2 * s) + mp.log(s - alpha) / 2
    return (1 - beta + p / 2) + mp.log(beta * (beta - p / 2)) / 2 - rate


def gallager_sum_exponent_mp(rate, ps):
    """Sum-rate error exponent (nats) of the truncated-Gaussian ensemble, in its textbook form at mpmath's
    working precision: on the curved branch the tilt rho = bracket^(-1/2) - 1 with
    bracket = 1/2 + 2s/ps - sqrt(1 + 8s/ps + 16s/ps^2)/2, s = e^{2R}; below the switch rate the slope -1
    tangent line, and 0 at and above capacity.  Cancels digits at extreme ps as
    :func:`gallager_individual_exponent_mp` does."""
    rate, ps = mp.mpf(rate), mp.mpf(ps)
    half = mp.mpf(1) / 2
    if rate >= mp.log1p(ps) / 2:
        return mp.mpf(0)
    s_c = half * (1 + ps / 4 + mp.sqrt(1 + ps / 2 + ps * ps / 4))
    r_c = mp.log(s_c) / 2
    if rate >= r_c:
        s = mp.exp(2 * rate)
        bracket = half + 2 * s / ps - half * mp.sqrt(1 + 8 * s / ps + 16 * s / (ps * ps))
        rho = bracket**-half - 1
        theta1 = (1 + rho - ps) / 2 + half * mp.sqrt(ps * ps + 2 * ps + (1 + rho) ** 2)
        return (1 + rho - theta1) + mp.log(theta1 / (1 + rho))
    theta2 = 1 - ps / 2 + half * mp.sqrt(ps * ps + 2 * ps + 4)
    return (2 - theta2) + mp.log(theta2 / 2) + r_c - rate


def gallager_radius_mp(a: float, n: int, eps: float, p1: float, p2: float, theta: float) -> float:
    """Ray radius of the Gallager exponent-budget region, by bisection at 60 digits, capped at the pentagon.

    The exponents are :func:`gallager_individual_exponent_mp` and :func:`gallager_sum_exponent_mp`.  The
    radius is the largest r whose log budget log(a n e^{-n E1} + a n e^{-n E2} + a n^2 e^{-n E3}) is at most
    log eps: 0 if the origin fails, the pentagon radius if the budget meets eps there.  The textbook forms
    cancel about 2 |log10 p| digits at extreme powers p, so those come on top of the 60.
    """
    with mp.workdps(60 + 2 * math.ceil(max(abs(math.log10(p)) for p in (p1, p2, p1 + p2)))):
        a_mp, n_mp, q1, q2 = mp.mpf(a), mp.mpf(n), mp.mpf(p1), mp.mpf(p2)
        c, s = mp.cos(mp.mpf(theta)), mp.sin(mp.mpf(theta))
        log_eps = mp.log(mp.mpf(eps))
        individual, total = gallager_individual_exponent_mp, gallager_sum_exponent_mp

        def excess(r):
            budget = a_mp * n_mp * (mp.exp(-n_mp * individual(r * c, q1)) + mp.exp(-n_mp * individual(r * s, q2)))
            return mp.log(budget + a_mp * n_mp**2 * mp.exp(-n_mp * total(r * (c + s), q1 + q2))) - log_eps

        lo = mp.mpf(0)
        hi = min(mp.log1p(q1) / (2 * c), mp.log1p(q2) / (2 * s), mp.log1p(q1 + q2) / (2 * (c + s)))
        if excess(lo) > 0:
            return 0.0
        if excess(hi) <= 0:
            return float(hi)
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if excess(mid) <= 0 else (lo, mid)
        return float(lo)


def bivariate_lower_prob_trapezoid(z1: float, z2: float, rho: float, cells: int = 2000) -> float:
    """Pr[X1 <= z1, X2 <= z2] for a standard bivariate normal, dense trapezoid."""
    lo = -8.5
    x = np.linspace(lo, z1, cells + 1)
    y = np.linspace(lo, z2, cells + 1)
    xx, yy = np.meshgrid(x, y, indexing="ij")
    det = 1.0 - rho * rho
    dens = np.exp(-(xx * xx - 2.0 * rho * xx * yy + yy * yy) / (2.0 * det)) / (
        2.0 * math.pi * math.sqrt(det)
    )
    wx = np.ones_like(x)
    wx[0] = wx[-1] = 0.5
    wy = np.ones_like(y)
    wy[0] = wy[-1] = 0.5
    dx = (z1 - lo) / cells
    dy = (z2 - lo) / cells
    return float(np.einsum("i,j,ij->", wx, wy, dens) * dx * dy)


def f_p2p(u, p: float) -> float:
    """The p2p functional of the paper's CLT-for-functions construction.

    u is the normalized sum (the mean over t) of (1 - z_t^2, sqrt(p) w_t z_t, w_t^2 - 1), with w ~ N(0, I_n)
    the codeword before it is scaled onto its shell, x = sqrt(n p) w / ||w||.  Then f(u) is exactly
    [p (n - ||z||^2) + 2 <x, z>] / n: the density's deviation from n C(p), times 2 (1 + p) / n.
    """
    return float(p * u[0] + 2.0 * u[1] / math.sqrt(1.0 + u[2]))


def f_mac(u, p1: float, p2: float) -> np.ndarray:
    """The MAC functional: u is the normalized sum of (1 - z^2, sqrt(p1) w1 z, sqrt(p2) w2 z,
    sqrt(p1 p2) w1 w2, w1^2 - 1, w2^2 - 1), and the three rows are [p (n - ||z||^2) + 2 <x, z>] / n for
    each user and [ps (n - ||z||^2) + 2 <x1 + x2, z> + 2 <x1, x2>] / n for the sum, ps = p1 + p2."""
    s5, s6 = math.sqrt(1.0 + u[4]), math.sqrt(1.0 + u[5])
    f1 = p1 * u[0] + 2.0 * u[1] / s5
    f2 = p2 * u[0] + 2.0 * u[2] / s6
    f3 = (p1 + p2) * u[0] + 2.0 * u[1] / s5 + 2.0 * u[2] / s6 + 2.0 * u[3] / (s5 * s6)
    return np.array([f1, f2, f3])


def clt_jacobian(powers: tuple):
    """(J, Cov U): the Jacobian of ``f_p2p`` (powers = (p,)) or ``f_mac`` (powers = (p1, p2)) at u = 0, and
    the covariance of one summand of u, diagonal since its entries are uncorrelated."""
    if len(powers) == 1:
        (p,) = powers
        return np.array([[p, 2.0, 0.0]]), np.diag([2.0, p, 2.0])
    p1, p2 = powers
    jac = np.array(
        [
            [p1, 2.0, 0.0, 0.0, 0.0, 0.0],
            [p2, 0.0, 2.0, 0.0, 0.0, 0.0],
            [p1 + p2, 2.0, 2.0, 2.0, 0.0, 0.0],
        ]
    )
    return jac, np.diag([2.0, p1, p2, p1 * p2, 2.0, 2.0])


def clt_target_cov(n: int, powers: tuple) -> np.ndarray:
    """J Cov(U) J^T / n: the covariance of the Gaussian limit of the functional at blocklength n."""
    jac, cov_u = clt_jacobian(powers)
    return jac @ cov_u @ jac.T / n


def sum_density(t: float, n: int, p1: float, p2: float) -> float:
    """Log point density of x1 + x2, independent inputs on the shells n p1 and n p2, at squared norm n t.

    The support is the open interval (sqrt(p1) - sqrt(p2))^2 < t < (sqrt(p1) + sqrt(p2))^2; both boundary
    shells carry zero probability and return -inf.  theta0 is the angle of x1 to x1 + x2, and
    cos theta0 = (t + p1 - p2) / (2 sqrt(p1 t)).
    """
    lo, hi = (math.sqrt(p1) - math.sqrt(p2)) ** 2, (math.sqrt(p1) + math.sqrt(p2)) ** 2
    if not lo < t < hi:
        return -math.inf
    log_sin_sq = math.log1p(-((t + p1 - p2) ** 2) / (4.0 * p1 * t))
    return (
        0.5 * math.log(p2 / (math.pi * p1))
        + 2.0 * math.lgamma(0.5 * n)
        - math.lgamma(0.5 * (n - 1))
        - math.log(2.0)
        - 0.5 * n * math.log(math.pi)
        - 0.5 * (n - 1) * math.log(n * p2)
        - 0.5 * math.log(n * t)
        + 0.5 * (n - 3) * log_sin_sq
    )


def shell_output_logpdf(y_norm_sq: float, n: int, p: float) -> float:
    """Log density at y of the output law x + z, x uniform on the shell n p, z ~ N(0, I_n).

    Bessel closed form; it depends on y only through ||y||^2.  The Bessel value comes from mpmath.
    """
    w = math.sqrt(y_norm_sq * n * p)
    order = 0.5 * n - 1.0
    return (
        -math.log(2.0)
        - 0.5 * n * math.log(math.pi)
        + math.lgamma(0.5 * n)
        - 0.5 * n * p
        - 0.5 * y_norm_sq
        + log_bessel_i_mp(order, w)
        - order * math.log(w)
    )


def two_sample_ks(a: np.ndarray, b: np.ndarray) -> float:
    xs = np.sort(np.concatenate([a, b]))
    fa = np.searchsorted(np.sort(a), xs, side="right") / a.size
    fb = np.searchsorted(np.sort(b), xs, side="right") / b.size
    return float(np.abs(fa - fb).max())


def gaussian_logpdf(y: np.ndarray, mean: np.ndarray, var: float) -> float:
    """Log density of N(mean, var I) at y, written out explicitly."""
    y = np.asarray(y, dtype=float)
    diff = y - mean
    n = y.size
    return float(-0.5 * n * math.log(2.0 * math.pi * var) - 0.5 * (diff @ diff) / var)


def materialized_error_rate(
    n: int, sizes: tuple, powers: tuple, log_gammas: tuple, trials: int, seed: int, chunk: int = 250
) -> float:
    """Error rate of the first-past-threshold decoder with codewords drawn in R^n.

    ``sizes``/``powers`` hold one entry per user: one for point-to-point, two
    for the MAC.  Each trial draws every codeword as an i.i.d. N(0, I_n)
    vector scaled onto its shell, a uniform message per user and N(0, I_n)
    noise; the decoder evaluates the information densities against the
    reference laws N(0, (1 + P) I) from explicit squared distances and picks
    the first (lexicographic) candidate whose densities all exceed their
    thresholds.
    """
    rng = np.random.default_rng(seed)
    m1, p1 = sizes[0], powers[0]
    m2, p2 = (sizes[1], powers[1]) if len(sizes) > 1 else (1, 0.0)  # a silent second user
    errors = 0
    for start in range(0, trials, chunk):
        b = min(chunk, trials - start)
        books = []
        for m, p in ((m1, p1), (m2, p2)):
            w = rng.standard_normal((b, m, n))
            norm = np.linalg.norm(w, axis=2, keepdims=True)
            books.append(math.sqrt(n * p) * w / norm)
        x1, x2 = books
        j = rng.integers(0, m1, b)
        k = rng.integers(0, m2, b)
        y = x1[np.arange(b), j] + x2[np.arange(b), k] + rng.standard_normal((b, n))
        y = y[:, None, None, :]
        x1, x2 = x1[:, :, None, :], x2[:, None, :, :]

        def sq(v):
            return np.sum(v * v, axis=-1)

        chan = -0.5 * sq(y - x1 - x2)  # log channel density + n ln(2 pi) / 2
        dens = [0.5 * n * math.log1p(p1) + sq(y - x2) / (2 * (1 + p1)) + chan]
        if len(sizes) > 1:
            dens.append(0.5 * n * math.log1p(p2) + sq(y - x1) / (2 * (1 + p2)) + chan)
            dens.append(0.5 * n * math.log1p(p1 + p2) + sq(y) / (2 * (1 + p1 + p2)) + chan)
        passing = np.ones((b, m1, m2), dtype=bool)
        for i, g in zip(dens, log_gammas):
            passing &= i > g
        flat = passing.reshape(b, m1 * m2)
        decided = np.where(flat.any(axis=1), flat.argmax(axis=1), -1)
        errors += int(np.count_nonzero(decided != j * m2 + k))
    return errors / trials


def sample_shell(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw on the shell ||x||^2 = n p: an N(0, I_n) vector scaled onto it."""
    w = rng.standard_normal(n)
    return math.sqrt(n * p) * w / float(np.linalg.norm(w))


#: Gaussian scalars per chunk of the direct samplers
DIRECT_BUDGET = 1 << 25


def direct_densities(n: int, powers: tuple, trials: int, seed: int) -> np.ndarray:
    """Information densities under the channel law, from materialized Gaussian vectors.

    ``powers`` holds one entry per user: one for point-to-point (one row of
    densities), two for the MAC (rows i1, i2, i3).  Chunk ``idx`` holds
    DIRECT_BUDGET // ((users + 1) n) trials and draws from
    Philox(SeedSequence(entropy=seed, spawn_key=(idx,))): one (rows, n)
    N(0, I) array per user, scaled row by row onto its shell, then the noise.
    Each density is ln N(y; x1 + x2, I) - ln N(y; m, (1 + P) I), where the
    reference mean m is the sum of the codewords not being decoded and P the
    sum of the powers that are, evaluated from explicit squared distances
    over blocks of 1024 trials.
    """
    users = len(powers)
    decoded = [(0,)] if users == 1 else [(0,), (1,), (0, 1)]
    chunk = max(1, DIRECT_BUDGET // ((users + 1) * n))
    out = np.empty((len(decoded), trials))

    def sq(v):
        return np.einsum("ij,ij->i", v, v)

    for idx, start in enumerate(range(0, trials, chunk)):
        m = min(chunk, trials - start)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(idx,))))
        xs = [rng.standard_normal((m, n)) for _ in powers]
        z = rng.standard_normal((m, n))
        for x, p in zip(xs, powers):
            x *= math.sqrt(n * p) / np.linalg.norm(x, axis=1, keepdims=True)
        for b in range(0, m, 1024):
            rows = slice(b, b + 1024)
            y = sum(x[rows] for x in xs) + z[rows]
            chan = sq(y - sum(x[rows] for x in xs))
            for k, sel in enumerate(decoded):
                ref = y - sum(xs[u][rows] for u in range(users) if u not in sel)
                q = sum(powers[u] for u in sel)
                dens = 0.5 * n * math.log1p(q) - 0.5 * chan + sq(ref) / (2.0 * (1.0 + q))
                out[k, start + b : start + b + dens.size] = dens
    return out
