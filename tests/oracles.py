"""Independent numeric oracles shared by the test modules.

Everything here deliberately avoids the library's own code paths: quantiles
come from bisecting an mpmath erfc, tail probabilities from mpmath directly,
Bessel values from mpmath's arbitrary-precision implementation, and the exact
point-to-point outage from an mpmath quadrature over the regularized
incomplete gamma function.
"""

import math

import mpmath as mp
import numpy as np

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
