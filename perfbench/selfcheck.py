"""Check ``oracle.py`` against plain Monte Carlo; run once, by hand:

    PYTHONPATH=src python3 perfbench/selfcheck.py

For each quantile-set region at the figure point and at the unequal-power
operating point the sweep keeps as a known fault, the radius bracket of
``oracle.radius_bracket`` is checked on a few rays by sampling N(0, S)
directly: the outage at the lower radius must not exceed eps, and the outage
at the upper radius must not fall below it (4 standard errors).  It then
compares the p2p outage quadrature with the mpmath value of the acceptance
tests, and, when fbmac is importable, measures the outage at the radius the
sum-shell solver returns on its worst ray at 10/0 dB.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracle as O  # noqa: E402

CHUNK = 1 << 20


def mc_outage(sigma: np.ndarray, z: np.ndarray, draws: int, seed: int) -> tuple[float, float]:
    """Pr[N(0, sigma) > z in some coordinate] by plain sampling, with its standard error."""
    w, v = np.linalg.eigh(sigma)
    factor = v * np.sqrt(np.clip(w, 0.0, None))
    rng = np.random.default_rng(seed)
    hits = 0
    for start in range(0, draws, CHUNK):
        x = rng.standard_normal((min(CHUNK, draws - start), 3)) @ factor.T
        hits += int(np.count_nonzero((x > z).any(axis=1)))
    p = hits / draws
    return p, math.sqrt(p * (1.0 - p) / draws)


def z_at(n, cvec, theta, r):
    return math.sqrt(n) * (cvec - r * np.array([math.cos(theta), math.sin(theta), math.cos(theta) + math.sin(theta)]))


def main() -> int:
    ok = True
    cases = [
        ("figure point", 500, 1e-3, 1.0, 1.0, 0.0),
        ("sweep 10/0 dB", 500, 1e-3, 10.0, 1.0, 500 ** -0.25),
    ]
    for label, n, eps, p1, p2, delta in cases:
        draws = 4_000_000
        for kind in ("joint", "iid", "sumshell"):
            cvec, sigma = O.quantile_region(kind, n, p1, p2, delta if kind == "iid" else 0.0)
            for theta in (0.1, 0.35, math.pi / 4, 1.2):
                lo, hi = O.radius_bracket(n, eps, cvec, sigma, theta)
                p_lo, se_lo = mc_outage(sigma, z_at(n, cvec, theta, lo), draws, 1)
                p_hi, se_hi = mc_outage(sigma, z_at(n, cvec, theta, hi), draws, 2)
                good = p_lo <= eps + 4 * se_lo + 1e-12 and p_hi >= eps - 4 * se_hi
                ok = ok and good
                print(f"{label:15s} {kind:8s} theta {theta:.3f}: bracket [{lo:.6f}, {hi:.6f}] "
                      f"MC outage {p_lo:.4e} / {p_hi:.4e} (eps {eps:g}) {'ok' if good else 'WRONG'}")
    thr = 500 * O.capacity(1.0) - math.sqrt(500 * O.dispersion(1.0)) * O.q_inv(1e-3)
    quad = O.p2p_outage(500, 1.0, thr)
    good = abs(quad - 1.5175163e-3) <= 1e-10
    ok = ok and good
    print(f"p2p outage quadrature {quad:.10e} vs mpmath 1.5175163e-3 {'ok' if good else 'WRONG'}")

    try:
        from fbmac import PowerPair
        from fbmac.regions import sumshell_hypothetical_boundary
    except ImportError:
        print("fbmac not importable; skipped the sum-shell fault")
        return 0 if ok else 1
    p1, p2, n, eps = 10.0, 1.0, 500, 1e-3
    cvec, sigma = O.quantile_region("sumshell", n, p1, p2)
    pts = sumshell_hypothetical_boundary(n, eps, PowerPair(p1, p2), 32, 1 << 12, 0).points
    thetas, radii = np.arctan2(pts[:, 1], pts[:, 0]), np.hypot(pts[:, 0], pts[:, 1])
    over = radii - np.array([O.radius_bracket(n, eps, cvec, sigma, t)[1] for t in thetas])
    k = int(over.argmax())
    p, se = mc_outage(sigma, z_at(n, cvec, thetas[k], radii[k]), 20_000_000, 3)
    print(f"sumshell 10/0 dB seed 0, worst ray theta {thetas[k]:.4f}: radius {radii[k]:.6f} exceeds the "
          f"single-tail radius by {over[k]:.2e}; MC outage there {p:.4e} +- {se:.1e} (target {eps:g})")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
