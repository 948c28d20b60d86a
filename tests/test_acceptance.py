"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Three criteria check against oracles that do not use the library:

* criterion 1: the sum-shell and conjectured-outer curves share the sum-rate
  dispersion V(P1+P2), so at the symmetric ray they differ only by an
  individual-outage mass of ~1e-5 (gap 5.9e-6 nats) and the check there is
  the containment sumshell <= conjectured + 1e-4; the strict > 1e-3 gap is
  asserted at the conjectured-outer corner ray, where it is 4.3e-3 nats;
* criterion 4: the n=500 outage at the Gaussian design point is compared
  with its exact value 1.5175e-3 (mpmath quadrature, ``oracles``) within
  4 standard errors, and the normal approximation's error is checked to
  shrink at the Berry-Esseen rate n^(-1/2);
* criterion 9: the n=1e5 exponent region is compared with the pentagon
  shrunk by the near-capacity curvature E_k(R) ~ (C_k - R)^2 / (2 V_kk) of
  the power-shell dispersions, within 2% on five rays.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from fbmac.core import (
    PowerPair,
    capacity,
    dispersion,
    dispersion_matrix_shell,
)
from fbmac.gaussquad import OrthantQuery, lower_orthant_prob, q_inv_scalar, q_scalar
from fbmac.regions import (
    GallagerParams,
    gallager_individual_exponent,
    gallager_ray,
    gallager_sum_exponent,
    p2p_second_order_rate,
    second_order_ray,
    splitting_ray,
    tdma_ray,
)
from fbmac.shellmc import (
    clt_function_check,
    empirical_outage_p2p,
    verify_rn_mac,
    verify_rn_p2p,
)
from fbmac.simlink import (
    CodebookSpec,
    default_thresholds,
    shell_rn_constants,
    simulate_mac,
    simulate_p2p,
    p2p_achievability_bound,
    mac_achievability_bound,
)
from oracles import bivariate_lower_prob_trapezoid, direct_densities, exact_outage_p2p

PP = PowerPair(1.0, 1.0)
N_FIG, EPS_FIG = 500, 1e-3


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def _conjectured_bounds() -> tuple[float, float]:
    """Per-user and sum-rate caps (nats) of the conjectured outer region."""
    b1 = p2p_second_order_rate(N_FIG, EPS_FIG, PP.p1)
    bs = capacity(PP.p_sum) - math.sqrt(dispersion(PP.p_sum) / N_FIG) * q_inv_scalar(EPS_FIG)
    return b1, bs


@pytest.fixture(scope="module")
def symmetric_rates():
    """Per-user rates (nats) of all six curves along the symmetric ray."""
    start = time.monotonic()
    th = math.pi / 4.0
    co = math.cos(th)
    samples = 1 << 15
    rates = {
        "tdma": tdma_ray(N_FIG, EPS_FIG, PP, th) * co,
        "iid": second_order_ray(N_FIG, EPS_FIG, PP, th, "iid", samples, (0, 1)) * co,
        "splitting": splitting_ray(N_FIG, EPS_FIG, PP, th) * co,
        "joint": second_order_ray(N_FIG, EPS_FIG, PP, th, "joint", samples, (0, 2)) * co,
        "sumshell": second_order_ray(N_FIG, EPS_FIG, PP, th, "sumshell", samples, (0, 3)) * co,
    }
    b1, bs = _conjectured_bounds()
    rates["conjectured"] = min(b1, bs / 2.0)
    return rates, time.monotonic() - start


def test_criterion_1_figure1_ordering(symmetric_rates):
    r, build_time = symmetric_rates
    start = time.monotonic() - build_time
    failures = []
    if not r["splitting"] <= r["joint"] + 2e-3:
        failures.append(f"splitting <= joint violated ({r['splitting']:.6f} vs {r['joint']:.6f})")
    for low, high in (("tdma", "iid"), ("iid", "splitting"), ("joint", "sumshell")):
        gap = r[high] - r[low]
        if not gap > 1e-3:
            failures.append(f"strict gap {low} -> {high} is {gap:.2e} nats (need > 1e-3)")
    # Both curves carry the sum-rate dispersion V(P1+P2); at the symmetric ray
    # the per-user constraints are slack, so sumshell sits just inside.
    if not r["sumshell"] <= r["conjectured"] + 1e-4:
        failures.append(
            f"sumshell <= conjectured violated ({r['sumshell']:.6f} vs {r['conjectured']:.6f})"
        )
    # The curves separate where the conjectured outer region has its corner.
    b1, bs = _conjectured_bounds()
    theta_c = math.atan2(bs - b1, b1)
    corner_gap = b1 / math.cos(theta_c) - second_order_ray(
        N_FIG, EPS_FIG, PP, theta_c, "sumshell", 1 << 15, (0, 4)
    )
    if not corner_gap > 1e-3:
        failures.append(
            f"corner gap sumshell -> conjectured is {corner_gap:.2e} nats at "
            f"theta={theta_c:.4f} (need > 1e-3)"
        )
    elapsed = time.monotonic() - start
    detail = (
        " / ".join(f"{k}={v:.6f}" for k, v in r.items())
        + f"; corner gap {corner_gap:.2e} nats at theta={theta_c:.4f}"
        + f"; runtime {elapsed:.0f}s"
        + (f"; {'; '.join(failures)}" if failures else "")
    )
    _report("criterion 1", not failures and elapsed < 300, detail)
    assert elapsed < 300
    assert not failures, "; ".join(failures)


def test_criterion_2_halfway_property(symmetric_rates):
    r, _ = symmetric_rates
    ratio = (r["joint"] - r["iid"]) / (r["sumshell"] - r["iid"])
    ok = 0.35 <= ratio <= 0.65
    _report("criterion 2", ok, f"halfway ratio {ratio:.3f} in [0.35, 0.65]")
    assert ok


def test_criterion_3_dispersion_oracle():
    start = time.monotonic()
    trials = 100_000
    iv = direct_densities(1000, (PP.p1, PP.p2), trials, seed=777)
    emp = np.cov(iv) / 1000.0
    target = dispersion_matrix_shell(PP)
    rel = np.abs(emp / target - 1.0)
    elapsed = time.monotonic() - start
    ok = rel.max() <= 0.02 and elapsed < 120
    _report(
        "criterion 3",
        ok,
        f"max entrywise error {rel.max():.4f} (entry33 target {target[2,2]:.6f}, "
        f"got {emp[2,2]:.6f}); runtime {elapsed:.0f}s",
    )
    assert target[2, 2] == pytest.approx(0.555556, abs=5e-7)
    assert elapsed < 120
    assert rel.max() <= 0.02


def _gaussian_threshold(n: int, eps: float) -> float:
    """Log-threshold at which the normal approximation puts the outage at eps."""
    return n * capacity(1.0) - math.sqrt(n * dispersion(1.0)) * q_inv_scalar(eps)


def test_criterion_4_p2p_gaussian_approximation():
    start = time.monotonic()
    eps = 1e-3
    thr = _gaussian_threshold(N_FIG, eps)
    est = empirical_outage_p2p(N_FIG, 1.0, thr, 10_000_000, seed=1000)
    exact = exact_outage_p2p(N_FIG, 1.0, thr)
    dev = abs(est.value - exact)
    # The normal approximation errs by O(n^-1/2) (Berry-Esseen), so the scaled
    # error stays put over a decade of n; an O(1) error would put the ratio
    # near 0.32 and an O(1/n) error near 3.2.
    n_big = 10 * N_FIG
    scaled_small = (exact - eps) * math.sqrt(N_FIG)
    exact_big = exact_outage_p2p(n_big, 1.0, _gaussian_threshold(n_big, eps))
    scaled_big = (exact_big - eps) * math.sqrt(n_big)
    ratio = scaled_small / scaled_big
    elapsed = time.monotonic() - start
    ok = dev <= 4.0 * est.std_err and 0.8 <= ratio <= 1.25 and elapsed < 180
    _report(
        "criterion 4",
        ok,
        f"empirical outage {est.value:.6f} vs exact {exact:.7f} (dev {dev:.1e}, "
        f"4 se {4.0 * est.std_err:.1e}); (exact - eps) sqrt(n) {scaled_small:.5f} at "
        f"n={N_FIG}, {scaled_big:.5f} at n={n_big}, ratio {ratio:.3f} in [0.8, 1.25]; "
        f"runtime {elapsed:.0f}s",
    )
    assert elapsed < 180
    assert dev <= 4.0 * est.std_err, (
        f"outage {est.value:.6f} deviates {dev:.1e} from the exact value {exact:.7f}"
    )
    assert 0.8 <= ratio <= 1.25, f"normal-approximation error ratio {ratio:.3f}"


def test_criterion_5_divergence_bound_numerics():
    start = time.monotonic()
    failures = []
    for p in (0.1, 1.0, 10.0):
        rep = verify_rn_p2p(p)
        if not (rep["pass"] and rep["expected_argmax"] == 1 + p):
            failures.append(f"p2p p={p}: max {rep['max']:.2e} at {rep['argmax']:.8f}")
    for p1, p2 in ((1.0, 1.0), (1.0, 3.0), (0.5, 2.0)):
        rep = verify_rn_mac(p1, p2)
        if not (rep["pass"] and rep["expected_argmax"] == p1 + p2):
            failures.append(f"mac ({p1},{p2}): max {rep['max']:.2e} at {rep['argmax']:.8f}")
    elapsed = time.monotonic() - start
    _report("criterion 5", not failures, f"all maxima <= 1e-9 at 1+P / P1+P2; runtime {elapsed:.1f}s")
    assert not failures, "; ".join(failures)


def test_criterion_6_berry_esseen_scaling():
    start = time.monotonic()
    ratios = []
    for s in range(10):
        k64 = clt_function_check("p2p", 64, 100_000, seed=(2000, s)).ks_distance
        k1024 = clt_function_check("p2p", 1024, 100_000, seed=(2000, s, 1)).ks_distance
        ratios.append(k64 / k1024)
    med = float(np.median(ratios))
    elapsed = time.monotonic() - start
    ok = 2.6 <= med <= 6.5 and elapsed < 300
    _report("criterion 6", ok, f"median KS ratio n=64/n=1024 is {med:.2f}; runtime {elapsed:.0f}s")
    assert elapsed < 300
    assert 2.6 <= med <= 6.5


def _calibrated_power(n: int, log_gamma: float, eps_target: float) -> float:
    lo, hi = 1e-4, 100.0
    for _ in range(80):
        p = math.sqrt(lo * hi)
        z = (n * capacity(p) - log_gamma) / math.sqrt(n * dispersion(p))
        if z > q_inv_scalar(eps_target):
            hi = p
        else:
            lo = p
    return math.sqrt(lo * hi)


def test_criterion_7_bound_inequalities():
    start = time.monotonic()
    rng = np.random.Generator(np.random.Philox(31))
    failures = []
    checks = 0

    def compare(tag, eps_hat, trials, bound):
        nonlocal checks
        checks += 1
        sim_se = math.sqrt(max(eps_hat * (1 - eps_hat), 1e-12) / trials)
        margin = 2.0 * math.hypot(sim_se, bound.std_err)
        if eps_hat > bound.value + margin:
            failures.append(f"{tag}: sim {eps_hat:.4f} > bound {bound.value:.4f} + {margin:.4f}")

    for i in range(4):  # point-to-point configurations
        n = int(rng.integers(50, 201))
        m = int(rng.integers(2, 17))
        p = _calibrated_power(n, math.log(max(m - 1, 1) / 2.0), float(rng.uniform(0.05, 0.4)))
        spec = CodebookSpec(n=n, m1=m, p1=p, seed=40 + i)
        th = default_thresholds(spec, 1.0, 1.0, 1.0)
        sim = simulate_p2p(spec, th, 20_000)
        compare(f"p2p n={n} m={m}", sim.eps_hat, sim.trials, p2p_achievability_bound(spec, th, 200_000))

    for i in range(3):  # MAC configurations, joint and splitting bounds
        n = int(rng.integers(50, 201))
        m = int(rng.integers(2, 17))
        p = _calibrated_power(n, math.log(max(m - 1, 1) / 2.0), float(rng.uniform(0.05, 0.3)))
        spec = CodebookSpec(n=n, m1=m, m2=m, p1=p, p2=p, seed=50 + i)
        th = default_thresholds(spec, *shell_rn_constants(PowerPair(p, p)))
        sim = simulate_mac(spec, th, 20_000)
        for mode in ("joint", "splitting"):
            compare(
                f"mac-{mode} n={n} m={m}",
                sim.eps_hat,
                sim.trials,
                mac_achievability_bound(spec, th, 150_000, mode=mode),
            )

    elapsed = time.monotonic() - start
    ok = not failures and checks == 10 and elapsed < 600
    _report("criterion 7", ok, f"{checks} comparisons, all within bounds; runtime {elapsed:.0f}s")
    assert checks == 10
    assert elapsed < 600
    assert not failures, "; ".join(failures)


def test_criterion_8_orthant_oracle():
    start = time.monotonic()
    rng = np.random.Generator(np.random.Philox(32))
    for _ in range(100):
        var = rng.uniform(0.2, 3.0, 3)
        z = rng.uniform(-2.0, 2.5, 3)
        est = lower_orthant_prob(OrthantQuery(np.diag(var), z), seed=6)
        expect = math.prod(1.0 - q_scalar(zi / math.sqrt(vi)) for zi, vi in zip(z, var))
        assert abs(est.value - expect) <= 3.0 * est.std_err + 1e-9
    sigma = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
    for _ in range(20):
        z = np.array([rng.uniform(-1.5, 2.0), rng.uniform(-1.5, 2.0), np.inf])
        est = lower_orthant_prob(OrthantQuery(sigma, z), seed=7)
        assert abs(est.value - bivariate_lower_prob_trapezoid(z[0], z[1], 0.5)) < 1e-3
    elapsed = time.monotonic() - start
    ok = elapsed < 60
    _report("criterion 8", ok, f"100 diagonal + 20 correlated queries; runtime {elapsed:.0f}s")
    assert elapsed < 60


def test_criterion_9_gallager_exponents():
    start = time.monotonic()
    failures = []
    for p in (0.1, 1.0, 10.0):
        if abs(gallager_individual_exponent(capacity(p), p).value) > 1e-9:
            failures.append(f"E_l(C) != 0 at p={p}")
        r_c = 0.5 * math.log((2.0 + p + math.sqrt(4.0 + p * p)) / 4.0)
        jump = abs(
            gallager_individual_exponent(r_c - 1e-9, p).value
            - gallager_individual_exponent(r_c + 1e-9, p).value
        )
        if jump > 1e-6:
            failures.append(f"individual branch jump {jump:.1e} at p={p}")
    for ps in (0.2, 2.0, 20.0):
        if abs(gallager_sum_exponent(capacity(ps), ps).value) > 1e-9:
            failures.append(f"E_3(C) != 0 at ps={ps}")
        s_c = 0.5 * (1.0 + ps / 4.0 + math.sqrt(1.0 + ps / 2.0 + ps * ps / 4.0))
        r_c = 0.5 * math.log(s_c)
        jump = abs(
            gallager_sum_exponent(r_c - 1e-9, ps).value
            - gallager_sum_exponent(r_c + 1e-9, ps).value
        )
        if jump > 1e-6:
            failures.append(f"sum branch jump {jump:.1e} at ps={ps}")
    # Near capacity E_k(R) ~ (C_k - R)^2 / (2 V_kk) with the power-shell
    # dispersions V11 = 3/8 and V33 = 5/9 (pinned by criterion 3), so the budget
    # a n e^(-n E1) + a n e^(-n E2) + a n^2 e^(-n E3) <= eps shrinks the
    # pentagon by d1 on each user and by d3 on the sum.
    gp = GallagerParams(1.0, 10**5, 1e-3)
    c1, c3 = 0.5 * math.log(2.0), 0.5 * math.log(3.0)
    d1 = math.sqrt(2.0 * 0.375 * math.log(gp.a * gp.n / gp.eps) / gp.n)
    d3 = math.sqrt(2.0 * (5.0 / 9.0) * math.log(gp.a * gp.n**2 / gp.eps) / gp.n)
    worst = 0.0
    for theta in np.linspace(0.1, math.pi / 2 - 0.1, 5):
        c, s = math.cos(theta), math.sin(theta)
        pentagon = min(c1 / c, c1 / s, c3 / (c + s))
        predicted = pentagon - min((c1 - d1) / c, (c1 - d1) / s, (c3 - d3) / (c + s))
        gap = pentagon - gallager_ray(gp, PP, float(theta))
        rel = abs(gap / predicted - 1.0)
        worst = max(worst, rel)
        if rel > 0.02:
            failures.append(
                f"pentagon gap {gap:.5f} nats at theta={theta:.2f} is {rel:.1%} off the "
                f"predicted {predicted:.5f} (need <= 2%)"
            )
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60
    _report(
        "criterion 9",
        ok,
        f"exponent zeros and continuity ok; n=1e5 pentagon gap within {worst:.2%} of the "
        f"shell-dispersion prediction; runtime {elapsed:.0f}s",
    )
    assert elapsed < 60
    assert not failures, "; ".join(failures)


def test_criterion_10_figure1_determinism(tmp_path):
    start = time.monotonic()
    args = [
        sys.executable, "-m", "fbmac", "figure1",
        "--n", "500", "--eps", "1e-3", "--p1-db", "0", "--p2-db", "0",
        "--points", "48", "--samples", "2048", "--seed", "7",
    ]
    digests = {}
    for label, threads in (("run1-t1", "1"), ("run2-t1", "1"), ("run3-t8", "8")):
        out_dir = tmp_path / label
        env = dict(os.environ, FBMAC_THREADS=threads)
        proc = subprocess.run(
            args + ["--out-dir", str(out_dir)], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        digests[label] = {
            f.name: f.read_bytes() for f in sorted(out_dir.iterdir())
        }
    elapsed = time.monotonic() - start
    same_rerun = digests["run1-t1"] == digests["run2-t1"]
    same_threads = digests["run1-t1"] == digests["run3-t8"]
    ok = same_rerun and same_threads
    _report(
        "criterion 10",
        ok,
        f"byte-identical rerun: {same_rerun}; 1 vs 8 workers: {same_threads}; "
        f"runtime {elapsed:.0f}s",
    )
    assert len(digests["run1-t1"]) == 10  # 9 curves + manifest
    assert same_rerun and same_threads
