import ast
import math
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc, gammaln
from scipy.stats import kstest

from fbmac._rng import substream, thread_map
from fbmac.core import DomainError, PowerPair, capacity, capacity_vector, dispersion, dispersion_matrix_shell
from fbmac import shellmc
from fbmac.shellmc import (
    _density,
    _ks_and_cov,
    _ks_bin,
    _log_sin_sq,
    _confusion,
    _mac_densities,
    _phi,
    _wilson_ci,
    ConfusionScalePoint,
    KsReport,
    clt_function_check,
    confusion_scaling_check,
    empirical_outage_p2p,
    log_bessel_i,
    mac_density_samples,
    p2p_density_samples,
    rn_bound_function_mac,
    rn_bound_function_p2p,
    sum_inner_product_samples,
    verify_bessel,
    verify_clt,
    verify_confusion_scaling,
    verify_inner_product,
    verify_rn_mac,
    verify_rn_p2p,
)
from oracles import (
    clt_jacobian,
    clt_target_cov,
    direct_densities,
    exact_confusion_p2p,
    f_mac,
    f_p2p,
    gaussian_logpdf,
    log_bessel_i_mp,
    sample_shell,
    shell_output_logpdf,
    sum_density,
    two_sample_ks,
)


def test_oracles_import_nothing_from_fbmac():
    # the references check the program only while they share none of its code
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported and not [m for m in imported if m.split(".")[0] in ("fbmac", "")], imported


# ---------------------------------------------------------------------------
# shell sampling
# ---------------------------------------------------------------------------


def test_sample_shell_norm_exact():
    rng = substream(0)
    s = sample_shell(3, 2.0, rng)
    assert float(s @ s) == pytest.approx(6.0, rel=1e-9)
    for n, p in [(1, 0.5), (100, 3.0), (999, 0.01)]:
        s = sample_shell(n, p, rng)
        assert float(s @ s) == pytest.approx(n * p, rel=1e-9)


def test_sample_shell_mean_near_zero():
    rng = substream(1)
    n, p, draws = 8, 2.0, 100_000
    w = rng.standard_normal((draws, n))
    x = math.sqrt(n * p) * w / np.linalg.norm(w, axis=1, keepdims=True)
    assert np.abs(x.mean(axis=0)).max() < 4.0 * math.sqrt(p / draws)


def test_shell_inner_product_variance():
    # Var<X1,X2> / (n p1 p2) -> 1, cosine variance 1/n for random directions
    n, pairs = 100, 100_000
    rng = substream(2)
    w1 = rng.standard_normal((pairs, n))
    w2 = rng.standard_normal((pairs, n))
    x1 = math.sqrt(n * 1.0) * w1 / np.linalg.norm(w1, axis=1, keepdims=True)
    x2 = math.sqrt(n * 2.0) * w2 / np.linalg.norm(w2, axis=1, keepdims=True)
    inner = np.einsum("ij,ij->i", x1, x2)
    assert inner.var(ddof=1) / (n * 1.0 * 2.0) == pytest.approx(1.0, rel=0.05)


def test_shell_coordinate_marginal():
    # X_t^2/(n p) is Beta(1/2, (n-1)/2); KS of the squared coordinate <= 0.01
    n, p, draws = 1000, 1.0, 100_000
    rng = substream(3)
    w = rng.standard_normal((draws, n))
    coord = math.sqrt(n * p) * w[:, 0] / np.linalg.norm(w, axis=1)
    u = np.sort(coord * coord / (n * p))
    cdf = betainc(0.5, (n - 1) / 2.0, u)
    grid = np.arange(1, draws + 1) / draws
    ks = max((grid - cdf).max(), (cdf - grid + 1.0 / draws).max())
    assert ks <= 0.01


# ---------------------------------------------------------------------------
# information densities
# ---------------------------------------------------------------------------


def test_info_density_p2p_zero_noise():
    s = sample_shell(2, 1.0, substream(4))
    z = np.zeros(2)
    val = _density(2, 1.0, float(z @ z), float(s @ z))
    assert val == pytest.approx(2.0 * capacity(1.0) + 2.0 * 1.0 / 4.0, abs=1e-12)
    assert val == pytest.approx(1.193147, abs=5e-7)


def test_info_density_p2p_mean():
    n, trials, p = 100, 100_000, 1.0
    it = p2p_density_samples(n, p, trials, seed=5)
    tol = 3.0 * math.sqrt(n * dispersion(p) / trials)
    assert it.mean() == pytest.approx(n * capacity(p), abs=tol)
    assert it.mean() == pytest.approx(34.657, abs=max(tol, 5e-3))


def test_info_density_p2p_density_ratio_oracle():
    # the closed form equals ln(P_{Y|X}/Q_Y) evaluated from explicit log-pdfs
    rng = substream(6)
    n, p = 25, 1.7
    for _ in range(100):
        s = sample_shell(n, p, rng)
        z = rng.standard_normal(n)
        y = s + z
        direct = gaussian_logpdf(y, s, 1.0) - gaussian_logpdf(y, np.zeros(n), 1.0 + p)
        assert _density(n, p, float(z @ z), float(s @ z)) == pytest.approx(direct, rel=1e-10, abs=1e-9)


def test_info_density_mac_orthogonal_zero_noise():
    # x2 orthogonal to x1 and no noise: the cross term vanishes exactly
    n = 4
    x1 = np.array([1.0, 1.0, 1.0, 1.0])  # ||x1||^2 = 4 = n * 1
    x2 = np.array([1.0, -1.0, 1.0, -1.0])
    z = np.zeros(n)
    _, _, i3 = _mac_densities(n, 1.0, 1.0, float(z @ z), float(x1 @ z), float(x2 @ z), float(x1 @ x2))
    ps = 2.0
    assert i3 == pytest.approx(n * capacity(ps) + ps * n / (2.0 * (1.0 + ps)), abs=1e-12)


def test_info_density_mac_density_ratio_oracle():
    rng = substream(8)
    n, p1, p2 = 20, 1.0, 2.5
    for _ in range(100):
        s1 = sample_shell(n, p1, rng)
        s2 = sample_shell(n, p2, rng)
        z = rng.standard_normal(n)
        y = s1 + s2 + z
        i1, i2, i3 = _mac_densities(n, p1, p2, float(z @ z), float(s1 @ z), float(s2 @ z), float(s1 @ s2))
        log_chan = gaussian_logpdf(y, s1 + s2, 1.0)
        d1 = log_chan - gaussian_logpdf(y, s2, 1.0 + p1)
        d2 = log_chan - gaussian_logpdf(y, s1, 1.0 + p2)
        d3 = log_chan - gaussian_logpdf(y, np.zeros(n), 1.0 + p1 + p2)
        assert i1 == pytest.approx(d1, rel=1e-10, abs=1e-9)
        assert i2 == pytest.approx(d2, rel=1e-10, abs=1e-9)
        assert i3 == pytest.approx(d3, rel=1e-10, abs=1e-9)


@pytest.mark.parametrize("p1", [0.01, 0.3, 1.0, 4.0, 100.0])
@pytest.mark.parametrize("p2", [0.02, 1.0, 7.0])
def test_density_coefficients_give_the_shell_dispersion_exactly(p1, p2):
    # the densities are affine in s = (||z||^2, <x1,z>, <x2,z>, <x1,x2>), and under shell inputs
    # Cov s = diag(2n, n p1, n p2, n p1 p2) at every n: so Cov(i)/n is the shell matrix, exactly
    coef = np.array(_mac_densities(0, p1, p2, *np.eye(4)))  # at n = 0 the constant n C + p n / (2 (1 + p)) is 0
    got = coef @ np.diag([2.0, p1, p2, p1 * p2]) @ coef.T
    want = dispersion_matrix_shell(PowerPair(p1, p2))
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    for p in (p1, p2):
        a = _density(0, p, *np.eye(2))
        assert a @ np.diag([2.0, p]) @ a == pytest.approx(dispersion(p), rel=1e-14, abs=0)
    if p1 == p2 == 1.0:  # entry 33 is (ps^2 + 2 ps + 2 p1 p2) / (2 (1 + ps)^2)
        assert got[2, 2] == pytest.approx(10.0 / 18.0, rel=1e-15)


def test_mac_density_mean_vector():
    pp = PowerPair(1.0, 1.0)
    for n in (100, 1000):
        iv = mac_density_samples(n, pp, 100_000, seed=9)
        target = n * capacity_vector(pp)
        se = 3.0 * np.sqrt(np.diag(np.cov(iv)) / iv.shape[1])
        assert (np.abs(iv.mean(axis=1) - target) <= se).all()


def test_reduced_matches_direct_p2p():
    a = p2p_density_samples(64, 1.0, 40_000, seed=10)
    b = direct_densities(64, (1.0,), 40_000, seed=11)[0]
    assert two_sample_ks(a, b) < 1.63 * math.sqrt(2.0 / 40_000) * 1.5


def test_reduced_matches_direct_mac():
    pp = PowerPair(1.0, 2.0)
    a = mac_density_samples(64, pp, 40_000, seed=12)
    b = direct_densities(64, (pp.p1, pp.p2), 40_000, seed=13)
    for i in range(3):
        assert two_sample_ks(a[i], b[i]) < 1.63 * math.sqrt(2.0 / 40_000) * 1.5


# ---------------------------------------------------------------------------
# empirical outage
# ---------------------------------------------------------------------------


def test_empirical_outage_trivial_thresholds():
    assert empirical_outage_p2p(100, 1.0, -math.inf, 2000, seed=14).value == 0.0
    assert empirical_outage_p2p(100, 1.0, math.inf, 2000, seed=14).value == 1.0
    assert float(np.mean(direct_densities(100, (1.0,), 2000, seed=14)[0] <= math.inf)) == 1.0


def test_empirical_outage_methods_agree():
    n, p = 80, 1.0
    thr = n * capacity(p) - 1.2 * math.sqrt(n * dispersion(p))
    a = empirical_outage_p2p(n, p, thr, 200_000, seed=15)
    b = float(np.mean(direct_densities(n, (p,), 200_000, seed=16)[0] <= thr))
    b_std_err = math.sqrt(b * (1.0 - b) / 200_000)
    tol = 4.0 * math.hypot(a.std_err, b_std_err)
    assert abs(a.value - b) <= tol


def test_empirical_outage_ci_brackets_gaussian_prediction():
    n, p = 500, 1.0
    thr = n * capacity(p) - math.sqrt(n * dispersion(p)) * 3.090232
    est = empirical_outage_p2p(n, p, thr, 400_000, seed=15)
    assert 2e-4 <= est.value <= 2.5e-3  # coarse sanity; the tight check is acceptance


# ---------------------------------------------------------------------------
# CLT-for-functions
# ---------------------------------------------------------------------------


def test_f_constructions_vanish_at_zero():
    assert f_p2p(np.zeros(3), 1.7) == 0.0
    assert np.all(f_mac(np.zeros(6), 1.0, 2.0) == 0.0)


@pytest.mark.parametrize("powers", [(1.7,), (1.0, 2.0), (0.05, 30.0)])
def test_clt_jacobian_is_the_derivative_of_f(powers):
    # central differences of the functionals at u = 0 reproduce the literal Jacobian
    jac, _ = clt_jacobian(powers)
    f = (lambda u: np.array([f_p2p(u, *powers)])) if len(powers) == 1 else (lambda u: f_mac(u, *powers))
    h = 1e-6
    num = np.column_stack([(f(h * e) - f(-h * e)) / (2.0 * h) for e in np.eye(jac.shape[1])])
    assert np.allclose(num, jac, rtol=1e-8, atol=1e-8)


def test_f_constructions_match_inner_product_forms():
    # the literal normalized-sum functionals equal the inner-product identities
    rng = substream(20)
    n, p1, p2 = 64, 1.3, 0.6
    w1 = rng.standard_normal(n)
    w2 = rng.standard_normal(n)
    z = rng.standard_normal(n)
    x1 = math.sqrt(n * p1) * w1 / np.linalg.norm(w1)
    x2 = math.sqrt(n * p2) * w2 / np.linalg.norm(w2)
    u = np.array(
        [
            (1.0 - z * z).mean(),
            (math.sqrt(p1) * w1 * z).mean(),
            (math.sqrt(p2) * w2 * z).mean(),
            (math.sqrt(p1 * p2) * w1 * w2).mean(),
            (w1 * w1 - 1.0).mean(),
            (w2 * w2 - 1.0).mean(),
        ]
    )
    got = f_mac(u, p1, p2)
    zsq = float(z @ z)
    expect = np.array(
        [
            (p1 * (n - zsq) + 2.0 * float(x1 @ z)) / n,
            (p2 * (n - zsq) + 2.0 * float(x2 @ z)) / n,
            ((p1 + p2) * (n - zsq) + 2.0 * (float(x1 @ x2) + float(x1 @ z) + float(x2 @ z))) / n,
        ]
    )
    assert np.allclose(got, expect, rtol=1e-12)
    u3 = np.array([u[0], u[1], u[4]])
    assert f_p2p(u3, p1) == pytest.approx(expect[0], rel=1e-12)
    # the CLT check's rows (i - nC) 2 (1 + p) / n are the same functional
    pp = PowerPair(p1, p2)
    dens = np.array(_mac_densities(n, p1, p2, zsq, float(x1 @ z), float(x2 @ z), float(x1 @ x2)))
    rows = (dens - n * capacity_vector(pp)) * 2.0 * (1.0 + np.array([p1, p2, p1 + p2])) / n
    assert np.allclose(rows, expect, rtol=1e-9)


def test_clt_large_n_gaussian():
    rep = clt_function_check("p2p", 1_000_000, 100_000, seed=16)
    assert rep.ks_distance <= 0.005


def test_clt_mac_case_large_n():
    rep = clt_function_check("mac-joint", 4096, 100_000, seed=17, pp=PowerPair(1.0, 1.0))
    assert rep.ks_distance <= 0.02
    assert rep.cov_rel_err <= 0.02


def _clt_rows(case, n, trials, seed, p=1.0, pp=PowerPair(1.0, 1.0)):
    """The CLT check's rows (i - nC) 2 (1 + p) / n, every draw at once, and their Gaussian target."""
    if case == "p2p":
        powers, cap = np.array([p]), np.array([capacity(p)])
        vals = p2p_density_samples(n, p, trials, seed)[None, :]
        target = clt_target_cov(n, (p,))
    else:
        powers, cap = np.array([pp.p1, pp.p2, pp.p_sum]), capacity_vector(pp)
        vals = mac_density_samples(n, pp, trials, seed)
        target = clt_target_cov(n, (pp.p1, pp.p2))
    vals -= n * cap[:, None]
    vals *= 2.0 * (1.0 + powers[:, None]) / n
    return vals, target


def _sorted_ks(vals, sigma):
    """The worst KS distance of the rows to N(0, sigma_i^2), from a sorted copy of every row.

    It takes the check's own Gaussian cdf, so that the two agree bit for bit: this compares the two-pass
    ranks with a sort, and the cdf is checked against mpmath on its own."""
    k = vals.shape[1]
    grid = np.arange(1, k + 1) / k
    ks = []
    for row, s in zip(vals, sigma):
        cdf = _phi(np.sort(row) / s)
        ks.append(max((grid - cdf).max(), (cdf - grid + 1.0 / k).max()))
    return max(ks)


def test_clt_mac_check_memory_grows_slower_than_its_draws(monkeypatch):
    # 10^6 draws of the 3-vector are 24 MB, 4 10^6 are 96 MB: the check keeps only the draws of the
    # bins that can hold the KS maximum, plus a histogram and one chunk in flight
    import tracemalloc

    monkeypatch.setenv("FBMAC_THREADS", "1")  # one chunk in flight
    n, pp = 1024, PowerPair(1.0, 1.0)
    clt_function_check("mac-joint", n, 1000, pp=pp)  # lazy imports are not the check's memory
    for trials in (4 * 10**6, 10**6):
        tracemalloc.start()
        try:
            rep = clt_function_check("mac-joint", n, trials, seed=0, pp=pp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, trials
    # references on the same draws at 10^6: a sorted copy of each margin, and np.cov
    vals, target = _clt_rows("mac-joint", n, 10**6, 0, pp=pp)
    assert np.array_equal(rep.target_cov, target)
    assert rep.ks_distance == _sorted_ks(vals, np.sqrt(np.diag(target)))
    rel = np.linalg.norm(np.cov(vals) - target) / np.linalg.norm(target)
    assert rep.cov_rel_err == pytest.approx(rel, rel=1e-12)


@pytest.mark.parametrize(
    "case, n, trials, kw",
    [
        ("mac-joint", 1024, 200_003, {}),  # a ragged last chunk
        ("p2p", 64, 200_003, {"p": 0.3}),
        ("p2p", 16, 10**6, {}),  # the left tail reaches -6 sigma
        ("mac-joint", 256, 100_000, {"pp": PowerPair(0.01, 40.0)}),
    ],
)
def test_clt_ks_distance_equals_a_sort_of_every_draw(case, n, trials, kw):
    rep = clt_function_check(case, n, trials, seed=21, **kw)
    vals, target = _clt_rows(case, n, trials, 21, **kw)
    assert rep.ks_distance == _sorted_ks(vals, np.sqrt(np.diag(rep.target_cov)))
    if case == "mac-joint":
        rel = np.linalg.norm(np.cov(vals) - rep.target_cov) / np.linalg.norm(rep.target_cov)
        assert rep.cov_rel_err == pytest.approx(rel, rel=1e-12)


def test_ks_bins_are_the_edges_the_bounds_use():
    # bin k >= 1 holds x / sigma in [-8 + (k - 1) w, -8 + k w), w = 16 / bins; bins 0 and bins + 1 are open
    bins, sigma = 64, 2.0
    edges = -8.0 + np.arange(bins + 1) * (16.0 / bins)
    assert np.array_equal(_ks_bin(edges * sigma, sigma, bins), np.arange(1, bins + 2))
    assert np.array_equal(_ks_bin((edges - 1e-9) * sigma, sigma, bins), np.arange(bins + 1))
    assert list(_ks_bin(np.array([-np.inf, -1e300, -20.0, 20.0, 1e300, np.inf]), sigma, bins)) == [0] * 3 + [65] * 3
    x = np.sort(substream(25).standard_normal(100_000) * 3.0)
    assert np.all(np.diff(_ks_bin(x, sigma, bins)) >= 0)


def test_two_pass_ks_exact_on_ties_far_tails_and_a_row_with_no_kept_bin():
    # no density draw reaches past +-8 sigma, so the open end bins and exact ties are driven here
    rng = substream(22)
    trials, sigma = 17_001, np.array([1.0, 2.0, 0.5])
    vals = np.empty((3, trials))
    vals[0] = np.round(rng.standard_normal(trials) + 0.2, 1)  # ties at the KS maximum
    vals[0, :40] = -20.0
    vals[0, 40:60] = 25.0
    vals[1] = 2.0 * rng.standard_normal(trials)  # close to its target: no bin of it can hold the maximum
    vals[2] = 0.5 * rng.standard_normal(trials)
    vals[2, ::1000] = np.repeat([-1e3, 1e3], 9)
    chunks = np.split(vals, [7000, 14_000], axis=1)  # the last one ragged
    passes = []

    def stream(reduce):
        passes.append([reduce(c.copy()) for c in chunks])
        return passes[-1]

    ks, cov = _ks_and_cov(stream, trials, sigma)
    assert ks == _sorted_ks(vals, sigma)
    assert np.allclose(cov, np.cov(vals), rtol=1e-12, atol=0)
    kept = [sum(draws[i].size for _, draws in passes[1]) for i in range(3)]
    assert kept[0] > 0 and kept[1] == 0 and sum(kept) < trials // 4, kept


def test_clt_report_identical_at_any_worker_count(monkeypatch):
    reps = []
    for threads in ("1", "2"):
        monkeypatch.setenv("FBMAC_THREADS", threads)
        reps.append(clt_function_check("mac-joint", 512, 200_003, seed=23, pp=PowerPair(0.5, 2.0)))
    a, b = reps
    assert (a.n, a.trials, a.ks_distance, a.cov_rel_err) == (b.n, b.trials, b.ks_distance, b.cov_rel_err)
    assert np.array_equal(a.target_cov, b.target_cov)


def test_two_pass_ks_histogram_survives_racing_workers(monkeypatch):
    # the workers add into one histogram under a lock; a lost update shifts the ranks of the kept
    # draws.  Many small chunks on five workers and fast thread switches make the adds overlap
    import sys

    monkeypatch.setenv("FBMAC_THREADS", "5")
    trials, sigma = 10**6, np.array([1.0, 2.0, 0.5])
    vals = substream(24).standard_normal((3, trials)) * sigma[:, None] + 0.01
    chunks = np.split(vals, range(500, trials, 500), axis=1)
    want = _sorted_ks(vals, sigma)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(2):
            ks, _ = _ks_and_cov(lambda reduce: thread_map(lambda c: reduce(c.copy()), chunks), trials, sigma)
            assert ks == want
    finally:
        sys.setswitchinterval(interval)


def test_clt_ks_nonincreasing_in_n():
    med = []
    for n in (64, 256, 1024, 4096):
        ks = [clt_function_check("p2p", n, 20_000, seed=(18, s)).ks_distance for s in range(10)]
        med.append(float(np.median(ks)))
    for a, b in zip(med, med[1:]):
        assert b <= a * 1.15  # up to MC noise


def test_clt_reduced_direct_agree():
    rep_r = clt_function_check("p2p", 64, 50_000, seed=19)
    vals = (direct_densities(64, (1.0,), 50_000, seed=19)[0] - 64 * capacity(1.0)) * 2.0 * (1.0 + 1.0) / 64
    ks_d = kstest(vals, "norm", args=(0.0, math.sqrt(clt_target_cov(64, (1.0,))[0, 0]))).statistic
    assert abs(rep_r.ks_distance - ks_d) < 0.01


def test_clt_rejects_small_n():
    with pytest.raises(DomainError):
        clt_function_check("p2p", 8, 1000)


def test_clt_covariance_consistent_with_dispersion_matrix():
    # the density covariance is the functional covariance scaled by the
    # conditional-variance prefactors: V = D (J Cov J^T) D / 4, and the CLT
    # check's target, taken from V, is the construction's J Cov J^T / n
    n = 100
    for p1, p2 in [(1.0, 1.0), (0.5, 2.0), (3.0, 0.2), (0.01, 40.0)]:
        pp = PowerPair(p1, p2)
        jvj = clt_target_cov(n, (p1, p2)) * n
        d = np.diag([1.0 / (1.0 + p1), 1.0 / (1.0 + p2), 1.0 / (1.0 + p1 + p2)])
        assert np.allclose(d @ jvj @ d / 4.0, dispersion_matrix_shell(pp), rtol=1e-12)
        rep = clt_function_check("mac-joint", n, 1000, pp=pp)
        assert np.allclose(rep.target_cov, jvj / n, rtol=1e-12, atol=0)
        jvj_p = clt_target_cov(n, (p1,))[0, 0] * n
        assert jvj_p / (4.0 * (1.0 + p1) ** 2) == pytest.approx(dispersion(p1), rel=1e-12)
        rep = clt_function_check("p2p", n, 1000, p=p1)
        assert rep.target_cov.shape == (1, 1) and rep.cov_rel_err is None
        assert rep.target_cov[0, 0] == pytest.approx(jvj_p / n, rel=1e-12)


# ---------------------------------------------------------------------------
# divergence bound profiles
# ---------------------------------------------------------------------------


def test_rn_p2p_maximum():
    for p, t_star in [(1.0, 2.0), (10.0, 11.0), (0.1, 1.1)]:
        rep = verify_rn_p2p(p)
        assert rep["max"] <= 1e-9 and rep["max"] > -1e-9
        assert rep["argmax"] == pytest.approx(t_star, rel=1e-6)


def test_rn_p2p_strictly_negative_off_peak():
    # curvature at the peak scales with p^2, so the margin is for p >= 1
    for p in (1.0, 10.0):
        for t in np.linspace(0.05, 20.0 * (1 + p), 400):
            if abs(t - (1 + p)) > 0.1 * (1 + p):
                assert rn_bound_function_p2p(float(t), p) < -1e-4


def test_rn_p2p_constants():
    constants = verify_rn_p2p(1.0)["constants"]
    assert constants["k_asymptotic"] == pytest.approx(math.pi / 4.0, rel=1e-12)
    assert constants["k_asymptotic"] <= 1.0
    assert constants["k_finite_n"] == pytest.approx(
        math.exp(math.log(0.5) + 2.0 + 0.5 * math.log(math.pi / 8.0)), rel=1e-12
    )


def test_rn_mac_maximum():
    for (p1, p2), t_star in [((1.0, 1.0), 2.0), ((1.0, 3.0), 4.0), ((0.5, 2.0), 2.5)]:
        rep = verify_rn_mac(p1, p2)
        assert rep["max"] <= 1e-9 and rep["max"] > -1e-9
        assert rep["argmax"] == pytest.approx(t_star, rel=1e-6)


@pytest.mark.parametrize("scale", [1.0, 100.0, 1e-200])
def test_rn_mac_passes_at_extreme_power_ratios(scale):
    # sin^2 theta0 without cancellation: with cos^2 theta0 rounded toward 1, (1, 1e-12) peaked at
    # 8.9e-5, (1, 1e-14) at 2.1e-2 and (100, 1e-8) at 7.8e-8 instead of 0; at 1e-200, 4 p1 t
    # underflowed and the profile was -inf everywhere
    for k in range(15):
        for p1, p2 in ((scale, scale * 10.0**-k), (scale * 10.0**-k, scale)):
            rep = verify_rn_mac(p1, p2)
            assert rep["pass"] and rep["expected_argmax"] == p1 + p2, (p1, p2, rep["max"], rep["argmax"])


def test_rn_mac_k3_constant():
    constants = verify_rn_mac(1.0, 1.0)["constants"]
    assert constants["k3_finite_n"] == pytest.approx(
        math.exp(2.0) / math.sqrt(2.0 * math.pi), rel=1e-12
    )
    assert constants["k3_asymptotic"] == pytest.approx(1.0, rel=1e-12)


def test_rn_mac_blows_down_at_endpoints():
    # upper shell boundary in all cases; lower one only for unequal powers
    assert rn_bound_function_mac(4.0 - 1e-6, 1.0, 1.0) < -10.0
    lo = (math.sqrt(1.0) - math.sqrt(3.0)) ** 2
    hi = (math.sqrt(1.0) + math.sqrt(3.0)) ** 2
    assert rn_bound_function_mac(lo + 1e-6, 1.0, 3.0) < -10.0
    assert rn_bound_function_mac(hi - 1e-6, 1.0, 3.0) < -10.0
    assert rn_bound_function_mac(lo - 0.1, 1.0, 3.0) == -math.inf
    assert rn_bound_function_mac(hi + 0.1, 1.0, 3.0) == -math.inf


def test_output_logpdf_obeys_divergence_chain():
    # ln(P_Y / Q_Y) <= c + (n/2) f(t) <= ln K for the finite-n constant
    c_fin = math.log(0.5) + 2.0 + 0.5 * math.log(math.pi / 8.0)
    for n in (64, 256, 1024):
        for t in np.linspace(0.05, 8.0, 60):
            p = 1.0
            ysq = n * float(t)
            log_ratio = shell_output_logpdf(ysq, n, p) - gaussian_logpdf(
                np.array([math.sqrt(ysq)] + [0.0] * (n - 1)), np.zeros(n), 1.0 + p
            )
            bound = c_fin + 0.5 * n * rn_bound_function_p2p(float(t), p)
            assert log_ratio <= bound + 1e-7
            assert log_ratio <= c_fin + 1e-7


def test_output_logpdf_monte_carlo_oracle():
    # Bessel closed form vs direct mixture average over shell codewords
    rng = substream(21)
    n, p = 8, 1.5
    w = rng.standard_normal((200_000, n))
    x = math.sqrt(n * p) * w / np.linalg.norm(w, axis=1, keepdims=True)
    for ysq in (2.0, 8.0, 20.0):
        y = np.zeros(n)
        y[0] = math.sqrt(ysq)
        logs = -0.5 * n * math.log(2 * math.pi) - 0.5 * np.einsum(
            "ij,ij->i", y[None, :] - x, y[None, :] - x
        )
        mc = math.log(np.exp(logs - logs.max()).mean()) + logs.max()
        assert shell_output_logpdf(ysq, n, p) == pytest.approx(mc, abs=0.02)


# ---------------------------------------------------------------------------
# log-domain Bessel
# ---------------------------------------------------------------------------


def test_bessel_bound_examples():
    rep = verify_bessel(2.0, 1.0)
    assert rep["pass"]
    assert math.exp(rep["log_lhs"]) == pytest.approx(0.135748, abs=5e-7)
    assert math.exp(rep["log_rhs"]) == pytest.approx(0.2185, abs=5e-5)
    rep = verify_bessel(0.0, 1e-6)
    assert rep["pass"]
    assert math.exp(rep["log_lhs"]) == pytest.approx(1.0, rel=1e-6)


def test_bessel_bound_random_grid():
    rng = substream(22)
    ks = rng.uniform(0.0, 320.0, 50)
    zs = rng.uniform(1e-6, 640.0, 50)
    for k in ks:
        for z in zs:
            assert verify_bessel(float(k), float(z))["pass"]


def test_log_bessel_against_mpmath():
    # spans the series, uniform-asymptotic, and large-argument branches
    cases = [
        (0.0, 0.5), (0.0, 50.0), (0.0, 500.0), (1.0, 10.0), (3.5, 120.0),
        (10.0, 401.0), (15.0, 500.0), (16.0, 1.0), (24.0, 24.0), (99.0, 7.0),
        (249.0, 700.0), (249.0, 60.0), (500.0, 2000.0), (37.5, 37.5),
    ]
    for k, z in cases:
        assert log_bessel_i(k, z) == pytest.approx(log_bessel_i_mp(k, z), rel=1e-7, abs=1e-7)


def test_log_bessel_branch_boundaries_continuous():
    # values straddling the branch switches agree with the oracle and with
    # each other (no jumps where the evaluation strategy changes)
    for k in (15.5, 15.999, 16.0, 16.001, 16.5):
        for z in (0.7, 12.0, 200.0, 1500.0):
            assert log_bessel_i(k, z) == pytest.approx(log_bessel_i_mp(k, z), rel=5e-7, abs=5e-7)
    for z in (399.0, 399.999, 400.0, 400.001, 401.0):
        for k in (0.0, 3.0, 9.5, 15.0):
            assert log_bessel_i(k, z) == pytest.approx(log_bessel_i_mp(k, z), rel=5e-7, abs=5e-7)


def test_phi_matches_mpmath_from_minus_38_to_8():
    # 0.5 erfc(-x / sqrt 2) rounds x / sqrt 2 once, which moves the tail by up to x^2 ulps relative; below
    # the least normal double (x < -37.5) erfc underflows gradually and keeps an absolute accuracy
    x = np.linspace(-38.0, 8.0, 921)
    got = _phi(x)
    with mp.workdps(40):
        ref = np.array([float(mp.ncdf(mp.mpf(float(t)))) for t in x])
        normal = ref >= sys.float_info.min
        err = np.array([abs(mp.mpf(float(g)) - mp.ncdf(mp.mpf(float(t)))) for g, t in zip(got, x)], dtype=float)
    assert normal.sum() > 900 and (~normal).any()
    assert (err[normal] <= 2.0 * (1.0 + x[normal] ** 2) * 2.0**-53 * ref[normal]).all()
    assert (err[~normal] <= 1e-320).all()
    assert _phi(np.zeros((2, 3))).shape == (2, 3) and (_phi(np.zeros((2, 3))) == 0.5).all()


_SCIPY_REFUSED = """
import math, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is refused")

sys.meta_path.insert(0, RefuseScipy())

from fbmac.core import PowerPair
from fbmac.gaussquad import q_inv_scalar
from fbmac.shellmc import confusion_scaling_check, empirical_outage_p2p, verify_clt
from fbmac.shellmc import log_bessel_i, shell_rn_constants
from fbmac.simlink import CodebookSpec, default_thresholds, mac_achievability_bound, simulate_mac, simulate_p2p

pp = PowerPair(1.0, 1.0)
mac, p2p = CodebookSpec(n=20, m1=4, m2=4, p1=1.0, p2=1.0), CodebookSpec(n=20, m1=4, p1=1.0)
mac_th, p2p_th = default_thresholds(mac, *shell_rn_constants(pp)), default_thresholds(p2p, 1.0, 1.0, 1.0)
assert 0 <= simulate_mac(mac, mac_th, 2000).errors <= 2000
assert 0 <= simulate_p2p(p2p, p2p_th, 2000).errors <= 2000
joint, splitting = (mac_achievability_bound(mac, mac_th, 4000, mode=m).value for m in ("joint", "splitting"))
assert 0.0 < joint <= splitting
assert q_inv_scalar(1e-3) == 3.090232306167813
assert 0.0 < empirical_outage_p2p(100, 1.0, 100 * math.log(2.0) / 2.0, 10_000).value < 1.0
assert verify_clt("p2p", 64, 20_000, 1.0, 1.0, 1.0)["pass"]
assert verify_clt("mac-joint", 64, 20_000, 1.0, 1.0, 1.0)["pass"]
assert all(q.value > 0.0 for q in confusion_scaling_check([100, 400], 1.0, trials=4096))
assert math.isfinite(log_bessel_i(2.0, 30.0))  # the series branch, k < 16 and z <= 400
assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
"""


def test_monte_carlo_layer_runs_without_scipy():
    # scipy.special costs about 25 MB of resident memory and 0.3 s of start-up; the Monte Carlo layer,
    # its link simulator and the scalar Gaussian tails need none of it
    proc = subprocess.run([sys.executable, "-c", _SCIPY_REFUSED], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_log_bessel_edge_cases():
    assert log_bessel_i(0.0, 0.0) == 0.0
    assert log_bessel_i(2.0, 0.0) == -math.inf
    with pytest.raises(DomainError):
        log_bessel_i(-1.0, 1.0)
    # 2 pi z overflows above about 2.9e307, yet ln I_k(z) = z - ln(2 pi z)/2 + ... stays finite
    for k in (0.0, 3.5):
        assert log_bessel_i(k, 1e308) == pytest.approx(1e308, rel=1e-12)
    # the large-order branch squares z/k, which overflows above about 1.3e154
    for z in (1e160, 1e308):
        assert log_bessel_i(20.0, z) == pytest.approx(z, rel=1e-12)


# ---------------------------------------------------------------------------
# superimposed-input density
# ---------------------------------------------------------------------------


def _radial_logpdf(t: float, n: int, pp: PowerPair) -> float:
    """Density of ||X1+X2||^2/n from the point density (test-side conversion)."""
    point = sum_density(t, n, pp.p1, pp.p2)
    if point == -math.inf:
        return -math.inf
    r = math.sqrt(n * t)
    log_area = math.log(2.0) + 0.5 * n * math.log(math.pi) - gammaln(0.5 * n) + (n - 1) * math.log(r)
    return point + log_area + math.log(0.5 * math.sqrt(n / t))


def test_sum_density_support():
    lo = (1.0 - math.sqrt(3.0)) ** 2
    hi = (1.0 + math.sqrt(3.0)) ** 2
    assert sum_density(lo - 0.01, 50, 1.0, 3.0) == -math.inf
    assert sum_density(hi + 0.01, 50, 1.0, 3.0) == -math.inf
    assert sum_density(lo, 50, 1.0, 3.0) == -math.inf  # boundary shells carry no mass
    assert sum_density(hi, 50, 1.0, 3.0) == -math.inf
    assert math.isfinite(sum_density(4.0, 50, 1.0, 3.0))
    # the divergence-bound profile shares the support
    for t in (lo - 0.01, lo, hi, hi + 0.01):
        assert _log_sin_sq(t, 1.0, 3.0) == -math.inf


@pytest.mark.parametrize("p1, p2", [(1.0, 3.0), (2.0, 0.5), (1.0, 1.0)])
def test_log_sin_sq_matches_sum_density(p1, p2):
    # the point density at n + 2 over the one at n is sin^2 theta0 times a factor free of t, so the two
    # agree up to one constant; cos theta0 = (t + p1 - p2) / (2 sqrt(p1 t)) vanishes at t = p2 - p1
    lo, hi = (math.sqrt(p1) - math.sqrt(p2)) ** 2, (math.sqrt(p1) + math.sqrt(p2)) ** 2

    def ratio(t):
        return sum_density(t, 52, p1, p2) - sum_density(t, 50, p1, p2)

    t0 = 0.5 * (lo + hi)
    shift = ratio(t0) - _log_sin_sq(t0, p1, p2)
    for t in np.linspace(lo, hi, 41)[1:-1]:
        assert _log_sin_sq(float(t), p1, p2) == pytest.approx(ratio(float(t)) - shift, abs=1e-11)
    if p2 > p1:
        assert _log_sin_sq(p2 - p1, p1, p2) == pytest.approx(0.0, abs=1e-15)


def test_sum_density_normalizes():
    pp = PowerPair(1.0, 2.0)
    n = 50
    lo = (1.0 - math.sqrt(2.0)) ** 2
    hi = (1.0 + math.sqrt(2.0)) ** 2
    total, _ = quad(lambda t: math.exp(_radial_logpdf(t, n, pp)), lo, hi, limit=200)
    assert total == pytest.approx(1.0, rel=1e-6)


def test_sum_density_matches_histogram():
    pp = PowerPair(1.0, 1.0)
    n, draws = 50, 1_000_000
    t = sum_inner_product_samples(n, pp, draws, seed=23)
    qs = np.quantile(t, [0.05, 0.95])
    edges = np.linspace(qs[0], qs[1], 41)
    counts, _ = np.histogram(t, bins=edges)
    hist = counts / (draws * np.diff(edges))  # absolute density, not band-renormalized
    centers = 0.5 * (edges[:-1] + edges[1:])
    pdf = np.array([math.exp(_radial_logpdf(float(c), n, pp)) for c in centers])
    assert np.abs(hist / pdf - 1.0).max() < 0.03


# ---------------------------------------------------------------------------
# confusion probabilities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, p, seed", [(50, 1.0, 24), (100, 1.0, 40), (200, 0.3, 41), (500, 1.0, 42)])
def test_confusion_importance_matches_exact_law(n, p, seed):
    # the scaling check estimates gamma Pr_Q[i > ln gamma] at ln gamma = nC - sqrt(nV), where the reference
    # tail is 1e-6 to 1e-71: out of reach of direct sampling beyond the smallest n
    lg = n * capacity(p) - math.sqrt(n * dispersion(p))
    (pt,) = confusion_scaling_check([n], p, seed=seed, trials=200_000)
    exact = math.exp(lg) * exact_confusion_p2p(n, p, lg)
    assert exact > 0
    assert abs(pt.value - exact) <= 4.0 * pt.std_err


def test_confusion_scaling_ratio():
    ratios = []
    for s in range(10):
        pts = confusion_scaling_check([400, 1600], 1.0, seed=(26, s), trials=1 << 15)
        ratios.append(pts[0].value / pts[1].value)
    assert 1.4 <= float(np.mean(ratios)) <= 2.9  # ~2 expected for n^(-1/2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_confusion_infinite_threshold():
    it = p2p_density_samples(100, 1.0, 2000, seed=27)
    assert np.all(_confusion(it, 0.0, math.inf) == 0.0)
    assert np.all(_confusion(it, -math.inf, -math.inf) == 0.0)  # a trivial codebook: weight 0, no threshold


def test_samplers_thread_invariant(monkeypatch):
    # chunk streams are derived from chunk indices, so worker count is moot
    pp = PowerPair(1.0, 2.0)
    monkeypatch.setenv("FBMAC_THREADS", "1")
    a1 = p2p_density_samples(200, 1.0, 150_000, seed=30)
    b1 = mac_density_samples(100, pp, 150_000, seed=31)
    c1 = confusion_scaling_check([400, 1600], 1.0, seed=32, trials=150_000)
    monkeypatch.setenv("FBMAC_THREADS", "7")
    a7 = p2p_density_samples(200, 1.0, 150_000, seed=30)
    b7 = mac_density_samples(100, pp, 150_000, seed=31)
    c7 = confusion_scaling_check([400, 1600], 1.0, seed=32, trials=150_000)
    assert np.array_equal(a1, a7)
    assert np.array_equal(b1, b7)
    assert c1 == c7


def test_chunk_reductions_match_full_arrays():
    # per-chunk moments merged in chunk order agree with the full-array figures
    trials = 150_000  # three chunks, the last one ragged
    for j, pt in enumerate(confusion_scaling_check([400, 1600], 1.0, seed=33, trials=trials)):
        lg = pt.n * capacity(1.0) - math.sqrt(pt.n * dispersion(1.0))
        it = p2p_density_samples(pt.n, 1.0, trials, seed=(33, j))
        contrib = np.where(it > lg, np.exp(np.minimum(lg - it, 0.0)), 0.0)
        assert pt.value == pytest.approx(contrib.mean(), rel=1e-12)
        assert pt.std_err == pytest.approx(contrib.std(ddof=1) / math.sqrt(trials), rel=1e-12)
    parts = p2p_density_samples(64, 1.0, trials, seed=34, reduce=len)
    assert parts == [1 << 16, 1 << 16, trials - (2 << 16)]
    pp = PowerPair(1.0, 2.0)
    chunks = mac_density_samples(64, pp, trials, seed=35, reduce=lambda c: c)
    assert np.array_equal(np.concatenate(chunks, axis=1), mac_density_samples(64, pp, trials, seed=35))


# ---------------------------------------------------------------------------
# verdict rules of ``fbmac verify``, pinned at their thresholds
# ---------------------------------------------------------------------------

JUST = 1e-9  # relative step just inside / just outside a threshold
# each rule is pinned by handing its verdict function the estimate, in place of the estimator's


def test_rn_bound_rule_thresholds(monkeypatch):
    def rule(fmax, argmax, target):
        monkeypatch.setattr(shellmc, "_golden_max", lambda fn, grid, tol: (fmax, argmax))
        # the p2p profile peaks at 1 + p, the MAC one at p1 + p2: both verdicts keep the one rule
        p2p, mac = verify_rn_p2p(target - 1.0), verify_rn_mac(1.0, target - 1.0)
        assert p2p["expected_argmax"] == mac["expected_argmax"] == target
        assert p2p["pass"] is mac["pass"]
        return p2p["pass"]

    for target in (2.0, 4.0):
        assert rule(1e-9 * (1 - JUST), target, target)
        assert not rule(1e-9 * (1 + JUST), target, target)
        for side in (-1.0, 1.0):
            inside = target + side * 1e-6 * target * (1 - 1e-3)
            outside = target + side * 1e-6 * target * (1 + 1e-3)
            assert rule(0.0, inside, target)
            assert not rule(0.0, outside, target)


def test_clt_rule_thresholds(monkeypatch):
    # 3/sqrt(n) above 0.01 for n < 90000, the 0.01 floor beyond
    for n, limit in ((100, 0.3), (1024, 3.0 / 32.0), (10**6, 0.01)):
        for ks, ok in ((limit * (1 - JUST), True), (limit * (1 + JUST), False)):
            rep = KsReport(n, 1000, ks, np.eye(1))
            monkeypatch.setattr(shellmc, "clt_function_check", lambda *args, **kwargs: rep)
            assert verify_clt("p2p", n, 1000, 1.0, 1.0, 1.0)["pass"] is ok, (n, ks)


def test_confusion_scaling_rule_thresholds(monkeypatch):
    def verdict(pts):
        monkeypatch.setattr(shellmc, "confusion_scaling_check", lambda *args: pts)
        return verify_confusion_scaling(1.0, [q.n for q in pts], 1000)

    for n_first, n_last in ((400, 1600), (100, 900)):
        expected = math.sqrt(n_last / n_first)
        for factor, ok in ((0.7 * (1 + JUST), True), (0.7 * (1 - JUST), False),
                           (1.45 * (1 - JUST), True), (1.45 * (1 + JUST), False)):
            pts = [ConfusionScalePoint(n_first, factor * expected, 0.0), ConfusionScalePoint(n_last, 1.0, 0.0)]
            rep = verdict(pts)
            assert rep["ratio_first_last"] == pytest.approx(factor * expected, rel=1e-15)
            assert rep["expected_sqrt_ratio"] == expected
            assert rep["pass"] is ok, (n_first, factor)
    zero_last = [ConfusionScalePoint(400, 1.0, 0.0), ConfusionScalePoint(1600, 0.0, 0.0)]
    assert verdict(zero_last)["ratio_first_last"] == math.inf
    assert verdict(zero_last)["pass"] is False


def test_variance_ratio_rule_thresholds(monkeypatch):
    def passes(ratio):
        # n = pairs = 2 at unit powers: the ratio is the squared standard error of the mean
        monkeypatch.setattr(shellmc, "merge_moments", lambda parts: (0.0, math.sqrt(ratio)))
        rep = verify_inner_product(2, 1.0, 1.0, 2)
        assert rep["variance_ratio"] == pytest.approx(ratio, rel=1e-15)
        return rep["pass"]

    assert passes(0.95 + JUST) and passes(1.05 - JUST)
    assert not passes(0.95 - JUST) and not passes(1.05 + JUST)
    assert passes(1.0)


def test_inner_product_variance_ratio():
    for pairs in (0, 1):
        with pytest.raises(DomainError):
            verify_inner_product(100, 1.0, 1.0, pairs)
    rep = verify_inner_product(100, 1.0, 2.0, 40_000, seed=5)
    assert math.isfinite(rep["variance_ratio"]) and rep["pass"]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_inner_product_variance_ratio_keeps_chunk_moments(threads, monkeypatch):
    # 2^21 pairs are 16 MB of draws: the estimator keeps per-chunk moments, not the draws
    import tracemalloc

    monkeypatch.setenv("FBMAC_THREADS", threads)
    n, pp, pairs = 100, PowerPair(1.0, 2.0), 1 << 21
    verify_inner_product(n, pp.p1, pp.p2, 1000)  # lazy imports are not the estimator's memory
    tracemalloc.start()
    try:
        ratio = verify_inner_product(n, pp.p1, pp.p2, pairs, seed=3)["variance_ratio"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    inner = (sum_inner_product_samples(n, pp, pairs, 3) - pp.p1 - pp.p2) * n / 2.0
    assert ratio == pytest.approx(inner.var(ddof=1) / (n * pp.p1 * pp.p2), rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 7, 100, 2000, 10**6, 10**9])
def test_wilson_interval_ends_exactly_at_0_and_1(n):
    # center -+ half missed the ends by rounding: (0, 100) read a low end of 3.5e-18 and (2000, 2000) a high
    # end of 0.9999999999999998, which ``fbmac simulate`` printed in ci95
    assert _wilson_ci(0, n)[0] == 0.0 < _wilson_ci(0, n)[1]
    assert _wilson_ci(n, n)[0] < 1.0 == _wilson_ci(n, n)[1]
    for k in {1, n // 2, n - 1} - {0, n}:
        lo, hi = _wilson_ci(k, n)
        assert 0.0 < lo < k / n < hi < 1.0
