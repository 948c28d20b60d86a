import json
import math
import os

import numpy as np
import pytest

from fbmac.core import DomainError, PowerPair, capacity, dispersion
from fbmac.gaussquad import q_inv_scalar
from fbmac.simlink import (
    BoundEstimate,
    CodebookSpec,
    SimResult,
    Thresholds,
    default_thresholds,
    shell_rn_constants,
    simulate_mac,
    simulate_p2p,
    p2p_achievability_bound,
    mac_achievability_bound,
)
from oracles import exact_confusion_p2p, exact_outage_p2p, materialized_error_rate, two_sample_ks


def calibrated_power(n: int, m: int, eps_target: float) -> float:
    """SNR putting the second-order operating point at roughly eps_target."""
    log_gamma = math.log(max(m - 1, 1) / 2.0) if m > 1 else 0.0
    lo, hi = 1e-4, 100.0
    for _ in range(80):
        p = math.sqrt(lo * hi)
        z = (n * capacity(p) - log_gamma) / math.sqrt(n * dispersion(p))
        if z > q_inv_scalar(eps_target):
            hi = p
        else:
            lo = p
    return math.sqrt(lo * hi)


def test_codebook_spec_validation():
    CodebookSpec(n=10, m1=2, p1=1.0)
    with pytest.raises(DomainError):
        CodebookSpec(n=0, m1=2, p1=1.0)
    with pytest.raises(DomainError):
        CodebookSpec(n=10, m1=2, p1=-1.0)
    with pytest.raises(DomainError):
        CodebookSpec(n=10, m1=2, m2=2, p1=1.0, p2=0.0)


def test_default_thresholds():
    spec = CodebookSpec(n=10, m1=1, m2=1, p1=1.0, p2=1.0)
    th = default_thresholds(spec, 1.0, 1.0, 1.0)
    assert th.log_gamma1 == -math.inf
    assert th.log_gamma2 == -math.inf
    assert th.log_gamma3 == -math.inf
    spec = CodebookSpec(n=10, m1=3, m2=1, p1=1.0)
    assert default_thresholds(spec, 1.0, 1.0, 1.0).log_gamma1 == pytest.approx(0.0, abs=1e-15)
    base = default_thresholds(spec, 1.0, 1.0, 1.0).log_gamma1
    doubled = default_thresholds(spec, 2.0, 1.0, 1.0).log_gamma1
    assert doubled - base == pytest.approx(math.log(2.0), rel=1e-12)
    with pytest.raises(DomainError):
        default_thresholds(spec, 0.0, 1.0, 1.0)


def test_shell_rn_constants():
    k1, k2, k3 = shell_rn_constants(PowerPair(1.0, 1.0))
    assert k1 == 1.0 and k2 == 1.0
    assert k3 == pytest.approx(math.exp(2.0) / math.sqrt(2.0 * math.pi), rel=1e-12)
    # agrees with the constant reported by the divergence-bound check
    from fbmac.shellmc import verify_rn_mac

    for pp in (PowerPair(1.0, 1.0), PowerPair(0.5, 2.0)):
        constants = verify_rn_mac(pp.p1, pp.p2)["constants"]
        assert shell_rn_constants(pp)[2] == pytest.approx(constants["k3_finite_n"], rel=1e-12)


def test_simulate_p2p_universal_outage():
    spec = CodebookSpec(n=20, m1=4, p1=1.0, seed=1)
    res = simulate_p2p(spec, Thresholds(math.inf), 500)
    assert res.eps_hat == 1.0


def test_simulate_p2p_first_typical_rule():
    # threshold -inf accepts everything; the decoder always returns index 0
    spec = CodebookSpec(n=20, m1=4, p1=1.0, seed=2)
    res = simulate_p2p(spec, Thresholds(-math.inf), 40_000)
    assert res.eps_hat == pytest.approx(0.75, abs=0.01)
    assert res.ci95_low < 0.75 < res.ci95_high


def test_simulators_and_bound_estimators_draw_disjoint_substreams(monkeypatch):
    # verify bounds compares a simulation with a bound estimate at one seed, within a margin
    # 2 hypot(se_sim, se_bound) that holds only for independent estimates: no substream may feed both
    from fbmac import _rng, shellmc, simlink

    paths, owner = {"sim": set(), "bound": set()}, []

    def recording(seed, *path):
        paths[owner[-1]].add(_rng.seed_path(seed) + path)
        return _rng.substream(seed, *path)

    monkeypatch.setattr(simlink, "substream", recording)
    monkeypatch.setattr(shellmc, "substream", recording)
    p2p = CodebookSpec(n=20, m1=4, p1=1.0, seed=7)
    mac = CodebookSpec(n=20, m1=4, m2=4, p1=1.0, p2=1.0, seed=7)
    trials = 3 * (1 << 16)  # three chunks of draws for the bounds, more for the simulators
    for spec, simulate, bound in ((p2p, simulate_p2p, p2p_achievability_bound),
                                  (mac, simulate_mac, mac_achievability_bound)):
        th = default_thresholds(spec, 1.0, 1.0, 1.0)
        owner.append("sim")
        simulate(spec, th, trials)
        owner.append("bound")
        bound(spec, th, trials)
    assert len(paths["sim"]) >= 3 and len(paths["bound"]) == 3
    assert not paths["sim"] & paths["bound"]


def test_simulate_p2p_within_achievability_bound():
    n, m = 200, 8
    p = calibrated_power(n, m, 0.05)
    spec = CodebookSpec(n=n, m1=m, p1=p, seed=3)
    th = default_thresholds(spec, 1.0, 1.0, 1.0)
    sim = simulate_p2p(spec, th, 30_000)
    rhs = p2p_achievability_bound(spec, th, 300_000)
    sim_se = math.sqrt(sim.eps_hat * (1 - sim.eps_hat) / sim.trials)
    assert sim.eps_hat <= rhs.value + 2.0 * math.hypot(sim_se, rhs.std_err)
    assert sim.eps_hat > 0.005  # the configuration is actually strained


def test_simulate_mac_trivial_rules():
    pp = PowerPair(1.0, 1.0)
    spec = CodebookSpec(n=20, m1=2, m2=2, p1=pp.p1, p2=pp.p2, seed=4)
    all_pass = Thresholds(-math.inf, -math.inf, -math.inf)
    res = simulate_mac(spec, all_pass, 40_000)
    assert res.eps_hat == pytest.approx(0.75, abs=0.01)
    blocked = Thresholds(math.inf, -math.inf, -math.inf)
    assert simulate_mac(spec, blocked, 500).eps_hat == 1.0


def test_simulate_mac_within_achievability_bound():
    n = 100
    p = calibrated_power(n, 8, 0.1)
    spec = CodebookSpec(n=n, m1=8, m2=8, p1=p, p2=p, seed=5)
    th = default_thresholds(spec, *shell_rn_constants(PowerPair(p, p)))
    sim = simulate_mac(spec, th, 20_000)
    rhs = mac_achievability_bound(spec, th, 200_000, mode="joint")
    sim_se = math.sqrt(sim.eps_hat * (1 - sim.eps_hat) / sim.trials)
    assert sim.eps_hat <= rhs.value + 2.0 * math.hypot(sim_se, rhs.std_err)


def test_p2p_achievability_bound_trivial_and_monotone():
    spec1 = CodebookSpec(n=50, m1=1, p1=1.0, seed=6)
    th1 = default_thresholds(spec1, 1.0, 1.0, 1.0)
    assert p2p_achievability_bound(spec1, th1, 2000).value == 0.0
    vals = []
    for m in (2, 4, 8, 16):
        spec = CodebookSpec(n=50, m1=m, p1=1.0, seed=6)
        th = Thresholds(2.0)  # fixed threshold isolates the (m-1) factor
        vals.append(p2p_achievability_bound(spec, th, 2000).value)
    assert all(a < b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("n, m, p", [(100, 8, 0.2), (150, 16, 0.3), (60, 4, 0.1)])
def test_p2p_achievability_bound_matches_exact_law(n, m, p):
    # outage plus (M-1)/2 times the reference tail, both as 1-D integrals
    spec = CodebookSpec(n=n, m1=m, p1=p, seed=0)
    th = default_thresholds(spec, 1.0, 1.0, 1.0)
    exact = exact_outage_p2p(n, p, th.log_gamma1) + (m - 1) / 2.0 * exact_confusion_p2p(n, p, th.log_gamma1)
    est = p2p_achievability_bound(spec, th, 200_000)
    assert abs(est.value - exact) <= 4.0 * est.std_err


def test_mac_achievability_bound_trivial_and_ordering():
    pp = PowerPair(1.0, 1.0)
    spec = CodebookSpec(n=64, m1=1, m2=1, p1=pp.p1, p2=pp.p2, seed=7)
    th = default_thresholds(spec, *shell_rn_constants(pp))
    assert mac_achievability_bound(spec, th, 2000, mode="joint").value == 0.0
    assert mac_achievability_bound(spec, th, 2000, mode="splitting").value == 0.0
    # splitting is a union bound on the joint outage: never below it
    p = calibrated_power(100, 8, 0.15)
    spec = CodebookSpec(n=100, m1=8, m2=8, p1=p, p2=p, seed=8)
    th = default_thresholds(spec, *shell_rn_constants(PowerPair(p, p)))
    joint = mac_achievability_bound(spec, th, 100_000, mode="joint")
    split = mac_achievability_bound(spec, th, 100_000, mode="splitting")
    assert split.value >= joint.value
    with pytest.raises(DomainError):
        mac_achievability_bound(spec, th, 2000, mode="other")


def test_eps_hat_improves_toward_optimal_threshold():
    # moving the threshold down from a too-high value toward ln(K(M-1)/2)
    n, m = 150, 8
    p = calibrated_power(n, m, 0.1)
    spec = CodebookSpec(n=n, m1=m, p1=p, seed=9)
    opt = default_thresholds(spec, 1.0, 1.0, 1.0).log_gamma1
    rates = []
    for bump in (6.0, 3.0, 0.0):
        rates.append(simulate_p2p(spec, Thresholds(opt + bump), 20_000).eps_hat)
    assert rates[0] >= rates[1] >= rates[2]


def test_simulation_deterministic_and_thread_invariant(monkeypatch):
    from fbmac.simlink import _sim_chunk

    spec = CodebookSpec(n=60, m1=4, p1=1.0, seed=10)
    th = default_thresholds(spec, 1.0, 1.0, 1.0)
    a = simulate_p2p(spec, th, 5000)
    b = simulate_p2p(spec, th, 5000)
    assert a == b
    monkeypatch.setenv("FBMAC_THREADS", "1")
    c = simulate_p2p(spec, th, 5000)
    monkeypatch.setenv("FBMAC_THREADS", "7")
    d = simulate_p2p(spec, th, 5000)
    assert a == c == d
    # several chunks per call, for both simulators
    mac = CodebookSpec(n=60, m1=8, m2=8, p1=0.3, p2=0.3, seed=10)
    mac_th = default_thresholds(mac, *shell_rn_constants(PowerPair(0.3, 0.3)))
    trials = 3 * _sim_chunk(60, 4) + 17
    assert trials > 3 * _sim_chunk(60, 8, 8)
    runs = []
    for threads in ("1", "7"):
        monkeypatch.setenv("FBMAC_THREADS", threads)
        runs.append((simulate_p2p(spec, th, trials), simulate_mac(mac, mac_th, trials)))
    assert runs[0] == runs[1]


def test_shell_codewords_satisfy_power_constraint():
    # the feasibility term of the bounds is identically zero for shell inputs
    from fbmac.simlink import _span_rows
    from fbmac._rng import substream

    for n in (40, 3):  # n >= k and n < k
        shells = np.repeat([2.0, 0.3], [5, 4])
        w = _span_rows(substream(11), 16, n, shells)
        assert w.shape == (16, 10, min(n, 10))
        norms = np.einsum("bkd,bkd->bk", w[:, :-1], w[:, :-1])
        assert np.allclose(norms, n * shells, rtol=1e-12, atol=0.0)


def _gram_statistics(w: np.ndarray, pairs) -> list:
    # the noise row's squared norm and the cosines of the given row pairs
    norms = np.sqrt(np.einsum("bkd,bkd->bk", w, w))
    stats = [norms[:, -1] ** 2]
    for i, j in pairs:
        stats.append(np.einsum("bd,bd->b", w[:, i], w[:, j]) / (norms[:, i] * norms[:, j]))
    return stats


@pytest.mark.parametrize("n", [12, 5])
def test_span_rows_gram_matches_explicit_gaussian_vectors(n):
    # Bartlett rows against k explicit N(0, I_n) vectors: the noise norm is
    # chi2(n) and the cosines, which the shell scaling leaves alone, agree
    from fbmac.simlink import _span_rows
    from fbmac._rng import substream

    k, samples = 9, 20_000
    pairs = [(0, 1), (2, 3), (3, 7), (0, k - 1), (6, 7), (k - 2, k - 1)]
    rows = _span_rows(substream(21, n), samples, n, np.full(k - 1, 1.5))
    explicit = np.random.default_rng(22 + n).standard_normal((samples, k, n))
    crit = 1.95 * math.sqrt(2.0 / samples)  # two-sample KS at level 1e-3
    got, want = _gram_statistics(rows, pairs), _gram_statistics(explicit, pairs)
    for a, b in zip(got, want):
        assert two_sample_ks(a, b) < crit


@pytest.mark.parametrize(
    "n, m1, m2, p",
    [(100, 8, 8, 0.1), (100, 8, 0, 0.1), (5, 8, 8, 3.0), (6, 9, 0, 1.0)],
)
def test_simulators_match_materialized_codewords(n, m1, m2, p):
    # error rates agree with codewords drawn in R^n, within 4 combined std errors
    trials = 20_000
    if m2:
        spec = CodebookSpec(n=n, m1=m1, m2=m2, p1=p, p2=p, seed=30)
        th = default_thresholds(spec, *shell_rn_constants(PowerPair(p, p)))
        sim = simulate_mac(spec, th, trials)
        gammas = (th.log_gamma1, th.log_gamma2, th.log_gamma3)
        ref = materialized_error_rate(n, (m1, m2), (p, p), gammas, trials, seed=31)
    else:
        spec = CodebookSpec(n=n, m1=m1, p1=p, seed=30)
        th = default_thresholds(spec, 1.0, 1.0, 1.0)
        sim = simulate_p2p(spec, th, trials)
        ref = materialized_error_rate(n, (m1,), (p,), (th.log_gamma1,), trials, seed=31)
    se = math.sqrt((sim.eps_hat * (1 - sim.eps_hat) + ref * (1 - ref)) / trials)
    assert 0.1 < ref < 0.9  # the operating point is strained, not trivial
    assert abs(sim.eps_hat - ref) <= 4.0 * se


def test_simulate_p2p_memory_does_not_grow_with_n(monkeypatch):
    # drawing the codewords in R^n peaked at about 73 MB; the Bartlett rows of
    # a chunk and its dot products stay far below
    import tracemalloc

    monkeypatch.setenv("FBMAC_THREADS", "1")
    spec = CodebookSpec(n=100, m1=8, p1=0.1, seed=43)
    th = default_thresholds(spec, 1.0, 1.0, 1.0)
    tracemalloc.start()
    try:
        simulate_p2p(spec, th, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_sim_chunk_budget():
    # the budget is computed, never allocated: a trial holds k x min(n, k)
    # Bartlett rows plus the (m1, m2) pair arrays (point-to-point: m dots)
    from fbmac.simlink import _SIM_BUDGET, _sim_chunk

    assert _sim_chunk(100, 8) == _SIM_BUDGET // (9 * 9 + 8)
    assert _sim_chunk(100, 8, 8) == _SIM_BUDGET // (17 * 17 + 64)
    assert _sim_chunk(5, 8, 8) == _SIM_BUDGET // (17 * 5 + 64)
    assert _sim_chunk(10**9, 8) == _sim_chunk(9, 8)  # no growth with n beyond k
    # one trial exactly at the budget: (m + 1)^2 = k + m^2 scalars at n = 1
    m = math.isqrt(_SIM_BUDGET) - 1
    assert (m + 1) ** 2 == _SIM_BUDGET
    assert _sim_chunk(1, m, m) == 1
    with pytest.raises(DomainError):
        _sim_chunk(2, m, m)
    # the (m1, m2) pair arrays alone: 2^28 scalars, 2 GB per temporary
    with pytest.raises(DomainError):
        _sim_chunk(10, 1 << 14, 1 << 14)
    # k x min(n, k) rows alone over the budget
    k = math.isqrt(_SIM_BUDGET) + 1
    with pytest.raises(DomainError):
        _sim_chunk(10**6, k - 1)
    assert _sim_chunk(_SIM_BUDGET // k - 1, k - 1) >= 1  # fewer coordinates fit


def test_simulate_over_budget_exits_2(monkeypatch, capsys):
    from fbmac import simlink
    from fbmac.cli import main

    monkeypatch.setattr(simlink, "_SIM_BUDGET", 20)  # one trial below holds 5 * 5 + 4 scalars
    args = ["simulate", "p2p", "--n", "50", "--m1", "4", "--p1-db", "0", "--trials", "2000"]
    assert main(args) == 2
    assert "budget" in capsys.readouterr().err


def test_simulate_p2p_at_a_million_dimensions_runs(capsys):
    # the drawn rows do not grow with n: a million-symbol block is cheap
    from fbmac.cli import main

    args = ["simulate", "p2p", "--n", "1000000", "--m1", "8", "--p1-db", "-60", "--trials", "2000"]
    assert main(args) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["trials"] == 2000 and 0.0 < out["eps_hat"] < 1.0


def test_bounds_thread_invariant_and_match_full_arrays(monkeypatch):
    # the estimators reduce chunk by chunk; compare with the full arrays
    from fbmac.shellmc import importance_weights, mac_density_samples, p2p_density_samples

    trials = 150_000
    pp = PowerPair(0.2, 0.1)  # low SNR, so that outage and confusion both count
    spec = CodebookSpec(n=80, m1=6, m2=5, p1=pp.p1, p2=pp.p2, seed=40)
    th = default_thresholds(spec, *shell_rn_constants(pp))
    p2p_spec = CodebookSpec(n=80, m1=6, p1=0.1, seed=41)
    p2p_th = default_thresholds(p2p_spec, 1.0, 1.0, 1.0)
    runs = []
    for threads in ("1", "7"):
        monkeypatch.setenv("FBMAC_THREADS", threads)
        runs.append(
            [
                p2p_achievability_bound(p2p_spec, p2p_th, trials),
                mac_achievability_bound(spec, th, trials, mode="joint"),
                mac_achievability_bound(spec, th, trials, mode="splitting"),
            ]
        )
    assert runs[0] == runs[1]
    p2p, joint, split = runs[0]

    # the bound estimators draw on the substreams (seed, 1, chunk), apart from the simulators' (seed, chunk)
    it = p2p_density_samples(80, 0.1, trials, seed=(41, 1))
    outage = it <= p2p_th.log_gamma1
    stat = outage + 2.5 * importance_weights(it, p2p_th.log_gamma1)
    want = [(stat, outage)]
    iv = mac_density_samples(80, pp, trials, seed=(40, 1))
    gammas = (th.log_gamma1, th.log_gamma2, th.log_gamma3)
    k3 = shell_rn_constants(pp)[2]
    conf = sum(w * importance_weights(i, g) for w, i, g in zip((2.5, 2.0, 10.0 * k3), iv, gammas))
    below = [i <= g for i, g in zip(iv, gammas)]
    for out in (below[0] | below[1] | below[2], sum(b.astype(float) for b in below)):
        want.append((out + conf, out))
    for got, (stat, out) in zip((p2p, joint, split), want):
        assert got.value == pytest.approx(stat.mean(), rel=1e-12, abs=0.0)
        assert got.std_err == pytest.approx(stat.std(ddof=1) / math.sqrt(trials), rel=1e-12)
        assert got.outage == pytest.approx(out.mean(), rel=1e-12)
        assert abs(got.value - got.outage - got.confusion) <= 1e-12
        assert got.confusion > 0 and got.outage > 0
    assert split.value >= joint.value


def test_bound_memory_does_not_grow_with_trials(monkeypatch):
    # 2^20 trials held as full (3, trials) arrays take about 60 MB; one chunk
    # of 2^16 draws and its moments stay far below
    import tracemalloc

    monkeypatch.setenv("FBMAC_THREADS", "1")
    spec = CodebookSpec(n=100, m1=8, m2=8, p1=0.1, p2=0.1, seed=42)
    th = default_thresholds(spec, *shell_rn_constants(PowerPair(0.1, 0.1)))
    tracemalloc.start()
    try:
        mac_achievability_bound(spec, th, 1 << 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_sim_result_validation():
    with pytest.raises(DomainError):
        SimResult(10, 11, 0.5, 0.0, 1.0)
    BoundEstimate(0.1, 0.01, 0.05, 0.05, 100)


def _replay_rows(seed, trials, n, shells):
    # rebuild the simulator's Bartlett rows entry by entry from its chunk stream:
    # the below-diagonal normals row by row, then one chi-square per diagonal
    # entry; codeword rows are scaled onto their shells, the last row is noise
    from fbmac._rng import substream

    rng = substream(seed, 0)  # single chunk at these sizes
    k = len(shells) + 1
    d = min(n, k)
    below = rng.standard_normal((trials, sum(min(i, d) for i in range(k))))
    chi = rng.chisquare([n - i for i in range(d)], (trials, d))
    rows = np.zeros((trials, k, d))
    for t in range(trials):
        pos = 0
        for i in range(k):
            for c in range(min(i, d)):
                rows[t, i, c] = below[t, pos]
                pos += 1
            if i < d:
                rows[t, i, i] = math.sqrt(chi[t, i])
            if i < k - 1:
                rows[t, i] *= math.sqrt(n * shells[i]) / math.sqrt(float(rows[t, i] @ rows[t, i]))
    return rng, rows


def test_simulate_p2p_matches_loop_reference():
    # replay the simulator's chunk stream and decode with explicit formulas in R^d
    n, m, p, trials, seed = 12, 5, 1.3, 400, 77
    spec = CodebookSpec(n=n, m1=m, p1=p, seed=seed)
    th = Thresholds(math.log(1.5))
    res = simulate_p2p(spec, th, trials)

    rng, rows = _replay_rows(seed, trials, n, [p] * m)
    x, z = rows[:, :m], rows[:, m]
    msg = rng.integers(0, m, trials)
    errors = 0
    for t in range(trials):
        y = x[t, msg[t]] + z[t]
        decided = None
        for j in range(m):
            it = (
                0.5 * n * math.log1p(p)
                + float(y @ y) / (2.0 * (1.0 + p))
                - 0.5 * float((y - x[t, j]) @ (y - x[t, j]))
            )
            if it > th.log_gamma1:
                decided = j
                break
        errors += decided != msg[t]
    assert 0 < errors < trials
    assert res.errors == errors


@pytest.mark.parametrize("db", [200.0, 300.0])
def test_simulators_decode_without_error_at_high_snr(db, capsys):
    # ||y - x||^2 expanded as ||y||^2 - 2 <y, x> + n p lost the noise's norm to rounding once n p >> n: the
    # sent codeword failed its own test from about 165 dB at n = 100 (eps_hat 0.349 in p2p and 0.483 in the
    # 8 x 8 MAC at 200 dB), and ``verify bounds`` failed
    from fbmac.cli import main

    p = 10.0 ** (db / 10.0)
    p2p = CodebookSpec(n=100, m1=8, p1=p, seed=0)
    mac = CodebookSpec(n=100, m1=8, m2=8, p1=p, p2=p, seed=0)
    assert simulate_p2p(p2p, default_thresholds(p2p, 1.0, 1.0, 1.0), 20_000).eps_hat == 0.0
    mac_th = default_thresholds(mac, *shell_rn_constants(PowerPair(p, p)))
    assert simulate_mac(mac, mac_th, 20_000).eps_hat == 0.0
    for mode in ("p2p", "mac-joint"):
        link = ["--n", "100", "--m1", "8", "--m2", "8", "--p1-db", str(db), "--p2-db", str(db)]
        assert main(["verify", "bounds", "--mode", mode, *link]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True


def test_simulate_mac_matches_loop_reference():
    m1, m2, p1, p2, trials, seed = 3, 2, 1.0, 0.7, 300, 78
    th = Thresholds(math.log(0.8), math.log(0.4), math.log(1.2))
    ps = p1 + p2
    for n in (10, 4):  # n >= k = 6 and n < k
        spec = CodebookSpec(n=n, m1=m1, m2=m2, p1=p1, p2=p2, seed=seed)
        res = simulate_mac(spec, th, trials)

        rng, rows = _replay_rows(seed, trials, n, [p1] * m1 + [p2] * m2)
        x1, x2, z = rows[:, :m1], rows[:, m1 : m1 + m2], rows[:, -1]
        j_true = rng.integers(0, m1, trials)
        k_true = rng.integers(0, m2, trials)
        errors = 0
        for t in range(trials):
            y = x1[t, j_true[t]] + x2[t, k_true[t]] + z[t]
            decided = None
            for j in range(m1):
                for k in range(m2):
                    diff = y - x1[t, j] - x2[t, k]
                    log_chan = -0.5 * float(diff @ diff)
                    i1 = (
                        0.5 * n * math.log1p(p1)
                        + float((y - x2[t, k]) @ (y - x2[t, k])) / (2.0 * (1.0 + p1))
                        + log_chan
                    )
                    i2 = (
                        0.5 * n * math.log1p(p2)
                        + float((y - x1[t, j]) @ (y - x1[t, j])) / (2.0 * (1.0 + p2))
                        + log_chan
                    )
                    i3 = 0.5 * n * math.log1p(ps) + float(y @ y) / (2.0 * (1.0 + ps)) + log_chan
                    if i1 > th.log_gamma1 and i2 > th.log_gamma2 and i3 > th.log_gamma3:
                        decided = (j, k)
                        break
                if decided is not None:
                    break
            errors += decided != (j_true[t], k_true[t])
        assert 0 < errors < trials
        assert res.errors == errors
