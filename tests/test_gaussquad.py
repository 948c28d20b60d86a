import gc
import math
import subprocess
import sys

import numpy as np
import pytest

from fbmac.core import DomainError, PowerPair, dispersion_matrix_shell, dispersion_matrix_sumshell
from fbmac.gaussquad import (
    OrthantQuery,
    ProbEstimate,
    _OrthantIntegrator,
    boundary_scale,
    lower_orthant_prob,
    q_inv_scalar,
    q_scalar,
    quantile_set_member,
)
from fbmac import regions
from fbmac.regions import resolve_delta, second_order_ray
from oracles import bivariate_lower_prob_trapezoid, q_tail, q_tail_inv, sumshell_orthant


def test_q_scalar_values():
    assert q_scalar(0.0) == 0.5
    assert q_scalar(40.0) < 1e-300
    assert q_scalar(3.0902) == pytest.approx(q_tail(3.0902), rel=1e-12)
    assert q_scalar(3.0902) == pytest.approx(1.000e-3, rel=2e-4)  # 4-digit display value


def test_q_scalar_oracle_grid():
    for x in np.linspace(-6.0, 8.0, 29):
        assert q_scalar(float(x)) == pytest.approx(q_tail(float(x)), rel=1e-12)


def test_q_inv_values():
    assert q_inv_scalar(0.5) == 0.0
    assert q_inv_scalar(1e-3) == pytest.approx(q_tail_inv(1e-3), abs=1e-9)
    assert q_inv_scalar(1e-3) == pytest.approx(3.090232, abs=5e-7)
    for eps in [1e-6, 0.01, 0.2, 0.4]:
        # 1 - eps is itself rounded, so compare absolutely
        assert q_inv_scalar(eps) == pytest.approx(-q_inv_scalar(1.0 - eps), abs=1e-10)


def test_q_inv_domain():
    for bad in [0.0, 1.0, -0.1, 1.5]:
        with pytest.raises(DomainError):
            q_inv_scalar(bad)


def test_q_roundtrip():
    for eps in np.logspace(-9, math.log10(1 - 1e-9), 41):
        eps = float(eps)
        assert q_scalar(q_inv_scalar(eps)) == pytest.approx(eps, rel=1e-12)


def test_orthant_independent_symmetric():
    est = lower_orthant_prob(OrthantQuery(np.eye(3), np.zeros(3)), samples=1 << 12, seed=0)
    assert est.value == pytest.approx(0.125, abs=1e-12)
    assert est.std_err <= 1e-12  # constant integrand after conditioning


def test_orthant_diagonal_factorizes():
    rng = np.random.Generator(np.random.Philox(11))
    for _ in range(100):
        var = rng.uniform(0.2, 3.0, 3)
        z = rng.uniform(-2.0, 2.5, 3)
        est = lower_orthant_prob(OrthantQuery(np.diag(var), z), samples=1 << 12, seed=3)
        expect = math.prod(1.0 - q_scalar(zi / math.sqrt(vi)) for zi, vi in zip(z, var))
        assert abs(est.value - expect) <= 3.0 * est.std_err + 1e-9


def test_orthant_correlated_2d_marginal_vs_trapezoid():
    rng = np.random.Generator(np.random.Philox(12))
    sigma = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
    for _ in range(20):
        z = np.array([rng.uniform(-1.5, 2.0), rng.uniform(-1.5, 2.0), np.inf])
        est = lower_orthant_prob(OrthantQuery(sigma, z), samples=1 << 14, seed=4)
        oracle = bivariate_lower_prob_trapezoid(z[0], z[1], 0.5)
        assert abs(est.value - oracle) < 1e-3


def test_orthant_matches_scipy_on_random_correlated():
    # independent implementation cross-check on full-rank correlated cases
    from scipy.stats import multivariate_normal

    rng = np.random.Generator(np.random.Philox(14))
    for _ in range(25):
        a = rng.standard_normal((3, 3))
        sigma = a @ a.T + 0.3 * np.eye(3)
        z = rng.uniform(-1.5, 2.0, 3) * np.sqrt(np.diag(sigma))
        est = lower_orthant_prob(OrthantQuery(sigma, z), samples=1 << 14, seed=8)
        ref = float(multivariate_normal(mean=np.zeros(3), cov=sigma, allow_singular=False).cdf(z))
        assert abs(est.value - ref) < 5e-5


def test_boundary_scale_mixed_zero_direction():
    # two constrained coordinates, one unconstrained: solves Phi(10 - t)^2 = 1 - eps
    from scipy.special import ndtri

    origin = np.array([10.0, np.inf, 10.0])
    t = boundary_scale(1e-2, np.eye(3), np.array([1.0, 0.0, 1.0]), origin, 1.0, samples=1 << 13, seed=0)
    assert t == pytest.approx(10.0 - float(ndtri(math.sqrt(1.0 - 1e-2))), abs=5e-5)


def test_orthant_monotone_in_z():
    rng = np.random.Generator(np.random.Philox(13))
    sigma = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.5], [0.2, 0.5, 1.0]])
    for _ in range(20):
        z = rng.uniform(-1.5, 1.5, 3)
        bump = rng.uniform(0.0, 1.0, 3)
        a = lower_orthant_prob(OrthantQuery(sigma, z), samples=1 << 13, seed=5).value
        b = lower_orthant_prob(OrthantQuery(sigma, z + bump), samples=1 << 13, seed=5).value
        assert b >= a - 1e-9


def test_orthant_bounds_and_neg_inf():
    sigma = np.eye(3)
    est = lower_orthant_prob(OrthantQuery(sigma, np.array([-np.inf, 0.0, 0.0])), seed=0)
    assert est.value == 0.0
    est = lower_orthant_prob(OrthantQuery(sigma, np.full(3, np.inf)), seed=0)
    assert est.value == 1.0


def test_orthant_deterministic():
    sigma = dispersion_matrix_shell(PowerPair(1.0, 2.0)).entries
    z = np.array([0.3, 0.1, 0.5])
    a = lower_orthant_prob(OrthantQuery(sigma, z), samples=1 << 13, seed=9)
    b = lower_orthant_prob(OrthantQuery(sigma, z), samples=1 << 13, seed=9)
    assert a.value == b.value and a.std_err == b.std_err


def test_orthant_rank_deficient_ok():
    # the rank-2 sum-shell matrix against a quadrature that conditions on one user; at each point
    # the sum constraint binds, and conditioning on the other user gives the same value
    points = [
        (1.0, 1.0, (0.5, 0.4, 0.3)),
        (2.0, 0.5, (0.6, 0.2, 0.3)),
        (10.0, 1.0, (0.4, 0.6, 0.2)),
        (0.1, 3.0, (0.2, 0.5, 0.3)),
        (0.01, 100.0, (-0.05, 0.3, 0.25)),
    ]
    for p1, p2, z in points:
        ref = sumshell_orthant(p1, p2, z)
        assert sumshell_orthant(p2, p1, (z[1], z[0], z[2])) == pytest.approx(ref, abs=1e-10)
        sigma = dispersion_matrix_sumshell(PowerPair(p1, p2)).entries
        for samples, tol in ((1 << 12, 1e-4), (1 << 16, 1e-5)):
            est = lower_orthant_prob(OrthantQuery(sigma, np.array(z)), samples=samples, seed=2)
            assert abs(est.value - ref) <= tol


def test_orthant_degenerate_factors():
    z = np.array([0.3, -0.2, 0.5])
    # rank 1: every coordinate is the same normal
    est = lower_orthant_prob(OrthantQuery(np.ones((3, 3)), z), samples=1 << 12)
    assert est.value == pytest.approx(1.0 - q_scalar(-0.2), abs=1e-15) and est.std_err == 0.0
    # a coordinate with no variance is the indicator of its threshold
    est = lower_orthant_prob(OrthantQuery(np.diag([1.0, 1.0, 0.0]), z), samples=1 << 12)
    assert est.value == pytest.approx((1.0 - q_scalar(0.3)) * (1.0 - q_scalar(-0.2)), abs=1e-15)
    assert lower_orthant_prob(OrthantQuery(np.diag([1.0, 1.0, 0.0]), -z), samples=1 << 12).value == 0.0
    assert lower_orthant_prob(OrthantQuery(np.zeros((3, 3)), np.abs(z)), samples=1 << 12).value == 1.0
    assert lower_orthant_prob(OrthantQuery(np.zeros((3, 3)), z), samples=1 << 12).value == 0.0
    # X3 = X1 / 2 puts no weight on the last free coordinate: the row is an indicator in X1
    sigma = np.array([[4.0, 0.0, 2.0], [0.0, 2.0, 0.0], [2.0, 0.0, 1.0]])
    est = lower_orthant_prob(OrthantQuery(sigma, z), samples=1 << 12)
    expect = (1.0 - q_scalar(0.3 / 2.0)) * (1.0 - q_scalar(-0.2 / math.sqrt(2.0)))
    assert est.value == pytest.approx(expect, abs=1e-12)


def test_orthant_refuses_collinear_leading_coordinates():
    # the two largest variances belong to one direction, so the leading block has no Cholesky factor;
    # no region kind builds such a matrix
    sigma = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.5]])
    with pytest.raises(DomainError):
        lower_orthant_prob(OrthantQuery(sigma, np.zeros(3)), samples=1 << 12)
    with pytest.raises(DomainError):
        boundary_scale(1e-3, sigma, np.ones(3), np.full(3, 10.0), 1.0, samples=1 << 12)


def test_sumshell_ray_matches_oracle_root():
    # the figure point's diagonal ray, against the root of the quadrature oracle
    from scipy.optimize import brentq

    n, eps, theta = 500, 1e-3, math.pi / 4
    d = np.array([math.cos(theta), math.sin(theta), math.cos(theta) + math.sin(theta)])
    origin = 0.5 * np.log1p([1.0, 1.0, 2.0])
    root = brentq(
        lambda t: sumshell_orthant(1.0, 1.0, math.sqrt(n) * (origin - t * d)) - (1.0 - eps), 0.2, 0.4, xtol=1e-12
    )
    assert root == pytest.approx(0.323254, abs=5e-7)
    for seed in range(5):
        assert abs(second_order_ray(n, eps, PowerPair(1.0, 1.0), theta, "sumshell", 1 << 12, seed) - root) <= 2e-6


def test_orthant_rejects_bad_sigma():
    bad = np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.9], [0.0, 0.9, 1.0]])  # indefinite
    with pytest.raises(DomainError):
        OrthantQuery(bad, np.zeros(3))
    with pytest.raises(DomainError):
        OrthantQuery(np.eye(3), np.array([0.0, np.nan, 0.0]))


def test_orthant_requires_min_samples():
    with pytest.raises(DomainError):
        lower_orthant_prob(OrthantQuery(np.eye(3), np.zeros(3)), samples=100)


def test_prob_estimate_invariants():
    with pytest.raises(DomainError):
        ProbEstimate(1.2, 0.0, 10)
    with pytest.raises(DomainError):
        ProbEstimate(0.5, -1.0, 10)


def test_quantile_set_member_examples():
    assert quantile_set_member(0.9, np.eye(3), np.zeros(3), samples=1 << 12, seed=0)
    assert not quantile_set_member(0.5, np.eye(3), np.zeros(3), samples=1 << 12, seed=0)


def test_quantile_membership_monotone():
    sigma = dispersion_matrix_shell(PowerPair(1.0, 1.0)).entries
    z = np.array([0.6, 0.6, 1.1])
    assert quantile_set_member(0.2, sigma, z, samples=1 << 13, seed=0) <= quantile_set_member(
        0.2, sigma, z + 0.5, samples=1 << 13, seed=0
    )


def test_boundary_scale_degenerate_axis():
    # one constrained coordinate: the crossing is 4 - Qinv(eps)
    origin = np.array([4.0, np.inf, np.inf])
    t = boundary_scale(0.5, np.eye(3), np.array([1.0, 0.0, 0.0]), origin, 1.0, samples=1 << 12, seed=0)
    assert abs(t - 4.0) <= 2e-6
    t = boundary_scale(1e-3, np.eye(3), np.array([1.0, 0.0, 0.0]), origin, 1.0, samples=1 << 12, seed=0)
    assert t == pytest.approx(4.0 - 3.090232, abs=5e-6)


def test_boundary_scale_monotone_in_eps():
    sigma = dispersion_matrix_shell(PowerPair(1.0, 1.0)).entries
    d = np.array([1.0, 1.0, 2.0])
    origin = np.array([4.0, 4.0, 8.0])
    ts = [
        boundary_scale(eps, sigma, d, origin, 1.0, samples=1 << 12, seed=1)
        for eps in (0.05, 0.01, 1e-3)
    ]
    assert ts[0] > ts[1] > ts[2]  # smaller eps -> the ray leaves the set sooner


def test_boundary_scale_origin_mode():
    # with an origin far inside, the crossing matches the scalar quantile
    sigma = np.eye(3)
    origin = np.array([10.0, np.inf, np.inf])
    t = boundary_scale(1e-3, sigma, np.array([1.0, 0.0, 0.0]), origin, 1.0, samples=1 << 12, seed=0)
    assert t == pytest.approx(10.0 - 3.090232, abs=5e-6)
    # origin outside the set clamps at zero
    t = boundary_scale(1e-3, sigma, np.array([1.0, 0.0, 0.0]), np.array([-10.0, np.inf, np.inf]), 1.0,
                       samples=1 << 12, seed=0)
    assert t == 0.0


def test_boundary_scale_rejects_bad_direction():
    origin = np.full(3, 10.0)
    with pytest.raises(DomainError):
        boundary_scale(0.1, np.eye(3), np.array([0.0, 0.0, 0.0]), origin, 1.0)
    with pytest.raises(DomainError):
        boundary_scale(0.1, np.eye(3), np.array([1.0, -1.0, 0.0]), origin, 1.0)


def test_boundary_scale_frees_its_integrator():
    # the root finder reaches the ray's integrator through a closure; no reference cycle may keep
    # the lattice alive once the solve returns
    pp = PowerPair(1.0, 1.0)
    sigma = dispersion_matrix_shell(pp).entries
    d = np.array([1.0, 1.0, 2.0])
    gc.collect()
    gc.disable()
    try:
        boundary_scale(1e-3, sigma, d, np.full(3, 10.0), 1.0, samples=1 << 12, seed=0)
        second_order_ray(500, 1e-3, pp, 0.7, "sumshell")
        left = sum(isinstance(o, _OrthantIntegrator) for o in gc.get_objects())
    finally:
        gc.enable()
    assert left == 0


@pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-6])
@pytest.mark.parametrize("kind", ["shell", "iid", "sumshell"])
def test_boundary_scale_matches_scipy_brentq(kind, eps, monkeypatch):
    # the ported Brent solver returns the very float scipy's brentq returns on the same bracket,
    # and skips only brentq's two evaluations of the bracket ends, which the search already made
    from scipy.optimize import brentq

    real_call = _OrthantIntegrator.__call__
    calls = []
    seen = []

    def counted(self, z):
        calls.append(1)
        return real_call(self, z)

    def solve(*args):
        before = len(calls)
        t = boundary_scale(*args)
        seen.append((args, t, len(calls) - before))
        return t

    monkeypatch.setattr(_OrthantIntegrator, "__call__", counted)
    monkeypatch.setattr(regions, "boundary_scale", solve)
    delta = resolve_delta("n^-1/4", 500) if kind == "iid" else 0.0
    for theta in (0.05, 0.6, math.pi / 4, 1.5):
        second_order_ray(500, eps, PowerPair(1.0, 2.0), theta, kind, 1 << 12, 0, delta)
    for (eps_, sigma, d, origin, bracket, samples, seed), t, evals in seen:
        integ = _OrthantIntegrator(sigma, np.ones(3, dtype=bool), samples, seed)

        def gap(s):
            return real_call(integ, origin - s * d)[0] - (1.0 - eps_)

        # the bracket search as boundary_scale makes it: scale 0, then doubling from the bracket end
        searched, lo, hi = 1, 0.0, bracket
        assert gap(0.0) >= 0.0
        while True:
            searched += 1
            if gap(hi) < 0.0:
                break
            lo, hi = hi, 2.0 * hi
        ref, res = brentq(gap, lo, hi, xtol=1e-6, full_output=True)
        assert t == ref
        assert evals == searched + res.function_calls - 2


def test_quantile_boundary_leaves_scipy_optimize_unimported():
    # scipy.optimize costs about 21 MB of resident memory; the ray solver must not pull it in
    code = (
        "import sys\n"
        "from fbmac.core import PowerPair\n"
        "from fbmac.regions import joint_outage_boundary\n"
        "joint_outage_boundary(500, 1e-3, PowerPair(1.0, 1.0), 8)\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
