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
    _lattice,
    boundary_scale,
    lower_orthant_prob,
    q_inv_scalar,
    q_scalar,
    quantile_set_member,
)
from fbmac import regions
from fbmac.regions import resolve_delta, second_order_ray
from oracles import bivariate_lower_prob_trapezoid, q_tail, q_tail_inv, q_tail_inv_mp, sumshell_orthant, sumshell_outage


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


def test_q_inv_matches_mpmath_from_1e_300_to_one():
    # Wichura's AS241 in the standard library: within a few ulps of the 40-digit root, down to 1e-300
    grid = np.concatenate([np.logspace(-300.0, -1.0, 150), np.linspace(0.1, 1.0 - 1e-16, 60), [1.0 - 1e-16]])
    for eps in map(float, grid):
        ref = q_tail_inv_mp(eps)
        assert abs(q_inv_scalar(eps) - ref) <= 1e-15 * abs(ref), eps
    # the figure's and the sweep's error levels; scipy's ndtri gave these same doubles
    assert [q_inv_scalar(e) for e in (1e-3, 1e-6, 1e-9)] == [3.090232306167813, 4.753424308822899, 5.9978070150076865]


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
    t = boundary_scale(1e-2, np.eye(3), np.array([1.0, 0.0, 1.0]), origin, 0.0, samples=1 << 13, seed=0)
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
    sigma = dispersion_matrix_shell(PowerPair(1.0, 2.0))
    z = np.array([0.3, 0.1, 0.5])
    a = lower_orthant_prob(OrthantQuery(sigma, z), samples=1 << 13, seed=9)
    b = lower_orthant_prob(OrthantQuery(sigma, z), samples=1 << 13, seed=9)
    assert a.value == b.value and a.std_err == b.std_err


def test_orthant_rank_deficient_ok():
    # the rank-2 sum-shell matrix against a quadrature that conditions on one user; at each point
    # the sum constraint binds, and conditioning on the other user gives the same value.  Rank 2 is
    # exact whatever the sample count and the seed
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
        sigma = dispersion_matrix_sumshell(PowerPair(p1, p2))
        for samples, seed in ((1 << 12, 2), (1 << 16, 7)):
            est = lower_orthant_prob(OrthantQuery(sigma, np.array(z)), samples=samples, seed=seed)
            assert abs(est.value - ref) <= 1e-12 and est.std_err == 0.0


def test_orthant_rank2_matches_the_quadrature_oracle():
    # 400 seeded points, powers on a log grid in [0.01, 100] and thresholds in [-1, 6] sigma, and the
    # near-collinear point where a rule without cuts at the bound lines missed by 3e-4: the probability
    # within 1e-11 of the quadrature, and the outage within 1e-6 of the oracle's tail form, relative
    rng = np.random.Generator(np.random.Philox(21))
    powers = np.logspace(-2.0, 2.0, 5)
    grid = [(p1, p2, rng.uniform(-1.0, 6.0, 3)) for p1 in powers for p2 in powers for _ in range(16)]
    for p1, p2, h in [(10.45119, 0.0205257, (-0.03287, 4.25231, 3.93954)), *grid]:
        sigma = dispersion_matrix_sumshell(PowerPair(p1, p2))
        z = np.array(h) * np.sqrt(np.diag(sigma))
        est = lower_orthant_prob(OrthantQuery(sigma, z), samples=1 << 12, seed=0)
        outage = sumshell_outage(p1, p2, z)
        assert abs(est.value - sumshell_orthant(p1, p2, z)) <= 1e-11, (p1, p2, h)
        assert abs((1.0 - est.value) - outage) <= 1e-6 * outage, (p1, p2, h)
        assert est.std_err == 0.0


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


def test_orthant_of_collinear_leading_coordinates():
    # the two largest variances belong to one direction, X1 = X2, so the second leading coordinate is
    # the one with the largest variance given the first, X3.  The i.i.d. matrix is such a matrix at
    # p1 = 1e30, p2 = 1, where its r1 and r1 + r2 entries all round to 1
    sigma = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.5]])
    for z in ([0.0, 0.0, 0.0], [0.3, -0.2, 0.5], [-1.0, 2.0, -0.4], [2.5, 3.0, 1.5]):
        z = np.array(z)
        est = lower_orthant_prob(OrthantQuery(sigma, z), samples=1 << 12)
        expect = (1.0 - q_scalar(min(z[0], z[1]))) * (1.0 - q_scalar(z[2] / math.sqrt(0.5)))
        assert est.value == pytest.approx(expect, abs=1e-15) and est.std_err == 0.0
    # the ray 10 - t leaves the set where Phi(10 - t) Phi((10 - t) / sqrt(0.5)) = 1 - 1e-3
    from scipy.optimize import brentq
    from scipy.special import ndtr

    root = brentq(lambda t: ndtr(10.0 - t) * ndtr((10.0 - t) / math.sqrt(0.5)) - (1.0 - 1e-3), 5.0, 8.0, xtol=1e-14)
    t = boundary_scale(1e-3, sigma, np.ones(3), np.full(3, 10.0), 0.0, samples=1 << 12)
    assert abs(t - root) <= 1e-9


def test_sumshell_ray_matches_oracle_root():
    # the figure point's diagonal ray, against the root of the quadrature oracle.  The rank-2 rule's own
    # root is the oracle's to 1e-12; the secant returns its last step unevaluated, 2.7e-9 past it here
    from scipy.optimize import brentq

    n, eps, theta = 500, 1e-3, math.pi / 4
    d = np.array([math.cos(theta), math.sin(theta), math.cos(theta) + math.sin(theta)])
    origin = 0.5 * np.log1p([1.0, 1.0, 2.0])
    root = brentq(
        lambda t: sumshell_orthant(1.0, 1.0, math.sqrt(n) * (origin - t * d)) - (1.0 - eps), 0.2, 0.4, xtol=1e-14
    )
    assert root == pytest.approx(0.323254, abs=5e-7)
    integ = _OrthantIntegrator(dispersion_matrix_sumshell(PowerPair(1.0, 1.0)), np.ones(3, dtype=bool), 1 << 12, 0)
    rule_root = brentq(lambda t: integ(math.sqrt(n) * (origin - t * d))[0] - (1.0 - eps), 0.2, 0.4, xtol=1e-14)
    assert abs(rule_root - root) <= 1e-12
    for seed in range(5):
        assert abs(second_order_ray(n, eps, PowerPair(1.0, 1.0), theta, "sumshell", 1 << 12, seed) - root) <= 3e-9


def test_sumshell_flat_segment_is_the_single_user_rate():
    # near the axes only one user's constraint binds, and the sum-shell curve reads that user's
    # point-to-point rate exactly: the rank-2 rule has no error to add to it
    rb = regions.sumshell_hypothetical_boundary(500, 1e-3, PowerPair(1.0, 1.0), 64)
    rate = regions.p2p_second_order_rate(500, 1e-3, 1.0)
    assert abs(rb.points[:, 0].max() - rate) <= 1e-9 and abs(rb.points[:, 1].max() - rate) <= 1e-9
    assert (np.abs(rb.points[:, 0] - rate) <= 1e-9).sum() >= 2


@pytest.mark.parametrize(
    "n, eps, p1_db, p2_db, rays",
    [(500, 1e-3, 0.0, 0.0, 64), (500, 1e-6, 0.0, 0.0, 32), (500, 1e-3, 10.0, 0.0, 32), (10_000, 1e-1, -10.0, -10.0, 32)],
)
def test_sumshell_radii_lie_in_their_theorem_bracket(n, eps, p1_db, p2_db, rays):
    # the figure point and the three sweep points: every sum-shell radius lies within 1e-9 of
    # [union-bound radius, single-constraint radius] (ROADMAP item 12, sum-shell slice)
    pp = PowerPair(10.0 ** (p1_db / 10.0), 10.0 ** (p2_db / 10.0))
    pts = regions.sumshell_hypothetical_boundary(n, eps, pp, rays).points[::-1]  # back to ray order
    thetas, radii = regions.ray_angles(rays), np.hypot(pts[:, 0], pts[:, 1])
    cvec, sigma = regions._quantile_region_setup("sumshell", pp, 0.0)
    inner = regions.union_bound_radius(cvec, np.diag(sigma), n, eps, thetas)
    rates = regions._normal_rate(cvec, np.diag(sigma), n, regions._penalty(eps))
    outer = np.array([regions.pentagon_ray(t, *rates) for t in thetas])
    assert (radii >= inner - 1e-9).all() and (radii <= outer + 1e-9).all()


def test_orthant_rejects_bad_sigma():
    bad = np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.9], [0.0, 0.9, 1.0]])  # indefinite
    with pytest.raises(DomainError):
        OrthantQuery(bad, np.zeros(3))
    with pytest.raises(DomainError):
        OrthantQuery(np.eye(3), np.array([0.0, np.nan, 0.0]))


def test_orthant_requires_min_samples():
    with pytest.raises(DomainError):
        lower_orthant_prob(OrthantQuery(np.eye(3), np.zeros(3)), samples=100)


def test_lattice_is_shared_per_samples_seed_and_rank():
    # the rays of a curve read one cached, read-only lattice; it depends on nothing but the sample
    # count and the seed, and a change of either gets its own.  Only rank 3 builds one
    active = np.ones(3, dtype=bool)
    shell, sumshell = (m(PowerPair(1.0, 1.0)) for m in (dispersion_matrix_shell, dispersion_matrix_sumshell))
    x = _OrthantIntegrator(shell, active, 1 << 12, 5).x
    assert _OrthantIntegrator(np.eye(3), active, 1 << 12, 5).x is x and not x.flags.writeable
    assert _OrthantIntegrator(shell, active, 1 << 12, (5,)).x is x  # the same seed path
    for other in (_OrthantIntegrator(shell, active, 1 << 12, 6).x, _OrthantIntegrator(shell, active, 1 << 13, 5).x):
        assert other.shape != x.shape or not np.array_equal(other, x)
    assert not hasattr(_OrthantIntegrator(sumshell, active, 1 << 12, 5), "x")


@pytest.mark.parametrize("seed", [0, 1])
def test_lattice_shifts_come_from_philox(seed):
    # the lattice fixes every rank-3 quantile-set curve; it is rebuilt here from its own Philox shifts,
    # so a change of the package's Monte Carlo generator cannot move a curve unnoticed
    ss = np.random.SeedSequence(entropy=seed, spawn_key=())
    shifts = np.random.Generator(np.random.Philox(ss)).random((8, 2))
    idx = np.arange(1, 4097, dtype=float)
    x = np.remainder(idx[None, :, None] * np.array([0.7548776662466927, 0.5698402909980532]) + shifts[:, None, :], 1.0)
    assert np.array_equal(_lattice(4096, (seed,)), np.abs(2.0 * x - 1.0))


def test_prob_estimate_invariants():
    with pytest.raises(DomainError):
        ProbEstimate(1.2, 0.0, 10)
    with pytest.raises(DomainError):
        ProbEstimate(0.5, -1.0, 10)


def test_quantile_set_member_examples():
    assert quantile_set_member(0.9, np.eye(3), np.zeros(3), samples=1 << 12, seed=0)
    assert not quantile_set_member(0.5, np.eye(3), np.zeros(3), samples=1 << 12, seed=0)


def test_quantile_membership_monotone():
    sigma = dispersion_matrix_shell(PowerPair(1.0, 1.0))
    z = np.array([0.6, 0.6, 1.1])
    assert quantile_set_member(0.2, sigma, z, samples=1 << 13, seed=0) <= quantile_set_member(
        0.2, sigma, z + 0.5, samples=1 << 13, seed=0
    )


def test_boundary_scale_degenerate_axis():
    # one constrained coordinate: the crossing is 4 - Qinv(eps)
    origin = np.array([4.0, np.inf, np.inf])
    t = boundary_scale(0.5, np.eye(3), np.array([1.0, 0.0, 0.0]), origin, 0.0, samples=1 << 12, seed=0)
    assert abs(t - 4.0) <= 2e-6
    t = boundary_scale(1e-3, np.eye(3), np.array([1.0, 0.0, 0.0]), origin, 0.0, samples=1 << 12, seed=0)
    assert t == pytest.approx(4.0 - 3.090232, abs=5e-6)


def test_boundary_scale_monotone_in_eps():
    sigma = dispersion_matrix_shell(PowerPair(1.0, 1.0))
    d = np.array([1.0, 1.0, 2.0])
    origin = np.array([4.0, 4.0, 8.0])
    ts = [
        boundary_scale(eps, sigma, d, origin, 0.0, samples=1 << 12, seed=1)
        for eps in (0.05, 0.01, 1e-3)
    ]
    assert ts[0] > ts[1] > ts[2]  # smaller eps -> the ray leaves the set sooner


def test_boundary_scale_origin_mode():
    # with an origin far inside, the crossing matches the scalar quantile
    sigma = np.eye(3)
    origin = np.array([10.0, np.inf, np.inf])
    t = boundary_scale(1e-3, sigma, np.array([1.0, 0.0, 0.0]), origin, 0.0, samples=1 << 12, seed=0)
    assert t == pytest.approx(10.0 - 3.090232, abs=5e-6)
    # origin outside the set clamps at zero
    t = boundary_scale(1e-3, sigma, np.array([1.0, 0.0, 0.0]), np.array([-10.0, np.inf, np.inf]), 0.0,
                       samples=1 << 12, seed=0)
    assert t == 0.0


def test_boundary_scale_rejects_bad_direction():
    origin = np.full(3, 10.0)
    with pytest.raises(DomainError):
        boundary_scale(0.1, np.eye(3), np.array([0.0, 0.0, 0.0]), origin, 0.0)
    with pytest.raises(DomainError):
        boundary_scale(0.1, np.eye(3), np.array([1.0, -1.0, 0.0]), origin, 0.0)


def test_boundary_scale_frees_its_integrator():
    # the root finder reaches the ray's integrator through a closure; no reference cycle may keep
    # the lattice alive once the solve returns
    pp = PowerPair(1.0, 1.0)
    sigma = dispersion_matrix_shell(pp)
    d = np.array([1.0, 1.0, 2.0])
    gc.collect()
    gc.disable()
    try:
        boundary_scale(1e-3, sigma, d, np.full(3, 10.0), 0.0, samples=1 << 12, seed=0)
        second_order_ray(500, 1e-3, pp, 0.7, "sumshell")
        left = sum(isinstance(o, _OrthantIntegrator) for o in gc.get_objects())
    finally:
        gc.enable()
    assert left == 0


_INTEGRATE = _OrthantIntegrator.__call__  # unpatched, for re-solving a ray


def _lattice_root(eps, sigma, d, origin, _start, samples, seed, near):
    """scipy's brentq root, at xtol 1e-14, of the probability gap boundary_scale solves, bracketed around ``near``.

    The gap is evaluated on a fresh integrator of the same lattice; the bracket widens from 1e-6 about
    ``near`` until its ends are a member and a non-member (0.0 when the origin is outside).
    """
    from scipy.optimize import brentq

    integ = _OrthantIntegrator(sigma, np.ones(3, dtype=bool), samples, seed)

    def gap(s):
        return _INTEGRATE(integ, origin - s * d)[0] - (1.0 - eps)

    if gap(0.0) < 0.0:
        return 0.0
    width = 1e-6
    while gap(max(near - width, 0.0)) < 0.0 or gap(near + width) >= 0.0:
        width *= 2.0
    return brentq(gap, max(near - width, 0.0), near + width, xtol=1e-14)


def _recorded_solves(monkeypatch):
    """Patch in counters: each boundary_scale call that regions makes is logged as (args, result, evaluations).

    Also returns the list that gets one entry per lattice evaluation, whose length is the total when
    the solves run in several threads and their own counts overlap.
    """
    calls, seen = [], []

    def counted(self, z):
        calls.append(1)
        return _INTEGRATE(self, z)

    def solve(*args):
        before = len(calls)
        t = boundary_scale(*args)
        seen.append((args, t, len(calls) - before))
        return t

    monkeypatch.setattr(_OrthantIntegrator, "__call__", counted)
    monkeypatch.setattr(regions, "boundary_scale", solve)
    return seen, calls


@pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-6])
@pytest.mark.parametrize("kind", ["joint", "iid", "sumshell"])
def test_boundary_scale_matches_scipy_brentq(kind, eps, monkeypatch):
    # the secant stops within 1e-7 nats of the root scipy's brentq finds at xtol 1e-14 on the same
    # lattice function, starting from the union-bound radius
    seen, _ = _recorded_solves(monkeypatch)
    pp = PowerPair(1.0, 2.0)
    delta = resolve_delta("n^-1/4", 500) if kind == "iid" else 0.0
    cvec, sigma = regions._quantile_region_setup(kind, pp, delta)
    thetas = (0.05, 0.6, math.pi / 4, 1.5)
    for theta in thetas:
        second_order_ray(500, eps, pp, theta, kind, 1 << 12, 0, delta)
    assert len(seen) == 4
    for theta, (args, t, _) in zip(thetas, seen):
        assert args[4] == float(regions.union_bound_radius(cvec, np.diag(sigma), 500, eps, theta))
        assert abs(t - _lattice_root(*args, near=t)) <= 1e-7


def test_boundary_scale_finds_roots_past_the_single_constraint_radius(monkeypatch):
    # at the first of 64 rays only user 1's constraint binds, and at seed 7 the lattice puts the
    # joint root 8.5e-6 nats past the single-constraint radius: the solve goes on past it
    seen, _ = _recorded_solves(monkeypatch)
    theta = regions.ray_angles(64)[0]
    t = second_order_ray(500, 1e-3, PowerPair(1.0, 1.0), theta, "joint", 1 << 12, 7)
    (args, _, _), = seen
    outer = regions.p2p_second_order_rate(500, 1e-3, 1.0) / math.cos(theta)
    assert args[4] <= outer < t
    assert abs(t - _lattice_root(*args, near=t)) <= 1e-7
    # a start far below the root: from 0 the outward steps at most double, 0 -> 1 -> 3 -> 7 (past 6.91)
    origin, d = np.array([10.0, np.inf, np.inf]), np.array([1.0, 0.0, 0.0])
    args = (1e-3, np.eye(3), d, origin, 0.0, 1 << 12, 0)
    t = boundary_scale(*args)
    assert t == pytest.approx(10.0 - 3.090232, abs=5e-6)
    assert abs(t - _lattice_root(*args, near=t)) <= 1e-7


def test_boundary_scale_finds_roots_below_the_start():
    # a start above the root steps down to it and solves the same crossing, 4 - Qinv(1e-3)
    origin, d = np.array([4.0, np.inf, np.inf]), np.array([1.0, 0.0, 0.0])
    t = boundary_scale(1e-3, np.eye(3), d, origin, 2.0, samples=1 << 12, seed=0)
    assert t == pytest.approx(4.0 - 3.090232, abs=5e-6)
    sigma = dispersion_matrix_shell(PowerPair(1.0, 1.0))
    args = (1e-3, sigma, np.array([1.0, 1.0, 2.0]), np.array([4.0, 4.0, 8.0]), 2.5, 1 << 12, 0)
    t = boundary_scale(*args)
    assert t < 2.5
    assert abs(t - _lattice_root(*args, near=t)) <= 1e-7
    # an origin outside the set steps down to 0 and returns 0
    assert boundary_scale(1e-3, np.eye(3), d, np.array([-10.0, np.inf, np.inf]), 0.5, 1 << 12, 0) == 0.0


def test_boundary_scale_rejects_bad_start():
    for start in (-0.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            boundary_scale(1e-3, np.eye(3), np.ones(3), np.full(3, 10.0), start)


def test_boundary_scale_gives_up_after_its_step_budget(monkeypatch):
    # the ray never leaves the set (its only moving coordinate is unconstrained), so no non-member is
    # ever seen: the solve raises BracketError (exit 1 in the CLI) after a bounded number of evaluations
    from fbmac.gaussquad import BracketError, _MAX_STEPS

    _, calls = _recorded_solves(monkeypatch)
    origin, d = np.array([np.inf, 10.0, 10.0]), np.array([1.0, 0.0, 0.0])
    with pytest.raises(BracketError):
        boundary_scale(1e-3, np.eye(3), d, origin, 0.0, 1 << 12, 0)
    assert len(calls) == 1 + _MAX_STEPS  # the start, then one evaluation a step


def test_quantile_rays_take_at_most_three_lattice_evaluations(monkeypatch):
    # at the figure point the three quantile curves (their 32 rays up to pi/4 at equal powers) and the
    # three symmetric nesting rays make 99 solves; started at the union-bound radius they average at
    # most 3 evaluations of the orthant probability each (5.33 with the bracket walks and Brent)
    from fbmac.regions import REGIONS, RegionOptions

    seen, calls = _recorded_solves(monkeypatch)
    pp = PowerPair(1.0, 1.0)
    for kind in ("iid", "joint", "sumshell"):
        REGIONS[kind][1](500, 1e-3, pp, RegionOptions(points=64, seed=0))
        second_order_ray(500, 1e-3, pp, math.pi / 4, kind, 1 << 12, 0)
    assert len(seen) == 99
    assert len(calls) / len(seen) <= 3.0


@pytest.mark.parametrize("kind", ["joint", "iid", "sumshell"])
def test_quantile_bracket_is_a_theorem(kind, monkeypatch):
    # the union-bound radius (the three marginal outages add up to eps), where each ray's solve starts, is
    # inside the quantile set, and the single-constraint radius (one marginal outage eps) is not, by the
    # exact orthant probability
    from scipy.stats import multivariate_normal

    seen = []
    monkeypatch.setattr(regions, "boundary_scale", lambda *args: seen.append(args) or 0.0)
    n = 500
    delta = resolve_delta("n^-1/4", n) if kind == "iid" else 0.0
    for p1 in (1.0, 10.0):
        cvec, _ = regions._quantile_region_setup(kind, PowerPair(p1, 1.0), delta)
        for eps in (1e-1, 1e-3, 1e-6):
            # quad runs at epsabs 1e-14, epsrel 1e-12; scipy's quasi-Monte Carlo cdf is asked for eps / 100
            tol = 1e-10 if kind == "sumshell" else 1e-2 * eps
            for theta in regions.ray_angles(8):
                seen.clear()
                second_order_ray(n, eps, PowerPair(p1, 1.0), theta, kind, 1 << 12, 0, delta)
                (_, sigma, d, origin, start, _, _), = seen
                inner = float(regions.union_bound_radius(cvec, np.diag(sigma), n, eps, theta))
                rates = regions._normal_rate(cvec, np.diag(sigma), n, regions._penalty(eps))
                outer = regions.pentagon_ray(theta, *rates)
                assert start == inner
                assert 0.0 < inner <= outer * (1.0 + 1e-12)  # equal up to rounding where one marginal binds
                if kind == "sumshell":
                    at_inner, at_outer = (sumshell_orthant(p1, 1.0, origin - r * d) for r in (inner, outer))
                else:
                    at_inner, at_outer = (
                        multivariate_normal.cdf(origin - r * d, cov=sigma, abseps=tol, releps=0.0, rng=0)
                        for r in (inner, outer)
                    )
                assert at_inner >= 1.0 - eps - tol
                assert at_outer <= 1.0 - eps + tol


def test_quantile_ray_is_zero_where_a_marginal_fails_at_the_origin(monkeypatch):
    # at n=5 the p2p rate is 0, so the single-constraint radius is 0 and no solve is made
    seen, _ = _recorded_solves(monkeypatch)
    assert regions.p2p_second_order_rate(5, 1e-3, 1.0) == 0.0
    for kind in ("joint", "iid", "sumshell"):
        assert second_order_ray(5, 1e-3, PowerPair(1.0, 1.0), 0.8, kind) == 0.0
    assert seen == []


def test_quantile_rays_take_few_evaluations(monkeypatch):
    # the theorem's bracket leaves Brent about 5.5 lattice evaluations per ray at the figure point
    # (a bracket from scale 0 took 14.3 to 15.0); the count is deterministic.  At equal powers a
    # curve solves only its 32 rays up to pi/4 and mirrors the rest
    calls = []
    monkeypatch.setattr(_OrthantIntegrator, "__call__", lambda self, z: calls.append(1) or _INTEGRATE(self, z))
    for name in ("joint", "iid", "sumshell"):
        calls.clear()
        regions.REGIONS[name][1](500, 1e-3, PowerPair(1.0, 1.0), regions.RegionOptions(64, 1 << 12, 0))
        assert len(calls) / 32 <= 7.0, name


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
