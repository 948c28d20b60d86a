import functools
import gc
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from fbmac.core import (
    DomainError,
    PowerPair,
    capacity,
    capacity_vector,
    db_to_linear,
    dispersion,
    dispersion_matrix_shell,
    nats_to_bits,
)
from fbmac import regions
from fbmac.gaussquad import q_inv_scalar, quantile_set_member
from fbmac.regions import (
    REGIONS,
    GallagerParams,
    RegionBoundary,
    RegionOptions,
    _tdma_radius,
    _tdma_shares,
    conjectured_sum_outer_boundary,
    cover_wyner_pentagon,
    gallager_boundary,
    gallager_individual_exponent,
    gallager_ray,
    gallager_sum_exponent,
    iid_gaussian_boundary,
    joint_outage_boundary,
    outage_splitting_boundary,
    p2p_second_order_rate,
    pentagon_ray,
    ray_angles,
    resolve_delta,
    second_order_ray,
    splitting_ray,
    su_outer_box,
    sumshell_hypothetical_boundary,
    tdma_boundary,
    tdma_ray,
    union_bound_radius,
)
from oracles import (
    gallager_individual_exponent_mp,
    gallager_radius_mp,
    gallager_sum_exponent_mp,
    q_tail_inv,
    shell_setup,
    splitting_grid_radius,
    tdma_grid_radius,
    union_bound_root,
)

PP = PowerPair(1.0, 1.0)
FIG1 = dict(n=500, eps=1e-3)
#: (n, eps, p1 dB, p2 dB) of the figure point and of the three benchmark sweep points
OPERATING_POINTS = [(500, 1e-3, 0.0, 0.0), (500, 1e-6, 0.0, 0.0), (500, 1e-3, 10.0, 0.0), (10_000, 1e-1, -10.0, -10.0)]


# ---------------------------------------------------------------------------
# point-to-point rate
# ---------------------------------------------------------------------------


def test_p2p_rate_oracle_pipeline():
    # independent pipeline: mpmath bisection quantile and explicit formulas
    n, eps, p = 500, 1e-3, 1.0
    c = float(mp.log(2) / 2)
    v = 0.375
    expect = c - math.sqrt(v / n) * q_tail_inv(eps)
    got = p2p_second_order_rate(n, eps, p)
    assert got == pytest.approx(expect, abs=1e-9)
    assert nats_to_bits(got) == pytest.approx(0.377905, abs=5e-7)


def test_p2p_rate_zero_penalty_at_half():
    assert p2p_second_order_rate(500, 0.5, 2.0) == pytest.approx(capacity(2.0), abs=1e-12)


def test_p2p_rate_approaches_capacity():
    assert p2p_second_order_rate(10**12, 1e-3, 1.0) == pytest.approx(capacity(1.0), abs=1e-5)


def test_p2p_rate_clamps_at_zero():
    assert p2p_second_order_rate(2, 1e-9, 0.01) == 0.0


# ---------------------------------------------------------------------------
# trivariate quantile-set regions
# ---------------------------------------------------------------------------


def test_joint_region_contains_pentagon_corner_at_large_eps():
    # eps -> 1 expands the region past the asymptotic corner
    cv = capacity_vector(PP)
    corner = np.array([cv[2] / 2.0, cv[2] / 2.0, cv[2]])
    z = math.sqrt(500) * (cv - corner)
    sigma = dispersion_matrix_shell(PP)
    assert quantile_set_member(0.999, sigma, z, samples=1 << 13, seed=0)
    assert not quantile_set_member(1e-3, sigma, z, samples=1 << 13, seed=0)


def test_joint_region_axis_limit():
    theta = ray_angles(512)[0]  # nearly along the r1 axis
    r = second_order_ray(theta=theta, pp=PP, kind="joint", samples=1 << 13, seed=0, **FIG1)
    r1 = r * math.cos(theta)
    assert r1 <= p2p_second_order_rate(FIG1["n"], FIG1["eps"], PP.p1) + 2e-3


def test_joint_symmetric_between_iid_and_sumshell():
    theta = math.pi / 4
    # holds at the reproduced-figure parameters and at a second design point
    for n, eps, pp in ((500, 1e-3, PP), (200, 0.05, PowerPair(4.0, 4.0))):
        r_joint = second_order_ray(n, eps, pp, theta, "joint", 1 << 13, 0)
        r_iid = second_order_ray(n, eps, pp, theta, "iid", 1 << 13, 0)
        r_ss = second_order_ray(n, eps, pp, theta, "sumshell", 1 << 13, 0)
        assert r_iid < r_joint < r_ss


def test_boundaries_monotone_and_nonnegative():
    for rb in (
        joint_outage_boundary(num_points=32, samples=1 << 11, seed=0, pp=PP, **FIG1),
        iid_gaussian_boundary(num_points=16, samples=1 << 11, seed=0, pp=PP, **FIG1),
        sumshell_hypothetical_boundary(num_points=16, samples=1 << 11, seed=0, pp=PP, **FIG1),
        outage_splitting_boundary(pp=PP, num_points=32, **FIG1),
        tdma_boundary(pp=PP, **FIG1),
        su_outer_box(pp=PP, **FIG1),
        conjectured_sum_outer_boundary(pp=PP, **FIG1),
        cover_wyner_pentagon(PP),
        gallager_boundary(GallagerParams(1.0, 500, 1e-3), PP, 32),
    ):
        pts = rb.points
        assert (pts >= 0.0).all()
        assert (np.diff(pts[:, 0]) >= -1e-12).all()
        assert (np.diff(pts[:, 1]) <= 1e-12).all()
    assert sumshell_hypothetical_boundary(
        num_points=16, samples=1 << 11, seed=0, pp=PP, **FIG1
    ).params["conjectured_outer"]


def test_asymmetric_power_orderings():
    # the containment chain holds off the symmetric point too
    pp = PowerPair(2.0, 0.5)
    n, eps = 400, 1e-2
    for theta in ray_angles(8):
        kw = dict(n=n, eps=eps, pp=pp, theta=theta, samples=1 << 12, seed=11)
        r_iid = second_order_ray(kind="iid", **kw)
        r_joint = second_order_ray(kind="joint", **kw)
        r_ss = second_order_ray(kind="sumshell", **kw)
        r_split = splitting_ray(n, eps, pp, theta)
        assert r_iid <= r_joint + 1e-4
        assert r_split <= r_joint + 1e-4
        assert r_joint <= r_ss + 1e-4
    rb = joint_outage_boundary(n, eps, pp, num_points=24, samples=1 << 11, seed=11)
    assert rb.points.shape == (24, 2)


def test_joint_converges_to_pentagon():
    n = 10**8
    cv = capacity_vector(PP)
    for theta in ray_angles(8):
        r = second_order_ray(n, 1e-3, PP, theta, "joint", samples=1 << 12, seed=1)
        assert abs(r - pentagon_ray(theta, *cv)) < 1e-3


def test_doubling_eps_enlarges_regions():
    for theta in ray_angles(8):
        a = second_order_ray(500, 1e-3, PP, theta, "joint", samples=1 << 12, seed=2)
        b = second_order_ray(500, 2e-3, PP, theta, "joint", samples=1 << 12, seed=2)
        assert b >= a - 1e-6
        assert splitting_ray(500, 2e-3, PP, theta) >= splitting_ray(500, 1e-3, PP, theta) - 1e-12


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("boundary", [joint_outage_boundary, sumshell_hypothetical_boundary])
def test_quantile_boundary_memory_bounded(boundary, threads, monkeypatch):
    # with the cyclic collector off, each ray's lattice must still be freed on return
    monkeypatch.setenv("FBMAC_THREADS", threads)
    boundary(500, 1e-3, PP, 8)  # lazy imports are not the boundary's memory
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        rb = boundary(500, 1e-3, PP, 64)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert rb.points.shape == (64, 2)
    assert kept < 1 << 20
    assert peak < 8 << 20


CURVED = ("joint", "iid", "sumshell", "splitting", "gallager", "tdma")

#: the single-ray view of each curved kind, ray(n, eps, pp, theta, the curve's params)
SINGLE_RAY = {
    kind: lambda n, eps, pp, th, prm, kind=kind: second_order_ray(
        n, eps, pp, th, kind, prm["samples"], prm["seed"], prm.get("delta", 0.0)
    )
    for kind in ("joint", "iid", "sumshell")
} | {
    "splitting": lambda n, eps, pp, th, prm: splitting_ray(n, eps, pp, th),
    "gallager": lambda n, eps, pp, th, prm: gallager_ray(GallagerParams(prm["a"], n, eps), pp, th),
    "tdma": lambda n, eps, pp, th, prm: tdma_ray(n, eps, pp, th),
}


@pytest.mark.parametrize("kind", CURVED)
def test_curve_rays_are_second_order_rays(kind, monkeypatch):
    # a curve solves each ray as its single-ray view does, as the figure1 symmetric nesting rays do at the
    # run's seed: same setup, start and root, whichever other rays share the batch.  Before each Newton
    # root was frozen on its own, the splitting, Gallager and TDMA views missed their curves' radii by up
    # to an ulp.  At these unequal powers every ray is solved; at equal powers the rays above pi/4 would be
    # mirrored instead.  The radii are compared before the monotone repair, which moves flat segments
    curve, radii = regions._curve, []
    monkeypatch.setattr(regions, "_curve", lambda kind, params, num, f, **kw: curve(
        kind, params, num, lambda thetas: radii.append(f(thetas)) or radii[-1], **kw))
    n, eps, pp = 500, 1e-3, PowerPair(2.0, 1.0)
    for num_points in (8, 64):
        radii.clear()
        rb = REGIONS[kind][1](n, eps, pp, RegionOptions(points=num_points, seed=3, delta_rule="n^-1/4"))
        single = [SINGLE_RAY[kind](n, eps, pp, th, rb.params) for th in ray_angles(num_points)]
        assert radii[0].tolist() == single, num_points


@pytest.mark.parametrize("num_points", [63, 64])
def test_equal_power_curves_are_mirror_symmetric(num_points):
    # swapping equal-power users maps the ray at theta to the one at pi/2 - theta, and the point
    # (r1, r2) to (r2, r1): every curved kind ships exactly symmetric
    for kind in CURVED:
        rb = REGIONS[kind][1](500, 1e-3, PP, RegionOptions(points=num_points, seed=0))
        assert rb.points.shape == (num_points, 2), kind
        assert np.array_equal(rb.points, rb.points[::-1, ::-1]), kind


@pytest.mark.parametrize("num_points", [8, 9])
def test_equal_powers_solve_the_rays_up_to_pi_over_4(num_points, monkeypatch):
    calls = []
    solve = regions.boundary_scale
    monkeypatch.setattr(regions, "boundary_scale", lambda *a: calls.append(1) or solve(*a))
    for name in ("_splitting_radius", "_gallager_radii", "_tdma_radii"):  # the batched ray maps: count their rays
        radii = getattr(regions, name)
        monkeypatch.setattr(regions, name, lambda *a, radii=radii: calls.extend(a[-1]) or radii(*a))
    for kind in CURVED:
        for pp, solved in ((PP, (num_points + 1) // 2), (PowerPair(2.0, 1.0), num_points)):
            calls.clear()
            REGIONS[kind][1](500, 1e-3, pp, RegionOptions(points=num_points, seed=0))
            assert len(calls) == solved, (kind, pp)


def test_equal_power_curves_stay_near_the_union_bound_radius():
    # every shipped radius is inside the quantile set's theorem bracket, up to the lattice error: at the
    # figure point the rays below pi/4 fall at most 1.05e-4 (joint) and 1.17e-4 nats (iid) short of the
    # union-bound radius; solving the rays above pi/4 too let them fall 2.30e-4 and 3.13e-4 short
    thetas = ray_angles(64)
    for kind in ("joint", "iid"):
        rb = REGIONS[kind][1](500, 1e-3, PP, RegionOptions(points=64, seed=0))
        cvec, sigma = regions._quantile_region_setup(kind, PP, 0.0)
        u = union_bound_radius(cvec, np.diag(sigma), 500, 1e-3, thetas)
        assert (u - np.hypot(*rb.points[::-1].T)).max() <= 1.5e-4, kind


# ---------------------------------------------------------------------------
# outage splitting
# ---------------------------------------------------------------------------


def test_splitting_equal_weights_constraints():
    n, eps = 500, 1e-3
    v_sum = dispersion_matrix_shell(PP)[2, 2]
    assert v_sum == pytest.approx(0.555556, abs=5e-7)
    b3 = capacity(2.0) - math.sqrt(v_sum / n) * q_inv_scalar(eps / 3.0)
    # the equal-split sum constraint is attained by the union over the weight simplex
    r_sym = splitting_ray(n, eps, PP, math.pi / 4)
    assert r_sym * math.sqrt(2.0) >= b3 - 1e-12


def test_splitting_contained_in_joint():
    rb = outage_splitting_boundary(pp=PP, num_points=20, **FIG1)
    sigma = dispersion_matrix_shell(PP)
    cv = capacity_vector(PP)
    for r1, r2 in rb.points:
        z = math.sqrt(FIG1["n"]) * (cv - np.array([r1, r2, r1 + r2]) + 2e-3)
        assert quantile_set_member(FIG1["eps"], sigma, z, samples=1 << 13, seed=3)


@pytest.mark.xfail(
    strict=True,
    reason="the QMC lattice misses the eps=1e-9 tail by about 1.6e-3 nats; "
    "ROADMAP item 2 (deterministic outage in tail form) mends it",
)
def test_joint_contains_splitting_at_eps_1e9():
    theta = math.pi / 4
    assert second_order_ray(500, 1e-9, PP, theta, "joint") >= splitting_ray(500, 1e-9, PP, theta)


def test_splitting_resolution_validation():
    # no weight grid is sampled: the old resolution argument is accepted and ignored, so neither a
    # coarse nor a huge value changes the curve; the ray count and (n, eps) are still checked
    curve = outage_splitting_boundary(500, 1e-3, PP, num_points=16).points
    for resolution in (2, 64, 20_000):
        assert np.array_equal(outage_splitting_boundary(500, 1e-3, PP, resolution, 16).points, curve)
    with pytest.raises(DomainError):
        outage_splitting_boundary(500, 1e-3, PP, num_points=4)
    with pytest.raises(DomainError):
        outage_splitting_boundary(500, 0.0, PP)


@pytest.mark.parametrize("p1_db", [0.0, 10.0])
@pytest.mark.parametrize("n, eps", [(500, 1e-1), (500, 1e-3), (500, 1e-9), (500, 0.9), (5, 1e-3), (20, 1e-2)])
def test_union_bound_radius_matches_mpmath_root(n, eps, p1_db):
    # eps = 0.9 reaches the cap min_i C_i/d_i on some rays; at n = 5 one marginal alone fails at the
    # origin, and at n = 20, eps = 1e-2, 0/0 dB each is within eps there but their sum is not (radius 0)
    cvec, sigma = shell_setup(db_to_linear(p1_db), 1.0)
    thetas = ray_angles(8)
    ref = np.array([union_bound_root(n, eps, cvec, np.diag(sigma), t) for t in thetas])
    u = union_bound_radius(cvec, np.diag(sigma), n, eps, thetas)
    assert np.abs(u - ref).max() <= 1e-12
    assert (u[ref == 0.0] == 0.0).all()  # an origin outside gives exactly 0, not a bisected remainder
    # the splitting curve is this root on the library's own shell setup
    rb = outage_splitting_boundary(n, eps, PowerPair(db_to_linear(p1_db), 1.0), num_points=8)
    assert np.abs(np.hypot(*rb.points[::-1].T) - ref).max() <= 1e-12


@pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-6])
def test_union_bound_radius_bounds_every_split_pentagon(eps):
    # the exact union over the weight simplex contains every pentagon of a dense weight grid
    for p1 in (1.0, 10.0):
        cvec, sigma = shell_setup(p1, 1.0)
        thetas = ray_angles(16)
        grid = np.array([splitting_grid_radius(500, eps, cvec, np.diag(sigma), t, 400) for t in thetas])
        assert (union_bound_radius(cvec, np.diag(sigma), 500, eps, thetas) >= grid - 1e-12).all()


def test_joint_outage_at_union_bound_radius_is_at_most_eps():
    # Bonferroni: where the three marginal outages add up to eps, the joint outage is at most eps
    from scipy.stats import multivariate_normal

    n, eps = FIG1["n"], FIG1["eps"]
    cvec, sigma = shell_setup(1.0, 1.0)
    thetas = ray_angles(8)
    for theta, r in zip(thetas, union_bound_radius(cvec, np.diag(sigma), n, eps, thetas)):
        d = np.array([math.cos(theta), math.sin(theta), math.cos(theta) + math.sin(theta)])
        inside = multivariate_normal.cdf(math.sqrt(n) * (cvec - r * d), cov=sigma, abseps=1e-10, releps=0.0, rng=0)
        assert 1.0 - inside <= eps + 1e-10


def test_splitting_penalty_clamped_at_half():
    # split budgets past 1/2 earn no rate bonus: the union stays inside the
    # capacity pentagon even at large target error
    rb = outage_splitting_boundary(500, 0.9, PP, num_points=16)
    assert (rb.points[:, 0] + rb.points[:, 1]).max() <= capacity(2.0) + 1e-9
    assert rb.points[:, 0].max() <= capacity(1.0) + 1e-9


# ---------------------------------------------------------------------------
# i.i.d. Gaussian region
# ---------------------------------------------------------------------------


def test_resolve_delta():
    assert resolve_delta("zero", 500) == 0.0
    assert resolve_delta("n^-1/4", 500) == pytest.approx(0.2114743, abs=1e-6)
    assert resolve_delta(0.3, 500) == 0.3
    with pytest.raises(DomainError):
        resolve_delta(1.5, 500)


def test_iid_axis_penalty_larger_than_shell():
    # variance 0.5 vs 0.375 on the first coordinate means a larger axis penalty
    theta = ray_angles(256)[0]
    r_iid = second_order_ray(theta=theta, pp=PP, kind="iid", samples=1 << 12, seed=4, **FIG1)
    r_shell = second_order_ray(theta=theta, pp=PP, kind="joint", samples=1 << 12, seed=4, **FIG1)
    assert r_iid < r_shell


def test_iid_backoff_shrinks_region():
    for theta in ray_angles(8):
        full = second_order_ray(theta=theta, pp=PP, kind="iid", samples=1 << 12, seed=5, **FIG1)
        backed = second_order_ray(
            theta=theta, pp=PP, kind="iid", samples=1 << 12, seed=5, delta=500**-0.25, **FIG1
        )
        assert backed < full


def test_iid_rejects_delta_at_one():
    with pytest.raises(DomainError):
        iid_gaussian_boundary(500, 1e-3, PP, delta_rule=1.0, num_points=8)
    with pytest.raises(DomainError):
        second_order_ray(500, 1e-3, PP, 0.5, "iid", delta=1.0)


# ---------------------------------------------------------------------------
# error-exponent region
# ---------------------------------------------------------------------------


def test_individual_exponent_vanishes_at_capacity():
    for p in (0.1, 1.0, 10.0):
        val = gallager_individual_exponent(capacity(p), p)
        assert abs(val.value) < 1e-9
        above = gallager_individual_exponent(capacity(p) + 0.1, p)
        assert above.value == 0.0 and above.slope == 0.0


@pytest.mark.parametrize("p", [0.1, 1.0, 10.0, 1e3])
@pytest.mark.parametrize("exponent", [gallager_individual_exponent, gallager_sum_exponent])
def test_exponent_slopes_match_central_differences(exponent, p):
    # rates on both branches: the tangent line below the switch rate and the curve above it
    cap = capacity(p)
    rates = np.linspace(0.02, 0.98, 25) * cap
    h = 1e-6 * cap
    fd = (exponent(rates + h, p).value - exponent(rates - h, p).value) / (2.0 * h)
    slope = exponent(rates, p).slope
    assert (slope == -1.0).any() and (slope > -1.0).any()
    assert np.allclose(slope, fd, rtol=1e-6, atol=0.0)
    # the value and slope broadcast: one rate at a time gives the same numbers
    assert all(exponent(float(r), p) == (v, g) for r, v, g in zip(rates, *exponent(rates, p)))


@pytest.mark.parametrize("p1_db, p2_db", [(0.0, 0.0), (10.0, 0.0), (-10.0, 20.0)])
def test_gallager_log_budget_slope_matches_central_differences(p1_db, p2_db):
    pp = PowerPair(db_to_linear(p1_db), db_to_linear(p2_db))
    thetas = ray_angles(16)
    cap = pentagon_ray(thetas, capacity(pp.p1), capacity(pp.p2), capacity(pp.p_sum))
    d = cap * np.stack([np.cos(thetas), np.sin(thetas), np.cos(thetas) + np.sin(thetas)])
    excess = regions._gallager_excess(GallagerParams(1.0, 500, 1e-3), pp, d)  # at the rates t d
    for share in (0.1, 0.5, 0.9):
        fd = (excess(share + 1e-7)[0] - excess(share - 1e-7)[0]) / 2e-7
        assert np.allclose(excess(share)[1], fd, rtol=1e-6, atol=0.0)


#: (a, n, eps, p1 dB, p2 dB): the figure point, the three benchmark sweep points, criterion 9's n,
#: high and extreme SNRs, a large n at low SNR, and prefactors small enough that the pentagon caps rays
GALLAGER_POINTS = [
    (1.0, 500, 1e-3, 0.0, 0.0),
    (1.0, 500, 1e-6, 0.0, 0.0),
    (1.0, 500, 1e-3, 10.0, 0.0),
    (1.0, 10_000, 1e-1, -10.0, -10.0),
    (1.0, 10**5, 1e-3, 0.0, 0.0),
    (1.0, 500, 1e-3, 50.0, 50.0),
    (1.0, 500, 1e-3, 300.0, 0.0),
    (1.0, 10**9, 1e-3, -50.0, -50.0),
    (1e-12, 500, 1e-3, 0.0, 0.0),
    (1e-6, 500, 1e-3, 0.0, 0.0),
]


@pytest.mark.parametrize("a, n, eps, p1_db, p2_db", GALLAGER_POINTS)
def test_gallager_radius_matches_mpmath_oracle(a, n, eps, p1_db, p2_db):
    pp = PowerPair(db_to_linear(p1_db), db_to_linear(p2_db))
    thetas = np.array([0.2, math.pi / 4, 1.3])
    radii = regions._gallager_radii(GallagerParams(a, n, eps), pp, thetas)
    for theta, r in zip(thetas, radii):
        exact = gallager_radius_mp(a, n, eps, pp.p1, pp.p2, float(theta))
        tol = max(1e-9 * exact, 1e-14)
        assert abs(r - exact) <= tol, (theta, r, exact)
        assert abs(gallager_ray(GallagerParams(a, n, eps), pp, float(theta)) - exact) <= tol


@pytest.mark.parametrize(
    "exponent, exponent_mp, p, gaps",
    [
        (gallager_sum_exponent, gallager_sum_exponent_mp, 1e103, (1e-3, 1e-1, 1.0)),
        (gallager_sum_exponent, gallager_sum_exponent_mp, 1e110, (1e-3, 1e-1, 1.0)),
        (gallager_sum_exponent, gallager_sum_exponent_mp, 1e150, (1e-3, 1e-1, 1.0)),
        (gallager_sum_exponent, gallager_sum_exponent_mp, 1.87e154, (1e-3, 1e-1, 1.0)),  # two users near 9.5e153
        (gallager_individual_exponent, gallager_individual_exponent_mp, 8e153, (1e-6, 1e-3, 1e-1)),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gallager_exponents_match_mpmath_at_extreme_powers(exponent, exponent_mp, p, gaps):
    # products of order p^2 and p^3 overflowed here: the sum exponent read 0 at 1e103 and 1.87e154 and NaN
    # at 1e110, the individual one 1e-6 at 8e153 where 1e-12 is due; the textbook forms cancel 2 log10 p digits
    cap = 0.5 * math.log1p(p)
    with mp.workdps(100 + 2 * math.ceil(math.log10(p))):
        for gap in gaps:
            ref = exponent_mp(cap - gap, p)
            assert 0.0 < ref and float(abs(exponent(cap - gap, p).value - ref) / ref) <= 1e-9, gap


@pytest.mark.parametrize("a", [1e-6, 1e-12])
def test_gallager_curve_stays_inside_the_pentagon(a):
    # above capacity every exponent is 0, so with a small prefactor the budget meets eps past the
    # pentagon: there the radius is the pentagon radius, never more
    thetas = ray_angles(64)
    rb = gallager_boundary(GallagerParams(a, 500, 1e-3), PP, 64)
    radii = np.hypot(*rb.points[::-1].T)
    cv = capacity_vector(PP)
    pentagon = pentagon_ray(thetas, *cv)
    assert (radii <= pentagon * (1.0 + 1e-12)).all()
    assert np.isclose(radii, pentagon, rtol=1e-12, atol=0.0).any()


def test_individual_exponent_zero_rate_value():
    # independent high-precision evaluation of the tangent-line constant
    p = 1.0
    s_c = (2.0 + p + math.sqrt(4.0 + p * p)) / 4.0
    r_c = 0.5 * math.log(s_c)
    with mp.workdps(40):
        s = mp.mpf(s_c)
        alpha = (p * (s - 1) / 2) * (mp.sqrt(1 + 4 * s / (p * (s - 1))) - 1)
        e_high_rc = (p - alpha) / (2 * s) + mp.log(s - alpha) / 2
        expect = float(e_high_rc + mp.mpf(r_c))
    assert gallager_individual_exponent(0.0, p).value == pytest.approx(expect, abs=1e-12)


def test_individual_exponent_branch_continuity():
    for p in (0.1, 0.5, 1.0, 2.0, 10.0, 100.0):
        r_c = 0.5 * math.log((2.0 + p + math.sqrt(4.0 + p * p)) / 4.0)
        below = gallager_individual_exponent(r_c - 1e-9, p).value
        above = gallager_individual_exponent(r_c + 1e-9, p).value
        assert abs(below - above) < 1e-8


def test_sum_exponent_vanishes_at_capacity():
    for ps in (0.5, 2.0, 20.0):
        assert abs(gallager_sum_exponent(capacity(ps), ps).value) < 1e-9


def test_sum_exponent_branch_continuity():
    for ps in (0.5, 1.0, 2.0, 4.0, 10.0, 50.0):
        s_c = 0.5 * (1.0 + ps / 4.0 + math.sqrt(1.0 + ps / 2.0 + ps * ps / 4.0))
        r_c = 0.5 * math.log(s_c)
        below = gallager_sum_exponent(r_c - 1e-9, ps).value
        above = gallager_sum_exponent(r_c + 1e-9, ps).value
        assert abs(below - above) < 1e-6


def test_sum_exponent_monotone():
    for ps in (2.0, 10.0):
        grid = np.linspace(0.0, capacity(ps), 1000)
        vals = [gallager_sum_exponent(float(r), ps).value for r in grid]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_gallager_region_shrinks_with_larger_a():
    gp1 = GallagerParams(1.0, 500, 1e-3)
    gp2 = GallagerParams(2.0, 500, 1e-3)
    for theta in ray_angles(8):
        assert gallager_ray(gp2, PP, theta) <= gallager_ray(gp1, PP, theta) + 1e-9


def test_gallager_inside_joint_region():
    theta = math.pi / 4
    r_gal = gallager_ray(GallagerParams(1.0, 500, 1e-3), PP, theta)
    r_joint = second_order_ray(theta=theta, pp=PP, kind="joint", samples=1 << 13, seed=6, **FIG1)
    assert r_gal < r_joint


def test_gallager_converges_to_pentagon_at_1e6():
    # the criterion-size gap at n = 1e5 is ~1.2e-2; 5e-3 needs n ~ 1e6
    gp = GallagerParams(1.0, 10**6, 1e-3)
    cv = capacity_vector(PP)
    for theta in np.linspace(0.1, math.pi / 2 - 0.1, 5):
        gap = pentagon_ray(theta, *cv) - gallager_ray(gp, PP, float(theta))
        assert 0.0 < gap < 5e-3


def test_gallager_empty_region():
    gp = GallagerParams(1.0, 10, 1e-9)
    rb = gallager_boundary(gp, PP, 16)
    assert rb.empty and rb.points.shape == (0, 2)
    assert gallager_ray(gp, PP, 0.5) == 0.0


def test_gallager_params_validation():
    with pytest.raises(DomainError):
        GallagerParams(0.0, 500, 1e-3)
    with pytest.raises(DomainError):
        GallagerParams(1.0, 500, 2.0)


# ---------------------------------------------------------------------------
# TDMA
# ---------------------------------------------------------------------------


def test_tdma_full_share_recovers_single_user():
    # user 1 sends all but a share 1e-6 of the block on a ray 1e-9 off the r1 axis.  At n = 1e6 that
    # share still carries user 2's tiny rate with an outage near Q(9.8), about 1e-22, so user 1 spends
    # the whole budget eps and radius cos(theta) is the point-to-point rate at level eps
    n, eps, theta = 10**6, 1e-3, 1e-9
    r = _tdma_radius(n, eps, PP, 1.0 - 1e-6, np.array(math.cos(theta)), np.array(math.sin(theta)))
    assert r * math.cos(theta) == pytest.approx(p2p_second_order_rate(n, eps, 1.0), rel=1e-6)


def test_tdma_symmetric_point():
    # at share 1/2 and equal powers each user has capacity C(2)/2 and dispersion V(2)/2, and on the
    # ray pi/4 both users bind at one error level: Phi(z)^2 = 1 - eps
    n, eps = 500, 1e-3
    level = -math.expm1(0.5 * math.log1p(-eps))  # 1 - sqrt(1 - eps)
    expect = (0.5 * capacity(2.0) - math.sqrt(0.5 * dispersion(2.0) / n) * q_inv_scalar(level)) * math.sqrt(2.0)
    c = np.array(math.cos(math.pi / 4))
    assert _tdma_radius(n, eps, PP, 0.5, c, c) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize(
    # the last point has near-axis rays where the user on the short side of the ray has an outage far
    # below the smallest double; the product root keeps its log Phi, where an error level held as a
    # double would underflow to 0 and zero the radius at some time shares
    "n, eps, p1_db, p2_db", [*OPERATING_POINTS, (10_000, 1e-1, 0.0, 0.0)]
)
def test_tdma_rays_reach_the_dense_grid(n, eps, p1_db, p2_db):
    pp = PowerPair(db_to_linear(p1_db), db_to_linear(p2_db))
    thetas = ray_angles(256)
    radii = np.hypot(*tdma_boundary(n, eps, pp).points[::-1].T)
    assert (radii >= tdma_grid_radius(n, eps, pp.p1, pp.p2, thetas) - 1e-10).all()
    # the golden-section search assumes the radius rises, then falls in the time share: at 1000
    # shares, each solved exactly as the product root, no ray rises again once it has fallen (beyond
    # 1e-12 nats)
    shares = (np.arange(1000) + 0.5) / 1000
    r = _tdma_radius(n, eps, pp, shares[:, None], np.cos(thetas), np.sin(thetas))
    step = np.diff(r, axis=0)
    fallen = np.cumsum(step < -1e-12, axis=0) > 0
    assert not (fallen & (step > 1e-12)).any()


@pytest.mark.parametrize("n, eps, p1_db, p2_db", OPERATING_POINTS)
def test_tdma_radius_is_the_product_root(n, eps, p1_db, p2_db):
    # every radius strictly inside (0, cap) solves Phi(z1) Phi(z2) = 1 - eps, checked in 30 digits
    pp = PowerPair(db_to_linear(p1_db), db_to_linear(p2_db))
    shares, thetas = (np.arange(32) + 0.5)[:, None] / 32, ray_angles(64)
    c, s = np.cos(thetas), np.sin(thetas)
    r = _tdma_radius(n, eps, pp, shares, c, s)
    (cap1, k1), (cap2, k2) = _tdma_shares(n, pp, shares)
    inside = (r > 0.0) & (r < np.minimum(cap1 / c, cap2 / s))
    assert inside.sum() > r.size // 2
    with mp.workdps(30):
        for i, j in zip(*np.nonzero(inside)):
            z1 = (mp.mpf(cap1[i, 0]) - mp.mpf(r[i, j]) * mp.mpf(c[j])) / mp.mpf(k1[i, 0])
            z2 = (mp.mpf(cap2[i, 0]) - mp.mpf(r[i, j]) * mp.mpf(s[j])) / mp.mpf(k2[i, 0])
            assert abs(mp.ncdf(z1) * mp.ncdf(z2) - (1 - mp.mpf(eps))) <= 1e-12 * (1 - eps)


def test_tdma_settles_the_splits_without_a_balance(monkeypatch):
    # at n = 5 one user has no rate even with the whole error budget, so every radius is 0: the
    # product roots start and stop at the origin, with fewer evaluations than at the figure point
    calls = []
    newton = regions._newton_roots
    monkeypatch.setattr(
        regions, "_newton_roots", lambda f, *a: newton(lambda x: calls.append(1) or f(x), *a)
    )
    counts = []
    for n in (500, 5):
        calls.clear()
        rb = tdma_boundary(n, 1e-3, PP)
        counts.append(len(calls))
    assert (rb.points == 0.0).all()
    assert counts[1] <= counts[0]


def test_newton_roots_breaks_the_two_cycle_of_a_convex_then_concave_map():
    # linear (slope 1) up to 0.5, concave past it: from the line every Newton step lands on 1.0, and from
    # 1.0 on 0.5, so the steps cycled between the bracket ends until the step cap; the log Gallager budget
    # does this at 10/0 dB, where a 256-ray curve then failed its monotone check
    def f(x):
        y = x - 0.5
        return np.where(y <= 0.0, x - 1.0, -0.5 + 4.0 * y - 2.0 * y * y), np.where(y <= 0.0, 1.0, 4.0 - 4.0 * y)

    root = regions._newton_roots(f, 0.0, 2.0, np.array([0.25]))
    assert root[0] == pytest.approx(1.5 - math.sqrt(3.0) / 2.0, abs=1e-14)
    rb = gallager_boundary(GallagerParams(1.0, 500, 1e-3), PowerPair(10.0, 1.0), 256)
    assert rb.points.shape == (256, 2)


def test_newton_roots_solve_each_element_on_its_own(monkeypatch):
    # every root of a batched solve is the root of its element solved alone, on the batch's own maps: the
    # union-bound excess over 256 angles at three eps, and a Gallager and a TDMA point.  The solve kept
    # stepping every element until all had converged, which moved a root by up to an ulp with its batch
    calls, newton = [], regions._newton_roots
    monkeypatch.setattr(regions, "_newton_roots", lambda *a: calls.append(a) or newton(*a))
    n, pp, thetas = 500, PowerPair(2.0, 1.0), ray_angles(256)
    cvec, sigma = regions._quantile_region_setup("joint", pp, 0.0)
    for eps in (1e-1, 1e-3, 1e-9):
        union_bound_radius(cvec, np.diag(sigma), n, eps, thetas)
    regions._gallager_radii(GallagerParams(1.0, n, 1e-3), pp, thetas)
    _tdma_radius(n, 1e-3, pp, 0.3, np.cos(thetas), np.sin(thetas))
    assert len(calls) == 5
    for f, lo, hi, x in calls:
        roots = newton(f, lo, hi, x)
        lo, hi, x = (np.broadcast_to(v, roots.shape) for v in (lo, hi, x))

        def alone(xi, i):
            """Element i of f, the others held at their starts: f is elementwise, so they do not matter."""
            value, slope = f(np.concatenate([x[:i], xi, x[i + 1 :]]))
            return value[i : i + 1], slope[i : i + 1]

        single = [newton(functools.partial(alone, i=i), lo[i], hi[i], x[i : i + 1])[0] for i in range(roots.size)]
        assert roots.tolist() == single


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tdma_curve_holds_up_to_the_power_limit():
    # q (q + 2) / (1 + q)^2 overflowed for a user silent outside a small share from about 1500 dB, and from
    # about 1530 dB the NaN scales steered the curve away (the largest r2 read 0.238389 at 1540 dB); user 2's
    # largest rate rises with user 1's power toward its single-user rate and never past it
    single = p2p_second_order_rate(500, 1e-3, 1.0)
    tops = [
        tdma_boundary(500, 1e-3, PowerPair(db_to_linear(db), 1.0), 32).points[:, 1].max()
        for db in (1300, 1400, 1495, 1500, 1510, 1520, 1530, 1535, 1540, 1541)
    ]
    assert np.all(np.diff(tops) >= 0.0) and tops[-1] <= single and tops[-1] - tops[0] < 1e-6, tops


def test_tdma_below_joint_sum_rate():
    rb = tdma_boundary(pp=PP, **FIG1)
    best_sum = float((rb.points[:, 0] + rb.points[:, 1]).max())
    r_joint = second_order_ray(theta=math.pi / 4, pp=PP, kind="joint", samples=1 << 13, seed=7, **FIG1)
    assert best_sum < r_joint * math.sqrt(2.0)
    # the ray view agrees with the envelope view at the symmetric angle
    assert tdma_ray(theta=math.pi / 4, pp=PP, **FIG1) * math.sqrt(2.0) == pytest.approx(
        best_sum, rel=0.02
    )


# ---------------------------------------------------------------------------
# outer boxes, pentagons, serialization units
# ---------------------------------------------------------------------------


def test_su_outer_box_values():
    rb = su_outer_box(pp=PP, **FIG1)
    edge = nats_to_bits(p2p_second_order_rate(FIG1["n"], FIG1["eps"], 1.0))
    assert edge == pytest.approx(0.377905, abs=5e-7)
    assert rb.points.shape == (3, 2)
    assert rb.in_units("bits").points[1, 0] == pytest.approx(edge, rel=1e-12)


def test_su_outer_box_half_eps_is_capacity_box():
    rb = su_outer_box(500, 0.5, PP)
    assert rb.points[1, 0] == pytest.approx(capacity(1.0), abs=1e-12)


def test_achievable_regions_inside_su_box():
    b1 = p2p_second_order_rate(FIG1["n"], FIG1["eps"], PP.p1)
    b2 = p2p_second_order_rate(FIG1["n"], FIG1["eps"], PP.p2)
    for rb in (
        joint_outage_boundary(num_points=16, samples=1 << 12, seed=8, pp=PP, **FIG1),
        outage_splitting_boundary(pp=PP, num_points=16, **FIG1),
        tdma_boundary(pp=PP, **FIG1),
    ):
        assert (rb.points[:, 0] <= b1 + 2e-3).all()
        assert (rb.points[:, 1] <= b2 + 2e-3).all()


def test_conjectured_outer_is_pentagon_shaped():
    rb = conjectured_sum_outer_boundary(pp=PP, **FIG1)
    assert rb.params["conjecture"] is True
    sums = rb.points[:, 0] + rb.points[:, 1]
    bs = capacity(2.0) - math.sqrt(dispersion(2.0) / 500) * q_inv_scalar(1e-3)
    assert sums.max() == pytest.approx(bs, rel=1e-9)


def test_cover_wyner_pentagon_corners():
    rb = cover_wyner_pentagon(PP)
    assert rb.points[:, 0].max() == pytest.approx(capacity(1.0), rel=1e-12)
    assert (rb.points[:, 0] + rb.points[:, 1]).max() == pytest.approx(capacity(2.0), rel=1e-12)


def test_curved_kinds_ship_one_row_per_ray():
    # only the polygon kinds keep their corners; an envelope of grid points would ship more rows
    for kind, (_, build) in REGIONS.items():
        rows = build(500, 1e-3, PP, RegionOptions(points=16)).points.shape[0]
        if kind in ("su-outer", "conjectured-sum-outer", "pentagon"):
            assert rows <= 4, kind
        else:
            assert rows == 16, kind


def test_region_boundary_validation():
    with pytest.raises(DomainError):
        RegionBoundary("joint", {}, np.array([[0.0, 1.0], [1.0, 2.0]]))  # r2 increases
    with pytest.raises(DomainError):
        RegionBoundary("nonsense", {}, np.array([[0.0, 1.0]]))
    with pytest.raises(DomainError):
        RegionBoundary("joint", {}, np.array([[-0.5, 1.0]]))
    empty = RegionBoundary("gallager", {}, np.empty((0, 2)), empty=True)
    assert empty.points.shape == (0, 2)


def test_units_round_trip():
    rb = su_outer_box(pp=PP, **FIG1)
    back = rb.in_units("bits").in_units("nats")
    assert np.allclose(back.points, rb.points, rtol=1e-15)
    with pytest.raises(DomainError):
        rb.in_units("furlongs")
