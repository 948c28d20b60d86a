import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fbmac.core import (
    DomainError,
    PowerPair,
    _require_operating_point,
    capacity,
    capacity_vector,
    db_to_linear,
    dispersion,
    dispersion_matrix_iid,
    dispersion_matrix_shell,
    dispersion_matrix_sumshell,
    nats_to_bits,
)
from fbmac.regions import GallagerParams
from fbmac.simlink import CodebookSpec, default_thresholds
from oracles import direct_densities

POWER_GRID = [0.01, 0.1, 1.0, 10.0, 100.0]
#: powers from 1e-300 to 1e153 in steps of 6 decades, all below the overflow the matrix builders refuse
#: (from about p1 + p2 = 6.7e153 for the i.i.d. matrix at equal powers, 1.34e154 for the shell one)
EXTREME_GRID = np.logspace(-300, 153, 76)


def test_capacity_values():
    assert capacity(0.0) == 0.0
    assert capacity(1.0) == pytest.approx(0.5 * math.log(2.0), abs=1e-15)
    # high-precision ln oracle
    assert capacity(2.0) == pytest.approx(float(mp.log(3) / 2), abs=1e-14)
    assert capacity(2.0) == pytest.approx(0.549306, abs=5e-7)


def test_capacity_domain():
    with pytest.raises(DomainError):
        capacity(-0.5)
    with pytest.raises(DomainError):
        capacity(float("nan"))
    with pytest.raises(DomainError):
        capacity(float("inf"))


def test_dispersion_values():
    assert dispersion(0.0) == 0.0
    assert dispersion(1.0) == 0.375
    assert abs(dispersion(1e6) - 0.5) < 1e-5
    with pytest.raises(DomainError):
        dispersion(-1.0)


def test_dispersion_where_its_square_overflows():
    # past p ~ 1.3e154, where (1 + p)^2 overflows, the dispersion stays finite and tends to 1/2
    assert dispersion(1e160) == pytest.approx(0.5, rel=1e-15)
    assert dispersion(1e300) == pytest.approx(0.5, rel=1e-15)


def test_dispersion_monte_carlo_oracle():
    # variance of the single-draw density / n, direct shell construction
    n, trials = 100, 1_000_000
    it = direct_densities(n, (1.0,), trials, seed=20)[0]
    assert it.var(ddof=1) / n == pytest.approx(dispersion(1.0), rel=0.01)


def test_capacity_and_dispersion_monotone():
    grid = np.logspace(-3, 3, 61)
    caps = [capacity(p) for p in grid]
    disps = [dispersion(p) for p in grid]
    assert all(a < b for a, b in zip(caps, caps[1:]))
    assert all(a < b for a, b in zip(disps, disps[1:]))


def test_capacity_vector_values():
    c1, c2, c3 = capacity_vector(PowerPair(1.0, 1.0))
    assert c1 == pytest.approx(0.346574, abs=5e-7)
    assert c2 == c1
    assert c3 == pytest.approx(0.549306, abs=5e-7)
    cv13 = capacity_vector(PowerPair(1.0, 3.0))
    assert cv13.shape == (3,)
    assert cv13[2] == pytest.approx(float(mp.log(5) / 2), abs=1e-14)
    assert cv13[2] == pytest.approx(0.804719, abs=5e-7)


def test_capacity_vector_inequalities():
    # c3 in [max(c1, c2), c1 + c2], within 1e-12 max(1, c3)
    for p1 in EXTREME_GRID:
        for p2 in EXTREME_GRID:
            c1, c2, c3 = capacity_vector(PowerPair(p1, p2))
            slack = 1e-12 * max(1.0, c3)
            assert min(c1, c2) >= 0.0
            assert max(c1, c2) - slack <= c3 <= c1 + c2 + slack


def test_power_pair_invariants():
    with pytest.raises(DomainError):
        PowerPair(0.0, 1.0)
    with pytest.raises(DomainError):
        PowerPair(1.0, -2.0)
    with pytest.raises(DomainError):
        PowerPair(1.0, float("inf"))


def test_second_order_params_invariants():
    _require_operating_point(1, 0.5)
    with pytest.raises(DomainError):
        _require_operating_point(0, 0.5)
    with pytest.raises(DomainError):
        _require_operating_point(100, 0.0)
    with pytest.raises(DomainError):
        _require_operating_point(100, 1.0)


def _positive_slots(v):
    """Every domain check with ``v`` put in one slot that takes a finite positive number."""
    spec = CodebookSpec(n=10, m1=4, m2=4, p1=1.0, p2=1.0)
    return {
        "PowerPair.p1": lambda: PowerPair(v, 1.0),
        "PowerPair.p2": lambda: PowerPair(1.0, v),
        "operating_point.n": lambda: _require_operating_point(v, 1e-3),
        "operating_point.eps": lambda: _require_operating_point(500, v),
        "CodebookSpec.p1": lambda: CodebookSpec(n=10, m1=4, p1=v),
        "CodebookSpec.p2": lambda: CodebookSpec(n=10, m1=4, m2=4, p1=1.0, p2=v),
        "GallagerParams.a": lambda: GallagerParams(v, 500, 1e-3),
        "GallagerParams.eps": lambda: GallagerParams(1.0, 500, v),
        "default_thresholds.k1": lambda: default_thresholds(spec, v, 1.0, 1.0),
        "default_thresholds.k2": lambda: default_thresholds(spec, 1.0, v, 1.0),
        "default_thresholds.k3": lambda: default_thresholds(spec, 1.0, 1.0, v),
    }


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True))
@example(math.nan)
@example(math.inf)
@example(-math.inf)
@example(0.0)
@example(-0.0)
@example(-1.0)
@example(1e308)
def test_domain_checks_refuse_nonfinite_and_nonpositive(v):
    for name, build in _positive_slots(v).items():
        if not math.isfinite(v) or v <= 0.0:
            with pytest.raises(DomainError):
                build()
            continue
        try:  # a finite positive value may still be out of domain (n = 0.5, eps = 2), never another error
            build()
        except DomainError:
            pass


def test_shell_matrix_values():
    m = dispersion_matrix_shell(PowerPair(1.0, 1.0))
    assert m[0, 1] == pytest.approx(0.125, abs=1e-15)
    assert m[0, 2] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert m[1, 2] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert m[0, 0] == 0.375
    assert m[2, 2] == pytest.approx(4.0 / 9.0 + 1.0 / 9.0, abs=1e-15)


def test_shell_matrix_degenerates_to_p2p():
    m = dispersion_matrix_shell(PowerPair(1.0, 1e-12))
    assert abs(m[0, 1]) < 1e-12
    assert abs(m[2, 2] - dispersion(1.0)) < 1e-11


def test_all_matrix_kinds_symmetric_psd():
    # finite, exactly symmetric, and no eigenvalue below -1e-12 max(1, trace)
    for p1 in EXTREME_GRID:
        for p2 in EXTREME_GRID:
            pp = PowerPair(p1, p2)
            for m in (dispersion_matrix_shell(pp), dispersion_matrix_iid(pp), dispersion_matrix_sumshell(pp)):
                assert m.shape == (3, 3) and np.isfinite(m).all()
                assert np.array_equal(m, m.T)
                assert np.linalg.eigvalsh(m).min() >= -1e-12 * max(1.0, np.trace(m))


def test_matrix_builders_refuse_powers_whose_products_overflow():
    # every builder refuses where (1 + p1 + p2)^2 overflows; the i.i.d. one already where its denominators
    # 2 (1 + p)(1 + p1 + p2) overflow, which at 1538.6 dB each zeroed two entries of a finite matrix
    for pp in (PowerPair(1.4e154, 1.0), PowerPair(1.0, 1e160), PowerPair(1e300, 1e300)):
        for build in (dispersion_matrix_shell, dispersion_matrix_sumshell, dispersion_matrix_iid):
            with pytest.raises(DomainError, match="too large"):
                build(pp)
    with pytest.raises(DomainError, match="too large"):
        dispersion_matrix_iid(PowerPair(7.25e153, 7.25e153))


def test_iid_matrix_values():
    m = dispersion_matrix_iid(PowerPair(1.0, 1.0))
    assert m[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert m[2, 2] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_iid_matrix_user_swap_symmetry():
    perm = np.array([1, 0, 2])
    for p1, p2 in [(0.3, 2.0), (1.0, 10.0), (5.0, 0.2)]:
        a = dispersion_matrix_iid(PowerPair(p1, p2))
        b = dispersion_matrix_iid(PowerPair(p2, p1))
        assert np.allclose(a, b[np.ix_(perm, perm)], atol=1e-15)


def test_iid_matrix_monte_carlo_oracle():
    # i.i.d. Gaussian inputs, information densities from explicit vectors
    rng = np.random.Generator(np.random.Philox(7))
    n, trials = 300, 30_000
    p1 = p2 = 1.0
    ps = p1 + p2
    x1 = rng.standard_normal((trials, n)) * math.sqrt(p1)
    x2 = rng.standard_normal((trials, n)) * math.sqrt(p2)
    z = rng.standard_normal((trials, n))
    zsq = np.einsum("ij,ij->i", z, z)
    i1 = n * capacity(p1) + (
        np.einsum("ij,ij->i", x1, x1) - n * p1 + p1 * (n - zsq) + 2 * np.einsum("ij,ij->i", x1, z)
    ) / (2 * (1 + p1))
    i3 = n * capacity(ps) + (
        np.einsum("ij,ij->i", x1 + x2, x1 + x2) - n * ps + ps * (n - zsq)
        + 2 * np.einsum("ij,ij->i", x1 + x2, z)
    ) / (2 * (1 + ps))
    m = dispersion_matrix_iid(PowerPair(p1, p2))
    assert i1.var(ddof=1) / n == pytest.approx(m[0, 0], rel=0.05)
    assert i3.var(ddof=1) / n == pytest.approx(m[2, 2], rel=0.05)


def test_sumshell_matrix():
    pp = PowerPair(1.0, 1.0)
    m = dispersion_matrix_sumshell(pp)
    assert m[2, 2] == pytest.approx(4.0 / 9.0, abs=1e-15)
    diff = dispersion_matrix_shell(pp) - m
    expect = np.zeros((3, 3))
    expect[2, 2] = 1.0 / 9.0
    assert np.allclose(diff, expect, atol=1e-15)
    assert np.linalg.eigvalsh(m).min() < 1e-10  # rank 2


def test_shell_minus_sumshell_positive_everywhere():
    for p1 in POWER_GRID:
        for p2 in POWER_GRID:
            pp = PowerPair(p1, p2)
            d = dispersion_matrix_shell(pp) - dispersion_matrix_sumshell(pp)
            assert d[2, 2] > 0
            d[2, 2] = 0.0
            assert np.allclose(d, 0.0, atol=0)


def test_nats_bits_conversions():
    assert nats_to_bits(math.log(2.0)) == pytest.approx(1.0, abs=1e-15)
    assert nats_to_bits(0.0) == 0.0
    for x in [1e-9, 0.3, 17.0]:
        assert nats_to_bits(x * math.log(2.0)) == pytest.approx(x, rel=1e-15)


def test_db_conversion():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
