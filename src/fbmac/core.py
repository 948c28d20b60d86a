"""Domain types and closed-form capacity/dispersion formulas.

Conventions
-----------
Everything internal is in nats (natural logarithms, ``log e = 1``): rates in
nats per channel use, dispersions in nats^2 per channel use.  SNRs are linear
and dimensionless; dB enters only at the CLI boundary via :func:`db_to_linear`.

The two-user Gaussian MAC with unit noise variance and powers ``(P1, P2)`` is
summarized to second order by the capacity vector

    C = (C(P1), C(P2), C(P1 + P2)),      C(P) = ln(1 + P) / 2,

and a 3x3 dispersion matrix whose flavor depends on the input ensemble:

* ``shell``        -- independent uniform inputs on the two power shells;
  the (3,3) entry carries an extra term from the variance of <X1, X2>.
* ``iid-gaussian`` -- independent i.i.d. Gaussian inputs.
* ``sum-shell``    -- hypothetical ensemble whose superposition lands on the
  sum-power shell; equals ``shell`` with the inner-product term removed,
  which makes the matrix rank 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

LN2 = math.log(2.0)

#: relative eigenvalue tolerance when checking positive semidefiniteness
PSD_TOL = 1e-12


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


def _require_finite_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be finite and > 0, got {value!r}")
    return value


@dataclass(frozen=True)
class PowerPair:
    """Linear SNRs of the two users."""

    p1: float
    p2: float

    def __post_init__(self) -> None:
        _require_finite_positive("p1", self.p1)
        _require_finite_positive("p2", self.p2)

    @property
    def p_sum(self) -> float:
        return self.p1 + self.p2


@dataclass(frozen=True)
class SecondOrderParams:
    """Operating point: blocklength and target average error probability."""

    n: int
    eps: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.n) or int(self.n) != self.n or self.n < 1:
            raise DomainError(f"n must be a positive integer, got {self.n!r}")
        if not (0.0 < self.eps < 1.0):
            raise DomainError(f"eps must lie in (0, 1), got {self.eps!r}")


@dataclass(frozen=True)
class CapacityVector:
    """Per-user and sum capacities in nats per channel use."""

    c1: float
    c2: float
    c3: float

    def __post_init__(self) -> None:
        slack = 1e-12 * max(1.0, abs(self.c3))
        if self.c1 < 0 or self.c2 < 0:
            raise DomainError("capacities must be nonnegative")
        if self.c3 < max(self.c1, self.c2) - slack or self.c3 > self.c1 + self.c2 + slack:
            raise DomainError("sum capacity must lie in [max(c1,c2), c1+c2]")

    def as_array(self) -> np.ndarray:
        return np.array([self.c1, self.c2, self.c3], dtype=float)


class DispersionKind(Enum):
    SHELL = "shell"
    IID_GAUSSIAN = "iid-gaussian"
    SUM_SHELL = "sum-shell"


@dataclass(frozen=True, eq=False)
class DispersionMatrix:
    """Symmetric PSD 3x3 second-order covariance, nats^2 per channel use."""

    entries: np.ndarray
    kind: DispersionKind

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=float)
        if m.shape != (3, 3):
            raise DomainError(f"dispersion matrix must be 3x3, got shape {m.shape}")
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-12):
            raise DomainError("dispersion matrix must be symmetric")
        floor = -PSD_TOL * max(1.0, float(np.trace(m)))
        if np.linalg.eigvalsh(m).min() < floor:
            raise DomainError("dispersion matrix must be positive semidefinite")
        object.__setattr__(self, "entries", m)


def capacity(p: float) -> float:
    """Gaussian point-to-point capacity ln(1+p)/2 in nats per use."""
    p = float(p)
    if not math.isfinite(p) or p < 0.0:
        raise DomainError(f"SNR must be finite and >= 0, got {p!r}")
    return 0.5 * math.log1p(p)


def dispersion(p: float) -> float:
    """Gaussian point-to-point dispersion p(p+2)/(2(1+p)^2) in nats^2 per use."""
    p = float(p)
    if not math.isfinite(p) or p < 0.0:
        raise DomainError(f"SNR must be finite and >= 0, got {p!r}")
    if math.isfinite((1.0 + p) * (1.0 + p)):
        return 0.5 * p * (p + 2.0) / (1.0 + p) ** 2
    return 0.5 * (p / (1.0 + p)) * ((p + 2.0) / (1.0 + p))  # past p ~ 1.3e154, where (1 + p)^2 overflows


def capacity_vector(pp: PowerPair) -> CapacityVector:
    return CapacityVector(capacity(pp.p1), capacity(pp.p2), capacity(pp.p_sum))


def _cross_dispersion(p1: float, p2: float) -> float:
    return 0.5 * p1 * p2 / ((1.0 + p1) * (1.0 + p2))


def _user_sum_dispersion(pu: float, ps: float) -> float:
    return 0.5 * pu * (2.0 + ps) / ((1.0 + pu) * (1.0 + ps))


def inner_product_dispersion(pp: PowerPair) -> float:
    """Variance term contributed by <X1, X2> to the sum information density."""
    ps = pp.p_sum
    return pp.p1 * pp.p2 / (1.0 + ps) ** 2


def dispersion_matrix_shell(pp: PowerPair) -> DispersionMatrix:
    """Dispersion matrix for independent power-shell inputs."""
    p1, p2, ps = pp.p1, pp.p2, pp.p_sum
    v12 = _cross_dispersion(p1, p2)
    v13 = _user_sum_dispersion(p1, ps)
    v23 = _user_sum_dispersion(p2, ps)
    m = np.array(
        [
            [dispersion(p1), v12, v13],
            [v12, dispersion(p2), v23],
            [v13, v23, dispersion(ps) + inner_product_dispersion(pp)],
        ]
    )
    return DispersionMatrix(m, DispersionKind.SHELL)


def dispersion_matrix_sumshell(pp: PowerPair) -> DispersionMatrix:
    """Rank-2 dispersion matrix of the hypothetical sum-power-shell ensemble."""
    m = dispersion_matrix_shell(pp).entries.copy()
    m[2, 2] = dispersion(pp.p_sum)
    return DispersionMatrix(m, DispersionKind.SUM_SHELL)


def dispersion_matrix_iid(pp: PowerPair) -> DispersionMatrix:
    """Dispersion matrix for independent i.i.d. Gaussian inputs."""
    p1, p2, ps = pp.p1, pp.p2, pp.p_sum
    m = np.array(
        [
            [
                p1 / (1.0 + p1),
                p1 * p2 / (2.0 * (1.0 + p1) * (1.0 + p2)),
                p1 * (2.0 + 2.0 * p1 + p2) / (2.0 * (1.0 + p1) * (1.0 + ps)),
            ],
            [
                p1 * p2 / (2.0 * (1.0 + p1) * (1.0 + p2)),
                p2 / (1.0 + p2),
                p2 * (2.0 + p1 + 2.0 * p2) / (2.0 * (1.0 + p2) * (1.0 + ps)),
            ],
            [
                p1 * (2.0 + 2.0 * p1 + p2) / (2.0 * (1.0 + p1) * (1.0 + ps)),
                p2 * (2.0 + p1 + 2.0 * p2) / (2.0 * (1.0 + p2) * (1.0 + ps)),
                ps / (1.0 + ps),
            ],
        ]
    )
    return DispersionMatrix(m, DispersionKind.IID_GAUSSIAN)


def nats_to_bits(x: float) -> float:
    return float(x) / LN2


def db_to_linear(db: float) -> float:
    """dB -> linear SNR; used once at the CLI boundary."""
    try:
        return 10.0 ** (float(db) / 10.0)
    except OverflowError:
        raise DomainError(f"{db} dB is beyond the float range as a linear SNR") from None
