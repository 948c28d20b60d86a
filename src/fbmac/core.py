"""Power pairs, domain checks and the closed-form capacity/dispersion formulas.

Conventions
-----------
Everything internal is in nats (natural logarithms, ``log e = 1``): rates in
nats per channel use, dispersions in nats^2 per channel use.  SNRs are linear
and dimensionless; dB enters only at the CLI boundary via :func:`db_to_linear`.

The two-user Gaussian MAC with unit noise variance and powers ``(P1, P2)`` is
summarized to second order by the capacity vector, a length-3 array,

    C = (C(P1), C(P2), C(P1 + P2)),      C(P) = ln(1 + P) / 2,

and a 3x3 dispersion matrix, a plain symmetric PSD array, whose flavor
depends on the input ensemble:

* ``shell``        -- independent uniform inputs on the two power shells;
  the (3,3) entry carries an extra term from the variance of <X1, X2>.
* ``iid-gaussian`` -- independent i.i.d. Gaussian inputs.
* ``sum-shell``    -- hypothetical ensemble whose superposition lands on the
  sum-power shell; equals ``shell`` with the inner-product term removed,
  which makes the matrix rank 2.

The matrix builders refuse powers whose products overflow (from about 1e154)
with a :class:`DomainError` that names them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)


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


def _require_operating_point(n, eps) -> None:
    """Refuse a blocklength that is not a positive integer or an error probability outside (0, 1)."""
    if not math.isfinite(n) or int(n) != n or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if not (0.0 < eps < 1.0):
        raise DomainError(f"eps must lie in (0, 1), got {eps!r}")


def _require_square_finite(name: str, p: float) -> None:
    """Refuse a power whose (1 + p)^2 overflows (p above about 1.34e154), where the closed forms break."""
    if not math.isfinite((1.0 + p) * (1.0 + p)):
        raise DomainError(f"{name} = {p!r} is too large: (1 + {name})^2 overflows")


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


def capacity_vector(pp: PowerPair) -> np.ndarray:
    """(C(p1), C(p2), C(p1 + p2)) in nats per use."""
    return np.array([capacity(pp.p1), capacity(pp.p2), capacity(pp.p_sum)])


def _user_sum_dispersion(pu: float, ps: float) -> float:
    return 0.5 * pu * (2.0 + ps) / ((1.0 + pu) * (1.0 + ps))


def inner_product_dispersion(pp: PowerPair) -> float:
    """Variance term contributed by <X1, X2> to the sum information density."""
    ps = pp.p_sum
    _require_square_finite("p1 + p2", ps)  # every other product of the shell matrix is below (1 + ps)^2
    return pp.p1 * pp.p2 / (1.0 + ps) ** 2


def dispersion_matrix_shell(pp: PowerPair) -> np.ndarray:
    """Dispersion matrix for independent power-shell inputs."""
    p1, p2, ps = pp.p1, pp.p2, pp.p_sum
    v33 = dispersion(ps) + inner_product_dispersion(pp)
    v12 = 0.5 * p1 * p2 / ((1.0 + p1) * (1.0 + p2))
    v13, v23 = _user_sum_dispersion(p1, ps), _user_sum_dispersion(p2, ps)
    return np.array([[dispersion(p1), v12, v13], [v12, dispersion(p2), v23], [v13, v23, v33]])


def dispersion_matrix_sumshell(pp: PowerPair) -> np.ndarray:
    """Rank-2 dispersion matrix of the hypothetical sum-power-shell ensemble."""
    m = dispersion_matrix_shell(pp)
    m[2, 2] = dispersion(pp.p_sum)
    return m


def dispersion_matrix_iid(pp: PowerPair) -> np.ndarray:
    """Dispersion matrix for independent i.i.d. Gaussian inputs."""
    p1, p2, ps = pp.p1, pp.p2, pp.p_sum
    d1, d2 = 2.0 * (1.0 + p1) * (1.0 + ps), 2.0 * (1.0 + p2) * (1.0 + ps)  # the largest products
    if not math.isfinite(max(d1, d2)):
        raise DomainError(f"p1 = {p1!r}, p2 = {p2!r} are too large: 2 (1 + p) (1 + p1 + p2) overflows")
    v12 = p1 * p2 / (2.0 * (1.0 + p1) * (1.0 + p2))
    v13, v23 = p1 * (2.0 + 2.0 * p1 + p2) / d1, p2 * (2.0 + p1 + 2.0 * p2) / d2
    return np.array([[p1 / (1.0 + p1), v12, v13], [v12, p2 / (1.0 + p2), v23], [v13, v23, ps / (1.0 + ps)]])


def nats_to_bits(x: float) -> float:
    return float(x) / LN2


def db_to_linear(db: float) -> float:
    """dB -> linear SNR; used once at the CLI boundary."""
    try:
        return 10.0 ** (float(db) / 10.0)
    except OverflowError:
        raise DomainError(f"{db} dB is beyond the float range as a linear SNR") from None
