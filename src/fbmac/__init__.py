"""Finite-blocklength second-order rate regions for Gaussian channels.

Library layout:

* :mod:`fbmac.core`      -- power pairs, capacity/dispersion formulas.
* :mod:`fbmac.gaussquad` -- Gaussian tails and the trivariate orthant probability.
* :mod:`fbmac.regions`   -- rate-region boundaries (joint outage, splitting,
  i.i.d. Gaussian, error exponent, TDMA, outer bounds).
* :mod:`fbmac.shellmc`   -- power-shell sampling, information densities, and
  the Monte Carlo verification suite.
* :mod:`fbmac.simlink`   -- random-coding link simulator and bound estimators.
* :mod:`fbmac.cli`       -- the ``fbmac`` command.
"""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    DomainError,
    PowerPair,
    capacity,
    capacity_vector,
    db_to_linear,
    dispersion,
    dispersion_matrix_iid,
    dispersion_matrix_shell,
    dispersion_matrix_sumshell,
    nats_to_bits,
)
