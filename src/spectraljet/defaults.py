"""The defaults every settings command writes into its config, and the error
of a capped spectral sum.

``asymptotics`` imports TIME_GRID and TOLERANCES, and ``manifolds`` the
policy defaults and TruncationError, so each name is still importable
from there.  They live here so that the CLI can build its default config
and map TruncationError to exit code 2 without loading those layers,
which ``lattice``, ``wick`` and ``report`` never run.
"""
from __future__ import annotations

from types import MappingProxyType

#: The default heat-time grid, keyed like the config's ``t_grid``.
TIME_GRID = MappingProxyType({"start": 0.1, "ratio": 0.5, "count": 7})

#: Default tolerance of each verify, curvature and lattice check that has a
#: config key, keyed and ordered as the ``tolerances`` object of the CLI config.
TOLERANCES = MappingProxyType({
    "flat_jet_abs": 1e-6,
    "fit_rel": 0.01,
    "scalar_rel": 0.02,
    "scalar_flat_abs": 1e-6,
    "isometry_c1_rel": 0.05,
    "isometry_flat_abs": 1e-8,
    "mean_curvature_rel": 0.02,
    "umbilical_rel": 0.03,
    "umbilical_zero_abs": 0.05,
    "curvature_rel": 0.05,
    "curvature_flat_abs": 1e-6,
    # bounds a fitted Riemann entry whose target is 0 on a curved model, as a
    # fraction of max |R| of the model (the key predates the entry checks)
    "residual_rel": 1e-3,
    # float slack of the lattice triangle inequality d_ac <= d_ab + d_bc
    "triangle_slack": 1e-12,
})

#: Defaults of the ``TruncationPolicy`` fields that the config's ``policy``
#: object sets; a hard_cap of None takes the model's default.
POLICY = MappingProxyType({"epsilon": 1e-14, "rho": 0.5, "hard_cap": None})


class TruncationError(RuntimeError):
    """Raised when a spectral sum hits its hard cap before the tail bound."""
