"""spectraljet: Wick constants, heat-kernel embedding jets, and the induced
angle metric on the multi-index lattice Z_+^n.

The package verifies, at desk scale, that the normalized diagonal jets of the
heat kernel of closed-spectrum manifolds converge to universal signed-pairing
constants, and exercises the geometry those constants induce: isometry
defects, mean curvature, the asymptotic Gauss formula for the Riemann tensor,
and the angle metric on Z_+^n.
"""

import importlib

__version__ = "0.1.0"

# The public names of each layer, re-exported here.  A name is imported from
# its layer on first access (PEP 562), so that ``import spectraljet`` loads
# no layer and each command loads only the layers it runs.
_EXPORTS = {
    "multiindex": (
        "MultiIndex", "PairProfile", "empty", "enumerate_multiindices",
        "from_indices", "pair_profile", "parse", "symmetric_difference_size",
    ),
    "wick": ("WickA", "WickB", "double_factorial", "wick_a", "wick_b"),
    "oracles": (
        "GraphCount", "b_stabilization_scan", "check_inductive_relations",
        "enumerate_admissible_graphs", "gaussian_moment_oracle",
    ),
    "lattice": (
        "AngleDistance", "angle_distance", "distance_comparison_check",
        "is_orthogonal", "run_triple_suite", "sample_multiindex",
    ),
    "jets": (
        "SQRT_COS", "SQRT_SINC", "SQUARED_GEODESIC", "compose_univariate",
        "extract_mixed_partial",
    ),
    "manifolds": (
        "Circle", "FlatTorus", "Sphere", "TruncationError", "TruncationPolicy",
        "curvature_symmetry_residuals", "jet_gram", "make_model",
        "mean_curvature_proxy", "pullback_metric", "ricci_scalar_extract",
        "squared_distance_jets", "squared_distance_target",
        "third_jet_umbilical",
    ),
    "asymptotics": (
        "LimitFit", "curvature_suite", "curvature_suites", "isometry_suite",
        "jet_relation_suite", "limit_fit", "mean_curvature_suite",
        "normalization_factor", "scalar_ricci_suite", "scalar_suite",
        "time_grid", "umbilical_suite",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = list(_LAYER_OF)


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAYER_OF})
