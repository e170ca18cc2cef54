"""Size of convex polytopes measured against arbitrary convex gauge bodies.

Circumradius, inradius, diameter, and minimum width all reduce to linear
programming over vertex representations; the library also ships the
supporting toolbox (support/width/gauge/radius/chord functionals, polar
sets, Minkowski algebra, 2D hulls) and a verifier for the inequality chain
linking the diameter representations.
"""

from .bodies import BodySpec, BodySpecError, make_body
from .convex_core import (
    DimensionMismatchError,
    HPolytope,
    LowerDimensionalError,
    VPolytope,
    difference_body,
    difference_hull,
    facets_2d,
    hull_2d,
    member,
    minkowski_sum,
    transform,
)
from .functionals import (
    FunctionalValue,
    GaugeBody,
    GaugeError,
    gauge,
    max_chord,
    polar,
    radius_fn,
    support,
    supporting_hyperplane_distance,
    width_fn,
)
from .lp_solver import LinearProgram, LpOutcome, solve
from .radii import (
    ChainReport,
    RadiiResult,
    circumradius,
    diameter,
    induced_norm,
    inradius,
    interior_point,
    min_width,
    radii_report,
    symmetric_circumradius,
    verify_chain,
)

__version__ = "0.1.0"

__all__ = [
    "BodySpec",
    "BodySpecError",
    "ChainReport",
    "DimensionMismatchError",
    "FunctionalValue",
    "GaugeBody",
    "GaugeError",
    "HPolytope",
    "LinearProgram",
    "LowerDimensionalError",
    "LpOutcome",
    "RadiiResult",
    "VPolytope",
    "circumradius",
    "diameter",
    "difference_body",
    "difference_hull",
    "facets_2d",
    "gauge",
    "hull_2d",
    "induced_norm",
    "inradius",
    "interior_point",
    "make_body",
    "max_chord",
    "member",
    "min_width",
    "minkowski_sum",
    "polar",
    "radii_report",
    "radius_fn",
    "solve",
    "support",
    "supporting_hyperplane_distance",
    "symmetric_circumradius",
    "transform",
    "verify_chain",
    "width_fn",
]
