"""Generators for reference bodies used in tests, demos, and the CLI.

Curved bodies (discs, the Reuleaux triangle) are sampled inscribed: every
generated point lies on the true boundary, so polygonal approximations grow
monotonically into the exact body with support error s*(1 - cos(pi/n)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .convex_core import VPolytope

SQRT3 = math.sqrt(3.0)

# Equilateral triangle with circumradius 2, centroid at the origin.  Its
# vertices double as the arc centers of the Reuleaux triangle of width 2*sqrt(3).
TRIANGLE_CORNERS = np.array([[2.0, 0.0], [-1.0, SQRT3], [-1.0, -SQRT3]])

# Arc angular ranges (degrees) opposite each corner, in corner order.
_ARC_RANGES = ((150.0, 210.0), (270.0, 330.0), (30.0, 90.0))

KINDS = (
    "cube",
    "cross_polytope",
    "simplex",
    "segment",
    "regular_ngon",
    "reuleaux_triangle",
    "equilateral_triangle",
    "centered_square",
)
_PLANAR_KINDS = {"regular_ngon", "reuleaux_triangle", "equilateral_triangle", "centered_square"}
_CURVED_KINDS = {"regular_ngon", "reuleaux_triangle"}


class BodySpecError(ValueError):
    """Invalid body-kind / parameter combination."""


@dataclass(frozen=True)
class BodySpec:
    kind: str
    dim: int | None = None
    n: int | None = None
    scale: float = 1.0


def make_body(spec: BodySpec) -> VPolytope:
    """Build the requested body as a vertex polytope.

    cube              [-s, s]^d, all 2^d sign patterns
    cross_polytope    conv{±s e_i}
    simplex           conv{0, s e_1, ..., s e_d}
    segment           conv{0, s e_d}
    regular_ngon      n points s (cos 2πk/n, sin 2πk/n)
    reuleaux_triangle inscribed sampling of the width-2√3 Reuleaux triangle,
                      n+1 points per arc, corner points exact
    equilateral_triangle  s * conv{(2,0), (-1,√3), (-1,-√3)}
    centered_square       s * conv{(±√3, ±√3)}
    """
    if spec.kind not in KINDS:
        raise BodySpecError(f"unknown body kind {spec.kind!r}")
    if spec.scale <= 0 or not math.isfinite(spec.scale):
        raise BodySpecError("scale must be a positive finite number")
    s = float(spec.scale)

    if spec.kind in _PLANAR_KINDS:
        if spec.dim not in (None, 2):
            raise BodySpecError(f"{spec.kind} is planar; dim must be 2")
        if spec.kind in _CURVED_KINDS:
            if spec.n is None or spec.n < 2:
                raise BodySpecError(f"{spec.kind} needs a sample count n >= 2")
        elif spec.n is not None:
            raise BodySpecError(f"{spec.kind} takes no sample count")
    else:
        if spec.dim is None or spec.dim < 1:
            raise BodySpecError(f"{spec.kind} needs a positive dimension")
        if spec.n is not None:
            raise BodySpecError(f"{spec.kind} takes no sample count")

    if spec.kind == "cube":
        verts = np.array(list(product((-s, s), repeat=spec.dim)))
        return VPolytope(verts)
    if spec.kind == "cross_polytope":
        eye = np.eye(spec.dim)
        return VPolytope(np.vstack([s * eye, -s * eye]))
    if spec.kind == "simplex":
        return VPolytope(np.vstack([np.zeros(spec.dim), s * np.eye(spec.dim)]))
    if spec.kind == "segment":
        end = np.zeros(spec.dim)
        end[-1] = s
        return VPolytope(np.vstack([np.zeros(spec.dim), end]))
    if spec.kind == "regular_ngon":
        k = np.arange(spec.n)
        theta = 2.0 * np.pi * k / spec.n
        return VPolytope(s * np.stack([np.cos(theta), np.sin(theta)], axis=1))
    if spec.kind == "equilateral_triangle":
        return VPolytope(s * TRIANGLE_CORNERS)
    if spec.kind == "centered_square":
        r = s * SQRT3
        return VPolytope([[-r, -r], [-r, r], [r, -r], [r, r]])
    return VPolytope(s * _reuleaux_points(spec.n))


def _reuleaux_points(n: int) -> np.ndarray:
    radius = 2.0 * SQRT3
    arcs = []
    for i, (corner, (start, stop)) in enumerate(zip(TRIANGLE_CORNERS, _ARC_RANGES)):
        theta = np.radians(np.linspace(start, stop, n + 1))
        pts = corner + radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        # Arc i runs from corner i + 1 to corner i + 2; pin them exactly.
        pts[0], pts[-1] = TRIANGLE_CORNERS[(i + 1) % 3], TRIANGLE_CORNERS[(i + 2) % 3]
        arcs.append(pts)
    return np.vstack(arcs)
