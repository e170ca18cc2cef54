"""Support, width, gauge, radius, chord-length, and polar machinery.

All functionals are exact on V-polytopes: supports are vertex maxima, and
gauges come from convex_core's ``_GaugeEvaluator``, which reads them off the
polar vertices in the plane and off the facet cones its gauge LP and walks
have met elsewhere, and can return the polar vertex attaining each value (the
containment engine's cuts).  A GaugeBody keeps the evaluator that certified
its origin, so every later gauge of it reuses those cones.  Radius and chord
lengths are reciprocal gauges.  A gauge is always evaluated on the body
exactly as given; it is an error if the origin is not interior, because the
Minkowski functional is translation sensitive and silent recentering would
change its values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .convex_core import (
    EPS_GEOMETRY,
    HPolytope,
    VPolytope,
    _GaugeEvaluator,
    _as_vector,
    _interior_margin,
    difference_hull,
)


class GaugeError(ValueError):
    """The body cannot carry a Minkowski functional (origin not interior)."""


@dataclass(frozen=True, eq=False)
class FunctionalValue:
    """A functional evaluation with an optional attaining witness point."""

    value: float
    witness: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class GaugeBody:
    """A polytope certified to contain the origin in its interior.  Its one
    gauge evaluator, built on first use, keeps the facet cones it meets."""

    body: VPolytope
    interior_certificate: np.ndarray

    @classmethod
    def from_polytope(cls, body: VPolytope) -> "GaugeBody":
        gauge_body = cls(body, np.zeros(body.dim))
        margin = gauge_body._evaluate.slack()
        if margin < _interior_margin(body):
            raise GaugeError(
                "origin is not interior to the gauge body "
                f"(slack {margin:.3e}); translate the body first"
            )
        return gauge_body

    @classmethod
    def _certified(cls, evaluate: _GaugeEvaluator) -> "GaugeBody":
        """The body of ``evaluate``, whose slack has certified its origin,
        keeping that evaluator and the facet cones it has met."""
        gauge_body = cls(evaluate.body, np.zeros(evaluate.dim))
        gauge_body.__dict__["_evaluate"] = evaluate  # cached_property's slot
        return gauge_body

    @property
    def dim(self) -> int:
        return self.body.dim

    @cached_property
    def _evaluate(self) -> _GaugeEvaluator:
        return _GaugeEvaluator(self.body)


def support(k: VPolytope, u) -> FunctionalValue:
    """max over vertices of <u, v>; the witness is the lowest attaining vertex."""
    direction = _as_vector(u, k.dim)
    products = k.vertices @ direction
    idx = int(np.argmax(products))
    return FunctionalValue(float(products[idx]), k.vertices[idx].copy())


def support_values(k: VPolytope, directions: np.ndarray) -> np.ndarray:
    """Vectorised support over rows of ``directions``."""
    return np.max(np.asarray(directions, dtype=float) @ k.vertices.T, axis=1)


def width_fn(k: VPolytope, u) -> FunctionalValue:
    """Slab width of the body orthogonal to u: h(u) + h(-u)."""
    direction = _as_vector(u, k.dim)
    value = support(k, direction).value + support(k, -direction).value
    return FunctionalValue(float(value))


def gauge(c: GaugeBody, x) -> FunctionalValue:
    """Minkowski functional of the gauge body: least lambda with x in lambda*C.

    The witness is the boundary point where the ray through x leaves the body.
    """
    point = _as_vector(x, c.dim)
    value = float(c._evaluate(point)[0])
    if not np.isfinite(value):
        raise RuntimeError("gauge LP failed with status infeasible")
    witness = point / value if value > EPS_GEOMETRY else None
    return FunctionalValue(float(value), witness)


def radius_fn(k: VPolytope | GaugeBody, u) -> FunctionalValue:
    """Boundary distance along u: sup of alpha with alpha*u inside.

    Requires the origin interior (pass a GaugeBody to skip re-certification);
    the value is the pointwise reciprocal of the body's own gauge.
    """
    body = k if isinstance(k, GaugeBody) else GaugeBody.from_polytope(k)
    direction = _as_vector(u, body.dim)
    if np.linalg.norm(direction) < EPS_GEOMETRY:
        raise ValueError("direction must be nonzero")
    value = body._evaluate(direction)[0]
    if not np.isfinite(value):
        raise RuntimeError("radius LP infeasible despite interior origin")
    alpha = 1.0 / value
    return FunctionalValue(alpha, alpha * direction)


def max_chord(k: VPolytope, u) -> FunctionalValue:
    """Longest chord of the body in direction u, i.e. the reach of K-K along u."""
    direction = _as_vector(u, k.dim)
    if np.linalg.norm(direction) < EPS_GEOMETRY:
        raise ValueError("direction must be nonzero")
    value = _GaugeEvaluator(difference_hull(k))(direction)[0]
    if not np.isfinite(value):
        # The ray leaves the difference body immediately: zero-length chord.
        return FunctionalValue(0.0, np.zeros(k.dim))
    alpha = 1.0 / value
    return FunctionalValue(alpha, alpha * direction)


def polar(k: VPolytope) -> HPolytope:
    """Polar set {x : h_K(x) <= 1} as one halfspace per listed vertex.

    Vertices at the origin contribute the trivial inequality 0 <= 1 and are
    skipped so every stored normal is nonzero.
    """
    verts = k.vertices
    keep = np.linalg.norm(verts, axis=1) >= EPS_GEOMETRY
    if not keep.any():
        raise ValueError("polar of the origin alone is all of space")
    kept = verts[keep]
    return HPolytope(kept, np.ones(kept.shape[0]))


class HyperplaneDistances(NamedTuple):
    support: float
    origin_distance: float
    width_distance: float


def supporting_hyperplane_distance(k: VPolytope, u) -> HyperplaneDistances:
    """Distances from the origin to the two supporting hyperplanes normal to u.

    ``origin_distance`` is |h(u)| (u must be a unit vector).  The sum
    ``width_distance`` equals the width w(u) whenever the origin lies between
    the two hyperplanes, in particular whenever the body contains the origin.
    """
    direction = _as_vector(u, k.dim)
    if abs(np.linalg.norm(direction) - 1.0) > EPS_GEOMETRY:
        raise ValueError("direction must be a unit vector")
    h = support(k, direction).value
    h_neg = support(k, -direction).value
    return HyperplaneDistances(float(h), abs(h), abs(h) + abs(h_neg))
