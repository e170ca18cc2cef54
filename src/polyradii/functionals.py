"""Support, width, gauge, radius, chord-length, and polar machinery.

All functionals are exact on V-polytopes: supports are vertex maxima and
gauges are tiny LPs over scaled convex weights; batches read them off the
polar vertices in the plane and off the facet cones their LPs have met
elsewhere, and can return the polar vertex attaining each value, which is
what the containment engine's cuts are made of.  Radius and chord lengths
are reciprocal gauges.  A gauge is always evaluated on the body exactly as
given; it is an error if the origin is not interior, because the Minkowski
functional is translation sensitive and silent recentering would change its
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .convex_core import (
    EPS_GEOMETRY,
    HPolytope,
    VPolytope,
    _GaugeLP,
    _as_vector,
    _interior_margin,
    difference_hull,
    facets_2d,
    interior_slack,
)

# A cached facet cone holds a point when the point's weights are non-negative
# up to this fraction of their total size.
_CONE_TOL = 1e-12
# Bases with a larger condition number are not cached: their points keep
# taking LPs.
_BASIS_COND = 1e6


class GaugeError(ValueError):
    """The body cannot carry a Minkowski functional (origin not interior)."""


@dataclass(frozen=True, eq=False)
class FunctionalValue:
    """A functional evaluation with an optional attaining witness point."""

    value: float
    witness: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class GaugeBody:
    """A polytope certified to contain the origin in its interior."""

    body: VPolytope
    interior_certificate: np.ndarray

    @classmethod
    def from_polytope(cls, body: VPolytope) -> "GaugeBody":
        origin = np.zeros(body.dim)
        margin = interior_slack(body, origin)
        if margin < _interior_margin(body):
            raise GaugeError(
                "origin is not interior to the gauge body "
                f"(slack {margin:.3e}); translate the body first"
            )
        return cls(body, origin)

    @property
    def dim(self) -> int:
        return self.body.dim


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


class _GaugeEvaluator:
    """Batched gauge of a body over the rows of a point array.

    Planar full-dimensional bodies read it off their polar vertices
    p_f = n_f / b_f in one product, which needs the origin interior.  Any
    other body solves gauge LPs and caches the facets they meet: an optimal
    basis of d vertex columns B_f spans the cone over one facet, on which
    the gauge is linear.  A later point x with weights mu = B_f^-1 x >= 0
    has gauge sum(mu), certified both ways: mu is a feasible weight vector,
    and the basis dual y_f = B_f^-T 1, a polar vertex by the LP's
    optimality, gives y_f.x = sum(mu).  Each batch is tested against every
    cached cone at once, and only the points no cone holds take an LP.  The
    cache lives as long as the evaluator.  The gauge is inf off the cone of
    the vertices, where the LP is infeasible and caches nothing; nor does a
    flat body's LP, whose basis keeps an artificial column.
    """

    def __init__(self, body: VPolytope):
        self.facets = None
        self.polar_vertices = None
        if body.dim == 2:
            f = facets_2d(body)
            if not f.lower_dimensional:
                self.facets = f
                self.polar_vertices = (f.normals / f.offsets[:, None]).T
                return
        self.lp = _GaugeLP(body.vertices)
        # Inverse bases of the cached facets, stacked as (facets * d, d), and
        # the polar vertex y_f of each facet in the body's coordinates.
        self.inverses = np.empty((0, body.dim))
        self.normals = np.empty((0, body.dim))

    def __call__(self, points) -> np.ndarray:
        return self.with_normals(points)[0]

    def with_normals(self, points) -> tuple[np.ndarray, np.ndarray]:
        """The gauge of each row and a polar vertex y attaining it.

        y.v <= 1 on every vertex v of the body and y.x = gauge(x): the planar
        argmax p_f, the cached cone's B_f^-T 1, or the gauge LP's dual
        normal.  Rows whose gauge is inf get a nan normal.
        """
        points = np.atleast_2d(points)
        if self.polar_vertices is not None:
            products = points @ self.polar_vertices
            best = products.argmax(axis=1)
            values = products[np.arange(points.shape[0]), best]
            return np.maximum(values, 0.0), self.polar_vertices[:, best].T
        values, facet = self._lookup(points, 0)
        normals = np.full(points.shape, np.nan)
        for i in np.flatnonzero(np.isnan(values)):
            if not np.isnan(values[i]):
                continue  # held by a facet cached after the first lookup
            values[i], normal, basis = self.lp(points[i])
            if normal is not None:
                normals[i] = normal
            inverse = self._facet_inverse(basis)
            if inverse is not None:
                start = self.normals.shape[0]
                self.inverses = np.vstack([self.inverses, inverse])
                self.normals = np.vstack([self.normals, inverse.sum(axis=0) * self.lp.scale])
                rest = np.flatnonzero(np.isnan(values))
                values[rest], facet[rest] = self._lookup(points[rest], start)
        held = facet >= 0
        normals[held] = self.normals[facet[held]]
        return values, normals

    def _lookup(self, points: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray]:
        """Gauge of each point, and the index of the first cached cone from
        ``start`` on that holds it; nan and -1 where none does."""
        count, d = points.shape
        values = np.full(count, np.nan)
        index = np.full(count, -1)
        inverses = self.inverses[start * d:]
        facets = inverses.shape[0] // d
        if facets == 0:
            return values, index
        weights = ((points * self.lp.scale) @ inverses.T).reshape(count, facets, d)
        inside = weights.min(axis=2) >= -_CONE_TOL * np.abs(weights).sum(axis=2)
        hit = np.flatnonzero(inside.any(axis=1))
        first = inside[hit].argmax(axis=1)
        values[hit] = np.maximum(weights[hit, first].sum(axis=1), 0.0)
        index[hit] = start + first
        return values, index

    def _facet_inverse(self, basis: np.ndarray | None) -> np.ndarray | None:
        """B_f^-1 of an optimal basis of d well-conditioned vertex columns,
        else None."""
        if basis is None or (basis >= self.lp.lhs.shape[1]).any():
            return None  # inf, or an artificial column parked on a flat body
        columns = self.lp.lhs[:, basis]
        if np.linalg.cond(columns) > _BASIS_COND:
            return None
        return np.linalg.inv(columns)

    def pairwise_maxima(self, points: np.ndarray, symmetric: bool = False) -> np.ndarray:
        """For each row v_i of ``points``, max over rows v_j of gauge(v_j - v_i).

        In the plane the two maxima swap: with P = V @ polar,
        max_j max_f (P[j, f] - P[i, f]) is a support-function difference per
        polar vertex, so one n x F product replaces n rows of n x F gauge
        evaluations.  The points are centred first, as differences are, so
        the products do not carry their offset.  Any other body evaluates
        every ordered pair, or, for a ``symmetric`` body, every later partner
        j > i only, one batch per row through the facet cache.  The overall
        maximum and the first row attaining it are the same either way.
        """
        if self.polar_vertices is not None:
            products = (points - points.mean(axis=0)) @ self.polar_vertices
            np.subtract(products.max(axis=0), products, out=products)
            return np.maximum(products.max(axis=1), 0.0)
        return np.array([
            self((points[i + 1:] if symmetric else np.delete(points, i, axis=0))
                 - points[i]).max(initial=0.0)
            for i in range(points.shape[0])])


def gauge(c: GaugeBody, x) -> FunctionalValue:
    """Minkowski functional of the gauge body: least lambda with x in lambda*C.

    The witness is the boundary point where the ray through x leaves the body.
    """
    point = _as_vector(x, c.dim)
    value = _GaugeLP(c.body.vertices)(point)[0]
    if not np.isfinite(value):
        raise RuntimeError("gauge LP failed with status infeasible")
    witness = point / value if value > EPS_GEOMETRY else None
    return FunctionalValue(float(value), witness)


def radius_fn(k: VPolytope | GaugeBody, u) -> FunctionalValue:
    """Boundary distance along u: sup of alpha with alpha*u inside.

    Requires the origin interior (pass a GaugeBody to skip re-certification);
    the value is the pointwise reciprocal of the body's own gauge.
    """
    if isinstance(k, GaugeBody):
        body = k.body
    else:
        body = k
        if interior_slack(body, np.zeros(body.dim)) < _interior_margin(body):
            raise GaugeError("origin is not interior to the body")
    direction = _as_vector(u, body.dim)
    if np.linalg.norm(direction) < EPS_GEOMETRY:
        raise ValueError("direction must be nonzero")
    value = _GaugeLP(body.vertices)(direction)[0]
    if not np.isfinite(value):
        raise RuntimeError("radius LP infeasible despite interior origin")
    alpha = 1.0 / value
    return FunctionalValue(alpha, alpha * direction)


def max_chord(k: VPolytope, u) -> FunctionalValue:
    """Longest chord of the body in direction u, i.e. the reach of K-K along u."""
    direction = _as_vector(u, k.dim)
    if np.linalg.norm(direction) < EPS_GEOMETRY:
        raise ValueError("direction must be nonzero")
    value = _GaugeLP(difference_hull(k).vertices)(direction)[0]
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
