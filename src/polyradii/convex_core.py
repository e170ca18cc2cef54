"""Polytope representations and Minkowski algebra.

Bodies are stored by their vertices (V-representation).  Vertex lists may
contain redundant points: every functional downstream reads through a max or
an LP, so redundancy is harmless and is only ever pruned by the 2D hull.
That hull passes a polygon that is already its own hull through in one
linear, vectorised check, and runs Andrew's monotone chain on anything
else.  Halfspace representations exist solely in the plane, where facet
enumeration is exact and cheap.  Gauges are evaluated here as well, by one
batched ``_GaugeEvaluator`` per body (a planar body's polar vertices when
the origin is interior, else facet cones met by dual simplex walks, which
the points of a call that no cached cone holds take together, in waves),
and the interior certificate ``interior_slack`` is its slack: in the plane
the facet closed form min_f b_f / |n_f|_inf, or -1 if some offset b_f is
<= 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import lp_solver
from .lp_solver import EQUAL, LinearProgram

# Comparison tolerances: arithmetic identities vs. LP-derived equalities.
EPS_GEOMETRY = 1e-9
EPS_LP = 1e-7

# Positive slack needed to certify a point as interior / a body as
# full-dimensional; below unit extent it shrinks with the body (see
# _interior_margin).
INTERIOR_MARGIN = 1e-9
# A cached facet cone holds a point when the point's weights are non-negative
# up to this fraction of their total size.
_CONE_TOL = 1e-12
# Bases with a larger condition number are not cached: their points keep
# taking walks or LPs.
_BASIS_COND = 1e6
_WALK_PIVOTS = 50  # pivots a gauge walk takes before its point takes the LP
# Cells of the two (lanes, vertex columns) products a wave of walks forms
# per pivot, which bound its lanes: 0.5 MB of float64.
_WAVE_CELLS = 2 ** 16


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


class LowerDimensionalError(ValueError):
    """The polytope has no interior in its ambient space."""


def _as_vector(x, dim: int | None = None) -> np.ndarray:
    v = np.asarray(x, dtype=float).ravel()
    if v.size == 0 or not np.isfinite(v).all():
        raise ValueError("vector must be non-empty and finite")
    if dim is not None and v.size != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {v.size}")
    return v


@dataclass(frozen=True, eq=False)
class VPolytope:
    """Convex hull of a finite, possibly redundant, vertex list."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError("vertices must form a non-empty (n, d) array")
        if not np.isfinite(v).all():
            raise ValueError("vertices must be finite")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def __len__(self) -> int:
        return self.vertices.shape[0]

    def to_dict(self) -> dict:
        return {"dim": self.dim, "vertices": self.vertices.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "VPolytope":
        verts = np.asarray(data["vertices"], dtype=float)
        p = cls(verts)
        if p.dim != int(data["dim"]):
            raise ValueError("declared dimension does not match vertex data")
        return p


@dataclass(frozen=True, eq=False)
class HPolytope:
    """Intersection of halfspaces ``normal @ x <= offset``.

    ``lower_dimensional`` marks H-forms produced for degenerate 2D hulls
    (points and segments), whose halfspaces bound the affine hull exactly.
    """

    normals: np.ndarray
    offsets: np.ndarray
    lower_dimensional: bool = field(default=False)

    def __post_init__(self):
        n = np.atleast_2d(np.asarray(self.normals, dtype=float))
        b = np.asarray(self.offsets, dtype=float).ravel()
        if n.shape[0] != b.size or n.shape[0] < 1:
            raise ValueError("need one offset per normal")
        if not (np.isfinite(n).all() and np.isfinite(b).all()):
            raise ValueError("halfspace data must be finite")
        if (np.linalg.norm(n, axis=1) < EPS_GEOMETRY).any():
            raise ValueError("normals must be nonzero")
        n = n.copy()
        n.flags.writeable = False
        b = b.copy()
        b.flags.writeable = False
        object.__setattr__(self, "normals", n)
        object.__setattr__(self, "offsets", b)

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "halfspaces": [
                {"normal": n.tolist(), "offset": float(b)}
                for n, b in zip(self.normals, self.offsets)
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HPolytope":
        rows = data["halfspaces"]
        normals = np.asarray([h["normal"] for h in rows], dtype=float)
        offsets = np.asarray([h["offset"] for h in rows], dtype=float)
        h = cls(normals, offsets)
        if h.dim != int(data["dim"]):
            raise ValueError("declared dimension does not match halfspace data")
        return h


# ---------------------------------------------------------------------------
# Minkowski algebra


def minkowski_sum(p: VPolytope, q: VPolytope) -> VPolytope:
    """All pairwise vertex sums; the hull is the Minkowski sum of the hulls."""
    if p.dim != q.dim:
        raise DimensionMismatchError(f"dims differ: {p.dim} vs {q.dim}")
    sums = (p.vertices[:, None, :] + q.vertices[None, :, :]).reshape(-1, p.dim)
    return VPolytope(sums)


def transform(p: VPolytope, scale: float, offset, reflect: bool = False) -> VPolytope:
    """Map vertices v -> offset + scale * (-v if reflect else v)."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    off = _as_vector(offset, p.dim)
    sign = -1.0 if reflect else 1.0
    return VPolytope(off + scale * sign * p.vertices)


def difference_body(p: VPolytope) -> VPolytope:
    """The centered body with all pairwise vertex differences listed."""
    zero = np.zeros(p.dim)
    return minkowski_sum(p, transform(p, 1.0, zero, reflect=True))


# ---------------------------------------------------------------------------
# 2D hull and facets


def hull_2d(points) -> VPolytope:
    """Counter-clockwise extreme points, starting at the lexicographic minimum.

    Collinear interior points are dropped (strictly convex turns only), which
    makes the output canonical for golden comparisons.  Most planar inputs
    are already such a hull (a body hulled before, the operands and merge
    walk of a Minkowski sum), so one vectorised pass over the rows as given
    comes first: when they are their own hull (``_hull_as_given``) they are
    returned in linear time.  Any other input is sorted and hulled by the
    monotone chain.  The output is the chain's in both cases, bit for bit.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] < 1:
        raise ValueError("need at least one point")
    if pts.shape[1] != 2:
        raise DimensionMismatchError("hull_2d expects planar points")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    # Relative to the points' extent, so the hull does not depend on where
    # the points sit or on their unit of length.
    extent = float(np.ptp(pts, axis=0).max())
    turn_tol = 1e-12 * extent * extent
    hull = _hull_as_given(pts, turn_tol)
    if hull is not None:
        return VPolytope(hull)
    pts = np.unique(pts, axis=0)  # dedupes and sorts lexicographically
    if pts.shape[0] <= 2:
        return VPolytope(pts)
    return VPolytope(np.array(_monotone_chain(pts.tolist(), turn_tol)))


def _hull_as_given(pts: np.ndarray, turn_tol: float) -> np.ndarray | None:
    """The rows as the monotone chain would return them when they already
    form its hull, else None.

    Exact repeats of the previous row (cyclically) are dropped and the rows
    rolled to start at the lexicographic minimum.  They are accepted when
    they rise lexicographically in one run and then fall in one run, and
    every cyclic turn (prev, cur, next), in the chain's own expression,
    exceeds 1.01 turn_tol (a row equal to the next turns by exactly 0): a
    strictly convex polygon traversed once, counter-clockwise.  Every test
    the chain makes on such rows is either negative (a point of the other
    side, popped) or, by convexity, at least the smaller of the turns at the
    two ends of the edge it tests against.  A computed cross product is
    within 1e-15 extent**2, a thousandth of turn_tol, of the exact one, so
    the 1% margin keeps every such test above turn_tol: the chain keeps
    exactly these rows.
    """
    bits = np.ascontiguousarray(pts).view(np.uint64)
    rows = pts[(bits != np.concatenate((bits[-1:], bits[:-1]))).any(axis=1)]
    if rows.shape[0] < 3:
        return None
    x, y = rows[:, 0], rows[:, 1]
    lowest = np.flatnonzero(x == x.min())
    start = int(lowest[np.argmin(y[lowest])])
    rows = np.concatenate((rows[start:], rows[:start]))
    # Each row with the row behind it and the row ahead, cyclically.
    ring = np.concatenate((rows[-1:], rows, rows[:1]))
    (bx, by), (x, y), (ax, ay) = ring[:-2].T, ring[1:-1].T, ring[2:].T
    rising = (x < ax) | ((x == ax) & (y < ay))
    turns = (x - bx) * (ay - by) - (y - by) * (ax - bx)
    if (rising[1:] > rising[:-1]).any() or turns.min() <= 1.01 * turn_tol:
        return None
    return rows


def _monotone_chain(rows: list[list[float]], turn_tol: float) -> list[list[float]]:
    """Andrew's monotone chain on rows sorted lexicographically, at least
    three and all distinct: the lower then the upper hull, each point kept
    only where the turn into the next exceeds ``turn_tol``."""

    def chain(rows: list[list[float]]) -> list[list[float]]:
        # Python floats: the same IEEE arithmetic as numpy scalars, without
        # their per-operation overhead.
        out: list[list[float]] = []
        for p in rows:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) > turn_tol:
                    break
                out.pop()
            out.append(p)
        return out

    return chain(rows)[:-1] + chain(rows[::-1])[:-1]


def minkowski_hull_2d(p: VPolytope, q: VPolytope) -> VPolytope:
    """Hull of the planar Minkowski sum via the edge-merge of the two hulls.

    Equivalent to ``hull_2d(minkowski_sum(p, q).vertices)`` but linear in the
    hull sizes instead of quadratic, which is what keeps difference bodies of
    fine polygonal approximations affordable.
    """
    if p.dim != 2 or q.dim != 2:
        raise DimensionMismatchError("minkowski_hull_2d expects planar bodies")
    a = hull_2d(p.vertices).vertices
    b = hull_2d(q.vertices).vertices
    if a.shape[0] == 1:
        return VPolytope(b + a[0])
    if b.shape[0] == 1:
        return VPolytope(a + b[0])

    def bottom_first(v):
        start = np.lexsort((v[:, 0], v[:, 1]))[0]
        return np.roll(v, -start, axis=0)

    a = bottom_first(a)
    b = bottom_first(b)
    edges_a = np.diff(np.vstack([a, a[:1]]), axis=0)
    edges_b = np.diff(np.vstack([b, b[:1]]), axis=0)
    edges = np.vstack([edges_a, edges_b])
    angles = np.mod(np.arctan2(edges[:, 1], edges[:, 0]), 2.0 * np.pi)
    order = np.argsort(angles, kind="stable")
    walk = np.vstack([a[0] + b[0], a[0] + b[0] + np.cumsum(edges[order], axis=0)[:-1]])
    return hull_2d(walk)


def difference_hull(p: VPolytope) -> VPolytope:
    """Hull-reduced difference body; falls back to deduplication off-plane."""
    if p.dim == 2:
        zero = np.zeros(2)
        return minkowski_hull_2d(p, transform(p, 1.0, zero, reflect=True))
    diffs = difference_body(p).vertices
    return VPolytope(np.unique(diffs, axis=0))


def facets_2d(p: VPolytope) -> HPolytope:
    """One outward-unit-normal halfspace per hull edge of a planar body.

    Points and segments get the bounding halfspaces of their affine hull
    (whose intersection is exactly the body) with ``lower_dimensional`` set.
    """
    if p.dim != 2:
        raise DimensionMismatchError("facets_2d expects a planar body")
    hull = hull_2d(p.vertices).vertices
    if hull.shape[0] == 1:
        x, y = hull[0]
        normals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        offsets = np.array([x, -x, y, -y])
        return HPolytope(normals, offsets, lower_dimensional=True)
    if hull.shape[0] == 2:
        a, b = hull
        t = (b - a) / np.linalg.norm(b - a)
        n = np.array([t[1], -t[0]])
        normals = np.array([n, -n, t, -t])
        offsets = np.array([n @ a, -(n @ a), t @ b, -(t @ a)])
        return HPolytope(normals, offsets, lower_dimensional=True)
    edges = np.diff(np.vstack([hull, hull[:1]]), axis=0)
    # CCW orientation: the outward normal is the edge direction rotated -90°.
    normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = np.einsum("ij,ij->i", normals, hull)
    return HPolytope(normals, offsets)


# ---------------------------------------------------------------------------
# LP-backed predicates


def member(p: VPolytope, x, tol: float = EPS_LP) -> bool:
    """True iff x is a convex combination of the vertices, within tol.

    Solved as an elastic feasibility LP minimising the L1 residual of the
    combination; LP failures propagate as RuntimeError.
    """
    if tol < 0:
        raise ValueError("tol must be non-negative")
    target = _as_vector(x, p.dim)
    n, d = p.vertices.shape
    # Variables: convex weights, then positive/negative residual parts.
    lhs = np.zeros((d + 1, n + 2 * d))
    lhs[:d, :n] = p.vertices.T
    lhs[:d, n:n + d] = np.eye(d)
    lhs[:d, n + d:] = -np.eye(d)
    lhs[d, :n] = 1.0
    rhs = np.concatenate([target, [1.0]])
    objective = np.concatenate([np.zeros(n), np.ones(2 * d)])
    out = lp_solver.solve(LinearProgram(objective, lhs, (EQUAL,) * (d + 1), rhs))
    if out.status != lp_solver.OPTIMAL:
        raise RuntimeError(f"membership LP failed with status {out.status}")
    return out.value <= tol + 1e-12


def _extent(p: VPolytope) -> float:
    """Largest coordinate span of the vertices; 1 for a single point."""
    return float(np.ptp(p.vertices, axis=0).max()) or 1.0


def _power_of_two_scale(peak: float) -> float:
    """The power of two that brings ``peak`` within 2**±4 of 1.

    Multiplying an LP row by it is exact, so the row keeps its solution
    while its entries come near unit size for the solver's fixed tolerances.
    Peaks already in that band, and zero peaks, get 1, so programs near unit
    scale are solved exactly as given.
    """
    if peak <= 0.0:
        return 1.0
    exponent = round(math.log2(peak))
    return 2.0 ** (min(max(exponent, -4), 4) - exponent)


def _column_scales(points: np.ndarray) -> np.ndarray:
    """``_power_of_two_scale`` of each column's largest absolute entry."""
    return np.array([_power_of_two_scale(peak)
                     for peak in np.abs(points).max(axis=0).tolist()])


def _interior_margin(p: VPolytope) -> float:
    """Least slack certifying a point interior to p.

    Below unit extent the margin is relative to the extent, so a body and its
    scaled copy certify alike; from unit extent up it stays INTERIOR_MARGIN,
    so long thin bodies keep certifying at any aspect the LP resolves.
    """
    return INTERIOR_MARGIN * min(1.0, _extent(p))


class _GaugeLP:
    """Least lambda with x in lambda*conv(vertices), and its dual normal.

    Solved as min sum(nu) subject to sum(nu_i v_i) = x, nu >= 0: the scaled
    convex weights sum exactly to the scaling factor.  The dual normal y
    satisfies v_i.y <= 1 for every vertex and y.x = lambda, so it is a
    supporting normal of the hull where the ray through x leaves it.  The
    value is inf when x is off the cone of the vertices.

    Each coordinate row is scaled by ``_column_scales`` of the vertices, and
    x by ``_power_of_two_scale`` of its largest scaled entry, so the solver's
    fixed tolerances hold at any scale and axis aspect and for any length of
    x.  The rows keep their weights; the value is divided by the scale of x
    and the dual normal multiplied by the row scales.  The scaled rows are
    built once per body and shared by every x.  The optimal basis is passed
    on as the solver reports it (None when the value is inf).
    """

    def __init__(self, vertices: np.ndarray):
        self.scale = _column_scales(vertices)
        self.lhs = (vertices * self.scale).T
        self.objective = np.ones(vertices.shape[0])
        self.relations = (EQUAL,) * vertices.shape[1]

    def __call__(self, x: np.ndarray) -> tuple[float, np.ndarray | None,
                                              np.ndarray | None]:
        rhs = x * self.scale
        length = _power_of_two_scale(float(np.abs(rhs).max()))
        out = lp_solver.solve(LinearProgram(self.objective, self.lhs, self.relations,
                                            rhs * length))
        if out.status == lp_solver.INFEASIBLE:
            return np.inf, None, None
        if out.status != lp_solver.OPTIMAL:
            raise RuntimeError(f"gauge LP failed with status {out.status}")
        return max(0.0, out.value / length), out.duals * self.scale, out.basis


class _GaugeEvaluator:
    """Batched gauge of a body over the rows of a point array.

    A planar body whose facet offsets b_f are all positive (the origin is
    interior) reads it off its polar vertices p_f = n_f / b_f in one
    product.  Any other body caches the facets it meets: an optimal basis
    of d vertex columns B_f spans the cone over one facet, on which the
    gauge is linear.  A later point x with weights mu = B_f^-1 x >= 0 has
    gauge sum(mu), certified both ways: mu is a feasible weight vector, and
    the basis dual y_f = B_f^-T 1, a polar vertex by optimality, gives
    y_f.x = sum(mu).  Each batch is tested against every cached cone at
    once; the points no cone holds walk from the cached facets together,
    in waves (``_walk``), and the first point, or one whose walk stops
    short, takes a gauge LP.  The gauge is inf off the cone of the
    vertices; there nothing is cached, nor from a flat body, whose LP basis
    keeps an artificial column.
    """

    def __init__(self, body: VPolytope):
        self.body, self.dim = body, body.dim
        self.facets = None
        self.polar_vertices = None
        if body.dim == 2:
            f = facets_2d(body)
            if not f.lower_dimensional and (f.offsets > 0.0).all():
                self.facets = f
                self.polar_vertices = (f.normals / f.offsets[:, None]).T
                return
        self.lp = _GaugeLP(body.vertices)
        self.columns = self.lp.lhs.T  # the scaled vertices, one row per LP column
        # Inverse bases of the cached facets, stacked as (facets * d, d), and
        # the polar vertex y_f of each facet in the body's coordinates.
        self.inverses = np.empty((0, body.dim))
        self.normals = np.empty((0, body.dim))
        self.bases = np.empty((0, body.dim), dtype=int)
        # Points answered by a gauge LP and by a walk, and the waves of
        # uncovered points (calls of _walk).
        self.solved = self.walks = self.waves = 0

    def __call__(self, points) -> np.ndarray:
        return self.with_normals(points)[0]

    def with_normals(self, points) -> tuple[np.ndarray, np.ndarray]:
        """The gauge of each row and a polar vertex y attaining it.

        y.v <= 1 on every vertex v of the body and y.x = gauge(x): the planar
        argmax p_f, the B_f^-T 1 of a cached cone or of a walk's last basis,
        or the gauge LP's dual normal.  Rows whose gauge is inf get a nan
        normal.  Rows that no cached cone holds walk in waves of as many
        lanes as keep a pivot's two (lanes, n) products over the n vertex
        columns within ``_WAVE_CELLS``; after each wave its new facets are
        cached and the rows still waiting are looked up against them.
        """
        points = np.atleast_2d(points)
        if self.polar_vertices is not None:
            products = points @ self.polar_vertices
            best = products.argmax(axis=1)
            values = products[np.arange(points.shape[0]), best]
            return np.maximum(values, 0.0), self.polar_vertices[:, best].T
        values, facet = self._lookup(points, 0)
        normals = np.full(points.shape, np.nan)
        waiting = np.flatnonzero(np.isnan(values))
        lanes = max(1, _WAVE_CELLS // (2 * self.columns.shape[0]))
        while waiting.size:
            start = self.normals.shape[0]
            size = lanes if start else 1  # a body's first point takes the LP alone
            wave, waiting = waiting[:size], waiting[size:]
            self.waves += 1
            values[wave], normals[wave], bases, inverses = self._walk(points[wave])
            unwalked = np.flatnonzero(np.isnan(values[wave]))
            self.walks += wave.size - unwalked.size
            self.solved += unwalked.size
            for j in unwalked:
                values[wave[j]], normal, basis = self.lp(points[wave[j]])
                if basis is not None:
                    normals[wave[j]], bases[j], inverses[j] = normal, basis, np.nan
            finite = np.isfinite(values[wave])
            self._cache(bases[finite], inverses[finite])
            if self.normals.shape[0] > start and waiting.size:
                values[waiting], facet[waiting] = self._lookup(points[waiting], start)
                waiting = waiting[np.isnan(values[waiting])]
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

    def _walk(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                 np.ndarray, np.ndarray]:
        """The gauge LP's answers for a wave of rows by one batched dual
        simplex (Lemke 1954), each row started at the cached facet with the
        largest y_f.x.  Each basis B keeps 1 - a_j.y >= 0 at y = B^-T 1; at
        every pivot, for all rows together, the most negative weight of
        B^-1 x leaves, the ratio test on those reduced costs over its row
        of B^-1 A picks the column that enters, and the new bases are
        inverted as one stack.  A row stops certified optimal (weights and
        reduced costs non-negative), or with inf when its leaving row has
        no negative entry (x is off the cone), or with nan, to take the LP,
        where rounding has broken the certificate, at a singular basis, or
        uncertified after _WALK_PIVOTS pivots; every row gets nan when no
        facet is cached or _WALK_PIVOTS is 0.  A stopped row keeps its
        basis, so the rows are classified once, after the last pivot.

        Returns the values, the normals B^-T 1 (nan where there is none),
        and each row's last basis with its inverse, the ones to cache where
        the value is finite.
        """
        count, d = points.shape
        values = np.full(count, np.nan)
        normals = np.full((count, d), np.nan)
        if not self.bases.size or not _WALK_PIVOTS:
            return values, normals, np.zeros((count, d), dtype=int), np.full((count, d, d), np.nan)
        start = (points @ self.normals.T).argmax(axis=1)
        basis, inverse = self.bases[start], self.inverses.reshape(-1, d, d)[start]
        x, rows = points * self.lp.scale, np.arange(count)
        stuck = np.zeros(count, dtype=bool)  # handed to the LP mid-walk
        for pivots in range(_WALK_PIVOTS + 1):
            weights = np.einsum("aij,aj->ai", inverse, x)
            leave = weights.argmin(axis=1)
            y = inverse.sum(axis=1)
            products = np.concatenate([y, inverse[rows, leave]]) @ self.lp.lhs
            reduced, pivot_row = 1.0 - products[:count], products[count:]
            optimal = weights[rows, leave] >= -_CONE_TOL * np.abs(weights).sum(axis=1)
            entering = pivot_row < -lp_solver.PIVOT_TOL
            walk = np.flatnonzero(~optimal & entering.any(axis=1) & ~stuck)
            if not walk.size or pivots == _WALK_PIVOTS:
                stuck[walk] = True  # still walking after _WALK_PIVOTS pivots
                break
            ratios = np.full((walk.size, pivot_row.shape[1]), np.inf)
            np.divide(np.maximum(reduced[walk], 0.0), -pivot_row[walk], out=ratios,
                      where=entering[walk])
            basis[walk, leave[walk]] = ratios.argmin(axis=1)
            try:
                inverse[walk] = np.linalg.inv(self.columns[basis[walk]].transpose(0, 2, 1))
            except np.linalg.LinAlgError:
                for i in walk:
                    try:
                        inverse[i] = np.linalg.inv(self.columns[basis[i]].T)
                    except np.linalg.LinAlgError:
                        stuck[i] = True
        done = optimal & (reduced.min(axis=1) >= -lp_solver.PIVOT_TOL) & ~stuck
        values[done] = np.maximum(weights[done].sum(axis=1), 0.0)
        normals[done] = y[done] * self.lp.scale
        values[~optimal & ~stuck] = np.inf
        return values, normals, basis, inverse

    def _cache(self, bases: np.ndarray, inverses: np.ndarray) -> None:
        """Cache the distinct facets among optimal ``bases`` whose d columns
        are vertex columns with a condition number within _BASIS_COND, with
        their inverses; nan inverses (an LP's basis) are computed here."""
        real = (bases < self.columns.shape[0]).all(axis=1)
        bases, inverses = bases[real], inverses[real]
        if bases.shape[0] > 1:  # one facet per set of columns, in any order
            key = np.sort(bases, axis=1)
            order = np.lexsort(key.T)
            key = key[order]
            first = order[np.concatenate([[True], (key[1:] != key[:-1]).any(axis=1)])]
            bases, inverses = bases[first], inverses[first]
        if not bases.size:
            return
        columns = self.columns[bases].transpose(0, 2, 1)
        sound = np.linalg.cond(columns) <= _BASIS_COND
        bases, inverses, columns = bases[sound], inverses[sound], columns[sound]
        missing = np.isnan(inverses[:, 0, 0])
        if missing.any():
            inverses[missing] = np.linalg.inv(columns[missing])
        self.bases = np.concatenate([self.bases, bases])
        self.inverses = np.concatenate([self.inverses, inverses.reshape(-1, self.dim)])
        self.normals = np.concatenate([self.normals, inverses.sum(axis=1) * self.lp.scale])

    def slack(self) -> float:
        """1 / max_k gauge(±e_k): the largest rho with ±rho e_k in the body
        for every axis k, min_f b_f / |n_f|_inf in the plane.  -1 when the
        origin is not interior: a planar body then has a facet offset <= 0,
        and elsewhere some ±e_k leaves the cone, gauge inf.  The first axis
        is evaluated alone, so an origin off the cone of the vertices costs
        one LP; the other 2d - 1 axes are one batch."""
        if self.dim == 2 and self.polar_vertices is None:
            return -1.0
        axes = np.vstack([np.eye(self.dim), -np.eye(self.dim)])
        top = float(self(axes[0])[0])
        if top < np.inf:
            top = max(top, float(self(axes[1:]).max()))
        return -1.0 if top == np.inf else 1.0 / top

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


def interior_slack(p: VPolytope, point) -> float:
    """``_GaugeEvaluator.slack`` of the body translated by -point; a slack
    above ``_interior_margin(p)`` certifies ``point`` interior."""
    return _GaugeEvaluator(VPolytope(p.vertices - _as_vector(point, p.dim))).slack()


# ---------------------------------------------------------------------------
# JSON interchange


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON token {token!r} rejected")


def loads_vpolytope(text: str) -> VPolytope:
    data = json.loads(text, parse_constant=_reject_constant)
    return VPolytope.from_dict(data)


def dumps_vpolytope(p: VPolytope) -> str:
    return json.dumps(p.to_dict())


def loads_hpolytope(text: str) -> HPolytope:
    data = json.loads(text, parse_constant=_reject_constant)
    return HPolytope.from_dict(data)


def dumps_hpolytope(h: HPolytope) -> str:
    return json.dumps(h.to_dict())
