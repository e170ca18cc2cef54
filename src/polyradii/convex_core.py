"""Polytope representations and Minkowski algebra.

Bodies are stored by their vertices (V-representation).  Vertex lists may
contain redundant points: every functional downstream reads through a max or
an LP, so redundancy is harmless and is only ever pruned by the 2D hull.
That hull keeps every point where the computed turn is positive, with no
turn tolerance: it passes a polygon that is already its own hull through
in one vectorised check of the chain's own tests, and runs Andrew's
monotone chain on anything else.  A planar body prepares that one hull
(``_ccw_hull``), and its facets, polar vertices, sectors and difference
hull all read it.
Halfspace representations exist solely in the plane, where facet
enumeration is exact and cheap.  Gauges are evaluated here as well, by a
batched ``_GaugeEvaluator`` on what its body prepares once (``VPolytope``):
a planar body's polar vertices when the origin is interior, read from the
facet cone that an angular search finds for each point (``_Sectors``,
which give planar supports too), else dual simplex walks in waves, each
from the best cached facet cone and done at once where that cone holds its
point.  Calls fork the evaluator of the body's interior certificate
(``_certified``), its slack: in the plane the facet closed form
min_f b_f / |n_f|_inf, or -1 if some offset b_f is <= 0.
"""

from __future__ import annotations

import copy
import json
import math
import weakref
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
    """Convex hull of a finite, possibly redundant, vertex list.

    What the read-only vertices alone determine (difference hull, rank,
    span, facets, polar vertices, gauge-LP columns, frames, half and
    recentred bodies, the centroid, the planar master's start basis, the
    interior certificate) is cached on first use by
    ``_prepared`` for the body's lifetime, never in ``repr``, ``to_dict``,
    equality or pickles.  Each call forks the certificate's gauge evaluator.
    """

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

    def __reduce__(self):
        return VPolytope, (self.vertices,)  # the vertices alone, not the cache

    def _prepared(self, key, build):
        """``build()``, a pure function of the vertices, computed on first use."""
        cache = self.__dict__.setdefault("_cache", {})
        return cache[key] if key in cache else cache.setdefault(key, build())

    def _rank(self) -> tuple[int, np.ndarray]:
        return self._prepared("rank", lambda: _flat_rank(self.vertices))

    def _centroid(self) -> np.ndarray:
        return self._prepared("centroid", lambda: self.vertices.mean(axis=0))

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


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """``np.unique(rows, axis=0)`` without its import of ``numpy.ma``."""
    rows = rows[np.lexsort(rows.T[::-1])]
    return rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]


# ---------------------------------------------------------------------------
# 2D hull and facets


def hull_2d(points) -> VPolytope:
    """Counter-clockwise extreme points, starting at the lexicographic minimum.

    A point is kept only where the computed turn into the next is positive
    (Andrew 1979), with no tolerance: collinear interior points are dropped,
    which makes the output canonical for golden comparisons, and a vertex
    however slight its turn is kept.  Most planar inputs are already such a
    hull (a body hulled before, the operands and merge walk of a Minkowski
    sum), so one vectorised pass over the rows as given comes first: when
    they are their own hull (``_hull_as_given``) they are returned with no
    Python loop.  Any other input is sorted and hulled by the monotone
    chain.  The output is the chain's in both cases, bit for bit.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] < 1:
        raise ValueError("need at least one point")
    if pts.shape[1] != 2:
        raise DimensionMismatchError("hull_2d expects planar points")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    hull = _hull_as_given(pts)
    if hull is not None:
        return VPolytope(hull)
    pts = _unique_rows(pts)
    if pts.shape[0] <= 2:
        return VPolytope(pts)
    return VPolytope(np.array(_monotone_chain(pts.tolist())))


def _hull_as_given(pts: np.ndarray) -> np.ndarray | None:
    """The rows as the monotone chain would return them when they already
    form its hull, else None.

    Exact repeats of the previous row (cyclically) are dropped and the rows
    rolled to start at the lexicographic minimum.  If they rise
    lexicographically in one run and then fall in one, with no two equal,
    sorting them gives the chain's input.  A pass returns its run (the
    rising one, or the falling one reversed) when each row q pops the row of
    the other run before it, turn(last run row, that row, q) <= 0, and turns
    left off the last two run rows, turn > 0.  These are the chain's own
    products, taken for all q at once: rows pass exactly on that path.
    """
    bits = np.ascontiguousarray(pts).view(np.uint64)
    rows = pts[(bits != np.concatenate((bits[-1:], bits[:-1]))).any(axis=1)]
    if rows.shape[0] < 3:
        return None
    order, index = np.lexsort(rows.T[::-1]), np.arange(rows.shape[0])
    rows, order = np.roll(rows, -order[0], axis=0), (order - order[0]) % index.size
    (x, y), (ax, ay) = rows.T, np.roll(rows, -1, axis=0).T
    rising = (x < ax) | ((x == ax) & (y < ay))  # each row to the next, cyclically
    top = int(np.argmin(rising))  # the lexicographic maximum
    if (rising[1:] > rising[:-1]).any() or not (np.diff(rows[order], axis=0) != 0).any(1).all():
        return None

    def turns(o, a, p):  # the chain's expression, row by row
        return (a.T[0] - o.T[0]) * (p.T[1] - o.T[1]) - (a.T[1] - o.T[1]) * (p.T[0] - o.T[0])

    for run, seq in ((index <= top, order), ((index >= top) | (index == 0), order[::-1])):
        s, run = rows[seq], run[seq]
        count, own = np.cumsum(run)[:-1], np.flatnonzero(run)  # run rows before each q = s[1:]
        last, below = s[own[count - 1]], s[own[np.maximum(count - 2, 0)]]
        if (((turns(last, s[:-1], s[1:]) > 0.0) & ~run[:-1]).any()
                or ((turns(below, last, s[1:]) <= 0.0) & (count > 1)).any()):
            return None
    return rows


def _monotone_chain(rows: list[list[float]]) -> list[list[float]]:
    """Andrew's monotone chain on rows sorted lexicographically, at least
    three and all distinct: the lower then the upper hull, each point kept
    only where the computed turn into the next is positive."""

    def chain(rows: list[list[float]]) -> list[list[float]]:
        # Python floats: the same IEEE arithmetic as numpy scalars, without
        # their per-operation overhead.
        out: list[list[float]] = []
        for p in rows:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) > 0.0:
                    break
                out.pop()
            out.append(p)
        return out

    return chain(rows)[:-1] + chain(rows[::-1])[:-1]


def minkowski_hull_2d(p: VPolytope, q: VPolytope) -> VPolytope:
    """Hull of the planar Minkowski sum via the edge-merge of the two hulls.

    Equivalent to ``hull_2d(minkowski_sum(p, q).vertices)`` but linear in the
    hull sizes instead of quadratic, which is what keeps difference bodies of
    fine polygonal approximations affordable.  The operands' hulls are their
    prepared ``_ccw_hull``.
    """
    if p.dim != 2 or q.dim != 2:
        raise DimensionMismatchError("minkowski_hull_2d expects planar bodies")
    a, b = _ccw_hull(p), _ccw_hull(q)
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
    """Hull-reduced difference body, prepared once per body; falls back to
    deduplication off-plane."""
    if p.dim == 2:
        return p._prepared("difference hull", lambda: minkowski_hull_2d(
            p, transform(p, 1.0, np.zeros(2), reflect=True)))
    return p._prepared("difference hull",
                       lambda: VPolytope(_unique_rows(difference_body(p).vertices)))


def _ccw_hull(p: VPolytope) -> np.ndarray:
    """``hull_2d`` of a planar body's vertices, prepared once: every planar path reads it."""
    return p._prepared("hull", lambda: hull_2d(p.vertices).vertices)


def facets_2d(p: VPolytope) -> HPolytope:
    """One outward-unit-normal halfspace per hull edge of a planar body.

    Points and segments get the bounding halfspaces of their affine hull
    (whose intersection is exactly the body) with ``lower_dimensional`` set.
    """
    if p.dim != 2:
        raise DimensionMismatchError("facets_2d expects a planar body")
    hull = _ccw_hull(p)
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


class _Sectors:
    """max_i rows_i . x over the sectors of a CCW fan, and the least i attaining it.

    Sector i covers the angles from ``starts[i]`` to ``starts[i + 1]``
    (cyclically, counter-clockwise), and ``rows[i]`` attains the maximum on
    it: a polygon's support function and gauge are linear on such sectors
    (rotating calipers; Shamos 1978, Toussaint 1983).  Each point's angle is
    searched among the starts, and the sector found and its two neighbours
    are evaluated, so a sector misplaced by rounding still yields the
    maximum of computed products.  An exact tie among them goes to the
    lowest index, as in ``argmax``.  Time O((n + q) log n) and memory
    O(n + q) for n sectors and q points.  The supports of a linear image
    K M are those of K at M u, so an image needs no sectors of its own.
    """

    def __init__(self, starts: np.ndarray, rows: np.ndarray):
        # Rotate at the fan's one descent, not at its least start: the zero-
        # width sectors of a collinear hull may tie at the least start.
        first = int(np.argmin(starts - np.roll(starts, 1)))
        self.count, self.starts = starts.size, np.concatenate((starts[first:], starts[:first]))
        # The rows by ascending start, with two more wrapped on each side:
        # the sector found for a point and its neighbours are three
        # consecutive entries.
        self.index = np.arange(first - 2, first + starts.size + 2) % starts.size
        self.x, self.y = rows[self.index].T.copy()

    def _near(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The three entries evaluated for each point, and their products."""
        # Angles in [-pi, pi]; one below the least start lies in the last
        # sector, the one that crosses the cut at pi.
        angles = np.arctan2(points[:, 1], points[:, 0])
        near = np.searchsorted(self.starts, angles, side="right")[:, None] + np.arange(3)
        return near, self.x[near] * points[:, :1] + self.y[near] * points[:, 1:]

    def values(self, points: np.ndarray) -> np.ndarray:
        return self._near(points)[1].max(axis=1)

    def __call__(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        near, products = self._near(points)
        values = products.max(axis=1)
        index = np.where(products == values[:, None], self.index[near], self.count)
        return values, index.min(axis=1)


def _support_sectors(p: VPolytope) -> _Sectors:
    """The sectors of a planar body's support function, prepared once per
    body from its ``_ccw_hull``.  Vertex i of the hull is extreme from the
    outward normal of the edge into it to that of the edge out of it; a
    point or a segment has one or two sectors.  The hull keeps every vertex
    whose computed turn is positive, so its supports are the vertex maxima."""
    def build():
        hull = _ccw_hull(p)
        into = hull - np.concatenate((hull[-1:], hull[:-1]))  # the edge into each vertex
        return _Sectors(np.arctan2(-into[:, 0], into[:, 1]), hull)

    return p._prepared("support sectors", build)


# ---------------------------------------------------------------------------
# LP-backed predicates


def member(p: VPolytope, x, tol: float = EPS_LP) -> bool:
    """True iff x is a convex combination of the vertices, within tol.

    Solved as an elastic feasibility LP minimising the L1 residual of the
    combination; LP failures propagate as RuntimeError.  ``tol`` must be
    finite and non-negative.
    """
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
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


def _flat_rank(points: np.ndarray) -> tuple[int, np.ndarray]:
    """Rank of the rows up to 1e-12 of their size, and all d right singular vectors."""
    # U is full only for fewer rows than columns, so never n x n.
    _, singular, vt = np.linalg.svd(points, full_matrices=points.shape[0] < points.shape[1])
    return int(np.count_nonzero(singular > 1e-12 * np.abs(points).max())), vt


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
    interior) reads it off its polar vertices p_f = n_f / b_f: the gauge is
    p_f.x on the cone over facet f, which ``_Sectors`` finds by the angle
    of x among the hull's vertex angles.  Any other body caches the facets
    it meets: an optimal basis of d vertex columns B_f spans the cone over
    one facet, on which the gauge is linear.  A later point x with weights mu = B_f^-1 x >= 0 has
    gauge sum(mu), certified both ways: mu is a feasible weight vector, and
    the basis dual y_f = B_f^-T 1, a polar vertex by optimality, gives
    y_f.x = sum(mu).  Every point of a batch walks from the cached facet
    with the largest y_f.x, in waves (``_walk``), and stops there when its
    cone holds it; the first point, or one whose walk stops short, takes a
    gauge LP.  Each facet is cached once.  The gauge is inf off the cone
    of the vertices.  A flat body (``_flat_rank`` 1..d-1) has gauge inf off its
    span V_r; an inner evaluator of V_r^T v, a fork of that body's
    certificate, answers V_r^T x, and y maps to V_r y.
    """

    def __init__(self, body: VPolytope):
        # A body caches its certificate: a proxy keeps that from being a cycle.
        self.body, self.dim = weakref.proxy(body), body.dim
        self.facets = self.polar_vertices = self.span = None
        rank, vt = body._rank()
        if 0 < rank < body.dim:  # flat: V_r, orthonormal, and the evaluator on it
            self.span = vt[:rank].T
            self.inner = _certified(
                body._prepared("span", lambda: VPolytope(body.vertices @ self.span)))[0].fork()
            return
        if body.dim == 2:
            f = body._prepared("facets", lambda: facets_2d(body))
            if (f.offsets > 0.0).all():  # the polar vertices n_f / b_f
                self.facets, self.polar_vertices = f, body._prepared(
                    "polar", lambda: f.normals / f.offsets[:, None])
                # Facet f is the edge from hull vertex f to f + 1: its cone
                # starts at the angle of vertex f.
                hull = _ccw_hull(body)
                self.sectors = body._prepared("gauge sectors", lambda: _Sectors(
                    np.arctan2(hull[:, 1], hull[:, 0]), self.polar_vertices))
                return
        self.lp = body._prepared("gauge LP", lambda: _GaugeLP(body.vertices))
        self.columns = self.lp.lhs.T  # the scaled vertices, one row per LP column
        # Bases of the cached facets, their inverses (facets, d, d), and the
        # polar vertex y_f of each facet in the body's coordinates.
        self.inverses = np.empty((0, body.dim, body.dim))
        self.normals = np.empty((0, body.dim))
        self.bases = np.empty((0, body.dim), dtype=int)
        # Points answered by a gauge LP and by a walk (one held at pivot 0
        # included), and the waves (calls of _walk).
        self.solved = self.walks = self.waves = 0

    def fork(self) -> "_GaugeEvaluator":
        """A copy that starts from the facets cached here and keeps what it
        learns, and its counts, to itself: ``_cache`` rebinds the facet
        arrays and never writes into them, and ``_walk`` walks on copies.
        An evaluator of polar vertices learns nothing, and is its own fork."""
        if self.polar_vertices is not None:
            return self
        out = copy.copy(self)
        out.solved = out.walks = out.waves = 0
        if self.span is not None:
            out.inner = self.inner.fork()
        return out

    def __call__(self, points) -> np.ndarray:
        return self.with_normals(points)[0]

    def with_normals(self, points) -> tuple[np.ndarray, np.ndarray]:
        """The gauge of each row and a polar vertex y attaining it.

        y.v <= 1 on every vertex v of the body and y.x = gauge(x): the planar
        p_f of the cone found for x (the lowest facet index at an exact tie),
        the B^-T 1 of a walk's last basis, or the gauge LP's dual normal.
        Rows whose gauge is inf get a nan normal.  Off the plane every row
        walks, in waves of as many lanes as keep a pivot's
        two (lanes, n) products over the n vertex columns within
        ``_WAVE_CELLS``; after each wave the new facets that its LPs and the
        walks that left their start basis reached are cached, and later
        waves start from them.
        """
        points = np.atleast_2d(points)
        if self.span is not None:
            local = points @ self.span
            inside = (np.abs(points - local @ self.span.T).max(axis=1)  # _flat_rank's rule
                      <= 1e-12 * np.abs(points).max(axis=1))
            values, normals = np.full(points.shape[0], np.inf), np.full(points.shape, np.nan)
            values[inside], polar = self.inner.with_normals(local[inside])
            normals[inside] = polar @ self.span.T
            return values, normals
        if self.polar_vertices is not None:
            values, best = self.sectors(points)
            return np.maximum(values, 0.0), self.polar_vertices[best]
        values = np.full(points.shape[0], np.nan)
        normals = np.full(points.shape, np.nan)
        waiting = np.arange(points.shape[0])
        lanes = max(1, _WAVE_CELLS // (2 * self.columns.shape[0]))
        while waiting.size:
            size = lanes if self.bases.size else 1  # a body's first point takes the LP alone
            wave, waiting = waiting[:size], waiting[size:]
            self.waves += 1
            values[wave], normals[wave], bases, moved = self._walk(points[wave])
            unwalked = np.isnan(values[wave])
            self.solved += int(unwalked.sum())
            self.walks += wave.size - int(unwalked.sum())
            for j in np.flatnonzero(unwalked):
                values[wave[j]], normal, basis = self.lp(points[wave[j]])
                if basis is not None:
                    normals[wave[j]], bases[j] = normal, basis
            learned = (moved | unwalked) & np.isfinite(values[wave])
            if learned.any():
                self._cache(bases[learned])
        return values, normals

    def _walk(self, points: np.ndarray) -> tuple[np.ndarray, ...]:
        """The gauge LP's answers for a wave of rows by one batched dual
        simplex (Lemke 1954), each row started at the cached facet with the
        largest y_f.x.  Each basis B keeps 1 - a_j.y >= 0 at y = B^-T 1; at
        every pivot, for all rows together, the most negative weight of
        B^-1 x leaves, the ratio test on those reduced costs over its row
        of B^-1 A picks the column that enters, and the new bases are
        inverted as one stack.  A row stops certified optimal (weights and
        reduced costs non-negative; at pivot 0 if its start cone holds it),
        or with inf when its leaving row has no negative entry (x is off the
        cone), or with nan, to take the LP, where rounding has broken the
        certificate, at a singular basis, or uncertified after _WALK_PIVOTS
        pivots; every row gets nan when no facet is cached.  A stopped row
        keeps its basis: rows are classified once.

        Returns the values, the normals B^-T 1 (nan where there is none),
        each row's last basis, the one to cache where the value is finite,
        and whether it left the row's start basis.
        """
        count, d = points.shape
        values = np.full(count, np.nan)
        normals = np.full((count, d), np.nan)
        if not self.bases.size:
            return values, normals, np.zeros((count, d), dtype=int), np.zeros(count, bool)
        start = (points @ self.normals.T).argmax(axis=1)
        basis, inverse = self.bases[start], self.inverses[start]
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
        return values, normals, basis, (basis != self.bases[start]).any(axis=1)

    def _cache(self, bases: np.ndarray) -> None:
        """Cache the facets among optimal ``bases`` whose d columns are vertex
        columns with a condition number within _BASIS_COND and that no cached
        or earlier basis spans, with their inverses."""
        # lp_solver can park an artificial on a dependent row (LpOutcome): no facet.
        bases = bases[(bases < self.columns.shape[0]).all(axis=1)]
        if not bases.size:
            return
        # One facet per set of columns, in any order; the stable sort keeps
        # the cached basis of a set, which is then not cached again.
        known = self.bases.shape[0]
        key = np.sort(np.concatenate([self.bases, bases]), axis=1)
        order = np.lexsort(key.T)
        key = key[order]
        first = order[np.concatenate([[True], (key[1:] != key[:-1]).any(axis=1)])]
        bases = bases[first[first >= known] - known]
        columns = self.columns[bases].transpose(0, 2, 1)
        sound = np.linalg.cond(columns) <= _BASIS_COND
        bases, inverses = bases[sound], np.linalg.inv(columns[sound])
        self.bases = np.concatenate([self.bases, bases])
        self.inverses = np.concatenate([self.inverses, inverses])
        self.normals = np.concatenate([self.normals, inverses.sum(axis=1) * self.lp.scale])

    def slack(self) -> float:
        """1 / max_k gauge(±e_k): the largest rho with ±rho e_k in the body
        for every axis k, in the plane the closed form min_f b_f / |n_f|_inf
        = 1 / max_f |p_f|_inf.  -1 when the origin is not interior: a planar
        body then has no polar vertices, and elsewhere some ±e_k leaves the
        cone, gauge inf.  The first axis is evaluated alone, so an origin
        off the cone of the vertices costs one LP; the other 2d - 1 axes are
        one batch."""
        if self.polar_vertices is not None:
            return 1.0 / float(np.abs(self.polar_vertices).max())
        if self.dim == 2:
            return -1.0
        axes = np.vstack([np.eye(self.dim), -np.eye(self.dim)])
        top = float(self(axes[0])[0])
        if top < np.inf:
            top = max(top, float(self(axes[1:]).max()))
        return -1.0 if top == np.inf else 1.0 / top


def _certified(p: VPolytope) -> tuple[_GaugeEvaluator, float]:
    """p's interior certificate, prepared once per body: the evaluator that
    ran ``slack``, with the facet cones it met, and the slack.  Every gauge
    evaluator of p is a ``fork`` of it."""
    def build():
        evaluate = _GaugeEvaluator(p)
        return evaluate, evaluate.slack()

    return p._prepared("certificate", build)


def interior_slack(p: VPolytope, point) -> float:
    """``_GaugeEvaluator.slack`` of the body translated by -point; a slack
    of at least ``_interior_margin(p)`` certifies ``point`` interior."""
    return _certified(VPolytope(p.vertices - _as_vector(point, p.dim)))[1]


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
