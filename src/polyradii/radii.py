"""Circumradius, inradius, diameter, and minimum width relative to a gauge body.

Every quantity reduces to a containment problem solved by linear
programming.  Circumradius and inradius share one engine in every
dimension: K lies in x + lambda*C exactly when h_K(u) <= <u, x> +
lambda h_C(u) for every facet normal u of C (and x + lambda*C in K is the
mirror condition over the facets of K).  Kelley's cutting planes solve this
support-function program on a master of d + 1 rows, and a batched gauge of
the outer body supplies the facets the master's solution violates.  In the
plane every facet is known at the start, so one master solve suffices;
flat bodies are restricted to their affine hull first.  Gauges are read
off the facets in the plane and off the facet cones their LPs have met
elsewhere.  The planar diameter and the chain's pair-gauge member swap the
maximum over vertex pairs for one over the gauge's polar vertices
p_f = n_f / b_f: sup_{i,j} gauge(v_j - v_i) = max_f (h_K(p_f) + h_K(-p_f)).
The polar vertex attaining the diameter certifies the chain's support-ratio
member in every dimension, with no sampled directions.
Minimum width inscribes C-C in K-K, and an interior point is the centre of
the largest cross-polytope inside the body: both are read off the same
gauges and engine.

Gauge bodies are used exactly as given whenever the origin is already
interior; otherwise they are recentered by an interior point, which is
legal for all four quantities because each is invariant under independent
translations of both arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lp_solver
from .convex_core import (
    DimensionMismatchError,
    LowerDimensionalError,
    VPolytope,
    _GaugeEvaluator,
    _as_vector,
    _column_scales,
    _extent,
    _interior_margin,
    _power_of_two_scale,
    difference_hull,
    facets_2d,
)
from .functionals import (
    FunctionalValue,
    GaugeBody,
    GaugeError,
    gauge,
    support_values,
)
from .lp_solver import EQUAL, GREATER_EQUAL, LESS_EQUAL, LinearProgram

_CENTERED_TOL = 1e-9

# Cut rounds after which the containment engine reports no convergence.
_MAX_CUT_ROUNDS = 100


@dataclass(frozen=True, eq=False)
class RadiiResult:
    """One size quantity with its witness: center (R, r), vertex-index pair
    into the body's vertex list (D), or direction (omega)."""

    quantity: str
    value: float
    center: np.ndarray | None = None
    pair: tuple[int, int] | None = None
    direction: np.ndarray | None = None

    def to_dict(self) -> dict:
        out: dict = {"value": float(self.value)}
        if self.center is not None:
            out["center"] = [float(v) for v in self.center]
        if self.pair is not None:
            out["pair"] = [int(self.pair[0]), int(self.pair[1])]
        if self.direction is not None:
            out["direction"] = [float(v) for v in self.direction]
        return out


@dataclass(frozen=True, eq=False)
class ChainReport:
    """The five-member inequality chain linking the diameter representations.

    a1 = 2 sup_u h_{K-K}(u) / h_{C-C}(u)        (support ratio at y*)
    a2 = 2 sup R({x, y}, C) over point pairs    (diameter)
    a3 = R(K-K, (C-C)/2)                        (containment LP)
    a4 = R(K-K, C)                              (containment LP)
    a5 = sup gauge_C(x - y) over point pairs

    The first three agree and the chain a3 <= a4 <= a5 always holds, with
    equality throughout when the gauge body is centered.  a1 is evaluated
    at the polar vertex certifying a2, so it is exact in every dimension
    and ``a1_certified`` is always True; every flag, the chord-ratio check
    included, is two-sided.
    """

    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    flags: dict = field(default_factory=dict)
    tol: float = 1e-6
    a1_certified: bool = True

    @property
    def ok(self) -> bool:
        checked = (
            "a1_eq_a2",
            "a2_eq_a3",
            "a3_le_a4",
            "a4_le_a5",
            "diameter_le_2R",
            "eq_chord_ratio",
            "equality_case_ok",
        )
        return all(self.flags[name] for name in checked)

    def to_dict(self) -> dict:
        return {
            "a1": float(self.a1),
            "a2": float(self.a2),
            "a3": float(self.a3),
            "a4": float(self.a4),
            "a5": float(self.a5),
            "flags": dict(self.flags),
            "tol": float(self.tol),
            "a1_certified": bool(self.a1_certified),
        }


def _check_dims(k: VPolytope, c: VPolytope) -> None:
    if k.dim != c.dim:
        raise DimensionMismatchError(f"dims differ: {k.dim} vs {c.dim}")


# ---------------------------------------------------------------------------
# circumradius and inradius: one containment engine


def circumradius(k: VPolytope, c: VPolytope) -> RadiiResult:
    """Least lambda such that some translate x + lambda*C contains K."""
    _check_dims(k, c)
    return _containment("circumradius", k, c)


def inradius(k: VPolytope, c: VPolytope) -> RadiiResult:
    """Greatest lambda such that some translate x + lambda*C fits inside K."""
    _check_dims(k, c)
    return _containment("inradius", k, c)


@dataclass(frozen=True, eq=False)
class _Frame:
    """The outer body of the containment engine in the engine's coordinates.

    Its vertices are translated by -``shift``, their centroid, and restricted
    to their affine hull, flat up to rounding of its own size as in hull_2d:
    the columns of ``hull`` are its axes (the identity, which is exact, when
    it is all of space), and each axis is scaled by the power of two in
    ``scales``.  ``extent`` is the largest entry of the translated vertices,
    and ``evaluate`` the gauge evaluator of the framed vertices, None when
    the hull is a point.
    """

    shift: np.ndarray
    hull: np.ndarray
    scales: np.ndarray
    extent: float
    vertices: np.ndarray
    evaluate: _GaugeEvaluator | None


def _frame(outer: VPolytope, known: _GaugeEvaluator | None = None) -> _Frame:
    """The containment frame of the outer body ``outer``; it takes the
    evaluator ``known`` when that was built on exactly its framed vertices
    (a gauge body recentred at its centroid, say), so their facet cones are
    shared."""
    shift = outer.vertices.mean(axis=0)
    centred = outer.vertices - shift
    rank, vt = _flat_rank(centred)
    hull = np.eye(outer.dim) if rank == outer.dim else vt[:rank].T
    scales = _column_scales(centred @ hull)
    vertices = centred @ hull * scales
    if known is None or not np.array_equal(known.body.vertices, vertices):
        known = _GaugeEvaluator(VPolytope(vertices)) if rank else None
    return _Frame(shift, hull, scales, float(np.abs(centred).max()), vertices, known)


def _containment(program: str, k: VPolytope, c: VPolytope,
                 frame: _Frame | None = None) -> RadiiResult:
    """R (``program`` "circumradius") or r ("inradius") by facet generation.

    The outer body (C for R, K for r) is put in its ``_frame``, which the
    caller may pass when it has one, and the inner body is translated to
    its vertex centroid: an inner body that leaves the outer body's affine
    hull has no finite R, and r = 0.  The inner body is scaled like the
    outer one, and by one more power of two, so lambda is near 1 for long
    thin bodies too; the radius does not see these maps.
    """
    circum = program == "circumradius"
    if not circum and not np.ptp(c.vertices, axis=0).any():
        raise ValueError("inradius is unbounded: the gauge body is a single point")
    if frame is None:
        frame = _frame(c if circum else k)
    inner = (k if circum else c).vertices
    inner_shift = inner.mean(axis=0)
    inner = inner - inner_shift
    k_shift, c_shift = (inner_shift, frame.shift) if circum else (frame.shift, inner_shift)
    hull = frame.hull
    size = max(frame.extent, np.abs(inner).max())
    if np.abs(inner - inner @ hull @ hull.T).max() > 1e-12 * size:
        if circum:
            raise RuntimeError("circumradius is unbounded: no multiple of the flat "
                               "gauge body covers the body")
        return RadiiResult("r", 0.0, center=k_shift)
    inner = inner @ hull * frame.scales
    # R(aK, C) = a R(K, C) with centre a x; r(K, aC) = r(K, C) / a, same centre.
    a = _power_of_two_scale(float(np.abs(inner).max(initial=0.0)))
    lam, x = (_facet_generation(program, a * inner, frame.vertices, frame.evaluate)
              if hull.shape[1] else (0.0, np.zeros(0)))
    lam, x = (lam / a, x / a) if circum else (lam * a, x)
    center = k_shift + hull @ (x / frame.scales) - lam * c_shift
    return RadiiResult("R" if circum else "r", lam, center=center)


def _flat_rank(points: np.ndarray) -> tuple[int, np.ndarray]:
    """Rank of the rows up to 1e-12 of their size, and their right singular vectors."""
    _, singular, vt = np.linalg.svd(points, full_matrices=False)
    return int(np.count_nonzero(singular > 1e-12 * np.abs(points).max())), vt


def _facet_generation(program: str, inner: np.ndarray, outer: np.ndarray,
                      evaluate: _GaugeEvaluator) -> tuple[float, np.ndarray]:
    """Kelley's cutting planes on the support-function containment program.

    The outer body is full-dimensional with the origin interior.  Every
    direction u gives a valid cut, with b = h_outer(u) and h = h_inner(u):
    R is min lambda with <u, x> + b lambda >= h, and r is max lambda with
    <u, x> + h lambda <= b.  Each master solves the dual program on the
    cuts so far, d + 1 rows whatever their number, and the oracle evaluates
    the gauge of the outer body where the master's solution needs it: at
    v_j - x over K's vertices for R, at x + lambda c_i over C's for r.  The
    polar vertices attaining it at the violated points are the next cuts,
    so a cut costs no LP of its own.  The loop stops when the oracle's bound
    is within 1e-9 max(1, lambda) of the master's.  In the plane every facet
    is a cut from the start, so the first oracle call ends the loop; off the
    plane R starts with no cut and r with the bounding box of K, which keeps
    its master bounded.
    """
    circum = program == "circumradius"
    d = outer.shape[1]
    inner_body, outer_body = VPolytope(inner), VPolytope(outer)
    if evaluate.facets is not None:
        normals, offsets = evaluate.facets.normals, evaluate.facets.offsets
    elif circum:
        normals, offsets = np.empty((0, d)), np.empty(0)
    else:
        normals = np.vstack([np.eye(d), -np.eye(d)])
        offsets = np.concatenate([outer.max(axis=0), -outer.min(axis=0)])
    supports = support_values(inner_body, normals)
    lam, x, gap = 0.0, np.zeros(d), np.inf
    for _ in range(_MAX_CUT_ROUNDS):
        master = f"{program} facet LP ({d + 1} x {offsets.size})"
        if offsets.size:
            # Dual form of the primal: max h'y with U'y = 0, b'y <= 1 for R,
            # min b'y with U'y = 0, h'y >= 1 for r, y >= 0.  The duals of the
            # U'y = 0 rows are the centre (negated for R).  b and h are
            # divided by their common max-abs scale, which keeps lambda and
            # scales the centre back, so the LP tolerances hold at any size.
            scale = float(max(np.abs(offsets).max(), np.abs(supports).max())) or 1.0
            b, h = offsets / scale, supports / scale
            cost, last, relation = (-h, b, LESS_EQUAL) if circum else (b, h, GREATER_EQUAL)
            out = lp_solver.solve(LinearProgram(cost, np.vstack([normals.T, last]),
                                                (EQUAL,) * d + (relation,), np.eye(d + 1)[d]))
            if out.status != lp_solver.OPTIMAL:
                raise RuntimeError(f"{master} ended with status {out.status} (d={d}, "
                                   f"{offsets.size} cuts, last oracle-master gap {gap:.3e})")
            if out.duals is None:
                raise RuntimeError(f"{master} returned no duals")
            sign = -1.0 if circum else 1.0
            lam, x = max(0.0, sign * out.value), sign * out.duals[:d] * scale
        points = inner - x if circum else x + lam * inner
        values, polar = evaluate.with_normals(points)
        if not np.isfinite(values).all():
            raise RuntimeError(f"{master}: the oracle's gauge LP is infeasible at "
                               f"{np.count_nonzero(np.isinf(values))} of {values.size} points")
        # The oracle's bound from each point: x + gauge * C covers v_j for R,
        # and (x, lambda) / gauge is feasible for r.
        gaps = values - lam if circum else lam - lam / np.maximum(values, 1.0)
        gap = float(gaps.max())
        tol = 1e-9 * max(1.0, lam)
        if gap <= tol:
            return lam, x
        known = normals.shape[0]
        for u in polar[gaps > tol]:
            u = u / np.linalg.norm(u)
            if not normals.size or np.abs(normals - u).max(axis=1).min() > 1e-9:
                normals = np.vstack([normals, u])
        if normals.shape[0] == known:
            # Only cuts the master holds are violated, which its tolerance
            # allows up to 1e-7.
            if gap <= 1e-7 * max(1.0, lam):
                return lam, x
            raise RuntimeError(f"{master}: the centre from its duals violates a "
                               f"constraint by {gap:.3e}")
        fresh = normals[known:]
        offsets = np.concatenate([offsets, support_values(outer_body, fresh)])
        supports = np.concatenate([supports, support_values(inner_body, fresh)])
    raise RuntimeError(f"{program} facet generation did not converge in "
                       f"{_MAX_CUT_ROUNDS} rounds (d={d}, {offsets.size} cuts, "
                       f"last oracle-master gap {gap:.3e})")


# ---------------------------------------------------------------------------
# diameter


def _half_difference_gauge(c: VPolytope) -> GaugeBody:
    half = VPolytope(0.5 * difference_hull(c).vertices)
    try:
        return GaugeBody.from_polytope(half)
    except GaugeError as exc:
        raise ValueError(
            "diameter/width need a full-dimensional gauge body"
        ) from exc


def _tie_floor(top: float) -> float:
    """Values at or above this floor tie the maximum ``top`` up to rounding."""
    return top - 1e-9 * max(1.0, top)


def diameter(k: VPolytope, c: VPolytope) -> RadiiResult:
    """2 sup R({x, y}, C): the diameter in the norm with unit ball (C-C)/2.

    The supremum over the hull is attained on vertex pairs; the witness is
    the lexicographically first attaining index pair of the vertex list.
    In the plane the pair maximum is swapped with the facet maximum: with
    p_f = n_f / b_f the polar vertices of (C-C)/2,
    D = max_f (h_K(p_f) + h_K(-p_f)), the widest strip between parallel
    supporting lines of K measured in the gauge, read off one n x F product.
    """
    _check_dims(k, c)
    value, pair, _ = _diameter(k, _half_difference_gauge(c))
    return RadiiResult("D", value, pair=pair)


def _diameter(k: VPolytope, half: GaugeBody) -> tuple[float, tuple[int, int],
                                                       np.ndarray | None]:
    """D, its witness pair (i, j), and the polar vertex y* of ``half`` =
    (C-C)/2 at v_j - v_i, or None when K has one vertex.

    y*.w <= 1 on every vertex w of (C-C)/2 and y*.(v_j - v_i) = D, so
    2 h_{K-K}(y*) / h_{C-C}(y*) >= D: y* is D's dual certificate.
    """
    verts = k.vertices
    if verts.shape[0] == 1:
        return 0.0, (0, 0), None
    # The gauge of (C-C)/2 is symmetric, so the first row attaining the
    # maximum has an attaining partner after it; that row is evaluated again
    # for its first attaining column and that column's polar vertex.
    row_max = half._evaluate.pairwise_maxima(verts, symmetric=True)
    top = float(row_max.max())
    i = int(np.argmax(row_max >= _tie_floor(top)))
    values, polar = half._evaluate.with_normals(verts[i + 1:] - verts[i])
    j = int(np.argmax(values >= _tie_floor(top)))
    return max(0.0, top), (i, i + 1 + j), polar[j]


# ---------------------------------------------------------------------------
# minimum width


def _degenerate_direction(diff: VPolytope) -> np.ndarray:
    """A unit direction in which a lower-dimensional difference body is flat."""
    _, _, vt = np.linalg.svd(diff.vertices, full_matrices=True)
    return vt[-1]


def min_width(k: VPolytope, c: VPolytope) -> RadiiResult:
    """Thinnest relative slab: 2 inf_u h_{K-K}(u) / h_{C-C}(u).

    Equal to twice the largest t with t*(C-C) inscribed in K-K.  Both bodies
    are centered, so the inscribing translate is the origin and
    t = 1 / max_w gauge_{K-K}(w) over the vertices w of C-C.  In the plane
    the facet closed form gives the value and the witness, the facet normal
    of K-K with the least ratio.  Off the plane the gauges are one batched
    evaluation, and the witness is the unit polar vertex of K-K attaining
    the largest gauge: its support ratio is the width.
    """
    _check_dims(k, c)
    a = difference_hull(k)
    b = difference_hull(c)
    d = k.dim

    if d == 2:
        if len(b) <= 2:  # b is a planar hull
            raise ValueError("diameter/width need a full-dimensional gauge body")
        value, direction = _facet_width_2d(a, b)
        return RadiiResult("omega", value, direction=direction)

    if _flat_rank(b.vertices)[0] < d:
        raise ValueError("diameter/width need a full-dimensional gauge body")
    if _flat_rank(a.vertices)[0] < d:
        return RadiiResult("omega", 0.0, direction=_degenerate_direction(a))

    # The origin vertex of C-C imposes no constraint.
    nonzero = np.linalg.norm(b.vertices, axis=1) > 1e-12 * _extent(b)
    values, normals = _GaugeEvaluator(a).with_normals(b.vertices[nonzero])
    top = float(values.max())
    normal = normals[int(np.argmax(values >= _tie_floor(top)))]
    return RadiiResult("omega", 2.0 / top, direction=normal / np.linalg.norm(normal))


def _facet_width_2d(a: VPolytope, b: VPolytope) -> tuple[float, np.ndarray]:
    """Minimal ratio 2 h_A(u) / h_B(u) over the facet normals u of A; 0 for
    a flat A, along the first normal of its affine hull."""
    fa = facets_2d(a)
    if fa.lower_dimensional:
        return 0.0, fa.normals[0]
    ratios = 2.0 * fa.offsets / support_values(b, fa.normals)
    arg = int(np.argmin(ratios))
    return float(ratios[arg]), fa.normals[arg]


# ---------------------------------------------------------------------------
# the induced norm and the centered fast path


def induced_norm(c: VPolytope, x) -> FunctionalValue:
    """The norm x -> 2 R({0, x}, C), whose unit ball is (C-C)/2."""
    gb = _half_difference_gauge(c)
    return gauge(gb, _as_vector(x, c.dim))


def _is_centered(p: VPolytope) -> bool:
    """Every vertex has its negation in the list, up to the body's extent."""
    sums = p.vertices[:, None, :] + p.vertices[None, :, :]
    return bool(np.abs(sums).max(axis=2).min(axis=1).max() <= _CENTERED_TOL * _extent(p))


def symmetric_circumradius(k: VPolytope, c: GaugeBody) -> float:
    """Centered fast path: R(K, C) = max gauge over K's vertices.

    Requires both vertex lists to be closed under negation; rejects anything
    else, because the identity fails for non-centered bodies.
    """
    _check_dims(k, c)
    if not _is_centered(k):
        raise ValueError("symmetric circumradius needs a centered body")
    if not _is_centered(c.body):
        raise ValueError("symmetric circumradius needs a centered gauge body")
    return float(c._evaluate(k.vertices).max())


# ---------------------------------------------------------------------------
# the inequality chain


def interior_point(p: VPolytope) -> np.ndarray:
    """The vertex centroid when it certifies as interior, else the centre of
    the largest cross-polytope conv{x ± rho e_k} inside the hull.

    A point certifies when its ``interior_slack`` exceeds
    ``_interior_margin(p)``; the slack of the cross-polytope's centre is
    its inradius r(P, conv{±e_k}).  Raises LowerDimensionalError when no
    point certifies, i.e. the hull has empty interior at working precision;
    the engine gives r = 0 for flat bodies.
    """
    return _interior_gauge_at(p)[0]


def _interior_gauge_at(p: VPolytope) -> tuple[np.ndarray, GaugeBody]:
    """``interior_point(p)`` and p translated by it as a gauge body, which
    keeps the evaluator whose slack certified the centroid."""
    centroid = p.vertices.mean(axis=0)
    margin = _interior_margin(p)
    evaluate = _GaugeEvaluator(VPolytope(p.vertices - centroid))
    if evaluate.slack() > margin:
        return centroid, GaugeBody._certified(evaluate)
    fit = inradius(p, VPolytope(np.vstack([np.eye(p.dim), -np.eye(p.dim)])))
    if fit.value > margin:
        return fit.center, GaugeBody(VPolytope(p.vertices - fit.center), np.zeros(p.dim))
    raise LowerDimensionalError("polytope has empty interior")


def _interior_gauge(c: VPolytope) -> tuple[GaugeBody, np.ndarray]:
    """C as a gauge body: as given when the origin is interior, else
    recentered at the point that ``interior_point`` has certified."""
    try:
        return GaugeBody.from_polytope(c), np.zeros(c.dim)
    except GaugeError:
        shift, gauge_body = _interior_gauge_at(c)
        return gauge_body, shift


def _unit_rows(vertices: np.ndarray) -> np.ndarray:
    """The rows scaled to unit length, less those near zero for their scale."""
    norms = np.linalg.norm(vertices, axis=1)
    keep = norms > 1e-12 * norms.max()
    return vertices[keep] / norms[keep, None]


def verify_chain(k: VPolytope, c: VPolytope, tol: float = 1e-6) -> ChainReport:
    """Compute the five chain members by independent routes and check them.

    Also checks the chord-ratio representation of the diameter and the
    classical bound D <= 2R.  a1 is the largest support ratio over the
    vertex directions of C-C and the polar vertex y* of (C-C)/2 that
    certifies D.  No direction exceeds D and y* attains it, so a1 = a2
    checks D's certificate in every dimension.
    """
    _check_dims(k, c)
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = difference_hull(k)
    gauge_c, shift = _interior_gauge(c)
    half = _half_difference_gauge(c)
    b = VPolytope(2.0 * half.body.vertices)  # C-C: halving and doubling are exact

    a2, _, y_star = _diameter(k, half)
    directions = _unit_rows(b.vertices)
    sweep = directions if y_star is None else np.vstack([y_star, directions])
    a1 = 2.0 * float(np.max(support_values(a, sweep) / support_values(b, sweep)))
    # a4 and 2R share C's frame, which takes the evaluator of C's gauge body
    # when that is C recentred at its centroid; a3's frame takes half's.
    a3 = _containment("circumradius", a, half.body, _frame(half.body, half._evaluate)).value
    frame_c = _frame(c, gauge_c._evaluate)
    a4 = _containment("circumradius", a, c, frame_c).value
    a5 = float(gauge_c._evaluate.pairwise_maxima(k.vertices).max())

    # Chord-ratio representation of the diameter (convex bodies).
    # Chord lengths are reciprocal gauges of the centered bodies K-K and
    # C-C, so the chord ratio along u is gauge_B(u) / gauge_A(u).  On the
    # boundary of A it is the convex gauge_B, which peaks at a vertex of A:
    # the vertex directions of A attain the supremum in every dimension.
    # Skip the directions with no chord of K-K or a vanishing chord of C-C.
    chord_sweep = np.vstack([_unit_rows(a.vertices), directions])
    gamma_a = _GaugeEvaluator(a)(chord_sweep)
    gamma_b = 0.5 * half._evaluate(chord_sweep)  # C-C = 2 (C-C)/2
    keep = np.isfinite(gamma_a) & (gamma_b < 1e12)
    chord_value = 2.0 * float(np.max(gamma_b[keep] / gamma_a[keep])) if keep.any() else 0.0

    two_r = 2.0 * _containment("circumradius", k, c, frame_c).value
    # C = -C exactly when the origin is interior and C holds -v for each vertex v.
    centered = bool(not shift.any()
                    and gauge_c._evaluate(-c.vertices).max() <= 1.0 + _CENTERED_TOL)

    a1_consistent = bool(abs(a1 - a2) <= tol)
    flags = {
        "a1_eq_a2": a1_consistent,
        "a2_eq_a3": bool(abs(a2 - a3) <= tol),
        "a3_le_a4": bool(a3 <= a4 + tol),
        "a4_le_a5": bool(a4 <= a5 + tol),
        "diameter_le_2R": bool(a2 <= two_r + tol),
        "centered_gauge": centered,
        "eq_chord_ratio": bool(abs(chord_value - a2) <= tol),
    }
    spread = max(a2, a3, a4, a5) - min(a2, a3, a4, a5)
    all_equal = bool(a1_consistent and spread <= tol and abs(a5 - a1) <= tol)
    flags["all_equal"] = all_equal
    flags["equality_case_ok"] = bool(not centered or all_equal)

    return ChainReport(a1, a2, a3, a4, a5, flags=flags, tol=tol)


# ---------------------------------------------------------------------------
# aggregate report


def radii_report(k: VPolytope, c: VPolytope, quantities=("R", "r", "D", "omega"),
                 chain: bool = True, tol: float = 1e-6) -> dict:
    """All requested quantities plus the chain report, in stable key order."""
    report: dict = {}
    if "R" in quantities:
        report["R"] = circumradius(k, c).to_dict()
    if "r" in quantities:
        report["r"] = inradius(k, c).to_dict()
    if "D" in quantities:
        report["D"] = diameter(k, c).to_dict()
    if "omega" in quantities:
        report["omega"] = min_width(k, c).to_dict()
    if chain:
        report["chain"] = verify_chain(k, c, tol=tol).to_dict()
    return report
