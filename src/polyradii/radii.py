"""Circumradius, inradius, diameter, and minimum width relative to a gauge body.

Every quantity reduces to a containment problem solved by linear
programming.  Circumradius and inradius share one program in every
dimension: K lies in x + lambda*C exactly when h_K(u) <= <u, x> +
lambda h_C(u) for every facet normal u of C, and containment of homothets
is self-dual, so r(K, C) = 1 / R(C, K).  Kelley's cutting planes solve this
support-function program on a warm-started master of d + 1 rows, the
revised primal simplex of ``lp_solver`` that the gauge LPs also run, and a
batched gauge of C supplies the facets its solution violates.  In
the plane C's facets alone are the cuts, and one master from a facet basis
C prepares suffices, with no gauge; elsewhere the master starts from the
facet cones C's gauge evaluator already holds, each once.  K's supports
are read through the linear map of C's frame.  The engine keeps the best
centre its gauge has bounded, and stops as soon as a master's lambda
meets that bound; a flat C is restricted to its affine hull first.  Gauges
are read off the facets in the plane and off the facet cones their LPs
have met elsewhere; planar gauges and supports take one angular search per
point, so no planar path forms a product of two vertex lists.  The planar diameter swaps the
maximum over vertex pairs for one over the gauge's polar vertices
p_f = n_f / b_f:
sup_{i,j} gauge(v_j - v_i) = max_f (h_K(p_f) + h_K(-p_f)); off the plane
its pairs are one batched gauge, and the chain's pair-gauge member is one
gauge of C at the vertices of K-K.
The polar vertex attaining the diameter certifies the chain's support-ratio
member in every dimension, with no sampled directions; that member reads
h_K(u) + h_K(-u) and h_C(u) + h_C(-u), not the supports of K-K and C-C.
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
    _WAVE_CELLS,
    _GaugeEvaluator,
    _as_vector,
    _certified,
    _column_scales,
    _extent,
    _interior_margin,
    _power_of_two_scale,
    difference_hull,
)
from .functionals import (
    FunctionalValue,
    GaugeBody,
    GaugeError,
    gauge,
    support_values,
)

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
# circumradius and inradius: one containment program


def circumradius(k: VPolytope, c: VPolytope) -> RadiiResult:
    """Least lambda such that some translate x + lambda*C contains K."""
    _check_dims(k, c)
    return RadiiResult("R", *_circumradius(k, c))


def _circumradius(k: VPolytope, c: VPolytope,
                  frame: _Frame | None = None) -> tuple[float, np.ndarray]:
    """R(K, C) and its centre, or RuntimeError when K leaves a flat C's hull."""
    lam, center = _containment("circumradius", k, c, frame)
    if np.isinf(lam):
        raise RuntimeError("circumradius is unbounded: no multiple of the flat "
                           "gauge body covers the body")
    return lam, center


def inradius(k: VPolytope, c: VPolytope) -> RadiiResult:
    """Greatest lambda such that some translate x + lambda*C fits inside K:
    1 / R(C, K), with centre -y / R for R's centre y, since C lies in
    y + mu*K exactly when -y/mu + C/mu lies in K.  A C that leaves a flat
    K's affine hull has R = inf, and r = 0 at K's vertex centroid."""
    _check_dims(k, c)
    if not np.ptp(c.vertices, axis=0).any():
        raise ValueError("inradius is unbounded: the gauge body is a single point")
    mu, y = _containment("inradius", c, k)
    if np.isinf(mu):
        return RadiiResult("r", 0.0, center=k.vertices.mean(axis=0))
    return RadiiResult("r", 1.0 / mu, center=(0.0 - y) / mu)  # no -0.0 where y is 0


@dataclass(frozen=True, eq=False)
class _Frame:
    """The outer body of the containment engine in the engine's coordinates.

    Its vertices are translated by -``shift``, their centroid or the
    origin, and restricted to their affine hull, flat by the rule of
    ``_flat_rank``: the columns of ``hull`` are its axes (the identity,
    which is exact, when it is all of space), and each axis is scaled by
    the power of two in ``scales``.  ``extent`` is the largest entry of the
    translated vertices, and ``evaluate`` a gauge evaluator of the framed
    vertices (None when the hull is a point), the one part forked per call.
    """

    shift: np.ndarray
    hull: np.ndarray
    scales: np.ndarray
    extent: float
    evaluate: _GaugeEvaluator | None


def _frame(outer: VPolytope, known: _GaugeEvaluator | None = None,
           origin: bool = False) -> _Frame:
    """The containment frame of ``outer`` about the origin, or about its
    vertex centroid when ``origin`` is False.  It takes the evaluator
    ``known`` when that was built on exactly its framed vertices (a gauge
    body recentred at its centroid, or a centred body about the origin, no
    axis scaled): they share cones."""
    centred = outer if origin else _recentred(outer)

    def build():
        rank, vt = centred._rank()
        hull = np.eye(outer.dim) if rank == outer.dim else vt[:rank].T
        scales = _column_scales(centred.vertices @ hull)
        framed = VPolytope(centred.vertices @ hull * scales) if rank else None
        return hull, scales, float(np.abs(centred.vertices).max()), framed

    hull, scales, extent, framed = centred._prepared("frame", build)
    if framed is None or known is None or not np.array_equal(known.body.vertices,
                                                             framed.vertices):
        known = None if framed is None else _certified(framed)[0].fork()
    shift = np.zeros(outer.dim) if origin else outer._centroid()
    return _Frame(shift, hull, scales, extent, known)


def _recentred(p: VPolytope) -> VPolytope:
    """p translated by minus its vertex centroid, prepared once per body."""
    return p._prepared("recentred", lambda: VPolytope(p.vertices - p._centroid()))


def _containment(program: str, k: VPolytope, c: VPolytope,
                 frame: _Frame | None = None) -> tuple[float, np.ndarray]:
    """R(K, C) and its centre by facet generation; ``program`` names the
    quantity asked for in error messages.

    C is put in its ``_frame``, which the caller may pass when it has one,
    and K is translated to its vertex centroid: a K that leaves C's affine
    hull has no finite R, and lambda is inf.  K is mapped by the frame's one
    linear map M = a hull diag(scales), one more power of two a bringing it
    near 1, so lambda is near 1 for long thin bodies too, and its supports
    are read through M off K recentred: h_{KM}(u) = h_K(M u).
    """
    if frame is None:
        frame = _frame(c)
    shift, centred, hull = k._centroid(), _recentred(k), frame.hull
    vertices = centred.vertices
    if hull.shape[1] < k.dim and np.abs(vertices - vertices @ hull @ hull.T).max() > 1e-12 * max(
            frame.extent, np.abs(vertices).max()):
        return np.inf, shift
    # A full frame's hull is the identity, whose products are exact.
    inner = vertices @ hull * frame.scales
    # R(aK, C) = a R(K, C) with centre a x.
    a = _power_of_two_scale(float(np.abs(inner).max(initial=0.0)))
    lam, x = 0.0, np.zeros(0)
    if hull.shape[1]:
        lam, x = _facet_generation(
            program, a * inner,
            lambda u: a * support_values(centred, (u * frame.scales) @ hull.T), frame.evaluate)
    lam = lam / a
    return lam, shift + hull @ (x / a / frame.scales) - lam * frame.shift


def _require_finite(values: np.ndarray, program: str) -> None:
    """RuntimeError where ``program`` has given inf for a gauge that is finite."""
    if not np.isfinite(values).all():
        raise RuntimeError(f"{program} is infeasible at "
                           f"{np.count_nonzero(np.isinf(values))} of {values.size} points")


def _facet_generation(program: str, inner: np.ndarray, supports_of,
                      evaluate: _GaugeEvaluator) -> tuple[float, np.ndarray]:
    """Kelley's cutting planes on the support-function containment program.

    The outer body is full-dimensional with the origin interior.  Every
    direction u gives a valid cut of min lambda subject to
    <u, x> + b lambda >= h, with b = h_outer(u) and h = h_inner(u) from
    ``supports_of``.  Each master is ``_simplex``, the kernel of ``lp_solver`` on the dual of the
    cuts so far, d + 1 rows, from the last master's basis, or first from
    the start cuts e_1..e_d and -1/sqrt(d).  The oracle is the outer body's
    gauge at v_j - x over the inner vertices ``inner``, and the polar vertices
    attaining it at violated points are the next cuts.  Its bound max_j gauge(v_j - x) is an upper
    bound on lambda, the master's a lower one, and the least so far with its
    centre is the incumbent.  The loop stops when the oracle's bound is
    within 1e-9 max(1, lambda) of the master's, or, right after a master,
    when the incumbent's is, returning the incumbent's centre.  In the plane
    the cuts are the facets alone, the points their polar vertices, and the
    master starts from the prepared facets 0, b and b + 1, b the last whose
    normal turns less than pi from facet 0's: their polar vertices hold the
    origin (on an edge at a gap of pi).  The cuts' bound max_f (h_f -
    <u_f, x>) / b_f is the oracle's, so one master ends the loop.  Off
    the plane the cuts also start from the facet cones ``evaluate`` holds,
    their polar vertices y_f scaled to unit length, each once, and the first oracle is
    taken at the inner centroid, before any master: for two centred bodies
    it attains R, and the first master meets it.  The outer body is
    ``evaluate.body``.  ``program`` names the quantity in errors.
    """
    d, outer_body = evaluate.dim, evaluate.body
    planar = evaluate.facets is not None
    if planar:
        normals, offsets = evaluate.facets.normals, evaluate.facets.offsets
        b = outer_body._prepared("start basis", lambda: int(np.flatnonzero(  # turns < pi
            normals[0, 0] * normals[:-1, 1] > normals[0, 1] * normals[:-1, 0]).max(initial=1)))
        basis = np.array([0, b, b + 1])
    else:
        start = np.vstack([np.eye(d), np.full((1, d), -d ** -0.5)])
        cones = evaluate.normals / np.linalg.norm(evaluate.normals, axis=1)[:, None]
        # Cones of one non-simplicial facet share its polar vertex, and such
        # twin cuts make the master singular: drop each cone within 1e-9 of
        # an earlier one next to it in lexicographic order.
        order = np.lexsort(cones.T)
        twins = np.abs(np.diff(cones[order], axis=0)).max(axis=1) <= 1e-9
        cones = np.delete(cones, np.maximum(order[:-1], order[1:])[twins], axis=0)
        normals = np.vstack([start, cones])
        offsets, basis = support_values(outer_body, normals), np.arange(d + 1)
    supports = supports_of(normals)
    lam, x, gap = 0.0, np.zeros(d), np.inf
    upper, centre = np.inf, x  # the incumbent: the least oracle bound and its centre
    for rounds in range(_MAX_CUT_ROUNDS):
        master = f"{program} facet LP ({d + 1} x {offsets.size})"
        # Off the plane the first oracle is taken at the inner centroid.
        mastered = planar or rounds > 0
        if mastered:
            points = evaluate.polar_vertices if planar else normals / offsets[:, None]
            prices = _simplex(points, supports / offsets, basis)
            if prices is None:
                raise RuntimeError(f"{master} ended with status numerical-failure (d={d}, "
                                   f"{offsets.size} cuts, last oracle-master gap {gap:.3e})")
            if not np.isfinite(prices).all():
                raise RuntimeError(f"{master} returned no duals")
            lam, x = max(0.0, float(prices[d])), prices[:d]
            if upper - lam <= 1e-9 * max(1.0, lam):
                return lam, centre
        if planar:  # one product against every cut
            values, polar = (supports - normals @ x) / offsets, normals
        else:
            values, polar = evaluate.with_normals(inner - x)
            _require_finite(values, f"{master}: the oracle's gauge LP")
        # The oracle's bound from each vertex: x + gauge * outer covers it.
        gaps = values - lam
        gap = float(gaps.max())
        if values.max() < upper:
            upper, centre = float(values.max()), x
        tol = 1e-9 * max(1.0, lam)
        if gap <= tol:
            return lam, x
        known = normals.shape[0]
        for u in polar[gaps > tol]:
            u = u / np.linalg.norm(u)
            if np.abs(normals - u).max(axis=1).min() > 1e-9:
                normals = np.vstack([normals, u])
        if normals.shape[0] == known and mastered:
            # Only cuts the master holds are violated, which the simplex's
            # tolerances allow up to 1e-7.
            if gap <= 1e-7 * max(1.0, lam):
                return lam, x
            raise RuntimeError(f"{master}: the centre from its duals violates a "
                               f"constraint by {gap:.3e}")
        fresh = normals[known:]
        offsets = np.concatenate([offsets, support_values(outer_body, fresh)])
        supports = np.concatenate([supports, supports_of(fresh)])
    raise RuntimeError(f"{program} facet generation did not converge in "
                       f"{_MAX_CUT_ROUNDS} rounds (d={d}, {offsets.size} cuts, "
                       f"last oracle-master gap {gap:.3e})")


def _simplex(points: np.ndarray, gains: np.ndarray, basis: np.ndarray) -> np.ndarray | None:
    """The master, max gains.z subject to sum_f z_f (p_f, 1) = e_{d+1},
    z >= 0, by ``lp_solver._primal`` on costs -gains from the feasible
    ``basis`` of d + 1 cuts, left at its last basis.  Its objective is
    -lambda, so with a floor of 1e-12 the pricing floor is 1e-12 max(1,
    lambda).  Returns the prices (x, lambda), lambda >= g_f - <p_f, x> on
    every cut, or None unless the kernel ends optimal."""
    columns = np.hstack([points, np.ones((gains.size, 1))])
    status, _, prices = lp_solver._primal(columns, -gains, np.eye(columns.shape[1])[-1],
                                          basis, 20 * gains.size + 200, 1e-12)
    return -prices if status == lp_solver.OPTIMAL else None


# ---------------------------------------------------------------------------
# diameter


def _half_difference_gauge(c: VPolytope) -> GaugeBody:
    """(C-C)/2 as a gauge body.  It is centred, so its rank alone settles
    whether C is full-dimensional (ValueError if not); a full-rank body
    that fails the interior certificate is a numerical failure."""
    half = c._prepared("half difference", lambda: VPolytope(0.5 * difference_hull(c).vertices))
    if half._rank()[0] < c.dim:
        raise ValueError("diameter/width need a full-dimensional gauge body")
    try:
        return GaugeBody.from_polytope(half)
    except GaugeError as exc:
        raise RuntimeError(f"(C-C)/2 has full rank, but {exc}") from exc


def _tie_floor(top: float) -> float:
    """Values at or above this floor tie the maximum ``top`` up to rounding."""
    return top - 1e-9 * max(1.0, top)


def diameter(k: VPolytope, c: VPolytope) -> RadiiResult:
    """2 sup R({x, y}, C): the diameter in the norm with unit ball (C-C)/2.

    The supremum over the hull is attained on vertex pairs; the witness is
    the lexicographically first attaining index pair of the vertex list.
    Off the plane the pairs i < j are one batched gauge of (C-C)/2.  In the
    plane the pair maximum is swapped with the facet maximum: with
    p_f = n_f / b_f the polar vertices of (C-C)/2,
    D = max_f (h_K(p_f) + h_K(-p_f)), the widest strip between parallel
    supporting lines of K measured in the gauge, with each support read off
    an angular search over the hull of K: O((n + F) log n) time, O(n + F)
    memory.  A gauge body whose C-C is flat is bad input (ValueError); one
    of full rank whose (C-C)/2 fails the interior certificate is a
    numerical failure (RuntimeError).
    """
    _check_dims(k, c)
    value, pair, _ = _diameter(k, _half_difference_gauge(c))
    return RadiiResult("D", value, pair=pair)


def _diameter(k: VPolytope, half: GaugeBody) -> tuple[float, tuple[int, int],
                                                       np.ndarray | None]:
    """D, its witness pair (i, j), and the polar vertex y* of ``half`` =
    (C-C)/2 at v_j - v_i, or None when K has one vertex.

    y*.w <= 1 on every vertex w of (C-C)/2 and y*.(v_j - v_i) = D, so
    2 h_{K-K}(y*) / h_{C-C}(y*) >= D: y* is D's dual certificate.  The
    gauge is symmetric, so the pairs i < j suffice.  Off the plane they are
    one batched gauge, which gives D, the first attaining pair in row-major
    order and its y*.  In the plane D is the widest strip over the F polar
    vertices (see ``diameter``).  Row i's best pair reaches the tie floor
    only at a facet whose strip does, so the rows are scanned against those
    facets alone, in blocks within ``_WAVE_CELLS``, up to the first row
    that attains; its gauges give j and y*.
    """
    verts = k.vertices
    if verts.shape[0] == 1:
        return 0.0, (0, 0), None
    evaluate = half._evaluate
    if evaluate.polar_vertices is None:
        rows, later = np.triu_indices(verts.shape[0], 1)
        values, normals = evaluate.with_normals(verts[later] - verts[rows])
        _require_finite(values, f"diameter: the gauge LP of (C-C)/2 ({k.dim} x {len(half.body)})")
        top = float(values.max())
        first = int(np.argmax(values >= _tie_floor(top)))
        return top, (int(rows[first]), int(later[first])), normals[first]
    centred, polar = _recentred(k), evaluate.polar_vertices
    supports = support_values(centred, np.vstack([polar, -polar]))
    high = supports[:len(polar)]
    widths = high + supports[len(polar):]
    top = float(widths.max())
    floor = _tie_floor(top)
    # Row i attains when h_K(p_f) - v_i.p_f reaches the floor at some f,
    # which only a facet whose width reaches it can do.
    tied = np.flatnonzero(widths >= floor)
    high, columns = high[tied], polar[tied].T
    block = max(1, _WAVE_CELLS // tied.size)
    for i in range(0, len(k), block):
        attains = np.flatnonzero(((high - centred.vertices[i:i + block] @ columns) >= floor)
                                 .any(axis=1))
        if attains.size:
            i += int(attains[0])
            break
    else:
        raise RuntimeError("diameter: no vertex attains the widest strip")
    values, polar = evaluate.with_normals(verts[i + 1:] - verts[i])
    j = int(np.argmax(values >= _tie_floor(top)))
    return top, (i, i + 1 + j), polar[j]


# ---------------------------------------------------------------------------
# minimum width


def min_width(k: VPolytope, c: VPolytope) -> RadiiResult:
    """Thinnest relative slab: 2 inf_u h_{K-K}(u) / h_{C-C}(u).

    Equal to twice the largest t with t*(C-C) inscribed in K-K.  Both bodies
    are centered, so the inscribing translate is the origin and
    t = 1 / max_w gauge_{K-K}(w) over the vertices w of C-C, one batched
    gauge in every dimension.  The witness is the unit polar vertex of K-K
    at the first w whose gauge ties the largest (``_tie_floor``): it
    supports K-K at w / gauge(w), so its support ratio is the width.  A flat
    K-K has width 0 along the normal of its span from the SVD of its rank.
    """
    _check_dims(k, c)
    a = difference_hull(k)
    b = difference_hull(c)
    d = k.dim

    if b._rank()[0] < d:
        raise ValueError("diameter/width need a full-dimensional gauge body")
    rank, vt = a._rank()
    if rank < d:
        return RadiiResult("omega", 0.0, direction=vt[-1].copy())  # vt is a's cached SVD

    # The origin vertex of C-C imposes no constraint.
    nonzero = np.linalg.norm(b.vertices, axis=1) > 1e-12 * _extent(b)
    values, normals = _certified(a)[0].fork().with_normals(b.vertices[nonzero])
    _require_finite(values, f"min_width: the gauge LP of K-K ({d} x {len(a)})")
    top = float(values.max())
    normal = normals[int(np.argmax(values >= _tie_floor(top)))]
    return RadiiResult("omega", 2.0 / top, direction=normal / np.linalg.norm(normal))


# ---------------------------------------------------------------------------
# the induced norm and the centered fast path


def induced_norm(c: VPolytope, x) -> FunctionalValue:
    """The norm x -> 2 R({0, x}, C), whose unit ball is (C-C)/2."""
    gb = _half_difference_gauge(c)
    return gauge(gb, _as_vector(x, c.dim))


def _is_centered(evaluate: _GaugeEvaluator) -> bool:
    """The body of ``evaluate`` is its own mirror image, P = -P: the gauge
    of -v is at most 1 + _CENTERED_TOL at every vertex v.  This is a test
    of the set, so a redundant vertex needs no mirror vertex of its own."""
    return bool(evaluate(-evaluate.body.vertices).max() <= 1.0 + _CENTERED_TOL)


def symmetric_circumradius(k: VPolytope, c: GaugeBody) -> float:
    """Centered fast path: R(K, C) = max gauge over K's vertices.

    Requires K = -K and C = -C (``_is_centered``); rejects anything else,
    because the identity fails for non-centered bodies.
    """
    _check_dims(k, c)
    if not _is_centered(_certified(k)[0].fork()):
        raise ValueError("symmetric circumradius needs a centered body")
    if not _is_centered(c._evaluate):
        raise ValueError("symmetric circumradius needs a centered gauge body")
    return float(c._evaluate(k.vertices).max())


# ---------------------------------------------------------------------------
# the inequality chain


def interior_point(p: VPolytope) -> np.ndarray:
    """The vertex centroid when it certifies as interior, else the centre of
    the largest cross-polytope conv{x ± rho e_k} inside the hull.

    A point certifies when its ``interior_slack`` is at least
    ``_interior_margin(p)``, as in ``GaugeBody.from_polytope``; the slack of
    the cross-polytope's centre is its inradius r(P, conv{±e_k}), which is
    1 / R(conv{±e_k}, P).  If none certifies, P is flat when P-P is
    (LowerDimensionalError), the rule of ``diameter`` and ``min_width``, and
    else a numerical failure (RuntimeError).  A flat P gives r = 0.
    """
    return _interior_gauge_at(p)[1]


def _interior_gauge_at(p: VPolytope) -> tuple[GaugeBody, np.ndarray]:
    """p translated by ``interior_point(p)`` as a gauge body, and that point."""
    try:
        return GaugeBody.from_polytope(_recentred(p)), p.vertices.mean(axis=0)
    except GaugeError:
        pass
    fit = inradius(p, VPolytope(np.vstack([np.eye(p.dim), -np.eye(p.dim)])))
    if fit.value >= _interior_margin(p):
        return GaugeBody(VPolytope(p.vertices - fit.center)), fit.center
    if difference_hull(p)._rank()[0] < p.dim:
        raise LowerDimensionalError("polytope has empty interior")
    raise RuntimeError("the body has full rank, but no point has an interior "
                       f"slack of at least {_interior_margin(p):.3e}")


def _interior_gauge(c: VPolytope) -> tuple[GaugeBody, np.ndarray]:
    """C as a gauge body: as given when the origin is interior, else
    recentered at the point that ``interior_point`` has certified."""
    try:
        return GaugeBody.from_polytope(c), np.zeros(c.dim)
    except GaugeError:
        pass
    return _interior_gauge_at(c)


def _unit_rows(vertices: np.ndarray) -> np.ndarray:
    """The rows scaled to unit length, less those near zero for their scale."""
    norms = np.linalg.norm(vertices, axis=1)
    keep = norms > 1e-12 * norms.max()
    return vertices[keep] / norms[keep, None]


def _check_tol(tol: float) -> None:
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def verify_chain(k: VPolytope, c: VPolytope, tol: float = 1e-6) -> ChainReport:
    """Compute the five chain members by independent routes and check them.

    Also checks the chord-ratio representation of the diameter and the
    classical bound D <= 2R.  a1 is the largest support ratio over the
    vertex directions of C-C and the polar vertex y* of (C-C)/2 that
    certifies D, each h_{K-K}(u) = h_K(u) + h_K(-u) read on the recentred
    K and C.  No direction exceeds D and y* attains it, so a1 = a2
    checks D's certificate in every dimension.  a5 is the largest gauge of
    C at the vertices of K-K.  ``tol`` must be finite and positive.
    """
    _check_dims(k, c)
    _check_tol(tol)
    return _verify_chain(k, c, tol, {})


def _verify_chain(k: VPolytope, c: VPolytope, tol: float, known: dict) -> ChainReport:
    """``verify_chain`` reusing the R, (C-C)/2 and D that ``radii_report`` has."""
    a, b = difference_hull(k), difference_hull(c)
    gauge_c, shift = _interior_gauge(c)
    half = known.get("half") or _half_difference_gauge(c)
    a2, _, y_star = known.get("D") or _diameter(k, half)
    directions = _unit_rows(b.vertices)
    sweep = directions if y_star is None else np.vstack([y_star, directions])
    # h_{K-K}(u) = h_K(u) + h_K(-u), recentred so that no offset cancels.
    both = np.vstack([sweep, -sweep])
    widths = [support_values(_recentred(p), both).reshape(2, -1).sum(axis=0) for p in (k, c)]
    a1 = 2.0 * float(np.max(widths[0] / widths[1]))
    # a3 frames (C-C)/2 about its exact centre, the origin, so the frame takes
    # half's evaluator when no axis is scaled.  a4 and 2R share C's frame, at
    # its centroid (a given origin may lie near C's boundary), which takes the
    # evaluator of C's gauge body when that is C recentred at its centroid.
    a3 = _circumradius(a, half.body, _frame(half.body, half._evaluate, origin=True))[0]
    frame_c = _frame(c, gauge_c._evaluate)
    a4 = _circumradius(a, c, frame_c)[0]
    a5 = float(gauge_c._evaluate(a.vertices).max())

    # Chord-ratio representation of the diameter (convex bodies).
    # Chord lengths are reciprocal gauges of the centered bodies K-K and
    # C-C, so the chord ratio along u is gauge_B(u) / gauge_A(u).  On the
    # boundary of A it is the convex gauge_B, which peaks at a vertex of A:
    # the vertex directions of A attain the supremum in every dimension.
    # Skip the directions with no chord of K-K or a vanishing chord of C-C.
    chord_sweep = np.vstack([_unit_rows(a.vertices), directions])
    gamma_a = _certified(a)[0].fork()(chord_sweep)
    gamma_b = 0.5 * half._evaluate(chord_sweep)  # C-C = 2 (C-C)/2
    keep = np.isfinite(gamma_a) & (gamma_b < 1e12)
    chord_value = 2.0 * float(np.max(gamma_b[keep] / gamma_a[keep])) if keep.any() else 0.0

    two_r = 2.0 * (known["R"]["value"] if "R" in known else _circumradius(k, c, frame_c)[0])
    # C = -C exactly when the origin is interior and C holds -v for each vertex v.
    centered = bool(not shift.any() and _is_centered(gauge_c._evaluate))

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
    """The ``quantities`` named (any of R, r, D and omega) plus the chain
    report, which reuses their R and D, in stable key order.  Other names,
    unequal dimensions and a bad chain ``tol`` are rejected first."""
    if chain:
        _check_tol(tol)
    unknown = [name for name in quantities if name not in ("R", "r", "D", "omega")]
    if unknown:
        raise ValueError(f"unknown quantities {unknown}: expected R, r, D or omega")
    _check_dims(k, c)
    report, known = {}, {}  # known: what the chain reuses
    if "R" in quantities:
        report["R"] = known["R"] = circumradius(k, c).to_dict()
    if "r" in quantities:
        report["r"] = inradius(k, c).to_dict()
    if "D" in quantities:
        known["half"] = _half_difference_gauge(c)
        value, pair, _ = known["D"] = _diameter(k, known["half"])
        report["D"] = RadiiResult("D", value, pair=pair).to_dict()
    if "omega" in quantities:
        report["omega"] = min_width(k, c).to_dict()
    if chain:
        report["chain"] = _verify_chain(k, c, tol, known).to_dict()
    return report
