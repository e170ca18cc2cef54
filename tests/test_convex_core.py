import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from polyradii import convex_core as core
from polyradii.bodies import BodySpec, make_body
from polyradii.convex_core import (
    DimensionMismatchError,
    HPolytope,
    LowerDimensionalError,
    VPolytope,
    difference_body,
    difference_hull,
    facets_2d,
    hull_2d,
    member,
    minkowski_hull_2d,
    minkowski_sum,
    transform,
)
from polyradii.functionals import support, support_values
from polyradii.radii import interior_point
from test_cross_validation import rotated_segments

SQRT3 = math.sqrt(3.0)
TRIANGLE = VPolytope([[2.0, 0.0], [-1.0, SQRT3], [-1.0, -SQRT3]])
SQUARE = VPolytope([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
HEXAGON = np.array(
    [
        [3.0, SQRT3],
        [0.0, 2.0 * SQRT3],
        [-3.0, SQRT3],
        [-3.0, -SQRT3],
        [0.0, -2.0 * SQRT3],
        [3.0, -SQRT3],
    ]
)


def sorted_rows(a):
    a = np.asarray(a, dtype=float)
    return a[np.lexsort((a[:, 1], a[:, 0]))]


def scipy_extreme_points(points):
    """Brute-force extreme-point filter: p is extreme iff p not in conv(rest)."""
    points = np.asarray(points, dtype=float)
    keep = []
    for i, p in enumerate(points):
        rest = np.delete(points, i, axis=0)
        n = rest.shape[0]
        a_eq = np.vstack([rest.T, np.ones(n)])
        b_eq = np.concatenate([p, [1.0]])
        res = linprog(np.zeros(n), A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * n)
        if res.status != 0:
            keep.append(p)
    return np.array(keep)


def random_polytope(rng, dim, max_vertices=8):
    n = int(rng.integers(dim + 1, max_vertices + 1))
    return VPolytope(rng.normal(scale=2.0, size=(n, dim)))


def sample_directions(rng, dim, count):
    u = rng.normal(size=(count, dim))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# minkowski_sum


def test_sum_with_origin_is_identity():
    origin = VPolytope([[0.0, 0.0]])
    out = minkowski_sum(origin, SQUARE)
    assert np.allclose(sorted_rows(hull_2d(out.vertices).vertices),
                       sorted_rows(SQUARE.vertices))


def test_sum_of_axis_segments_is_unit_square():
    sx = VPolytope([[0.0, 0.0], [1.0, 0.0]])
    sy = VPolytope([[0.0, 0.0], [0.0, 1.0]])
    out = hull_2d(minkowski_sum(sx, sy).vertices)
    expected = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert np.allclose(sorted_rows(out.vertices), sorted_rows(expected))


def test_triangle_difference_is_hexagon():
    reflected = transform(TRIANGLE, 1.0, [0.0, 0.0], reflect=True)
    summed = minkowski_sum(TRIANGLE, reflected)
    assert len(summed) == 9
    hull = hull_2d(summed.vertices)
    assert np.allclose(sorted_rows(hull.vertices), sorted_rows(HEXAGON), atol=1e-12)
    # Independent oracle: extreme-point filter over the 9 differences.
    oracle = scipy_extreme_points(summed.vertices)
    assert np.allclose(sorted_rows(oracle), sorted_rows(HEXAGON), atol=1e-9)


def test_sum_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        minkowski_sum(SQUARE, VPolytope([[0.0, 0.0, 0.0]]))


def test_support_additivity_under_sum():
    rng = np.random.default_rng(101)
    for _ in range(20):
        dim = int(rng.integers(2, 4))
        p = random_polytope(rng, dim)
        q = random_polytope(rng, dim)
        s = minkowski_sum(p, q)
        for u in sample_directions(rng, dim, 100):
            left = support(s, u).value
            right = support(p, u).value + support(q, u).value
            assert abs(left - right) <= 1e-9


def test_cancellation_rule_via_support_dominance():
    rng = np.random.default_rng(202)
    for _ in range(20):
        dim = int(rng.integers(2, 4))
        big = random_polytope(rng, dim)
        take = rng.choice(len(big), size=int(rng.integers(1, len(big) + 1)), replace=False)
        small = VPolytope(big.vertices[take])
        q = random_polytope(rng, dim)
        dirs = sample_directions(rng, dim, 60)
        sum_small = minkowski_sum(small, q)
        sum_big = minkowski_sum(big, q)
        for u in dirs:
            # Inclusion transfers through the sum...
            assert support(sum_small, u).value <= support(sum_big, u).value + 1e-9
            # ...and cancels back out after subtracting the summand's support.
            lhs = support(sum_small, u).value - support(q, u).value
            assert lhs <= support(big, u).value + 1e-9


# ---------------------------------------------------------------------------
# transform / difference_body


def test_transform_examples():
    scaled = transform(SQUARE, 2.0, [0.0, 0.0])
    assert np.allclose(sorted_rows(scaled.vertices), sorted_rows(2.0 * SQUARE.vertices))
    reflected = transform(TRIANGLE, 1.0, [0.0, 0.0], reflect=True)
    expected = np.array([[-2.0, 0.0], [1.0, -SQRT3], [1.0, SQRT3]])
    assert np.allclose(sorted_rows(reflected.vertices), sorted_rows(expected))
    same = transform(TRIANGLE, 1.0, [0.0, 0.0])
    assert np.array_equal(same.vertices, TRIANGLE.vertices)


def test_transform_rejects_bad_scale():
    with pytest.raises(ValueError):
        transform(SQUARE, 0.0, [0.0, 0.0])
    with pytest.raises(ValueError):
        transform(SQUARE, -1.0, [0.0, 0.0])


def test_difference_body_of_singleton_is_origin():
    p = VPolytope([[3.0, -2.0]])
    out = difference_body(p)
    assert np.allclose(out.vertices, [[0.0, 0.0]])


def test_difference_body_of_centered_square_doubles_support():
    d = difference_body(SQUARE)
    rng = np.random.default_rng(5)
    for u in sample_directions(rng, 2, 50):
        assert support(d, u).value == pytest.approx(2.0 * support(SQUARE, u).value, abs=1e-9)


def test_difference_body_is_centered():
    rng = np.random.default_rng(6)
    for _ in range(10):
        dim = int(rng.integers(2, 4))
        d = difference_body(random_polytope(rng, dim))
        for u in sample_directions(rng, dim, 40):
            assert support(d, u).value == pytest.approx(support(d, -u).value, abs=1e-9)


# ---------------------------------------------------------------------------
# hull_2d


def test_hull_drops_interior_and_collinear_points():
    pts = np.vstack([SQUARE.vertices, [[0.0, 0.0]]])
    hull = hull_2d(pts)
    assert len(hull) == 4
    assert np.allclose(sorted_rows(hull.vertices), sorted_rows(SQUARE.vertices))
    collinear = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
    assert np.allclose(hull_2d(collinear).vertices, [[0.0, 0.0], [2.0, 2.0]])


def test_hull_order_is_ccw_from_lexicographic_minimum():
    hull = hull_2d(SQUARE.vertices).vertices
    assert np.allclose(hull[0], [-1.0, -1.0])
    area2 = 0.0
    for i in range(len(hull)):
        a, b = hull[i], hull[(i + 1) % len(hull)]
        area2 += a[0] * b[1] - a[1] * b[0]
    assert area2 > 0  # counter-clockwise


def _hull_fuzz_inputs(rng):
    """Random point sets, and the hulls of thin, rotated and near-collinear
    arc point sets as given, reflected, shifted by 1e7, scaled by 2**30 or
    2**-30, rolled to another start, and with repeated rows."""
    for _ in range(40):
        count = int(rng.integers(3, 40))
        points = rng.normal(size=(count, 2))
        yield points
        angle = rng.uniform(0.0, np.pi)
        rotation = np.array([[np.cos(angle), -np.sin(angle)],
                             [np.sin(angle), np.cos(angle)]])
        thin = points * [1.0, 10.0 ** -int(rng.integers(3, 10))] @ rotation.T
        t = np.sort(rng.uniform(0.0, 10.0 ** -int(rng.integers(2, 7)), count))
        arc = np.column_stack([np.cos(t), np.sin(t)])
        for cloud in (points, thin, arc):
            hull = hull_2d(cloud).vertices
            repeats = rng.integers(1, 4, size=len(hull))
            yield from (hull, -hull, hull + 1e7, hull * 2.0**30, hull * 2.0**-30,
                        np.roll(hull, int(rng.integers(1, len(hull) + 1)), axis=0),
                        np.roll(np.repeat(hull, repeats, axis=0), 1, axis=0))


def test_hull_idempotent_and_permutation_invariant(monkeypatch):
    # hull_2d(x) must equal, bit for bit, the monotone chain's hull of the
    # shuffled rows, with the linear pass over rows already a hull turned
    # off for the reference; that pass should take most inputs that are hulls.
    rng = np.random.default_rng(77)
    passed_through = 0
    for x in _hull_fuzz_inputs(rng):
        hull = hull_2d(x).vertices
        assert np.array_equal(hull_2d(hull).vertices, hull)
        shuffled = x[rng.permutation(len(x))]
        with monkeypatch.context() as m:
            m.setattr(core, "_hull_as_given", lambda pts: None)
            reference = hull_2d(shuffled).vertices
        assert np.array_equal(hull.view(np.uint64), reference.view(np.uint64))
        passed_through += core._hull_as_given(x) is not None
    assert passed_through >= 750  # of 880 inputs, 840 of them hulls


def _pass_through_fuzz_inputs(rng):
    """Convex polygons of 3 to 60 vertices (on a circle, hulls of Gaussian
    clouds, and astroid-like caps), squeezed to aspect 1e-12..1, some with a
    point inserted within 1e-16..1e-6 of an edge (relative to its length),
    mapped by a random linear map of condition <= 1e3, scaled by 1e-8..1e8
    and shifted by up to 1e7, and rolled to a random start."""
    for _ in range(2000):
        count, kind = int(rng.integers(3, 60)), int(rng.integers(3))
        t = np.sort(rng.uniform(0.0, 2.0 * np.pi, count))
        if kind == 0:
            p = np.column_stack([np.cos(t), np.sin(t)])
        else:
            cloud = (rng.normal(size=(count, 2)) if kind == 1
                     else np.column_stack([np.cos(t) ** 3, np.sin(t)]))
            p = hull_2d(cloud).vertices
        p = p * [1.0, 10.0 ** rng.uniform(-12.0, 0.0)]
        if rng.random() < 0.5:
            i = int(rng.integers(len(p)))
            edge = p[(i + 1) % len(p)] - p[i]
            normal = np.array([edge[1], -edge[0]]) * 10.0 ** rng.uniform(-16.0, -6.0)
            p = np.insert(p, i + 1, p[i] + rng.uniform(0.05, 0.95) * edge
                          + rng.choice([-1.0, 1.0]) * normal, axis=0)
        while np.linalg.cond(linear := rng.normal(size=(2, 2))) > 1e3:
            pass
        p = p @ linear.T * 10.0 ** rng.uniform(-8.0, 8.0)
        p = p + rng.uniform(-1e7, 1e7, size=2) * (rng.random() < 0.5)
        yield np.roll(p if np.linalg.det(linear) > 0 else p[::-1],
                      int(rng.integers(len(p))), axis=0)


def test_hull_pass_through_is_the_monotone_chain_bit_for_bit():
    # The pass-through takes rows only where the chain's own tests, made on
    # all rows at once, keep exactly them: whatever the scale, aspect and
    # offset, an accepted polygon is the chain's hull of its rows.
    accepted = 0
    for p in _pass_through_fuzz_inputs(np.random.default_rng(2026)):
        given = core._hull_as_given(p)
        if given is not None:
            accepted += 1
            chain = np.array(core._monotone_chain(core._unique_rows(p).tolist()))
            assert np.array_equal(given.view(np.uint64), chain.view(np.uint64))
    assert accepted >= 1000


def test_fine_reuleaux_bodies_take_no_monotone_chain(monkeypatch):
    # At n = 49 152 the hulls of the finest approx bodies, their least
    # exterior angle near 2e-5, pass through: no Python chain runs.
    calls = []
    chain = core._monotone_chain
    monkeypatch.setattr(core, "_monotone_chain", lambda rows: calls.append(1) or chain(rows))
    c = make_body(BodySpec("reuleaux_triangle", n=49152))
    k = transform(c, 1.0, [0.0, 0.0], reflect=True)
    for body in (c, k, difference_hull(k), difference_hull(c)):
        core._ccw_hull(body)
    assert calls == []


def test_hull_rejects_empty_input():
    with pytest.raises(ValueError):
        hull_2d(np.empty((0, 2)))


def test_minkowski_hull_matches_brute_force():
    rng = np.random.default_rng(88)
    for _ in range(30):
        p = random_polytope(rng, 2, max_vertices=7)
        q = random_polytope(rng, 2, max_vertices=7)
        fast = minkowski_hull_2d(p, q)
        brute = hull_2d(minkowski_sum(p, q).vertices)
        assert np.allclose(fast.vertices, brute.vertices, atol=1e-9)
    # Degenerate operands: point and segment.
    seg = VPolytope([[0.0, 0.0], [1.0, 0.0]])
    pt = VPolytope([[2.0, 3.0]])
    assert np.allclose(
        sorted_rows(minkowski_hull_2d(seg, pt).vertices), [[2.0, 3.0], [3.0, 3.0]]
    )
    fast = minkowski_hull_2d(seg, VPolytope([[0.0, 0.0], [0.0, 1.0]]))
    brute = hull_2d(minkowski_sum(seg, VPolytope([[0.0, 0.0], [0.0, 1.0]])).vertices)
    assert np.allclose(fast.vertices, brute.vertices)


def test_difference_hull_matches_difference_body():
    rng = np.random.default_rng(99)
    for _ in range(10):
        p = random_polytope(rng, 2)
        via_hull = difference_hull(p)
        brute = hull_2d(difference_body(p).vertices)
        assert np.allclose(via_hull.vertices, brute.vertices, atol=1e-9)


# ---------------------------------------------------------------------------
# facets_2d


def test_square_facets():
    h = facets_2d(SQUARE)
    assert not h.lower_dimensional
    rows = sorted_rows(np.hstack([h.normals, h.offsets[:, None]]))
    expected = sorted_rows(
        [[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, -1.0, 1.0]]
    )
    assert np.allclose(rows, expected, atol=1e-12)


def test_segment_facets_flagged_and_exact():
    seg = VPolytope([[0.0, 0.0], [1.0, 0.0]])
    h = facets_2d(seg)
    assert h.lower_dimensional
    # The four halfspaces cut out exactly the segment.
    inside = np.array([0.5, 0.0])
    outside = np.array([[0.5, 0.1], [1.1, 0.0], [-0.1, 0.0]])
    assert (h.normals @ inside <= h.offsets + 1e-12).all()
    for x in outside:
        assert (h.normals @ x > h.offsets + 1e-9).any()


def test_hexagon_facet_offsets_match_support():
    hexagon = VPolytope(HEXAGON)
    h = facets_2d(hexagon)
    assert len(h.offsets) == 6
    for n, b in zip(h.normals, h.offsets):
        assert b == pytest.approx(support(hexagon, n).value, abs=1e-9)


# ---------------------------------------------------------------------------
# angular sector search: planar supports and gauges against the dense products

EPS = np.finfo(float).eps


def _sector_bodies(rng):
    """Random polygons on and off the origin, each listed with interior,
    duplicate and nearly collinear rows (points of its edges, up to
    rounding, and one pushed out of an edge by a turn of 0.5e-12
    extent**2, which is extreme), in random order."""
    for trial in range(40):
        points = rng.normal(size=(int(rng.integers(3, 30)), 2)) * rng.uniform(0.1, 10.0, size=2)
        if trial % 2:
            points += rng.normal(scale=20.0, size=2)
        hull = hull_2d(points).vertices
        ends = rng.integers(len(hull), size=6)
        along = rng.uniform(size=(6, 1))
        edges = np.roll(hull, -1, axis=0)[ends] - hull[ends]
        on_edges = hull[ends] + along * edges
        # Turn 0.5e-12 extent**2 at the midpoint of edge e, along its outward normal.
        extent, e = np.ptp(points, axis=0).max(), edges[0]
        notch = hull[ends[0]] + 0.5 * e + 0.5e-12 * extent ** 2 * np.array([e[1], -e[0]]) / (e @ e)
        rows = np.vstack([points, points[:3], points.mean(axis=0, keepdims=True), on_edges,
                          notch])
        yield VPolytope(rng.permutation(rows))


def _sector_queries(rng, rays, normals):
    """Random directions, the given vertex rays and facet normals (and
    their negatives), the two sides of the cut at pi, and the origin."""
    return np.vstack([rng.normal(size=(50, 2)), rays, -rays, normals, -normals,
                      [[-1.0, 0.0], [-1.0, -0.0], [0.0, 0.0]]])


def test_planar_support_values_match_the_dense_product():
    rng = np.random.default_rng(19)
    bodies = list(_sector_bodies(rng))
    bodies += [VPolytope([[0.5, -1.0], [2.0, 3.0], [0.5, -1.0], [1.25, 1.0]]),  # a segment
               VPolytope([[3.0, -1.0], [3.0, -1.0]])]  # a point
    for body in bodies:
        hull = hull_2d(body.vertices).vertices
        queries = _sector_queries(rng, hull, facets_2d(body).normals)
        dense = np.max(queries @ body.vertices.T, axis=1)
        scale = np.abs(body.vertices).max() * np.abs(queries).sum(axis=1)
        np.testing.assert_array_less(np.abs(support_values(body, queries) - dense),
                                     4 * EPS * scale + 1e-300)
        # The supports of the body translated and scaled by positive powers
        # of two, read through that map off the translated body, as the
        # containment engine reads its inner body: h_{KM}(u) = h_K(M u).
        shift, scales, a = body.vertices.mean(axis=0), 2.0 ** rng.integers(-3, 4, size=2), 0.25
        centred = VPolytope(body.vertices - shift)
        mapped = a * (centred.vertices * scales)
        dense = np.max(queries @ mapped.T, axis=1)
        scale = np.abs(mapped).max() * np.abs(queries).sum(axis=1)
        np.testing.assert_array_less(
            np.abs(a * support_values(centred, queries * scales) - dense),
            4 * EPS * scale + 1e-300)


def test_planar_support_values_of_rotated_segments_are_the_vertex_maxima():
    rng = np.random.default_rng(23)
    for _, body, _ in rotated_segments():
        queries = _sector_queries(rng, body.vertices, rng.normal(size=(4, 2)))
        dense = np.max(queries @ body.vertices.T, axis=1)
        scale = np.abs(body.vertices).max() * np.abs(queries).sum(axis=1)
        np.testing.assert_array_less(np.abs(support_values(body, queries) - dense),
                                     4 * EPS * scale + 1e-300)


def test_sectors_rotate_at_the_descent_when_the_least_start_is_tied():
    # The fan of a segment whose hull kept rounding-level turns: three
    # zero-width sectors at -pi/2, one of them listed first.  Rotated at the
    # least start, the starts would be unsorted and (-1, 0) would find
    # sector 0.
    rows = np.array([[1.0, 0.0], [-1.0, 0.0], [-0.5, 0.0], [0.0, 0.0], [0.5, 0.0]])
    sectors = core._Sectors(np.array([-0.5, 0.5, -0.5, -0.5, -0.5]) * np.pi, rows)
    points = np.vstack([np.random.default_rng(24).normal(size=(50, 2)), np.eye(2), -np.eye(2)])
    values, index = sectors(points)
    dense = points @ rows.T
    np.testing.assert_array_equal(values, dense.max(axis=1))
    np.testing.assert_array_equal(dense[np.arange(len(points)), index], values)


def test_planar_gauge_normals_are_polar_vertices_that_attain_it():
    rng = np.random.default_rng(20)
    for body in _sector_bodies(rng):
        body = VPolytope(body.vertices - hull_2d(body.vertices).vertices.mean(axis=0))
        evaluate = core._GaugeEvaluator(body)
        polar = evaluate.polar_vertices
        assert polar is not None  # the origin is interior: the sector route
        hull = hull_2d(body.vertices).vertices
        points = _sector_queries(rng, hull * rng.uniform(0.1, 3.0, size=(len(hull), 1)),
                                 facets_2d(body).normals)
        values, normals = evaluate.with_normals(points)
        dense = points @ polar.T
        tol = 4 * EPS * np.abs(points).sum(axis=1) * np.abs(polar).max()
        np.testing.assert_array_less(np.abs(values - np.maximum(dense.max(axis=1), 0.0)),
                                     tol + 1e-300)
        index = np.array([np.flatnonzero((polar == y).all(axis=1))[0] for y in normals])
        np.testing.assert_array_less(dense.max(axis=1) - dense[np.arange(len(points)), index],
                                     tol + 1e-300)
        assert values[-1] == 0.0  # the origin


def _exact_facets(points: np.ndarray) -> list[tuple[Fraction, Fraction, Fraction]]:
    """The facets n . x <= b of conv(points) in exact rational arithmetic:
    Andrew's monotone chain on the rows as ``Fraction``s, and one outward
    normal n (not unit) and offset b per edge of that hull."""
    rows = sorted({(Fraction(x), Fraction(y)) for x, y in points.tolist()})

    def chain(rows):
        out = []
        for p in rows:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out

    hull = chain(rows)[:-1] + chain(rows[::-1])[:-1]
    return [(by - ay, ax - bx, (by - ay) * ax + (ax - bx) * ay)
            for (ax, ay), (bx, by) in zip(hull, hull[1:] + hull[:1])]


def _exact_gauge(facets, queries: np.ndarray) -> np.ndarray:
    """max_f n_f . x / b_f at each query, rounded once, for an origin interior
    to the facets (every b_f > 0)."""
    assert all(b > 0 for _, _, b in facets)
    return np.array([float(max((nx * Fraction(x) + ny * Fraction(y)) / b for nx, ny, b in facets))
                     for x, y in queries.tolist()])


def test_planar_gauges_of_near_collinear_polygons_match_exact_facets():
    # Random polygons about the origin, each with points pushed 1e-16 to
    # 1e-8 extent out of or into its edges: the hull keeps every pushed-out
    # point whose computed turn is positive, so the gauge is that of the
    # exact hull, and supports are the vertex maxima.  Each float offset
    # b_f = n_f . v loses up to about EPS |v| to rounding, so the gauge's
    # relative error is bounded by 1e-14 or, on thin bodies, by 2 EPS kappa,
    # kappa = max |v| / min_f (b_f / |n_f|).
    rng = np.random.default_rng(31)
    for _ in range(100):
        points = rng.normal(size=(int(rng.integers(3, 12)), 2)) * rng.uniform(0.1, 10.0, size=2)
        hull = hull_2d(points).vertices
        extent = np.ptp(points, axis=0).max()
        ends = rng.integers(len(hull), size=4)
        edges = np.roll(hull, -1, axis=0)[ends] - hull[ends]
        outward = np.column_stack([edges[:, 1], -edges[:, 0]]) / np.linalg.norm(edges, axis=1)[:, None]
        push = rng.choice([-1.0, 1.0], size=(4, 1)) * 10.0 ** rng.uniform(-16, -8, size=(4, 1))
        notches = hull[ends] + rng.uniform(0.05, 0.95, size=(4, 1)) * edges + push * extent * outward
        rows = rng.permutation(np.vstack([hull, notches]) - hull.mean(axis=0))
        body = VPolytope(rows)
        queries = np.vstack([rng.normal(size=(12, 2)), rows])
        facets = _exact_facets(rows)
        kappa = np.abs(rows).max() / min(float(b) / math.hypot(nx, ny) for nx, ny, b in facets)
        exact = _exact_gauge(facets, queries)
        np.testing.assert_array_less(np.abs(core._GaugeEvaluator(body)(queries) - exact),
                                     max(1e-14, 2 * EPS * kappa) * exact)
        dense = np.max(queries @ rows.T, axis=1)
        np.testing.assert_array_less(np.abs(support_values(body, queries) - dense),
                                     1e-15 * np.abs(rows).max() * np.abs(queries).sum(axis=1))
    # The centred body [C; -C] of the square/triangle pair shifted by 1e7,
    # long and thin (kappa about 1e7), at the vertices of [K; -K].
    shift = np.array([-1e7, 1e7])
    c = make_body(BodySpec("equilateral_triangle")).vertices + shift
    k = make_body(BodySpec("centered_square")).vertices - shift
    centred, queries = np.vstack([c, -c]), np.vstack([k, -k])
    exact = _exact_gauge(_exact_facets(centred), queries)
    np.testing.assert_array_less(
        np.abs(core._GaugeEvaluator(VPolytope(centred))(queries) - exact), 1e-8 * exact)


def test_planar_gauge_ties_go_to_the_lowest_facet():
    # Exact products: facets 0..3 of the box are its bottom, right, top and
    # left edges, and every vertex ray ties two of them, across the facet
    # list's wrap at the lower-left corner too.
    box = VPolytope([[-2.0, -1.0], [1.0, -1.0], [1.0, 4.0], [-2.0, 4.0]])
    evaluate = core._GaugeEvaluator(box)
    points = np.array([[1.0, 4.0], [-2.0, 4.0], [-2.0, -1.0], [1.0, -1.0],
                       [-1.0, 0.0], [-1.0, -0.0], [0.5, 0.0]])
    values, normals = evaluate.with_normals(points)
    dense = points @ evaluate.polar_vertices.T
    assert (values == np.maximum(dense.max(axis=1), 0.0)).all()
    np.testing.assert_array_equal(normals, evaluate.polar_vertices[dense.argmax(axis=1)])
    np.testing.assert_array_equal(dense.argmax(axis=1)[:4], [1, 2, 0, 0])


# ---------------------------------------------------------------------------
# member / interior_point


def test_member_examples():
    tri = VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert member(tri, [0.0, 0.0])
    assert not member(tri, [1.0, 1.0])
    for v in tri.vertices:
        assert member(tri, v)


def test_member_tolerance_band():
    tri = VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    nudged = [0.5, -1e-5]
    assert not member(tri, nudged, tol=1e-7)
    assert member(tri, nudged, tol=1e-4)


@pytest.mark.parametrize("tol", [-1e-9, math.nan, math.inf])
def test_member_rejects_a_tolerance_that_is_not_finite_and_non_negative(tol):
    # nan would reject the square's centre and inf accept any point.
    square = VPolytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="finite and non-negative"):
        member(square, [0.5, 0.5], tol=tol)
    with pytest.raises(ValueError, match="finite and non-negative"):
        member(square, [5.0, 5.0], tol=tol)
    assert member(square, [0.5, 0.5], tol=0.0)


def test_interior_point_examples():
    assert np.allclose(interior_point(SQUARE), [0.0, 0.0], atol=1e-9)
    assert np.allclose(interior_point(TRIANGLE), [0.0, 0.0], atol=1e-9)
    seg = VPolytope([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(LowerDimensionalError):
        interior_point(seg)


def test_interior_point_with_repeated_vertices():
    # Repeated vertices skew the centroid toward a corner but it stays
    # interior for any full-dimensional hull.
    p = VPolytope([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    x = interior_point(p)
    assert member(p, x)
    # A thin 4-D body whose centroid lies next to the repeated vertex, with
    # slack below the margin: the certified point has to come from elsewhere.
    v = np.random.default_rng(2).normal(size=(6, 4))
    v[:, 0] *= 3e-8
    p = VPolytope(np.vstack([v, np.repeat(v[:1], 1000, axis=0)]))
    x = interior_point(p)
    assert core.interior_slack(p, x) > core._interior_margin(p)


def test_interior_point_rejects_sliver_below_certificate():
    # A triangle of height 1e-12 has full rank, but no point with slack
    # above the interior margin: a numerical failure, not a flat body.
    sliver = VPolytope([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-12]])
    with pytest.raises(RuntimeError):
        interior_point(sliver)


def test_functionals_ignore_redundant_vertices():
    rng = np.random.default_rng(55)
    for _ in range(10):
        p = random_polytope(rng, 2)
        padded = VPolytope(np.vstack([p.vertices, p.vertices.mean(axis=0)]))
        for u in sample_directions(rng, 2, 30):
            assert support(p, u).value == pytest.approx(support(padded, u).value, abs=1e-12)
        assert np.allclose(
            hull_2d(p.vertices).vertices, hull_2d(padded.vertices).vertices
        )


# ---------------------------------------------------------------------------
# JSON


def test_vpolytope_json_round_trip():
    text = core.dumps_vpolytope(TRIANGLE)
    back = core.loads_vpolytope(text)
    assert back.dim == 2
    assert np.allclose(back.vertices, TRIANGLE.vertices)


def test_hpolytope_json_round_trip():
    h = facets_2d(SQUARE)
    back = core.loads_hpolytope(core.dumps_hpolytope(h))
    assert np.allclose(back.normals, h.normals)
    assert np.allclose(back.offsets, h.offsets)


def test_json_rejects_non_finite():
    with pytest.raises(ValueError):
        core.loads_vpolytope('{"dim": 2, "vertices": [[NaN, 0.0]]}')
    with pytest.raises(ValueError):
        core.loads_vpolytope('{"dim": 2, "vertices": [[Infinity, 0.0]]}')
    with pytest.raises(ValueError):
        core.loads_vpolytope(json.dumps({"dim": 2, "vertices": [[1e999, 0.0]]}))
    with pytest.raises(ValueError):
        core.loads_hpolytope(
            '{"dim": 2, "halfspaces": [{"normal": [NaN, 0.0], "offset": 1.0}]}'
        )
    with pytest.raises(ValueError):
        core.loads_hpolytope(
            '{"dim": 2, "halfspaces": [{"normal": [1.0, 0.0], "offset": -Infinity}]}'
        )


def test_vpolytope_rejects_dimension_mismatch_in_json():
    with pytest.raises(ValueError):
        core.loads_vpolytope('{"dim": 3, "vertices": [[1.0, 0.0]]}')
