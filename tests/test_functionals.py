import math

import numpy as np
import pytest

from polyradii import convex_core, lp_solver
from polyradii.bodies import BodySpec, make_body
from polyradii.convex_core import VPolytope, _GaugeEvaluator, _GaugeLP, difference_hull, member
from polyradii.functionals import (
    FunctionalValue,
    GaugeBody,
    GaugeError,
    gauge,
    max_chord,
    polar,
    radius_fn,
    support,
    support_values,
    supporting_hyperplane_distance,
    width_fn,
)
from polyradii.radii import symmetric_circumradius

SQRT3 = math.sqrt(3.0)
TRIANGLE = make_body(BodySpec("equilateral_triangle"))
SQUARE = make_body(BodySpec("centered_square"))
TRIANGLE_GAUGE = GaugeBody.from_polytope(TRIANGLE)


def unit_directions(rng, dim, count):
    u = rng.normal(size=(count, dim))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def random_polytope(rng, dim, max_vertices=8):
    n = int(rng.integers(dim + 1, max_vertices + 1))
    return VPolytope(rng.normal(scale=2.0, size=(n, dim)))


def gauge_by_bisection(body: VPolytope, x, tol=1e-11) -> float:
    """Independent oracle: bisect on membership of x/lambda."""
    x = np.asarray(x, dtype=float)
    if np.linalg.norm(x) < 1e-15:
        return 0.0
    lo, hi = 1e-9, 1.0
    while not member(body, x / hi, tol=1e-10):
        hi *= 2.0
        assert hi < 1e6
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if member(body, x / mid, tol=1e-10):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# support


def test_support_goldens():
    assert support(SQUARE, [1.0, 0.0]).value == pytest.approx(SQRT3, abs=1e-12)
    assert support(TRIANGLE, [1.0, 0.0]).value == pytest.approx(2.0, abs=1e-12)
    assert support(TRIANGLE, [-1.0, 0.0]).value == pytest.approx(1.0, abs=1e-12)
    assert support(TRIANGLE, [0.0, 0.0]).value == 0.0


def test_support_witness_attains_and_breaks_ties_low():
    out = support(TRIANGLE, [1.0, 0.0])
    assert np.allclose(out.witness, [2.0, 0.0])
    # Both right-hand vertices of the square attain in direction e1; the
    # witness must be the earliest one in the vertex list.
    out = support(SQUARE, [1.0, 0.0])
    first = next(v for v in SQUARE.vertices if v[0] > 0)
    assert np.allclose(out.witness, first)


def test_support_sublinear_and_homogeneous():
    rng = np.random.default_rng(19)
    for _ in range(100):
        dim = int(rng.integers(2, 4))
        k = random_polytope(rng, dim)
        x = rng.normal(size=dim)
        y = rng.normal(size=dim)
        hx, hy = support(k, x).value, support(k, y).value
        assert support(k, x + y).value <= hx + hy + 1e-9
        alpha = float(rng.uniform(0.1, 3.0))
        assert support(k, alpha * x).value == pytest.approx(alpha * hx, abs=1e-9)


def test_support_values_vectorised_matches_scalar():
    rng = np.random.default_rng(23)
    k = random_polytope(rng, 3)
    dirs = unit_directions(rng, 3, 25)
    bulk = support_values(k, dirs)
    for u, v in zip(dirs, bulk):
        assert support(k, u).value == pytest.approx(v, abs=1e-12)


# ---------------------------------------------------------------------------
# width


def test_width_goldens():
    assert width_fn(TRIANGLE, [1.0, 0.0]).value == pytest.approx(3.0, abs=1e-12)
    assert width_fn(SQUARE, [1.0, 0.0]).value == pytest.approx(2.0 * SQRT3, abs=1e-12)
    singleton = VPolytope([[4.0, -1.0]])
    assert width_fn(singleton, [0.3, 0.7]).value == pytest.approx(0.0, abs=1e-12)


def test_width_matches_difference_body_support_and_reflection():
    rng = np.random.default_rng(31)
    for _ in range(20):
        dim = int(rng.integers(2, 4))
        k = random_polytope(rng, dim)
        diff = difference_hull(k)
        reflected = VPolytope(-k.vertices)
        for u in unit_directions(rng, dim, 20):
            w = width_fn(k, u).value
            assert w >= -1e-12
            assert w == pytest.approx(support(diff, u).value, abs=1e-9)
            assert w == pytest.approx(width_fn(reflected, u).value, abs=1e-9)


def test_width_additive_under_minkowski_sum():
    from polyradii.convex_core import minkowski_sum

    rng = np.random.default_rng(37)
    for _ in range(15):
        dim = int(rng.integers(2, 4))
        p, q = random_polytope(rng, dim), random_polytope(rng, dim)
        s = minkowski_sum(p, q)
        for u in unit_directions(rng, dim, 20):
            assert width_fn(s, u).value == pytest.approx(
                width_fn(p, u).value + width_fn(q, u).value, abs=1e-9
            )


# ---------------------------------------------------------------------------
# gauge


def test_gauge_goldens():
    assert gauge(TRIANGLE_GAUGE, [2.0, 0.0]).value == pytest.approx(1.0, abs=1e-9)
    assert gauge(TRIANGLE_GAUGE, [0.0, 0.0]).value == pytest.approx(0.0, abs=1e-12)
    # Asymmetry: the boundary in direction -e1 sits at x = -1.
    assert gauge(TRIANGLE_GAUGE, [-2.0, 0.0]).value == pytest.approx(2.0, abs=1e-9)


def test_gauge_matches_bisection_oracle():
    rng = np.random.default_rng(41)
    for _ in range(25):
        x = rng.normal(scale=2.0, size=2)
        expected = gauge_by_bisection(TRIANGLE, x)
        assert gauge(TRIANGLE_GAUGE, x).value == pytest.approx(expected, abs=1e-7)


def test_gauge_positive_homogeneity():
    rng = np.random.default_rng(43)
    for _ in range(50):
        x = rng.normal(size=2)
        alpha = float(rng.uniform(0.1, 5.0))
        assert gauge(TRIANGLE_GAUGE, alpha * x).value == pytest.approx(
            alpha * gauge(TRIANGLE_GAUGE, x).value, abs=1e-7
        )


def test_gauge_midpoint_convexity():
    rng = np.random.default_rng(47)
    for _ in range(50):
        x, y = rng.normal(scale=3.0, size=2), rng.normal(scale=3.0, size=2)
        gx = gauge(TRIANGLE_GAUGE, x).value
        gy = gauge(TRIANGLE_GAUGE, y).value
        mid = gauge(TRIANGLE_GAUGE, (x + y) / 2.0).value
        assert mid <= (gx + gy) / 2.0 + 1e-7


def test_gauge_witness_is_boundary_point():
    out = gauge(TRIANGLE_GAUGE, [-3.0, 0.5])
    assert out.witness is not None
    assert member(TRIANGLE, out.witness, tol=1e-7)
    assert np.allclose(out.value * out.witness, [-3.0, 0.5], atol=1e-7)


def test_gauge_body_requires_interior_origin():
    shifted = VPolytope(TRIANGLE.vertices + np.array([10.0, 0.0]))
    with pytest.raises(GaugeError):
        GaugeBody.from_polytope(shifted)
    segment = VPolytope([[-1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(GaugeError):
        GaugeBody.from_polytope(segment)
    # The origin is a vertex; at this size rounding of a slack relative to
    # the body would exceed the absolute margin.
    t = np.array([[-0.139, -0.477], [1.065, 1.416], [-2.228, -0.414]])
    with pytest.raises(GaugeError):
        GaugeBody.from_polytope(VPolytope(1e9 * (t - t[0])))


# ---------------------------------------------------------------------------
# the batched gauge's facet-cone cache


def _probe_points(rng, vertices):
    """Random points and points on cone boundaries: vertex directions, edge
    midpoints and the origin, each also at another length."""
    n = vertices.shape[0]
    i, j = np.triu_indices(n, k=1)
    points = np.vstack([rng.normal(size=(120, vertices.shape[1])), vertices,
                        0.5 * (vertices[i] + vertices[j]),
                        np.zeros((1, vertices.shape[1]))])
    return np.vstack([points, 2.5 * points])


def _assert_cache_matches_gauge_lps(monkeypatch, body, points):
    direct = np.array([_GaugeLP(body.vertices)(p)[0] for p in points])
    calls = []
    solve = lp_solver.solve
    monkeypatch.setattr(lp_solver, "solve", lambda lp, **kw: calls.append(1) or solve(lp, **kw))
    evaluate = _GaugeEvaluator(body)
    cached = evaluate(points)
    monkeypatch.setattr(lp_solver, "solve", solve)
    assert (np.isinf(cached) == np.isinf(direct)).all()
    finite = np.isfinite(direct)
    np.testing.assert_allclose(cached[finite], direct[finite], rtol=1e-12, atol=0.0)
    return cached, len(calls), evaluate


def _record_walks(monkeypatch):
    """Wrap ``_GaugeEvaluator._walk``; for each call, append the evaluator,
    the walked values and whether each row took a pivot off the cached
    facet it started from (the one with the largest y_f.x)."""
    walked = []
    walk = _GaugeEvaluator._walk

    def recorded(evaluate, points):
        answer = walk(evaluate, points)
        walked.append((evaluate, answer[0], answer[3]))
        return answer

    monkeypatch.setattr(_GaugeEvaluator, "_walk", recorded)
    return walked


def _pivoted(walked, evaluate, certified=True):
    """Rows of ``evaluate`` that left their start facet, counting only those
    a walk certified with a finite gauge unless ``certified`` is False."""
    return sum(int((moved & (np.isfinite(values) if certified else True)).sum())
               for owner, values, moved in walked if owner is evaluate)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_cached_gauge_matches_one_lp_per_point(monkeypatch, dim):
    rng = np.random.default_rng(dim)
    cube = make_body(BodySpec("cube", dim=dim))
    bodies = [cube, VPolytope(cube.vertices + 2.0)]  # the second has the origin outside
    for _ in range(3):
        p = random_polytope(rng, dim, max_vertices=6)
        bodies.append(VPolytope(p.vertices - p.vertices.mean(axis=0)))
        bodies.append(difference_hull(p))
        bodies.append(p)  # the origin need not be interior: inf off the cone
    walked = _record_walks(monkeypatch)
    for body in bodies:
        points = _probe_points(rng, body.vertices)
        values, solved, evaluate = _assert_cache_matches_gauge_lps(monkeypatch, body, points)
        if evaluate.polar_vertices is not None:
            # A planar body with the origin interior: its facets, no LP.
            assert solved == 0 and np.isfinite(values).all()
        else:
            # Each cached facet came from an LP or a walk that pivoted off
            # its start facet, most points take no LP, and a full-dimensional
            # body's walks answer some after pivoting.
            pivoted = _pivoted(walked, evaluate)
            assert evaluate.solved == solved < points.shape[0] // 2
            assert evaluate.inverses.shape[0] <= evaluate.solved + pivoted
            assert pivoted > 0
    assert np.isinf(_GaugeEvaluator(bodies[1])(-np.eye(dim))).all()


def test_walk_off_the_cone_answers_inf_like_the_lp(monkeypatch):
    shifted = VPolytope(make_body(BodySpec("cube", dim=3)).vertices + 2.0)
    points = _probe_points(np.random.default_rng(7), shifted.vertices)
    walked = []
    walk = _GaugeEvaluator._walk

    def recorded(evaluate, wave):
        answer = walk(evaluate, wave)
        walked.extend(zip(wave, *answer[:2]))
        return answer

    monkeypatch.setattr(_GaugeEvaluator, "_walk", recorded)
    values, normals = _GaugeEvaluator(shifted).with_normals(points)
    lp = _GaugeLP(shifted.vertices)
    off = [(x, normal) for x, value, normal in walked if value == np.inf]
    assert len(off) > points.shape[0] // 2
    for x, normal in off:
        assert np.isnan(normal).all()
        assert lp(x) == (np.inf, None, None)
    direct = np.array([lp(p)[0] for p in points])
    assert (np.isinf(values) == np.isinf(direct)).all()
    assert np.isnan(normals[np.isinf(values)]).all()
    assert not np.isnan(normals[np.isfinite(values)]).any()


@pytest.mark.parametrize("dim", [3, 4])
def test_walk_free_path_gives_the_same_gauges(monkeypatch, dim):
    # With the pivot cap at 0 no walk pivots: a point that its start
    # facet's cone holds stops there, as one off the cone may with inf, and
    # every other point takes an LP; both paths return certified polar
    # vertices.
    rng = np.random.default_rng(10 + dim)
    p = random_polytope(rng, dim)
    walked = _record_walks(monkeypatch)
    for body in (difference_hull(p), p):
        points = _probe_points(rng, body.vertices)
        walking = _GaugeEvaluator(body)
        values, normals = walking.with_normals(points)
        with monkeypatch.context() as m:
            m.setattr(convex_core, "_WALK_PIVOTS", 0)
            plain = _GaugeEvaluator(body)
            plain_values, plain_normals = plain.with_normals(points)
        assert _pivoted(walked, walking) > 0 and plain.walks > 0
        assert _pivoted(walked, plain, certified=False) == 0
        assert walking.solved < plain.solved
        assert (np.isinf(values) == np.isinf(plain_values)).all()
        finite = np.isfinite(values)
        np.testing.assert_allclose(values[finite], plain_values[finite], rtol=1e-12, atol=0.0)
        for y in (normals[finite], plain_normals[finite]):
            np.testing.assert_allclose(np.einsum("ij,ij->i", y, points[finite]),
                                       values[finite], rtol=1e-12, atol=1e-12)
            assert (body.vertices @ y.T).max() <= 1.0 + 1e-12


def test_walk_capped_at_one_pivot_leaves_the_rest_to_the_lp(monkeypatch):
    # With one pivot allowed, rows certified on it leave the wave by walk
    # and the others take the LP on their own, all with the LP's values.
    rng = np.random.default_rng(3)
    body = difference_hull(VPolytope(rng.normal(size=(30, 4))))
    points = rng.normal(size=(150, 4))
    monkeypatch.setattr(convex_core, "_WALK_PIVOTS", 1)
    walked = _record_walks(monkeypatch)
    evaluate = _GaugeEvaluator(body)
    values, normals = evaluate.with_normals(points)
    assert _pivoted(walked, evaluate) > 0 and evaluate.solved > 1 and evaluate.waves > 0
    lp = _GaugeLP(body.vertices)
    direct = np.array([lp(p)[0] for p in points])
    np.testing.assert_allclose(values, direct, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(np.einsum("ij,ij->i", normals, points), values,
                               rtol=1e-12, atol=1e-12)
    assert (body.vertices @ normals.T).max() <= 1.0 + 1e-12


def test_walk_inverts_lane_by_lane_at_a_singular_stack(monkeypatch):
    # When the stacked inverse of a pivot's new bases fails, each lane is
    # inverted on its own; a lane whose own inverse fails too hands its
    # point to the LP, and the other lanes walk on to the LP's values.
    rng = np.random.default_rng(3)
    body = difference_hull(VPolytope(rng.normal(size=(8, 3))))
    points = rng.normal(size=(60, 3))
    lp = _GaugeLP(body.vertices)
    direct = np.array([lp(p)[0] for p in points])
    solved = []
    call = _GaugeLP.__call__
    monkeypatch.setattr(_GaugeLP, "__call__", lambda lp, x: solved.append(x) or call(lp, x))
    _GaugeEvaluator(body)(points)
    plain = [tuple(x) for x in solved]

    inv, walk, walking, stacks, lanes = np.linalg.inv, _GaugeEvaluator._walk, [], [], []

    def singular(a):
        if walking and (a.ndim == 3 or not lanes):
            (stacks if a.ndim == 3 else lanes).append(a.shape)
            raise np.linalg.LinAlgError("Singular matrix")
        return inv(a)

    def recorded(evaluate, wave):
        walking.append(True)
        try:
            return walk(evaluate, wave)
        finally:
            walking.pop()

    monkeypatch.setattr(np.linalg, "inv", singular)
    monkeypatch.setattr(_GaugeEvaluator, "_walk", recorded)
    solved.clear()
    evaluate = _GaugeEvaluator(body)
    values, normals = evaluate.with_normals(points)
    assert stacks and lanes == [(3, 3)]
    extra = [tuple(x) for x in solved if tuple(x) not in plain]
    assert len(extra) == 1 and len(solved) == len(plain) + 1 == evaluate.solved
    np.testing.assert_allclose(values, direct, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(np.einsum("ij,ij->i", normals, points), values,
                               rtol=1e-12, atol=1e-12)
    assert (body.vertices @ normals.T).max() <= 1.0 + 1e-12


def test_a_fork_keeps_what_it_learns_to_itself():
    # Walking a fork of a body's certificate caches new facets in the fork
    # alone: the certificate's facet arrays stay as they were, so a second
    # fork starts where the first did and gives the same bits.  A flat
    # body's fork forks its inner evaluator too.  A planar body's polar
    # vertices learn nothing, so its certificate is its own fork.
    rng = np.random.default_rng(17)
    planar = convex_core._certified(difference_hull(VPolytope(rng.normal(size=(9, 2)))))[0]
    assert planar.polar_vertices is not None and planar.fork() is planar
    plane = np.linalg.qr(rng.normal(size=(4, 4)))[0][:, :3]
    for body in (difference_hull(VPolytope(rng.normal(size=(10, 3)))),
                 VPolytope(rng.normal(size=(12, 3)) @ plane.T)):
        certified = convex_core._certified(body)[0]
        walker = certified if certified.span is None else certified.inner
        bases, waves = walker.bases.copy(), walker.waves
        arrays = walker.bases, walker.inverses, walker.normals
        points = rng.normal(size=(200, 3)) @ (np.eye(3) if certified.span is None else plane.T)
        first = certified.fork()
        assert first is not certified
        values, normals = first.with_normals(points)
        learned = first if first.span is None else first.inner
        assert learned.bases.shape[0] > bases.shape[0] and learned is not walker
        assert all(a is b for a, b in zip(arrays, (walker.bases, walker.inverses,
                                                   walker.normals)))
        assert (walker.bases == bases).all() and walker.waves == waves
        again = certified.fork().with_normals(points)
        assert values.tobytes() == again[0].tobytes()
        assert normals.tobytes() == again[1].tobytes()


def test_a_reused_gauge_body_gives_the_same_bits_in_any_call_order():
    # Every call forks the certificate afresh, so no call starts from the
    # cones an earlier one met: one GaugeBody over the points, forward or
    # reversed, gives what a fresh GaugeBody per point gives, bit for bit.
    # The centred fast path gets the same from the mirrored body [C; -C].
    rng = np.random.default_rng(7)
    for dim in (3, 4, 5):
        for _ in range(3):
            v = rng.normal(size=(int(rng.integers(8, 31)), dim))
            body = VPolytope(v - v.mean(axis=0))
            mirrored = VPolytope(np.vstack([body.vertices, -body.vertices]))
            points = rng.normal(size=(40, dim))
            segments = [VPolytope([x, -x]) for x in points]
            for size, gauge_body, inputs in (
                    (lambda g, x: gauge(g, x).value, body, points),
                    (lambda g, x: radius_fn(g, x).value, body, points),
                    (lambda g, k: symmetric_circumradius(k, g), mirrored, segments)):
                fresh = [size(GaugeBody.from_polytope(gauge_body), x) for x in inputs]
                reused = GaugeBody.from_polytope(gauge_body)
                assert [size(reused, x) for x in inputs] == fresh
                assert [size(reused, x) for x in inputs[::-1]][::-1] == fresh


def test_flat_body_is_evaluated_in_its_span_and_inf_off_its_cone(monkeypatch):
    rng = np.random.default_rng(5)
    triangle = VPolytope([[1.0, 0.0, 0.0], [-0.5, 1.0, 0.0], [-0.5, -1.0, 0.0]])
    points = np.vstack([_probe_points(rng, triangle.vertices),
                        rng.normal(size=(20, 2)) @ np.eye(2, 3)])
    values, solved, evaluate = _assert_cache_matches_gauge_lps(monkeypatch, triangle, points)
    # No more LPs than the triangle needs in its own plane, where the origin
    # is interior: its polar vertices answer every point, with none.
    assert evaluate.inner.polar_vertices is not None and solved == 0
    off_plane = points[:, 2] != 0.0
    assert off_plane.any() and np.isinf(values[off_plane]).all()
    assert np.isfinite(values[~off_plane]).all()


# ---------------------------------------------------------------------------
# radius function and maximal chords


def test_radius_goldens():
    assert radius_fn(TRIANGLE_GAUGE, [1.0, 0.0]).value == pytest.approx(2.0, abs=1e-9)
    assert radius_fn(TRIANGLE_GAUGE, [-1.0, 0.0]).value == pytest.approx(1.0, abs=1e-9)


def test_radius_is_reciprocal_gauge():
    rng = np.random.default_rng(53)
    for u in unit_directions(rng, 2, 100):
        r = radius_fn(TRIANGLE_GAUGE, u).value
        g = gauge(TRIANGLE_GAUGE, u).value
        assert r * g == pytest.approx(1.0, abs=1e-7)


def test_radius_rejects_bad_inputs():
    with pytest.raises(ValueError):
        radius_fn(TRIANGLE, [0.0, 0.0])
    shifted = VPolytope(TRIANGLE.vertices + np.array([10.0, 0.0]))
    with pytest.raises(GaugeError):
        radius_fn(shifted, [1.0, 0.0])


def test_max_chord_golden_square():
    assert max_chord(SQUARE, [1.0, 0.0]).value == pytest.approx(2.0 * SQRT3, abs=1e-9)


def test_max_chord_reuleaux_is_constant_width():
    body = make_body(BodySpec("reuleaux_triangle", n=96))
    theta = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
    for t in theta:
        u = np.array([np.cos(t), np.sin(t)])
        assert max_chord(body, u).value == pytest.approx(2.0 * SQRT3, abs=5e-3)


def test_max_chord_laws():
    rng = np.random.default_rng(59)
    for _ in range(15):
        k = random_polytope(rng, 2)
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        base = max_chord(k, u).value
        beta = float(rng.uniform(0.2, 3.0))
        scaled = VPolytope(beta * k.vertices)
        assert max_chord(scaled, u).value == pytest.approx(beta * base, abs=1e-7)
        reflected = VPolytope(-k.vertices)
        assert max_chord(reflected, u).value == pytest.approx(base, abs=1e-7)
        assert max_chord(k, -u).value == pytest.approx(base, abs=1e-7)


def test_max_chord_of_centered_body_doubles_radius():
    rng = np.random.default_rng(61)
    for _ in range(10):
        half = rng.normal(scale=2.0, size=(4, 2))
        k = VPolytope(np.vstack([half, -half]))  # centered by construction
        for u in unit_directions(rng, 2, 10):
            chord = max_chord(k, u).value
            assert chord == pytest.approx(2.0 * radius_fn(k, u).value, abs=1e-7)


def test_max_chord_degenerate_direction():
    seg = VPolytope([[0.0, 0.0], [1.0, 0.0]])
    assert max_chord(seg, [0.0, 1.0]).value == pytest.approx(0.0, abs=1e-9)
    assert max_chord(seg, [1.0, 0.0]).value == pytest.approx(1.0, abs=1e-9)


def test_max_chord_of_a_flat_body_off_the_plane_reads_its_span(monkeypatch):
    # K - K of a flat K is evaluated in its span: one gauge LP's value per
    # direction, through the origin and off it, and 0 off the span.  A span
    # that is a plane is read off its polar vertices, with no LP.
    rng = np.random.default_rng(17)
    calls, solve = [], lp_solver.solve

    def counted(lp, **kw):
        calls.append(1)
        return solve(lp, **kw)

    for dim, rank in ((3, 2), (3, 1), (4, 3)):
        basis = np.linalg.qr(rng.normal(size=(dim, dim)))[0][:, :rank]
        flat = rng.normal(size=(7, rank)) @ basis.T
        directions = np.vstack([rng.normal(size=(4, rank)) @ basis.T,
                                rng.normal(size=(2, dim))])
        for k in (VPolytope(flat - flat.mean(axis=0)), VPolytope(flat + rng.normal(size=dim))):
            lp = _GaugeLP(difference_hull(k).vertices)
            want = np.array([lp(u)[0] for u in directions])
            calls.clear()
            monkeypatch.setattr(lp_solver, "solve", counted)
            got = np.array([max_chord(k, u).value for u in directions])
            monkeypatch.undo()
            assert np.isinf(want[-2:]).all() and (got[-2:] == 0.0).all()
            np.testing.assert_allclose(got[:-2], 1.0 / want[:-2], rtol=1e-12, atol=0.0)
            assert rank != 2 or not calls
    # A body of one vertex has K - K the origin alone: every chord is 0.
    assert max_chord(VPolytope([[1.0, 2.0, 3.0]]), [0.0, 0.0, 1.0]).value == 0.0
    # A flat body, centred, is no gauge body.
    with pytest.raises(GaugeError):
        GaugeBody.from_polytope(VPolytope(flat - flat.mean(axis=0)))


# ---------------------------------------------------------------------------
# polar sets


def test_polar_goldens():
    unit_square = VPolytope([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    h = polar(unit_square)
    assert np.allclose(np.sort(np.abs(h.normals), axis=0), np.ones((4, 2)))
    assert np.allclose(h.offsets, 1.0)
    cross = VPolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    hc = polar(cross)
    # The polar of the cross-polytope is the unit cube.
    for x in ([0.9, 0.9], [-0.9, 0.9]):
        assert (hc.normals @ x <= hc.offsets + 1e-12).all()
    assert (hc.normals @ np.array([1.1, 0.0]) > hc.offsets).any()
    tri_polar = polar(TRIANGLE)
    assert (tri_polar.normals @ np.array([0.5, 0.0]) <= tri_polar.offsets + 1e-12).all()


def test_polar_membership_matches_support():
    rng = np.random.default_rng(67)
    for _ in range(20):
        k = random_polytope(rng, 2)
        h = polar(k)
        for x in rng.normal(size=(20, 2)):
            in_polar = (h.normals @ x <= h.offsets + 1e-12).all()
            assert in_polar == (support(k, x).value <= 1.0 + 1e-9)


# ---------------------------------------------------------------------------
# supporting hyperplane distances


def test_hyperplane_distance_goldens():
    h, dist0, wdist = supporting_hyperplane_distance(TRIANGLE, [1.0, 0.0])
    assert h == pytest.approx(2.0, abs=1e-12)
    assert dist0 == pytest.approx(2.0, abs=1e-12)
    assert wdist == pytest.approx(3.0, abs=1e-12)
    h, dist0, _ = supporting_hyperplane_distance(TRIANGLE, [-1.0, 0.0])
    assert h == pytest.approx(1.0, abs=1e-12)
    assert dist0 == pytest.approx(1.0, abs=1e-12)


def test_hyperplane_distance_equals_width_when_origin_inside():
    rng = np.random.default_rng(71)
    for _ in range(15):
        k = random_polytope(rng, 2)
        if not member(k, [0.0, 0.0], tol=1e-9):
            k = VPolytope(k.vertices - k.vertices.mean(axis=0))
        for u in unit_directions(rng, 2, 15):
            _, _, wdist = supporting_hyperplane_distance(k, u)
            assert wdist == pytest.approx(width_fn(k, u).value, abs=1e-9)


def test_hyperplane_distance_is_euclidean_point_plane_distance():
    rng = np.random.default_rng(73)
    k = random_polytope(rng, 3)
    for u in unit_directions(rng, 3, 20):
        h, dist0, _ = supporting_hyperplane_distance(k, u)
        # Distance from the origin to {y : <u, y> = h} for unit u is |h|.
        foot = h * u
        assert dist0 == pytest.approx(np.linalg.norm(foot), abs=1e-12)


def test_hyperplane_distance_rejects_non_unit_direction():
    with pytest.raises(ValueError):
        supporting_hyperplane_distance(TRIANGLE, [1.0, 1.0])


def test_hyperplane_distance_components_when_origin_outside():
    # With the origin outside the slab the distance sum exceeds the width by
    # twice the distance to the nearer hyperplane; only the components are
    # asserted, not a sum rule.
    shifted = VPolytope(TRIANGLE.vertices + np.array([10.0, 0.0]))
    u = np.array([1.0, 0.0])
    h, dist0, wdist = supporting_hyperplane_distance(shifted, u)
    assert h == pytest.approx(12.0, abs=1e-12)
    assert dist0 == pytest.approx(12.0, abs=1e-12)
    w = width_fn(shifted, u).value
    assert wdist == pytest.approx(w + 2.0 * 9.0, abs=1e-12)  # h(-u) = -9
    assert wdist >= w


def test_functional_value_witness_contract():
    out = support(TRIANGLE, [0.0, 1.0])
    assert isinstance(out, FunctionalValue)
    assert out.witness @ np.array([0.0, 1.0]) == pytest.approx(out.value, abs=1e-12)
