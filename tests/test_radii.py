import math
import tracemalloc

import numpy as np
import pytest

from polyradii import convex_core, lp_solver, radii
from polyradii.bodies import BodySpec, make_body
from polyradii.cli import _REULEAUX_REFERENCES
from polyradii.convex_core import (
    DimensionMismatchError,
    VPolytope,
    _GaugeEvaluator,
    difference_hull,
    facets_2d,
    hull_2d,
    member,
    minkowski_sum,
    transform,
)
from polyradii.functionals import GaugeBody, gauge, support_values
from polyradii.radii import (
    ChainReport,
    circumradius,
    diameter,
    induced_norm,
    inradius,
    min_width,
    radii_report,
    symmetric_circumradius,
    verify_chain,
)
from test_cross_validation import (
    oracle_circumradius,
    oracle_diameter,
    oracle_inradius,
    oracle_min_width,
)

SQRT3 = math.sqrt(3.0)
TRIANGLE = make_body(BodySpec("equilateral_triangle"))
SQUARE = make_body(BodySpec("centered_square"))
BIG_SQUARE = VPolytope(2.0 * SQUARE.vertices)  # conv{(±2√3, ±2√3)} = K-K of SQUARE
HALF_HEXAGON = VPolytope(
    0.5 * np.array(
        [
            [3.0, SQRT3], [0.0, 2.0 * SQRT3], [-3.0, SQRT3],
            [-3.0, -SQRT3], [0.0, -2.0 * SQRT3], [3.0, -SQRT3],
        ]
    )
)

DIAMETER_REF = (2.0 / 3.0) * (3.0 + SQRT3)        # 3.1547005...
CIRCUM_DIFF_REF = 2.0 + 4.0 / SQRT3               # 4.3094010...
PAIR_GAUGE_REF = 3.0 + SQRT3                      # 4.7320508...


def random_polytope(rng, dim, max_vertices=6):
    n = int(rng.integers(dim + 1, max_vertices + 1))
    return VPolytope(rng.normal(scale=2.0, size=(n, dim)))


def random_full_dim(rng, dim, max_vertices=6):
    for _ in range(50):
        p = random_polytope(rng, dim, max_vertices)
        if np.linalg.matrix_rank(p.vertices - p.vertices[0], tol=1e-6) == dim:
            return p
    raise AssertionError("could not draw a full-dimensional body")


def contains(outer: VPolytope, inner: VPolytope, tol=1e-7) -> bool:
    return all(member(outer, v, tol=tol) for v in inner.vertices)


# ---------------------------------------------------------------------------
# circumradius


def test_circumradius_of_simplex_in_cube():
    for d in (2, 3):
        k = make_body(BodySpec("simplex", dim=d))
        c = make_body(BodySpec("cube", dim=d))
        res = circumradius(k, c)
        assert res.value == pytest.approx(0.5, abs=1e-9)
        assert res.center == pytest.approx([0.5] * d, abs=1e-7)


def test_circumradius_of_singleton_is_zero():
    k = VPolytope([[0.7, -0.3]])
    res = circumradius(k, TRIANGLE)
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_circumradius_of_square_difference_in_triangle():
    res = circumradius(BIG_SQUARE, TRIANGLE)
    assert res.value == pytest.approx(CIRCUM_DIFF_REF, abs=1e-7)


def test_circumradius_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        circumradius(TRIANGLE, make_body(BodySpec("cube", dim=3)))


def test_circumradius_matches_scipy_oracle_on_random_planar_pairs():
    rng = np.random.default_rng(211)
    for _ in range(25):
        k = random_polytope(rng, 2)
        c = random_full_dim(rng, 2)
        assert circumradius(k, c).value == pytest.approx(oracle_circumradius(k, c), abs=1e-7)


def test_circumradius_matches_minimax_gauge_form():
    rng = np.random.default_rng(223)
    gb = GaugeBody.from_polytope(TRIANGLE)
    for _ in range(10):
        k = random_polytope(rng, 2)
        res = circumradius(k, TRIANGLE)
        at_center = max(gauge(gb, v - res.center).value for v in k.vertices)
        assert at_center == pytest.approx(res.value, abs=1e-7)
        # The reported center is a minimiser: sampled centers never beat it.
        for x in rng.normal(scale=2.0, size=(15, 2)):
            sampled = max(gauge(gb, v - x).value for v in k.vertices)
            assert sampled >= res.value - 1e-7


def test_planar_circumradius_takes_segment_and_point_gauges():
    segment = VPolytope([[-1.0, 0.0], [1.0, 0.0]])
    res = circumradius(VPolytope([[0.0, 0.0], [2.0, 0.0]]), segment)
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(res.center, [1.0, 0.0], atol=1e-9)
    origin = VPolytope([[0.0, 0.0]])
    assert circumradius(origin, origin).value == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(RuntimeError):
        circumradius(VPolytope([[0.0, -1.0], [0.0, 1.0]]), segment)


def test_circumradius_witness_contains_body():
    rng = np.random.default_rng(227)
    for _ in range(10):
        k = random_polytope(rng, 2)
        c = random_full_dim(rng, 2)
        res = circumradius(k, c)
        cover = transform(c, max(res.value, 1e-12), res.center)
        assert contains(cover, k, tol=1e-6)


# ---------------------------------------------------------------------------
# inradius


def test_inradius_of_body_in_itself_is_one():
    for body in (TRIANGLE, make_body(BodySpec("cube", dim=3))):
        assert inradius(body, body).value == pytest.approx(1.0, abs=1e-9)


def test_inradius_of_nested_cubes():
    outer = make_body(BodySpec("cube", dim=2, scale=2.0))
    inner = make_body(BodySpec("cube", dim=2))
    assert inradius(outer, inner).value == pytest.approx(2.0, abs=1e-9)


def test_inradius_matches_scipy_oracle_on_random_planar_pairs():
    rng = np.random.default_rng(229)
    for _ in range(25):
        k = random_full_dim(rng, 2)
        c = random_polytope(rng, 2)
        assert inradius(k, c).value == pytest.approx(oracle_inradius(k, c), abs=1e-7)


def test_inradius_witness_translate_fits():
    rng = np.random.default_rng(233)
    for _ in range(10):
        k = random_full_dim(rng, 2)
        c = random_full_dim(rng, 2)
        res = inradius(k, c)
        if res.value <= 1e-6:
            continue
        inscribed = transform(c, res.value, res.center)
        assert contains(k, inscribed, tol=1e-6)


def test_inradius_unbounded_for_point_gauge():
    with pytest.raises(ValueError):
        inradius(TRIANGLE, VPolytope([[0.0, 0.0]]))
    origin = VPolytope([[0.0, 0.0]])
    with pytest.raises(ValueError, match="unbounded"):
        inradius(origin, origin)


def test_inradius_is_the_reciprocal_circumradius_of_one_program(monkeypatch):
    # C lies in y + R K exactly when -y/R + C/R lies in K, so r(K, C) is
    # 1 / R(C, K) with centre -y/R, and both run the same programs: the same
    # masters, each the simplex on max g'z with sum z_f (p_f, 1) = e_{d+1},
    # and the same gauge LPs, none with a ">=" row.
    rng = np.random.default_rng(222)
    solve, simplex = lp_solver.solve, radii._simplex
    for dim in (2, 3, 4, 5):
        for trial in range(6):
            k = rng.normal(size=(int(rng.integers(dim + 2, 3 * dim + 3)), dim))
            c = rng.normal(size=(int(rng.integers(dim + 2, 3 * dim + 3)), dim))
            if trial % 2:
                c = c - c.mean(axis=0) + rng.normal(scale=2.0, size=dim) * (trial % 3)
            calls = {"r": [], "R": []}
            for name, call, args in (("r", inradius, (k, c)), ("R", circumradius, (c, k))):
                monkeypatch.setattr(lp_solver, "solve", lambda lp, **kw: calls[name].append(
                    (lp.lhs.shape, lp.relations)) or solve(lp, **kw))
                monkeypatch.setattr(radii, "_simplex", lambda points, gains, basis: calls[
                    name].append(("master", points.shape)) or simplex(points, gains, basis))
                calls[name + "_result"] = call(*(VPolytope(v.copy()) for v in args))
            monkeypatch.undo()
            r, big_r = calls["r_result"], calls["R_result"]
            assert r.value * big_r.value == pytest.approx(1.0, rel=1e-15)
            np.testing.assert_array_equal(r.center, -big_r.center / big_r.value)
            assert calls["r"] == calls["R"]
            assert any(call[0] == "master" for call in calls["r"])
            assert not any(lp_solver.GREATER_EQUAL in call[1] for call in calls["r"]
                           if call[0] != "master")


def test_facet_lps_reject_centres_their_duals_do_not_certify(monkeypatch):
    real_simplex = radii._simplex

    def simplex_with(prices):
        return lambda points, gains, basis: prices(real_simplex(points, gains, basis))

    # A planar master's cuts are the gauge body's facets alone.
    monkeypatch.setattr(radii, "_simplex", simplex_with(lambda out: out + [5.0, 5.0, 0.0]))
    with pytest.raises(RuntimeError, match=r"circumradius facet LP \(3 x 3\).*violates"):
        circumradius(SQUARE, TRIANGLE)
    monkeypatch.setattr(radii, "_simplex", simplex_with(lambda out: out * np.nan))
    with pytest.raises(RuntimeError, match=r"inradius facet LP \(3 x 4\) returned no duals"):
        inradius(SQUARE, TRIANGLE)


def test_containment_failures_name_program_size_and_gap(monkeypatch):
    monkeypatch.setattr(radii, "_MAX_CUT_ROUNDS", 1)
    with pytest.raises(RuntimeError, match=r"circumradius facet generation did not converge "
                       r"in 1 rounds \(d=3, \d+ cuts, last oracle-master gap \d"):
        circumradius(make_body(BodySpec("simplex", dim=3)), make_body(BodySpec("cube", dim=3)))
    monkeypatch.setattr(radii, "_simplex", lambda points, gains, basis: None)
    with pytest.raises(RuntimeError, match=r"inradius facet LP \(3 x 4\) ended with status "
                       r"numerical-failure \(d=2, 4 cuts, last oracle-master gap inf\)"):
        inradius(SQUARE, TRIANGLE)


def test_planar_master_has_the_facets_as_cuts_and_prices_no_start_cut(monkeypatch):
    # Every facet of a planar gauge body is a cut from the start, priced by
    # its offset, so the engine takes no support search of the framed outer
    # body and its one master has exactly one cut per facet.
    supports, masters, outer = [], [], []
    real_support, real_simplex, generate = (radii.support_values, radii._simplex,
                                            radii._facet_generation)
    monkeypatch.setattr(radii, "support_values", lambda k, u: supports.append(k) or
                        real_support(k, u))
    monkeypatch.setattr(radii, "_simplex", lambda points, gains, basis: masters.append(
        points.shape) or real_simplex(points, gains, basis))
    monkeypatch.setattr(radii, "_facet_generation", lambda program, inner, supports_of, evaluate:
                        outer.append(evaluate.body) or generate(program, inner, supports_of,
                                                                evaluate))
    for n in (24, 96):
        c = make_body(BodySpec("reuleaux_triangle", n=n))
        for k, gauge_body in ((SQUARE, TRIANGLE), (VPolytope(-c.vertices), c)):
            supports.clear(), masters.clear(), outer.clear()
            circumradius(k, gauge_body)
            assert len(outer) == 1 and not any(body is outer[0] for body in supports)
            assert masters == [(len(facets_2d(gauge_body).offsets), 2)]


@pytest.mark.parametrize("seed", [105, 107])
@pytest.mark.parametrize("dim", [3, 4])
def test_cube_in_a_thin_rotated_box_takes_each_facet_cut_once(seed, dim):
    # A box 1e-5 thin has square faces that its gauge caches as several
    # cones with one polar vertex, up to rounding.  Each enters the master
    # once: twin cuts priced near 1e5 made its basis singular.  The gauge of
    # the box Q diag(s) [-1, 1]^d is max_k |q_k . y| / s_k, so over the cube
    # R(cube, box) = max_k |q_k|_1 / s_k, at the centre 0.
    t = 1e-5
    rotation = np.linalg.qr(np.random.default_rng(seed).normal(size=(dim, dim)))[0]
    cube = make_body(BodySpec("cube", dim=dim))
    box = VPolytope(cube.vertices * np.r_[np.ones(dim - 1), t] @ rotation.T)
    l1 = np.abs(rotation).sum(axis=0)
    want = max(l1[-1] / t, l1[:-1].max())
    assert circumradius(cube, box).value == pytest.approx(want, rel=1e-9)
    assert inradius(box, cube).value == pytest.approx(1.0 / want, rel=1e-9)


def test_radii_report_computes_the_diameter_once_and_four_containments(monkeypatch):
    # With the chain on, the report hands it its D, with the (C-C)/2 that
    # D warmed, and its R: one diameter, and containment for R, r, a3 and a4.
    c = make_body(BodySpec("reuleaux_triangle", n=48))
    rng = np.random.default_rng(4)
    pairs = [(SQUARE, TRIANGLE), (VPolytope(-c.vertices), c),
             (VPolytope(rng.normal(size=(9, 3))), VPolytope(rng.normal(size=(8, 3))))]
    for k, gauge_body in pairs:
        calls = {"_diameter": 0, "_containment": 0}
        with monkeypatch.context() as m:
            for name in calls:
                m.setattr(radii, name, lambda *args, _name=name, _real=getattr(radii, name): (
                    calls.__setitem__(_name, calls[_name] + 1) or _real(*args)))
            report = radii_report(k, gauge_body)
        assert calls == {"_diameter": 1, "_containment": 4}
        assert report["chain"] == verify_chain(k, gauge_body).to_dict()
        assert report["D"] == diameter(k, gauge_body).to_dict()
        assert report["R"] == circumradius(k, gauge_body).to_dict()


def _engine_work(monkeypatch):
    """The masters and the oracle waves of each facet generation from here
    on, in order.  Masters are the calls of the engine's simplex; the oracle
    is the outer evaluator, a fork that only the engine evaluates."""
    work, masters = [], []
    simplex, generate = radii._simplex, radii._facet_generation
    monkeypatch.setattr(radii, "_simplex", lambda *args: masters.append(1) or simplex(*args))

    def recorded(program, inner, supports_of, evaluate):
        before = len(masters)
        out = generate(program, inner, supports_of, evaluate)
        work.append((len(masters) - before, evaluate.waves))
        return out

    monkeypatch.setattr(radii, "_facet_generation", recorded)
    return work


def test_centred_spatial_pair_stops_at_its_first_master(monkeypatch):
    # K = -K and C = -C, so the origin is an optimal centre: the oracle at K's
    # centroid attains R, and the first master, seeded with the facet cones
    # of C's certificate, meets that bound.  The incumbent ends the loop
    # with no second oracle wave.
    rotation = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 4)))[0]
    cross = VPolytope(np.vstack([np.eye(4), -np.eye(4)]))
    cube = make_body(BodySpec("cube", dim=4)).vertices
    work = _engine_work(monkeypatch)
    res = circumradius(cross, VPolytope(cube @ rotation.T))
    assert work == [(1, 1)]  # one master, one oracle wave
    # The gauge of the rotated cube Q [-h, h]^4 at e_k is max_i |Q_ki| / h.
    assert res.value == pytest.approx(np.abs(rotation).max() / np.abs(cube).max(), rel=1e-12)
    np.testing.assert_allclose(res.center, np.zeros(4), atol=1e-12)


@pytest.mark.parametrize("placement", ["raw", "centred", "shifted", "mirrored"])
def test_containment_centres_are_certified_by_one_gauge_lp_per_vertex(placement):
    # The engine returns the best centre its oracle has seen once a master
    # meets that bound: K must lie in x + R C up to the stopping rule, which
    # one gauge LP per vertex of K checks.  The LP is the least t with
    # v - x in t C, so it checks containment wherever C's origin lies.
    # Mirrored pairs, K = -K and C = -C, stop at their first master, whose
    # own centre need not be optimal.
    rng = np.random.default_rng(23)
    for trial in range(14):
        dim = 3 + trial % 3
        k = rng.normal(size=(int(rng.integers(dim + 2, 3 * dim + 3)), dim))
        c = rng.normal(size=(int(rng.integers(dim + 2, 3 * dim + 3)), dim))
        if placement != "raw":
            c = c - c.mean(axis=0)
        if placement == "shifted":
            c = c + rng.normal(scale=0.3, size=dim)
        if placement == "mirrored":
            k, c = np.vstack([k, -k]), np.vstack([c, -c])
        for inner, outer in ((k, c), (c, k)):  # R(C, K) is the program of r(K, C)
            res = circumradius(VPolytope(inner), VPolytope(outer))
            reference = convex_core._GaugeLP(outer)
            bound = max(reference(v - res.center)[0] for v in inner)
            assert bound <= res.value + 1e-9 * max(1.0, res.value), (trial, bound, res.value)


def test_flat_gauges_restrict_to_their_affine_hull():
    # A segment gauge in space: R of a parallel segment is the length ratio,
    # a body leaving the gauge's line has no finite R, and r of a flat body
    # in a full-dimensional one is 0.
    gauge_segment = VPolytope([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    body_segment = VPolytope([[5.0, 0.0, 2.0], [8.0, 3.0, 5.0]])
    res = circumradius(body_segment, gauge_segment)
    assert res.value == pytest.approx(3.0, abs=1e-9)
    assert contains(transform(gauge_segment, res.value, res.center), body_segment)
    with pytest.raises(RuntimeError, match="unbounded"):
        circumradius(make_body(BodySpec("simplex", dim=3)), gauge_segment)
    assert inradius(body_segment, make_body(BodySpec("cube", dim=3))).value == 0.0
    assert inradius(body_segment, gauge_segment).value == pytest.approx(3.0, abs=1e-9)


# ---------------------------------------------------------------------------
# diameter


def test_diameter_square_in_triangle_gauge():
    res = diameter(SQUARE, TRIANGLE)
    assert res.value == pytest.approx(DIAMETER_REF, abs=1e-7)
    i, j = res.pair
    d = SQUARE.vertices[j] - SQUARE.vertices[i]
    # The attaining pair is a main diagonal of the square.
    assert np.allclose(np.abs(d), 2.0 * SQRT3, atol=1e-12)
    # Both diagonals attain D; (0, 3) is the first pair in order.
    assert res.pair == (0, 3)


def test_diameter_of_singleton_is_zero():
    assert diameter(VPolytope([[1.0, 2.0]]), TRIANGLE).value == 0.0


def test_diameter_pair_witness_attains_via_two_point_circumradius():
    rng = np.random.default_rng(239)
    for _ in range(10):
        k = random_polytope(rng, 2)
        c = random_full_dim(rng, 2)
        res = diameter(k, c)
        i, j = res.pair
        two_points = VPolytope(k.vertices[[i, j]])
        attained = 2.0 * circumradius(two_points, c).value
        assert attained >= res.value - 1e-6
        assert attained <= res.value + 1e-6


def _lattice_polygon(rng, n):
    while True:
        verts = rng.integers(-3, 4, size=(n, 2)).astype(float)
        if np.linalg.matrix_rank(verts - verts[0]) == 2:
            return VPolytope(verts)


def _planar_pairs_with_ties():
    """Random pairs, integer-lattice pairs and a Reuleaux pair; the last two
    have many pairs tied at the diameter."""
    rng = np.random.default_rng(241)
    pairs = [(random_polytope(rng, 2), random_full_dim(rng, 2)) for _ in range(10)]
    lattice = np.random.default_rng(242)
    pairs += [(_lattice_polygon(lattice, 8), _lattice_polygon(lattice, 5)) for _ in range(6)]
    reuleaux = make_body(BodySpec("reuleaux_triangle", n=24))
    pairs.append((transform(reuleaux, 1.0, [0.0, 0.0], reflect=True), reuleaux))
    return pairs


def test_diameter_planar_path_matches_pairwise_gauge_lp():
    from polyradii.radii import _half_difference_gauge, _tie_floor

    for k, c in _planar_pairs_with_ties():
        res = diameter(k, c)
        gb = _half_difference_gauge(c)
        verts = k.vertices
        n = len(verts)
        # The gauge of (C-C)/2 is symmetric, so the pairs i < j suffice.
        brute = {(i, j): gauge(gb, verts[j] - verts[i]).value
                 for i in range(n) for j in range(i + 1, n)}
        top = max(brute.values())
        first = min(pair for pair, value in brute.items() if value >= _tie_floor(top))
        assert res.value == pytest.approx(top, abs=1e-7)
        assert res.pair == first


def test_chain_a5_matches_ordered_pair_gauge_lps():
    from polyradii.radii import _interior_gauge

    rng = np.random.default_rng(57)
    spatial = []
    for d, shift in ((3, 0.0), (4, 0.0), (3, 4.0), (4, 3.0)):
        c = random_full_dim(rng, d, 7).vertices
        # A shifted C holds no origin and is recentred at its centroid.
        spatial.append((random_full_dim(rng, d, 7), VPolytope(c - c.mean(axis=0) + shift)))
    for k, c in _planar_pairs_with_ties() + spatial:
        gb, _ = _interior_gauge(c)
        gauge_lp = convex_core._GaugeLP(gb.body.vertices)  # one LP per ordered pair
        verts = k.vertices
        brute = max(gauge_lp(verts[j] - verts[i])[0]
                    for i in range(len(verts)) for j in range(len(verts)) if i != j)
        assert verify_chain(k, c).a5 == pytest.approx(brute, abs=1e-7)


def test_diameter_in_three_dimensions():
    k = make_body(BodySpec("cube", dim=3))
    c = make_body(BodySpec("cube", dim=3))
    # Farthest pair of the cube in its own gauge: opposite corners, sup-norm 2.
    assert diameter(k, c).value == pytest.approx(2.0, abs=1e-7)


def test_diameter_rejects_degenerate_gauge():
    seg = VPolytope([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        diameter(SQUARE, seg)


def test_antipodal_attainment_for_centered_bodies():
    rng = np.random.default_rng(251)
    for _ in range(10):
        half = rng.normal(scale=2.0, size=(4, 2))
        k = VPolytope(np.vstack([half, -half]))
        dia = diameter(k, TRIANGLE).value
        antipodal = max(
            2.0 * circumradius(VPolytope([v, -v]), TRIANGLE).value
            for v in k.vertices
        )
        assert antipodal == pytest.approx(dia, abs=1e-6)


def test_hull_invariance_of_all_quantities():
    rng = np.random.default_rng(257)
    for _ in range(8):
        k = random_polytope(rng, 2)
        c = random_full_dim(rng, 2)
        weights = rng.dirichlet(np.ones(len(k.vertices)), size=5)
        padded = VPolytope(np.vstack([k.vertices, weights @ k.vertices]))
        for fn in (circumradius, inradius, diameter, min_width):
            assert fn(padded, c).value == pytest.approx(fn(k, c).value, abs=1e-7)


# ---------------------------------------------------------------------------
# minimum width


def test_min_width_of_segment_is_zero():
    seg = VPolytope([[0.0, 0.0], [2.0, 1.0]])
    res = min_width(seg, TRIANGLE)
    assert res.value == 0.0
    # The degenerate direction is normal to the segment.
    assert abs(res.direction @ np.array([2.0, 1.0])) <= 1e-9


def test_min_width_square_in_triangle_gauge():
    # Support ratios of K-K over C-C at the square's facet normals are
    # {4/sqrt(3), 2}; the minimum is attained in the vertical direction.
    res = min_width(SQUARE, TRIANGLE)
    assert res.value == pytest.approx(2.0, abs=1e-7)
    assert np.allclose(np.abs(res.direction), [0.0, 1.0], atol=1e-9)


def test_min_width_matches_facet_oracle():
    # The oracle takes the facets of K-K from Qhull, apart from polyradii.
    rng = np.random.default_rng(263)
    for _ in range(25):
        k = random_polytope(rng, 2)
        c = random_full_dim(rng, 2)
        res = min_width(k, c)
        assert res.value == pytest.approx(oracle_min_width(k, c), abs=1e-7)


def test_min_width_witness_direction_attains_ratio():
    rng = np.random.default_rng(269)
    for dim in (2, 3):
        for _ in range(8):
            k = random_polytope(rng, dim)
            c = random_full_dim(rng, dim)
            res = min_width(k, c)
            if res.value <= 1e-9:
                continue
            a = difference_hull(k)
            b = difference_hull(c)
            u = np.atleast_2d(res.direction)
            ratio = 2.0 * support_values(a, u)[0] / support_values(b, u)[0]
            assert ratio <= res.value + 1e-6


def test_min_width_brute_sweep_never_beats_reported_value():
    rng = np.random.default_rng(271)
    theta = np.linspace(0.0, np.pi, 4096, endpoint=False)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    for _ in range(10):
        k = random_polytope(rng, 2)
        c = random_full_dim(rng, 2)
        res = min_width(k, c)
        a, b = difference_hull(k), difference_hull(c)
        sweep = 2.0 * support_values(a, dirs) / support_values(b, dirs)
        assert sweep.min() >= res.value - 1e-9


def test_min_width_in_three_dimensions():
    # K-K = [-4, 4]^3 against C-C = [-2, 2]^3: every support ratio is 2, so
    # omega is 4; a body measured against itself has width 2, matching the
    # Euclidean convention where the unit ball has width 2.
    k = make_body(BodySpec("cube", dim=3, scale=2.0))
    c = make_body(BodySpec("cube", dim=3))
    assert min_width(k, c).value == pytest.approx(4.0, abs=1e-7)
    assert min_width(c, c).value == pytest.approx(2.0, abs=1e-7)


def test_min_width_rejects_degenerate_gauge():
    for flat in ([[0.0, 0.0], [1.0, 0.0]], [[2.0, 3.0]], [[0.0, 0.0], [2.0, 2.0], [0.5, 0.5]]):
        with pytest.raises(ValueError, match="full-dimensional gauge body"):
            min_width(SQUARE, VPolytope(flat))
    seg3 = VPolytope([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        min_width(make_body(BodySpec("cube", dim=3)), seg3)


def test_flat_min_width_takes_one_thin_svd():
    # K - K has 3 541 points here.  The rank and the flat direction come
    # from one SVD whose left factor is 3 541 x 3, not 3 541 x 3 541
    # (100 MB).
    rng = np.random.default_rng(5)
    plane = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    k = VPolytope(rng.normal(size=(60, 2)) @ plane[:, :2].T + [1.0, -2.0, 0.5])
    assert len(difference_hull(k)) == 3541
    tracemalloc.start()
    try:
        res = min_width(k, make_body(BodySpec("cube", dim=3)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.value == 0.0
    assert abs(res.direction @ plane[:, 2]) == pytest.approx(1.0, abs=1e-12)
    assert peak <= 10e6


def test_planar_min_width_enumerates_only_the_facets_of_k_minus_k(monkeypatch):
    # The rank of C - C settles its flatness, with no facets; the gauge
    # evaluator of K - K enumerates its facets once.  Fresh bodies, because
    # each body is prepared once: a second call on the same objects reads
    # K - K's facets from it and enumerates none.
    square = make_body(BodySpec("centered_square"))
    triangle = make_body(BodySpec("equilateral_triangle"))
    seen = []
    facets_2d = convex_core.facets_2d
    monkeypatch.setattr(convex_core, "facets_2d", lambda p: seen.append(len(p)) or facets_2d(p))
    first = min_width(square, triangle)
    assert first.value == pytest.approx(oracle_min_width(square, triangle), rel=1e-9)
    assert seen == [len(difference_hull(square))]
    seen.clear()
    second = min_width(square, triangle)
    assert seen == []
    assert second.value == first.value
    assert np.array_equal(second.direction, first.direction)


def test_planar_min_width_direction_comes_from_the_first_vertex_at_the_tie_floor():
    # omega's witness follows one rule in every dimension: the unit polar
    # vertex of K - K at the first vertex w of C - C whose gauge reaches the
    # tie floor.  It attains omega and supports K - K at w / gauge(w).  The
    # reference gauges come from one gauge LP per vertex.
    from polyradii.radii import _tie_floor

    for n in (24, 48, 96):
        c = make_body(BodySpec("reuleaux_triangle", n=n))
        k = transform(c, 1.0, [0.0, 0.0], reflect=True)
        a, b = difference_hull(k), difference_hull(c)
        lp = convex_core._GaugeLP(a.vertices)
        gammas = np.array([lp(w)[0] for w in b.vertices])
        first = int(np.argmax(gammas >= _tie_floor(float(gammas.max()))))
        res = min_width(k, c)
        u = res.direction
        ratio = 2.0 * support_values(a, u[None])[0] / support_values(b, u[None])[0]
        assert ratio == pytest.approx(res.value, rel=1e-12)
        assert u @ b.vertices[first] / gammas[first] == pytest.approx(
            support_values(a, u[None])[0], rel=1e-12)


# ---------------------------------------------------------------------------
# induced norm


def test_induced_norm_at_origin_is_zero():
    assert induced_norm(TRIANGLE, [0.0, 0.0]).value == pytest.approx(0.0, abs=1e-12)


def test_induced_norm_vertex_of_half_difference_body():
    # (0, sqrt(3)) is a vertex of (C-C)/2; the explicit hexagon is the oracle.
    out = induced_norm(TRIANGLE, [0.0, SQRT3])
    assert out.value == pytest.approx(1.0, abs=1e-9)
    explicit = GaugeBody.from_polytope(HALF_HEXAGON)
    assert gauge(explicit, [0.0, SQRT3]).value == pytest.approx(out.value, abs=1e-9)


def test_induced_norm_is_twice_two_point_circumradius():
    rng = np.random.default_rng(277)
    origin = np.zeros(2)
    for _ in range(100):
        x = rng.normal(scale=3.0, size=2)
        lhs = induced_norm(TRIANGLE, x).value
        rhs = 2.0 * circumradius(VPolytope([origin, x]), TRIANGLE).value
        assert lhs == pytest.approx(rhs, abs=1e-7)


# ---------------------------------------------------------------------------
# centered fast path


def test_symmetric_circumradius_of_body_in_itself():
    gb = GaugeBody.from_polytope(SQUARE)
    assert symmetric_circumradius(SQUARE, gb) == pytest.approx(1.0, abs=1e-9)


def test_symmetric_circumradius_hexagon_in_fine_ngon():
    hexagon = difference_hull(TRIANGLE)
    disc = make_body(BodySpec("regular_ngon", n=96, scale=2.0 * SQRT3))
    gb = GaugeBody.from_polytope(disc)
    assert symmetric_circumradius(hexagon, gb) == pytest.approx(1.0, abs=1e-3)


def test_symmetric_circumradius_unrolls_gauge_on_three_points():
    rng = np.random.default_rng(281)
    gb = GaugeBody.from_polytope(SQUARE)
    for _ in range(10):
        x = rng.normal(scale=2.0, size=2)
        k = VPolytope([[0.0, 0.0], x, -x])
        assert symmetric_circumradius(k, gb) == pytest.approx(
            gauge(gb, x).value, abs=1e-9
        )


def test_symmetric_circumradius_agrees_with_general_lp():
    rng = np.random.default_rng(283)
    for _ in range(10):
        half_k = rng.normal(scale=2.0, size=(4, 2))
        half_c = rng.normal(scale=2.0, size=(4, 2))
        k = VPolytope(np.vstack([half_k, -half_k]))
        c = VPolytope(np.vstack([half_c, -half_c]))
        if np.linalg.matrix_rank(c.vertices, tol=1e-6) < 2:
            continue
        gb = GaugeBody.from_polytope(c)
        fast = symmetric_circumradius(k, gb)
        assert fast == pytest.approx(circumradius(k, c).value, abs=1e-7)


def test_symmetric_circumradius_rejects_non_centered():
    # The centring test is relative to the body's size, so it decides alike
    # at every scale.
    for scale in (1.0, 1e-12, 1e12):
        square = VPolytope(scale * SQUARE.vertices)
        triangle = VPolytope(scale * TRIANGLE.vertices)
        gb = GaugeBody.from_polytope(square)
        assert symmetric_circumradius(square, gb) == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(ValueError):
            symmetric_circumradius(triangle, gb)
        with pytest.raises(ValueError):
            symmetric_circumradius(square, GaugeBody.from_polytope(triangle))


def test_symmetric_circumradius_accepts_a_redundant_vertex_without_mirror():
    # Centring is a property of the set, P = -P: the redundant vertex
    # (0.1, 0.2) inside the centred square has no mirror vertex in the list,
    # and the body is centred all the same.
    square = VPolytope(np.vstack([SQUARE.vertices, [0.1, 0.2]]))
    gb = GaugeBody.from_polytope(square)
    assert symmetric_circumradius(square, gb) == pytest.approx(
        circumradius(square, square).value, abs=1e-9)


# ---------------------------------------------------------------------------
# the chain


def test_chain_on_square_and_triangle():
    report = verify_chain(SQUARE, TRIANGLE, tol=1e-7)
    assert report.a1 == pytest.approx(DIAMETER_REF, abs=1e-7)
    assert report.a2 == pytest.approx(DIAMETER_REF, abs=1e-7)
    assert report.a3 == pytest.approx(DIAMETER_REF, abs=1e-7)
    assert report.a4 == pytest.approx(CIRCUM_DIFF_REF, abs=1e-7)
    assert report.a5 == pytest.approx(PAIR_GAUGE_REF, abs=1e-7)
    assert report.ok
    assert report.a1_certified
    assert not report.flags["centered_gauge"]
    assert not report.flags["all_equal"]


def test_chain_collapses_for_centered_gauges():
    rng = np.random.default_rng(293)
    hexagon = difference_hull(TRIANGLE)
    for gauge_body in (SQUARE, hexagon):
        for _ in range(5):
            k = random_polytope(rng, 2)
            report = verify_chain(k, gauge_body, tol=1e-6)
            assert report.flags["centered_gauge"]
            assert report.flags["all_equal"]
            assert report.ok
            spread = max(report.a1, report.a2, report.a3, report.a4, report.a5) - min(
                report.a1, report.a2, report.a3, report.a4, report.a5
            )
            assert spread <= 1e-6


def test_chain_in_three_dimensions_certifies_a1():
    k = make_body(BodySpec("simplex", dim=3))
    c = make_body(BodySpec("cube", dim=3))
    report = verify_chain(k, c, tol=1e-6)
    assert report.a1_certified
    assert abs(report.a1 - report.a2) <= 1e-9
    assert report.ok
    assert isinstance(report, ChainReport)


def test_chain_holds_on_random_spatial_pairs():
    # a1 is read at the polar vertex certifying D, so it equals a2 off the
    # plane too, and every flag is two-sided.
    rng = np.random.default_rng(311)
    for dim in (3, 4):
        for _ in range(10):
            k = random_polytope(rng, dim)
            c = random_full_dim(rng, dim)
            c = VPolytope(c.vertices - c.vertices.mean(axis=0))
            report = verify_chain(k, c, tol=1e-6)
            assert report.ok, report.flags
            assert report.a1_certified
            assert abs(report.a1 - report.a2) <= 1e-9 * max(1.0, report.a2)


def test_chain_flags_a_diameter_below_its_certificate(monkeypatch):
    # A diameter reported 0.1% low, with its polar vertex unchanged: the
    # support ratio at that vertex still reaches the true D, so a1_eq_a2
    # fails.  On these pairs the vertex directions of C-C alone stay 15% and
    # 52% below D, so it is y* that catches the error.
    exact = radii._diameter

    def low(k, half, forks):
        value, pair, y_star = exact(k, half, forks)
        return 0.999 * value, pair, y_star

    monkeypatch.setattr(radii, "_diameter", low)
    rng = np.random.default_rng(317)
    for dim in (3, 4):
        k = random_polytope(rng, dim)
        c = random_full_dim(rng, dim)
        report = verify_chain(k, c, tol=1e-6)
        assert not report.flags["a1_eq_a2"]
        assert not report.ok


def test_planar_gauge_certificate_and_diameter_solve_no_lp(monkeypatch):
    # The planar interior certificate is the facet closed form
    # min_f b_f / |n_f|_inf, and D reads the polar vertices of the same facets.
    reuleaux = make_body(BodySpec("reuleaux_triangle", n=48))
    facets = convex_core.facets_2d(reuleaux)
    closed_form = float(np.min(facets.offsets / np.abs(facets.normals).max(axis=1)))
    calls = []
    solve = lp_solver.solve
    monkeypatch.setattr(lp_solver, "solve", lambda lp, **kw: calls.append(1) or solve(lp, **kw))
    slack = convex_core.interior_slack(reuleaux, np.zeros(2))
    GaugeBody.from_polytope(reuleaux)
    value = diameter(SQUARE, reuleaux).value
    assert calls == []
    assert slack == pytest.approx(closed_form, rel=1e-14)
    assert value == pytest.approx(oracle_diameter(SQUARE, reuleaux), rel=1e-9)


def test_interior_slack_of_an_outside_origin_solves_at_most_one_lp(monkeypatch):
    # Off the plane the axes are evaluated in turn and the first inf gauge
    # settles -1; in the plane a facet offset <= 0 settles it with no LP.
    cube = make_body(BodySpec("cube", dim=3))
    triangle = VPolytope(TRIANGLE.vertices + np.array([-1e7, 1e7]))
    calls = []
    solve = lp_solver.solve

    def counted(lp, **kw):
        out = solve(lp, **kw)
        calls.append(out.status)
        return out

    monkeypatch.setattr(lp_solver, "solve", counted)
    assert convex_core.interior_slack(VPolytope(cube.vertices + 2.0), np.zeros(3)) == -1.0
    assert calls == [lp_solver.INFEASIBLE]
    calls.clear()
    assert convex_core.interior_slack(triangle, np.zeros(2)) == -1.0
    assert calls == []


def test_verify_chain_on_reuleaux_runs_no_monotone_chain(monkeypatch):
    # Every polygon verify_chain hulls on this pair is already a hull, so
    # hull_2d passes each through without running the chain.
    runs = []
    chain = convex_core._monotone_chain

    def counted(rows):
        runs.append(len(rows))
        return chain(rows)

    monkeypatch.setattr(convex_core, "_monotone_chain", counted)
    c = make_body(BodySpec("reuleaux_triangle", n=96))
    k = transform(c, 1.0, [0.0, 0.0], reflect=True)
    assert verify_chain(k, c).ok
    assert runs == []


def test_planar_sizes_are_linear_in_memory():
    # Supports, gauges and the diameter's witness row come from angular
    # searches, with no n x F product: at n = 384 (1 155 vertices, 2 304
    # facets of K - K) each call stays within 8 MiB, where one dense product
    # of K - K with the polar vertices of C - C is 40 MiB.  Fresh bodies, so
    # each call prepares its hulls and facets inside the trace.
    def fresh():
        c = make_body(BodySpec("reuleaux_triangle", n=384))
        return transform(c, 1.0, [0.0, 0.0], reflect=True), c

    (k, c), (k2, c2) = fresh(), fresh()
    calls = [(circumradius, (difference_hull(k), c)), (inradius, (difference_hull(k2), c2)),
             (diameter, fresh()), (min_width, fresh()), (verify_chain, fresh())]
    for call, args in calls:
        tracemalloc.start()
        try:
            call(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20, (call.__name__, peak)


def test_fine_reuleaux_sizes_reach_the_closed_forms():
    # At n = 12 288 the hulls of C and K - K keep every vertex, however
    # slight its turn (36 864 of C's), so all four sizes reach the values
    # the Reuleaux study converges to.
    c = make_body(BodySpec("reuleaux_triangle", n=12288))
    k = transform(c, 1.0, [0.0, 0.0], reflect=True)
    values = {"R": circumradius(difference_hull(k), c).value,
              "r": inradius(difference_hull(k), c).value,
              "D": diameter(k, c).value, "omega": min_width(k, c).value}
    for quantity, value in values.items():
        assert abs(value - _REULEAUX_REFERENCES[quantity]) <= 1e-12, quantity


def test_planar_containment_reads_the_sectors_of_the_recentred_body(monkeypatch):
    # The engine maps the inner body by its frame's linear map, so it reads
    # the mapped supports off the sectors of the body's prepared recentred
    # copy: once the bodies are prepared, R and r hull nothing and build no
    # sectors.
    c = make_body(BodySpec("reuleaux_triangle", n=24))
    k = transform(c, 0.5, [3.0, -1.0], reflect=True)
    first = circumradius(k, c), inradius(k, c)
    built = []
    monkeypatch.setattr(convex_core, "hull_2d", lambda p: built.append("hull"))
    monkeypatch.setattr(convex_core._Sectors, "__init__",
                        lambda self, starts, rows: built.append("sectors"))
    again = circumradius(k, c), inradius(k, c)
    assert built == []
    for one, other in zip(first, again):
        assert one.value == other.value and (one.center == other.center).all()


def test_flat_polygons_in_space_keep_their_planar_radii():
    # A polygon pair embedded in 3-D to 5-D by one orthonormal 2-frame and a
    # common offset has a flat rank-2 frame: the engine maps K into it and
    # reads K's supports through that map, as for a full frame, so R and r
    # are the planar values.
    for dim in (3, 4, 5):
        rng = np.random.default_rng(200 + dim)
        for _ in range(3):
            k, c = rng.normal(size=(7, 2)), rng.normal(size=(6, 2))
            frame = np.linalg.qr(rng.normal(size=(dim, 2)))[0]
            offset = 10.0 * rng.normal(size=dim)
            embedded = VPolytope(k @ frame.T + offset), VPolytope(c @ frame.T + offset)
            for size in (circumradius, inradius):
                want = size(VPolytope(k), VPolytope(c)).value
                assert size(*embedded).value == pytest.approx(want, rel=1e-14, abs=0.0)


def test_planar_sizes_see_a_vertex_of_slight_turn():
    # The notch (1e-6, -4.9e-7) turns by about 1e-12 extent**2, yet it sticks
    # out of the triangle of the other three by 4.9e-7: the hull keeps it,
    # and supports, D, R and r see it, as the vertex maxima do.
    k = VPolytope([[0.0, 0.0], [1e-6, -4.9e-7], [2e-6, 0.0], [0.0, 1.0]])
    square = VPolytope([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    assert len(hull_2d(k.vertices)) == 4
    directions = np.random.default_rng(21).normal(size=(200, 2))
    dense = (directions @ k.vertices.T).max(axis=1)
    np.testing.assert_allclose(support_values(k, directions), dense, rtol=0, atol=1e-15)
    d = diameter(k, square)
    assert d.value == pytest.approx(1 + 4.9e-7, rel=1e-15) and d.pair == (1, 3)
    assert circumradius(k, square).value == pytest.approx(0.5 * (1 + 4.9e-7), rel=1e-12)
    assert inradius(square, k).value == pytest.approx(1.99999902000048, rel=1e-12)
    assert verify_chain(k, square).a2 == pytest.approx(1 + 4.9e-7, rel=1e-15)


def test_flatness_of_the_gauge_is_the_rank_of_c_minus_c():
    # A sliver of full rank whose slack is below the interior margin is a
    # numerical failure in the diameter and the chain, not a flat gauge.
    thin = VPolytope([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-10]])
    with pytest.raises(RuntimeError,
                       match=r"full rank, but origin is not interior .* \(slack 5.000e-11\)"):
        diameter(SQUARE, thin)
    with pytest.raises(RuntimeError, match="full rank, but no point has an interior slack"):
        verify_chain(SQUARE, thin)
    # At height 1e-12 C - C keeps rank 2 by the same rule: the same
    # failures, and the width answers as at 1e-10.
    sliver = VPolytope([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-12]])
    with pytest.raises(RuntimeError, match="full rank, but origin is not interior"):
        diameter(SQUARE, sliver)
    with pytest.raises(RuntimeError, match="full rank, but no point has an interior slack"):
        verify_chain(SQUARE, sliver)
    square = VPolytope([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    for gauge in (thin, sliver):
        assert min_width(square, gauge).value == 4.0


@pytest.mark.parametrize("height", [1e-8, 1e-10, 3e-12, 1e-12])
def test_sliver_gauges_follow_one_flatness_rule(height):
    # Every entry point reads flatness off the rank of C - C: at each height
    # all three answer, or all reject a flat body (ValueError), or all call
    # a full-rank body without a certified interior point a numerical
    # failure (RuntimeError).
    sliver = VPolytope([[0.0, 0.0], [1.0, 0.0], [0.5, height]])
    outcomes = []
    for call in (lambda: radii.interior_point(sliver), lambda: diameter(SQUARE, sliver),
                 lambda: verify_chain(SQUARE, sliver)):
        try:
            call()
            outcomes.append(None)
        except ValueError:
            outcomes.append(ValueError)
        except RuntimeError:
            outcomes.append(RuntimeError)
    assert len(set(outcomes)) == 1, outcomes


def test_recentred_gauge_is_certified_once(monkeypatch):
    # Each body prepares its interior certificate once: interior_point's
    # shifted gauge body is not certified again, no vertex array is
    # certified twice, and a second chain on the same bodies certifies
    # nothing.  In a report, R's frame of C is C recentred itself, the
    # chain's gauge body, not a copy certified again.
    calls = []
    real = convex_core._GaugeEvaluator.slack

    def counted(evaluate):
        calls.append(evaluate.body.vertices.tobytes())
        return real(evaluate)

    monkeypatch.setattr(convex_core._GaugeEvaluator, "slack", counted)
    cube = make_body(BodySpec("cube", dim=3))
    shifted = VPolytope(make_body(BodySpec("simplex", dim=3)).vertices + 5.0)
    assert verify_chain(cube, shifted, tol=1e-6).ok
    assert calls and len(calls) == len(set(calls))
    calls.clear()
    assert verify_chain(cube, shifted, tol=1e-6).ok
    assert calls == []
    cube, shifted = VPolytope(cube.vertices), VPolytope(shifted.vertices)
    radii_report(cube, shifted)
    assert calls and len(calls) == len(set(calls))
    calls.clear()
    radii_report(cube, shifted)
    assert calls == []


def test_chain_recenteres_badly_placed_gauges():
    shifted = VPolytope(TRIANGLE.vertices + np.array([50.0, -20.0]))
    report = verify_chain(SQUARE, shifted, tol=1e-6)
    # Translation invariance: the chain values match the well-placed gauge.
    assert report.a2 == pytest.approx(DIAMETER_REF, abs=1e-6)
    assert report.a4 == pytest.approx(CIRCUM_DIFF_REF, abs=1e-6)
    assert report.ok


@pytest.mark.parametrize("offset", [1e4, 1e7, 1e10])
def test_chain_a1_reads_the_supports_of_the_recentred_bodies(offset):
    # a1 sums h_K(u) + h_K(-u) and h_C(u) + h_C(-u), which cancel the offset
    # of a translated body: read on K and C as given, a1 left a2 by 2e-10 at
    # 1e7 and 2e-7 at 1e10.  On the recentred bodies it stays at rounding.
    for sk, sc in ((1.0, -1.0), (-1.0, 1.0), (1.0, 1.0)):
        k = transform(SQUARE, 1.0, [sk * offset, sk * offset])
        c = transform(TRIANGLE, 1.0, [sc * offset, -sc * offset])
        report = verify_chain(k, c)
        assert report.a1 == pytest.approx(report.a2, rel=1e-15, abs=0.0)


def test_chain_reports_are_deterministic():
    # The verifier samples nothing and its gauge caches live for one call,
    # so identical inputs must give identical reports in every dimension.
    rng = np.random.default_rng(313)
    for dim in (2, 3):
        k = random_polytope(rng, dim)
        c = random_full_dim(rng, dim)
        first = verify_chain(k, c, tol=1e-6)
        second = verify_chain(k, c, tol=1e-6)
        assert (first.a1, first.a2, first.a3, first.a4, first.a5) == (
            second.a1, second.a2, second.a3, second.a4, second.a5
        )
        assert first.flags == second.flags


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_chain_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    # nan would fail every flag and inf pass every flag vacuously.
    with pytest.raises(ValueError, match="finite and positive"):
        verify_chain(SQUARE, TRIANGLE, tol=tol)
    with pytest.raises(ValueError, match="finite and positive"):
        radii_report(SQUARE, TRIANGLE, quantities=(), tol=tol)


def test_report_rejects_a_bad_tolerance_before_any_quantity(monkeypatch):
    # The chain's tol is checked before R, r, D and omega are computed.
    rng = np.random.default_rng(3)
    k = VPolytope(rng.normal(size=(30, 4)))
    c = rng.normal(size=(30, 4))
    calls = []
    monkeypatch.setattr(radii, "_containment", lambda *args: calls.append(args))
    monkeypatch.setattr(lp_solver, "solve", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="finite and positive"):
        radii_report(k, VPolytope(c - c.mean(axis=0)), tol=math.nan)
    assert calls == []


@pytest.mark.parametrize("quantities", [("R", "diam"), "Romega", ("omega", "w")])
def test_report_rejects_an_unknown_quantity_before_any_quantity(monkeypatch, quantities):
    # A misspelt name is an error, not a silently missing key, and a string
    # is a sequence of one-letter names, not a set of substrings.
    calls = []
    monkeypatch.setattr(radii, "_containment", lambda *args: calls.append(args))
    monkeypatch.setattr(lp_solver, "solve", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="unknown quantities"):
        radii_report(SQUARE, TRIANGLE, quantities=quantities)
    assert calls == []


def test_chain_degenerates_to_zero_for_singleton_body():
    report = verify_chain(VPolytope([[3.0, -1.0]]), TRIANGLE, tol=1e-6)
    assert report.a1 == report.a2 == report.a3 == report.a4 == report.a5 == 0.0
    assert report.ok


def test_radii_report_shape():
    report = radii_report(SQUARE, TRIANGLE, tol=1e-6)
    assert list(report.keys()) == ["R", "r", "D", "omega", "chain"]
    assert report["D"]["value"] == pytest.approx(DIAMETER_REF, abs=1e-7)
    assert report["chain"]["flags"]["a4_le_a5"]


# ---------------------------------------------------------------------------
# the cancellation remark and its positive half


def test_unit_circumradius_is_stable_under_common_summands():
    rng = np.random.default_rng(307)
    for _ in range(8):
        k0 = random_polytope(rng, 2)
        c = random_full_dim(rng, 2)
        scale = circumradius(k0, c).value
        if scale <= 1e-6:
            continue
        k = VPolytope(k0.vertices / scale)
        assert circumradius(k, c).value == pytest.approx(1.0, abs=1e-6)
        extra = random_polytope(rng, 2)
        k_sum = minkowski_sum(k, extra)
        c_sum = minkowski_sum(c, extra)
        assert circumradius(k_sum, c_sum).value == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# invariance far from unit scale and from the origin

# (common scale, offset of K, offset of C) applied to the square/triangle
# pair, or, for a "spatial-" label, to eight six-vertex pairs in 3-D and 4-D.
DISTORTIONS = {
    "scale-1e9": (1e9, [0.0, 0.0], [0.0, 0.0]),
    "scale-1e-9": (1e-9, [0.0, 0.0], [0.0, 0.0]),
    "scale-1e6": (1e6, [0.0, 0.0], [0.0, 0.0]),
    "offset-1e7": (1.0, [1e7, -1e7], [-1e7, 1e7]),
    # K and C far from each other and from the origin, every coordinate moved.
    "spatial-offset-1e7": (1.0, 1e7, -1e7),
}


def _distorted(label):
    scale, k_offset, c_offset = DISTORTIONS[label]
    return transform(SQUARE, scale, k_offset), transform(TRIANGLE, scale, c_offset)


def _unit_pairs(label):
    """The pairs that ``label`` distorts."""
    if not label.startswith("spatial-"):
        return [(SQUARE, TRIANGLE)]
    pairs = []
    for dim in (3, 4):
        rng = np.random.default_rng(11)
        pairs += [(VPolytope(rng.normal(scale=2.0, size=(6, dim))),
                   VPolytope(rng.normal(scale=2.0, size=(6, dim)))) for _ in range(8)]
    return pairs


def _members(report):
    return [report.a1, report.a2, report.a3, report.a4, report.a5]


@pytest.mark.parametrize("label", list(DISTORTIONS))
def test_radii_and_width_invariant_under_scale_and_offsets(label):
    scale, k_offset, c_offset = DISTORTIONS[label]
    for unit_k, unit_c in _unit_pairs(label):
        k = transform(unit_k, scale, np.broadcast_to(k_offset, unit_k.dim))
        c = transform(unit_c, scale, np.broadcast_to(c_offset, unit_c.dim))
        for quantity in (circumradius, inradius, min_width, diameter):
            unit = quantity(unit_k, unit_c).value
            assert quantity(k, c).value == pytest.approx(unit, rel=1e-7)
        assert diameter(k, c).pair == diameter(unit_k, unit_c).pair
    if label.startswith("spatial-"):
        return  # the chain's a5 is a gauge of C about its origin, which moved
    assert diameter(k, c).pair == (0, 3)
    unit_chain = verify_chain(SQUARE, TRIANGLE)
    chain = verify_chain(k, c)
    assert _members(chain) == pytest.approx(_members(unit_chain), rel=1e-7)
    assert chain.flags == unit_chain.flags


@pytest.mark.parametrize("scale", [1e-12, 1e-10, 1e9, 1e12])
def test_spatial_diameter_and_gauge_invariant_under_scale(scale):
    # Off the plane every quantity runs on LPs, which must not return
    # silently wrong values far from unit scale.
    k = make_body(BodySpec("simplex", dim=3))
    c = make_body(BodySpec("cube", dim=3))
    scaled_k, scaled_c = VPolytope(scale * k.vertices), VPolytope(scale * c.vertices)
    unit = diameter(k, c)
    assert unit.value == pytest.approx(1.0, rel=1e-9)
    scaled = diameter(scaled_k, scaled_c)
    assert scaled.value == pytest.approx(unit.value, rel=1e-7)
    assert scaled.pair == unit.pair
    for quantity, value in ((circumradius, 0.5), (inradius, 1.0 / 6.0)):
        unit = quantity(k, c)
        assert unit.value == pytest.approx(value, rel=1e-9)
        scaled = quantity(scaled_k, scaled_c)
        assert scaled.value == pytest.approx(unit.value, rel=1e-7)
        assert scaled.center / scale == pytest.approx(unit.center, rel=1e-7)
    unit = min_width(k, c)
    assert unit.value == pytest.approx(1.0 / 3.0, rel=1e-9)
    scaled = min_width(scaled_k, scaled_c)
    assert scaled.value == pytest.approx(unit.value, rel=1e-7)
    assert scaled.direction == pytest.approx(unit.direction, abs=1e-7)
    unit_chain = verify_chain(k, c)
    chain = verify_chain(scaled_k, scaled_c)
    assert _members(chain) == pytest.approx(_members(unit_chain), rel=1e-7)
    assert chain.ok and unit_chain.ok
    x = np.array([0.3, -0.2, 0.1])
    cube = GaugeBody.from_polytope(VPolytope(scale * c.vertices))
    assert gauge(cube, scale * x).value == pytest.approx(
        gauge(GaugeBody.from_polytope(c), x).value, rel=1e-7)
    square = GaugeBody.from_polytope(VPolytope(scale * SQUARE.vertices))
    assert gauge(square, [2.0 * scale, 0.0]).value == pytest.approx(
        gauge(GaugeBody.from_polytope(SQUARE), [2.0, 0.0]).value, rel=1e-7)


@pytest.mark.parametrize("scale", [1e-12, 1e-10, 1e12])
def test_planar_min_width_invariant_under_scale(scale):
    unit = min_width(SQUARE, TRIANGLE)
    scaled = min_width(transform(SQUARE, scale, [0.0, 0.0]),
                       transform(TRIANGLE, scale, [0.0, 0.0]))
    assert scaled.value == pytest.approx(unit.value, rel=1e-7)
    assert scaled.direction == pytest.approx(unit.direction, abs=1e-7)


@pytest.mark.parametrize("scale", [1e-12, 1e12])
def test_spatial_min_width_direction_invariant_under_scale(scale):
    # The witness is the best of the LP's dual normal and the vertex
    # directions; none of them may be dropped for being short at this scale.
    rng = np.random.default_rng(3)
    for _ in range(5):
        k, c = random_full_dim(rng, 3), random_full_dim(rng, 3)
        unit = min_width(k, c)
        scaled = min_width(VPolytope(scale * k.vertices), VPolytope(scale * c.vertices))
        assert scaled.value == pytest.approx(unit.value, rel=1e-7)
        assert scaled.direction == pytest.approx(unit.direction, abs=1e-6)


# The 3-D pair of the benchmark's spatial-lp workload before its rotation:
# 6 Gaussian vertices each, rounded to 6 decimals.
SPATIAL_K = VPolytope([
    [0.25146, -0.26421, 1.280845], [0.2098, -1.071339, 0.72319],
    [2.608, 1.894162, -1.40747], [-2.530843, -1.246549, 0.082652],
    [-4.650062, -0.437583, -2.491822], [-1.464535, -1.088518, -0.6326],
])
SPATIAL_C = VPolytope([
    [0.823261, 2.085027, -0.257069], [2.732927, -1.330389, 0.70302],
    [1.80694, 0.188025, -1.486998], [-1.843451, -0.915452, 0.44039],
    [-2.019236, -0.418351, -0.31845], [1.081691, 0.429318, 0.710745],
])

# The 4-D pair of the same workload, drawn after the 3-D one.
SPATIAL_K4 = VPolytope([
    [-1.307657, -0.259227, 1.567951, 2.986862], [-2.518131, 3.027848, 2.691751, 1.562623],
    [0.528911, -0.627846, 2.916041, 3.920517], [3.60327, 2.630208, 0.714761, -2.416637],
    [-0.008908, 1.31295, -2.576723, 0.790244], [0.859727, 1.392085, -2.368236, -1.323405],
])
SPATIAL_C4 = VPolytope([
    [-0.87287, -2.339604, 3.478736, -0.991821], [0.657939, -0.517145, 3.166946, 2.640722],
    [1.266705, -4.40702, 0.104058, 1.367372], [2.007923, -1.235814, 3.644023, -2.640862],
    [-1.323056, 1.8701, 0.098109, 4.004785], [0.377038, -1.266388, -0.755127, -2.182292],
])


@pytest.mark.parametrize("k, c", [(SPATIAL_K, SPATIAL_C), (SPATIAL_K4, SPATIAL_C4)])
def test_chain_a3_takes_one_master(monkeypatch, k, c):
    # a3 = R(K-K, (C-C)/2) pairs two centred bodies: the oracle at the
    # origin attains it, and the master seeded with the cones of (C-C)/2's
    # certificate meets that bound at once.
    work = _engine_work(monkeypatch)
    report = verify_chain(VPolytope(k.vertices.copy()), VPolytope(c.vertices.copy()))
    assert report.ok
    assert work[0][0] == 1  # a3 is the chain's first containment program
    assert report.a3 == pytest.approx(report.a2, rel=1e-12)


def test_spatial_chain_reads_gauges_from_cached_facets(monkeypatch):
    # One gauge LP per point took 775 LPs for this chain; cached facet cones
    # answer most chord-sweep, a5 and D points with no LP.
    calls = []
    solve = lp_solver.solve
    monkeypatch.setattr(lp_solver, "solve", lambda lp, **kw: calls.append(1) or solve(lp, **kw))
    report = verify_chain(SPATIAL_K, SPATIAL_C)
    assert report.ok
    assert report.a2 == pytest.approx(4.963177852165099, rel=1e-9)
    assert report.a5 == pytest.approx(6.223615064598571, rel=1e-9)
    assert len(calls) < 775 // 2


def test_spatial_chain_walks_between_facets_instead_of_solving_lps(monkeypatch):
    # One LP per facet cone took 1 821 LPs for this chain; walks from the
    # cached facets leave the first point of each gauge body and the
    # containment masters.
    rng = np.random.default_rng(3)
    k = VPolytope(rng.normal(size=(30, 4)))
    c = rng.normal(size=(30, 4))
    calls = []
    solve = lp_solver.solve
    monkeypatch.setattr(lp_solver, "solve", lambda lp, **kw: calls.append(1) or solve(lp, **kw))
    report = verify_chain(k, VPolytope(c - c.mean(axis=0)))
    assert report.ok
    assert report.a2 == pytest.approx(3.659835911862138, rel=1e-12)
    assert report.a5 == pytest.approx(5.269282506851236, rel=1e-12)
    assert len(calls) <= 20


def test_spatial_chain_stays_within_its_memory_bound():
    # Every gauge batch walks in waves of at most _WAVE_CELLS cells per
    # product, so no product spans points x facets x d (over 30 MB here).
    # a1 reads the supports of K and C, not of K-K and C-C, whose product at
    # 3-D 40/40 (1 561 differences each) alone is 19 MB.
    for dim, n in ((4, 30), (3, 40)):
        rng = np.random.default_rng(3)
        k = VPolytope(rng.normal(size=(n, dim)))
        c = rng.normal(size=(n, dim))
        tracemalloc.start()
        try:
            assert verify_chain(k, VPolytope(c - c.mean(axis=0))).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12e6, (dim, n, peak)


def _recorded_evaluators(monkeypatch):
    """The gauge evaluators built from here on, each to certify a body, and
    the forks of them that calls evaluate with, in order.  A fork counts
    its own waves, walks and LPs only."""
    certified, forked = [], []
    init, fork = _GaugeEvaluator.__init__, _GaugeEvaluator.fork

    def recorded_init(evaluate, body):
        init(evaluate, body)
        certified.append(evaluate)

    def recorded_fork(evaluate):
        forked.append(fork(evaluate))
        return forked[-1]

    monkeypatch.setattr(_GaugeEvaluator, "__init__", recorded_init)
    monkeypatch.setattr(_GaugeEvaluator, "fork", recorded_fork)
    return certified, forked


def test_spatial_diameter_evaluates_all_pairs_in_one_call(monkeypatch):
    # Off the plane the vertex pairs i < j are one batch through the facet
    # cache, not one evaluator call per vertex row (30 here), and D, its
    # pair and y* are all read from that batch: no row is evaluated again.
    rng = np.random.default_rng(3)
    k = VPolytope(rng.normal(size=(30, 4)))
    c = rng.normal(size=(30, 4))
    calls, inside = [], []
    pairs, with_normals = radii._diameter, _GaugeEvaluator.with_normals

    def pairs_recorded(*args):
        inside.append(True)
        try:
            return pairs(*args)
        finally:
            inside.pop()

    def with_normals_recorded(evaluate, points):
        if inside:
            calls.append(np.atleast_2d(points).shape[0])
        return with_normals(evaluate, points)

    monkeypatch.setattr(radii, "_diameter", pairs_recorded)
    monkeypatch.setattr(_GaugeEvaluator, "with_normals", with_normals_recorded)
    res = diameter(k, VPolytope(c - c.mean(axis=0)))
    assert res.value == pytest.approx(3.659835911862138, rel=1e-12)
    assert calls == [30 * 29 // 2]


def test_spatial_chain_walks_in_waves_within_the_cell_budget(monkeypatch):
    # The rows of a call walk together, so waves are far fewer than walked
    # rows, each wave's per-pivot products stay in budget, and the facets
    # that several rows or waves reach are cached once.
    rng = np.random.default_rng(3)
    k = VPolytope(rng.normal(size=(30, 4)))
    c = rng.normal(size=(30, 4))
    certified, forked = _recorded_evaluators(monkeypatch)
    waves = []
    walk = _GaugeEvaluator._walk

    def recorded(evaluate, wave):
        waves.append((wave.shape[0], evaluate.columns.shape[0]))
        return walk(evaluate, wave)

    monkeypatch.setattr(_GaugeEvaluator, "_walk", recorded)
    assert verify_chain(k, VPolytope(c - c.mean(axis=0))).ok
    off_plane = [evaluate for evaluate in certified + forked
                 if evaluate.polar_vertices is None]
    assert sum(evaluate.waves for evaluate in off_plane) == len(waves)
    assert 10 * len(waves) < sum(rows for rows, _ in waves)
    assert sum(evaluate.solved for evaluate in off_plane) <= 20
    assert max(2 * rows * columns for rows, columns in waves) <= convex_core._WAVE_CELLS
    for evaluate in off_plane:  # each facet is cached once
        assert len({frozenset(basis) for basis in evaluate.bases.tolist()}) == len(evaluate.bases)


def test_chain_builds_one_evaluator_per_vertex_array(monkeypatch):
    # a4 and 2R share C's frame, and C recentred at its certified centroid
    # forks one evaluator from its certificate, which is also that frame's.
    rng = np.random.default_rng(8)
    k = VPolytope(rng.normal(size=(6, 4)))
    c = VPolytope(rng.normal(size=(6, 4)) + 3.0)
    certified, forked = _recorded_evaluators(monkeypatch)
    assert verify_chain(k, c).ok
    centred = (c.vertices - c.vertices.mean(axis=0)).tobytes()
    for built in (certified, forked):
        arrays = [evaluate.body.vertices.tobytes() for evaluate in built]
        assert len(arrays) == len(set(arrays))
        assert arrays.count(centred) == 1


def test_unit_scale_chain_builds_one_evaluator_of_half_the_difference_body(monkeypatch):
    # (C-C)/2 is framed about the origin, its exact centre, so with no axis
    # scaled a3's frame takes the evaluator that D and the chord sweep use.
    rng = np.random.default_rng(11)
    k = VPolytope(rng.normal(size=(8, 3)))
    c = VPolytope(rng.normal(size=(8, 3)))
    half = 0.5 * difference_hull(c).vertices
    certified, forked = _recorded_evaluators(monkeypatch)
    assert verify_chain(k, c).ok
    for built in (certified, forked):
        assert sum(evaluate.body.vertices.shape == half.shape
                   and np.allclose(evaluate.body.vertices, half, rtol=0.0, atol=1e-12)
                   for evaluate in built) == 1


def test_chain_of_a_flat_body_walks_in_its_span(monkeypatch):
    # K - K of a flat K is evaluated in its own plane, so the chord sweep
    # reads its polar vertices; one gauge LP per direction would be 1 591.
    rng = np.random.default_rng(1)
    plane = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    k = VPolytope(np.c_[rng.normal(size=(40, 2)), np.zeros(40)] @ plane.T)
    calls = []
    solve = lp_solver.solve
    monkeypatch.setattr(lp_solver, "solve", lambda lp, **kw: calls.append(1) or solve(lp, **kw))
    report = verify_chain(k, make_body(BodySpec("cube", dim=3)))
    assert report.ok and len(calls) <= 10


@pytest.mark.parametrize("length", [1e9, 4e9])
def test_long_thin_gauges_certify(length):
    # A thin body of unit thickness is full-dimensional at any length the
    # LPs resolve; its slack stays far above the margin in absolute terms.
    rectangle = VPolytope([[-length, -0.5], [length, -0.5], [length, 0.5], [-length, 0.5]])
    assert gauge(GaugeBody.from_polytope(rectangle), [length / 2, 0.25]).value == (
        pytest.approx(0.5, rel=1e-7))
    assert diameter(rectangle, rectangle).value == pytest.approx(2.0, rel=1e-7)
    box = VPolytope([[sx * length, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                     for sz in (-1, 1)])
    assert gauge(GaugeBody.from_polytope(box), [length / 2, 0.5, 0.25]).value == (
        pytest.approx(0.5, rel=1e-7))
    # Containment both ways with the unit square and cube that fit the thin
    # axes exactly; neither long body counts as flat.
    square = VPolytope([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
    for thin, unit in ((rectangle, square), (box, make_body(BodySpec("cube", dim=3)))):
        half = float(unit.vertices.max())
        assert circumradius(unit, thin).value == pytest.approx(1.0, rel=1e-7)
        assert inradius(thin, unit).value == pytest.approx(1.0, rel=1e-7)
        assert circumradius(thin, unit).value == pytest.approx(length / half, rel=1e-7)
        assert inradius(unit, thin).value == pytest.approx(half / length, rel=1e-7)
    # Nor does the minimum width, in 3-D and 4-D, with the long box as either body.
    for dim in (3, 4):
        cube = make_body(BodySpec("cube", dim=dim))
        long_box = VPolytope(cube.vertices * np.r_[length, np.ones(dim - 1)])
        assert min_width(long_box, cube).value == pytest.approx(2.0, rel=1e-7)
        assert min_width(cube, long_box).value == pytest.approx(2.0 / length, rel=1e-7)
        assert diameter(long_box, cube).value == pytest.approx(2.0 * length, rel=1e-7)


@pytest.mark.parametrize("label", ["scale-1e-9", "offset-1e7"])
def test_difference_hull_survives_scale_and_offsets(label):
    k, c = _distorted(label)
    diff = difference_hull(k)
    assert len(diff) == 4
    assert circumradius(diff, c).value == pytest.approx(CIRCUM_DIFF_REF, rel=1e-7)
    assert inradius(diff, c).value == pytest.approx(2.0, rel=1e-7)


# ---------------------------------------------------------------------------
# bodies prepared once


def _purity_cases():
    """(K, C) vertex arrays: planar pairs, then off-plane ones whose gauges walk."""
    reuleaux = make_body(BodySpec("reuleaux_triangle", n=48)).vertices
    k, c = _distorted("offset-1e7")
    rng = np.random.default_rng(21)
    plane = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    centred = rng.normal(size=(8, 3))
    centred -= centred.mean(axis=0)
    return [
        (-reuleaux, reuleaux),
        (SQUARE.vertices, TRIANGLE.vertices),
        (k.vertices, c.vertices),
        (rng.normal(size=(8, 3)), rng.normal(size=(8, 3))),
        (rng.normal(size=(7, 4)), rng.normal(size=(7, 4))),
        (np.c_[rng.normal(size=(12, 2)), np.zeros(12)] @ plane.T, rng.normal(size=(8, 3))),
        (rng.normal(size=(8, 3)), centred + 0.05),
        (rng.normal(size=(8, 3)), rng.normal(size=(8, 3)) + 3.0),  # origin outside C
    ]


def _bits(result):
    """Every value and witness of a result, bit for bit."""
    if isinstance(result, ChainReport):
        return np.array(_members(result)).tobytes(), sorted(result.flags.items())
    return tuple(None if part is None else np.asarray(part, dtype=float).tobytes()
                 for part in (result.value, result.center, result.pair, result.direction))


def test_prepared_bodies_give_bit_identical_results_in_any_call_order():
    # A body keeps only what its vertices fix, its interior certificate
    # included.  Gauge evaluators learn facets as they walk, so each call
    # forks its own from the certificate's, and what it learns stays there.
    # Each call on shared objects, made once in order and again after all
    # the others, must match the same call on fresh objects bit for bit.
    cases = _purity_cases()
    quantities = (circumradius, inradius, diameter, min_width, verify_chain)
    calls = [(quantity, i) for i in range(len(cases)) for quantity in quantities]
    fresh = {(quantity, i): _bits(quantity(VPolytope(cases[i][0]), VPolytope(cases[i][1])))
             for quantity, i in calls}
    shared = [(VPolytope(k), VPolytope(c)) for k, c in cases]
    for order in (calls, calls[::-1]):
        for quantity, i in order:
            assert _bits(quantity(*shared[i])) == fresh[quantity, i], (quantity.__name__, i)


def test_second_planar_chain_recomputes_no_hull_facets_or_rank(monkeypatch):
    # A planar body's hulls, facets and ranks are computed once, on the
    # first call; the cache is never pickled or shown in repr.
    import pickle

    counts = {}
    for name in ("facets_2d", "hull_2d", "_flat_rank"):
        real = getattr(convex_core, name)
        monkeypatch.setattr(convex_core, name, lambda *args, _name=name, _real=real: (
            counts.__setitem__(_name, counts.get(_name, 0) + 1) or _real(*args)))
    c = make_body(BodySpec("reuleaux_triangle", n=48))
    pairs = [(transform(c, 1.0, [0.0, 0.0], reflect=True), c),
             (VPolytope(SQUARE.vertices), VPolytope(TRIANGLE.vertices + [50.0, -20.0]))]
    first = [verify_chain(k, c).to_dict() for k, c in pairs]
    assert set(counts) == {"facets_2d", "hull_2d", "_flat_rank"}
    counts.clear()
    assert [verify_chain(k, c).to_dict() for k, c in pairs] == first
    assert counts == {}
    for body in (c, pairs[1][1]):
        assert "_cache" in vars(body)
        clone = pickle.loads(pickle.dumps(body))
        assert "_cache" not in vars(clone) and not clone.vertices.flags.writeable
        assert np.array_equal(clone.vertices, body.vertices)
        assert repr(body) == repr(VPolytope(body.vertices))
        assert "_cache" not in repr(body)
