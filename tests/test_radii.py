import dataclasses
import math

import numpy as np
import pytest

from polyradii import convex_core, lp_solver, radii
from polyradii.bodies import BodySpec, make_body
from polyradii.convex_core import (
    DimensionMismatchError,
    VPolytope,
    _GaugeEvaluator,
    difference_hull,
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


def test_facet_lps_reject_centres_their_duals_do_not_certify(monkeypatch):
    real_solve = lp_solver.solve

    def solve_with(duals):
        def solve(lp, **kwargs):
            out = real_solve(lp, **kwargs)
            return dataclasses.replace(out, duals=duals(out))
        return solve

    monkeypatch.setattr(lp_solver, "solve", solve_with(lambda out: out.duals + [5.0, 5.0, 0.0]))
    with pytest.raises(RuntimeError, match=r"circumradius facet LP \(3 x 3\).*violates"):
        circumradius(SQUARE, TRIANGLE)
    monkeypatch.setattr(lp_solver, "solve", solve_with(lambda out: None))
    with pytest.raises(RuntimeError, match=r"inradius facet LP \(3 x 4\) returned no duals"):
        inradius(SQUARE, TRIANGLE)


def test_containment_failures_name_program_size_and_gap(monkeypatch):
    monkeypatch.setattr(radii, "_MAX_CUT_ROUNDS", 1)
    with pytest.raises(RuntimeError, match=r"circumradius facet generation did not converge "
                       r"in 1 rounds \(d=3, \d+ cuts, last oracle-master gap \d"):
        circumradius(make_body(BodySpec("simplex", dim=3)), make_body(BodySpec("cube", dim=3)))
    monkeypatch.setattr(lp_solver, "solve",
                        lambda lp, **kwargs: lp_solver.LpOutcome(lp_solver.NUMERICAL_FAILURE))
    with pytest.raises(RuntimeError, match=r"inradius facet LP \(3 x 4\) ended with status "
                       r"numerical-failure \(d=2, 4 cuts, last oracle-master gap inf\)"):
        inradius(SQUARE, TRIANGLE)


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

    for k, c in _planar_pairs_with_ties():
        gb, _ = _interior_gauge(c)
        verts = k.vertices
        brute = max(gauge(gb, verts[j] - verts[i]).value
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


def test_planar_min_width_enumerates_only_the_facets_of_k_minus_k(monkeypatch):
    # C - C is a hull already, so its vertex count settles flatness.
    seen = []
    facets_2d = radii.facets_2d
    monkeypatch.setattr(radii, "facets_2d", lambda p: seen.append(len(p)) or facets_2d(p))
    assert min_width(SQUARE, TRIANGLE).value == pytest.approx(
        oracle_min_width(SQUARE, TRIANGLE), rel=1e-9)
    assert seen == [len(difference_hull(SQUARE))]


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

    def low(k, half):
        value, pair, y_star = exact(k, half)
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

    def counted(rows, turn_tol):
        runs.append(len(rows))
        return chain(rows, turn_tol)

    monkeypatch.setattr(convex_core, "_monotone_chain", counted)
    c = make_body(BodySpec("reuleaux_triangle", n=96))
    k = transform(c, 1.0, [0.0, 0.0], reflect=True)
    assert verify_chain(k, c).ok
    assert runs == []


def test_recentred_gauge_is_certified_once(monkeypatch):
    # interior_point certifies the shift, so the shifted gauge body is not
    # certified again: the origin, the centroid and (C-C)/2, one slack each.
    calls = []
    real = convex_core._GaugeEvaluator.slack

    def counted(evaluate):
        calls.append(evaluate)
        return real(evaluate)

    monkeypatch.setattr(convex_core._GaugeEvaluator, "slack", counted)
    cube = make_body(BodySpec("cube", dim=3))
    simplex = make_body(BodySpec("simplex", dim=3))
    report = verify_chain(cube, VPolytope(simplex.vertices + 5.0), tol=1e-6)
    assert report.ok
    assert len(calls) == 3


def test_chain_recenteres_badly_placed_gauges():
    shifted = VPolytope(TRIANGLE.vertices + np.array([50.0, -20.0]))
    report = verify_chain(SQUARE, shifted, tol=1e-6)
    # Translation invariance: the chain values match the well-placed gauge.
    assert report.a2 == pytest.approx(DIAMETER_REF, abs=1e-6)
    assert report.a4 == pytest.approx(CIRCUM_DIFF_REF, abs=1e-6)
    assert report.ok


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


def _recorded_evaluators(monkeypatch):
    """Every gauge evaluator built from here on, in order."""
    built = []
    init = _GaugeEvaluator.__init__

    def recorded(evaluate, body):
        init(evaluate, body)
        built.append(evaluate)

    monkeypatch.setattr(_GaugeEvaluator, "__init__", recorded)
    return built


def test_spatial_chain_walks_in_waves_within_the_cell_budget(monkeypatch):
    # The uncovered rows of a call walk together, so waves are far fewer
    # than walked rows, each wave's per-pivot products stay in budget, and
    # the facets that several rows of a wave reach are cached once.
    rng = np.random.default_rng(3)
    k = VPolytope(rng.normal(size=(30, 4)))
    c = rng.normal(size=(30, 4))
    built = _recorded_evaluators(monkeypatch)
    waves = []
    walk = _GaugeEvaluator._walk

    def recorded(evaluate, wave):
        waves.append((wave.shape[0], evaluate.columns.shape[0]))
        return walk(evaluate, wave)

    monkeypatch.setattr(_GaugeEvaluator, "_walk", recorded)
    assert verify_chain(k, VPolytope(c - c.mean(axis=0))).ok
    off_plane = [evaluate for evaluate in built if evaluate.polar_vertices is None]
    assert sum(evaluate.waves for evaluate in off_plane) == len(waves)
    assert 10 * len(waves) < sum(rows for rows, _ in waves)
    assert sum(evaluate.solved for evaluate in off_plane) <= 20
    assert max(2 * rows * columns for rows, columns in waves) <= convex_core._WAVE_CELLS
    for evaluate in off_plane:  # each facet is cached once
        assert len({frozenset(basis) for basis in evaluate.bases.tolist()}) == len(evaluate.bases)


def test_chain_builds_one_evaluator_per_vertex_array(monkeypatch):
    # a4 and 2R share C's frame, and C recentred at its certified centroid
    # keeps the evaluator that certified it, which is also that frame's.
    rng = np.random.default_rng(8)
    k = VPolytope(rng.normal(size=(6, 4)))
    c = VPolytope(rng.normal(size=(6, 4)) + 3.0)
    built = _recorded_evaluators(monkeypatch)
    assert verify_chain(k, c).ok
    arrays = [evaluate.body.vertices.tobytes() for evaluate in built]
    assert len(arrays) == len(set(arrays))
    centred = (c.vertices - c.vertices.mean(axis=0)).tobytes()
    assert arrays.count(centred) == 1


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
