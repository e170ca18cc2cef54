"""Cross-validation of the size quantities against scipy-built oracles.

The oracles share no code with the library: facets come from Qhull
(scipy.spatial.ConvexHull) and containment programs are solved by
scipy.optimize.linprog.  Containment in an H-polytope is exactly one support
condition per facet, so these oracles are exact in both two and three
dimensions.
"""

import itertools
import time

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from polyradii import lp_solver, radii
from polyradii.bodies import BodySpec, make_body
from polyradii.convex_core import VPolytope, _interior_margin, interior_slack
from polyradii.functionals import GaugeBody, gauge
from polyradii.radii import circumradius, diameter, inradius, min_width, verify_chain


def qhull_facets(points):
    """Outward facets (normals, offsets) with normal @ x <= offset."""
    hull = ConvexHull(points)
    return hull.equations[:, :-1], -hull.equations[:, -1]


def support_at(points, normals):
    return (normals @ np.asarray(points).T).max(axis=1)


def oracle_circumradius(k, c):
    normals, offsets = qhull_facets(c.vertices)
    h = support_at(k.vertices, normals)
    d = k.dim
    # min lambda s.t. normals @ x + offsets * lambda >= h
    cost = np.zeros(d + 1)
    cost[d] = 1.0
    a_ub = np.hstack([-normals, -offsets[:, None]])
    res = linprog(cost, A_ub=a_ub, b_ub=-h,
                  bounds=[(None, None)] * d + [(0, None)])
    assert res.status == 0
    return res.fun


def oracle_inradius(k, c):
    normals, offsets = qhull_facets(k.vertices)
    h = support_at(c.vertices, normals)
    d = k.dim
    cost = np.zeros(d + 1)
    cost[d] = -1.0
    a_ub = np.hstack([normals, h[:, None]])
    res = linprog(cost, A_ub=a_ub, b_ub=offsets,
                  bounds=[(None, None)] * d + [(0, None)])
    assert res.status == 0
    return -res.fun


def pairwise_differences(points):
    p = np.asarray(points)
    return (p[:, None, :] - p[None, :, :]).reshape(-1, p.shape[1])


def oracle_diameter(k, c):
    half = 0.5 * pairwise_differences(c.vertices)
    normals, offsets = qhull_facets(half)
    diffs = pairwise_differences(k.vertices)
    gammas = (diffs @ normals.T) / offsets
    return float(np.maximum(gammas.max(axis=1), 0.0).max())


def oracle_min_width(k, c):
    body_diff = pairwise_differences(k.vertices)
    gauge_diff = pairwise_differences(c.vertices)
    normals, offsets = qhull_facets(body_diff)
    return float(np.min(2.0 * offsets / support_at(gauge_diff, normals)))


def oracle_axis_slack(p, point):
    """Largest rho with point ± rho e_k in the hull for every k, or None.

    One block of convex weights per direction s = ±e_k:
    sum_i w_i v_i - rho s = point, sum_i w_i = 1, w >= 0.
    """
    verts = np.asarray(p.vertices)
    n, d = verts.shape
    directions = np.vstack([np.eye(d), -np.eye(d)])
    a_eq = np.zeros((2 * d * (d + 1), 1 + 2 * d * n))
    b_eq = np.zeros(2 * d * (d + 1))
    for k, s in enumerate(directions):
        rows, cols = slice(k * (d + 1), k * (d + 1) + d), slice(1 + k * n, 1 + (k + 1) * n)
        a_eq[rows, cols] = verts.T
        a_eq[rows, 0] = -s
        b_eq[rows] = point
        a_eq[k * (d + 1) + d, cols] = 1.0
        b_eq[k * (d + 1) + d] = 1.0
    cost = np.zeros(a_eq.shape[1])
    cost[0] = -1.0
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * a_eq.shape[1])
    if res.status == 2:
        return None
    assert res.status == 0
    return -res.fun


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("thickness", [1e-6, 1e-7, 1e-8])
def test_thin_rotated_box_never_gives_an_infinite_diameter_or_zero_width(dim, thickness):
    # The box is full-dimensional, so every gauge of (C-C)/2 = box and of
    # K-K = 2 box is finite.  Each call matches linprog on the box's
    # analytic facets n = ±Q e_k, b = s_k, or raises; it never returns inf
    # or 0, which is what a false infeasible gauge LP (4-D, 1e-7) would give.
    rotation = np.linalg.qr(np.random.default_rng(100).normal(size=(dim, dim)))[0]
    cube = np.array(list(itertools.product((-1.0, 1.0), repeat=dim)))
    s = np.r_[np.ones(dim - 1), thickness]
    normals, offsets = np.vstack([rotation.T, -rotation.T]), np.r_[s, s]
    # D(cube, box): least lambda with every difference of the cube in lambda box.
    diffs = pairwise_differences(cube)
    products, rows = (diffs @ normals.T).reshape(-1, 1), np.tile(offsets, len(diffs))
    want_d = linprog([1.0], A_ub=-rows[:, None], b_ub=-products.ravel(), bounds=[(0, None)]).fun
    # omega(box, cube): twice the largest t with t (C-C) in K-K = 2 box.
    # Each row is divided by its offset, so that no right-hand side is as
    # small as HiGHS's feasibility tolerance of 1e-7: with offsets of 2e-7
    # the unscaled rows gave omega 7.8% above its closed form at 4-D 1e-7
    # and 1e-8, and 2.2 times it at 3-D 1e-8.
    want_w = -2.0 * linprog([-1.0], A_ub=products / rows[:, None], b_ub=np.full(rows.size, 2.0),
                            bounds=[(0, None)]).fun
    box = VPolytope(cube * s @ rotation.T)
    for call, want in ((lambda: diameter(VPolytope(cube), box), want_d),
                       (lambda: min_width(box, VPolytope(cube)), want_w)):
        try:
            value = call().value
        except RuntimeError:
            continue
        assert 0.0 < value < np.inf
        assert value == pytest.approx(want, rel=1e-7)


def random_full_dim(rng, dim, lo=None, hi=9, min_slack=0.2):
    lo = dim + 1 if lo is None else lo
    while True:
        verts = rng.normal(scale=2.0, size=(int(rng.integers(lo, hi)), dim))
        centered = verts - verts.mean(axis=0)
        if interior_slack(VPolytope(centered), np.zeros(dim)) >= min_slack:
            return VPolytope(verts)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_quantities_match_scipy_oracles(dim):
    rng = np.random.default_rng(40 + dim)
    for _ in range(12):
        k = random_full_dim(rng, dim)
        c = random_full_dim(rng, dim)
        assert circumradius(k, c).value == pytest.approx(
            oracle_circumradius(k, c), abs=1e-7
        )
        assert inradius(k, c).value == pytest.approx(
            oracle_inradius(k, c), abs=1e-7
        )
        assert diameter(k, c).value == pytest.approx(
            oracle_diameter(k, c), abs=1e-7
        )
        assert min_width(k, c).value == pytest.approx(
            oracle_min_width(k, c), abs=1e-7
        )


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_interior_slack_matches_scipy_oracle(dim):
    rng = np.random.default_rng(70 + dim)
    for _ in range(10):
        verts = rng.normal(scale=2.0, size=(int(rng.integers(dim + 1, 9)), dim))
        p = VPolytope(verts)
        margin = _interior_margin(p)
        weights = rng.dirichlet(np.ones(len(verts)), size=5)
        for x in weights @ verts:
            expected = oracle_axis_slack(p, x)
            assert expected is not None and expected > 0.0
            assert interior_slack(p, x) == pytest.approx(expected, rel=1e-9)
        # Hull vertices (slack 0 in the oracle) and points beyond them, away
        # from the centroid (outside the hull), do not certify.
        centroid = verts.mean(axis=0)
        for v in verts[ConvexHull(verts).vertices]:
            assert oracle_axis_slack(p, v) == pytest.approx(0.0, abs=1e-9)
            assert interior_slack(p, v) < margin
            outside = v + 0.5 * (v - centroid)
            assert oracle_axis_slack(p, outside) is None
            assert interior_slack(p, outside) < margin


@pytest.mark.parametrize("dim", [2, 3])
def test_gauge_matches_qhull_facet_form(dim):
    rng = np.random.default_rng(50 + dim)
    for _ in range(10):
        c = random_full_dim(rng, dim)
        centered = VPolytope(c.vertices - c.vertices.mean(axis=0))
        normals, offsets = qhull_facets(centered.vertices)
        body = GaugeBody.from_polytope(centered)
        for x in rng.normal(scale=2.5, size=(10, dim)):
            expected = max(0.0, float(np.max((normals @ x) / offsets)))
            assert gauge(body, x).value == pytest.approx(expected, abs=1e-8)


def gauge_programs():
    """(V, x) of gauge LPs min 1'nu subject to V nu = x, nu >= 0 in 3-D to
    6-D: the difference body of a random body, the cube, the cross-polytope
    and a random body far off the origin, at x = ±e_k and at random x."""
    rng = np.random.default_rng(31)
    for dim in range(3, 7):
        cube = np.array(list(itertools.product([-1.0, 1.0], repeat=dim)))
        bodies = (np.unique(pairwise_differences(random_full_dim(rng, dim).vertices), axis=0),
                  cube, np.vstack([np.eye(dim), -np.eye(dim)]),
                  random_full_dim(rng, dim).vertices + 4.0)
        points = np.vstack([np.eye(dim), -np.eye(dim), rng.normal(size=(4, dim))])
        for v in bodies:
            for x in points:
                yield v, x


def test_degenerate_gauge_programs_match_highs():
    # At x = ±e_k most right-hand sides are zero, and a cube's facet holds
    # 2^(d-1) vertices, so the solver's pivots meet ratio and Dantzig ties.
    # Whatever optimal basis it ends on, its value must be HiGHS's, its
    # duals y a polar vertex (v.y <= 1 on every column) attaining the
    # value at x, and its basic columns must reproduce x.
    statuses = []
    for v, x in gauge_programs():
        dim = v.shape[1]
        out = lp_solver.solve(lp_solver.LinearProgram(np.ones(len(v)), v.T,
                                                      (lp_solver.EQUAL,) * dim, x))
        ref = linprog(np.ones(len(v)), A_eq=v.T, b_eq=x, bounds=(0, None), method="highs")
        assert ref.status in (0, 2)
        statuses.append(out.status)
        assert out.status == (lp_solver.OPTIMAL if ref.status == 0 else lp_solver.INFEASIBLE)
        if ref.status:
            continue
        assert out.value == pytest.approx(ref.fun, rel=1e-12)
        assert (v @ out.duals).max() <= 1.0 + 1e-9
        assert out.duals @ x == pytest.approx(out.value, rel=1e-12)
        basic = out.basis[out.basis < len(v)]
        assert v[basic].T @ out.solution[basic] == pytest.approx(x, rel=1e-12, abs=1e-12)
        assert (np.delete(out.solution, basic) == 0.0).all()
    assert lp_solver.INFEASIBLE in statuses and statuses.count(lp_solver.OPTIMAL) > 120


def test_chain_members_match_oracles_in_three_dimensions():
    rng = np.random.default_rng(61)
    for _ in range(5):
        k = random_full_dim(rng, 3)
        c = random_full_dim(rng, 3)
        report = verify_chain(k, c, tol=1e-6)
        diff_k = VPolytope(pairwise_differences(k.vertices))
        assert report.a2 == pytest.approx(oracle_diameter(k, c), abs=1e-7)
        assert report.a4 == pytest.approx(oracle_circumradius(diff_k, c), abs=1e-7)
        # a1 is a sampled lower bound off-plane; the oracle bounds it above.
        half = 0.5 * pairwise_differences(c.vertices)
        assert report.a3 == pytest.approx(
            oracle_circumradius(diff_k, VPolytope(half)), abs=1e-7
        )
        assert report.a1 <= report.a2 + 1e-9


def _simplex_in_lattice():
    # The 4-D simplex in the 81-point lattice body {0,1,2}^4 - 0.7.
    lattice = np.array(list(itertools.product([0.0, 1.0, 2.0], repeat=4))) - 0.7
    simplex = np.vstack([np.zeros(4), np.eye(4)])
    return VPolytope(simplex), VPolytope(lattice)


def _gaussian_twelve():
    # 12 standard-normal vertices each in 3-D, the gauge centred.
    rng = np.random.default_rng(1)
    k = rng.normal(size=(12, 3))
    c = rng.normal(size=(12, 3))
    return VPolytope(k), VPolytope(c - c.mean(axis=0))


@pytest.mark.parametrize("pair", [_simplex_in_lattice, _gaussian_twelve])
def test_chain_members_match_oracles_on_large_pairs(pair, monkeypatch):
    # a3 and a4 are containment programs over K-K (25 and 132 distinct
    # differences) in gauges of up to 625 distinct vertices.  As dense
    # convex-coefficient LPs they took 1.4 M and 9.4 M cells; the chain now
    # takes about 200 LPs of at most 2 500 cells.  The width evaluates the
    # gauge of K-K at up to 624 vertices of C-C, most through cached cones.
    k, c = pair()
    cells = []
    solve = lp_solver.solve
    monkeypatch.setattr(lp_solver, "solve",
                        lambda lp, **kw: cells.append(lp.lhs.size) or solve(lp, **kw))
    start = time.perf_counter()
    report = verify_chain(k, c, tol=1e-6)
    assert time.perf_counter() - start < 5.0
    assert len(cells) < 500 and max(cells) < 10_000
    assert report.ok, report.flags
    cells.clear()
    width = min_width(k, c).value
    assert len(cells) < 100
    assert width == pytest.approx(oracle_min_width(k, c), abs=1e-7)
    diff_k = VPolytope(pairwise_differences(k.vertices))
    half = VPolytope(0.5 * pairwise_differences(c.vertices))
    assert report.a3 == pytest.approx(oracle_circumradius(diff_k, half), abs=1e-7)
    assert report.a4 == pytest.approx(oracle_circumradius(diff_k, c), abs=1e-7)


# Pairs on which the simplex ratio test once pivoted on negative right-hand
# sides left by drift, so inradius returned a point violating a row by up
# to 0.68.  Drawn by bench/oracles.draw_body with default_rng(seed), which
# draws (3-D, 8), (4-D, 8) and (3-D, 10) vertex pairs in turn.  The seed-127
# pair still fails when negative right-hand sides are read as zero but ratio
# ties go to the smallest basis index; it needs the largest-pivot tie-break.
DRIFT_PAIRS = {
    "seed59-first": (
        [[-2.013991424619121, 3.20465719176145, 3.8434423450093935],
         [-0.032442286858055676, -1.8733189229953577, -1.1817580417627602],
         [-0.18949338021963588, -2.1786419017711234, 4.330502829889515],
         [0.5046254921326652, 2.0316944283819094, 1.1000575176293383],
         [2.204436538996786, 0.08256751043893006, -1.3759026800931533],
         [2.6354889726311925, -1.0379593074761622, -1.7341277081548956],
         [2.141287227977597, -1.9177992979859266, -2.1821005612066773],
         [3.131922195085822, 1.0965502321204472, -0.8704874050216355]],
        [[-1.077690974096984, -2.7690606256777235, 2.2759067445223313],
         [0.5661746310115431, 1.9321167571880278, 2.51320251745009],
         [-1.0374919561346614, 2.5612307169620077, 0.8419642197194549],
         [1.1151116788781152, -3.1201987721272704, 1.368450596201511],
         [-0.583011365698287, -1.112396303309474, 0.0941909687295592],
         [-0.9619862354696991, -0.627793978506258, -1.544778294506471],
         [-1.3028107918829732, 0.045100467813200866, 3.561406113347673],
         [-3.090736890126289, -4.876468918238155, -0.3168682257795294]],
        0.412463096,
    ),
    "seed80-second": (
        [[-0.376033444009608, -0.5399773058370171, -1.6250431177658031, -1.8820811419056491],
         [6.015040814877247, 1.901324101978685, 0.06941704495019353, 2.9922363815528934],
         [-1.2257809457850946, -0.4131512668958384, 0.8284986263569148, -2.382430285919846],
         [3.504263183780348, 3.1769155977609045, 1.225123597493674, -0.31240582702712266],
         [1.5253672010327766, -2.521380611945511, -2.2679347992035352, -1.9915644970759285],
         [-0.30236791014047776, 0.8998660736717358, -0.4717181015971881, 0.9285858719554757],
         [0.4021375918852736, -1.6955529140408507, -1.8272766213744933, 3.845457500714948],
         [0.3893524119570336, -0.7114922779548755, 0.1545205986613701, -0.6520654781813308]],
        [[0.9488953614632981, -4.022322251553001, -0.7295711310221992, 3.663946643006714],
         [1.889869740101829, -0.7572915637614651, 0.29832139689988196, 0.4668878694410004],
         [-0.08545985317991893, 0.4296089741772283, -1.2077230632464833, 0.3684074668270068],
         [0.46448564655046115, -3.14827186431249, 0.5759112705030114, -3.5350013236424016],
         [-0.7852236505102048, 1.1719496617938059, -1.6358429136850359, 0.7040577612270469],
         [1.347757461319558, 0.15059218892416007, -0.14537527556778315, -0.14535114977934524],
         [-0.8669286362435347, -0.876755499650984, -5.262626716114392, 2.645548308813945],
         [-0.18824347667150831, -4.931139622115919, 3.691070944967916, 3.2666402517363444]],
        0.161335202,
    ),
    "seed35-third": (
        [[2.7459294173911553, -0.4611416132419443, 0.23059260380584493],
         [0.3381170528515646, 0.8718721986208254, 1.1143152767481168],
         [4.38445866522456, 3.0340863241196248, 0.886265919719782],
         [-1.4836192573434313, 3.578270365904238, 1.827794656740647],
         [0.24595085097305408, -1.0484538825143122, -1.980135849228655],
         [2.17631481611626, 2.2432698602425263, 0.1632373529850581],
         [0.05784754340960148, 3.749830547706124, 1.1504203962080548],
         [-0.24017978818713825, -1.3376011512415094, 2.021171314099425],
         [1.763528949940833, -2.1127650215477596, -4.447665073540446],
         [1.4191950274202392, 1.421651071335098, 2.246477288502044]],
        [[1.5115196049668322, -3.5255548556430583, 2.333980198257936],
         [-0.7183265315546558, 3.113547544118304, 0.7221779303470937],
         [-0.6294604108135742, -2.237734827040931, -0.9861327553545353],
         [0.8181186061263356, -0.2656352398994685, 2.579425270164026],
         [-0.00776601830679809, 0.7481580298747297, -1.341494969447336],
         [-1.3536148663691974, -1.1436889759974715, -1.9207339763248372],
         [2.1613224628638, 3.1130062302484927, -1.1660560810863414],
         [-0.7066291556917518, 2.63417963981063, 1.2623863737736203],
         [1.6476785142900223, -2.1018441389415647, 3.9923637463220727],
         [0.8892801893652676, 0.8143094869903185, -0.4607411608831679]],
        0.420969881,
    ),
    "seed127-second": (
        [[6.07919137388838, 0.6837197480639042, 0.3477548494428039, -2.856386447267233],
         [0.264577194907563, -0.46216507235612997, 0.625340990238667, 0.6698826504555216],
         [-2.0393173716610717, 3.805912317615993, -1.0864236232459825, 3.964678782824601],
         [-0.953491479406985, 0.1769532456181274, 1.0136191333354942, 0.6378847899652207],
         [-0.024790235728242013, -2.032553705530994, 0.6179627647841403, 2.830336386131236],
         [4.790053482100286, -1.5405823996919954, 2.717997199700694, -2.217226907918703],
         [-1.2389128855793428, -1.8243207094477625, 0.6067071453949506, -0.7937208153658263],
         [-2.916095369997309, -2.239593766037132, 0.3240371171588697, -0.2575964161006719]],
        [[1.6430138473631017, -0.37472000338087985, 1.1414086766348923, 4.613369379610514],
         [-1.6302108730837825, -1.1142707960721583, -1.3889707071871318, 3.114618581003968],
         [-0.1172249793948598, 0.09704930122692905, -1.6833512313249641, -0.7771843616548623],
         [1.9016465684061323, -2.734560401163226, -3.4905345424256535, 0.278185964805743],
         [4.019718077902452, -0.9101076023511894, 1.0317875825785223, 1.8106536916732328],
         [1.215426066372599, 3.8695102105540076, -1.9502593207448737, 0.614807597250386],
         [-2.024614296165161, -2.7190755105672166, -0.702755973659891, 0.3027349828642601],
         [-0.6620421436220894, 0.20131410100757513, 1.36537523872703, -1.549096820546654]],
        0.189795798,
    ),
}


@pytest.mark.parametrize("label", sorted(DRIFT_PAIRS))
def test_inradius_survives_tableau_drift(label):
    k_verts, c_verts, expected = DRIFT_PAIRS[label]
    k, c = VPolytope(np.array(k_verts)), VPolytope(np.array(c_verts))
    value = inradius(k, c).value
    assert value == pytest.approx(oracle_inradius(k, c), abs=1e-7)
    assert value == pytest.approx(expected, abs=1e-9)


def rotated_segments(first=30, stop=190):
    """Trials ``first`` to ``stop`` - 1 of a seeded sweep of planar pairs
    (trial, K, C): K is 4 to 10 collinear normal points on a line through
    the origin at a random angle, and C is 4 to 10 normal points."""
    rng = np.random.default_rng(2024)
    for trial in range(stop):
        n, m = rng.integers(4, 11, size=2)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        rotation = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        k = np.c_[rng.normal(size=(n, 1)), np.zeros(n)] @ rotation.T
        c = rng.normal(size=(m, 2))
        if trial >= first:
            yield trial, VPolytope(k), VPolytope(c)


def test_rotated_segments_match_scipy_oracles():
    # Rounding leaves tiny turns in a rotated segment's support hull, so
    # its zero-width sectors may tie at the least start angle, as on trials
    # 36, 87, 148 and 187.  A sector search rotated into such a tie misses
    # supports: R, r and the chain raise, and D is off by up to 0.39.
    for trial, k, c in rotated_segments():
        assert circumradius(k, c).value == pytest.approx(oracle_circumradius(k, c), abs=1e-9)
        assert inradius(c, k).value == pytest.approx(oracle_inradius(c, k), abs=1e-9)
        want_d = oracle_diameter(k, c)
        assert diameter(k, c).value == pytest.approx(want_d, abs=1e-9)
        report = verify_chain(k, c)
        assert report.ok, (trial, report.flags)
        diff_k = VPolytope(pairwise_differences(k.vertices))
        half = VPolytope(0.5 * pairwise_differences(c.vertices))
        assert report.a2 == pytest.approx(want_d, abs=1e-9)
        assert report.a3 == pytest.approx(oracle_circumradius(diff_k, half), abs=1e-9)
        assert report.a4 == pytest.approx(oracle_circumradius(diff_k, c), abs=1e-9)


def engine_masters(monkeypatch, *calls):
    """Copies of the (points, gains, start basis) of every master the
    containment engine solves while running ``calls``."""
    masters, simplex = [], radii._simplex
    monkeypatch.setattr(radii, "_simplex", lambda points, gains, basis: masters.append(
        (points.copy(), gains.copy(), basis.copy())) or simplex(points, gains, basis))
    for call in calls:
        call()
    monkeypatch.undo()
    return masters


def random_masters():
    """Masters of random cut sets in 2-D to 6-D: the start cuts and up to
    40 d random unit normals, a centred C and a K off the origin."""
    rng = np.random.default_rng(7)
    for d in range(2, 7):
        for _ in range(12):
            u = rng.normal(size=(int(rng.integers(d + 1, 40 * d)), d))
            u = np.vstack([np.eye(d), np.full((1, d), -d ** -0.5),
                           u / np.linalg.norm(u, axis=1)[:, None]])
            c = rng.normal(size=(3 * d, d))
            k = rng.normal(size=(2 * d, d)) + rng.normal(size=d)
            offsets = support_at(c - c.mean(axis=0), u)
            yield u / offsets[:, None], support_at(k, u) / offsets, np.arange(d + 1)


def planar_master_calls():
    """R and r of planar pairs whose gauge bodies start the master from
    antipodal facets (the square and a thin box), from a triangle, from
    thin polygons down to aspect 1e-12, scaled by 1e8 and 1e-8, and from
    Reuleaux polygons up to n = 384."""
    rng = np.random.default_rng(12)
    square, triangle = make_body(BodySpec("centered_square")), make_body(
        BodySpec("equilateral_triangle"))
    pairs = [(square, triangle), (triangle, square), (triangle, triangle)]
    for aspect in (1e-3, 1e-6, 1e-9, 1e-12):
        for thin in (square.vertices, rng.normal(size=(9, 2))):
            thin = thin * [1.0, aspect] * rng.choice([-1.0, 1.0], size=2)
            pairs += [(VPolytope(rng.normal(size=(6, 2))), VPolytope(thin)),
                      (VPolytope(thin), triangle)]
    for scale in (1e8, 1e-8):
        pairs += [(VPolytope(k.vertices * scale + [3.0 * scale, 0.0]),
                   VPolytope(c.vertices * scale)) for k, c in pairs[:3]]
    for n in (24, 96, 384):
        c = make_body(BodySpec("reuleaux_triangle", n=n))
        pairs.append((VPolytope(-c.vertices), c))
    return [call for k, c in pairs for call in (lambda k=k, c=c: circumradius(k, c),
                                                  lambda k=k, c=c: inradius(k, c))]


@pytest.mark.parametrize("stall", [None, 0])
def test_master_simplex_matches_highs(monkeypatch, stall):
    # The engine's master, lp_solver's simplex kernel on costs -g, solves
    # max g'z with sum z_f (p_f, 1) = e_{d+1}, z >= 0.  Off the plane it
    # starts from the basis of the d + 1 start cuts; a planar master's cuts
    # are the gauge body's facets, and it starts from their prepared basis,
    # whose weights must be feasible up to rounding (a square's antipodal
    # facets make them degenerate).  Its radius must be HiGHS's optimum, its
    # final basis's weights a feasible point, and its centre must satisfy
    # every cut.  ``stall`` 0 takes Bland's rule after the first pivot that
    # brings no gain; the 6-D chain's a3 master is degenerate, with C
    # centred.
    square, triangle = make_body(BodySpec("centered_square")), make_body(
        BodySpec("equilateral_triangle"))
    calls = [lambda: circumradius(square, triangle), lambda: inradius(square, triangle)]
    for n in (24, 48, 96, 192, 384):
        c = make_body(BodySpec("reuleaux_triangle", n=n))
        k = VPolytope(-c.vertices)
        calls += [lambda k=k, c=c: circumradius(k, c), lambda k=k, c=c: inradius(k, c)]
    rng = np.random.default_rng(3)
    k, c = rng.normal(size=(30, 6)), rng.normal(size=(30, 6))
    calls.append(lambda: verify_chain(VPolytope(k), VPolytope(c - c.mean(axis=0))))
    masters = engine_masters(monkeypatch, *calls)
    assert len(masters) == 2 + 10 + 4 and masters[12][0].shape[1] == 6
    planar = engine_masters(monkeypatch, *planar_master_calls())
    assert len(planar) == 56 and all(points.shape[1] == 2 for points, _, _ in planar)
    if stall is not None:
        monkeypatch.setattr(lp_solver, "_STALL_LIMIT", stall)
    for points, gains, basis in [*masters, *planar, *random_masters()]:
        columns = np.c_[points, np.ones(gains.size)]
        target = np.eye(columns.shape[1])[-1]
        if points.shape[1] == 2:
            assert np.linalg.solve(columns[basis].T, target).min() >= -1e-15
        prices = radii._simplex(points, gains, basis)
        res = linprog(-gains, A_eq=columns.T, b_eq=target, bounds=(0, None), method="highs")
        assert res.status == 0
        assert prices[-1] == pytest.approx(-res.fun, rel=1e-12, abs=1e-12)
        # Rounding leaves a degenerate basis's zero weights within 1e-15.
        assert np.linalg.solve(columns[basis].T, target).min() >= -1e-12
        assert (gains - points @ prices[:-1]).max() <= prices[-1] + 1e-12 * max(1.0, prices[-1])
