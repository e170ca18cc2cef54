"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Random suites are fully seeded and report zero tolerance failures.
"""

import math
import time

import numpy as np
import pytest

from polyradii.bodies import BodySpec, make_body
from polyradii.convex_core import (
    VPolytope,
    _GaugeLP,
    difference_hull,
    facets_2d,
    interior_slack,
    minkowski_sum,
    transform,
)
from polyradii.functionals import GaugeBody, gauge, support_values
from polyradii.radii import (
    circumradius,
    diameter,
    induced_norm,
    inradius,
    min_width,
    verify_chain,
)

_MODULE_START = time.perf_counter()

SQRT3 = math.sqrt(3.0)
TRIANGLE = make_body(BodySpec("equilateral_triangle"))
SQUARE = make_body(BodySpec("centered_square"))
HEXAGON = difference_hull(TRIANGLE)

DIAMETER_REF = (2.0 / 3.0) * (3.0 + SQRT3)
CIRCUM_DIFF_REF = 2.0 + 4.0 / SQRT3
PAIR_GAUGE_REF = 3.0 + SQRT3
REULEAUX_CIRCUM_REF = (3.0 + SQRT3) / 2.0

QUANTITIES = {"R": circumradius, "r": inradius, "D": diameter, "omega": min_width}


def _passed(name):
    print(f"acceptance {name}: PASS")


def _random_body(rng, dim, max_vertices=10):
    n = int(rng.integers(dim + 1, max_vertices + 1))
    return VPolytope(rng.normal(scale=2.0, size=(n, dim)))


def _random_gauge(rng, dim, max_vertices=10, min_slack=0.25):
    # Gauges need interior and some thickness so absolute tolerances stay
    # meaningful for ratios like R(K, C).
    for _ in range(100):
        body = _random_body(rng, dim, max_vertices)
        centered = VPolytope(body.vertices - body.vertices.mean(axis=0))
        if interior_slack(centered, np.zeros(dim)) >= min_slack:
            return centered
    raise AssertionError("failed to draw a usable gauge body")


def _values(k, c):
    return {name: fn(k, c).value for name, fn in QUANTITIES.items()}


# ---------------------------------------------------------------------------
# criterion 1: square body against triangle gauge, exact chain values


def test_criterion_1_square_triangle_exact():
    start = time.perf_counter()
    report = verify_chain(SQUARE, TRIANGLE, tol=1e-7)
    assert report.a5 == pytest.approx(PAIR_GAUGE_REF, abs=1e-7)
    assert report.a4 == pytest.approx(CIRCUM_DIFF_REF, abs=1e-7)
    assert report.a2 == pytest.approx(DIAMETER_REF, abs=1e-7)
    assert report.a1 == pytest.approx(DIAMETER_REF, abs=1e-7)
    assert report.a3 == pytest.approx(DIAMETER_REF, abs=1e-7)
    assert diameter(SQUARE, TRIANGLE).value == pytest.approx(DIAMETER_REF, abs=1e-7)
    # Chain flags: the first three equal, then strictly increasing.
    assert report.flags["a1_eq_a2"] and report.flags["a2_eq_a3"]
    assert report.a3 < report.a4 - 1e-3
    assert report.a4 < report.a5 - 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(f"1 (square/triangle exact chain, {elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# criterion 2: Reuleaux reproduction and convergence


def _reuleaux_values(n):
    c = make_body(BodySpec("reuleaux_triangle", n=n))
    k = transform(c, 1.0, [0.0, 0.0], reflect=True)
    diff = difference_hull(k)
    return {
        "R": circumradius(diff, c).value,
        "r": inradius(diff, c).value,
        "D": diameter(k, c).value,
        "omega": min_width(k, c).value,
    }


def test_criterion_2_reuleaux_reproduction():
    start = time.perf_counter()
    references = {"R": REULEAUX_CIRCUM_REF, "r": SQRT3, "D": 2.0, "omega": 2.0}
    at_96 = _reuleaux_values(96)
    for name, ref in references.items():
        assert at_96[name] == pytest.approx(ref, abs=5e-3), name
    # The strict-inequality remark: the width is not the difference-body
    # inradius for this non-centered gauge.
    assert abs(at_96["omega"] - at_96["r"]) > 0.2
    at_192 = _reuleaux_values(192)
    for name, ref in references.items():
        err_96 = abs(at_96[name] - ref)
        err_192 = abs(at_192[name] - ref)
        assert err_192 <= 0.35 * err_96 + 1e-9, name
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(f"2 (Reuleaux n=96/192 reproduction, {elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# criterion 3: simplex-in-cube and the common-summand counterexample


def test_criterion_3_simplex_cube_remark():
    for dim in (2, 3):
        k = make_body(BodySpec("simplex", dim=dim))
        c = make_body(BodySpec("cube", dim=dim))
        seg = make_body(BodySpec("segment", dim=dim))
        assert circumradius(k, c).value == pytest.approx(0.5, abs=1e-9)
        shifted = circumradius(minkowski_sum(k, seg), minkowski_sum(c, seg))
        assert shifted.value == pytest.approx(2.0 / 3.0, abs=1e-9)
    _passed("3 (simplex/cube common-summand values 1/2 and 2/3)")


# ---------------------------------------------------------------------------
# criterion 4: property suites over 100 seeds


def test_criterion_4_property_suites():
    start = time.perf_counter()
    tol = 1e-6
    failures = []

    def check(condition, seed, label):
        if not condition:
            failures.append((seed, label))

    for seed in range(100):
        rng = np.random.default_rng(5000 + seed)
        dim = 2 if seed % 2 == 0 else 3
        max_vertices = 10 if dim == 2 else 6
        k = _random_body(rng, dim, max_vertices)
        c = _random_gauge(rng, dim, max_vertices)
        base = _values(k, c)

        # Translation invariance of both arguments.
        moved = _values(
            transform(k, 1.0, rng.normal(scale=3.0, size=dim)),
            transform(c, 1.0, rng.normal(scale=3.0, size=dim)),
        )
        for name in QUANTITIES:
            check(abs(moved[name] - base[name]) <= tol, seed, f"translation/{name}")

        # (alpha / beta) homogeneity.
        alpha, beta = rng.uniform(0.5, 2.0, size=2)
        zero = np.zeros(dim)
        scaled = _values(transform(k, alpha, zero), transform(c, beta, zero))
        for name in QUANTITIES:
            expected = (alpha / beta) * base[name]
            check(abs(scaled[name] - expected) <= tol, seed, f"homogeneity/{name}")

        # Monotonicity: shrinking the body and growing the gauge can only
        # shrink every quantity.
        keep = rng.choice(len(k.vertices), size=max(1, len(k.vertices) // 2),
                          replace=False)
        smaller_k = VPolytope(k.vertices[keep])
        bigger_c = minkowski_sum(c, VPolytope([zero, rng.normal(size=dim)]))
        mono = _values(smaller_k, bigger_c)
        for name in QUANTITIES:
            check(mono[name] <= base[name] + tol, seed, f"monotonicity/{name}")

        # Sub/super-additivity under Minkowski sums in the body argument.
        other = _random_body(rng, dim, max_vertices)
        both = _values(minkowski_sum(k, other), c)
        alone = _values(other, c)
        for name in ("R", "D"):
            check(both[name] <= base[name] + alone[name] + tol, seed,
                  f"subadditivity/{name}")
        for name in ("r", "omega"):
            check(both[name] >= base[name] + alone[name] - tol, seed,
                  f"superadditivity/{name}")

        # Nesting through an intermediate gauge.  The width bound carries a
        # half: omega(C, C) = 2, so omega(K, C') >= omega(K, C) omega(C, C')/2
        # is the tight factor-correct form.
        bridge_gauge = _random_gauge(rng, dim, max_vertices)
        direct = _values(k, bridge_gauge)
        bridge = _values(c, bridge_gauge)
        for name in ("R", "D"):
            check(direct[name] <= base[name] * bridge[name] + tol, seed,
                  f"nesting/{name}")
        check(direct["r"] >= base["r"] * bridge["r"] - tol, seed, "nesting/r")
        check(direct["omega"] >= 0.5 * base["omega"] * bridge["omega"] - tol,
              seed, "nesting/omega")

    assert not failures, failures[:10]
    elapsed = time.perf_counter() - start
    _passed(f"4 (property suites, 100 seeds, 0 failures, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 5: centered-gauge collapses


def _width_numbers(k, c):
    """Independent routes to the minimum width for a centered gauge.

    Returns the width itself plus the four theorem routes: difference-body
    inradius, support-ratio sweep, polar-gauge ratio sweep, and the
    reciprocal bilinear maximum over the polar of K-K.
    """
    a = difference_hull(k)
    b = difference_hull(c)
    route_width = min_width(k, c).value
    route_inradius = inradius(a, c).value
    fa = facets_2d(a)
    sweep = np.vstack([fa.normals, facets_2d(b).normals])
    route_ratio = float(np.min(
        2.0 * support_values(a, sweep) / support_values(b, sweep)
    ))
    # Ratio against the gauge's own support (its polar gauge).
    sweep_c = np.vstack([fa.normals, facets_2d(c).normals])
    route_polar = float(np.min(
        support_values(a, sweep_c) / support_values(c, sweep_c)
    ))
    gauge_a = GaugeBody.from_polytope(a)
    route_bilinear = 1.0 / max(gauge(gauge_a, v).value for v in c.vertices)
    return route_width, route_inradius, route_ratio, route_polar, route_bilinear


def test_criterion_5_centered_gauge_collapses():
    tol = 1e-6
    rng = np.random.default_rng(77001)
    for gauge_body in (SQUARE, HEXAGON):
        for _ in range(10):
            k = _random_body(rng, 2)
            report = verify_chain(k, gauge_body, tol=tol)
            assert report.flags["centered_gauge"]
            assert report.flags["all_equal"], (report.a1, report.a5)
            assert report.ok

            full = _random_gauge(rng, 2)
            numbers = _width_numbers(full, gauge_body)
            spread = max(numbers) - min(numbers)
            assert spread <= tol, numbers

            half = rng.normal(scale=2.0, size=(4, 2))
            centered_k = VPolytope(np.vstack([half, -half]))
            dia = diameter(centered_k, gauge_body).value
            two_r = 2.0 * circumradius(centered_k, gauge_body).value
            assert abs(dia - two_r) <= tol
    _passed("5 (centered-gauge chain/width/diameter collapses)")


# ---------------------------------------------------------------------------
# criterion 6: norm axioms of the induced norm


def test_criterion_6_induced_norm_axioms():
    tol = 1e-7
    rng = np.random.default_rng(88001)
    half_diff = VPolytope(0.5 * HEXAGON.vertices)
    unit_ball = GaugeBody.from_polytope(half_diff)

    def norm(x):
        return gauge(unit_ball, x).value

    # The once-built unit ball evaluates the same function as induced_norm.
    for _ in range(25):
        x = rng.normal(scale=3.0, size=2)
        assert norm(x) == pytest.approx(induced_norm(TRIANGLE, x).value, abs=1e-9)

    assert norm(np.zeros(2)) == pytest.approx(0.0, abs=1e-12)
    for _ in range(1000):
        x, y = rng.normal(scale=3.0, size=2), rng.normal(scale=3.0, size=2)
        alpha = float(rng.uniform(0.1, 4.0))
        nx, ny = norm(x), norm(y)
        assert nx > 1e-9  # definiteness away from the origin
        assert abs(norm(-x) - nx) <= tol
        assert abs(norm(alpha * x) - alpha * nx) <= tol
        assert norm(x + y) <= nx + ny + tol

    # 100 boundary points of the unit ball have norm exactly one.
    theta = np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False)
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    f = facets_2d(half_diff)
    gammas = np.max((dirs @ f.normals.T) / f.offsets, axis=1)
    boundary = dirs / gammas[:, None]
    for point in boundary:
        assert induced_norm(TRIANGLE, point).value == pytest.approx(1.0, abs=tol)
    _passed("6 (norm axioms, 1000 triples + 100 boundary points)")


# ---------------------------------------------------------------------------
# criterion 7: width oracle equivalence in the plane


def test_criterion_7_width_oracle_equivalence():
    tol = 1e-7
    rng = np.random.default_rng(99001)
    theta = np.linspace(0.0, np.pi, 4096, endpoint=False)
    sweep_dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    for _ in range(100):
        k = _random_body(rng, 2)
        c = _random_gauge(rng, 2)
        a, b = difference_hull(k), difference_hull(c)
        # The pinned inscription: both difference bodies are centered, so
        # t*(C-C) fits in K-K exactly when t*gauge_{K-K}(w) <= 1 at every
        # vertex w of C-C, one gauge LP each.
        gauge_lp = _GaugeLP(a.vertices)
        via_lp = 2.0 / max(gauge_lp(w)[0] for w in b.vertices)
        via_polar = min_width(k, c).value
        assert abs(via_lp - via_polar) <= tol
        sweep = 2.0 * support_values(a, sweep_dirs) / support_values(b, sweep_dirs)
        # A sampled minimum can only overshoot the true infimum.
        assert float(sweep.min()) >= via_lp - 1e-9
    _passed("7 (inscription gauge LPs vs polar-vertex width, 100 instances "
            "+ 4096-direction sweep)")


# ---------------------------------------------------------------------------
# criterion 8: runtime budget


def test_criterion_8_runtime_budget():
    elapsed = time.perf_counter() - _MODULE_START
    assert elapsed < 60.0
    _passed(f"8 (acceptance suite runtime {elapsed:.1f}s < 60s)")
