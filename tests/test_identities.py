"""Exact identities and order relations of the four sizes, checked with no oracle.

Every body has R(K, K) = r(K, K) = 1 and D(K, K) = omega(K, K) = 2; a
d-simplex T has R(T, -T) = d and R(T, T - T) = d / (d + 1) D(T, T - T), the
equality case of Bohnenblust's bound (1938); and every pair has
2r <= omega <= D <= 2R.  The expected values are closed forms and the maps
are drawn here, so the checks share no numerics with the library, at sizes
where its gauges walk over many waves and cache hundreds of facet cones.
At two such sizes D, omega and R also meet closed forms on Qhull's facets.
"""

import numpy as np
import pytest

from polyradii.convex_core import VPolytope, difference_hull
from polyradii.radii import _tie_floor, circumradius, diameter, inradius, min_width
from test_cross_validation import (
    oracle_circumradius,
    pairwise_differences,
    qhull_facets,
    random_full_dim,
    rotated_segments,
)

# Vertices of the random body per dimension, and a common scaling of it
# near 1e8 or 1e-8 that is not a power of two.
SIZES = {2: (400, 1.37e8), 3: (60, 3.1e-9), 4: (50, 1.37e8), 6: (30, 3.1e-9), 8: (24, 1.37e8)}


def affine_map(rng, dim, extent):
    """A random linear map of condition at most 1e3 and an offset of up to
    1e3 times ``extent``."""
    while np.linalg.cond(linear := rng.normal(size=(dim, dim))) > 1e3:
        pass
    return linear, rng.uniform(-1e3, 1e3, size=dim) * extent


def mapped_bodies(dim):
    """The affine image of a random body, and that image scaled."""
    size, scale = SIZES[dim]
    rng = np.random.default_rng(60 + dim)
    body = rng.normal(size=(size, dim))
    linear, offset = affine_map(rng, dim, np.ptp(body, axis=0).max())
    image = body @ linear.T + offset
    return [image, image * scale]


@pytest.mark.parametrize("dim", sorted(SIZES))
def test_a_body_against_itself_has_radii_one_and_diameter_and_width_two(dim):
    for vertices in mapped_bodies(dim):
        k, c = VPolytope(vertices), VPolytope(vertices.copy())
        assert circumradius(k, c).value == pytest.approx(1.0, rel=1e-12)
        assert inradius(k, c).value == pytest.approx(1.0, rel=1e-12)
        assert diameter(k, c).value == pytest.approx(2.0, rel=1e-12)
        assert min_width(k, c).value == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_simplices_meet_their_closed_forms(dim):
    # R(T, -T) = d for every simplex, and C = T - T is centred, where
    # Bohnenblust's bound R <= d / (d + 1) D is attained by T.
    rng = np.random.default_rng(80 + dim)
    linear, offset = affine_map(rng, dim, 1.0)
    t = np.vstack([np.zeros(dim), np.eye(dim)]) @ linear.T + offset
    simplex = VPolytope(t)
    assert circumradius(simplex, VPolytope(-t)).value == pytest.approx(dim, rel=1e-12)
    difference = VPolytope(difference_hull(simplex).vertices)
    ratio = circumradius(simplex, difference).value / diameter(simplex, difference).value
    assert ratio == pytest.approx(dim / (dim + 1), rel=1e-12)


def fuzz_pairs():
    """The pairs of the scipy cross-validation: random full-dimensional
    bodies in 2-D to 4-D and segments in a random planar body."""
    for dim in (2, 3, 4):
        rng = np.random.default_rng(40 + dim)
        for _ in range(12):
            yield random_full_dim(rng, dim), random_full_dim(rng, dim)
    for _, k, c in rotated_segments(first=0, stop=60):
        yield k, c


def test_every_pair_orders_its_sizes():
    # r(C - C) fits in K - K, so 2r <= omega; omega <= D <= 2R by the
    # support-ratio and containment representations of width and diameter.
    # R's centre x holds K in x + R C on every Qhull facet a.y <= b of C:
    # max_v a.(v - x) <= R b, so the gauge of C about x is at most R there.
    tol = 1e-9
    for k, c in fuzz_pairs():
        big_r, r = circumradius(k, c), inradius(k, c).value
        d, omega = diameter(k, c).value, min_width(k, c).value
        scale = tol * max(1.0, big_r.value)
        assert 2.0 * r <= omega + scale and omega <= d + scale and d <= 2.0 * big_r.value + scale
        normals, offsets = qhull_facets(c.vertices)
        reach = (normals @ (k.vertices - big_r.center).T).max(axis=1)
        assert (reach <= big_r.value * offsets + scale * np.abs(offsets)).all()


def facet_gauges(points, normals, offsets):
    """max_f a_f.w / b_f of each row w, over the Qhull facets a.y <= b."""
    return np.concatenate([(block @ normals.T / offsets).max(axis=1)
                           for block in np.array_split(points, -(-len(points) // 500))])


@pytest.mark.parametrize("dim, size", [(3, 60), (4, 50)])
def test_sizes_at_scale_meet_qhull_closed_forms(dim, size):
    # Qhull's facets give three sizes with no LP of the library: D is the
    # largest facet gauge of (C-C)/2 over K's vertex pairs, omega is 2 / the
    # largest facet gauge of K-K over the vertices of C-C, and R is linprog
    # on C's facets in d + 1 variables.  At these sizes the library's
    # gauges walk in hundreds of waves, its evaluators cache hundreds of
    # facet cones seeded by an LP basis, and its masters start from them.
    rng = np.random.default_rng(3)
    k, c = rng.normal(size=(size, dim)), rng.normal(size=(size, dim))
    body, gauge_body = VPolytope(k), VPolytope(c - c.mean(axis=0))
    half = qhull_facets(0.5 * pairwise_differences(gauge_body.vertices))
    rows, later = np.triu_indices(size, 1)
    top = facet_gauges(k[later] - k[rows], *half).max()
    d = diameter(body, gauge_body)
    assert d.value == pytest.approx(top, rel=1e-9)
    i, j = d.pair
    assert facet_gauges(k[j] - k[i:i + 1], *half)[0] >= _tie_floor(top)
    differences = qhull_facets(pairwise_differences(k))
    width = 2.0 / facet_gauges(pairwise_differences(gauge_body.vertices), *differences).max()
    assert min_width(body, gauge_body).value == pytest.approx(width, rel=1e-9)
    assert circumradius(body, gauge_body).value == pytest.approx(
        oracle_circumradius(body, gauge_body), rel=1e-9)
