"""Exact identities and order relations of the four sizes, checked with no oracle.

Every body has R(K, K) = r(K, K) = 1 and D(K, K) = omega(K, K) = 2; a
d-simplex T has R(T, -T) = d and R(T, T - T) = d / (d + 1) D(T, T - T), the
equality case of Bohnenblust's bound (1938); and every pair has
2r <= omega <= D <= 2R.  The expected values are closed forms and the maps
are drawn here, so the checks share no numerics with the library, at sizes
where its gauges walk over many waves and cache hundreds of facet cones.
"""

import numpy as np
import pytest

from polyradii.convex_core import VPolytope, difference_hull
from polyradii.radii import circumradius, diameter, inradius, min_width
from test_cross_validation import qhull_facets, random_full_dim, rotated_segments

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
