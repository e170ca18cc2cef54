"""Minimum width: the thinnest relative slab, and when it detaches from
the difference-body inradius.

For centered gauges the minimum width equals the inradius of the difference
body.  The Reuleaux triangle against its own reflection breaks that tie:
K-K is (a polygonal approximation of) a disc of radius 2 sqrt(3), the width
is exactly 2, but the largest inscribed homothet of the non-centered gauge
only reaches sqrt(3).
"""

import math

import numpy as np

from polyradii import (
    BodySpec,
    difference_hull,
    inradius,
    make_body,
    min_width,
    support,
    transform,
)

triangle = make_body(BodySpec("equilateral_triangle"))
square = make_body(BodySpec("centered_square"))

res = min_width(square, triangle)
print(f"omega(square, triangle) = {res.value:.9f}")
print(f"thin direction (facet normal of K-K): {res.direction}")

# The width is the support ratio 2 h_{K-K}(u) / h_{C-C}(u) at that direction.
u = res.direction
ratio = (2.0 * support(difference_hull(square), u).value
         / support(difference_hull(triangle), u).value)
print(f"support ratio at that direction: {ratio:.9f}")

# A degenerate body has zero width in the direction it is flat.
segment = make_body(BodySpec("segment", dim=2, scale=3.0))
flat = min_width(segment, triangle)
print(f"omega(segment, triangle) = {flat.value} along {flat.direction}")

# Reuleaux pair: width 2 but difference-body inradius sqrt(3).
gauge_body = make_body(BodySpec("reuleaux_triangle", n=96))
body = transform(gauge_body, 1.0, [0.0, 0.0], reflect=True)
diff = difference_hull(body)
omega = min_width(body, gauge_body).value
r_diff = inradius(diff, gauge_body).value
print(f"\nReuleaux pair (n=96): omega = {omega:.7f}, r(K-K, C) = {r_diff:.7f}")
print(f"sqrt(3) = {math.sqrt(3):.7f}; the two quantities differ for this"
      " non-centered gauge")

# K-K is (nearly) the disc of radius 2 sqrt(3).
for angle in np.linspace(0.0, np.pi, 5):
    u = np.array([np.cos(angle), np.sin(angle)])
    print(f"  support of K-K at angle {angle:.2f}: {support(diff, u).value:.6f}")
