"""Reference values computed apart from polyradii.

Nothing here imports polyradii.  Facets come from Qhull
(scipy.spatial.ConvexHull) and containment programs are solved by
scipy.optimize.linprog, as in tests/test_cross_validation.py; planar
reference bodies are rebuilt from their geometric definitions.
Containment in an H-polytope is one support condition per facet, so these
oracles are exact up to floating point in every dimension.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

SQRT3 = math.sqrt(3.0)

# Square (half-side sqrt 3) measured in the triangle gauge (circumradius 2),
# and the width-2*sqrt(3) Reuleaux triangle C against K = -C.  For the
# Reuleaux pair the inscribed polygons hit these values exactly at every n,
# because the extreme contacts sit at the three exact corners.
SQUARE_TRIANGLE = {
    "R": 1.0 + 2.0 / SQRT3,
    "r": 1.0,
    "D": (2.0 / 3.0) * (3.0 + SQRT3),
    "omega": 2.0,
    "a4": 2.0 + 4.0 / SQRT3,
    "a5": 3.0 + SQRT3,
}
REULEAUX = {"R": (3.0 + SQRT3) / 2.0, "r": SQRT3, "D": 2.0, "omega": 2.0,
            "a2": 2.0, "a3": 2.0}

TRIANGLE = np.array([[2.0, 0.0], [-1.0, SQRT3], [-1.0, -SQRT3]])
SQUARE = np.array([[-SQRT3, -SQRT3], [-SQRT3, SQRT3], [SQRT3, -SQRT3], [SQRT3, SQRT3]])


def reuleaux_points(n: int) -> np.ndarray:
    """n+1 points on each arc of the Reuleaux triangle over TRIANGLE.

    Each arc is centred at one corner and joins the other two; the arc ends
    are the exact corners.
    """
    arcs = []
    for i, centre in enumerate(TRIANGLE):
        ends = np.delete(TRIANGLE, i, axis=0) - centre
        angles = np.arctan2(ends[:, 1], ends[:, 0])
        lo, hi = sorted(angles)
        if hi - lo > math.pi:  # the arc spans 60 degrees, not 300
            lo, hi = hi, lo + 2.0 * math.pi
        theta = np.linspace(lo, hi, n + 1)
        pts = centre + 2.0 * SQRT3 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        pts[0] = TRIANGLE[np.argmin(np.linalg.norm(TRIANGLE - pts[0], axis=1))]
        pts[-1] = TRIANGLE[np.argmin(np.linalg.norm(TRIANGLE - pts[-1], axis=1))]
        arcs.append(pts)
    return np.vstack(arcs)


def round9(points: np.ndarray) -> np.ndarray:
    """The 9-significant-digit rounding of the CLI's JSON output."""
    return np.vectorize(lambda v: float(f"{v:.9g}"))(points)


def facets(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outward unit normals and offsets with normal @ x <= offset."""
    hull = ConvexHull(points)
    return hull.equations[:, :-1], -hull.equations[:, -1]


def axis_slack(points: np.ndarray) -> float:
    """Largest rho with every +-rho*e_k inside the hull (negative if the
    origin is not interior)."""
    normals, offsets = facets(points)
    if offsets.min() <= 0.0:
        return -1.0
    return float(np.min(offsets / np.abs(normals).max(axis=1)))


def draw_body(rng: np.random.Generator, dim: int, count: int,
              min_slack: float = 0.2) -> np.ndarray:
    """Gaussian vertices whose centred hull has axis slack >= min_slack."""
    while True:
        verts = rng.normal(scale=2.0, size=(count, dim))
        if axis_slack(verts - verts.mean(axis=0)) >= min_slack:
            return verts


def draw_rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A uniformly random rotation (Haar measure on SO(dim))."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def differences(points: np.ndarray) -> np.ndarray:
    p = np.asarray(points)
    return (p[:, None, :] - p[None, :, :]).reshape(-1, p.shape[1])


def _support(points: np.ndarray, normals: np.ndarray) -> np.ndarray:
    return (normals @ np.asarray(points).T).max(axis=1)


def circumradius(k: np.ndarray, c: np.ndarray) -> float:
    """min lambda with normals @ x + offsets * lambda >= h_K(normals)."""
    normals, offsets = facets(c)
    d = k.shape[1]
    cost = np.zeros(d + 1)
    cost[d] = 1.0
    res = linprog(cost, A_ub=np.hstack([-normals, -offsets[:, None]]),
                  b_ub=-_support(k, normals), bounds=[(None, None)] * d + [(0, None)])
    if res.status != 0:
        raise RuntimeError(f"oracle circumradius LP: {res.message}")
    return float(res.fun)


def inradius(k: np.ndarray, c: np.ndarray) -> float:
    """max lambda with normals @ x + h_C(normals) * lambda <= offsets."""
    normals, offsets = facets(k)
    d = k.shape[1]
    cost = np.zeros(d + 1)
    cost[d] = -1.0
    res = linprog(cost, A_ub=np.hstack([normals, _support(c, normals)[:, None]]),
                  b_ub=offsets, bounds=[(None, None)] * d + [(0, None)])
    if res.status != 0:
        raise RuntimeError(f"oracle inradius LP: {res.message}")
    return float(-res.fun)


def diameter(k: np.ndarray, c: np.ndarray) -> float:
    """Largest gauge of a vertex difference of K in (C-C)/2."""
    normals, offsets = facets(0.5 * differences(c))
    gammas = (differences(k) @ normals.T) / offsets
    return float(np.maximum(gammas.max(axis=1), 0.0).max())


def min_width(k: np.ndarray, c: np.ndarray) -> float:
    """2 min over facet normals u of K-K of h_{K-K}(u) / h_{C-C}(u)."""
    normals, offsets = facets(differences(k))
    return float(np.min(2.0 * offsets / _support(differences(c), normals)))


def pair_values(k: np.ndarray, c: np.ndarray) -> dict:
    """R, r, D, omega of (K, C) and the chain members a2, a3, a4."""
    diff_k = differences(k)
    return {
        "R": circumradius(k, c),
        "r": inradius(k, c),
        "D": diameter(k, c),
        "omega": min_width(k, c),
        "a2": diameter(k, c),
        "a3": circumradius(diff_k, 0.5 * differences(c)),
        "a4": circumradius(diff_k, c),
    }
