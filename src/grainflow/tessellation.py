"""Initial microstructure generation.

Seeds are thrown as darts with a log-normal radius distribution and a
minimum-separation rule, then expanded into a Laguerre diagram by clipping
the domain rectangle against the power bisectors of nearby seeds.  Each
convex cell is discretized on its own: the boundary polygon is subdivided to
the target spacing and the interior filled with a hexagonal lattice kept
clear of the boundary, triangulated cell by cell, and stitched into a single
mesh through a shared-vertex registry.  The stitch is exact because both
sides of an edge generate their points from the same snapped endpoints in
the same canonical direction.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .mesh import MIN_AREA, Mesh, build_mesh

MEDIAN_RADIUS = 0.017    # mm
RADIUS_STD = 0.006       # mm, of the distribution itself
MIN_RADIUS = 0.011       # mm
MAX_RADIUS = 0.04        # mm
SEPARATION_FRAC = 0.7    # of the radius sum, between any two seeds
TRIES_PER_SEED = 200     # darts thrown per requested seed before giving up

# Vertex coordinate quantum for stitching.  Coarse enough that the same
# geometric vertex computed through different clip sequences cannot land in
# two bins, fine enough to leave the h-scale geometry untouched.
SNAP = 1e-6

# Outward bow applied to subdivided edges before triangulation.  Collinear
# point runs on a straight edge make qhull merge hull facets and emit
# zero-area simplices; a strictly convex lift keeps every subdivision point
# a hull vertex.  Triangulation input only, emitted coordinates stay snapped.
LIFT_EPS = 1e-9


def lognormal_sigma() -> float:
    """Log-space sigma reproducing the real-space spread ``RADIUS_STD``
    about ``MEDIAN_RADIUS``."""
    q = (RADIUS_STD / MEDIAN_RADIUS) ** 2
    u = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * q))
    return float(np.sqrt(np.log(u)))


def sample_radii(rng: np.random.Generator, n: int) -> np.ndarray:
    r = rng.lognormal(mean=np.log(MEDIAN_RADIUS),
                      sigma=lognormal_sigma(), size=n)
    return np.clip(r, MIN_RADIUS, MAX_RADIUS)


def throw_seeds(rng: np.random.Generator, width: float, height: float,
                count: int):
    """Place up to ``count`` seeds honoring the separation rule.

    Returns (centers, radii); fewer seeds come back when the domain jams
    before the request is met.
    """
    centers = np.empty((count, 2))
    radii = np.empty(count)
    n = 0
    for _ in range(TRIES_PER_SEED * count):
        if n == count:
            break
        r = sample_radii(rng, 1)[0]
        c = rng.uniform(0.0, 1.0, 2) * (width, height)
        if n:
            d = np.hypot(*(centers[:n] - c).T)
            if (d < SEPARATION_FRAC * (radii[:n] + r)).any():
                continue
        centers[n] = c
        radii[n] = r
        n += 1
    return centers[:n].copy(), radii[:n].copy()


def _clip_halfplane(poly: np.ndarray, normal: np.ndarray,
                    offset: float) -> np.ndarray:
    """Keep the part of a convex polygon with normal . x <= offset."""
    if len(poly) == 0:
        return poly
    side = poly @ normal - offset
    out = []
    for i in range(len(poly)):
        j = (i + 1) % len(poly)
        if side[i] <= 0.0:
            out.append(poly[i])
        if (side[i] <= 0.0) != (side[j] <= 0.0):
            t = side[i] / (side[i] - side[j])
            out.append(poly[i] + t * (poly[j] - poly[i]))
    return np.asarray(out).reshape(-1, 2)


def laguerre_cells(centers: np.ndarray, radii: np.ndarray, width: float,
                   height: float) -> list[np.ndarray]:
    """Power cell of every seed, clipped to the domain rectangle.

    Only seeds within a bounded reach can contribute a face, so each cell
    clips against its spatial neighborhood instead of every other seed.
    """
    tree = cKDTree(centers)
    reach = 6.0 * MAX_RADIUS
    box = np.array([[0.0, 0.0], [width, 0.0], [width, height], [0.0, height]])
    cells: list[np.ndarray] = []
    for i, ci in enumerate(centers):
        poly = box
        for j in tree.query_ball_point(ci, reach):
            if j == i:
                continue
            cj = centers[j]
            n = 2.0 * (cj - ci)
            off = float(cj @ cj - ci @ ci - radii[j] ** 2 + radii[i] ** 2)
            poly = _clip_halfplane(poly, n, off)
            if len(poly) < 3:
                poly = poly[:0]
                break
        cells.append(poly)
    return cells


def polygon_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _snap_key(p) -> tuple[int, int]:
    return (int(round(p[0] / SNAP)), int(round(p[1] / SNAP)))


def _snap_pos(key: tuple[int, int]) -> tuple[float, float]:
    return (key[0] * SNAP, key[1] * SNAP)


def _edge_points(a_key, b_key, h: float) -> list[tuple[int, int]]:
    """Subdivision keys along one polygon edge, endpoints excluded.

    Both cells sharing the edge call this with the same canonical endpoint
    order, so the generated coordinates agree exactly.
    """
    flip = a_key > b_key
    lo, hi = (b_key, a_key) if flip else (a_key, b_key)
    pa = np.array(_snap_pos(lo))
    pb = np.array(_snap_pos(hi))
    length = float(np.hypot(*(pb - pa)))
    k = max(1, int(round(length / h)))
    keys = [_snap_key(pa + (pb - pa) * (t / k)) for t in range(1, k)]
    return keys[::-1] if flip else keys


def _hex_interior(poly: np.ndarray, h: float, clearance: float) -> np.ndarray:
    """Hexagonal lattice points inside the polygon, clear of its boundary."""
    lo = poly.min(axis=0)
    hi = poly.max(axis=0)
    dy = h * np.sqrt(3.0) / 2.0
    rows = []
    y = lo[1] + clearance
    row = 0
    while y < hi[1] - clearance + 1e-15:
        x0 = lo[0] + clearance + (0.5 * h if row % 2 else 0.0)
        xs = np.arange(x0, hi[0] - clearance + 1e-15, h)
        if len(xs):
            rows.append(np.column_stack([xs, np.full(len(xs), y)]))
        y += dy
        row += 1
    if not rows:
        return np.empty((0, 2))
    pts = np.vstack(rows)
    # signed distance to each edge of the counterclockwise polygon; interior
    # points are left of every edge by at least the clearance
    keep = np.ones(len(pts), dtype=bool)
    for i in range(len(poly)):
        a = poly[i]
        b = poly[(i + 1) % len(poly)]
        e = b - a
        ln = np.hypot(e[0], e[1])
        if ln == 0.0:
            continue
        d = ((pts[:, 0] - a[0]) * e[1] - (pts[:, 1] - a[1]) * e[0]) / ln
        keep &= d <= -clearance
    return pts[keep]


def _inside_ring(poly: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Even-odd test of points against a closed polygon, vectorized."""
    ax = poly[:, 0][None, :]
    ay = poly[:, 1][None, :]
    bx = np.roll(poly[:, 0], -1)[None, :]
    by = np.roll(poly[:, 1], -1)[None, :]
    x = pts[:, 0][:, None]
    y = pts[:, 1][:, None]
    straddle = (ay > y) != (by > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = ax + (y - ay) * (bx - ax) / (by - ay)
    hits = straddle & (x < xi)
    return hits.sum(axis=1) % 2 == 1


def discretize(cells: list[np.ndarray], h: float) -> Mesh:
    """Triangulate every cell and stitch the results into one mesh."""
    registry: dict[tuple[int, int], int] = {}
    nodes: list[tuple[int, float, float]] = []
    elements: list[tuple[int, tuple[int, int, int], int]] = []

    def node_of(key) -> int:
        nid = registry.get(key)
        if nid is None:
            nid = len(nodes)
            registry[key] = nid
            nodes.append((nid, *_snap_pos(key)))
        return nid

    for tag, poly in enumerate(cells):
        if polygon_area(poly) <= 0.0:
            continue
        verts = [_snap_key(p) for p in poly]
        verts = [k for i, k in enumerate(verts)
                 if k != verts[(i + 1) % len(verts)]]
        if len(verts) < 3:
            continue
        ring: list[tuple[int, int]] = []
        lifted: list[tuple[float, float]] = []
        for i, a in enumerate(verts):
            b = verts[(i + 1) % len(verts)]
            pa = _snap_pos(a)
            pb = _snap_pos(b)
            ring.append(a)
            lifted.append(pa)
            mids = _edge_points(a, b, h)
            if mids:
                k = len(mids) + 1
                ln = np.hypot(pb[0] - pa[0], pb[1] - pa[1])
                # ring is counterclockwise, so outward is right of a -> b
                ox = (pb[1] - pa[1]) / ln
                oy = (pa[0] - pb[0]) / ln
                for j, key in enumerate(mids, start=1):
                    p = _snap_pos(key)
                    w = LIFT_EPS * j * (k - j)
                    lifted.append((p[0] + ox * w, p[1] + oy * w))
                ring.extend(mids)
        ring_ids = [node_of(k) for k in ring]
        ring_pos = np.array([_snap_pos(k) for k in ring])
        inner = _hex_interior(ring_pos, h, clearance=0.5 * h)
        inner_ids = []
        for p in inner:
            nid = len(nodes)
            nodes.append((nid, float(p[0]), float(p[1])))
            inner_ids.append(nid)
        lifted_arr = np.array(lifted)
        pts = np.vstack([lifted_arr, inner]) if len(inner) else lifted_arr
        real = np.vstack([ring_pos, inner]) if len(inner) else ring_pos
        ids = ring_ids + inner_ids
        tris = Delaunay(pts).simplices
        p = real[tris]
        area = 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                      - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))
        # Snapping can kink a shared edge inward; hull triangles over such a
        # dent belong to the neighbouring cell, so keep only simplices whose
        # centroid falls inside this cell's own ring.
        keep = np.abs(area) > MIN_AREA
        keep &= _inside_ring(ring_pos, p.mean(axis=1))
        for tri in tris[keep]:
            elements.append((len(elements),
                             (ids[tri[0]], ids[tri[1]], ids[tri[2]]), tag))
    return build_mesh(nodes, elements)


def tessellate(rng: np.random.Generator, width: float, height: float,
               count: int, h: float):
    """Generate seeds, cells and the stitched starting mesh."""
    centers, radii = throw_seeds(rng, width, height, count)
    cells = laguerre_cells(centers, radii, width, height)
    return discretize(cells, h), centers, radii

