"""Shared mesh fixtures.

Most tests work on small structured meshes where the expected topology can be
enumerated by hand.  ``grid_mesh`` builds a triangulated rectangle with a
caller-supplied tag function, which is enough to produce strips, T-junctions
and quadruple points.
"""

from __future__ import annotations

import math

import pytest

from grainflow.mesh import Mesh, build_mesh
from grainflow.entities import tag_nodes, reconstruct_entities


def grid_mesh(nx: int, ny: int, w: float = 1.0, h: float = 1.0,
              tag_fn=None) -> Mesh:
    """Right-triangle grid over [0, w] x [0, h] with per-cell surface tags.

    ``tag_fn(cx, cy)`` receives the element centroid; default is a single
    surface 0.
    """
    if tag_fn is None:
        tag_fn = lambda cx, cy: 0
    nodes = []
    for j in range(ny + 1):
        for i in range(nx + 1):
            nodes.append((j * (nx + 1) + i, w * i / nx, h * j / ny))
    pos = {nid: (x, y) for nid, x, y in nodes}
    elements = []
    eid = 0
    for j in range(ny):
        for i in range(nx):
            a = j * (nx + 1) + i
            b = a + 1
            c = a + (nx + 1)
            d = c + 1
            for tri in ((a, b, d), (a, d, c)):
                cx = sum(pos[n][0] for n in tri) / 3
                cy = sum(pos[n][1] for n in tri) / 3
                elements.append((eid, tri, tag_fn(cx, cy)))
                eid += 1
    return build_mesh(nodes, elements)


def equilateral_mesh(nx: int, ny: int, h: float):
    """Uniform equilateral triangulation of a parallelogram, edge length h.

    Row j is shifted by j*h/2 so every element is exactly equilateral; all
    four sides are straight lines, so only the four corners are corner nodes.
    """
    dy = h * math.sqrt(3) / 2
    nodes = []
    for j in range(ny + 1):
        for i in range(nx + 1):
            nodes.append((j * (nx + 1) + i, i * h + j * h / 2, j * dy))
    elements = []
    eid = 0
    for j in range(ny):
        for i in range(nx):
            a = j * (nx + 1) + i
            b = a + 1
            c = a + (nx + 1)
            d = c + 1
            elements.append((eid, (a, b, c), 0))
            eid += 1
            elements.append((eid, (b, d, c), 0))
            eid += 1
    return build_mesh(nodes, elements)


def reconstructed(mesh: Mesh):
    tag_nodes(mesh)
    graph = reconstruct_entities(mesh)
    return mesh, graph


@pytest.fixture
def strip_mesh():
    """Two grains split by the vertical interface x = 0.5."""
    return grid_mesh(8, 8, tag_fn=lambda cx, cy: 0 if cx < 0.5 else 1)


@pytest.fixture
def tjunction_mesh():
    """Three grains meeting at (0.5, 0.5)."""
    def tag(cx, cy):
        if cx < 0.5:
            return 0
        return 1 if cy > 0.5 else 2
    return grid_mesh(8, 8, tag_fn=tag)


@pytest.fixture
def quad_mesh():
    """Four grains meeting at (0.5, 0.5): a quadruple junction."""
    def tag(cx, cy):
        return (0 if cx < 0.5 else 1) + (0 if cy < 0.5 else 2)
    return grid_mesh(8, 8, tag_fn=tag)
