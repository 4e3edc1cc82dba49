"""Dual-graph partitioner: balance, coverage, determinism, and the slices
the bootstrap hands each worker."""

import numpy as np
import pytest

from grainflow.mesh import NULL_ID, LNODE, build_mesh
from grainflow.partitioning import (
    initial_partition, load_partition, save_partition,
)

from .conftest import grid_mesh
from .helpers import bootstrapped


def coverage(mesh, parts):
    alive = mesh.alive_elems()
    assigned = np.flatnonzero(parts != NULL_ID)
    assert np.array_equal(alive, assigned)
    return np.bincount(parts[alive])


def test_single_part_takes_everything():
    mesh = grid_mesh(5, 5)
    parts = initial_partition(mesh, 1)
    sizes = coverage(mesh, parts)
    assert sizes.tolist() == [mesh.n_elems()]
    # the only worker keeps the mesh it built rather than a second copy
    (state,), built = bootstrapped(lambda: grid_mesh(5, 5), 1)
    assert state.mesh is built


def test_two_triangles_two_parts():
    mesh = build_mesh([(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 1.0, 1.0), (3, 0.0, 1.0)],
                      [(0, (0, 1, 2), 7), (1, (0, 2, 3), 7)])
    parts = initial_partition(mesh, 2)
    assert sorted(parts[mesh.alive_elems()].tolist()) == [0, 1]


def test_hundred_elements_four_parts_balanced():
    mesh = grid_mesh(10, 5)   # 10 x 5 quads, 100 triangles
    assert mesh.n_elems() == 100
    parts = initial_partition(mesh, 4)
    sizes = coverage(mesh, parts)
    assert len(sizes) == 4
    assert all(abs(s - 25) <= 2 for s in sizes)


def test_balance_within_tolerance_odd_split():
    mesh = grid_mesh(19, 10)  # 380 triangles over 3 parts
    parts = initial_partition(mesh, 3)
    sizes = coverage(mesh, parts)
    mean = sizes.mean()
    assert sizes.max() - sizes.min() <= max(1, round(0.05 * mean))


def test_deterministic():
    mesh = grid_mesh(10, 5)
    a = initial_partition(mesh, 4)
    b = initial_partition(mesh, 4)
    assert np.array_equal(a, b)


def test_too_many_parts_rejected():
    mesh = grid_mesh(3, 3)
    with pytest.raises(ValueError):
        initial_partition(mesh, mesh.n_elems() + 1)


def test_restriction_covers_exactly_once():
    states, mesh = bootstrapped(
        lambda: grid_mesh(9, 9, tag_fn=lambda cx, cy: int(cx > 0.5)), 3)
    seen = []
    for state in states:
        sub = state.mesh
        eids = sub.alive_elems()
        seen.extend(int(e) for e in eids)
        for e in eids:
            e = int(e)
            assert np.array_equal(sub.tri[e], mesh.tri[e])
            assert sub.surf[e] == mesh.surf[e]
        for n in sub.alive_nodes():
            n = int(n)
            assert np.array_equal(sub.pos[n], mesh.pos[n])
            assert sub.bnd[n] == mesh.bnd[n]
            assert sub.topo[n] == mesh.topo[n]
            assert sub.entity[n] == mesh.entity[n]
    assert sorted(seen) == [int(e) for e in mesh.alive_elems()]


def test_restriction_prunes_chain_links(strip_mesh):
    states, mesh = bootstrapped(lambda: strip_mesh, 2)
    for state in states:
        sub = state.mesh
        for n in sub.alive_nodes():
            n = int(n)
            if sub.topo[n] != LNODE:
                continue
            for attr in ("prv", "nxt"):
                full = int(getattr(mesh, attr)[n])
                local = int(getattr(sub, attr)[n])
                if full != NULL_ID and sub.alive_node(full):
                    assert local == full
                else:
                    assert local == NULL_ID


def test_partition_file_roundtrip(tmp_path):
    mesh = grid_mesh(6, 6)
    parts = initial_partition(mesh, 2)
    path = tmp_path / "parts.txt"
    save_partition(path, parts)
    back = load_partition(path, mesh, 2)
    assert np.array_equal(parts, back)
