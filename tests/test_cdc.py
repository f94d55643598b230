"""Unit tests for constraint families and instance handling."""

import json
import math
from fractions import Fraction

import pytest

from cdcbranch.cdc import (
    CdcError,
    CdcFamily,
    HRepPiece,
    VertexMap,
    annulus_instance,
    edge_set,
    from_vrep,
    grid_triangulation_fixture,
    instance_from_json,
    instance_to_json,
    sos2_family,
)

F = Fraction


def test_sos2_small():
    fam = sos2_family(2)
    assert fam.n == 3
    assert fam.sets == ((1, 2), (2, 3))


def test_sos2_sixteen_pieces():
    fam = sos2_family(16)
    assert fam.n == 17
    assert fam.d == 16
    assert all(T == (i, i + 1) for i, T in enumerate(fam.sets, start=1))


def test_sos2_single():
    assert sos2_family(1).sets == ((1, 2),)


def test_family_requires_cover():
    with pytest.raises(CdcError):
        CdcFamily(3, [(1, 2)])


def test_family_rejects_duplicates_and_empties():
    with pytest.raises(CdcError):
        CdcFamily(2, [(1, 2), (2, 1)])
    with pytest.raises(CdcError):
        CdcFamily(2, [(1, 2), ()])


def test_family_members():
    fam = sos2_family(3)
    assert fam.members(2) == (1, 2)
    assert fam.members(1) == (1,)
    # sets given unsorted and with repeats; a component outside 1..n is
    # held by no alternative
    fam = CdcFamily(6, [(3, 1, 3), (6, 2), (4, 5, 1), (2, 3, 4, 5, 6)])
    for v in range(0, fam.n + 2):
        assert fam.members(v) == tuple(i + 1 for i, T in enumerate(fam.sets) if v in T)
    assert fam.members(1) == (1, 3) and fam.members(0) == fam.members(7) == ()


def test_annulus_wrapped_first_set():
    fam, vm = annulus_instance(2, 3, 8)
    assert fam.n == 16
    assert fam.sets[0] == (1, 2, 15, 16)
    assert all(len(fam.members(v)) == 2 for v in range(1, 17))


def test_annulus_radii():
    fam, vm = annulus_instance(2, 3, 8)
    # coordinates are rationalized from rounded floats, so radii are only
    # accurate to float precision
    inner = vm[0]
    assert abs(float(inner[0] ** 2 + inner[1] ** 2) - 4.0) < 1e-12
    outer = vm[1]
    want = (3.0 / math.cos(2 * math.pi / 8)) ** 2
    assert abs(float(outer[0] ** 2 + outer[1] ** 2) - want) < 1e-12
    # the axis-aligned outer vertex carries the scaled radius exactly
    assert vm[15][0] == F(3.0 / math.cos(2 * math.pi / 8))


def test_annulus_rejects_float_radii():
    for s, S in ((1.5, 3), (1, 3.0)):
        with pytest.raises(TypeError):
            annulus_instance(s, S, 8)


def test_annulus_rejects_degenerate_piece_counts():
    for d in (3, 4):
        with pytest.raises(CdcError):
            annulus_instance(1, 2, d)


def test_grid_fixture_sets():
    fam, vm = grid_triangulation_fixture()
    assert fam.n == 9
    assert fam.d == 8
    assert fam.sets[0] == (1, 2, 4)
    assert set(fam.sets) == {
        (1, 2, 4),
        (5, 6, 8),
        (3, 5, 6),
        (4, 5, 7),
        (5, 7, 8),
        (2, 3, 5),
        (2, 4, 5),
        (6, 8, 9),
    }
    assert len(fam.members(5)) == 6
    assert list(vm) == [vec for vec in vm]
    assert vm[0] == (F(0), F(0)) and vm[8] == (F(2), F(2))


def test_from_vrep_intervals():
    fam, vm = from_vrep([[(0,), (1,)], [(1,), (2,)]])
    assert fam.n == 3
    assert fam.sets == ((1, 2), (2, 3))
    assert list(vm) == [(F(0),), (F(1),), (F(2),)]


def test_from_vrep_disjoint_pieces_disconnected():
    fam, _ = from_vrep([[(0,), (1,)], [(3,), (4,)]])
    edges, connected = edge_set(fam)
    assert edges == []
    assert not connected


def test_from_vrep_round_trips_annulus():
    # identity holds up to the relabeling induced by first appearance
    fam, vm = annulus_instance(1, 2, 8)
    pieces = [[vm[v - 1] for v in T] for T in fam.sets]
    fam2, vm2 = from_vrep(pieces)
    assert sorted(vm2) == sorted(vm)
    relabel = {i + 1: list(vm).index(p) + 1 for i, p in enumerate(vm2)}
    relabeled = [tuple(sorted(relabel[v] for v in T)) for T in fam2.sets]
    assert relabeled == list(fam.sets)


def test_edge_set_path():
    edges, connected = edge_set(sos2_family(4))
    assert edges == [(1, 2), (2, 3), (3, 4)]
    assert connected


def test_edge_set_cycle():
    fam, _ = annulus_instance(1, 2, 8)
    edges, connected = edge_set(fam)
    assert connected
    assert len(edges) == 8
    assert (1, 8) in edges
    assert all((i, i + 1) in edges for i in range(1, 8))


def test_instance_json_round_trip():
    fam, vm = grid_triangulation_fixture()
    vm = VertexMap([(x + F(1, 3), y) for x, y in vm])
    obj = instance_to_json(fam, vm)
    fam2, vm2 = instance_from_json(obj)
    assert fam2 == fam
    assert list(vm2) == list(vm)

    fam3, vm3 = instance_from_json(json.loads(json.dumps(obj)))
    assert fam3 == fam
    assert list(vm3) == list(vm)


def test_vertex_map_rejects_ragged():
    with pytest.raises(CdcError):
        VertexMap([(0, 0), (1,)])


def test_hrep_piece_shapes():
    p = HRepPiece([(1, 0), (0, 1)], (1, 1))
    assert p.m == 2
    with pytest.raises(CdcError):
        HRepPiece([(1, 0)], (1, 2))
