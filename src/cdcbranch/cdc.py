"""Combinatorial disjunctive constraints and concrete instance families.

A constraint is a family of index sets over components 1..n; the feasible
region is the union of the faces of the unit simplex supported on each
set.  Instances may carry a vertex map sending each component to a point.
A union of polyhedra given by H-representation pieces is the input of the
big-M formulation instead.
"""

import math
from fractions import Fraction

from .numerics import format_rational, rat, vec


class CdcError(Exception):
    pass


class CdcFamily:
    """Index sets T^1..T^d over ground set 1..n, whose union covers it."""

    def __init__(self, n, sets):
        self.n = int(n)
        if self.n < 1:
            raise CdcError("n must be positive")
        norm = []
        for T in sets:
            T = tuple(sorted(set(int(v) for v in T)))
            if not T:
                raise CdcError("empty alternative")
            if T[0] < 1 or T[-1] > self.n:
                raise CdcError("alternative indices out of range")
            norm.append(T)
        if not norm:
            raise CdcError("no alternatives")
        if len(set(norm)) != len(norm):
            raise CdcError("duplicate alternatives")
        covered = set()
        for T in norm:
            covered.update(T)
        if covered != set(range(1, self.n + 1)):
            raise CdcError("alternatives must cover every component")
        self.sets = tuple(norm)
        table = {}
        for i, T in enumerate(norm, 1):
            for v in T:
                table.setdefault(v, []).append(i)
        self._members = {v: tuple(held) for v, held in table.items()}

    @property
    def d(self):
        return len(self.sets)

    def members(self, v):
        """Indices (1-based) of alternatives containing component v, in
        order: read off the table made with one pass over the sets."""
        return self._members.get(v, ())

    def __eq__(self, other):
        return (
            isinstance(other, CdcFamily)
            and self.n == other.n
            and self.sets == other.sets
        )


class VertexMap:
    """Points v^1..v^n giving the geometric meaning of each component."""

    def __init__(self, vertices):
        self.vertices = tuple(vec(p) for p in vertices)
        if not self.vertices:
            raise CdcError("empty vertex map")
        self.m = len(self.vertices[0])
        if any(len(p) != self.m for p in self.vertices):
            raise CdcError("vertices have mixed dimensions")

    def __len__(self):
        return len(self.vertices)

    def __getitem__(self, i):
        return self.vertices[i]

    def __iter__(self):
        return iter(self.vertices)


class HRepPiece:
    """One polyhedron {x : A x <= b}."""

    def __init__(self, A, b):
        self.A = tuple(vec(row) for row in A)
        self.b = vec(b)
        if len(self.A) != len(self.b):
            raise CdcError("A and b disagree on row count")
        if self.A:
            self.m = len(self.A[0])
            if any(len(row) != self.m for row in self.A):
                raise CdcError("ragged A")
        else:
            self.m = 0


def sos2_family(d):
    """Consecutive-pair sets {i, i+1} over n = d + 1 components."""
    if d < 1:
        raise CdcError("d must be positive")
    return CdcFamily(d + 1, [(i, i + 1) for i in range(1, d + 1)])


def annulus_family(d):
    """The sets of the d-piece annulus cover over n = 2d components.

    Components 2i-1 and 2i are the inner and outer vertex at angle i;
    piece i holds those at angles i-1 and i (wrapping).  Requires d > 4.
    """
    if d <= 4:
        raise CdcError("d must exceed 4")
    n = 2 * d
    sets = [tuple(j % n + 1 for j in range(2 * i - 4, 2 * i)) for i in range(1, d + 1)]
    return CdcFamily(n, sets)


def annulus_instance(s, S, d):
    """Quadrilateral pieces covering the annulus of radii s <= S, d pieces.

    Inner vertices sit on the radius-s circle; outer ones on the circle
    scaled so each quadrilateral covers its sector.  Coordinates are
    computed in double precision and converted exactly to rationals.
    Requires d > 4 so the outer scaling stays positive and finite.
    """
    family = annulus_family(d)
    s, S = rat(s), rat(S)
    if not 0 < s <= S:
        raise CdcError("radii must satisfy 0 < s <= S")
    outer = float(S) / math.cos(2 * math.pi / d)
    verts = []
    for i in range(1, d + 1):
        ang = 2 * math.pi * i / d
        c, sn = math.cos(ang), math.sin(ang)
        verts.append((Fraction(float(s) * c), Fraction(float(s) * sn)))
        verts.append((Fraction(outer * c), Fraction(outer * sn)))
    return family, VertexMap(verts)


def grid_triangulation_fixture():
    """Eight triangles tiling the 3x3 integer grid, row-major node order."""
    sets = [
        (1, 2, 4),
        (5, 6, 8),
        (3, 5, 6),
        (4, 5, 7),
        (5, 7, 8),
        (2, 3, 5),
        (2, 4, 5),
        (6, 8, 9),
    ]
    verts = [(x, y) for y in range(3) for x in range(3)]
    return CdcFamily(9, sets), VertexMap(verts)


def from_vrep(pieces):
    """Build (family, vertex map) from per-piece vertex lists.

    Shared vertices are identified by exact coordinate equality and
    numbered in order of first appearance.
    """
    if not pieces:
        raise CdcError("no pieces")
    index = {}
    order = []
    sets = []
    for piece in pieces:
        if not piece:
            raise CdcError("a piece has no vertices")
        T = []
        for p in piece:
            p = vec(p)
            if p not in index:
                index[p] = len(order) + 1
                order.append(p)
            T.append(index[p])
        sets.append(tuple(sorted(set(T))))
    return CdcFamily(len(order), sets), VertexMap(order)


def edge_set(family):
    """Pairs of alternatives sharing a component, plus connectivity.

    Returns (edges, connected) with edges as 1-based (i, j), i < j.
    """
    d = family.d
    edges = []
    parent = list(range(d))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    sets = [set(T) for T in family.sets]
    for i in range(d):
        for j in range(i + 1, d):
            if sets[i] & sets[j]:
                edges.append((i + 1, j + 1))
                parent[find(i)] = find(j)
    connected = len({find(i) for i in range(d)}) == 1
    return edges, connected


def instance_to_json(family, vertex_map=None):
    """Serialize an instance; rationals become 'p/q' strings."""
    obj = {"n": family.n, "sets": [list(T) for T in family.sets]}
    if vertex_map is not None:
        obj["vertices"] = [
            [format_rational(x) for x in p] for p in vertex_map.vertices
        ]
    return obj


def instance_from_json(obj):
    """Inverse of instance_to_json; returns (family, vertex_map)."""
    family = CdcFamily(obj["n"], [tuple(T) for T in obj["sets"]])
    vertex_map = None
    if "vertices" in obj:
        vertex_map = VertexMap(
            [[rat(x) for x in p] for p in obj["vertices"]]
        )
    return family, vertex_map

