"""Builders for ideal formulations of combinatorial disjunctive constraints.

Every builder pairs each alternative with a code and lists hyperplane
normals; each normal b gives one two-sided row whose coefficient for a
component is the least and the greatest b . h over the codes h of the
alternatives containing it.  The builders differ only in their normals:
the general construction takes every hyperplane spanned by code
differences across overlapping alternatives, the planar one the same
construction over every pair of codes, and each closed form a fixed
list: (t, -1) on the moment curve, the unit vectors for the exotic sos2
codes, and the unit vectors plus a few more for the annulus.  Each normal
reaches the one row constructor, _rows_from_normals, as ints over a scale,
and the constructor works by columns, in ints.
"""

import itertools
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, partial, reduce
from math import gcd
from operator import add, attrgetter, itemgetter

from . import branching
from .cdc import CdcFamily, annulus_family, edge_set, sos2_family
from .encodings import (
    Encoding,
    exotic_code,
    gray_code,
    is_convex_position,
    moment_code,
    zigzag_code,
)
from .lp import EQ, LE, LpProblem, solve_lp
from .numerics import (
    _integer_rows,
    _nullspace,
    _scaled,
    _whole,
    format_ratio,
    format_rational,
    rat,
    vec,
)


class FormulationError(Exception):
    pass


_LINE_SPAN = "code differences span a line, no hyperplane family exists"


class TwoSidedRow:
    """lower . lam <= direction . z <= upper . lam as tuples of int numerators
    over one positive int den, divided by their common gcd.  Both sides have
    right-hand side 0, so den is read only to print the row.

    The entries' types are scanned once: ints already coprime with den, as
    the builders hand them over, are kept as the tuples given.  Other
    entries are brought over one den (numerics._scaled), which reads a 'p/q'
    string and raises TypeError on a float, and every entry is divided by
    the gcd, so a whole Fraction is kept as an int."""

    __slots__ = ("direction", "lower", "upper", "den")

    def __init__(self, direction, lower, upper, den=1):
        parts = (tuple(direction), tuple(lower), tuple(upper))
        if len(parts[1]) != len(parts[2]):
            raise FormulationError("lower and upper lengths differ")
        flat = parts[0] + parts[1] + parts[2]
        ints = all(map(isinstance, flat, itertools.repeat(int)))
        if not ints:
            scale, flat = _scaled(flat)
            den *= scale
        if type(den) is not int or den < 1:
            raise FormulationError("den must be a positive int")
        g = gcd(den, *flat)
        if not ints or g > 1:
            flat = iter([x // g for x in flat])
            parts = [tuple(itertools.islice(flat, len(part))) for part in parts]
        self.direction, self.lower, self.upper = parts
        self.den = den // g

    def __eq__(self, other):
        return isinstance(other, TwoSidedRow) and all(
            getattr(self, k) == getattr(other, k) for k in self.__slots__
        )

    def formatted(self):
        """direction, lower and upper as lists of 'p' or 'p/q' strings."""
        parts = (self.direction, self.lower, self.upper)
        return [[format_ratio(x, self.den) for x in part] for part in parts]


@dataclass
class AssembledSystem:
    """A flat system over (lam, z) or (x, z) variables: rows (a, rel, rhs)
    and per-variable bounds, both as LpProblem takes them; a formulation's
    rows are its int numerators, and a big-M system's rows are the ints it
    holds.  z is the last r of the nvars variables, so it starts at
    nvars - r.

    A formulation keeps the system its assemble() returns, so what is read
    off it is kept too, on first read: root, its LpProblem, and bare, the
    system with no rows.  Neither its rows nor its bounds are changed after
    it is made."""

    nvars: int
    rows: list
    bounds: list
    r: int

    @cached_property
    def root(self):
        """The system as an LpProblem with a zero objective: its rows and
        bounds checked and coerced once, for every solve to share with its
        own objective (LpProblem.with_rows)."""
        return LpProblem(self.nvars, (0,) * self.nvars, self.rows, self.bounds)

    @cached_property
    def bare(self):
        """The system with no rows, whose with_cuts gives the cuts alone."""
        return replace(self, rows=[])

    def with_cuts(self, cuts):
        """New system with z-space rows (a_z, rel, rhs) appended: each a_z
        is padded with int zeros over lam or x, and rel and rhs are kept as
        they are.  A cut kept in ints by a CodeRelaxation, as branch and
        bound's cuts are, so becomes a row as LpProblem keeps it."""
        pad = (0,) * (self.nvars - self.r)
        rows = [(pad + tuple(a_z), rel, rhs) for a_z, rel, rhs in cuts]
        return AssembledSystem(self.nvars, self.rows + rows, self.bounds, self.r)


_SIDES = attrgetter("direction", "lower", "upper")


def _kept(holder, key, build):
    """The system build() returns, kept on holder with key, the tuple of
    what it is built from, and built again when key changes.  Tuples
    compare entries by identity first, so a later call with the same
    objects costs one pass over them; an entry replaced by an equal one
    keeps the system, which is built from values alone."""
    kept = holder.__dict__.get("_assembled")
    if kept is None or kept[0] != key:
        kept = holder._assembled = (key, build())
    return kept[1]


class LinearFormulation:
    """Rows over (lam, z) plus the affine hull of the codes.

    The weights lam lie on the unit simplex and z is free.  n counts lam
    components including a trailing artificial one when artificial is
    set; that component is fixed to zero.  codes are kept as an Encoding.
    """

    def __init__(
        self,
        n,
        r,
        rows,
        hull_equations=(),
        artificial=False,
        family=None,
        codes=None,
        meta=None,
    ):
        self.n = n
        self.r = r
        self.rows = list(rows)
        for row in self.rows:
            if len(row.direction) != r or len(row.lower) != n:
                raise FormulationError("row shape disagrees with n, r")
        self.hull_equations = [(vec(a), rat(b)) for a, b in hull_equations]
        self.artificial = artificial
        self.family = family
        if codes is not None and not isinstance(codes, Encoding):
            codes = Encoding(codes)
        self.codes = codes
        self.meta = dict(meta or {})

    def one_sided(self):
        """All rows as (a, rhs) over (lam, z) meaning a . (lam, z) <= rhs,
        tagged with (row index, side): a the row's int numerators, rhs 0."""
        out = []
        for i, row in enumerate(self.rows):
            out.append(((i, "lower"), row.lower + tuple(-x for x in row.direction), 0))
            out.append(((i, "upper"), tuple(-x for x in row.upper) + row.direction, 0))
        return out

    def assemble(self):
        """The relaxation as one AssembledSystem: both sides of every row as
        <= rows, the hull equations, the simplex row, lam >= 0 (the
        artificial component fixed at 0) and z free.  It is built on the
        first call and kept while rows, hull_equations and artificial hold
        what it was built from: a row swapped in place, a side of a row
        set anew or a new list builds it again (_kept)."""
        sides = tuple(map(_SIDES, self.rows))
        key = (self.n, self.r, self.artificial, sides, tuple(self.hull_equations))
        return _kept(self, key, self._assemble)

    def _assemble(self):
        rows = [(a, LE, rhs) for _, a, rhs in self.one_sided()]
        for a, b in self.hull_equations:
            rows.append(((0,) * self.n + a, EQ, b))
        rows.append(((1,) * self.n + (0,) * self.r, EQ, 1))
        bounds = [(0, None)] * self.n
        if self.artificial:
            bounds[self.n - 1] = (0, 0)
        bounds += [(None, None)] * self.r
        return AssembledSystem(self.n + self.r, rows, bounds, self.r)

    def to_json(self):
        return {
            "n": self.n,
            "r": self.r,
            "rows": [
                dict(zip(("direction", "lower", "upper"), row.formatted()))
                for row in self.rows
            ],
            "hull_equations": [
                {
                    "a": [format_rational(x) for x in a],
                    "b": format_rational(b),
                }
                for a, b in self.hull_equations
            ],
            # every formulation has the simplex row and free z; the keys
            # stay so that the file format does not change
            "has_simplex": True,
            "z_bounds": None,
            "artificial": self.artificial,
            "meta": self.meta,
        }

    def to_text(self):
        lines = []

        def term(c, name):
            sign, c = ("- ", c[1:]) if c.startswith("-") else ("+ ", c)
            return None if c == "0" else sign + (name if c == "1" else c + " " + name)

        def combo(coeffs, prefix):
            parts = [term(c, "%s%d" % (prefix, i + 1)) for i, c in enumerate(coeffs)]
            parts = [p for p in parts if p]
            if not parts:
                return "0"
            s = " ".join(parts)
            return s[2:] if s.startswith("+ ") else s

        for row in self.rows:
            direction, lower, upper = row.formatted()
            lines.append(
                "%s <= %s <= %s"
                % (combo(lower, "lam"), combo(direction, "z"), combo(upper, "lam"))
            )
        for a, b in self.hull_equations:
            a, b = map(format_rational, a), format_rational(b)
            lines.append("%s == %s" % (combo(a, "z"), b))
        lines.append("sum(lam) == 1, lam >= 0")
        if self.artificial:
            lines.append("lam%d == 0 (artificial)" % self.n)
        return "\n".join(lines) + "\n"


def _direction(v):
    """A nonzero int vector divided by the gcd of its entries, signed so
    that its first nonzero entry is positive: one key per direction."""
    g = gcd(*v)
    if next(x for x in v if x) < 0:
        g = -g
    return tuple(v) if g == 1 else tuple(x // g for x in v)


def spanned_hyperplane_normals(C, ambient):
    """Normals of all hyperplanes of span(C) spanned by members of C, the
    members being vectors of length ambient, ints or Fractions.

    The work is in ints, each member times its own lcm; a member of ints,
    as the builders pass their code differences, is read as it is, with no
    copy.  One nullspace of the distinct directions gives the orthogonal
    complement of span(C) and so its dimension.  Each (dim-1)-subset of
    the directions, together with that complement, leaves a
    one-dimensional nullspace exactly when it spans a hyperplane of
    span(C); that nullspace is the normal.  When the
    span is the whole plane, a hyperplane is the line of one direction
    (p, q), and its normal is the perpendicular (q, -p), taken with no
    further nullspace.  Normals are returned as pairs (s, b), deduped in
    first-seen order, with no Fraction: b the coprime int normal and s its
    first nonzero entry, positive, so b / s has first nonzero entry 1.  An
    empty or all-zero C gives []; a one-dimensional span is rejected since
    no hyperplane family exists there, and a ragged C raises ValueError.
    """
    ints = [c if _whole(c) else _scaled(c)[1] for c in C]
    if len(set(map(len, ints))) > 1:
        raise ValueError("ragged matrix")
    dirs = list(dict.fromkeys(_direction(c) for c in ints if any(c)))
    if not dirs:
        return []
    # a normal must be orthogonal to the complement to lie inside span(C)
    complement = [v for v, _ in _nullspace(dirs)]
    dim = ambient - len(complement)
    if dim == 1:
        raise FormulationError(_LINE_SPAN)
    if ambient == 2:
        # one perpendicular per direction, so first-seen order is kept
        normals = [_direction((q, -p)) for p, q in dirs]
    else:
        normals = {}
        for subset in itertools.combinations(dirs, dim - 1):
            null = _nullspace(list(subset) + complement)
            if len(null) == 1:
                normals[_direction(null[0][0])] = None
    return [(next(x for x in b if x), b) for b in normals]


def _rows_from_normals(family, codes, normals):
    """One two-sided row per normal b / s, given as the pair (s, b) of a
    positive int and an int vector that numerics._scaled returns: the
    coefficients of component v are the least and the greatest b . h / s
    over the codes h of the alternatives that hold v.

    The work is in ints and by columns, on codes.scaled, the codes over
    their common denominator den: b . h for every code by one pass per
    code coordinate, and the values at the r-th member of every component
    by one itemgetter per rank r.  Components go most members first, so
    rank r reads and updates only a prefix, those with more than r
    members, and a normal costs the total member count.  The row is the
    ints, back in component order, over s * den.
    """
    den, H = codes.scaled
    members = [[i - 1 for i in family.members(v)] for v in range(1, family.n + 1)]
    order = sorted(range(family.n), key=lambda v: -len(members[v]))
    ranks = itertools.zip_longest(*[members[v] for v in order])
    gets = [_getter([i for i in rank if i is not None]) for rank in ranks]
    unsort = _getter(sorted(range(family.n), key=order.__getitem__))
    cols = list(zip(*H))
    rows = []
    for s, b in normals:
        terms = [map(x.__mul__, col) for x, col in zip(b, cols)]
        values = list(reduce(partial(map, add), terms))
        lower = list(gets[0](values))
        upper = lower[:]
        for get in gets[1:]:
            held = get(values)
            lower[: len(held)] = [x if x <= y else y for x, y in zip(lower, held)]
            upper[: len(held)] = [x if x >= y else y for x, y in zip(upper, held)]
        direction = [x * den for x in b]
        rows.append(TwoSidedRow(direction, unsort(lower), unsort(upper), s * den))
    return rows


def _getter(indices):
    """itemgetter of indices, a tuple even of one index."""
    return itemgetter(*indices) if len(indices) > 1 else lambda v, i=indices[0]: (v[i],)


def _formulation(family, enc, normals, builder, padded=None):
    """The tail every builder returns through: one row per normal, the
    affine hull of the codes, and the meta naming builder and encoding.

    padded, when given, is family with an artificial component appended
    to every alternative; the rows then run over it, and family stays
    the formulation's.
    """
    work = padded or family
    return LinearFormulation(
        work.n,
        enc.r,
        _rows_from_normals(work, enc, normals),
        hull_equations=enc.equations,
        artificial=padded is not None,
        family=family,
        codes=enc,
        meta={"builder": builder, "encoding": enc.kind},
    )


def _checked_codes(family, codes):
    """codes as an Encoding with one code per alternative, in convex
    position."""
    enc = codes if isinstance(codes, Encoding) else Encoding(codes)
    if family.d != enc.d:
        raise FormulationError("need exactly one code per alternative")
    if not is_convex_position(enc):
        raise FormulationError("codes must be in convex position")
    return enc


def build_general(family, codes):
    """The geometric construction for any family paired with convex-position
    codes, one code per alternative.

    When no two alternatives overlap transitively (the overlap graph is
    disconnected), an artificial component fixed to zero is appended to
    every alternative so the construction applies; the formulation then
    carries one extra lam variable.
    """
    enc = _checked_codes(family, codes)
    edges, connected = edge_set(family)
    padded = None
    if not connected:
        padded = CdcFamily(
            family.n + 1, [tuple(T) + (family.n + 1,) for T in family.sets]
        )
        edges, _ = edge_set(padded)
    H = enc.scaled[1]
    C = [[b - a for a, b in zip(H[i - 1], H[j - 1])] for i, j in edges]
    normals = spanned_hyperplane_normals(C, enc.r)
    return _formulation(family, enc, normals, "general", padded)


def build_2d(family, codes):
    """Planar specialization: the general construction over every pair of
    alternatives, overlapping or not.

    In the plane a hyperplane is a line, so each direction of a code
    difference gives one normal, its perpendicular.  Two codes span a
    line, which has no hyperplane family, so three or more are needed.
    """
    enc = codes if isinstance(codes, Encoding) else Encoding(codes)
    if enc.r != 2:
        raise FormulationError("planar builder needs 2-dimensional codes")
    enc = _checked_codes(family, enc)
    H = enc.scaled[1]
    C = [[b - a for a, b in zip(h, k)] for h, k in itertools.combinations(H, 2)]
    return _formulation(family, enc, spanned_hyperplane_normals(C, 2), "2d")


def build_moment_curve(family):
    """Parabola codes with the integer fan of directions (t, -1).

    Pairs alternative i with code (i, i*i); rows run over t = 3..2d-1,
    covering every direction through two codes.  d >= 3: two parabola
    codes span a line, which raises as it does in build_general.
    """
    d = family.d
    if d < 3:
        raise FormulationError("need at least two alternatives" if d < 2 else _LINE_SPAN)
    normals = [(1, (t, -1)) for t in range(3, 2 * d)]
    return _formulation(family, moment_code(d), normals, "moment")


def build_sos2_exotic(d):
    """Closed-form two-row formulation of consecutive-pair constraints
    using the exotic codes; d must be a positive multiple of 4."""
    family = sos2_family(d)
    normals = [(1, (1, 0)), (1, (0, 1))]
    return _formulation(family, exotic_code(d), normals, "sos2_exotic")


def build_annulus(d, kind):
    """Closed-form formulations for the d-piece annulus cover.

    kind selects the code family: 'gray' (d a power of two), 'zigzag'
    (same), or 'exotic' (d a multiple of 4).  Components 2i-1 and 2i
    belong to pieces i and i+1 (wrapping), so their coefficients take
    extremes over that code pair.  The normals are the unit vectors, plus
    one per pair of coordinates for 'zigzag' and one across the first and
    last code for 'exotic'.
    """
    if d <= 4:
        raise FormulationError("d must exceed 4")
    family = annulus_family(d)
    if kind in ("gray", "zigzag"):
        r = (d - 1).bit_length()
        if 2 ** r != d:
            raise FormulationError("%s codes need d to be a power of two" % kind)
        enc = gray_code(r) if kind == "gray" else zigzag_code(r)
        extra = []
        if kind == "zigzag":
            for k, l in itertools.combinations(range(r), 2):
                b = [0] * r
                b[k] = Fraction(1, 2 ** (l + 1))
                b[l] = Fraction(-1, 2 ** (k + 1))
                extra.append(tuple(b))
    elif kind == "exotic":
        if d % 4 != 0:
            raise FormulationError("exotic codes need d divisible by 4")
        enc = exotic_code(d)
        # the exotic codes are whole (den 1), so their ints are the codes
        H = enc.scaled[1]
        extra = [(H[d - 1][1] - H[0][1], H[0][0] - H[d - 1][0])]
    else:
        raise FormulationError("unknown annulus kind %r" % (kind,))
    units = [tuple(int(i == k) for i in range(enc.r)) for k in range(enc.r)]
    normals = list(map(_scaled, units + extra))
    return _formulation(family, enc, normals, "annulus_%s" % kind)


def compute_bigm(pieces):
    """Tightest per-row relaxation bounds across foreign pieces.

    M[i][s] is the maximum of row s of piece i over every other piece.
    Unbounded maxima raise; empty foreign pieces are skipped with a
    warning (they never constrain the bound).  Each piece's LpProblem is
    built once, with the zero objective, and solved cold once: that is its
    phase 1, and it proves the piece empty or not.  Row s is scaled to
    ints once, and each bound on it reprices that objective on a foreign
    piece's optimum (solve_lp's warm form with no rows), so a bound pays
    only its phase 2.  A piece unbounded along another direction still
    bounds every row that it does not run along.
    """
    d = len(pieces)
    if d == 0:
        raise FormulationError("no pieces")
    lps = [
        LpProblem(p.m, (0,) * p.m, [(a, LE, b) for a, b in zip(p.A, p.b)])
        for p in pieces
    ]
    feasible = [solve_lp(lp) for lp in lps]
    M = []
    for i, piece in enumerate(pieces):
        row_bounds = []
        for row in piece.A:
            den, c = _scaled(row)
            c = tuple(c)
            best = None
            for k in range(d):
                if k == i:
                    continue
                if feasible[k].status == "infeasible":
                    warnings.warn("piece %d is empty, skipped" % (k + 1,))
                    continue
                res = solve_lp(lps[k].with_rows([], objective=c, kept=True), feasible[k])
                if res.status == "unbounded":
                    raise FormulationError(
                        "piece %d is unbounded along a foreign row" % (k + 1,)
                    )
                if best is None or res.value > best:
                    best = res.value
            if best is None and d > 1:
                raise FormulationError("every foreign piece is empty")
            row_bounds.append(None if best is None else best / den)
        M.append(row_bounds)
    return M


class BigMSystem:
    """A relaxation-based union formulation over (x, z).

    Each piece's rows are active exactly when z sits at that piece's code
    in codes; elsewhere they relax by the precomputed bound.  rows are
    (a_x, a_z, rhs), meaning a_x . x + a_z . z <= rhs, as int tuples and an
    int rhs.
    """

    def __init__(self, rows, m, codes):
        self.rows = rows
        self.m = m
        self.codes = codes

    def assemble(self):
        """The rows as one AssembledSystem over (x, z), every variable free:
        built on the first call and kept while rows, m and codes hold the
        objects it was built from (_kept)."""
        key = (self.m, self.codes, tuple(self.rows))
        return _kept(self, key, self._assemble)

    def _assemble(self):
        nvars = self.m + self.codes.r
        rows = [(a_x + a_z, LE, rhs) for a_x, a_z, rhs in self.rows]
        return AssembledSystem(nvars, rows, [(None, None)] * nvars, self.codes.r)


def build_bigm_moment(pieces):
    """Assemble the relaxation system with parabola codes for d pieces;
    the system carries them, moment_code(d), as its codes.

    The activation weight at code (i, i*i) is i*i - 2*i*z1 + z2, which is
    zero at the code and a positive integer at every other code.  Each row
    is scaled to ints here, once, by the lcm of its denominators.
    """
    d = len(pieces)
    if d < 1:
        raise FormulationError("no pieces")
    m = pieces[0].m
    if any(p.m != m for p in pieces):
        raise FormulationError("pieces live in different spaces")
    M = compute_bigm(pieces)
    rows = []
    for i in range(1, d + 1):
        piece = pieces[i - 1]
        for s in range(len(piece.A)):
            Mis = M[i - 1][s]
            if Mis is None:
                # single piece: no relaxation needed, row holds outright
                rows.append((piece.A[s], (0, 0), piece.b[s]))
                continue
            # a negative gap would tighten the row at foreign codes and
            # cut off their pieces, so it is clamped at zero
            gap = max(Mis - piece.b[s], Fraction(0))
            # A_s . x <= b_s + gap * (i*i - 2*i*z1 + z2)
            a_z = (2 * i * gap, -gap)
            rhs = piece.b[s] + gap * i * i
            rows.append((piece.A[s], a_z, rhs))
    for a_z, rhs in branching.psi(d, 1, d).ineq_rows():
        rows.append(((0,) * m, a_z, rhs))
    ints = _integer_rows([(*a_x, *a_z, rhs) for a_x, a_z, rhs in rows])
    rows = [(tuple(a[:m]), tuple(a[m:-1]), a[-1]) for a in ints]
    return BigMSystem(rows, m, moment_code(d))
