"""Code families used to label the alternatives of a disjunction.

Each constructor returns an Encoding whose codes are rational points in
convex position (a requirement for the geometric construction to apply).
An Encoding keeps, once read, its codes as ints over one denominator
(scaled), their affine hull's normals in ints (hull) and as equations
(equations), their hull's facets as coprime int rows (facets) and the set
of the codes (code_set): the hull is computed once, in ints, and the
facets reuse its normals, so no Fraction is made on the way.  The
predicates for convex position and hole-freeness test codes, as facet
masks, and points against those facets in ints.  An encoding also keeps
the verdict on its convex position (convex), and each branching scheme's
verdict on it (verdicts), so each is decided once per encoding.
"""

from fractions import Fraction
from functools import cached_property, reduce
from itertools import product
from math import lcm
from operator import and_, mul

from .lp import facets_of_hull
from .numerics import _nullspace, vec


class EncodingError(Exception):
    pass


class Encoding:
    """An ordered tuple of distinct rational codes in r dimensions.

    Codes never change once made, so what is derived from them is kept on
    first read and shared by every formulation, scheme, solve and check
    that holds this encoding: scaled, hull, equations, facets, code_set,
    convex and the schemes' verdicts."""

    def __init__(self, codes, kind="custom"):
        self.codes = tuple(vec(c) for c in codes)
        if not self.codes:
            raise EncodingError("an encoding needs at least one code")
        self.r = len(self.codes[0])
        if any(len(c) != self.r for c in self.codes):
            raise EncodingError("codes have mixed dimensions")
        if len(set(self.codes)) != len(self.codes):
            raise EncodingError("codes must be distinct")
        self.kind = kind
        # scheme name -> (ok, why), kept by the schemes' compatible
        self.verdicts = {}

    @property
    def d(self):
        return len(self.codes)

    def __iter__(self):
        return iter(self.codes)

    def __getitem__(self, i):
        return self.codes[i]

    def __len__(self):
        return len(self.codes)

    def __eq__(self, other):
        return isinstance(other, Encoding) and self.codes == other.codes

    @cached_property
    def scaled(self):
        """(den, ints): the codes as int tuples over the lcm of their denominators."""
        den = lcm(*(x.denominator for h in self for x in h))
        ints = (tuple(x.numerator * (den // x.denominator) for x in h) for h in self)
        return den, tuple(ints)

    @cached_property
    def code_set(self):
        """The codes as a frozenset of tuples, hashed once however many
        solves, audits and checks ask whether a point is a code."""
        return frozenset(self.codes)

    @cached_property
    def hull(self):
        """The normals of the codes' affine hull as (v, s) pairs, v an int
        vector and s a positive int: numerics._nullspace of the differences
        scaled[1][i] - scaled[1][0], so v / s is 1 at its own free column
        and 0 at the others.  Scaling the differences by den changes no
        reduced row, so these are the normals of the Fraction codes.  A
        single code gives the unit vectors."""
        H = self.scaled[1]
        diffs = [[a - b for a, b in zip(h, H[0])] for h in H[1:]]
        if not diffs:
            return [([int(i == j) for j in range(self.r)], 1) for i in range(self.r)]
        return _nullspace(diffs)

    @cached_property
    def equations(self):
        """The codes' affine hull as (a, beta) pairs: a . z == beta, a each
        normal v / s of hull in Fractions and beta its value at the first
        code, read off the first code's ints."""
        den, H = self.scaled
        return [
            (tuple(Fraction(x, s) for x in v), Fraction(sum(map(mul, v, H[0])), s * den))
            for v, s in self.hull
        ]

    @cached_property
    def facets(self):
        """The hull's facets as coprime int rows (a, gamma): a . z <= gamma,
        from the codes' ints over den and the int normals of hull."""
        den, H = self.scaled
        return facets_of_hull(H, den, [v for v, _ in self.hull])

    @cached_property
    def convex(self):
        """is_convex_position's verdict: the scan of the facets runs once
        however many builders and checks ask."""
        return _convex_position(self)


def gray_code(r, d=None):
    """Reflected binary codes on {0,1}^r; consecutive codes differ in one bit.

    With d given, only the first d codes are kept (d <= 2**r required).
    """
    if r < 1:
        raise EncodingError("r must be positive")
    rows = [(0,), (1,)]
    for _ in range(r - 1):
        rows = [row + (0,) for row in rows] + [row + (1,) for row in reversed(rows)]
    if d is not None:
        if not 1 <= d <= len(rows):
            raise EncodingError("d out of range for r=%d" % r)
        rows = rows[:d]
    return Encoding(rows, kind="gray")


def zigzag_code(r, d=None):
    """Codes walking unit steps along an integral zigzag through Z^r."""
    if r < 1:
        raise EncodingError("r must be positive")
    rows = [(0,), (1,)]
    for _ in range(r - 1):
        last = rows[-1]
        rows = [row + (0,) for row in rows] + [
            tuple(a + b for a, b in zip(row, last)) + (1,) for row in rows
        ]
    if d is not None:
        if not 1 <= d <= len(rows):
            raise EncodingError("d out of range for r=%d" % r)
        rows = rows[:d]
    return Encoding(rows, kind="zigzag")


def moment_code(d):
    """Codes (i, i*i) on the parabola, i = 1..d."""
    if d < 1:
        raise EncodingError("d must be positive")
    return Encoding([(i, i * i) for i in range(1, d + 1)], kind="moment")


def exotic_code(d):
    """A planar code family in convex position built in blocks of four.

    Requires d divisible by 4.  Consecutive codes alternate sides of the
    vertical axis while climbing, which is what the three-case branching
    scheme exploits.
    """
    if d < 4 or d % 4 != 0:
        raise EncodingError("d must be a positive multiple of 4")
    r = d // 4
    codes = []
    for k in range(1, r + 1):
        ya = Fraction((k - 1) * (k - 2 * r - 2), 2)
        yb = Fraction(-k * (k - 2 * r - 1), 2)
        codes.append((Fraction(k - r - 1), ya))
        codes.append((Fraction(r - k + 1), ya))
        codes.append((Fraction(r - k + 1), yb))
        codes.append((Fraction(k - r), yb))
    return Encoding(codes, kind="exotic")


def is_convex_position(encoding):
    """True when no code lies in the convex hull of the others.  The
    verdict is kept on the encoding (Encoding.convex), so only the first
    call scans (_convex_position)."""
    return encoding.convex


def _convex_position(encoding):
    """The scan behind is_convex_position.  The codes are distinct, so
    they are in convex position when each code is a vertex of their hull.
    Each facet is kept as its tight mask, one bit per code, as
    oracle.classify_rows keeps faces: code p is a vertex exactly when the
    AND of the masks that hold p (every code when none does) is p's bit
    alone.  All of it runs in ints, on the encoding's facets and its codes
    over their common denominator den (Encoding.scaled), so facet
    (a, gamma) is tight at p when a . (den p) == gamma den.
    """
    den, P = encoding.scaled
    masks = [
        sum(1 << j for j, p in enumerate(P) if sum(map(mul, a, p)) == gamma * den)
        for a, gamma in encoding.facets
    ]
    full = (1 << len(P)) - 1
    return all(
        reduce(and_, (m for m in masks if m >> j & 1), full) == 1 << j
        for j in range(len(P))
    )


def is_hole_free(encoding):
    """True when every integer point of Conv(codes) is itself a code.

    Only defined for integer codes; rejects anything else.  The encoding's
    hull is read only once the codes' bounding box shows a non-code point.
    Integer codes have den 1, so each int normal v of hull gives the
    equation v . z == v . H[0], H[0] the first code, and the facets are
    int rows already: each box point is tested in ints.  The scan
    runs on every call; the variable scheme keeps its verdict on the
    encoding, so a solve does not repeat it.
    """
    for h in encoding:
        if any(x.denominator != 1 for x in h):
            raise EncodingError("hole-freeness is only defined for integer codes")
    box = [range(int(min(c)), int(max(c)) + 1) for c in zip(*encoding)]
    code_set, eqs = encoding.code_set, None
    for point in product(*box):
        if point in code_set:
            continue
        if eqs is None:
            H0 = encoding.scaled[1][0]
            eqs = [(v, sum(map(mul, v, H0))) for v, _ in encoding.hull]
        on_hull = all(sum(map(mul, v, point)) == b for v, b in eqs)
        if on_hull and all(
            sum(x * y for x, y in zip(a, point)) <= b for a, b in encoding.facets
        ):
            return False
    return True
