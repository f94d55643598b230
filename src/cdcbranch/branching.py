"""Branching schemes acting on the code space.

A scheme inspects a relaxation point zhat and either certifies it as a
code or splits the current code-space region into two disjoint pieces
that lose no codes.  Regions are tracked as explicit inequality lists so
every split can be audited.
"""

from dataclasses import dataclass
from functools import lru_cache, wraps
from operator import mul

from .encodings import EncodingError, exotic_code, is_hole_free, moment_code
from .lp import EQ, GE, LE
from .numerics import _integer_rows, _scaled, dot, vec


class BranchError(Exception):
    pass


class CodeRelaxation:
    """A region of code space as rows (a, rel, rhs); rel is <=, >=, or ==.
    Each row is kept as an int tuple a and an int rhs, scaled by its lcm."""

    def __init__(self, rows, interval=None):
        rows = list(rows)
        for _, rel, _ in rows:
            if rel not in (LE, GE, EQ):
                raise BranchError("unknown relation %r" % (rel,))
        ints = _integer_rows([(*a, rhs) for a, _, rhs in rows])
        self.rows = [(tuple(w[:-1]), rel, w[-1]) for w, (_, rel, _) in zip(ints, rows)]
        self.interval = interval

    def contains(self, z):
        """True when z satisfies every row.  z is scaled to ints once, over
        the lcm den of its denominators (numerics._scaled), so each row is
        an int dot product compared with rhs * den, and no Fraction is
        made.  A z of the wrong length raises ValueError."""
        den, p = _scaled(z)
        if self.rows and len(p) != len(self.rows[0][0]):
            raise ValueError("dimension mismatch: %d vs %d" % (len(self.rows[0][0]), len(p)))
        for a, rel, rhs in self.rows:
            v, b = sum(map(mul, a, p)), rhs * den
            if rel == LE and v > b or rel == GE and v < b or rel == EQ and v != b:
                return False
        return True

    def with_cuts(self, cuts):
        return CodeRelaxation(self.rows + list(cuts))

    def ineq_rows(self):
        """All rows in <= form."""
        out = []
        for a, rel, rhs in self.rows:
            if rel == LE:
                out.append((a, rhs))
            elif rel == GE:
                out.append((tuple(-x for x in a), -rhs))
            else:
                out.append((a, rhs))
                out.append((tuple(-x for x in a), -rhs))
        return out


@dataclass
class BranchOutcome:
    """Either a verification of zhat or a two-way split.  Each child's cuts
    are rows as a CodeRelaxation keeps them, an int tuple, a relation and
    an int rhs, so the solver hands them to its LP as they are."""

    verified: bool
    tag: str = None
    children: tuple = None  # ((cuts1, state1), (cuts2, state2))

    @staticmethod
    def verify():
        return BranchOutcome(True, tag="verified")

    @staticmethod
    def split(tag, cuts1, state1, cuts2, state2):
        return BranchOutcome(
            False, tag=tag, children=((cuts1, state1), (cuts2, state2))
        )


def _split(tag, Q, cuts1, cuts2):
    """The split of Q into Q with cuts1 and Q with cuts2, each child's cuts
    handed on as the int rows its region keeps of them."""
    children = []
    for cuts in (cuts1, cuts2):
        cuts = CodeRelaxation(cuts).rows
        children += [cuts, Q.with_cuts(cuts)]
    return BranchOutcome.split(tag, *children)


@lru_cache(maxsize=1024)
def psi(d, l, u):
    """Hull of the parabola codes (i, i*i), i = l..u, as explicit rows.

    Tangent rows cut below the curve, the chord row cuts above, and the
    two first-coordinate bounds close the region (they are implied for
    u >= l + 2 but necessary when u = l + 1).  l == u gives the single
    code via equalities.  A region depends only on (d, l, u), and no
    caller changes one in place (with_cuts makes a new one), so each is
    built once and kept, whichever split or solve asks for it again.
    """
    if not 1 <= l <= u <= d:
        raise BranchError("need 1 <= l <= u <= d")
    rows = []
    if l == u:
        rows.append(((1, 0), EQ, l))
        rows.append(((0, 1), EQ, l * l))
    else:
        for i in range(l, u):
            # z2 - i*i >= (2i+1)(z1 - i)
            rows.append(((2 * i + 1, -1), LE, i * (i + 1)))
        # chord from (l, l*l) to (u, u*u)
        rows.append(((-(l + u), 1), LE, -l * u))
        rows.append(((1, 0), GE, l))
        rows.append(((1, 0), LE, u))
    return CodeRelaxation(rows, interval=(l, u))


def _is_integral(z):
    return all(x.denominator == 1 for x in z)


def branch_variable(Q, zhat):
    """Split on the lowest fractional coordinate of zhat.

    Sound when the codes tile every integer point of their hull, so an
    integral zhat inside Q is itself a code.
    """
    zhat = vec(zhat)
    if not Q.contains(zhat):
        raise BranchError("zhat lies outside the current region")
    if _is_integral(zhat):
        return BranchOutcome.verify()
    r = len(zhat)
    for k in range(r):
        if zhat[k].denominator != 1:
            e = tuple(int(i == k) for i in range(r))
            lo = zhat[k].numerator // zhat[k].denominator
            return _split("variable", Q, [(e, LE, lo)], [(e, GE, lo + 1)])
    raise BranchError("unreachable")


def branch_moment(Q, d, zhat):
    """Split the parabola interval at floor(zhat1).

    Q must be a psi region; both children are psi regions again, so the
    tree only ever sees hulls of consecutive code runs.
    """
    zhat = vec(zhat)
    if Q.interval is None:
        raise BranchError("moment branching needs an interval-tracked region")
    if not Q.contains(zhat):
        raise BranchError("zhat lies outside the current region")
    l, u = Q.interval
    if zhat[0].denominator == 1 and zhat[1] == zhat[0] * zhat[0]:
        j = zhat[0]
        if not l <= j <= u:
            raise BranchError("code outside the tracked interval")
        return BranchOutcome.verify()
    m = zhat[0].numerator // zhat[0].denominator
    if not l <= m < u:
        raise BranchError("split point escaped the interval")
    left = psi(d, l, m)
    right = psi(d, m + 1, u)
    return BranchOutcome.split(
        "moment", left.rows, left, right.rows, right
    )


def _exotic_levels(H):
    levels = {}
    for h in H:
        levels.setdefault(h[1], []).append(h)
    for v in levels.values():
        v.sort(key=lambda h: h[0])
    return levels


def branch_exotic(Q, H, zhat):
    """Three-case split for codes stacked two per height level.

    Fractional first coordinate splits on it; a second coordinate between
    levels splits wide between them; otherwise zhat sits strictly between
    the two codes of its level and two hull-supported slanted cuts split
    the level's west and east codes apart.  H is the Encoding, whose kept
    code_set tells a code.
    """
    zhat = vec(zhat)
    codes = list(H)
    if not Q.contains(zhat):
        raise BranchError("zhat lies outside the current region")
    if zhat in H.code_set:
        return BranchOutcome.verify()
    if zhat[0].denominator != 1:
        e1 = (1, 0)
        lo = zhat[0].numerator // zhat[0].denominator
        return _split("integer-split", Q, [(e1, LE, lo)], [(e1, GE, lo + 1)])
    levels = _exotic_levels(codes)
    ys = sorted(levels)
    e2 = (0, 1)
    if zhat[1] not in levels:
        below = [t for t in ys if t < zhat[1]]
        above = [t for t in ys if t > zhat[1]]
        if not below or not above:
            raise BranchError("zhat lies outside the code hull")
        return _split("wide-split", Q, [(e2, LE, below[-1])], [(e2, GE, above[0])])
    level = zhat[1]
    row = levels[level]
    if len(row) != 2:
        raise BranchError("level does not hold exactly two codes")
    h_w, h_e = row[0], row[-1]
    if not h_w[0] < zhat[0] < h_e[0]:
        raise BranchError("zhat lies outside the code hull")
    above = [t for t in ys if t > level]
    if not above:
        raise BranchError(
            "top level cannot reach this case, its codes are adjacent integers"
        )
    h_ne = levels[above[0]][-1]
    a = (h_ne[1] - h_w[1], -(h_ne[0] - h_w[0]))
    cut1 = (a, LE, dot(a, h_w))
    if dot(a, zhat) <= cut1[2]:
        raise BranchError("first cut fails to exclude zhat")
    below = [t for t in ys if t < level]
    if below:
        h_sw = levels[below[-1]][0]
        b = (h_sw[1] - h_e[1], -(h_sw[0] - h_e[0]))
        cut2 = (b, LE, dot(b, h_e))
        if dot(b, zhat) <= cut2[2]:
            raise BranchError("second cut fails to exclude zhat")
    else:
        # bottom level: reuse the first cut's normal, east side
        thr = dot(a, h_e)
        if thr <= dot(a, zhat):
            raise BranchError("degenerate cut fails to exclude zhat")
        cut2 = (a, GE, thr)
    return _split("corner-split", Q, [cut1], [cut2])


def _kept_verdict(decide):
    """A scheme's compatible(encoding), decided by decide once per scheme
    and Encoding: the verdict (ok, why) is kept in encoding.verdicts under
    the scheme's name, as the encoding keeps its hull, so however many
    solves ask, the hole-free scan or the canonical code is made once."""

    def compatible(self, encoding):
        verdict = encoding.verdicts.get(self.name)
        if verdict is None:
            verdict = encoding.verdicts[self.name] = decide(self, encoding)
        return verdict

    return wraps(decide)(compatible)


def hull_root(self, encoding):
    """The encoding's facets, the root region of each scheme that cuts its
    regions from the codes' hull.  Those classes assign it as `root` in
    their own bodies, so every scheme class holds its `root` itself."""
    return CodeRelaxation([(a, LE, rhs) for a, rhs in encoding.facets])


class VariableScheme:
    """Coordinate splitting; needs integer codes tiling their hull."""

    name = "variable"

    @_kept_verdict
    def compatible(self, encoding):
        """The codes must be integral and hole-free."""
        try:
            ok = is_hole_free(encoding)
        except EncodingError as exc:
            return False, str(exc)
        if not ok:
            return False, "codes leave integer holes in their hull"
        return True, ""

    root = hull_root

    def step(self, state, zhat, _encoding):
        return branch_variable(state, zhat)


class MomentScheme:
    """Interval splitting along the parabola codes."""

    name = "moment"

    @_kept_verdict
    def compatible(self, encoding):
        """The codes must equal moment_code(d)."""
        if encoding != moment_code(len(encoding)):
            return False, "codes are not the parabola family"
        return True, ""

    def root(self, encoding):
        return psi(len(encoding), 1, len(encoding))

    def step(self, state, zhat, encoding):
        return branch_moment(state, len(encoding), zhat)


class ExoticScheme:
    """Three-case splitting for the two-per-level planar codes."""

    name = "exotic"

    @_kept_verdict
    def compatible(self, encoding):
        """The codes must equal exotic_code(d), d a multiple of 4."""
        d = len(encoding)
        if d % 4 != 0 or encoding != exotic_code(d):
            return False, "codes are not the two-per-level planar family"
        return True, ""

    root = hull_root

    def step(self, state, zhat, encoding):
        return branch_exotic(state, encoding, zhat)


SCHEMES = {
    "variable": VariableScheme,
    "moment": MomentScheme,
    "exotic": ExoticScheme,
}


def make_scheme(name):
    if name not in SCHEMES:
        raise BranchError("unknown scheme %r" % (name,))
    return SCHEMES[name]()
