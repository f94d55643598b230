"""Exact rational linear programming and vertex/facet enumeration.

The simplex solver runs two phases with Bland's rule, so it cannot cycle
and every reported optimum is exact.  Vertex enumeration runs the double
description method on the homogenization of the input system, which keeps
the work proportional to the actual face structure instead of the number
of basis subsets.

Both work in Python ints, with Fraction only at their boundary.  The
simplex scales each standard-form row to coprime integers as it builds
the tableau, prices out its objective rows in integers, and turns basic
values into Fraction only when it reads them.  Double description scales
its rows to integers on the way in and takes its starting rays from an
integer nullspace; vertices and facets become Fraction only on the way
out.  No float enters either.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .numerics import (
    _coprime,
    _integer_rows,
    affine_hull,
    independent_rows,
    is_zero_vector,
    mat,
    nullspace_basis,
    rat,
    rank,
    vec,
)

LE, GE, EQ = "<=", ">=", "=="


class LpError(Exception):
    pass


class LpProblem:
    """maximize/minimize c . x subject to rows (a, rel, rhs) and bounds.

    bounds is a list of (lb, ub) pairs per variable, None meaning
    unbounded on that side.  Omitted bounds default to free variables.
    """

    def __init__(self, n, objective, rows, bounds=None, sense="max"):
        self.n = n
        self.objective = vec(objective)
        if len(self.objective) != n:
            raise ValueError("objective length mismatch")
        self.rows = []
        for a, rel, rhs in rows:
            a = vec(a)
            if len(a) != n:
                raise ValueError("row length mismatch")
            if rel not in (LE, GE, EQ):
                raise ValueError("unknown relation %r" % (rel,))
            self.rows.append((a, rel, rat(rhs)))
        if bounds is None:
            bounds = [(None, None)] * n
        if len(bounds) != n:
            raise ValueError("bounds length mismatch")
        self.bounds = [
            (None if lb is None else rat(lb), None if ub is None else rat(ub))
            for lb, ub in bounds
        ]
        if sense not in ("max", "min"):
            raise ValueError("sense must be 'max' or 'min'")
        self.sense = sense


@dataclass
class LpResult:
    """status is 'optimal', 'infeasible', or 'unbounded'."""

    status: str
    x: tuple = None
    value: Fraction = None


def _pivot(T, basis, r, c):
    """Pivot the integer tableau on (r, c).  Row r keeps its scale, made
    positive at c; every other row becomes row*p - f*prow, a positive
    multiple of what the Fraction pivot gives, divided by its gcd."""
    prow = T[r]
    p = prow[c]
    if p < 0:
        prow = T[r] = [-x for x in prow]
        p = -p
    for i, row in enumerate(T):
        f = row[c]
        if i != r and f != 0:
            T[i] = _coprime([x * p - f * y for x, y in zip(row, prow)])
    basis[r - 1] = c


def _run_simplex(T, basis, ncols):
    """Pivot until optimal or unbounded.  Row 0 holds reduced costs for a
    maximization; entering variable is the lowest index with a negative
    entry, leaving row breaks ratio ties on the lowest basic variable
    (Bland's rule).  Returns 'optimal' or 'unbounded'.

    T holds Python ints: each row is a positive multiple of its Fraction
    row, so every sign is the same, and the ratio rhs_i / a_i is compared
    by cross-multiplication, where the row scale cancels."""
    m = len(T) - 1
    while True:
        enter = None
        for j in range(ncols):
            if T[0][j] < 0:
                enter = j
                break
        if enter is None:
            return "optimal"
        leave = None
        for i in range(1, m + 1):
            a = T[i][enter]
            if a > 0:
                if leave is None:
                    leave, best_rhs, best_a = i, T[i][-1], a
                    continue
                lhs, rhs = T[i][-1] * best_a, best_rhs * a
                if lhs < rhs or (lhs == rhs and basis[i - 1] < basis[leave - 1]):
                    leave, best_rhs, best_a = i, T[i][-1], a
        if leave is None:
            return "unbounded"
        _pivot(T, basis, leave, enter)


def solve_lp(problem):
    """Exact two-phase simplex.  Returns an LpResult."""
    n = problem.n

    # Map each original variable to nonnegative standard-form columns: one
    # entry (offset, pos, neg) per variable means x = offset + x[pos] -
    # x[neg], where either column may be absent (None).  A lower bound gives
    # (lb, col, None), an upper bound alone (ub, None, col), and a free
    # variable (0, col, col + 1), its 0 one shared Fraction so that x is a
    # Fraction even when both columns are nonbasic.  An upper bound next to
    # a lower one becomes an extra row.
    zero = Fraction(0)
    cols = []
    ncols = 0
    extra_rows = []
    for j, (lb, ub) in enumerate(problem.bounds):
        if lb is not None:
            if ub is not None:
                if ub < lb:
                    return LpResult("infeasible")
                coeff = [Fraction(0)] * n
                coeff[j] = Fraction(1)
                extra_rows.append((vec(coeff), LE, ub))
            cols.append((lb, ncols, None))
            ncols += 1
        elif ub is not None:
            cols.append((ub, None, ncols))
            ncols += 1
        else:
            cols.append((zero, ncols, ncols + 1))
            ncols += 2

    all_rows = list(problem.rows) + extra_rows

    def to_standard(a, rhs):
        # each variable has its own columns, so entries are set, not summed
        out = [0] * ncols
        r = rhs
        for aj, (offset, pos, neg) in zip(a, cols):
            if aj == 0:
                continue
            if pos is not None:
                out[pos] = aj
            if neg is not None:
                out[neg] = -aj
            if offset:
                r -= aj * offset
        return out, r

    # Standard form rows with slack/surplus columns, negated where needed
    # so the rhs is nonnegative.  A row starts basic on its slack when the
    # slack's entry is then +1, otherwise on an artificial with entry +1.
    # Each row is scaled to coprime integers; its basic entry is its scale.
    std = [to_standard(a, rhs) + (rel,) for a, rel, rhs in all_rows]
    m = len(std)
    n_slack = sum(1 for _, _, rel in std if rel != EQ)
    total = ncols + n_slack
    # one artificial per row whose slack, if any, is not +1 once the row's
    # rhs is made nonnegative
    width = total + sum(1 for _, r, rel in std if rel == EQ or (rel == LE) == (r < 0))
    T = [None]
    basis = []
    slack_at, art_at = ncols, total
    for coeffs, r, rel in std:
        sign = -1 if r < 0 else 1
        row = coeffs + [0] * (width - ncols) + [r]
        col = None
        if rel != EQ:
            row[slack_at] = 1 if rel == LE else -1
            if row[slack_at] == sign:
                col = slack_at
            slack_at += 1
        if col is None:
            row[art_at] = sign
            col = art_at
            art_at += 1
        basis.append(col)
        row = _coprime(_integer_rows([row])[0])
        T.append([-x for x in row] if sign < 0 else row)

    def price_out(z, terms):
        """z plus w * (row i over its basic entry) for each (i, w) in terms,
        with every term multiplied by the lcm of those entries."""
        scale = lcm(*(T[i][basis[i - 1]] for i, _ in terms))
        z = [scale * x for x in z]
        for i, w in terms:
            f = w * (scale // T[i][basis[i - 1]])
            z = [a + f * b for a, b in zip(z, T[i])]
        return _coprime(z)

    if width > total:
        # Phase 1: maximize -(sum of artificials); price out the basic ones.
        arts = [(i, -1) for i in range(1, m + 1) if basis[i - 1] >= total]
        T[0] = price_out([0] * total + [1] * (width - total) + [0], arts)
        if _run_simplex(T, basis, width) != "optimal" or T[0][-1] != 0:
            return LpResult("infeasible")
        # Drive leftover artificials out of the basis or drop their rows.
        drop = []
        for i in range(m):
            if basis[i] >= total:
                piv = None
                for j in range(total):
                    if T[i + 1][j] != 0:
                        piv = j
                        break
                if piv is None:
                    drop.append(i + 1)
                else:
                    _pivot(T, basis, i + 1, piv)
        for i in sorted(drop, reverse=True):
            del T[i]
            del basis[i - 1]
        m = len(T) - 1

    # Phase 2 objective: the objective row in standard form (its rhs part
    # unread), padded to the tableau width and priced out on the basic
    # columns.  Artificial columns never re-enter: phase 2 looks only at
    # the first `total` columns.
    obj = problem.objective
    c_std = to_standard(obj if problem.sense == "max" else [-x for x in obj], 0)[0]
    c_int = _integer_rows([c_std + [0] * (width + 1 - ncols)])[0]
    basic_costs = [(i, c_int[b]) for i, b in enumerate(basis, 1) if c_int[b] != 0]
    T[0] = price_out([-c for c in c_int], basic_costs)

    status = _run_simplex(T, basis, total)
    if status == "unbounded":
        return LpResult("unbounded")

    # a nonbasic column is zero, so only basic columns enter x, and a zero
    # offset is skipped as in to_standard
    basic = {b: Fraction(T[i][-1], T[i][b]) for i, b in enumerate(basis, 1)}
    x = []
    for offset, pos, neg in cols:
        v = offset
        if pos in basic:
            v = v + basic[pos] if v else basic[pos]
        if neg in basic:
            v = v - basic[neg] if v else -basic[neg]
        x.append(v)
    x = tuple(x)
    value = sum((problem.objective[j] * x[j] for j in range(n)), Fraction(0))
    return LpResult("optimal", x=x, value=value)


def lp_feasible(n, rows, bounds=None):
    """Feasibility check: True when the system has a point."""
    res = solve_lp(LpProblem(n, [0] * n, rows, bounds=bounds))
    return res.status == "optimal"


def _dd_extreme_rays(G):
    """Extreme rays of {u : Gu <= 0} for G of full column rank.

    Double description (Fukuda & Prodon, "Double description method
    revisited", 1996) with the combinatorial adjacency test, run in Python
    ints.  Each row of G is first scaled to integers; a positive row scale
    changes no sign, so the cone, the row order and every ray stay the
    same.  Each ray carries its values against all rows: a new ray is a
    positive combination of two old ones, divided by a gcd, and its values
    are the same combination of theirs, so no dot product is recomputed.
    The starting rays come from one nullspace_basis call, which also
    eliminates in ints.  Rays are returned as coprime tuples of ints.  The
    zero cone yields [].
    """
    G = _integer_rows(mat(G))
    m = len(G)
    k = len(G[0]) if G else 0
    if k == 0:
        return []
    base_idx = independent_rows(G)
    if len(base_idx) < k:
        raise LpError("cone is not pointed")
    # The nullspace of [G_B | I] has one vector per column of I, and its
    # first k entries are that column of -inv(G_B): G_B r_j = -e_j <= 0.
    start = nullspace_basis(
        [G[i] + [int(i == j) for j in base_idx] for i in base_idx]
    )
    rays = [tuple(_coprime(r)) for r in _integer_rows([v[:k] for v in start])]
    # vals[j][i] is row i of G applied to ray j
    vals = [[sum(a * b for a, b in zip(g, r)) for g in G] for r in rays]

    # masks track which processed rows are tight at each ray
    bit = {row_i: (1 << pos) for pos, row_i in enumerate(base_idx)}
    nextbit = k
    masks = []
    for v in vals:
        mk = 0
        for row_i in base_idx:
            if v[row_i] == 0:
                mk |= bit[row_i]
        masks.append(mk)

    base_set = set(base_idx)
    remaining = [i for i in range(m) if i not in base_set]
    while remaining:
        # process the row violated by the most rays next; cutting deep
        # early keeps the intermediate ray count down
        row_i = None
        best = None
        for cand in remaining:
            key = -sum(1 for v in vals if v[cand] > 0)
            if best is None or key < best:
                best = key
                row_i = cand
        remaining.remove(row_i)
        bit[row_i] = 1 << nextbit
        nextbit += 1
        row_vals = [v[row_i] for v in vals]
        if all(v <= 0 for v in row_vals):
            for j, v in enumerate(row_vals):
                if v == 0:
                    masks[j] |= bit[row_i]
            continue
        neg = [j for j, v in enumerate(row_vals) if v < 0]
        zero = [j for j, v in enumerate(row_vals) if v == 0]
        pos = [j for j, v in enumerate(row_vals) if v > 0]
        new_rays = []
        new_vals = []
        new_masks = []
        for p in pos:
            for q in neg:
                meet = masks[p] & masks[q]
                # adjacent rays of a pointed cone in R^k share k-2 tight rows
                if meet.bit_count() < k - 2 or any(
                    (masks[t] & meet) == meet
                    for t in range(len(rays))
                    if t != p and t != q
                ):
                    continue
                # vp > 0 > vq; positive combination killing row_i
                vp, vq = row_vals[p], row_vals[q]
                r = [vp * b - vq * a for a, b in zip(rays[p], rays[q])]
                g = gcd(*r)
                new_rays.append(tuple(x // g for x in r))
                new_vals.append(
                    [(vp * b - vq * a) // g for a, b in zip(vals[p], vals[q])]
                )
                new_masks.append(meet | bit[row_i])
        keep = neg + zero
        rays = [rays[j] for j in keep] + new_rays
        vals = [vals[j] for j in keep] + new_vals
        masks = [masks[j] for j in neg] + [
            masks[j] | bit[row_i] for j in zero
        ] + new_masks
    return rays


def enumerate_vertices(n, ineqs, eqs=(), bounds=None):
    """All vertices of {x : ineqs, eqs, bounds}, exactly.

    ineqs and eqs are (a, rhs) pairs meaning a . x <= rhs and a . x == rhs.
    Raises LpError when the feasible set is unbounded; an empty set gives [].
    """
    ineq_rows = [(vec(a), rat(b)) for a, b in ineqs]
    eq_rows = [(vec(a), rat(b)) for a, b in eqs]
    if bounds is not None:
        for j, (lb, ub) in enumerate(bounds):
            e = [Fraction(0)] * n
            e[j] = Fraction(1)
            if lb is not None:
                ineq_rows.append((tuple(-x for x in e), -rat(lb)))
            if ub is not None:
                ineq_rows.append((tuple(e), rat(ub)))

    # Homogenize: y = (x, t), equalities a.x = b become [a | -b] y = 0,
    # inequalities become [a | -b] y <= 0, plus t >= 0.
    hom_eq = [tuple(a) + (-b,) for a, b in eq_rows]
    hom_ineq = [tuple(a) + (-b,) for a, b in ineq_rows]
    hom_ineq.append(tuple([Fraction(0)] * n + [Fraction(-1)]))

    if hom_eq:
        N = nullspace_basis(hom_eq)
    else:
        N = nullspace_basis([], ncols=n + 1)
    if not N:
        return []
    # Each basis vector is scaled to integers.  A positive scale per vector
    # changes neither the rays nor their order, and y = sum of ray entry
    # times basis vector keeps its direction, so every vertex y/t is the
    # same; the rows are projected and the rays combined in ints.
    N = _integer_rows(N)
    k = len(N)
    G = [
        [sum(a * b for a, b in zip(row, v)) for v in N]
        for row in _integer_rows(hom_ineq)
    ]
    G = [row for row in G if not is_zero_vector(row)]
    if not G or rank(G) < k:
        # Lineality present: the set is empty or contains a line.
        frows = [(a, LE, b) for a, b in ineq_rows] + [(a, EQ, b) for a, b in eq_rows]
        if lp_feasible(n, frows):
            raise LpError("feasible set is unbounded")
        return []

    rays = _dd_extreme_rays(G)
    vertices = []
    unbounded_dir = False
    for r in rays:
        y = [sum(c * v[i] for c, v in zip(r, N)) for i in range(n + 1)]
        t = y[n]
        if t > 0:
            vertices.append(tuple(Fraction(y[i], t) for i in range(n)))
        elif t < 0:
            raise LpError("homogenization produced a negative-t ray")
        else:
            if not is_zero_vector(y):
                unbounded_dir = True
    if vertices and unbounded_dir:
        raise LpError("feasible set is unbounded")
    if not vertices and unbounded_dir:
        return []
    seen = set()
    out = []
    for v in vertices:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def facets_of_hull(points):
    """Facet inequalities (a, rhs) of the convex hull of points.

    Every returned inequality satisfies a . p <= rhs for all input points
    and is tight on a facet of the hull relative to its affine hull; a
    lies in the hull's direction space.  Points that affinely span their
    ambient space give its ordinary facets, and a single point gives [].
    """
    pts = [vec(p) for p in points]
    if not pts:
        raise ValueError("no points")
    r = len(pts[0])
    # Cone over (a, gamma) with p.a - gamma <= 0 per point, and n.a == 0,
    # as two rows, per normal n of the affine hull.  The cone is then
    # pointed, and its extreme rays with a != 0 are the relative facets.
    G = [tuple(p) + (Fraction(-1),) for p in pts]
    for n, _ in affine_hull(pts)[0]:
        G += [tuple(n) + (Fraction(0),), tuple(-x for x in n) + (Fraction(0),)]
    rays = _dd_extreme_rays(G)
    facets = []
    for ray in rays:
        a, gamma = ray[:r], ray[r]
        if is_zero_vector(a):
            continue
        facets.append((tuple(Fraction(x) for x in a), Fraction(gamma)))
    return facets
