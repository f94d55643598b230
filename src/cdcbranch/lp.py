"""Exact rational linear programming and vertex/facet enumeration.

The simplex gives each variable one column and each row one slack column,
on which the row starts basic: a GE row is negated, and an equality is
two rows, one per side.  A free variable is pivoted out on the first row
that holds it, and that row is set aside and back-substituted when x is
read, so every optimum is a basic solution: a vertex whenever the
feasible set is a polytope.  Phase 1 is the dual simplex on an all-zero
objective row, for which the slack basis is dual feasible; phase 2 is the
primal simplex.  Both use the lowest-index rule, so they cannot cycle.  An
optimal result keeps its tableau; solve_lp given that result adds rows
to its LP the same way and re-optimizes by the same dual simplex, which
is how branch and bound solves every node below the root.  Vertex
enumeration runs the double description method on the homogenization of
the input system, which keeps the work proportional to the actual face
structure instead of the number of basis subsets.

Both work in Python ints, with Fraction only at their boundary.  The
simplex scales each standard-form row to coprime integers as it builds
the tableau, prices out its objective rows in integers, and turns column
values into Fraction only when it reads them.  Double description scales
its rows to integers on the way in and takes its starting rays from an
integer nullspace; vertices become Fraction only on the way out, and
facets are returned as the coprime int rays themselves.  No float enters
either.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm

from .numerics import (
    _coprime,
    _integer_rows,
    _nullspace,
    affine_hull,
    independent_rows,
    is_zero_vector,
    nullspace_basis,
    rat,
    rank,
    vec,
)

LE, GE, EQ = "<=", ">=", "=="


class LpError(Exception):
    pass


class LpProblem:
    """maximize c . x subject to rows (a, rel, rhs) and bounds.

    bounds is a list of (lb, ub) pairs per variable, None meaning
    unbounded on that side.  Omitted bounds default to free variables.
    """

    def __init__(self, n, objective, rows, bounds=None):
        self.n = n
        self.objective = vec(objective)
        if len(self.objective) != n:
            raise ValueError("objective length mismatch")
        self.rows = []
        for a, rel, rhs in rows:
            # a tuple of ints is kept as it is; vec makes any other Fractions
            if type(a) is not tuple or not all(map(isinstance, a, repeat(int))):
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


@dataclass
class _Tableau:
    """An optimal tableau, kept so that rows can be added to its LP.

    T and basis are the integer tableau, row 0 the reduced costs.  aside
    lists (column, row) for each eliminated free variable, in elimination
    order.  cols maps variable j to column j as (offset, sign), and problem
    is the LP whose rows T holds, for its n, objective and bounds.
    """

    T: list
    basis: list
    aside: list
    cols: list
    problem: LpProblem


@dataclass
class LpResult:
    """status is 'optimal', 'infeasible', or 'unbounded'; pivots counts
    the pivots of this solve.  An optimal result keeps its tableau, from
    which solve_lp re-optimizes the LP with rows added."""

    status: str
    x: tuple = None
    value: Fraction = None
    pivots: int = 0
    tableau: _Tableau = field(default=None, repr=False, compare=False)


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


def _reduce(row, pivots):
    """row with column c eliminated by prow, for each (c, prow) in turn,
    as _pivot eliminates it; prow[c] must be positive."""
    for c, prow in pivots:
        f = row[c]
        if f != 0:
            p = prow[c]
            row = _coprime([x * p - f * y for x, y in zip(row, prow)])
    return row


def _run_simplex(T, basis):
    """Pivot until optimal or unbounded.  Row 0 holds reduced costs for a
    maximization; entering variable is the lowest index with a negative
    entry, leaving row breaks ratio ties on the lowest basic variable
    (Bland's rule).  Returns ('optimal' or 'unbounded', pivots).

    T holds Python ints: each row is a positive multiple of its Fraction
    row, so every sign is the same, and the ratio rhs_i / a_i is compared
    by cross-multiplication, where the row scale cancels."""
    m = len(T) - 1
    pivots = 0
    while True:
        enter = None
        for j in range(len(T[0]) - 1):
            if T[0][j] < 0:
                enter = j
                break
        if enter is None:
            return "optimal", pivots
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
            return "unbounded", pivots
        _pivot(T, basis, leave, enter)
        pivots += 1


def _run_dual(T, basis):
    """Dual simplex from a tableau with no negative reduced cost, until
    every basic value is nonnegative.  The leaving row is the negative one
    with the lowest basic variable; the entering column has the least
    ratio T[0][j] / -T[r][j] over the row's negative entries, the lowest
    column on ties: Bland's rule on the dual, so it cannot cycle even when
    row 0 is all zero and every ratio ties.  Returns ('optimal' or
    'infeasible', pivots): with no negative entry, the row sums
    nonnegative terms to a negative value."""
    pivots = 0
    while True:
        leave = None
        for i in range(1, len(T)):
            if T[i][-1] < 0 and (leave is None or basis[i - 1] < basis[leave - 1]):
                leave = i
        if leave is None:
            return "optimal", pivots
        row, cost = T[leave], T[0]
        enter = None
        for j in range(len(row) - 1):
            a = row[j]
            # d / -a < best_d / -best_a, both denominators positive
            if a < 0 and (enter is None or cost[j] * best_a > best_d * a):
                enter, best_d, best_a = j, cost[j], a
        if enter is None:
            return "infeasible", pivots
        _pivot(T, basis, leave, enter)
        pivots += 1


def _standard(a, rhs, cols):
    """Row a . x (rel) rhs over the columns: column j is sign * (x_j -
    offset), so its entry is sign * a_j and a_j * offset moves to rhs."""
    out = []
    for aj, (offset, sign) in zip(a, cols):
        out.append(aj if sign > 0 else -aj)
        if offset and aj:
            rhs -= aj * offset
    return out, rhs


def solve_lp(problem, parent=None):
    """Exact simplex.  Returns an LpResult.

    Without parent the LP is solved cold: its rows enter an empty tableau
    by _add_rows, free variables are eliminated, and phase 1 is _run_dual
    on an all-zero row 0, which ends on a feasible basis or on a row that
    proves the LP infeasible.  The objective is then priced out for phase
    2.  parent is an optimal LpResult of an LP with problem's n, objective
    and bounds; problem.rows are then added to parent's tableau by
    _add_rows, and _run_dual re-optimizes it.
    """
    if parent is not None:
        tab = parent.tableau
        if tab is None:
            raise ValueError("rows can be added only to an optimal LpResult")
        base = tab.problem
        if (problem.n, problem.objective, problem.bounds) != (
            base.n, base.objective, base.bounds,
        ):
            raise ValueError("added rows need the parent's n, objective and bounds")
        T, basis, aside = _add_rows(tab.T, tab.basis, tab.aside, problem.rows, tab.cols)
        status, pivots = _run_dual(T, basis)
        if status == "infeasible":
            return LpResult("infeasible", pivots=pivots)
        return _optimum(_Tableau(T, basis, aside, tab.cols, base), pivots)
    n = problem.n

    # Variable j is column j: x_j = offset + sign * column.  A lower bound
    # gives (lb, 1), an upper bound alone (ub, -1), and a free variable
    # (0, 1), its 0 one shared Fraction so that x is a Fraction even when
    # the variable is held by no row.  An upper bound next to a lower one
    # becomes an extra row.
    zero = Fraction(0)
    cols = []
    free = []
    extra_rows = []
    for j, (lb, ub) in enumerate(problem.bounds):
        if lb is not None:
            if ub is not None:
                if ub < lb:
                    return LpResult("infeasible")
                extra_rows.append(([int(k == j) for k in range(n)], LE, ub))
            cols.append((lb, 1))
        elif ub is not None:
            cols.append((ub, -1))
        else:
            cols.append((zero, 1))
            free.append(j)
    T, basis, _ = _add_rows([[0] * (n + 1)], [], [], problem.rows + extra_rows, cols)

    # Each free variable is pivoted on the first row that holds it, and
    # that row is set aside: no other row holds the variable, and x_j is
    # read off the set-aside row.  Row k then holds no earlier free column,
    # so the set-aside rows are triangular.
    pivots = 0
    aside = []
    unheld = []
    for j in free:
        i = next((i for i in range(1, len(T)) if T[i][j] != 0), None)
        if i is None:
            unheld.append(j)
            continue
        _pivot(T, basis, i, j)
        pivots += 1
        aside.append((j, T.pop(i)))
        del basis[i - 1]

    # Phase 1: row 0 is all zero, so every reduced cost is nonnegative.
    status, done = _run_dual(T, basis)
    pivots += done
    if status == "infeasible":
        return LpResult("infeasible", pivots=pivots)

    # Phase 2 objective: the objective row in standard form, priced out on
    # the set-aside rows, in their order, and then on the basic columns.
    c_std = _standard(problem.objective, 0, cols)[0]
    z = [-c for c in _integer_rows([c_std + [0] * (len(T[0]) - n)])[0]]
    z = _reduce(z, aside)
    T[0] = _reduce(z, [(b, T[i]) for i, b in enumerate(basis, 1)])
    # a free column that no row holds moves the objective both ways
    if any(T[0][j] != 0 for j in unheld):
        return LpResult("unbounded", pivots=pivots)

    status, done = _run_simplex(T, basis)
    pivots += done
    if status == "unbounded":
        return LpResult("unbounded", pivots=pivots)
    return _optimum(_Tableau(T, basis, aside, cols, problem), pivots)


def _add_rows(T, basis, aside, rows, cols):
    """The tableau T, basis and aside with rows (a, rel, rhs) added, as new
    lists; the ones given are not changed.

    Each row gets a new slack column with entry 1 and starts basic on it:
    a GE row is negated, and an EQ row becomes two rows, one per side.  The
    row is scaled to coprime integers and reduced on the set-aside rows and
    then on the basic columns, so the tableau keeps its form and its
    reduced costs; a basic value can be negative, which _run_dual mends.
    """
    new = []
    for a, rel, rhs in rows:
        coeffs, r = _standard(a, rhs, cols)
        if rel != GE:
            new.append((coeffs, r))
        if rel != LE:
            new.append(([-x for x in coeffs], -r))
    total = len(T[0]) - 1
    pad = [0] * len(new)
    T = [row[:-1] + pad + row[-1:] for row in T]
    aside = [(j, row[:-1] + pad + row[-1:]) for j, row in aside]
    basis = list(basis)
    basic = [(b, T[i]) for i, b in enumerate(basis, 1)]
    for s, (coeffs, r) in enumerate(new, total):
        # scaled before the zeros go in, which change no lcm or gcd
        head = _coprime(_integer_rows([coeffs + [1, r]])[0])
        row = head[:-2] + [0] * (total - len(coeffs)) + pad + head[-1:]
        row[s] = head[-2]
        T.append(_reduce(_reduce(row, aside), basic))
        basis.append(s)
    return T, basis, aside


def _optimum(tab, pivots):
    """The optimal LpResult of a tableau: basic columns take their rhs,
    free variables are back-substituted from the set-aside rows, last
    first, and every other column is zero.  Column values are kept in ints
    over one common denominator, as numerics._nullspace keeps its vectors."""
    T = tab.T
    basic = [(b, T[i]) for i, b in enumerate(tab.basis, 1) if T[i][-1]]
    den = lcm(*(row[b] for b, row in basic))
    num = {b: row[-1] * (den // row[b]) for b, row in basic}
    for j, row in reversed(tab.aside):
        s = row[-1] * den - sum(row[k] * v for k, v in num.items())
        if s:
            # x_j = s / (den * p); scaling den by p / g keeps it integral
            p = row[j]
            g = gcd(s, p)
            if p != g:
                num = {k: v * (p // g) for k, v in num.items()}
                den *= p // g
            num[j] = s // g
    # a zero offset is skipped as in _standard
    x = []
    for j, (offset, sign) in enumerate(tab.cols):
        v = num.get(j)
        if v is None:
            x.append(offset)
            continue
        v = Fraction(v if sign > 0 else -v, den)
        x.append(offset + v if offset else v)
    x = tuple(x)
    problem = tab.problem
    value = sum((problem.objective[j] * x[j] for j in range(problem.n)), Fraction(0))
    return LpResult("optimal", x=x, value=value, pivots=pivots, tableau=tab)


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
    G may hold ints or Fractions; its integer rows reach rank and
    independent_rows as ints, and the starting rays come from one integer
    nullspace (numerics._nullspace), so no row becomes Fraction.  Rays are returned as coprime tuples of ints.
    The zero cone yields [].
    """
    G = _integer_rows(G)
    m = len(G)
    k = len(G[0]) if G else 0
    if k == 0:
        return []
    base_idx = independent_rows(G)
    if len(base_idx) < k:
        raise LpError("cone is not pointed")
    # The nullspace of [G_B | I] has one vector per column of I, and its
    # first k entries are that column of -inv(G_B): G_B r_j = -e_j <= 0.
    start = _nullspace([G[i] + [int(i == j) for j in base_idx] for i in base_idx])
    rays = [tuple(_coprime(v[:k])) for v, _ in start]
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


def enumerate_vertices(n, rows, bounds=None):
    """All vertices of {x : rows, bounds}, exactly.

    rows and bounds are as in LpProblem, which checks and coerces them:
    rows (a, rel, rhs), and bounds a list of (lb, ub) pairs, None meaning
    unbounded on that side.  The rows are split by relation here and
    nowhere else: double description runs on the inequalities in the
    nullspace of the equalities.  Raises LpError when the feasible set is
    unbounded; an empty set gives [].
    """
    problem = LpProblem(n, (0,) * n, rows, bounds)
    # Homogenize: y = (x, t), and a row a . x (rel) b becomes [a | -b] y
    # (rel) 0.  A GE row is negated, each bound is one more inequality,
    # and t >= 0 closes the cone.
    hom_ineq = []
    hom_eq = []
    for a, rel, rhs in problem.rows:
        row = a + (-rhs,)
        if rel == LE:
            hom_ineq.append(row)
        elif rel == GE:
            hom_ineq.append(tuple(-x for x in row))
        else:
            hom_eq.append(row)
    for j, (lb, ub) in enumerate(problem.bounds):
        e = tuple(Fraction(int(k == j)) for k in range(n))
        if lb is not None:
            hom_ineq.append(tuple(-x for x in e) + (lb,))
        if ub is not None:
            hom_ineq.append(e + (-ub,))
    hom_ineq.append((Fraction(0),) * n + (Fraction(-1),))

    N = nullspace_basis(hom_eq, ncols=n + 1)
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
        if solve_lp(problem).status == "optimal":
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
    Each inequality is a coprime int row: a is a tuple of ints and rhs an
    int, as the double description returns its rays.
    """
    pts = [vec(p) for p in points]
    if not pts:
        raise ValueError("no points")
    r = len(pts[0])
    # Cone over (a, gamma) with p.a - gamma <= 0 per point, and n.a == 0,
    # as two rows, per normal n of the affine hull.  The cone is then
    # pointed, and its extreme rays with a != 0 are the relative facets.
    G = [tuple(p) + (-1,) for p in pts]
    for n, _ in affine_hull(pts)[0]:
        G += [tuple(n) + (0,), tuple(-x for x in n) + (0,)]
    return [
        (ray[:r], ray[r]) for ray in _dd_extreme_rays(G) if not is_zero_vector(ray[:r])
    ]
