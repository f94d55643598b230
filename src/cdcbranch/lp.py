"""Exact rational linear programming and vertex/facet enumeration.

The simplex keeps a condensed integer tableau: each row holds its entries
on the n nonbasic variables, its rhs and the entry of its basic variable,
and a pivot swaps one basic variable with one nonbasic one.  Every row
starts basic on its own slack: a GE row is negated, and an equality is two
rows, one per side.  A free variable is pivoted in on the first row that
holds it, and that row is set aside, kept reduced but never left, so x is
read off the rows and every optimum is a basic solution: a vertex
whenever the feasible set is a polytope.  Rows reach an optimal tableau by
one path: they are added, the free variables they hold are pivoted in, and
the dual simplex restores feasibility.  A cold solve starts from the empty
tableau, whose all-zero objective row makes the slack basis dual feasible,
so this is its phase 1, and the primal simplex is its phase 2.  A warm
solve starts from an optimal result's tableau and ends no wider, which is
how branch and bound solves every node below the root.  A warm solve that
adds no rows carries its own objective instead: phase 2 alone, priced out
on the parent's basis, so one phase 1 serves every objective over the
same rows, as in formulation.compute_bigm.  Both simplex
methods use the lowest-index rule on each variable's column in the full
tableau (variables, then one slack per row), so they cannot cycle and take
the full tableau's pivots.  Vertex enumeration runs the double description
method on the homogenization of the input system, which keeps the work
proportional to the actual face structure instead of the number of basis
subsets.

Both work in Python ints, with Fraction only at their boundary.  LpProblem
holds each row as ints, scaled once where it takes the row, and its
objective as ints over one denominator; the simplex scales a row again
only by its rhs's denominator, which a bound or a shifted column can
leave, and prices out its objective rows in integers.  A pivot changes a
row only where the pivot row is nonzero.  An optimum's value is summed in
ints and becomes one Fraction; its point is read off the kept tableau, in
Fractions, only when something asks for it.  A child LP of branch and
bound takes its cuts as the int rows they already are.  Double
description scales its rows to integers on the way in and takes its
starting rays, and their values, from one integer reduction of
[G^T | I].  Each ray keeps its values only against the rows still to
come and its tight mask over the rows processed, bit i for row i, so
every ray leaves with its full tight mask, which the certificate reads;
vertices become Fraction only on the way out, and facets are returned as
the coprime int rays themselves, of points given in ints over one
denominator with the normals of their affine hull (Encoding).
No float enters either.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import eq

from .numerics import (
    _coprime,
    _gauss_jordan,
    _integer_rows,
    _nullspace,
    _scaled,
    is_zero_vector,
    rat,
)

LE, GE, EQ = "<=", ">=", "=="
_positive = (0).__lt__


class LpError(Exception):
    pass


class LpProblem:
    """maximize c . x subject to rows (a, rel, rhs) and bounds.

    bounds is a list of (lb, ub) pairs per variable, None meaning
    unbounded on that side.  Omitted bounds default to free variables.
    Each row is kept as a tuple of ints a and an int rhs, scaled by the lcm
    of its denominators.  The objective is kept the same way, as a tuple of
    ints, with that lcm kept as objective_den: c is objective over
    objective_den.  A tuple of ints is kept as it is, over 1.
    """

    def __init__(self, n, objective, rows, bounds=None):
        self.n = n
        self._objective(objective)
        self.rows = self._rows(rows)
        if bounds is None:
            bounds = [(None, None)] * n
        if len(bounds) != n:
            raise ValueError("bounds length mismatch")
        self.bounds = [
            (None if lb is None else rat(lb), None if ub is None else rat(ub))
            for lb, ub in bounds
        ]

    def with_rows(self, rows, objective=None, kept=False):
        """This LP with rows in place of its own, and objective in place of
        its own when one is given.  Only what is given is checked and
        coerced; n, the bounds, a kept objective and kept rows (this LP's
        own list) are shared, so a child LP matches its parent's at no cost.
        kept says that rows are already as this class keeps them, each a
        tuple of n ints, a relation and an int rhs, as branch and bound's
        cuts are (a CodeRelaxation's rows, padded over lam or x): they are
        then taken as they are, unchecked."""
        new = object.__new__(LpProblem)
        new.n, new.bounds = self.n, self.bounds
        new.objective, new.objective_den = self.objective, self.objective_den
        if objective is not None:
            new._objective(objective)
        new.rows = rows if kept or rows is self.rows else new._rows(rows)
        return new

    def _objective(self, c):
        if type(c) is tuple and all(type(x) is int for x in c):
            den = 1
        else:
            den, c = _scaled(c)
            c = tuple(c)
        if len(c) != self.n:
            raise ValueError("objective length mismatch")
        self.objective, self.objective_den = c, den

    def _rows(self, rows):
        rows = list(rows)
        for a, rel, _ in rows:
            if len(a) != self.n:
                raise ValueError("row length mismatch")
            if rel not in (LE, GE, EQ):
                raise ValueError("unknown relation %r" % (rel,))
        ints = _integer_rows([(*a, rhs) for a, _, rhs in rows])
        return [(tuple(w[:-1]), rel, w[-1]) for w, (_, rel, _) in zip(ints, rows)]


@dataclass
class _Tableau:
    """An optimal tableau, kept so that rows can be added to its LP or a
    new objective priced on its basis.

    T is the condensed integer tableau.  Each row holds its entries on the
    nonbasic variables N, in that order, then its rhs, then the entry of
    its own basic variable (its scale, positive); row 0 holds the reduced
    costs and a scale of 0.  basis lists the basic variable of rows 1..,
    whose first aside rows hold the eliminated free variables.  A variable
    is known by its column in the full tableau: j for variable j, then one
    slack per standard row, in the order the rows came.  cols maps variable
    j to that column as (offset, sign), and problem is the LP whose
    objective row 0 prices, for its n, objective and bounds: the LP that
    the first rows came from, or the one a repriced solve took.  A cold
    solve starts from the empty tableau: row 0 all zero, no basis,
    N = range(n).
    """

    T: list
    basis: list
    N: list
    aside: int
    cols: list
    problem: LpProblem


@dataclass
class LpResult:
    """status is 'optimal', 'infeasible', or 'unbounded'; pivots counts
    the pivots of this solve.  An optimal result has its value, a
    Fraction, and keeps its tableau, from which solve_lp re-optimizes the
    LP with rows added and from which x, the optimal point as a tuple of
    Fractions, is read on first use (None unless optimal)."""

    status: str
    value: Fraction = None
    pivots: int = 0
    tableau: _Tableau = field(default=None, repr=False, compare=False)

    @cached_property
    def x(self):
        return None if self.tableau is None else _point(self.tableau)


def _pivot(T, basis, N, r, q):
    """Pivot the condensed integer tableau on row r and nonbasic column q:
    basis[r - 1] and N[q] change places.  Row r keeps its scale, made
    positive at q, and the entry of its old basic variable moves to column
    q.  Every other row becomes row*p - f*prow, a positive multiple of what
    the Fraction pivot gives, divided by its gcd: the full tableau's row
    without its zero entries, so the gcd is the same.  The update is
    sparse: a row is multiplied by p (not at all when p is 1), and f*prow
    is taken off only where prow is nonzero, the same ints as the dense
    update.  No row is changed in place, so a child tableau shares its
    parent's rows until they pivot."""
    prow = T[r]
    prow = [-x for x in prow] if prow[q] < 0 else list(prow)
    p, s = prow[q], prow[-1]
    last = len(prow) - 1
    nonzero = [(k, y) for k, y in enumerate(prow) if y and k != q and k != last]
    for i, row in enumerate(T):
        f = row[q]
        if i != r and f != 0:
            new = [x * p for x in row] if p != 1 else list(row)
            for k, y in nonzero:
                new[k] -= f * y
            new[q] = -f * s
            T[i] = _coprime(new)
    prow[q], prow[-1] = s, p
    T[r] = prow
    basis[r - 1], N[q] = N[q], basis[r - 1]


def _run_simplex(T, basis, N, aside):
    """Pivot until optimal or unbounded.  Row 0 holds reduced costs for a
    maximization; entering variable is the lowest one with a negative
    entry, leaving row breaks ratio ties on the lowest basic variable
    (Bland's rule).  The rows of free variables, the first aside, never
    leave.  Returns ('optimal' or 'unbounded', pivots).

    T holds Python ints: each row is a positive multiple of its Fraction
    row, so every sign is the same, and the ratio rhs_i / a_i is compared
    by cross-multiplication, where the row scale cancels."""
    pivots = 0
    while True:
        cost = T[0]
        negative = (q for q in range(len(N)) if cost[q] < 0)
        enter = min(negative, key=N.__getitem__, default=None)
        if enter is None:
            return "optimal", pivots
        leave = None
        for i in range(aside + 1, len(T)):
            a = T[i][enter]
            if a > 0:
                if leave is None:
                    leave, best_rhs, best_a = i, T[i][-2], a
                    continue
                lhs, rhs = T[i][-2] * best_a, best_rhs * a
                if lhs < rhs or (lhs == rhs and basis[i - 1] < basis[leave - 1]):
                    leave, best_rhs, best_a = i, T[i][-2], a
        if leave is None:
            return "unbounded", pivots
        _pivot(T, basis, N, leave, enter)
        pivots += 1


def _run_dual(T, basis, N, aside):
    """Dual simplex from a tableau with no negative reduced cost, until
    every basic value is nonnegative.  The leaving row is the negative one
    with the lowest basic variable, past the first aside rows, whose free
    variables may be negative; the entering variable has the least ratio
    T[0][q] / -T[r][q] over the row's negative entries, the lowest one on
    ties: Bland's rule on the dual, so it cannot cycle even when row 0 is
    all zero and every ratio ties.  Returns ('optimal' or 'infeasible',
    pivots): with no negative entry, the row sums nonnegative terms to a
    negative value."""
    pivots = 0
    while True:
        leave = None
        for i in range(aside + 1, len(T)):
            if T[i][-2] < 0 and (leave is None or basis[i - 1] < basis[leave - 1]):
                leave = i
        if leave is None:
            return "optimal", pivots
        row, cost = T[leave], T[0]
        enter = None
        for q in sorted((q for q in range(len(N)) if row[q] < 0), key=N.__getitem__):
            # d / -a < best_d / -best_a, both denominators positive
            if enter is None or cost[q] * best_a > best_d * row[q]:
                enter, best_d, best_a = q, cost[q], row[q]
        if enter is None:
            return "infeasible", pivots
        _pivot(T, basis, N, leave, enter)
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


def _condense(rows, T, basis, N):
    """rows, each a row's entries on the structural variables and then its
    rhs and scale, as rows of the condensed tableau T.  An entry on a
    nonbasic variable moves to its column in N.  One on a basic variable
    rides at the end of the row until it is eliminated on that variable's
    row, as _pivot eliminates a column.  The row that results is the full
    tableau's reduced row, in any order of elimination: the one coprime
    positive multiple of the row over the nonbasic variables.  Before any
    pivot N is the structural variables in order and none is basic, so the
    rows are kept as they are."""
    n = len(N)
    held = {j: i for i, j in enumerate(basis, 1) if j < n}
    if not held and N == list(range(n)):
        return rows
    out = []
    for row in rows:
        pend = [(held[j], x) for j, x in enumerate(row[:n]) if x and j in held]
        w = [row[j] if j < n else 0 for j in N] + row[n:] + [x for _, x in pend]
        for c, (i, _) in enumerate(pend, n + 2):
            prow = T[i]
            p, f, s = prow[-1], w[c], w[n + 1]
            # f is never 0: no row holds another row's basic variable
            w = [x * p - f * y for x, y in zip(w, prow)] + [x * p for x in w[n + 2:]]
            w[n + 1], w[c] = s * p, 0
            w = _coprime(w)
        out.append(w[:n + 2])
    return out


def solve_lp(problem, parent=None):
    """Exact simplex on a condensed tableau.  Returns an LpResult.

    The tableau keeps only the nonbasic columns, n of them in every row, and
    compares variables by their full-tableau columns, so every pivot is the
    one the full tableau takes.  Rows reach an optimal tableau by one path
    from a starting tableau: _add_rows adds the rows, each free variable
    still nonbasic is pivoted in on the first row that holds it, and
    _run_dual ends on a feasible basis or on a row that proves the LP
    infeasible.  A cold solve starts from the empty tableau and adds
    problem.rows, then the bound rows; _run_dual is its phase 1, and
    _phase_2 prices its objective out for _run_simplex.

    A warm solve starts from parent, an optimal LpResult of an LP with
    problem's n and bounds, in one of two forms.  When problem has rows,
    they are added to the parent's, and problem must carry the parent's
    objective.  When it has none, problem carries its own objective over
    the parent's rows: the parent's basis is feasible, so _phase_2 alone
    prices that objective out and runs _run_simplex, with no row added and
    no dual pivot.  This is how one phase 1 serves every objective over the
    same rows: after it, a cold solve pivots on the tableau a repriced
    solve starts from, so both end alike, and the cold solve's pivots are
    the phase 1's and the repriced solve's together.  Either way pivots
    counts this solve's own pivots, and an optimal result's tableau
    belongs to problem, for later warm solves to start from.
    """
    n = problem.n
    if parent is None:
        # Variable j is column j: x_j = offset + sign * column.  A lower
        # bound gives (lb, 1), an upper bound alone (ub, -1), and a free
        # variable (0, 1), its 0 a Fraction so that x is a Fraction even
        # when no row holds the variable.  An upper bound next to a lower
        # one becomes a row.
        cols, bound_rows = [], []
        for j, (lb, ub) in enumerate(problem.bounds):
            if lb is not None:
                if ub is not None:
                    if ub < lb:
                        return LpResult("infeasible")
                    bound_rows.append(([int(k == j) for k in range(n)], LE, ub))
                cols.append((lb, 1))
            else:
                cols.append((Fraction(0), 1) if ub is None else (ub, -1))
        tab = _Tableau([[0] * (n + 2)], [], list(range(n)), 0, cols, problem)
        rows = problem.rows + bound_rows
    else:
        tab = parent.tableau
        if tab is None:
            raise ValueError("a warm solve needs an optimal LpResult")
        base = tab.problem
        if (n, problem.bounds) != (base.n, base.bounds):
            raise ValueError("a warm solve needs the parent's n and bounds")
        if not problem.rows:
            T, basis, N = list(tab.T), list(tab.basis), list(tab.N)
            return _phase_2(problem, _Tableau(T, basis, N, tab.aside, tab.cols, problem), 0)
        if (problem.objective, problem.objective_den) != (base.objective, base.objective_den):
            raise ValueError("added rows need the parent's objective")
        rows = problem.rows
    T, basis, N, aside = list(tab.T), list(tab.basis), list(tab.N), tab.aside
    _add_rows(T, basis, N, rows, tab.cols)

    # A free variable is pivoted on the first row that holds it, and that
    # row is set aside: moved up to follow the rows set aside before it,
    # where no ratio test reads it.  The pivots keep it reduced, so no other
    # row holds the variable and x_j is read off its row.  A free variable
    # that no row holds stays nonbasic at 0; its reduced cost is 0 in an
    # optimal parent, so its pivot leaves row 0 as it is.
    free = {j for j, (lb, ub) in enumerate(problem.bounds) if lb is None and ub is None}
    pivots = 0
    for q in range(n):
        if N[q] in free:
            i = next((i for i in range(aside + 1, len(T)) if T[i][q] != 0), None)
            if i is not None:
                _pivot(T, basis, N, i, q)
                pivots += 1
                aside += 1
                T.insert(aside, T.pop(i))
                basis.insert(aside - 1, basis.pop(i - 1))

    status, done = _run_dual(T, basis, N, aside)
    pivots += done
    if status == "infeasible":
        return LpResult("infeasible", pivots=pivots)
    tab = _Tableau(T, basis, N, aside, tab.cols, tab.problem)
    return _phase_2(problem, tab, pivots) if parent is None else _optimum(tab, pivots)


def _phase_2(problem, tab, pivots):
    """Phase 2 of problem on tab, a feasible tableau of its rows that it
    now owns, after pivots pivots: row 0 becomes problem's objective row in
    standard form, priced out on the rows of its basic variables, and
    _run_simplex takes it to the optimum or to an unbounded ray."""
    T, basis, N, cols = tab.T, tab.basis, tab.N, tab.cols
    z = [-c if sign > 0 else c for c, (_, sign) in zip(problem.objective, cols)]
    T[0] = _condense([z + [0, 0]], T, basis, N)[0]
    # a free variable that no row holds, which no pivot can take, moves
    # the objective both ways
    n, bounds = problem.n, problem.bounds
    if any(T[0][q] and bounds[j] == (None, None) for q, j in enumerate(N) if j < n):
        return LpResult("unbounded", pivots=pivots)
    status, done = _run_simplex(T, basis, N, tab.aside)
    pivots += done
    if status == "unbounded":
        return LpResult("unbounded", pivots=pivots)
    return _optimum(tab, pivots)


def _add_rows(T, basis, N, rows, cols):
    """Append rows (a, rel, rhs) to the tableau T and its basis.

    Each row gets a new slack variable with entry 1 and starts basic on it:
    a GE row is negated, and an EQ row becomes two rows, one per side.  The
    row is reduced on the rows of its basic structural variables, free ones
    included, and scaled to coprime integers, so the tableau keeps its
    form, its width and its reduced costs; a basic value can be negative,
    which _run_dual mends.  A free variable that the row holds and no row
    before it did stays in its column, for solve_lp to pivot in.  Each row
    holds ints, as LpProblem keeps it, but a bound row's rhs and the rhs
    that a shifted column leaves can be Fractions, so every row is scaled
    by its rhs's denominator.
    """
    plain = not any(offset or sign < 0 for offset, sign in cols)
    new = []
    for a, rel, rhs in rows:
        if not plain:
            a, rhs = _standard(a, rhs, cols)
        d = rhs.denominator
        new.append([x * d for x in a] + [rhs.numerator, d])
    for w, (_, rel, _) in zip(_condense(new, T, basis, N), rows):
        w = _coprime(w)
        if rel != GE:
            T.append(w)
            basis.append(len(N) + len(basis))
        if rel != LE:
            T.append([-x for x in w[:-1]] + w[-1:])
            basis.append(len(N) + len(basis))


def _optimum(tab, pivots):
    """The optimal LpResult of a tableau.  Its value, c . x, is summed in
    ints over a running lcm of denominators and becomes one Fraction: the
    objective's ints times each column's offset, then times sign * rhs over
    scale for each basic structural variable, all over objective_den.  Its
    x is left to _point, on first use."""
    c, cols, T = tab.problem.objective, tab.cols, tab.T
    num, den = 0, 1
    for cj, (offset, _) in zip(c, cols):
        if cj and offset:
            d = offset.denominator
            m = lcm(den, d)
            num, den = num * (m // den) + cj * offset.numerator * (m // d), m
    n = len(cols)
    for i, j in enumerate(tab.basis, 1):
        if j < n and c[j]:
            row = T[i]
            v, d = row[-2], row[-1]
            if v:
                m = lcm(den, d)
                v *= c[j] * (m // d)
                num, den = num * (m // den) + (v if cols[j][1] > 0 else -v), m
    value = Fraction(num, den * tab.problem.objective_den)
    return LpResult("optimal", value=value, pivots=pivots, tableau=tab)


def _point(tab):
    """The optimal point of a tableau, as Fractions: each basic structural
    variable, free ones included, takes its row's rhs over its scale, and
    every nonbasic one its column's offset."""
    T, n = tab.T, len(tab.cols)
    x = [offset for offset, _ in tab.cols]
    for i, j in enumerate(tab.basis, 1):
        row = T[i]
        v = row[-2]
        if j < n and v:
            offset, sign = tab.cols[j]
            v = Fraction(v if sign > 0 else -v, row[-1])
            # a zero offset is skipped as in _standard
            x[j] = offset + v if offset else v
    return tuple(x)


def lp_feasible(n, rows, bounds=None):
    """Feasibility check: True when the system has a point."""
    res = solve_lp(LpProblem(n, [0] * n, rows, bounds=bounds))
    return res.status == "optimal"


def _dd_start(G):
    """(B, rays, vals): the starting rays of double description on the
    integer rows G, k columns, from one reduction of [G^T | I].  Its pivot
    columns in G^T are B, the greedy base rows of G; a pivot in I means G
    has column rank below k, so the cone is not pointed and LpError is
    raised.  Reduced row j is G M_j, then M_j, with G_B M_j a positive
    multiple of e_j, so ray j is -M_j over the gcd of M_j: G_B ray_j <= 0,
    tight on every base row but row j.  vals[j], its values against every
    row of G, is minus the G M_j part over the same gcd."""
    m, k = len(G), len(G[0])
    cols = [list(col) + [int(c == j) for j in range(k)] for c, col in enumerate(zip(*G))]
    red, B = _gauss_jordan(cols)
    if B[-1] >= m:
        raise LpError("cone is not pointed")
    rays, vals = [], []
    for row in red:
        g = gcd(*row[m:])
        rays.append(tuple(-x // g for x in row[m:]))
        vals.append([-x // g for x in row[:m]])
    return B, rays, vals


def _double_description(G):
    """(rays, masks): the extreme rays of {u : Gu <= 0}, as coprime int
    tuples, and each ray's tight mask over the rows of G: bit i is set
    when row i applied to the ray is 0.  The zero cone yields ([], []); a
    cone that is not pointed (G of lower column rank) raises LpError.

    Double description (Fukuda & Prodon, "Double description method
    revisited", 1996) with the combinatorial adjacency test, in Python
    ints.  Each row of G is first scaled to ints, which changes no sign,
    so the cone, the row order and every ray stay the same.  The starting
    rays come from _dd_start, each tight on every base row but its own.
    Each ray keeps its values only against the rows still to come, in
    their order: a row's values are read once, when the row is processed,
    and turned into bits.  A new ray is a positive combination of two old
    ones, divided by a gcd, and its values the same combination of
    theirs, so no dot product is computed.  A mask holds bits of processed
    rows alone, which is what the adjacency test compares, and every row
    is processed by the end.
    """
    G = _integer_rows(G)
    m = len(G)
    k = len(G[0]) if G else 0
    if k == 0:
        return [], []
    base_idx, rays, vals = _dd_start(G)
    # starting ray j is tight on every base row but base_idx[j]
    base = sum(1 << i for i in base_idx)
    masks = [base ^ 1 << i for i in base_idx]
    remaining = [i for i in range(m) if not base >> i & 1]
    vals = [[v[i] for i in remaining] for v in vals]

    while remaining:
        # process the row violated by the most rays next, the first on
        # ties; cutting deep early keeps the intermediate ray count down
        violated = [sum(map(_positive, col)) for col in zip(*vals)]
        pos_i = violated.index(max(violated)) if violated else 0
        bit = 1 << remaining.pop(pos_i)
        row_vals = [v.pop(pos_i) for v in vals]
        if all(v <= 0 for v in row_vals):
            for j, v in enumerate(row_vals):
                if v == 0:
                    masks[j] |= bit
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
                # adjacent rays of a pointed cone in R^k share k-2 tight
                # rows, and no third ray is tight on all of them: meet lies
                # in the masks of p and q, so it must lie in two masks only
                if meet.bit_count() < k - 2 or sum(map(eq, map(meet.__or__, masks), masks)) > 2:
                    continue
                # vp > 0 > vq; positive combination killing the row
                vp, vq = row_vals[p], row_vals[q]
                r = [vp * b - vq * a for a, b in zip(rays[p], rays[q])]
                v = [vp * b - vq * a for a, b in zip(vals[p], vals[q])]
                g = gcd(*r)
                if g > 1:
                    r, v = [x // g for x in r], [x // g for x in v]
                new_rays.append(tuple(r))
                new_vals.append(v)
                new_masks.append(meet | bit)
        keep = neg + zero
        rays = [rays[j] for j in keep] + new_rays
        vals = [vals[j] for j in keep] + new_vals
        masks = [masks[j] for j in neg] + [masks[j] | bit for j in zero] + new_masks
    return rays, masks


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
        e = tuple(int(k == j) for k in range(n))
        if lb is not None:
            hom_ineq.append(tuple(-x for x in e) + (lb,))
        if ub is not None:
            hom_ineq.append(e + (-ub,))
    hom_ineq.append((0,) * n + (-1,))

    # The nullspace of the equalities in ints; a zero row stands in for
    # none, whose nullspace is the unit vectors.  Each basis vector v is
    # den times the one that is 1 at its free column: a positive scale per
    # vector changes neither the rays nor their order, and y = sum of ray
    # entry times basis vector keeps its direction, so every vertex y/t is
    # the same; the rows are projected and the rays combined in ints.
    N = [v for v, _ in _nullspace(hom_eq or [(0,) * (n + 1)])]
    if not N:
        return []
    G = [
        [sum(a * b for a, b in zip(row, v)) for v in N]
        for row in _integer_rows(hom_ineq)
    ]
    G = [row for row in G if not is_zero_vector(row)]
    try:
        # _double_description raises LpError when the cone is not pointed,
        # so one elimination both tests it and starts the rays
        rays = _double_description(G)[0] if G else None
    except LpError:
        rays = None
    if rays is None:
        # Lineality present: the set is empty or contains a line.
        if solve_lp(problem).status == "optimal":
            raise LpError("feasible set is unbounded")
        return []

    # each vertex as its coprime int (y, t), t > 0: two are the same vertex
    # exactly when these are equal, so duplicates go before any Fraction
    seen = {}
    unbounded_dir = False
    for r in rays:
        y = [sum(c * v[i] for c, v in zip(r, N)) for i in range(n + 1)]
        t = y[n]
        if t > 0:
            seen.setdefault(tuple(_coprime(y)), None)
        elif t < 0:
            raise LpError("homogenization produced a negative-t ray")
        elif not is_zero_vector(y):
            unbounded_dir = True
    if unbounded_dir:
        if seen:
            raise LpError("feasible set is unbounded")
        return []
    return [tuple(Fraction(x, y[n]) for x in y[:n]) for y in seen]


def facets_of_hull(points, den, normals):
    """Facet inequalities (a, rhs) of the convex hull of points, relative
    to their affine hull.

    points are int tuples over one positive int den, each point p / den,
    and normals int normals of their affine hull, as Encoding keeps its
    codes in scaled and hull.  Every returned inequality satisfies
    a . p <= rhs * den for all input points and is tight on a facet of
    the hull; a lies in the hull's direction space.  Points that affinely
    span their ambient space give its ordinary facets, and a single point
    gives [].  Each inequality is a coprime int row: a is a tuple of ints
    and rhs an int, as the double description returns its rays.
    """
    r = len(points[0])
    # Cone over (a, gamma) with p.a - den*gamma <= 0 per point, and
    # n.a == 0, as two rows, per normal n of the affine hull.  The cone is
    # then pointed, and its extreme rays with a != 0 are the relative facets.
    G = [tuple(p) + (-den,) for p in points]
    for n in normals:
        G += [tuple(n) + (0,), tuple(-x for x in n) + (0,)]
    rays = _double_description(G)[0]
    return [(ray[:r], ray[r]) for ray in rays if not is_zero_vector(ray[:r])]
