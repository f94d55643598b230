"""Reference helpers that several test modules share as oracles.

They restate a fact in the simplest way, independently of the package
code it checks.  Ranks, nullspaces and affine hulls come from row_reduce,
a plain Fraction reduction, never from the package's integer kernel; only
dense_gauss_jordan and double_description_by_values, kept byte for byte
as package algorithms stood, reduce with package routines.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from cdcbranch.encodings import EncodingError, exotic_code
from cdcbranch.formulation import _LINE_SPAN, FormulationError
from cdcbranch.lp import EQ, GE, LE, LpError, LpProblem, _dd_start, lp_feasible
from cdcbranch.numerics import _coprime, _integer_rows, dot, is_zero_vector, vec
from cdcbranch.oracle import embedding_points


def canonical_inequality(a, rhs):
    """Scale a . x <= rhs by a positive factor to coprime integers."""
    full = [Fraction(x) for x in (*a, rhs)]
    scale = lcm(*(x.denominator for x in full))
    ints = [x.numerator * (scale // x.denominator) for x in full]
    g = gcd(*ints) or 1
    return tuple(Fraction(x // g) for x in ints[:-1]), Fraction(ints[-1] // g)


def contains_by_fractions(Q, z):
    """CodeRelaxation.contains by Fraction dot products: each row of Q,
    a . z, compared with its rhs."""
    for a, rel, rhs in Q.rows:
        v = dot(a, z)
        if rel == LE and v > rhs:
            return False
        if rel == GE and v < rhs:
            return False
        if rel == EQ and v != rhs:
            return False
    return True


def separation_certificates_exotic(r):
    """Per-code separating inequalities for the exotic family of size 4r.

    Returns one (c, b) per code, meant to hold c . h > b at that code and
    c . h <= b at every other.  Each threshold b is anchored at the code
    four positions away.  r >= 2.
    """
    if r < 2:
        raise EncodingError("certificates need r >= 2")
    cs = []
    for k in range(1, r + 1):
        cs.append((Fraction(-(2 * (r - k) + 3)), Fraction(-2)))
        cs.append((Fraction(2 * (r - k) + 3), Fraction(-2)))
        cs.append((Fraction(2 * (r - k) + 1), Fraction(2)))
        cs.append((Fraction(-(2 * (r - k) + 1)), Fraction(2)))
    H = list(exotic_code(4 * r))
    certs = []
    for i, c in enumerate(cs):
        j = i + 4 if i < 4 else i - 4
        certs.append((c, c[0] * H[j][0] + c[1] * H[j][1]))
    return certs


def in_hull_lp(H, point):
    """The LP oracle: point is a convex combination of the codes H."""
    d = len(H)
    rows = [([h[k] for h in H], EQ, point[k]) for k in range(len(point))]
    rows.append(([1] * d, EQ, 1))
    return lp_feasible(d, rows, bounds=[(0, None)] * d)


def convex_position_lp(H):
    """The LP oracle for convex position: no point of H is a convex
    combination of the others.  A single point is in convex position."""
    return len(H) == 1 or not any(
        in_hull_lp(H[:i] + H[i + 1 :], h) for i, h in enumerate(H)
    )


def canonical_direction(v):
    """Scale a nonzero vector so its first nonzero entry is +1."""
    v = vec(v)
    for x in v:
        if x != 0:
            return tuple(y / x for y in v)
    raise ValueError("zero vector has no canonical direction")


def row_reduce(M):
    """(rows, pivots): the reduced row echelon form of M in Fractions, one
    row per pivot, 1 at its pivot column and 0 at every other one, and
    the pivot columns in order: each column that the columns before it
    do not span."""
    rows = [[Fraction(x) for x in row] for row in M]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        h = len(pivots)
        piv = next((i for i in range(h, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[h], rows[piv] = rows[piv], rows[h]
        rows[h] = [x / rows[h][col] for x in rows[h]]
        for i, row in enumerate(rows):
            if i != h and row[col] != 0:
                rows[i] = [x - row[col] * y for x, y in zip(row, rows[h])]
        pivots.append(col)
    return rows[: len(pivots)], pivots


def rank_by_reduction(M):
    """The rank of M: the pivots of its reduced row echelon form."""
    return len(row_reduce(M)[1])


def nullspace_by_reduction(M, n):
    """Basis of {v : Mv = 0}, M with n columns, in Fractions: one vector
    per free column f, 1 at f, 0 at every other free column and minus
    the entry at f of each reduced row at that row's pivot column.  No
    rows give the unit vectors."""
    rows, pivots = row_reduce(M)
    basis = []
    for f in range(n):
        if f not in pivots:
            v = [Fraction(int(j == f)) for j in range(n)]
            for c, row in zip(pivots, rows):
                v[c] = -row[f]
            basis.append(tuple(v))
    return basis


def affine_hull_by_reduction(points):
    """The affine hull of points as (a, beta) pairs, a . z == beta: a the
    nullspace of the differences from the first point, beta a there."""
    base = vec(points[0])
    diffs = [[x - y for x, y in zip(vec(p), base)] for p in points[1:]]
    return [(a, dot(a, base)) for a in nullspace_by_reduction(diffs, len(base))]


def independent_rows_by_rank(M):
    """Indices of the rows of M that the rows before them do not span,
    found one rank at a time."""
    chosen, rows = [], []
    for i, row in enumerate(M):
        if rank_by_reduction(rows + [row]) > len(rows):
            chosen.append(i)
            rows.append(row)
    return chosen


def dd_start_by_nullspace(G):
    """(B, rays, vals) as lp._dd_start gives them for the int rows G, k
    columns, found by three separate steps: B the greedy independent rows,
    then the nullspace of [G_B | I], whose vector for column j of I holds
    -inv(G_B) e_j in its first k entries, as coprime ints, then each ray's
    values against every row of G.  Raises LpError when G has column rank
    below k."""
    k = len(G[0])
    B = independent_rows_by_rank(G)
    if len(B) < k:
        raise LpError("cone is not pointed")
    start = nullspace_by_reduction(
        [list(G[i]) + [int(i == j) for j in B] for i in B], k + len(B)
    )
    rays = [tuple(_coprime(_integer_rows([v[:k]])[0])) for v in start]
    vals = [[sum(a * b for a, b in zip(g, r)) for g in G] for r in rays]
    return B, rays, vals


def spanned_hyperplane_normals_by_rank(C, ambient):
    """formulation.spanned_hyperplane_normals in Fractions, with a rank test
    per subset: normals of all hyperplanes of span(C) spanned by members
    of C, the members being vectors of length ambient.

    Normals are returned inside span(C), canonically scaled and deduped.
    A zero-dimensional span gives []; a one-dimensional span is rejected
    since no hyperplane family exists there.
    """
    dirs = []
    seen = set()
    for c in C:
        c = vec(c)
        if is_zero_vector(c):
            continue
        cd = canonical_direction(c)
        if cd not in seen:
            seen.add(cd)
            dirs.append(cd)
    if not dirs:
        return []
    dim = rank_by_reduction(dirs)
    if dim == 0:
        return []
    if dim == 1:
        raise FormulationError(_LINE_SPAN)
    # orthogonal complement of span(C): a normal must be orthogonal to it
    # to lie inside the span
    complement = nullspace_by_reduction(dirs, ambient)
    normals = []
    seen_n = set()
    for subset in combinations(dirs, dim - 1):
        if rank_by_reduction(subset) < dim - 1:
            continue
        system = list(subset) + list(complement)
        null = nullspace_by_reduction(system, ambient)
        if len(null) != 1:
            continue
        b = canonical_direction(null[0])
        if b not in seen_n:
            seen_n.add(b)
            normals.append(b)
    return normals


def row_values(row):
    """(direction, lower, upper) of a TwoSidedRow as the Fractions its int
    numerators stand for over its denominator."""
    return tuple(
        tuple(Fraction(x, row.den) for x in part)
        for part in (row.direction, row.lower, row.upper)
    )


def planar_directions(H):
    """The row directions of the planar builder over the codes H: the
    perpendicular of each code difference, scaled in Fractions so its
    first nonzero entry is 1, deduped in pair order."""
    return list(
        dict.fromkeys(
            canonical_direction((k[1] - h[1], h[0] - k[0]))
            for h, k in combinations(H, 2)
        )
    )


def classify_rows_by_rank(form, vertices):
    """The facet census by affine dimension, in Fractions: a row is a facet
    when the vertices it holds with equality span one dimension less than
    all of them, never-tight when it holds at none, and tight-nonfacet
    otherwise.  Entries as oracle.classify_rows gives them."""
    if not vertices:
        raise LpError("empty relaxation cannot be classified")

    def dim(points):
        diffs = [[x - y for x, y in zip(p, points[0])] for p in points[1:]]
        return rank_by_reduction(diffs)

    full = dim(vertices)
    out = []
    for (row, side), a, rhs in form.one_sided():
        tight = [v for v in vertices if dot(a, v) == rhs]
        if not tight:
            cls = "never-tight"
        else:
            cls = "facet" if dim(tight) == full - 1 else "tight-nonfacet"
        out.append({"row": row, "side": side, "class": cls, "coeffs": a, "rhs": rhs})
    return out


def dense_condensed_pivot(T, basis, N, r, q):
    """lp._pivot as it stood, with the dense update: every row but r
    becomes row*p - f*prow over all its entries, then its entry at q is
    -f*s and its scale row[-1]*p, divided by its gcd."""
    prow = T[r]
    prow = [-x for x in prow] if prow[q] < 0 else list(prow)
    p, s = prow[q], prow[-1]
    for i, row in enumerate(T):
        f = row[q]
        if i != r and f != 0:
            new = [x * p - f * y for x, y in zip(row, prow)]
            new[q] = -f * s
            new[-1] = row[-1] * p
            T[i] = _coprime(new)
    prow[q], prow[-1] = s, p
    T[r] = prow
    basis[r - 1], N[q] = N[q], basis[r - 1]


def dense_gauss_jordan(rows):
    """numerics._gauss_jordan as it stood, with the dense update: every
    row that holds the pivot column becomes row*p - f*prow over all its
    entries, divided by its gcd."""
    rows = [list(r) for r in rows]
    m, pivots = len(rows), []
    for col in range(len(rows[0]) if rows else 0):
        h = len(pivots)
        piv = next((i for i in range(h, m) if rows[i][col]), None)
        if piv is None:
            continue
        prow = _coprime([-x for x in rows[piv]] if rows[piv][col] < 0 else rows[piv])
        rows[piv], rows[h] = rows[h], prow
        p = prow[col]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != h:
                rows[i] = _coprime([x * p - f * y for x, y in zip(row, prow)])
        pivots.append(col)
        if h + 1 == m:
            break
    return rows[: len(pivots)], pivots


def double_description_by_values(G):
    """lp._double_description as it stood: (rays, vals), the extreme rays
    of {u : Gu <= 0} and vals[j][i], row i of G applied to ray j, each ray
    carrying its values against every row and its tight mask over the
    processed rows in processing order.  The zero cone yields ([], []); a
    cone that is not pointed raises LpError (from lp._dd_start)."""
    G = _integer_rows(G)
    m = len(G)
    k = len(G[0]) if G else 0
    if k == 0:
        return [], []
    base_idx, rays, vals = _dd_start(G)

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
        # process the row violated by the most rays next
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
    return rays, vals


def hull_coordinates_by_reduction(form):
    """J of oracle.certified_vertices as it was first found: the pivot
    columns, after the first, of one reduction of every row (1, p), p an
    embedding point."""
    return [c - 1 for c in row_reduce([(1,) + p for p in embedding_points(form)])[1][1:]]


# The simplex as it stood with one column per variable and one per slack
# (the full tableau), kept verbatim as the reference that lp.solve_lp, which
# stores only the nonbasic columns, must match pivot for pivot.  Its entry
# point is full_tableau_solve_lp, the old lp.solve_lp.

@dataclass
class _Result:
    """An LpResult as it stood, with x computed with the value."""

    status: str
    x: tuple = None
    value: Fraction = None
    pivots: int = 0
    tableau: object = None


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


def full_tableau_solve_lp(problem, parent=None):
    """Exact simplex.  Returns a _Result.

    Without parent the LP is solved cold: its rows enter an empty tableau
    by _add_rows, free variables are eliminated, and phase 1 is _run_dual
    on an all-zero row 0, which ends on a feasible basis or on a row that
    proves the LP infeasible.  The objective is then priced out for phase
    2.  parent is an optimal _Result of an LP with problem's n, objective
    and bounds; problem.rows are then added to parent's tableau by
    _add_rows, and _run_dual re-optimizes it.
    """
    if parent is not None:
        tab = parent.tableau
        if tab is None:
            raise ValueError("rows can be added only to an optimal result")
        base = tab.problem
        if (problem.n, problem.objective, problem.objective_den, problem.bounds) != (
            base.n, base.objective, base.objective_den, base.bounds,
        ):
            raise ValueError("added rows need the parent's n, objective and bounds")
        T, basis, aside = _add_rows(tab.T, tab.basis, tab.aside, problem.rows, tab.cols)
        status, pivots = _run_dual(T, basis)
        if status == "infeasible":
            return _Result("infeasible", pivots=pivots)
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
                    return _Result("infeasible")
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
        return _Result("infeasible", pivots=pivots)

    # Phase 2 objective: the objective row in standard form, priced out on
    # the set-aside rows, in their order, and then on the basic columns.
    c_std = _standard(problem.objective, 0, cols)[0]
    z = [-c for c in _integer_rows([c_std + [0] * (len(T[0]) - n)])[0]]
    z = _reduce(z, aside)
    T[0] = _reduce(z, [(b, T[i]) for i, b in enumerate(basis, 1)])
    # a free column that no row holds moves the objective both ways
    if any(T[0][j] != 0 for j in unheld):
        return _Result("unbounded", pivots=pivots)

    status, done = _run_simplex(T, basis)
    pivots += done
    if status == "unbounded":
        return _Result("unbounded", pivots=pivots)
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
    """The optimal _Result of a tableau: basic columns take their rhs,
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
    c = [Fraction(cj, problem.objective_den) for cj in problem.objective]
    value = sum((c[j] * x[j] for j in range(problem.n)), Fraction(0))
    return _Result("optimal", x=x, value=value, pivots=pivots, tableau=tab)
