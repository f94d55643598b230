"""Brute-force and enumeration-based checks for built formulations.

Nothing here trusts the builders.  The checks read two tables, each
computed once per formulation: the code-value table (code_values), each
row's z part at each code, and the relaxation's vertices.  Validity is
checked point by point against the embedding from the first.
Idealness and the facet census, read off vertex-row incidences, come
from the second, and so does the projection property when the
relaxation is valid and ideal and the codes are in convex position: each
slice z = h_i is then a face, whose vertices are the relaxation's
vertices at h_i.  Elsewhere the projection property is checked by exact
LP probes on every slice, each an LP in lam alone with z fixed at a
code.  The vertices are the embedding points (embedding_points) when a
certificate proves the relaxation to be their hull (certified_vertices):
the hull of the few points (facets_of_hull), not the relaxation, gives
its facets with their tight masks, and each must be the mask of a row
or a bound, whose masks over the points come from the code-value table.
Only when it fails is the relaxation enumerated, by double description
(relaxation_vertices).  The certificate's vertices are ints, the
enumeration's Fractions; check_ideal and the projection read either as
ints, each vertex over the sum of its lam part, and compare ints;
check_branch_soundness audits a scheme's split by its children's
vertices.  These are the referees the rest of the package answers to.
"""

import warnings
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import partial, reduce
from itertools import compress
from operator import add, eq, itemgetter, mul, neg

from .branching import BranchError
from .encodings import is_convex_position
from .lp import EQ, LE, LpError, LpProblem, enumerate_vertices, facets_of_hull, lp_feasible, solve_lp
from .numerics import _gauss_jordan, _integer_rows, dot, format_ratio, rank, vec


@dataclass
class VerificationReport:
    """Outcome of one check: ok flag, failure descriptions, statistics."""

    kind: str
    ok: bool
    failures: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def __bool__(self):
        return self.ok

    def to_json(self):
        return asdict(self)


def _failure(where, alternative, component):
    return {"where": where, "alternative": alternative, "component": component}


def code_values(form):
    """The code-value table D: D[k][i] = direction_k . h_i, the z part of
    row k at the code of alternative i, from the row's int numerators and
    the codes' Encoding.scaled, an int where whole (so probe rows stay ints).

    Every one-sided row has right-hand side 0, so with z fixed at h_i the
    lower side of row k reads lower . lam <= D[k][i] and the upper side
    -upper . lam <= -D[k][i].  verify builds D once for check_valid and
    check_projection.
    """
    den, H = form.codes.scaled
    D = [[sum(map(mul, r.direction, h)) for h in H] for r in form.rows]
    return [[x // den if x % den == 0 else Fraction(x, den) for x in row] for row in D]


def check_valid(form, values):
    """Every embedding point must satisfy every row of the formulation.

    values is code_values(form).  The points of alternative i pair its
    code h_i with the unit vector of each component v in T^i, where row
    k holds when lower[v-1] <= D[k][i] <= upper[v-1].
    """
    failures = []
    for i, (T, h) in enumerate(zip(form.family.sets, form.codes)):
        off_hull = sum(dot(a, h) != b for a, b in form.hull_equations)
        for v in T:
            for k, (row, D) in enumerate(zip(form.rows, values)):
                if row.lower[v - 1] > D[i]:
                    failures.append(_failure("row %d lower" % k, i + 1, v))
                if row.upper[v - 1] < D[i]:
                    failures.append(_failure("row %d upper" % k, i + 1, v))
            failures += [_failure("hull equation", i + 1, v) for _ in range(off_hull)]
    points = sum(len(T) for T in form.family.sets)
    return VerificationReport("valid", not failures, failures, {"points": points})


def embedding_points(form):
    """The embedding points (e_v, h_i), v in T^i, as int points over (lam, z).

    Each is the point times den, the codes' common denominator
    (Encoding.scaled): den e_v, then the code's ints.  The artificial
    component is in no T^i, so it holds no point and reads 0 in every
    one.  Every one-sided row has right-hand side 0, so the scale moves no
    tight set.
    """
    den, H = form.codes.scaled
    points = []
    for T, h in zip(form.family.sets, H):
        for v in T:
            lam = [0] * form.n
            lam[v - 1] = den
            points.append(tuple(lam) + h)
    return points


def certified_vertices(form, values, valid):
    """(vertices, masks) when a certificate proves the relaxation's
    vertices to be the embedding points; None when it does not.  vertices
    are those points as embedding_points gives them, ints over the codes'
    den, and masks their tight masks, which classify_rows reads.

    values is code_values(form) and valid check_valid(form, values), which
    proves Q, the hull of the embedding points, inside the relaxation P.
    A polytope is its affine hull and its facets (Ziegler, Lectures on
    Polytopes, ch. 2), so P = Q when P lies in Q's affine hull and each
    facet of Q is the face of a one-sided row or a bound lam_c >= 0.  The
    certificate checks both.

    - Affine hull.  J, the pivot columns of the rows (1, p) after the
      first, p a point, are coordinates that Q's affine hull maps one to
      one, so it has dimension |J|; _hull_coordinates reads J off the
      points' structure.  Q lies in the solution set of P's
      equations (the hull equations, the simplex row and an artificial
      lam_n = 0), so the two are equal when their dimensions are.  When Q
      spans less, as it may for a disconnected family, the certificate
      does not hold, and the relaxation is enumerated instead.
    - Facets.  facets_of_hull finds the facets of the points p_J, which
      span their |J| coordinates, with no hull normals; each comes with
      its tight mask over the points.  Q is full-dimensional in its affine
      hull, so a valid inequality holds that facet exactly when its
      tight mask, read off values (_embedding_masks), is the facet's.
    """
    if not valid.ok:
        return None
    n, r = form.n, form.r
    points = embedding_points(form)
    J = _hull_coordinates(form)
    equations = [(0,) * n + a for a, _ in form.hull_equations] + [(1,) * n + (0,) * r]
    if form.artificial:
        equations.append((0,) * (n - 1) + (1,) + (0,) * r)
    if len(J) < n + r - rank(equations):
        return None
    masks = _embedding_masks(form, values)
    _, facet_masks = facets_of_hull([tuple(p[j] for j in J) for p in points], 1, [])
    if not set(masks).issuperset(facet_masks):
        return None
    return points, masks


def _embedding_masks(form, values):
    """The tight masks over the embedding points (embedding_points order)
    of each one-sided row, then of each bound lam_c >= 0, c < n, as
    _tight_masks gives them, read off the code-value table values: the
    lower side of row k is tight at (e_v, h_i) when lower[v-1] == D[k][i]
    and the upper side when upper[v-1] == D[k][i], the comparisons
    check_valid makes, and the bound lam_c >= 0 at every point but those
    with v = c + 1.  The work is by rows: one itemgetter gathers a side's
    coefficients at every point's component and one its values at every
    point's alternative, and the equal pairs pick out the points' bits."""
    alts = [i for i, T in enumerate(form.family.sets) for _ in T]
    comps = [v - 1 for T in form.family.sets for v in T]
    bits = [1 << j for j in range(len(comps))]
    # an index past the points makes each getter return a tuple, even for
    # one point; compress stops at the last point's bit
    at_alt, at_comp = itemgetter(*alts, 0), itemgetter(*comps, 0)
    masks = []
    for row, D in zip(form.rows, values):
        d = at_alt(D)
        masks.append(sum(compress(bits, map(eq, at_comp(row.lower), d))))
        masks.append(sum(compress(bits, map(eq, at_comp(row.upper), d))))
    held = [0] * form.n
    for bit, c in zip(bits, comps):
        held[c] |= bit
    full = (1 << len(comps)) - 1
    return masks + [full ^ h for h in held]


def _hull_coordinates(form):
    """J of certified_vertices: the pivot columns, after the first, of the
    rows (1, p), p an embedding point, read off the points' structure with
    no reduction of those rows.  Point (v, i) is den e_v over lam, then
    h_i.  The used lam columns are the indicators of disjoint groups of
    points that cover them all, so with the ones column they span the
    functions of v, and each is a pivot but the last, which the ones
    column and the others span.  A z column is then a pivot exactly when
    the columns before it and the functions of v do not span it, that is
    when its differences h_i - h_first within each component are not
    spanned by theirs: the pivot columns of those differences."""
    H = form.codes.scaled[1]
    first, diffs = {}, []
    for T, h in zip(form.family.sets, H):
        for v in T:
            f = first.setdefault(v, h)
            if f is not h:
                diffs.append([a - b for a, b in zip(h, f)])
    used = sorted(first)
    return [v - 1 for v in used[:-1]] + [form.n + c for c in _gauss_jordan(diffs)[1]]


def relaxation_vertices(form):
    """The vertices of the relaxation over (lam, z), by double description.

    Raises LpError when the relaxation is unbounded.  verify enumerates
    the relaxation only when certified_vertices fails, and then once, for
    check_ideal and classify_rows; the tests keep it as the certificate's
    reference.
    """
    sys = form.assemble()
    return enumerate_vertices(sys.nvars, sys.rows, sys.bounds)


def check_ideal(form, vertices):
    """Every vertex of the relaxation must carry a code in its z part.

    vertices is certified_vertices(form, ...)[0] when that certificate
    holds: the embedding points, each at a code.  Otherwise it is
    relaxation_vertices(form).  Both hold the same vertices when both
    exist, so the report does not depend on which one it read.  Each
    vertex is read in ints, as _vertex_ints gives it, and its z is a code
    when den z / s is one of the codes' ints (Encoding.scaled).
    """
    n, (den, H) = form.n, form.codes.scaled
    codes = set(H)
    failures = [
        {"where": "vertex with off-code z", "z": [format_ratio(x, s) for x in p[n:]]}
        for s, p in _vertex_ints(vertices, n)
        if _code_ints(p[n:], s, den) not in codes
    ]
    return VerificationReport("ideal", not failures, failures, {"vertices": len(vertices)})


def _vertex_ints(vertices, n):
    """Each vertex as (s, p): p a tuple of ints and s > 0 with p / s the
    vertex.  A vertex may be given as any positive multiple of itself, in
    ints (embedding_points) or in Fractions (relaxation_vertices), and is
    scaled to ints by the lcm of its denominators (numerics._integer_rows),
    which keeps ints as they are.  Every vertex has lam on the simplex, so
    s is the sum of p's lam part."""
    return [(sum(p[:n]), tuple(p)) for p in _integer_rows(vertices)]


def _code_ints(z, s, den):
    """z / s over den, as ints, the form of a code in Encoding.scaled; None
    when den z / s is not integral, so z / s is no code."""
    q = [x * den for x in z]
    return None if any(x % s for x in q) else tuple(x // s for x in q)


def check_projection(form, values, vertices=None):
    """Fixing z at code i must slice out exactly the face of alternative i.

    values is code_values(form).  vertices, when given, are the vertices
    check_ideal passed on, of a relaxation check_valid passed on; verify
    gives them only then.  With the codes in convex position too
    (is_convex_position), each slice is a face of the relaxation, and the
    verdict is read off its vertices with no LP
    (_projection_from_vertices).  Without vertices, or with codes not in
    convex position, each slice is probed by LP, as below; the LP path is
    also the vertex path's reference in the tests.

    The slice is an LP in lam alone, the relaxation's rows with z = h_i
    substituted.  Their lam parts (lower and -upper per row, a zero row
    per hull equation, the simplex row) are int tuples built once; per
    alternative only the right-hand sides change: D[k][i] and -D[k][i],
    b - a . h_i, which is nonzero at an off-hull code, and 1.  lam keeps
    its bounds (an artificial component stays at zero), coerced once; a
    probe's objective is a tuple of ints, which LpProblem keeps, and only
    its rows are checked and coerced.
    stats counts the LPs (probes) and their simplex pivots.
    """
    if vertices is not None and is_convex_position(form.codes):
        return _projection_from_vertices(form, vertices)
    n = form.n
    bounds = [(0, None)] * (n - 1) + [(0, 0) if form.artificial else (0, None)]
    slice_lp = LpProblem(n, (0,) * n, (), bounds=bounds)
    lam_rows = [(a, LE) for r in form.rows for a in (r.lower, tuple(map(neg, r.upper)))]
    lam_rows += [((0,) * n, EQ)] * len(form.hull_equations) + [((1,) * n, EQ)]
    failures = []
    pivots = []  # one entry per probe

    def probe(fixed, ws):
        # maximize the total weight of the components in ws over the slice
        c = tuple(int(w in ws) for w in range(1, n + 1))
        res = solve_lp(slice_lp.with_rows(fixed, objective=c))
        pivots.append(res.pivots)
        return res

    for i, (T, h) in enumerate(zip(form.family.sets, form.codes)):
        rhs = [x for D in values for x in (D[i], -D[i])]
        rhs += [b - dot(a, h) for a, b in form.hull_equations] + [1]
        fixed = [(a, rel, b) for (a, rel), b in zip(lam_rows, rhs)]
        # the face's own unit vectors must lie in the slice; a row's value
        # at one is a[v-1]
        failures += [
            _failure("missing unit vector", i + 1, v)
            for v in T
            if any(a[v - 1] > b or (rel == EQ and a[v - 1] != b) for a, rel, b in fixed)
        ]
        # no foreign component may take positive weight in the slice; the
        # components are nonnegative, so their sum being zero pins each one
        foreign = [w for w in range(1, form.family.n + 1) if w not in T]
        res = probe(fixed, foreign)
        if res.status == "optimal" and res.value == 0:
            continue
        # something leaks; rerun one component at a time to name it
        for w in foreign:
            res = probe(fixed, (w,))
            if res.status != "optimal":
                failures.append(_failure("slice LP %s" % res.status, i + 1, w))
            elif res.value != 0:
                where = "foreign component admits weight %s" % res.value
                failures.append(_failure(where, i + 1, w))
    stats = {"probes": len(pivots), "pivots": sum(pivots)}
    return VerificationReport("projection", not failures, failures, stats)


def _projection_from_vertices(form, vertices):
    """check_projection's report, read off the relaxation P's vertices.

    Every vertex has its z at a code, and every code is the z of an
    embedding point, so P projects onto the hull of the codes, where each
    code h_i is a vertex.  The slice z = h_i is then the face of P over
    that vertex (the preimage of a face under a projection is a face;
    Ziegler, Lectures on Polytopes, ch. 2), and its vertices are P's
    vertices with z = h_i.  A component's largest weight over the slice,
    the value of the LP probe for it, is so its largest weight at those
    vertices, and the failures are the ones the probes would name.  The
    unit vectors of T^i lie in the slice by validity, and no LP runs, so
    stats counts no probe and no pivot.  The vertices are read in ints
    (_vertex_ints), so each weight is kept as x over s and two are
    compared by cross-multiplying.
    """
    n, m = form.n, form.family.n
    den, H = form.codes.scaled
    alternative = {h: i for i, h in enumerate(H)}
    most = [[(0, 1)] * n for _ in H]  # largest weight per component, x over s
    for s, p in _vertex_ints(vertices, n):
        w = most[alternative[_code_ints(p[n:], s, den)]]
        for c, x in enumerate(p[:n]):
            if x and x * w[c][1] > w[c][0] * s:  # most entries are 0
                w[c] = (x, s)
    failures = [
        _failure("foreign component admits weight %s" % format_ratio(*w[c - 1]), i + 1, c)
        for i, (T, w) in enumerate(zip(form.family.sets, most))
        for c in range(1, m + 1)
        if w[c - 1][0] and c not in T
    ]
    return VerificationReport("projection", not failures, failures, {"probes": 0, "pivots": 0})


def classify_rows(form, vertices, masks=None):
    """Classify each one-sided row as facet, tight-nonfacet, or never-tight.

    vertices is the list check_ideal reads, the vertices of a polytope, so
    each face is known by its tight mask (_tight_masks): one bit per vertex
    it holds.  The masks come from the one-sided rows and the bounds
    lam_v >= 0; the equations hold everywhere.  masks, when given, are
    the ones certified_vertices returns with vertices; otherwise they are
    computed here.  A facet is a maximal proper face, and it is the face
    of some row or bound, so a row is a facet when its mask is proper
    (neither empty nor every vertex) and lies strictly inside no other
    proper mask; never-tight when its mask is empty, and tight-nonfacet
    otherwise.  The artificial component's bound (0, 0) holds at every
    vertex, so its mask is never proper.
    """
    if not vertices:
        raise LpError("empty relaxation cannot be classified")
    one_sided = form.one_sided()
    if masks is None:
        # each vertex in ints by its own lcm: a positive scale moves no zero
        masks = _tight_masks(one_sided, form.n, _integer_rows(vertices))
    full = (1 << len(vertices)) - 1
    proper = {m for m in masks if m and m != full}
    out = []
    for ((row, side), a, rhs), m in zip(one_sided, masks):
        if not m:
            cls = "never-tight"
        elif m in proper and not any(m != M and m & M == m for M in proper):
            cls = "facet"
        else:
            cls = "tight-nonfacet"
        out.append({"row": row, "side": side, "class": cls, "coeffs": a, "rhs": rhs})
    return out


def _tight_masks(one_sided, n, V):
    """The tight mask over V of each one-sided row (form.one_sided()), then
    of each bound lam_c >= 0, c < n: bit j is set when the row or bound
    holds at V[j] with equality.  V holds int points over (lam, z).  A
    one-sided row has right-hand side 0, so it is tight at v when a . v
    == 0, and a bound when v_c == 0.  The work is by columns: a . v for
    every row at once, as the sum over v's nonzero entries x of x times
    that column of the rows; every point of the relaxation has lam on the
    simplex, so a nonzero entry."""
    cols = [[a[c] for _, a, _ in one_sided] for c in range(len(V[0]))]
    masks = [0] * len(one_sided)
    for j, v in enumerate(V):
        terms = [map(x.__mul__, cols[c]) for c, x in enumerate(v) if x]
        for k, y in enumerate(reduce(partial(map, add), terms)):
            if not y:
                masks[k] |= 1 << j
    return masks + [sum(1 << j for j, v in enumerate(V) if not v[c]) for c in range(n)]


def check_branch_soundness(scheme, encoding, Q, zhat, outcome=None):
    """Audit one branching step against the four split conditions.

    The split must exclude zhat from both children, keep the children
    inside the parent, lose no code, and keep the children disjoint.
    For interval schemes the children must additionally be exact hulls
    of their codes, which forces finite termination.
    """
    zhat = vec(zhat)
    if not Q.contains(zhat):
        raise BranchError("zhat must lie in the audited region")
    if outcome is None:
        outcome = scheme.step(Q, zhat, encoding)
    code_set = encoding.code_set
    if outcome.verified:
        ok = tuple(zhat) in code_set
        return VerificationReport(
            "branch",
            ok,
            [] if ok else [{"condition": "verify", "z": [str(v) for v in zhat]}],
            {"tag": outcome.tag},
        )

    (cuts1, q1), (cuts2, q2) = outcome.children
    failures = []
    r = len(zhat)

    # 1: zhat is gone from both children
    if q1.contains(zhat):
        failures.append({"condition": 1, "child": 1})
    if q2.contains(zhat):
        failures.append({"condition": 1, "child": 2})

    # 2: children stay inside the parent
    child_vertices = []
    for idx, q in ((1, q1), (2, q2)):
        try:
            verts = enumerate_vertices(r, q.rows)
        except LpError as exc:
            failures.append({"condition": 2, "child": idx, "error": str(exc)})
            child_vertices.append([])
            continue
        child_vertices.append(verts)
        for v in verts:
            if not Q.contains(v):
                failures.append(
                    {"condition": 2, "child": idx, "vertex": [str(t) for t in v]}
                )

    # 3: codes are preserved and never smuggled in
    for h in encoding:
        h = tuple(h)
        in_q = Q.contains(h)
        in1 = q1.contains(h)
        in2 = q2.contains(h)
        if in_q != (in1 or in2):
            failures.append({"condition": 3, "code": [str(t) for t in h]})

    # 4: children are disjoint
    if lp_feasible(r, q1.rows + q2.rows):
        failures.append({"condition": 4})

    if getattr(scheme, "name", "") == "moment":
        for idx, verts in ((1, child_vertices[0]), (2, child_vertices[1])):
            for v in verts:
                if tuple(v) not in code_set:
                    failures.append(
                        {
                            "condition": "hull",
                            "child": idx,
                            "vertex": [str(t) for t in v],
                        }
                    )

    return VerificationReport(
        "branch", not failures, failures, {"tag": outcome.tag}
    )


def brute_force_optimum(family, objective, sense="max"):
    """Exact optimum of a linear objective over the union of simplex faces.

    Each face's optimum sits at a unit vector, so the answer is an extreme
    component value over each alternative.  Returns (value, component,
    alternative) for one optimal witness.
    """
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    c = vec(objective)
    if len(c) != family.n:
        raise ValueError("objective length mismatch")
    pick = max if sense == "max" else min
    # the first extreme component of each alternative, then the first
    # extreme alternative
    best = [pick(T, key=lambda t: c[t - 1]) for T in family.sets]
    return pick(((c[v - 1], v, i) for i, v in enumerate(best, 1)), key=lambda w: w[0])


def brute_force_optimum_hrep(pieces, objective, sense="max"):
    """Exact optimum of a linear objective over a union of polyhedra.

    Empty pieces are skipped with a warning; an unbounded piece raises.
    Returns (value, piece index, point) or None when every piece is empty.
    A minimum is the maximum of the negated objective, negated.
    """
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    sign = 1 if sense == "max" else -1
    c = [sign * x for x in vec(objective)]
    best = None
    for i, piece in enumerate(pieces):
        rows = [(a, LE, b) for a, b in zip(piece.A, piece.b)]
        res = solve_lp(LpProblem(piece.m, c, rows))
        if res.status == "unbounded":
            raise LpError("piece %d is unbounded" % (i + 1,))
        if res.status == "infeasible":
            warnings.warn("piece %d is empty, skipped" % (i + 1,))
            continue
        if best is None or res.value > sign * best[0]:
            best = (sign * res.value, i + 1, res.x)
    return best


def objective_from_vertex_map(vertex_map, objective_x):
    """Pull an x-space objective back to the weight space."""
    c = vec(objective_x)
    return tuple(dot(c, p) for p in vertex_map)
