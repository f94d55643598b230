"""Brute-force and enumeration-based checks for built formulations.

Nothing here trusts the builders: validity is checked point by point
against the embedding, idealness and the facet census on one full
vertex enumeration (relaxation_vertices), and the projection property
by exact LP probes on every slice, each an LP in lam alone with z fixed
at a code.  These are the referees the rest of the package answers to.
"""

import warnings
from dataclasses import asdict, dataclass, field

from .lp import EQ, LE, LpError, LpProblem, enumerate_vertices, solve_lp
from .numerics import _bareiss_echelon, _common_denominator, _integer_rows, dot, vec


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


def check_valid(form):
    """Every embedding point must satisfy every row of the formulation.

    The points of alternative i pair its code h_i with the unit vector of
    each component v in T^i, so a row's value there is a[v-1] plus the
    row's z part at h_i.  That z part is the same for every point of the
    alternative, so it moves to the right-hand side once per alternative.
    """
    failures = []
    one_sided = [(tag, a, a[form.n :], rhs) for tag, a, rhs in form.one_sided()]
    for i, (T, h) in enumerate(zip(form.family.sets, form.codes), 1):
        rows = [(tag, a, rhs - dot(a_z, h)) for tag, a, a_z, rhs in one_sided]
        off_hull = sum(dot(a, h) != b for a, b in form.hull_equations)
        for v in T:
            for tag, a, b in rows:
                if a[v - 1] > b:
                    failures.append(
                        {"where": "row %d %s" % tag, "alternative": i, "component": v}
                    )
            failures += [
                {"where": "hull equation", "alternative": i, "component": v}
                for _ in range(off_hull)
            ]
    points = sum(len(T) for T in form.family.sets)
    return VerificationReport("valid", not failures, failures, {"points": points})


def relaxation_vertices(form):
    """The vertices of the relaxation over (lam, z), by double description.

    Raises LpError when the relaxation is unbounded.  check_ideal and
    classify_rows both read this list, so it is enumerated once.
    """
    sys = form.assemble()
    return enumerate_vertices(sys.nvars, sys.rows, sys.bounds)


def check_ideal(form, vertices):
    """Every vertex of the relaxation must carry a code in its z part.

    vertices is relaxation_vertices(form).
    """
    code_set = set(tuple(h) for h in form.codes)
    failures = [
        {"where": "vertex with off-code z", "z": [str(x) for x in v[form.n :]]}
        for v in vertices
        if v[form.n :] not in code_set
    ]
    return VerificationReport(
        "ideal", not failures, failures, {"vertices": len(vertices)}
    )


def check_projection(form):
    """Fixing z at code i must slice out exactly the face of alternative i.

    The slice is an LP in lam alone: z = h_i is substituted into every
    row, whose z part a_z . h_i moves to the right-hand side, and lam
    keeps its bounds (an artificial component stays at zero).  A hull
    equation becomes a row of zeros, which an off-hull code makes
    infeasible.  stats counts the LPs (probes) and their simplex pivots.
    """
    n = form.n
    sys = form.assemble()
    bounds = sys.bounds[:n]
    failures = []
    probes = pivots = 0

    def probe(fixed, ws):
        # maximize the total weight of the components in ws over the slice
        nonlocal probes, pivots
        c = [int(w in ws) for w in range(1, n + 1)]
        res = solve_lp(LpProblem(n, c, fixed, bounds=bounds))
        probes += 1
        pivots += res.pivots
        return res

    for i, (T, h) in enumerate(zip(form.family.sets, form.codes), 1):
        fixed = [(a[:n], rel, rhs - dot(a[n:], h)) for a, rel, rhs in sys.rows]
        # the face's own unit vectors must lie in the slice; a row's value
        # at one is a[v-1]
        for v in T:
            for a, rel, rhs in fixed:
                if a[v - 1] > rhs or (rel == EQ and a[v - 1] != rhs):
                    failures.append(
                        {"where": "missing unit vector", "alternative": i, "component": v}
                    )
                    break
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
                failures.append(
                    {
                        "where": "slice LP %s" % res.status,
                        "alternative": i,
                        "component": w,
                    }
                )
            elif res.value != 0:
                failures.append(
                    {
                        "where": "foreign component admits weight %s" % res.value,
                        "alternative": i,
                        "component": w,
                    }
                )
    return VerificationReport(
        "projection", not failures, failures, {"probes": probes, "pivots": pivots}
    )


def classify_rows(form, vertices):
    """Classify each one-sided row as facet, tight-nonfacet, or never-tight.

    vertices is relaxation_vertices(form).  The tight set of a row is
    measured by the affine dimension of the vertices satisfying it with
    equality, compared against the dimension of the whole relaxation.
    """
    if not vertices:
        raise LpError("empty relaxation cannot be classified")
    # the vertices over one common denominator: V holds den * v in ints,
    # and a row [a | rhs] scaled to integers is tight at v when
    # a . (den * v) == rhs * den
    den, V = _common_denominator(vertices)

    def dim(points):
        # the rank of the differences from the first point; they are ints
        # already, so the rank is read straight off the elimination kernel
        diffs = [[x - y for x, y in zip(p, points[0])] for p in points[1:]]
        return len(_bareiss_echelon(diffs)[1])

    full = dim(V)
    out = []
    for tag, a, rhs in form.one_sided():
        *a_int, r_int = _integer_rows([a + (rhs,)])[0]
        rhs_int = r_int * den
        tight = [v for v in V if sum(x * y for x, y in zip(a_int, v)) == rhs_int]
        if not tight:
            cls = "never-tight"
        else:
            cls = "facet" if dim(tight) == full - 1 else "tight-nonfacet"
        out.append(
            {"row": tag[0], "side": tag[1], "class": cls, "coeffs": a, "rhs": rhs}
        )
    return out


def brute_force_optimum(family, objective, sense="max"):
    """Exact optimum of a linear objective over the union of simplex faces.

    Each face's optimum sits at a unit vector, so the answer is an extreme
    component value over each alternative.  Returns (value, component,
    alternative) for one optimal witness.
    """
    c = vec(objective)
    if len(c) != family.n:
        raise ValueError("objective length mismatch")
    pick = max if sense == "max" else min
    best = None
    for i, T in enumerate(family.sets):
        v = pick(T, key=lambda t: c[t - 1])
        val = c[v - 1]
        if best is None or (sense == "max" and val > best[0]) or (
            sense == "min" and val < best[0]
        ):
            best = (val, v, i + 1)
    return best


def brute_force_optimum_hrep(pieces, objective, sense="max"):
    """Exact optimum of a linear objective over a union of polyhedra.

    Empty pieces are skipped with a warning; an unbounded piece raises.
    Returns (value, piece index, point) or None when every piece is empty.
    """
    best = None
    for i, piece in enumerate(pieces):
        prob = LpProblem(
            piece.m,
            objective,
            [(piece.A[t], LE, piece.b[t]) for t in range(len(piece.A))],
            sense=sense,
        )
        res = solve_lp(prob)
        if res.status == "unbounded":
            raise LpError("piece %d is unbounded" % (i + 1,))
        if res.status == "infeasible":
            warnings.warn("piece %d is empty, skipped" % (i + 1,))
            continue
        better = best is None or (
            res.value > best[0] if sense == "max" else res.value < best[0]
        )
        if better:
            best = (res.value, i + 1, res.x)
    return best


def objective_from_vertex_map(vertex_map, objective_x):
    """Pull an x-space objective back to the weight space."""
    c = vec(objective_x)
    return tuple(dot(c, p) for p in vertex_map)
