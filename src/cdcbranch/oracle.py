"""Brute-force and enumeration-based checks for built formulations.

Nothing here trusts the builders: validity is checked point by point
against the embedding, idealness by full vertex enumeration, and the
projection property by exact LP probes on every slice.  These are the
referees the rest of the package answers to.
"""

import warnings
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import lcm

from .lp import EQ, LE, LpError, LpProblem, enumerate_vertices, solve_lp
from .numerics import _bareiss_echelon, _integer_rows, dot, vec


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


def embedding_points(family, codes, total_n=None):
    """Unit-vector/code pairs realizing each alternative, in family order.

    total_n pads the unit vectors (used when the formulation carries an
    artificial trailing component).
    """
    H = list(codes)
    if family.d != len(H):
        raise ValueError("need exactly one code per alternative")
    n = total_n if total_n is not None else family.n
    if n < family.n:
        raise ValueError("total_n cannot shrink the family")
    points = []
    for i, T in enumerate(family.sets):
        for v in T:
            lam = tuple(Fraction(int(j == v - 1)) for j in range(n))
            points.append((lam, tuple(H[i]), i + 1, v))
    return points


def check_valid(form):
    """Every embedding point must satisfy every row of the formulation.

    The weight part of a point is the unit vector of its component v, so a
    row's value there is a[v-1] plus the row's z part applied to the code.
    """
    failures = []
    pts = embedding_points(form.family, form.codes, total_n=form.n)
    one_sided = [(tag, a, a[form.n :], rhs) for tag, a, rhs in form.one_sided()]
    for _, z, i, v in pts:
        for tag, a, a_z, rhs in one_sided:
            if a[v - 1] + dot(a_z, z) > rhs:
                failures.append(
                    {
                        "where": "row %d %s" % tag,
                        "alternative": i,
                        "component": v,
                    }
                )
        for a, b in form.hull_equations:
            if dot(a, z) != b:
                failures.append(
                    {"where": "hull equation", "alternative": i, "component": v}
                )
    return VerificationReport(
        "valid", not failures, failures, {"points": len(pts)}
    )


def check_ideal(form):
    """Every vertex of the relaxation must carry a code in its z part."""
    code_set = set(tuple(h) for h in form.codes)
    sys = form.assemble()
    try:
        verts = enumerate_vertices(
            sys.nvars, sys.ineqs, eqs=sys.eqs, bounds=sys.bounds
        )
    except LpError as exc:
        return VerificationReport("ideal", False, [{"where": str(exc)}])
    failures = []
    for v in verts:
        z = v[sys.z_offset : sys.z_offset + sys.r]
        if z not in code_set:
            failures.append(
                {
                    "where": "vertex with off-code z",
                    "z": [str(x) for x in z],
                }
            )
    return VerificationReport(
        "ideal", not failures, failures, {"vertices": len(verts)}
    )


def check_projection(form):
    """Fixing z at code i must slice out exactly the face of alternative i."""
    family = form.family
    H = list(form.codes)
    sys = form.assemble()
    rows = sys.lp_rows()
    failures = []
    probes = 0
    for i, T in enumerate(family.sets):
        h = H[i]
        fixed = list(rows)
        for k in range(sys.r):
            a = [Fraction(0)] * sys.nvars
            a[sys.z_offset + k] = Fraction(1)
            fixed.append((tuple(a), EQ, h[k]))
        # the face's own unit vectors must lie in the slice; a row's value
        # at one is a[v-1] plus its z part applied to h, and the rows that
        # fix z hold there outright
        z_parts = [dot(a[form.n :], h) for a, _, _ in rows]
        for v in T:
            for (a, rel, rhs), z_part in zip(rows, z_parts):
                val = a[v - 1] + z_part
                if val > rhs or (rel == EQ and val != rhs):
                    failures.append(
                        {"where": "missing unit vector", "alternative": i + 1, "component": v}
                    )
                    break
        # no foreign component may take positive weight in the slice; the
        # components are nonnegative, so their sum being zero pins each one
        foreign = [w for w in range(1, family.n + 1) if w not in T]
        c = [Fraction(0)] * sys.nvars
        for w in foreign:
            c[w - 1] = Fraction(1)
        res = solve_lp(LpProblem(sys.nvars, c, fixed, bounds=sys.bounds))
        probes += 1
        if res.status == "optimal" and res.value == 0:
            continue
        # something leaks; rerun one component at a time to name it
        for w in foreign:
            c = [Fraction(0)] * sys.nvars
            c[w - 1] = Fraction(1)
            res = solve_lp(LpProblem(sys.nvars, c, fixed, bounds=sys.bounds))
            probes += 1
            if res.status != "optimal":
                failures.append(
                    {
                        "where": "slice LP %s" % res.status,
                        "alternative": i + 1,
                        "component": w,
                    }
                )
            elif res.value != 0:
                failures.append(
                    {
                        "where": "foreign component admits weight %s" % res.value,
                        "alternative": i + 1,
                        "component": w,
                    }
                )
    return VerificationReport(
        "projection", not failures, failures, {"probes": probes}
    )


def classify_rows(form):
    """Classify each one-sided row as facet, tight-nonfacet, or never-tight.

    The tight set of a row is measured by the affine dimension of the
    vertices satisfying it with equality, compared against the dimension
    of the whole relaxation.
    """
    sys = form.assemble()
    verts = enumerate_vertices(sys.nvars, sys.ineqs, eqs=sys.eqs, bounds=sys.bounds)
    if not verts:
        raise LpError("empty relaxation cannot be classified")
    # the vertices over one common denominator: V holds den * v in ints,
    # and a row [a | rhs] scaled to integers is tight at v when
    # a . (den * v) == rhs * den
    den = lcm(*(x.denominator for v in verts for x in v))
    V = [[x.numerator * (den // x.denominator) for x in v] for v in verts]

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
            tdim = -1
        else:
            tdim = dim(tight)
            cls = "facet" if tdim == full - 1 else "tight-nonfacet"
        out.append(
            {
                "row": tag[0],
                "side": tag[1],
                "class": cls,
                "tight_dim": tdim,
                "coeffs": a,
                "rhs": rhs,
            }
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
