"""Reference answers and output checks, computed apart from cdcbranch.

Nothing here calls the package.  Each check takes the instance data a
workload handed to the program and the program's output, recomputes what
the output must be in exact rationals, and returns a list of problems
(empty when the output is right).
"""

import json
from fractions import Fraction
from itertools import combinations


def sos2_sets(d):
    """Consecutive pairs {i, i+1}, i = 1..d."""
    return [(i, i + 1) for i in range(1, d + 1)]


def annulus_sets(d):
    """Quadrilateral i of the d-piece annulus holds components 2i-3..2i
    of the 2d ring, wrapping."""
    n = 2 * d
    return [
        tuple(sorted(((2 * i - 4 + t) % n) + 1 for t in range(4)))
        for i in range(1, d + 1)
    ]


def moment_codes(d):
    return [(Fraction(i), Fraction(i * i)) for i in range(1, d + 1)]


def _dot(u, v):
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def best_component_value(sets, c):
    """Maximum of c_v over v in T_i and over all alternatives i."""
    return max(max(c[v - 1] for v in T) for T in sets)


def check_solve(sets, codes, c, report):
    """A solve over the union of simplex faces: the value is the reference
    maximum, z is a code h_i, and lam is a point of face T_i giving the
    value."""
    problems = []
    if report.status != "optimal":
        return ["status %s, not optimal" % report.status]
    want = best_component_value(sets, c)
    if report.value != want:
        problems.append("value %s, reference %s" % (report.value, want))
    z = tuple(report.z)
    alts = [i for i, h in enumerate(codes) if tuple(h) == z]
    if len(alts) != 1:
        return problems + ["z %s is not a code" % (z,)]
    T = set(sets[alts[0]])
    lam = report.lam
    if len(lam) != len(c):
        return problems + ["lam has %d entries for %d components" % (len(lam), len(c))]
    if any(x < 0 for x in lam):
        problems.append("lam has a negative entry")
    if sum(lam, Fraction(0)) != 1:
        problems.append("lam sums to %s" % sum(lam, Fraction(0)))
    outside = [v + 1 for v, x in enumerate(lam) if x != 0 and v + 1 not in T]
    if outside:
        problems.append("lam support %s lies outside T_%d" % (outside, alts[0] + 1))
    got = _dot(c, lam)
    if got != report.value:
        problems.append("c . lam = %s but the reported value is %s" % (got, report.value))
    return problems


def vertex_count_from_instance(path):
    """Sum of |T_i| over the alternatives in an instance file."""
    with open(path) as fh:
        obj = json.load(fh)
    return sum(len(set(T)) for T in obj["sets"])


def check_verify(rc, report, vertices):
    """A verify report of an ideal, sharp formulation: exit code 0, the
    three checks ok, and one vertex (e_v, h_i) per pair v in T_i."""
    problems = []
    if rc != 0:
        problems.append("exit code %d" % rc)
    for kind in ("valid", "ideal", "projection"):
        if not report[kind]["ok"]:
            problems.append("%s check failed" % kind)
    got = report["ideal"]["stats"].get("vertices")
    if got != vertices:
        problems.append("%s vertices, reference %d" % (got, vertices))
    return problems


def check_rows(sets, codes, n, rows):
    """Every row's coefficient bounds for component v are the least and
    greatest direction . h_i over the alternatives i that contain v."""
    problems = []
    members = [[i for i, T in enumerate(sets) if v in T] for v in range(1, n + 1)]
    for k, row in enumerate(rows):
        if len(row.lower) != n or len(row.upper) != n:
            problems.append("row %d has %d coefficients for %d components" % (k, len(row.lower), n))
            continue
        values = [_dot(row.direction, h) for h in codes]
        for v in range(n):
            vals = [values[i] for i in members[v]]
            if row.lower[v] != min(vals) or row.upper[v] != max(vals):
                problems.append("row %d component %d: [%s, %s], reference [%s, %s]" % (
                    k, v + 1, row.lower[v], row.upper[v], min(vals), max(vals)))
    return problems


def closed_form_rows(builder, d):
    """Two-sided row counts the closed forms promise, or None."""
    if builder == "sos2-exotic":
        return 2
    if builder == "annulus-exotic":
        return 3
    if builder == "moment-curve":
        return 2 * d - 3
    return None


def check_build(form, sets, codes, builder):
    """A built formulation on the reference family and codes, with the
    paper's explicit rows and, for closed forms, the promised row count."""
    problems = []
    if [tuple(T) for T in form.family.sets] != [tuple(T) for T in sets]:
        problems.append("family differs from the reference alternatives")
    if [tuple(h) for h in form.codes] != [tuple(h) for h in codes]:
        problems.append("codes differ from the reference codes")
    n = max(v for T in sets for v in T)
    problems += check_rows(sets, codes, n, form.rows)
    want = closed_form_rows(builder, len(sets))
    if want is not None and len(form.rows) != want:
        problems.append("%d two-sided rows, closed form promises %d" % (len(form.rows), want))
    return problems


def piece_vertices(A, b):
    """Vertices of the bounded planar piece {x : A x <= b}: every pair of
    boundary lines meets in one point, kept when it satisfies every row."""
    out = []
    for (a1, b1), (a2, b2) in combinations(list(zip(A, b)), 2):
        det = a1[0] * a2[1] - a1[1] * a2[0]
        if det == 0:
            continue
        x = (
            Fraction(b1 * a2[1] - b2 * a1[1], 1) / det,
            Fraction(a1[0] * b2 - a2[0] * b1, 1) / det,
        )
        if all(_dot(a, x) <= rhs for a, rhs in zip(A, b)):
            out.append(x)
    return out


def union_optimum(pieces, c):
    """Maximum of c . x over a union of bounded planar pieces (A, b)."""
    return max(_dot(c, x) for A, b in pieces for x in piece_vertices(A, b))


def check_union(pieces, c, report, want=None):
    """A solve over a union of pieces: the reference optimum, reached by a
    point x that lies in one of the pieces."""
    if report.status != "optimal":
        return ["status %s, not optimal" % report.status]
    if want is None:
        want = union_optimum(pieces, c)
    problems = []
    if report.value != want:
        problems.append("value %s, reference %s" % (report.value, want))
    x = tuple(report.x)
    if not any(all(_dot(a, x) <= rhs for a, rhs in zip(A, b)) for A, b in pieces):
        problems.append("x %s lies in no piece" % (x,))
    elif _dot(c, x) != report.value:
        problems.append("c . x = %s but the reported value is %s" % (_dot(c, x), report.value))
    return problems
