"""Exact branch-and-bound driven by code-space branching schemes.

A formulation enters only through its codes and its assemble(): a
relaxation over (lam or x, z) and the code set z must reach, whichever
builder made the rows.  Both are read once per source, not once per
solve: the source keeps its assembled system, the system its root LP
with rows and bounds coerced, and the encoding its code set, so a solve
of a source solved before checks only its objective.  Nodes carry a
region of code space, the cuts that carved it from its parent's region
and the parent's optimal LP, which the node's own LP extends by those
cuts and re-optimizes by dual simplex.  Node selection is best bound with FIFO tie-breaking, all
arithmetic is rational, and an incumbent is only ever accepted when the
relaxation optimum lands exactly on a code, which a valid formulation
guarantees to be a true feasible point.
"""

import heapq
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .branching import BranchError, make_scheme
from .formulation import BigMSystem, LinearFormulation
from .lp import LpError, enumerate_vertices, lp_feasible, solve_lp
from .numerics import _scaled, format_rational, vec
from .oracle import VerificationReport


class SolveError(Exception):
    pass


@dataclass
class SolveReport:
    status: str
    value: Fraction = None
    lam: tuple = None
    z: tuple = None
    x: tuple = None
    nodes: int = 0
    pivots: int = 0
    histogram: dict = field(default_factory=dict)
    wall_micros: int = 0
    remaining_bound: Fraction = None

    def to_json(self):
        def fmt(v):
            if v is None:
                return None
            if isinstance(v, tuple):
                return [format_rational(x) for x in v]
            return format_rational(v)

        return {
            "status": self.status,
            "value": fmt(self.value),
            "lam": fmt(self.lam),
            "z": fmt(self.z),
            "x": fmt(self.x),
            "nodes": self.nodes,
            "pivots": self.pivots,
            "histogram": self.histogram,
            "wall_micros": self.wall_micros,
            "remaining_bound": fmt(self.remaining_bound),
        }


def solve(
    source,
    objective,
    scheme,
    sense="max",
    node_cap=10 ** 6,
    vertex_map=None,
    debug_checks=False,
):
    """Optimize a linear objective over the region a formulation encodes.

    source is a LinearFormulation or a BigMSystem, read only through its
    codes and its assemble(), whose last r variables are z.  The
    objective covers the variables before z (lam or x); one entry short
    is padded with a 0 when the system's bounds fix that last variable at
    zero, the artificial component of a disconnected family.  It is read
    once, as ints over one denominator (numerics._scaled), with no Fraction
    made for an int or whole entry, and the root LP is the source's kept
    one with this objective.  Returns a SolveReport.
    """
    t0 = time.perf_counter_ns()
    if isinstance(scheme, str):
        scheme = make_scheme(scheme)
    if sense not in ("max", "min"):
        raise SolveError("sense must be 'max' or 'min'")
    if not isinstance(source, (LinearFormulation, BigMSystem)):
        raise SolveError("unknown source type %r" % type(source).__name__)
    encoding = source.codes
    if encoding is None:
        raise SolveError("an encoding is required")
    base = source.assemble()
    z_start = base.nvars - base.r
    # the objective as ints c over den, negated to minimize: every LP value
    # is den times the objective's, signed, and unscale takes it back
    den, c = _scaled(tuple(objective))
    if len(c) == z_start - 1 and base.bounds[z_start - 1] == (0, 0):
        c.append(0)
    if len(c) != z_start:
        raise SolveError("objective length mismatch")

    ok, why = scheme.compatible(encoding)
    if not ok:
        raise SolveError("scheme %s incompatible: %s" % (scheme.name, why))

    mult = 1 if sense == "max" else -1
    unscale = Fraction(mult, den)
    c_int = tuple(c if mult == 1 else [-x for x in c]) + (0,) * base.r
    code_set = encoding.code_set

    # A heap entry holds its parent's optimal LpResult and its own cuts:
    # the root is solved cold, and every child adds its cuts to its
    # parent's LP, which shares the root's coerced objective and bounds.
    # The root is the source's kept LP with this objective, so only the
    # objective is checked here.  with_cuts on the kept system with no
    # rows (bare) gives the cuts alone, each padded with zeros over lam or
    # x; a scheme hands its cuts on as the int rows of a CodeRelaxation
    # (BranchOutcome), so the child LP takes them as kept, unchecked.  The
    # root's region is built only when the root branches, since only a
    # split reads it; until then its state is None.
    kept = base.root
    root = kept.with_rows(kept.rows, objective=c_int)
    bare = base.bare
    counter = 0
    heap = [((0, Fraction(0), counter), None, (), None)]
    incumbent = None
    nodes = 0
    pivots = 0
    histogram = {}
    pruned_infeasible = 0
    pruned_bound = 0

    while heap and nodes < node_cap:
        key, parent, cuts, state = heapq.heappop(heap)
        nodes += 1
        if key[0] == 1 and incumbent is not None and -key[1] <= incumbent[0]:
            pruned_bound += 1
            continue
        problem = root if parent is None else root.with_rows(bare.with_cuts(cuts).rows, kept=True)
        res = solve_lp(problem, parent)
        pivots += res.pivots
        if res.status == "infeasible":
            pruned_infeasible += 1
            continue
        if res.status == "unbounded":
            raise SolveError("node relaxation is unbounded")
        val = res.value
        if incumbent is not None and val <= incumbent[0]:
            pruned_bound += 1
            continue
        zhat = res.x[z_start:]
        if zhat in code_set:
            incumbent = (val, res.x)
            continue
        if state is None:
            state = scheme.root(encoding)
        try:
            outcome = scheme.step(state, zhat, encoding)
        except BranchError as exc:
            raise SolveError("branching failed: %s" % exc)
        if outcome.verified:
            raise SolveError(
                "scheme certified a point off the code set; it does not "
                "match this instance"
            )
        if debug_checks:
            audit = check_branch_soundness(
                scheme, encoding, state, zhat, outcome=outcome
            )
            if not audit.ok:
                raise SolveError("unsound branch: %r" % audit.failures)
        histogram[outcome.tag] = histogram.get(outcome.tag, 0) + 1
        for child_cuts, child_state in outcome.children:
            counter += 1
            heapq.heappush(
                heap,
                ((1, -val, counter), res, child_cuts, child_state),
            )

    wall = (time.perf_counter_ns() - t0) // 1000
    histogram["pruned_infeasible"] = pruned_infeasible
    histogram["pruned_bound"] = pruned_bound

    remaining = None
    if heap:
        key = min(h[0] for h in heap)
        if key[0] == 1:
            remaining = unscale * -key[1]

    if heap:
        status = "node_cap"
    elif incumbent is None:
        status = "infeasible"
    else:
        status = "optimal"

    report = SolveReport(
        status,
        nodes=nodes,
        pivots=pivots,
        histogram=histogram,
        wall_micros=wall,
        remaining_bound=remaining,
    )
    if incumbent is not None:
        val, point = incumbent
        report.value = unscale * val
        report.z = point[z_start:]
        if isinstance(source, BigMSystem):
            report.x = point[:z_start]
        else:
            lam = report.lam = point[:z_start]
            if vertex_map is not None:
                report.x = tuple(
                    sum((w * p[k] for w, p in zip(lam, vertex_map)), Fraction(0))
                    for k in range(vertex_map.m)
                )
    return report


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
