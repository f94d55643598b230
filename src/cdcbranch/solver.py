"""Exact branch-and-bound driven by code-space branching schemes.

A formulation enters only through its codes, its assemble() and its
readout(): the code set z must reach, a relaxation over (lam or x, z)
and the report's lam and x at its optimum, whichever builder made the
rows.  The first two are read once per source, not once per solve: the
source keeps its assembled system, the system its root LP with rows and
bounds coerced, and the encoding its code set, so a solve of a source
solved before checks only its objective.  Nodes carry a region of code
space, the cuts that carved it from its parent's region and the parent's
optimal LP, which the node's own LP extends by those cuts and
re-optimizes by dual simplex.  Node selection is best bound with FIFO
tie-breaking, all arithmetic is rational, and an incumbent is only ever
accepted when the relaxation optimum lands exactly on a code, which a
valid formulation guarantees to be a true feasible point.  With
debug_checks, oracle.check_branch_soundness audits every split.
"""

import heapq
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .branching import BranchError, make_scheme
from .lp import solve_lp
from .numerics import _scaled, format_rational
from .oracle import check_branch_soundness


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

    source is read only through its codes, its assemble(), whose last r
    variables are z, and its readout(), which gives lam and x.  The
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
    if not hasattr(source, "readout"):
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
        status = "node_cap"
        key = min(h[0] for h in heap)
        if key[0] == 1:
            remaining = unscale * -key[1]
    else:
        status = "infeasible" if incumbent is None else "optimal"

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
        report.lam, report.x = source.readout(point[:z_start], vertex_map)
    return report

