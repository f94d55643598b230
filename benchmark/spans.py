"""Per-layer spans around cdcbranch's public functions, installed from outside.

`from .lp import solve_lp` binds a second name in the importing module, and
that module's code looks the function up there.  So a function is replaced
at every module attribute that refers to it (`cdcbranch.solver.solve_lp`,
`cdcbranch.oracle.solve_lp`, ...), and a method on its class.

A span's self time is its duration minus the durations of the spans that
ran inside it, so the self times of all spans plus the time outside every
span add up to the traced wall time.
"""

import functools
import inspect
import time

SPLIT_TAGS = ("variable", "moment", "integer-split", "wide-split", "corner-split")

# Every span name, in report order.
SPANS = (
    "lp.solve_lp",
    "lp.lp_feasible",
    "lp.enumerate_vertices",
    "lp.facets_of_hull",
    "branching.root",
    "branching.step",
    "solver.solve",
    "formulation.build",
    "formulation.assemble",
    "formulation.with_cuts",
    "numerics",
    "encodings.is_convex_position",
    "oracle.check_valid",
    "oracle.check_ideal",
    "oracle.check_projection",
    "oracle.classify_rows",
    "cli.main",
)


class Tracer:
    """Span counters for one process; install() patches, uninstall() restores."""

    def __init__(self, package):
        self.package = package
        self._undo = []
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.lp_ms = []
        self.lp_rows = 0
        self.lp_cols = 0
        self.vertices = 0
        self.probes = 0
        self.nodes = 0
        self.pruned_bound = 0
        self.pruned_infeasible = 0
        self.closed_at_root = 0
        self.splits = dict.fromkeys(SPLIT_TAGS, 0)
        self._stack = []
        self._top = [0.0]

    def _wrap(self, name, fn, observe=None):
        calls, self_s, stack, top = self.calls, self.self_s, self._stack, self._top
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                calls[name] += 1
                self_s[name] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                else:
                    top[0] += dt
            if observe is not None:
                observe(args, result, dt)
            return result

        return functools.update_wrapper(span, fn)

    def _patch_function(self, name, owner, attr, observe=None):
        original = getattr(owner, attr)
        wrapper = self._wrap(name, original, observe)
        for module in self._modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, value))
                    setattr(module, key, wrapper)

    def _patch_method(self, name, cls, attr, observe=None):
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, observe))

    def _modules(self):
        pkg = self.package
        return [pkg] + [
            getattr(pkg, m)
            for m in ("numerics", "lp", "encodings", "cdc", "formulation",
                      "branching", "solver", "oracle", "cli")
        ]

    # observers read counts off arguments and results
    def _on_lp(self, args, result, dt):
        problem = args[0]
        self.lp_ms.append(dt * 1000.0)
        self.lp_rows += len(problem.rows)
        self.lp_cols += problem.n

    def _on_vertices(self, args, result, dt):
        self.vertices += len(result)

    def _on_projection(self, args, result, dt):
        self.probes += result.stats.get("probes", 0)

    def _on_step(self, args, result, dt):
        if not result.verified:
            self.splits[result.tag] = self.splits.get(result.tag, 0) + 1

    def _on_solve(self, args, result, dt):
        self.nodes += result.nodes
        self.pruned_bound += result.histogram.get("pruned_bound", 0)
        self.pruned_infeasible += result.histogram.get("pruned_infeasible", 0)
        if result.status == "optimal" and result.nodes == 1:
            self.closed_at_root += 1

    def install(self):
        pkg = self.package
        lp, fm, br, orc = pkg.lp, pkg.formulation, pkg.branching, pkg.oracle
        fn = self._patch_function
        fn("lp.solve_lp", lp, "solve_lp", self._on_lp)
        fn("lp.lp_feasible", lp, "lp_feasible")
        fn("lp.enumerate_vertices", lp, "enumerate_vertices", self._on_vertices)
        fn("lp.facets_of_hull", lp, "facets_of_hull")
        fn("solver.solve", pkg.solver, "solve", self._on_solve)
        for builder in ("build_general", "build_2d", "build_moment_curve",
                        "build_sos2_exotic", "build_annulus", "build_bigm_moment"):
            fn("formulation.build", fm, builder)
        fn("encodings.is_convex_position", pkg.encodings, "is_convex_position")
        fn("oracle.check_valid", orc, "check_valid")
        fn("oracle.check_ideal", orc, "check_ideal")
        fn("oracle.check_projection", orc, "check_projection", self._on_projection)
        fn("oracle.classify_rows", orc, "classify_rows")
        fn("cli.main", pkg.cli, "main")
        num = pkg.numerics
        for attr, value in list(vars(num).items()):
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == num.__name__):
                fn("numerics", num, attr)
        for cls in (br.VariableScheme, br.MomentScheme, br.ExoticScheme):
            self._patch_method("branching.root", cls, "root")
            self._patch_method("branching.step", cls, "step", self._on_step)
        self._patch_method("formulation.assemble", fm.LinearFormulation, "assemble")
        self._patch_method("formulation.assemble", fm.BigMSystem, "assemble")
        self._patch_method("formulation.with_cuts", fm.AssembledSystem, "with_cuts")

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo = []

    def summary(self):
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "lp_ms": list(self.lp_ms),
            "lp_rows": self.lp_rows,
            "lp_cols": self.lp_cols,
            "vertices": self.vertices,
            "probes": self.probes,
            "nodes": self.nodes,
            "pruned_bound": self.pruned_bound,
            "pruned_infeasible": self.pruned_infeasible,
            "closed_at_root": self.closed_at_root,
            "splits": dict(self.splits),
            "spans_s": self._top[0],  # covered by outermost spans
        }
