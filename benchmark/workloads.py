"""The four workloads: solve, verify, build and union.

A workload's setup() makes its inputs from the seed and does the program
work every later operation relies on (building formulations, writing
instance files); reference_data() then reads what the checks need.  Its
round(rng) returns the operations of one round, each a label, a run() that
calls the program and a check(output) that returns the problems the
reference checks find; round_done() follows each round.  Every round of a
workload holds the same operations in the same number; only seeded
objectives and the order change between rounds.

The program's functions are looked up on their modules when an operation
runs, so the spans the tracer installs are the ones called.
"""

import json
import os
import random
from fractions import Fraction

import reference


class Operation:
    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


class Solve:
    """solver.solve on four instances, each with its three schemes.

    Root-node simplex is most of the time; the exotic pairings branch, and
    the variable and exotic roots run facets_of_hull on every solve.
    """

    name = "solve"
    objective_range = (-9, 9)

    def __init__(self, pkg):
        self.pkg = pkg

    def setup(self, seed):
        cdc, enc, fm = self.pkg.cdc, self.pkg.encodings, self.pkg.formulation
        instances = [
            ("sos2-16", cdc.sos2_family(16)),
            ("sos2-32", cdc.sos2_family(32)),
            ("annulus-8", cdc.annulus_instance("1", "3", 8)[0]),
            ("grid", cdc.grid_triangulation_fixture()[0]),
        ]
        self.pairings = []
        for label, fam in instances:
            d, k = fam.d, (fam.d - 1).bit_length()
            gray, exotic = enc.gray_code(k), enc.exotic_code(d)
            for scheme, form, codes in (
                ("variable", fm.build_general(fam, gray), gray),
                ("moment", fm.build_moment_curve(fam), reference.moment_codes(d)),
                ("exotic", fm.build_general(fam, exotic), exotic),
            ):
                self.pairings.append(("%s/%s" % (label, scheme), scheme, form, fam, codes))
        self.rows = sum(2 * len(p[2].rows) for p in self.pairings)

    def reference_data(self):
        """Alternatives and codes the formulations were built from."""
        self.ref = [
            ([tuple(T) for T in fam.sets], [tuple(h) for h in codes])
            for _, _, _, fam, codes in self.pairings
        ]

    def round(self, rng):
        lo, hi = self.objective_range
        ops = []
        for (label, scheme, form, _, _), (sets, codes) in zip(self.pairings, self.ref):
            c = [Fraction(rng.randint(lo, hi)) for _ in range(form.n)]
            ops.append(Operation(
                label,
                lambda form=form, c=c, scheme=scheme: self.pkg.solver.solve(form, c, scheme),
                lambda rep, sets=sets, codes=codes, c=c: reference.check_solve(sets, codes, c, rep),
            ))
        return ops

    def round_done(self):
        pass


VERIFY_INSTANCES = (
    ("sos2-4", ["--family", "sos2", "--d", "4"]),
    ("sos2-8", ["--family", "sos2", "--d", "8"]),
    ("sos2-16", ["--family", "sos2", "--d", "16"]),
    ("annulus-8", ["--family", "annulus", "--d", "8"]),
    ("grid", ["--family", "grid"]),
)

# sos2-16 with the 2d builders and the moment curve take 10-14 s each, 38 s
# of the 61 s the full acceptance matrix needs; their d = 4 and 8 versions
# stay, so every builder/encoding pairing is still verified.
SLOW_VERIFY = {("sos2-16", "moment", "2d"), ("sos2-16", "exotic", "2d"),
               ("sos2-16", "moment", "moment")}


def verify_pairings():
    """(instance, encoding, builder) of the acceptance builder matrix."""
    out = []
    for inst in ("sos2-4", "sos2-8", "sos2-16"):
        out += [(inst, e, "general") for e in ("gray", "zigzag", "moment", "exotic")]
        out += [(inst, "moment", "2d"), (inst, "exotic", "2d"),
                (inst, "moment", "moment"), (inst, "exotic", "sos2-exotic")]
    for inst in ("annulus-8", "grid"):
        out += [(inst, e, "general") for e in ("gray", "zigzag", "moment", "exotic")]
        if inst == "annulus-8":
            out += [(inst, e, "annulus") for e in ("gray", "zigzag", "exotic")]
        out += [(inst, "moment", "2d"), (inst, "exotic", "2d"), (inst, "moment", "moment")]
    return [p for p in out if p not in SLOW_VERIFY]


class Verify:
    """`cdcbranch verify` through cli.main on instance files from setup.

    Double description (check_ideal, classify_rows) and simplex over many
    fixed-z slices (check_projection) do the work.
    """

    name = "verify"

    def __init__(self, pkg, workdir):
        self.pkg = pkg
        self.workdir = workdir

    def setup(self, seed):
        os.makedirs(self.workdir, exist_ok=True)
        self.paths = {}
        for label, args in VERIFY_INSTANCES:
            path = os.path.join(self.workdir, label + ".json")
            if self.pkg.cli.main(["gen"] + args + ["-o", path]) != 0:
                raise RuntimeError("cdcbranch gen failed for %s" % label)
            self.paths[label] = path
        self.pairings = verify_pairings()
        self.rows = None

    def reference_data(self):
        self.vertices = {
            label: reference.vertex_count_from_instance(path)
            for label, path in self.paths.items()
        }

    def _check(self, rc, out, inst):
        with open(out) as fh:
            report = json.load(fh)
        self.round_rows += report["rows"]
        return reference.check_verify(rc, report, self.vertices[inst])

    def round(self, rng):
        order = list(self.pairings)
        rng.shuffle(order)
        self.round_rows = 0
        ops = []
        for inst, encoding, builder in order:
            out = os.path.join(self.workdir, "report.json")
            argv = ["verify", "--instance", self.paths[inst], "--encoding", encoding,
                    "--builder", builder, "-o", out]
            ops.append(Operation(
                "%s/%s/%s" % (inst, encoding, builder),
                lambda argv=argv: self.pkg.cli.main(argv),
                lambda rc, out=out, inst=inst: self._check(rc, out, inst),
            ))
        return ops

    def round_done(self):
        if self.rows is None:
            self.rows = self.round_rows


class Build:
    """Every builder on sos2 d = 64 and the 16- and 32-piece annulus.

    The convex-position LPs of encodings.is_convex_position take most of
    the time, then hyperplane-normal enumeration, rank and nullspace.
    """

    name = "build"

    def __init__(self, pkg):
        self.pkg = pkg

    def setup(self, seed):
        cdc, enc = self.pkg.cdc, self.pkg.encodings
        self.jobs = []
        fam = cdc.sos2_family(64)
        sets = reference.sos2_sets(64)
        moment, exotic = enc.moment_code(64), enc.exotic_code(64)
        for code in (enc.gray_code(6), enc.zigzag_code(6), moment, exotic):
            self.jobs.append(("sos2-64/general/" + code.kind, "build_general",
                              (fam, code), sets, code, "general"))
        self.jobs += [
            ("sos2-64/2d/moment", "build_2d", (fam, moment), sets, moment, "2d"),
            ("sos2-64/2d/exotic", "build_2d", (fam, exotic), sets, exotic, "2d"),
            ("sos2-64/moment-curve", "build_moment_curve", (fam,), sets,
             reference.moment_codes(64), "moment-curve"),
            ("sos2-64/sos2-exotic", "build_sos2_exotic", (64,), sets, exotic, "sos2-exotic"),
        ]
        for d in (16, 32):
            fam = cdc.annulus_instance("1", "3", d)[0]
            sets = reference.annulus_sets(d)
            r = (d - 1).bit_length()
            codes = {"gray": enc.gray_code(r), "zigzag": enc.zigzag_code(r),
                     "moment": enc.moment_code(d), "exotic": enc.exotic_code(d)}
            for kind, code in codes.items():
                self.jobs.append(("annulus-%d/general/%s" % (d, kind), "build_general",
                                  (fam, code), sets, code, "general"))
            for kind in ("gray", "zigzag", "exotic"):
                self.jobs.append(("annulus-%d/annulus/%s" % (d, kind), "build_annulus",
                                  (d, kind), sets, codes[kind], "annulus-" + kind))
        self.rows = None

    def reference_data(self):
        self.ref = {
            job[0]: ([tuple(T) for T in job[3]], [tuple(h) for h in job[4]])
            for job in self.jobs
        }

    def _check(self, form, label, builder):
        self.round_rows += 2 * len(form.rows)
        sets, codes = self.ref[label]
        return reference.check_build(form, sets, codes, builder)

    def round(self, rng):
        order = list(self.jobs)
        rng.shuffle(order)
        self.round_rows = 0
        fm = self.pkg.formulation
        return [
            Operation(
                label,
                lambda fn=fn, args=args: getattr(fm, fn)(*args),
                lambda form, label=label, builder=builder: self._check(form, label, builder),
            )
            for label, fn, args, _, _, builder in order
        ]

    def round_done(self):
        if self.rows is None:
            self.rows = self.round_rows


def union_pieces(rng, j):
    """Four planar boxes for union instance j, box k cut by one slanted row
    when j + k is even.  rng moves the boxes, their sizes and the slanted
    rows, never the row count."""
    pieces = []
    for k in range(4):
        lox, loy = rng.randint(-9, 6), rng.randint(-9, 6)
        hix, hiy = lox + rng.randint(1, 5), loy + rng.randint(1, 5)
        A = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        b = [hix, -lox, hiy, -loy]
        if (j + k) % 2 == 0:
            g = (rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2)))
            # the row keeps the box centre, so no piece is empty
            b.append(Fraction(g[0] * (lox + hix) + g[1] * (loy + hiy), 2) + rng.randint(1, 3))
            A.append(g)
        pieces.append(([tuple(Fraction(x) for x in a) for a in A], [Fraction(x) for x in b]))
    return pieces


class Union:
    """build_bigm_moment over unions of planar boxes, solved with the moment
    scheme: branch and bound goes several nodes deep, so per-node work
    (with_cuts, phase 1 at every node, branching.step) dominates.

    The boxes of union j are drawn from random.Random(j), and each union
    is solved in four fixed directions, one per quadrant; the seed draws
    the order.  How deep a tree goes follows the box geometry and the
    direction, and a run holds about a hundred solves, so seeded boxes or
    objectives moved the figures by 10-40% from seed to seed.
    """

    name = "union"
    instances = 8
    objectives = tuple(
        [Fraction(a), Fraction(b)] for a, b in ((3, 1), (-1, 3), (-3, -1), (1, -3)))

    def __init__(self, pkg):
        self.pkg = pkg

    def setup(self, seed):
        HRepPiece = self.pkg.cdc.HRepPiece
        self.unions = []
        for j in range(self.instances):
            pieces = union_pieces(random.Random(j), j)
            system = self.pkg.formulation.build_bigm_moment(
                [HRepPiece(A, b) for A, b in pieces])
            self.unions.append(("union-%d" % j, pieces, system))
        self.rows = sum(len(system.rows) for _, _, system in self.unions)

    def reference_data(self):
        pass

    def round_done(self):
        pass

    def round(self, rng):
        order = [(u, c) for u in self.unions for c in self.objectives]
        rng.shuffle(order)
        return [
            Operation(
                label,
                lambda system=system, c=c: self.pkg.solver.solve(system, c, "moment"),
                lambda rep, pieces=pieces, c=c: reference.check_union(pieces, c, rep),
            )
            for (label, pieces, system), c in order
        ]
