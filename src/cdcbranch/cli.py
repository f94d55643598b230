"""Command-line front end: generate, build, solve, verify, bench.

Artifacts are JSON with rationals rendered as 'p/q' strings, so every
number survives a round trip exactly.  gen, build, solve, and verify
outputs are pure functions of the arguments; only the bench CSV records
wall-clock times.
"""

import argparse
import csv
import functools
import json
import random
import sys
from collections import Counter

from .branching import make_scheme
from .cdc import (
    annulus_family,
    annulus_instance,
    grid_triangulation_fixture,
    instance_from_json,
    instance_to_json,
    sos2_family,
)
from .encodings import EncodingError, exotic_code, gray_code, moment_code, zigzag_code
from .formulation import (
    build_2d,
    build_annulus,
    build_general,
    build_moment_curve,
    build_sos2_exotic,
)
from .numerics import format_rational, rat
from .oracle import (
    brute_force_optimum,
    certified_vertices,
    check_ideal,
    check_projection,
    check_valid,
    classify_rows,
    code_values,
    objective_from_vertex_map,
    relaxation_vertices,
)
from .solver import solve as bb_solve


class CliError(Exception):
    pass


# family name -> its family with d alternatives; the grid is one fixed
# instance and ignores d
FAMILIES = {
    "sos2": sos2_family,
    "annulus": annulus_family,
    "grid": lambda d: grid_triangulation_fixture()[0],
}


def _family(name, d):
    """The named family and the meta its instance file records, or
    (None, None) when the family needs a d and d is None."""
    if name not in FAMILIES:
        raise CliError("unknown family %r" % (name,))
    if d is None and name != "grid":
        return None, None
    family = FAMILIES[name](d)
    return family, {"family": name, "d": family.d}


def _load_instance(path):
    """(family, vertex map, meta) of an instance file."""
    with open(path) as fh:
        obj = json.load(fh)
    family, vm = instance_from_json(obj)
    return family, vm, obj.get("meta", {})


def _encoding_for(name, d):
    if name == "gray":
        r = max(1, (d - 1).bit_length())
        return gray_code(r, d)
    if name == "zigzag":
        r = max(1, (d - 1).bit_length())
        return zigzag_code(r, d)
    if name == "moment":
        return moment_code(d)
    if name == "exotic":
        return exotic_code(d)
    raise CliError("unknown encoding %r" % (name,))


def _build(family, meta, encoding_name, builder):
    # only the general and planar builders read the named encoding; each
    # closed form makes its own codes
    d = family.d
    if builder == "general":
        return build_general(family, _encoding_for(encoding_name, d))
    if builder == "2d":
        return build_2d(family, _encoding_for(encoding_name, d))
    if builder == "moment":
        if encoding_name != "moment":
            raise CliError("the moment builder pairs with the moment encoding")
        return build_moment_curve(family)
    if builder == "sos2-exotic":
        if family != sos2_family(d):
            raise CliError("the sos2-exotic builder needs a consecutive-pair family")
        if encoding_name != "exotic":
            raise CliError("the sos2-exotic builder pairs with the exotic encoding")
        return build_sos2_exotic(d)
    if builder == "annulus":
        if meta.get("family") != "annulus":
            raise CliError("the annulus builder needs an annulus instance")
        return build_annulus(d, encoding_name)
    raise CliError("unknown builder %r" % (builder,))


def _write_json(path, obj):
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_text(path, text):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_gen(args):
    family, meta = _family(args.family, args.d)
    if family is None:
        raise CliError("--d is required for %s" % args.family)
    vm = None
    if args.family == "annulus":
        _, vm = annulus_instance(args.inner, args.outer, args.d)
        meta.update(inner=args.inner, outer=args.outer)
    elif args.family == "grid":
        _, vm = grid_triangulation_fixture()
    obj = instance_to_json(family, vm)
    obj["meta"] = meta
    _write_json(args.output, obj)
    return 0


def cmd_build(args):
    family, _, meta = _load_instance(args.instance)
    form = _build(family, meta, args.encoding, args.builder)
    _write_json(args.output, form.to_json())
    if args.text:
        _write_text(args.text, form.to_text())
    return 0


def _objective_for(args, family, vm):
    if args.objective:
        with open(args.objective) as fh:
            spec = json.load(fh)
        if "lam" in spec:
            return [rat(x) for x in spec["lam"]]
        if "x" in spec:
            if vm is None:
                raise CliError("an x objective needs instance vertices")
            c_x = [rat(x) for x in spec["x"]]
            return list(objective_from_vertex_map(vm, c_x))
        raise CliError("objective file needs a 'lam' or 'x' entry")
    rng = random.Random(args.seed)
    return [rng.randint(-9, 9) for _ in range(family.n)]


def cmd_solve(args):
    family, vm, meta = _load_instance(args.instance)
    form = _build(family, meta, args.encoding, args.builder)
    c_lam = _objective_for(args, family, vm)
    report = bb_solve(
        form,
        c_lam,
        args.scheme,
        sense=args.sense,
        node_cap=args.node_cap,
        vertex_map=vm,
        debug_checks=args.debug_checks,
    )
    out = report.to_json()
    # timing is measurement noise; dropping it keeps rerun artifacts identical
    out.pop("wall_micros", None)
    out["seed"] = args.seed
    out["objective"] = [format_rational(x) for x in c_lam]
    reference = brute_force_optimum(family, c_lam, sense=args.sense)
    out["brute_force_value"] = format_rational(reference[0])
    _write_json(args.output, out)
    if report.status != "optimal" or report.value != reference[0]:
        return 1
    return 0


def cmd_verify(args):
    family, _, meta = _load_instance(args.instance)
    form = _build(family, meta, args.encoding, args.builder)
    # the two tables the checks read, each computed once: the vertices are
    # the embedding points when the certificate proves it, and come from
    # double description of the relaxation only when it does not.  On a
    # valid, ideal relaxation each slice z = h_i is a face, so
    # check_projection reads it off the vertices; otherwise it probes by LP
    values = code_values(form)
    valid = check_valid(form, values)
    vertices, masks = certified_vertices(form, values, valid) or (relaxation_vertices(form), None)
    ideal = check_ideal(form, vertices)
    faces = vertices if valid.ok and ideal.ok else None
    reports = (valid, ideal, check_projection(form, values, faces))
    out = {rep.kind: rep.to_json() for rep in reports}
    out["row_classes"] = Counter(e["class"] for e in classify_rows(form, vertices, masks))
    out["rows"] = 2 * len(form.rows)
    _write_json(args.output, out)
    return 0 if all(reports) else 1


def cmd_bench(args):
    families = args.families.split(",")
    sizes = [int(s) for s in args.sizes.split(",")] if args.sizes else [None]
    encodings = args.encodings.split(",")
    schemes = args.schemes.split(",")
    rows_out = []
    for fam_name in families:
        # the grid takes no size, so it runs once whatever --sizes holds
        for d in [None] if fam_name == "grid" else sizes:
            family, meta = _family(fam_name, d)
            if family is None:
                continue
            for enc_name in encodings:
                try:
                    form = _build(family, meta, enc_name, "general")
                except EncodingError as exc:
                    sys.stderr.write(
                        "skipped: %s d=%s %s: %s\n" % (fam_name, family.d, enc_name, exc)
                    )
                    continue
                for scheme_name in schemes:
                    scheme = make_scheme(scheme_name)
                    ok, _ = scheme.compatible(form.codes)
                    if not ok:
                        continue
                    for seed in range(args.seeds):
                        rng = random.Random(seed)
                        c = [rng.randint(-9, 9) for _ in range(family.n)]
                        report = bb_solve(form, c, scheme)
                        rows_out.append(
                            {
                                "family": fam_name,
                                "d": family.d,
                                "n": family.n,
                                "encoding": enc_name,
                                "scheme": scheme_name,
                                "rows": 2 * len(form.rows),
                                "nodes": report.nodes,
                                "value": format_rational(report.value),
                                "micros": report.wall_micros,
                            }
                        )
    if not rows_out:
        raise CliError("bench produced no rows")
    out = sys.stdout if args.output == "-" else open(args.output, "w", newline="")
    try:
        writer = csv.DictWriter(out, fieldnames=list(rows_out[0]))
        writer.writeheader()
        writer.writerows(rows_out)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared by every
    later one: parse_args keeps no state in it, and no option appends to a
    default it would share."""
    p = argparse.ArgumentParser(
        prog="cdcbranch",
        description="Ideal formulations of combinatorial disjunctive "
        "constraints, with exact branch-and-bound",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance")
    g.add_argument("--family", required=True, choices=["sos2", "annulus", "grid"])
    g.add_argument("--d", type=int)
    g.add_argument("--inner", default="1", help="annulus inner radius (rational)")
    g.add_argument("--outer", default="3", help="annulus outer radius (rational)")
    g.add_argument("-o", "--output", default="-")
    g.set_defaults(func=cmd_gen)

    # build, solve and verify read one instance and build one formulation
    # from it, so they share these options
    form = argparse.ArgumentParser(add_help=False)
    form.add_argument("--instance", required=True)
    form.add_argument(
        "--encoding",
        required=True,
        choices=["gray", "zigzag", "moment", "exotic"],
    )
    form.add_argument(
        "--builder",
        default="general",
        choices=["general", "2d", "moment", "sos2-exotic", "annulus"],
    )
    form.add_argument("-o", "--output", default="-")

    b = sub.add_parser("build", parents=[form], help="build a formulation for an instance")
    b.add_argument("--text", help="also write a readable rendering here")
    b.set_defaults(func=cmd_build)

    s = sub.add_parser("solve", parents=[form], help="optimize over an instance")
    s.add_argument(
        "--scheme", required=True, choices=["variable", "moment", "exotic"]
    )
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--objective", help="JSON file with a 'lam' or 'x' vector")
    s.add_argument("--sense", default="max", choices=["max", "min"])
    s.add_argument("--node-cap", type=int, default=10 ** 6)
    s.add_argument("--debug-checks", action="store_true")
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser(
        "verify", parents=[form], help="run the oracle checks on a formulation"
    )
    v.set_defaults(func=cmd_verify)

    be = sub.add_parser("bench", help="sweep instances and emit CSV")
    be.add_argument("--families", default="sos2")
    be.add_argument("--sizes", default="4,8")
    be.add_argument("--encodings", default="moment,exotic")
    be.add_argument("--schemes", default="moment,exotic")
    be.add_argument("--seeds", type=int, default=3)
    be.add_argument("-o", "--output", default="-")
    be.set_defaults(func=cmd_bench)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
