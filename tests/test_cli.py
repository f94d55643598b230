"""End-to-end tests for the command line front end."""

import csv
import hashlib
import json
from fractions import Fraction as F

import pytest

from cdcbranch import cli, lp, oracle
from cdcbranch.cdc import sos2_family
from cdcbranch.cli import main
from cdcbranch.encodings import Encoding, exotic_code
from cdcbranch.formulation import LinearFormulation, TwoSidedRow, build_general, build_sos2_exotic
from cdcbranch.numerics import rat


def run(*argv):
    return main(list(argv))


def gen(tmp_path, *argv):
    path = tmp_path / "instance.json"
    assert run("gen", *argv, "-o", str(path)) == 0
    return path


def test_gen_sos2(tmp_path):
    path = gen(tmp_path, "--family", "sos2", "--d", "16")
    obj = json.loads(path.read_text())
    assert obj["n"] == 17
    assert len(obj["sets"]) == 16
    assert obj["meta"]["family"] == "sos2"


def test_gen_annulus(tmp_path):
    path = gen(tmp_path, "--family", "annulus", "--d", "8")
    obj = json.loads(path.read_text())
    assert obj["n"] == 16
    assert len(obj["vertices"]) == 16
    assert obj["meta"]["outer"] == "3"


def test_gen_grid(tmp_path):
    path = gen(tmp_path, "--family", "grid")
    obj = json.loads(path.read_text())
    assert obj["n"] == 9 and len(obj["sets"]) == 8
    assert len(obj["vertices"]) == 9


def test_gen_requires_d(tmp_path, capsys):
    assert run("gen", "--family", "sos2", "-o", str(tmp_path / "x.json")) == 2
    assert "error:" in capsys.readouterr().err


def test_build_sos2_exotic(tmp_path):
    inst = gen(tmp_path, "--family", "sos2", "--d", "16")
    out = tmp_path / "form.json"
    text = tmp_path / "form.txt"
    code = run(
        "build", "--instance", str(inst), "--encoding", "exotic",
        "--builder", "sos2-exotic", "-o", str(out), "--text", str(text),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 2
    rendered = text.read_text()
    assert "<=" in rendered and "sum(lam) == 1" in rendered


def test_build_general_matches_closed_form(tmp_path):
    inst = gen(tmp_path, "--family", "sos2", "--d", "16")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run("build", "--instance", str(inst), "--encoding", "exotic",
               "--builder", "general", "-o", str(a)) == 0
    assert run("build", "--instance", str(inst), "--encoding", "exotic",
               "--builder", "sos2-exotic", "-o", str(b)) == 0
    da = json.loads(a.read_text())
    db = json.loads(b.read_text())
    assert len(da["rows"]) == len(db["rows"]) == 2


def test_build_annulus_zigzag(tmp_path):
    inst = gen(tmp_path, "--family", "annulus", "--d", "8")
    out = tmp_path / "form.json"
    assert run("build", "--instance", str(inst), "--encoding", "zigzag",
               "--builder", "annulus", "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 6


def test_build_rejects_bad_combos(tmp_path, capsys):
    sos2 = gen(tmp_path, "--family", "sos2", "--d", "8")
    out = str(tmp_path / "x.json")
    assert run("build", "--instance", str(sos2), "--encoding", "gray",
               "--builder", "sos2-exotic", "-o", out) == 2
    assert run("build", "--instance", str(sos2), "--encoding", "gray",
               "--builder", "annulus", "-o", out) == 2
    assert run("build", "--instance", str(sos2), "--encoding", "gray",
               "--builder", "moment", "-o", out) == 2
    capsys.readouterr()


def test_solve_reproducible(tmp_path):
    inst = gen(tmp_path, "--family", "sos2", "--d", "8")
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    argv = ("solve", "--instance", str(inst), "--encoding", "moment",
            "--builder", "moment", "--scheme", "moment", "--seed", "7")
    assert run(*argv, "-o", str(first)) == 0
    assert run(*argv, "-o", str(second)) == 0
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    assert doc["status"] == "optimal"
    assert doc["value"] == doc["brute_force_value"]
    assert doc["seed"] == 7
    assert "wall_micros" not in doc


def test_solve_annulus_exotic(tmp_path):
    inst = gen(tmp_path, "--family", "annulus", "--d", "8")
    out = tmp_path / "r.json"
    assert run("solve", "--instance", str(inst), "--encoding", "exotic",
               "--scheme", "exotic", "--seed", "3", "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["value"] == doc["brute_force_value"]


def test_solve_grid_variable_scheme(tmp_path):
    inst = gen(tmp_path, "--family", "grid")
    out = tmp_path / "r.json"
    assert run("solve", "--instance", str(inst), "--encoding", "gray",
               "--scheme", "variable", "--seed", "1", "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["value"] == doc["brute_force_value"]


def test_solve_with_x_objective(tmp_path):
    inst = gen(tmp_path, "--family", "grid")
    objf = tmp_path / "obj.json"
    objf.write_text(json.dumps({"x": ["1", "1"]}))
    out = tmp_path / "r.json"
    assert run("solve", "--instance", str(inst), "--encoding", "moment",
               "--builder", "moment", "--scheme", "moment",
               "--objective", str(objf), "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert rat(doc["value"]) == 4
    assert doc["x"] == ["2", "2"]


def test_solve_with_lam_objective(tmp_path):
    inst = gen(tmp_path, "--family", "sos2", "--d", "4")
    objf = tmp_path / "obj.json"
    objf.write_text(json.dumps({"lam": ["0", "0", "1", "0", "0"]}))
    out = tmp_path / "r.json"
    assert run("solve", "--instance", str(inst), "--encoding", "exotic",
               "--scheme", "exotic", "--objective", str(objf),
               "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert rat(doc["value"]) == 1


def test_build_refuses_non_integer_instance_entries(tmp_path, capsys):
    # truncated, each file would be the sos2 family for d = 3, which builds
    inst = tmp_path / "instance.json"
    for n, first, why in ((4.5, [1, 2], "n must be an int"),
                          (4, [1, 2.5], "alternative indices must be ints")):
        inst.write_text(json.dumps({"n": n, "sets": [first, [2, 3], [3, 4]]}))
        assert run("build", "--instance", str(inst), "--encoding", "moment",
                   "-o", str(tmp_path / "form.json")) == 2
        assert capsys.readouterr().err == "error: %s\n" % why


def test_solve_refuses_a_short_vertex_map(tmp_path, capsys):
    # four vertices for five components: zip would drop the last lam
    # component from x
    inst = gen(tmp_path, "--family", "sos2", "--d", "4")
    obj = json.loads(inst.read_text())
    inst.write_text(json.dumps(dict(obj, vertices=[[k, k * k] for k in range(4)])))
    objf = tmp_path / "obj.json"
    objf.write_text(json.dumps({"lam": [0, 0, 0, 0, 7]}))
    assert run("solve", "--instance", str(inst), "--encoding", "exotic",
               "--scheme", "exotic", "--objective", str(objf),
               "-o", str(tmp_path / "r.json")) == 2
    assert capsys.readouterr().err == "error: the vertex map needs one vertex per component\n"


def test_solve_refuses_a_bool_objective_entry(tmp_path, capsys):
    # JSON true is a Python bool, an int subclass: read as 1 it would solve
    inst = gen(tmp_path, "--family", "sos2", "--d", "4")
    objf = tmp_path / "obj.json"
    objf.write_text(json.dumps({"lam": [True, 0, 0, 0, 0]}))
    assert run("solve", "--instance", str(inst), "--encoding", "exotic",
               "--scheme", "exotic", "--objective", str(objf),
               "-o", str(tmp_path / "r.json")) == 2
    assert capsys.readouterr().err == "error: True is a bool, not a rational\n"


@pytest.mark.parametrize(
    "obj, why",
    [
        ({"n": 2, "sets": [1, 2]}, "the field 'sets' must be a list of lists"),
        ({"n": 2}, "an instance needs the field 'sets'"),
    ],
)
def test_build_names_the_malformed_instance_field(tmp_path, capsys, obj, why):
    inst = tmp_path / "instance.json"
    inst.write_text(json.dumps(obj))
    assert run("build", "--instance", str(inst), "--encoding", "moment",
               "-o", str(tmp_path / "form.json")) == 2
    assert capsys.readouterr().err == "error: %s\n" % why


def test_solve_rejects_incompatible_scheme(tmp_path, capsys):
    inst = gen(tmp_path, "--family", "sos2", "--d", "8")
    assert run("solve", "--instance", str(inst), "--encoding", "gray",
               "--scheme", "moment", "-o", str(tmp_path / "x.json")) == 2
    assert "incompatible" in capsys.readouterr().err


def test_bad_builder_is_an_argparse_error_on_solve_and_verify(tmp_path, capsys):
    # the instance file does not exist: argparse rejects the builder first
    missing = str(tmp_path / "missing.json")
    for argv in (
        ["solve", "--instance", missing, "--encoding", "moment",
         "--builder", "bogus", "--scheme", "moment"],
        ["verify", "--instance", missing, "--encoding", "moment",
         "--builder", "bogus"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err and "missing.json" not in err


def test_one_parser_serves_every_call(tmp_path, capsys):
    # the parser is built once per process; an argparse error and a run
    # with other options leave nothing behind for the next call
    assert cli.build_parser() is cli.build_parser()
    inst = str(gen(tmp_path, "--family", "grid"))
    with pytest.raises(SystemExit):
        run("solve", "--instance", inst, "--encoding", "moment", "--scheme", "bogus")
    capsys.readouterr()
    out = tmp_path / "s.json"
    assert run("solve", "--instance", inst, "--encoding", "moment", "--scheme", "moment",
               "--sense", "min", "--debug-checks", "-o", str(out)) == 0
    args = cli.build_parser().parse_args(["solve", "--instance", inst, "--encoding", "moment",
                                          "--scheme", "moment"])
    assert (args.sense, args.debug_checks, args.seed, args.output) == ("max", False, 0, "-")
    assert args.func is cli.cmd_solve and json.loads(out.read_text())["status"] == "optimal"


def test_verify_grid_moment(tmp_path):
    inst = gen(tmp_path, "--family", "grid")
    out = tmp_path / "v.json"
    assert run("verify", "--instance", str(inst), "--encoding", "moment",
               "--builder", "moment", "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["valid"]["ok"] and doc["ideal"]["ok"] and doc["projection"]["ok"]
    assert doc["row_classes"] == {"facet": 8, "tight-nonfacet": 18}
    assert doc["rows"] == 26
    # the formulation is valid and ideal, so the projection is read off its
    # vertices with no slice LP, and a rerun writes the same bytes
    assert doc["projection"]["stats"] == {"pivots": 0, "probes": 0}
    again = tmp_path / "again.json"
    assert run("verify", "--instance", str(inst), "--encoding", "moment",
               "--builder", "moment", "-o", str(again)) == 0
    assert again.read_bytes() == out.read_bytes()


def sos2_exotic_without_its_second_row():
    """build_sos2_exotic(8) without the row that bounds z2, which leaves
    the relaxation unbounded: 2 of the 13 facets of the embedding points'
    hull match no row."""
    form = build_sos2_exotic(8)
    return LinearFormulation(form.n, form.r, form.rows[:1], form.hull_equations,
                             family=form.family, codes=form.codes, meta=form.meta)


def sos2_exotic_loosened():
    """build_general(sos2-4, exotic) with one lower coefficient lowered by
    1: every row stays valid, but the relaxation gains a vertex whose z is
    no code."""
    form = build_general(sos2_family(4), exotic_code(4))
    row = form.rows[0]
    lower = list(row.lower)
    lower[2] -= 1
    rows = [TwoSidedRow(row.direction, lower, row.upper, row.den)] + form.rows[1:]
    return LinearFormulation(form.n, form.r, rows, form.hull_equations,
                             family=form.family, codes=form.codes, meta=form.meta)


def test_a_closed_form_verify_makes_one_encoding(tmp_path, monkeypatch):
    # a closed-form builder makes its own codes, so the encoding named on
    # the command line is made only for the general and planar builders
    made = []
    real = Encoding.__init__
    monkeypatch.setattr(Encoding, "__init__", lambda self, *a, **k: made.append(self) or real(self, *a, **k))
    out = str(tmp_path / "v.json")
    for family, encoding, builder in (("sos2", "moment", "moment"),
                                      ("sos2", "exotic", "sos2-exotic"),
                                      ("annulus", "zigzag", "annulus"),
                                      ("sos2", "moment", "general")):
        inst = str(gen(tmp_path, "--family", family, "--d", "8"))
        made.clear()
        assert run("verify", "--instance", inst, "--encoding", encoding,
                   "--builder", builder, "-o", out) == 0
        assert len(made) == 1


def test_verify_enumerates_the_relaxation_only_without_a_certificate(tmp_path, monkeypatch,
                                                                      capsys):
    calls = {"enumerate_vertices": [], "code_values": []}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name].append(args[0])
            return real(*args, **kwargs)
        return wrapper

    # every module that binds the name, as `from .lp import` does
    for name in calls:
        real = getattr(lp, name, None) or getattr(oracle, name)
        for module in (lp, oracle, cli):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted(name, real))

    def verify(*argv):
        for got in calls.values():
            got.clear()
        return run("verify", "--instance", inst, *argv, "-o", str(out))

    out = tmp_path / "v.json"
    inst = str(gen(tmp_path, "--family", "grid"))
    # the ideal grid formulation is certified: its vertices are the
    # embedding points, and no vertex is enumerated
    assert verify("--encoding", "moment", "--builder", "moment") == 0
    assert len(calls["enumerate_vertices"]) == 0
    assert len(calls["code_values"]) == 1
    # two formulations the certificate refuses, each enumerated once and
    # reported as before the certificate: an unbounded relaxation exits 2,
    # and a bounded one that is not ideal writes its report and exits 1
    inst = str(gen(tmp_path, "--family", "sos2", "--d", "8"))
    out.write_text("")
    monkeypatch.setattr(cli, "_build", lambda *_: sos2_exotic_without_its_second_row())
    assert verify("--encoding", "exotic") == 2
    assert capsys.readouterr().err == "error: feasible set is unbounded\n"
    assert out.read_text() == ""
    assert len(calls["enumerate_vertices"]) == 1
    monkeypatch.setattr(cli, "_build", lambda *_: sos2_exotic_loosened())
    assert verify("--encoding", "exotic") == 1
    assert len(calls["enumerate_vertices"]) == len(calls["code_values"]) == 1
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LOOSENED_REPORT_SHA256
    doc = json.loads(out.read_text())
    assert doc["ideal"]["failures"] == [{"where": "vertex with off-code z", "z": ["1", "-1"]}]
    assert doc["ideal"]["stats"] == {"vertices": 8} and doc["valid"]["ok"]


# sha256 of the verify report of sos2_exotic_loosened(), written by
# double description before the certificate existed
LOOSENED_REPORT_SHA256 = "4edd8bcf52d4d4fc2050e3bd4c6f60cfdf2f1ee225d29ad80f33d290b29a421c"


def test_two_codes_are_refused_by_build_solve_and_verify(tmp_path, capsys):
    # two codes span a line: a row along it would leave z free, so every
    # builder refuses them and each command exits 2 with that error
    inst = str(gen(tmp_path, "--family", "sos2", "--d", "2"))
    out = str(tmp_path / "out.json")
    for builder in ("2d", "moment", "general"):
        common = ["--instance", inst, "--encoding", "moment", "--builder", builder,
                  "-o", out]
        for argv in (["build"] + common, ["solve", "--scheme", "moment"] + common,
                     ["verify"] + common):
            assert run(*argv) == 2, argv
            err = capsys.readouterr().err
            assert err == "error: code differences span a line, no hyperplane family exists\n"


def test_bench_csv(tmp_path):
    out = tmp_path / "bench.csv"
    assert run("bench", "--families", "sos2", "--sizes", "4",
               "--encodings", "moment,exotic", "--schemes", "moment,exotic",
               "--seeds", "2", "-o", str(out)) == 0
    with open(out) as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == [
            "family", "d", "n", "encoding", "scheme",
            "rows", "nodes", "value", "micros",
        ]
        rows = list(reader)
    # each encoding pairs with exactly one scheme
    assert len(rows) == 4
    for row in rows:
        assert int(row["nodes"]) >= 1
        rat(row["value"])
    by_enc = {row["encoding"]: int(row["rows"]) for row in rows}
    assert by_enc["exotic"] == 4
    assert by_enc["moment"] == 6


def test_bench_reports_skipped_encodings(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert run("bench", "--families", "sos2", "--sizes", "6",
               "--encodings", "exotic", "--schemes", "exotic", "-o", str(out)) != 0
    err = capsys.readouterr().err
    assert "skipped: sos2 d=6 exotic: d must be a positive multiple of 4" in err
    assert "error: bench produced no rows" in err
    # a skip next to a row that is produced still succeeds
    assert run("bench", "--families", "sos2", "--sizes", "6",
               "--encodings", "moment,exotic", "--schemes", "moment",
               "--seeds", "1", "-o", str(out)) == 0
    assert "skipped: sos2 d=6 exotic:" in capsys.readouterr().err
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["encoding"], row["scheme"]) for row in rows] == [("moment", "moment")]


def test_bench_runs_the_grid_once(tmp_path):
    out = tmp_path / "bench.csv"
    assert run("bench", "--families", "sos2,grid", "--sizes", "4,8",
               "--encodings", "moment", "--schemes", "moment",
               "--seeds", "2", "-o", str(out)) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    # two sos2 sizes and the one grid instance, two seeds each
    assert [(row["family"], row["d"]) for row in rows] == [
        ("sos2", "4"), ("sos2", "4"), ("sos2", "8"), ("sos2", "8"),
        ("grid", "8"), ("grid", "8"),
    ]
