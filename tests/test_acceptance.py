"""Acceptance suite: one test per shipped guarantee, run with pytest -v."""

import hashlib
import importlib.util
import json
import pathlib
import random
import sys
import time
from fractions import Fraction as F

import pytest

from cdcbranch.branching import BranchError, make_scheme, psi
from cdcbranch.cdc import (
    HRepPiece,
    annulus_instance,
    grid_triangulation_fixture,
    sos2_family,
)
from cdcbranch import encodings as encodings_module
from cdcbranch import numerics as numerics_module
from cdcbranch import oracle as oracle_module
from cdcbranch.cli import main as cli_main
from cdcbranch.encodings import (
    exotic_code,
    gray_code,
    is_convex_position,
    moment_code,
    zigzag_code,
)
from cdcbranch.formulation import (
    build_2d,
    build_annulus,
    build_bigm_moment,
    build_general,
    build_moment_curve,
    build_sos2_exotic,
)
from cdcbranch.lp import LE, LpProblem, solve_lp
from cdcbranch.numerics import dot
from cdcbranch.oracle import (
    brute_force_optimum,
    brute_force_optimum_hrep,
    certified_vertices,
    check_ideal,
    check_projection,
    check_valid,
    classify_rows,
    code_values,
    relaxation_vertices,
)
from cdcbranch.solver import check_branch_soundness, solve
from oracles import canonical_inequality, separation_certificates_exotic


# The eight facet rows of the 3x3-grid fixture, frozen by hand.  Each entry
# is (t, side, coeffs) for the row  coeffs . lam  vs  t*z1 - z2, where side
# "min" is the lower bound and "max" the upper.
GRID_FACET_ROWS = (
    (5, "max", (4, 4, 6, 4, 6, 6, 4, 6, -24)),
    (7, "max", (6, 6, 12, 12, 12, 12, 12, 10, -8)),
    (8, "min", (7, 7, 12, 7, 7, 0, 15, 0, 0)),
    (9, "min", (8, 8, 18, 8, 14, 8, 20, 8, 8)),
    (9, "max", (8, 18, 18, 20, 20, 18, 20, 20, 8)),
    (10, "min", (9, 9, 21, 9, 16, 16, 24, 16, 16)),
    (11, "max", (10, 30, 30, 28, 30, 24, 30, 30, 24)),
    (13, "max", (12, 42, 42, 42, 42, 40, 40, 40, 40)),
)


def grid_golden_canon():
    out = set()
    for t, side, coeffs in GRID_FACET_ROWS:
        c = tuple(map(F, coeffs))
        if side == "max":
            a = tuple(-x for x in c) + (F(t), F(-1))
        else:
            a = c + (F(-t), F(1))
        out.add(canonical_inequality(a, F(0)))
    return out


def hull_point(rng, H):
    """A seeded convex combination of the codes."""
    w = [F(rng.randint(0, 9)) for _ in H]
    if sum(w) == 0:
        w[0] = F(1)
    s = sum(w)
    r = len(H[0])
    return tuple(sum(wi * F(h[k]) for wi, h in zip(w, H)) / s for k in range(r))


def test_grid_fixture_facet_rows_golden():
    start = time.monotonic()
    fam, _ = grid_triangulation_fixture()
    form = build_moment_curve(fam)
    rows = {row.direction: row for row in form.rows}
    for t, side, coeffs in GRID_FACET_ROWS:
        row = rows[(t, -1)]
        got = row.upper if side == "max" else row.lower
        assert got == tuple(map(F, coeffs)), (t, side)
    entries = classify_rows(form, relaxation_vertices(form))
    facets = {
        canonical_inequality(e["coeffs"], e["rhs"])
        for e in entries
        if e["class"] == "facet"
    }
    assert facets == grid_golden_canon()
    census = {}
    for e in entries:
        census[e["class"]] = census.get(e["class"], 0) + 1
    assert census == {"facet": 8, "tight-nonfacet": 18}
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print("grid fixture: 8 facet rows exact, census %s, %.2fs" % (census, elapsed))


def test_sos2_17_closed_form_golden():
    form = build_sos2_exotic(16)
    assert len(form.rows) == 2
    assert len(form.one_sided()) == 4
    z1, z2 = form.rows
    assert z1.direction == (1, 0) and z2.direction == (0, 1)
    assert z1.lower == tuple(
        map(F, (-4, -4, 4, -3, -3, -3, 3, -2, -2, -2, 2, -1, -1, -1, 1, 0, 0))
    )
    assert z1.upper == tuple(
        map(F, (-4, 4, 4, 4, -3, 3, 3, 3, -2, 2, 2, 2, -1, 1, 1, 1, 0))
    )
    assert z2.lower == tuple(
        map(F, (0, 0, 0, 4, -4, -4, -4, 7, -7, -7, -7, 9, -9, -9, -9, 10, 10))
    )
    assert z2.upper == tuple(
        map(F, (0, 0, 4, 4, 4, -4, 7, 7, 7, -7, 9, 9, 9, -9, 10, 10, 10))
    )
    print("sos2 n=17: 2 two-sided rows, all 4 coefficient vectors exact")


def builder_matrix():
    """Every (label, formulation) pair the idealness guarantee covers."""
    out = []
    for d in (4, 8, 16):
        fam = sos2_family(d)
        k = (d - 1).bit_length()
        for enc in (gray_code(k), zigzag_code(k), moment_code(d), exotic_code(d)):
            out.append(("sos2-%d general %s" % (d, enc.kind), build_general(fam, enc)))
        out.append(("sos2-%d 2d moment" % d, build_2d(fam, moment_code(d))))
        out.append(("sos2-%d 2d exotic" % d, build_2d(fam, exotic_code(d))))
        out.append(("sos2-%d moment-curve" % d, build_moment_curve(fam)))
        out.append(("sos2-%d closed form" % d, build_sos2_exotic(d)))
    fam, _ = annulus_instance("1", "3", 8)
    for enc in (gray_code(3), zigzag_code(3), moment_code(8), exotic_code(8)):
        out.append(("annulus general %s" % enc.kind, build_general(fam, enc)))
    for kind in ("gray", "zigzag", "exotic"):
        out.append(("annulus closed form %s" % kind, build_annulus(8, kind)))
    out.append(("annulus 2d moment", build_2d(fam, moment_code(8))))
    out.append(("annulus 2d exotic", build_2d(fam, exotic_code(8))))
    out.append(("annulus moment-curve", build_moment_curve(fam)))
    fam, _ = grid_triangulation_fixture()
    for enc in (gray_code(3), zigzag_code(3), moment_code(8), exotic_code(8)):
        out.append(("grid general %s" % enc.kind, build_general(fam, enc)))
    out.append(("grid 2d moment", build_2d(fam, moment_code(8))))
    out.append(("grid 2d exotic", build_2d(fam, exotic_code(8))))
    out.append(("grid moment-curve", build_moment_curve(fam)))
    return out


# sha256 of form.to_json() as indented JSON, a newline and form.to_text(),
# for each builder_matrix() formulation: every coefficient, hull equation
# and meta field of the shipped formulations, frozen.
BUILDER_MATRIX_SHA256 = {
    "sos2-4 general gray": "855dfe7eae4f95ba2c95d60ac85ac71981f1e19831f84e554d1dcca64dc2a1ff",
    "sos2-4 general zigzag": "7a4f834e8dcc3440802e0a39664c28d5e938c4a5653119bd395d86f2bddc79e2",
    "sos2-4 general moment": "c6807db8ff40a0e8c4529767745bf205cbedb86a91ab118f610081367beb53a1",
    "sos2-4 general exotic": "fe1c2885f3a1d8056fecacc32dfac147c2ce01a3c7874cf9b2b9254d8524acf8",
    "sos2-4 2d moment": "971f26d557d4fc3d113c2a2c4ff9abf64daac182e9bdd038a8ca124b7afec24f",
    "sos2-4 2d exotic": "38558391cefa70539f1f5d62dad4f4c04a1327e606f4c7816f09165990e10c0e",
    "sos2-4 moment-curve": "d042c0d973edadca151102fec4bdb9a3979c4ac192a71dc315a5ae9f5708619e",
    "sos2-4 closed form": "8e5fe4adb4ab15067b07bc870e81dcbea6a5921935da862b43fd5aae6ffa2aea",
    "sos2-8 general gray": "9294345d184068878b3940d57f20badee6a835891d84db24df8729c21223df64",
    "sos2-8 general zigzag": "7f290961c46b4992feaa4b165b6bd118c955d62a3680b081648b4b9808b9de93",
    "sos2-8 general moment": "1a15e8a7fcdd7c37bfdc80f60dd0f1d18f765ce28be731e2452ff93d7ec2a190",
    "sos2-8 general exotic": "16eb6be219a281730b3d12ba01f844455eacf84e79439bded8ee16a754ab94f0",
    "sos2-8 2d moment": "1e26bb660669561d44b1b38d7db876a54e1b31badfc84cadd8f6d69e81a514b4",
    "sos2-8 2d exotic": "274fb4c36420c0dd19a7d5c4bcfa23b2e6aa31ce12bc2bbf966b53ed365b6d73",
    "sos2-8 moment-curve": "660614bd9efcd9985a5e3b36f56325c4f6a87d8f25cf8edeb0476780e4de4ea8",
    "sos2-8 closed form": "79e647f9110de1ace96b6e29b475bb511ac0a878e17f61c4e17113e1d21ce33b",
    "sos2-16 general gray": "fa7b5b8f9f506db806b69f2c59de9dd635e82b2304a56772b364523e8d7cc84f",
    "sos2-16 general zigzag": "f92403a0846e7401c98e9f70e27895bbae6673fb42f8ea75d698df1d4645371f",
    "sos2-16 general moment": "e39bebedc9ff18be9e7fa43980d0b96b3d6104767650fcce09e8c8af10d850a6",
    "sos2-16 general exotic": "edb7d612892a7c0714094ca716301bb5d400e417e71ad41df2f2f86a73e45821",
    "sos2-16 2d moment": "8ce102b68711b3475dd2506937422a7a2b40460efab3fbb27894f19fa532293d",
    "sos2-16 2d exotic": "6b0b9ded4b4168f87e31986d212a20351187ef48512641a6ffb53727bffe618a",
    "sos2-16 moment-curve": "0d6eaf5b5db7b20e0bdeaceb1aee3e6e39b7696fdc9e36fe3c53a957b31cf785",
    "sos2-16 closed form": "fb74551110bedf2d948f76d095ce30ad635e2d7d3469652607628f28d3f88f49",
    "annulus general gray": "2580df8baf5cff1385536ed42df36a1839e538d0a84eae24fad061315c3ad601",
    "annulus general zigzag": "4db67add3f08b216fb338ec423c50c4ed1368d9bd11e5b6420d8240585488993",
    "annulus general moment": "d1631faf273561743d3f65c65fdd452b6240fbf81e93fa5cdd23374fb0125308",
    "annulus general exotic": "c17841db963ce68f0115c6fefe034f65226e156def1e4bbf57317f6530edabbe",
    "annulus closed form gray": "205993e4d98f0b30869650a93713694b488b50e0de75dd81dfbad1bf5c0b7707",
    "annulus closed form zigzag": "b4093b45ea0ab23c1e4cabbe56844c5bc4cebc5ee4c601be2671c56b1240caea",
    "annulus closed form exotic": "c4f7dba70a3388db586aec6770f010406351aad7c6d49e471e94d263e1d8bf58",
    "annulus 2d moment": "e5b1f29bf371b34d7646fefbd80586b1463ba00dbc10163c26b7b5218b128647",
    "annulus 2d exotic": "8cb6fb9aede680fcc86a9eca0f80d8bceeb2d307ab6609b258be2965791e7071",
    "annulus moment-curve": "89c00520a21b4b4c4e524858cb0a947c422b901a081e16e400d2d7408612a3a8",
    "grid general gray": "ce94b65b64117a44f8c34188103a29f3a2e33bf36b48e52458067698bc584495",
    "grid general zigzag": "c557577a84a9d15d1c7f3710a039cbcdbb203c2f7574b53ed40cabc40ac15386",
    "grid general moment": "5ba7aa4d2b5439b0840c28425fea34295f30b8e3ba32c689b29d7b81f345d4e7",
    "grid general exotic": "57016d24421b290d4b2e62ff493bd35bcc5d36b71655425952dae6d1942bba69",
    "grid 2d moment": "333ef64c6e7346e3e59d1692cc00f1d6c0d119daedad84e17dff6235aba3be34",
    "grid 2d exotic": "f39b2c951c082a651308b364a7d68779b1f7311609e3164c7c40956d3741bb85",
    "grid moment-curve": "aa0418b4fcda14d1e76651c8e753a2d017baa875bb2c5d7231cd405b55a5e93b",
}


def artifact_sha256(form):
    return hashlib.sha256(
        (json.dumps(form.to_json(), indent=2) + "\n" + form.to_text()).encode()
    ).hexdigest()


def test_builder_matrix_artifacts_pinned():
    got = {label: artifact_sha256(form) for label, form in builder_matrix()}
    assert got == BUILDER_MATRIX_SHA256


def build_workload_matrix():
    """The formulations of the benchmark's build workload: every builder on
    sos2 d = 64 and on the 16- and 32-piece annulus, at the sizes where
    the builders spend their time."""
    out = []
    fam = sos2_family(64)
    for enc in (gray_code(6), zigzag_code(6), moment_code(64), exotic_code(64)):
        out.append(("sos2-64 general %s" % enc.kind, build_general(fam, enc)))
    out.append(("sos2-64 2d moment", build_2d(fam, moment_code(64))))
    out.append(("sos2-64 2d exotic", build_2d(fam, exotic_code(64))))
    out.append(("sos2-64 moment-curve", build_moment_curve(fam)))
    out.append(("sos2-64 closed form", build_sos2_exotic(64)))
    for d in (16, 32):
        fam, _ = annulus_instance("1", "3", d)
        k = (d - 1).bit_length()
        for enc in (gray_code(k), zigzag_code(k), moment_code(d), exotic_code(d)):
            out.append(("annulus-%d general %s" % (d, enc.kind), build_general(fam, enc)))
        for kind in ("gray", "zigzag", "exotic"):
            out.append(("annulus-%d closed form %s" % (d, kind), build_annulus(d, kind)))
    return out


# artifact_sha256 of each build_workload_matrix() formulation, computed
# before rows were kept as int numerators: the same bytes at the sizes
# where the row store is largest (987 rows for sos2-64 2d exotic).
BUILD_WORKLOAD_SHA256 = {
    "sos2-64 general gray": "ae4ce0279800506b2b5b7aa7453c085c148a7b4bc1a50ae9229f77aafeb1735e",
    "sos2-64 general zigzag": "30c16586c9c6fe1eeb376aa71ef20bde4416419629c0f2f378adf1376d3b233d",
    "sos2-64 general moment": "71a831287dfdaa1a7b4706efa945cb30f3ac195ffd5eb4d06a222ba9df0487cb",
    "sos2-64 general exotic": "c5bc8453478f74b1b61d6296ee8c046d5bf4d687017b6196369fd4a5b5e3ff62",
    "sos2-64 2d moment": "dc36d28b2b3fcb7b900561a94ca5411e091cd387e182e6bd77f6e067bc813277",
    "sos2-64 2d exotic": "b9305d1b962861222d5353630a623e322f455f7cd54c33ebe10c0792483980e9",
    "sos2-64 moment-curve": "eeb53cebb70dd2098093dd01234275e3eefc7c7da91625bfc75b47e91ed928e6",
    "sos2-64 closed form": "55476ce9238477d17c7f570eef1cab2936841730196b9a8b4c36fcf3a0c0eaf5",
    "annulus-16 general gray": "968b3efec57775f69632a06f5b59327320ff4e96a6d4cec0dba06db9bf443c24",
    "annulus-16 general zigzag": "ea4dffcce8d40470cfce87ce5cc5f63e0d9327cd569daf63a4c0376d9bc0e922",
    "annulus-16 general moment": "60efa470645f5a990915e0f9747f859afb1b601bd13d246086b2b48172883163",
    "annulus-16 general exotic": "a306e23fb8137c8b8c2bb965b275d65fa2742117e5dcdcdb83b528d334b4e48e",
    "annulus-16 closed form gray": "da427ecfc6b8d2be6e055cc27a0ff3326960127baa330f409cdabf95c283f7b6",
    "annulus-16 closed form zigzag": "46b6143fcd6f5b9edcbba57d552bbdeda84e113e63f534ed4b1dff813f9f4d05",
    "annulus-16 closed form exotic": "f1d9647e48e3bb0c513cddea81e79b8185a1001ec78d74435bf026750ca21dc7",
    "annulus-32 general gray": "563416fb40107655adf332e54a58624cb926975f17df6e838efcc752024513ce",
    "annulus-32 general zigzag": "de9f06c0aaae17ba414aa234c30225b649d8c3bf54c4d3cedb553d328d9fa947",
    "annulus-32 general moment": "56fc65a4a8b911dab5ce40a2c693d831f222cef44723fbc2f15330e05388f9a2",
    "annulus-32 general exotic": "4475b7b657b4be6d63cc267742294acb4767eb0ecaedda652c1a38ad444af168",
    "annulus-32 closed form gray": "4553f9d173c428cdedb27a93e646ddd0028dbf827fde3b143ec0e094189c2a5c",
    "annulus-32 closed form zigzag": "82ae950763a800bd244552b13eedbf3b650e78bff907f32627c98b43b70d5004",
    "annulus-32 closed form exotic": "e8ba400bd6f5f247d6a90a973ba86ccda4183b1c69ead385057c374b3dd331e2",
}


def test_build_workload_artifacts_pinned():
    got = {label: artifact_sha256(form) for label, form in build_workload_matrix()}
    assert got == BUILD_WORKLOAD_SHA256


BENCHMARK_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmark"


def load_benchmark_module(name, monkeypatch):
    """benchmark/<name>.py as a module, read in place: workloads.py imports
    reference as a top-level module, so that name is set for the test."""
    spec = importlib.util.spec_from_file_location(name, BENCHMARK_DIR / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def reports_sha256(reports):
    """sha256 of the solve reports as JSON, each without its wall_micros."""
    h = hashlib.sha256()
    for rep in reports:
        data = rep.to_json()
        del data["wall_micros"]
        h.update((json.dumps(data, sort_keys=True) + "\n").encode())
    return h.hexdigest()


# reports_sha256 of the solve workload's 12 pairings, each under three
# objectives drawn from random.Random(0) in the workload's range -9..9, and
# of the union workload's 8 unions in its 4 directions: statuses, points,
# nodes, pivots and split histograms, frozen.
SOLVE_WORKLOAD_SHA256 = "7043953c3e09823b143c1bda0c8010d3758bea86f33e94a9485caa6ecbfad78c"
UNION_WORKLOAD_SHA256 = "d77bcbef81ca948542b2569645bc63180f99c7b8b72eaa4e2abdc10121dc9d4f"


def test_solve_workload_reports_pinned():
    instances = [
        sos2_family(16),
        sos2_family(32),
        annulus_instance("1", "3", 8)[0],
        grid_triangulation_fixture()[0],
    ]
    pairings = []
    for fam in instances:
        k = (fam.d - 1).bit_length()
        pairings += [
            ("variable", build_general(fam, gray_code(k))),
            ("moment", build_moment_curve(fam)),
            ("exotic", build_general(fam, exotic_code(fam.d))),
        ]
    rng = random.Random(0)
    reports = [
        solve(form, [F(rng.randint(-9, 9)) for _ in range(form.n)], scheme)
        for _ in range(3)
        for scheme, form in pairings
    ]
    assert reports_sha256(reports) == SOLVE_WORKLOAD_SHA256


def test_union_workload_reports_pinned(monkeypatch):
    load_benchmark_module("reference", monkeypatch)
    workloads = load_benchmark_module("workloads", monkeypatch)
    Union = workloads.Union
    reports = []
    for j in range(Union.instances):
        pieces = workloads.union_pieces(random.Random(j), j)
        system = build_bigm_moment([HRepPiece(A, b) for A, b in pieces])
        reports += [solve(system, c, "moment") for c in Union.objectives]
    assert reports_sha256(reports) == UNION_WORKLOAD_SHA256


# sha256 of the verify workload's report files, as `cdcbranch verify` writes
# them through cli.main, each followed by its exit code: the 38 pairings of
# verify_pairings() in order, then the three SLOW_VERIFY ones, sorted.  Each
# is valid and ideal, so its projection stats read {"pivots": 0, "probes": 0}.
VERIFY_WORKLOAD_SHA256 = "ebd7fa5620435625930805aa5953587814cc1cdd11daffbfef042eee814c652b"


def test_verify_workload_reports_pinned(monkeypatch, tmp_path):
    load_benchmark_module("reference", monkeypatch)
    workloads = load_benchmark_module("workloads", monkeypatch)
    paths = {}
    for label, args in workloads.VERIFY_INSTANCES:
        paths[label] = str(tmp_path / (label + ".json"))
        assert cli_main(["gen"] + args + ["-o", paths[label]]) == 0
    pairings = workloads.verify_pairings() + sorted(workloads.SLOW_VERIFY)
    assert len(pairings) == 41
    out = tmp_path / "report.json"
    h = hashlib.sha256()
    for inst, encoding, builder in pairings:
        rc = cli_main(["verify", "--instance", paths[inst], "--encoding", encoding,
                       "--builder", builder, "-o", str(out)])
        h.update(out.read_bytes() + b"%d\n" % rc)
    assert h.hexdigest() == VERIFY_WORKLOAD_SHA256


def test_verify_workload_runs_no_lp(monkeypatch, tmp_path):
    # every formulation of verify_pairings() is valid and ideal, so each
    # projection is read off its vertices and no LP runs in the command
    load_benchmark_module("reference", monkeypatch)
    workloads = load_benchmark_module("workloads", monkeypatch)
    real, calls = solve_lp, []

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    # every module that binds the name, as `from .lp import` does
    for name, module in list(sys.modules.items()):
        if name.startswith("cdcbranch") and getattr(module, "solve_lp", None) is real:
            monkeypatch.setattr(module, "solve_lp", spy)
    paths = {}
    for label, args in workloads.VERIFY_INSTANCES:
        paths[label] = str(tmp_path / (label + ".json"))
        assert cli_main(["gen"] + args + ["-o", paths[label]]) == 0
    pairings = workloads.verify_pairings()
    assert len(pairings) == 38
    for inst, encoding, builder in pairings:
        assert cli_main(["verify", "--instance", paths[inst], "--encoding", encoding,
                         "--builder", builder, "-o", str(tmp_path / "report.json")]) == 0
    assert calls == []
    # the spy sees the slice LPs when no vertices are given
    form = build_general(sos2_family(4), exotic_code(4))
    assert check_projection(form, code_values(form)).stats["probes"] == len(calls) > 0


def run_verify_workload(monkeypatch, tmp_path):
    """cdcbranch verify on each of the 38 verify_pairings() through
    cli.main, once each, after gen has written their instances."""
    load_benchmark_module("reference", monkeypatch)
    workloads = load_benchmark_module("workloads", monkeypatch)
    paths = {}
    for label, args in workloads.VERIFY_INSTANCES:
        paths[label] = str(tmp_path / (label + ".json"))
        assert cli_main(["gen"] + args + ["-o", paths[label]]) == 0
    pairings = workloads.verify_pairings()
    assert len(pairings) == 38
    for inst, encoding, builder in pairings:
        assert cli_main(["verify", "--instance", paths[inst], "--encoding", encoding,
                         "--builder", builder, "-o", str(tmp_path / "report.json")]) == 0


def patch_everywhere(monkeypatch, module, name, spy):
    """Put spy in place of module.name in every cdcbranch module that
    binds the same object, as `from .numerics import` does."""
    real = getattr(module, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("cdcbranch") and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, spy)
    return real


def test_verify_workload_scales_no_whole_fraction_row(monkeypatch, tmp_path):
    # an encoding's hull, its facets' double description and the annulus
    # normals read the codes' ints, so no row reaches _scaled as Fractions
    # that are whole; rows of ints and rows with a proper fraction do
    seen, whole = [], []

    def spy(row):
        row = list(row)
        seen.append(row)
        if any(type(x) is F for x in row) and all(F(x).denominator == 1 for x in row):
            whole.append(row)
        return real(row)

    real = patch_everywhere(monkeypatch, numerics_module, "_scaled", spy)
    run_verify_workload(monkeypatch, tmp_path)
    assert len(seen) > 0 and whole == []


def test_verify_workload_scans_each_encoding_for_convex_position_once(monkeypatch, tmp_path):
    # the builders and check_projection all ask; the encoding keeps the
    # verdict, so each one's facets are scanned once
    asked, scanned = [], []

    def ask(encoding):
        asked.append(encoding)
        return real_ask(encoding)

    def scan(encoding):
        scanned.append(encoding)
        return real_scan(encoding)

    real_ask = patch_everywhere(monkeypatch, encodings_module, "is_convex_position", ask)
    real_scan = patch_everywhere(monkeypatch, encodings_module, "_convex_position", scan)
    run_verify_workload(monkeypatch, tmp_path)
    assert len(set(map(id, scanned))) == len(scanned) == len(set(map(id, asked))) == 38
    assert len(asked) > len(scanned)


# The three sos2-16 pairings that the benchmark's verify workload leaves
# out, and the sos2-32 moment curve, with their row census: each is the
# census double description gives, which takes over four minutes on the
# sos2-32 moment curve (Python 3.11.7, 2 CPUs).
SLOW_VERIFY_REPORTS = [
    (16, "moment", "2d", {"facet": 30, "tight-nonfacet": 28}),
    (16, "exotic", "2d", {"facet": 4, "tight-nonfacet": 124}),
    (16, "moment", "moment", {"facet": 30, "tight-nonfacet": 28}),
    (32, "moment", "moment", {"facet": 62, "tight-nonfacet": 60}),
]


@pytest.mark.parametrize("d, encoding, builder, row_classes", SLOW_VERIFY_REPORTS,
                         ids=["sos2-%d-%s-%s" % case[:3] for case in SLOW_VERIFY_REPORTS])
def test_slow_pairings_verify_by_the_certificate(d, encoding, builder, row_classes,
                                                 tmp_path, monkeypatch):
    # the certificate proves every one ideal, so no vertex is enumerated,
    # and the projection is read off the embedding points with no slice LP
    def refuse(what):
        def refused(*_):
            raise AssertionError(what)
        return refused

    monkeypatch.setattr(oracle_module, "enumerate_vertices", refuse("the relaxation was enumerated"))
    monkeypatch.setattr(oracle_module, "solve_lp", refuse("a slice LP ran"))
    inst, out = str(tmp_path / "instance.json"), tmp_path / "report.json"
    assert cli_main(["gen", "--family", "sos2", "--d", str(d), "-o", inst]) == 0
    assert cli_main(["verify", "--instance", inst, "--encoding", encoding,
                     "--builder", builder, "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert all(doc[kind]["ok"] for kind in ("valid", "ideal", "projection"))
    points = sum(len(T) for T in sos2_family(d).sets)
    assert doc["ideal"]["stats"] == {"vertices": points} == {"vertices": 2 * d}
    assert doc["row_classes"] == row_classes


# sha256 of check_projection's stats, probes and pivots, per builder_matrix()
# formulation in order.
PROJECTION_STATS_SHA256 = "58a9099dcaf1f301c44ef7b7f9d6fc294d25fc15def577300d1008020b1e18db"


def test_every_builder_is_valid_ideal_and_sharp():
    start = time.monotonic()
    matrix = builder_matrix()
    enumerated = []

    def ideal(form):
        enumerated.append(relaxation_vertices(form))
        return check_ideal(form, enumerated[-1])

    checks = (
        ("valid", lambda form: check_valid(form, code_values(form))),
        ("ideal", ideal),
        ("projection", lambda form: check_projection(form, code_values(form))),
    )
    spent = {kind: 0.0 for kind, _ in checks}
    per_form = []
    projection_stats = []
    for label, form in matrix:
        form_start = time.monotonic()
        reports = {}
        for kind, check in checks:
            t0 = time.monotonic()
            rep = reports[kind] = check(form)
            spent[kind] += time.monotonic() - t0
            assert rep.ok, (label, kind, rep.failures[:3])
            if kind == "projection":
                projection_stats.append((label, rep.stats))
        # the certificate holds as well, and its vertices, the embedding
        # points, are the ones double description found
        certified = certified_vertices(form, code_values(form), reports["valid"])
        assert certified is not None, label
        den = form.codes.scaled[0]
        points = sorted(tuple(F(x, den) for x in p) for p in certified[0])
        assert points == sorted(enumerated[-1]), label
        per_form.append((time.monotonic() - form_start, label))
    elapsed = time.monotonic() - start
    stats_json = json.dumps(projection_stats, sort_keys=True).encode()
    assert hashlib.sha256(stats_json).hexdigest() == PROJECTION_STATS_SHA256
    slowest_time, slowest = max(per_form)
    assert elapsed < 120.0, "%.1fs in total: %s; slowest formulation %s at %.1fs" % (
        elapsed,
        ", ".join("check_%s %.1fs" % (kind, spent[kind]) for kind, _ in checks),
        slowest,
        slowest_time,
    )
    print("idealness: %d formulations, 3 checks each, %.1fs" % (len(matrix), elapsed))


def test_code_value_masks_match_the_tight_masks_on_every_builder():
    # the certificate's row masks over the embedding points, read off the
    # code-value table, are the dot products' on every built formulation
    for label, form in builder_matrix():
        points = oracle_module.embedding_points(form)
        expected = oracle_module._tight_masks(form.one_sided(), form.n, points)
        assert oracle_module._embedding_masks(form, code_values(form)) == expected, label


def test_row_count_formulas():
    assert len(build_sos2_exotic(16).one_sided()) == 4
    assert len(build_annulus(8, "exotic").one_sided()) == 6
    # gray on d pieces needs ceil(log2 d) control variables, two rows each
    assert len(build_annulus(8, "gray").one_sided()) == 2 * 3
    r = 3
    assert len(build_annulus(8, "zigzag").one_sided()) == 2 * r + r * (r - 1)
    fam, _ = grid_triangulation_fixture()
    count = len(build_moment_curve(fam).one_sided())
    assert count == 26
    assert count <= 2 * (2 * 8 - 3)
    print("row counts: sos2 4, annulus 6/6/12, grid 26 <= 26")


def test_encoding_structure():
    unit = lambda v: sorted(map(abs, v)) == [0] * (len(v) - 1) + [1]
    for r in range(1, 5):
        H = list(gray_code(r))
        assert len(H) == 2 ** r
        for a, b in zip(H, H[1:]):
            assert unit([y - x for x, y in zip(a, b)])
        wrap = tuple(y - x for x, y in zip(H[0], H[-1]))
        assert unit(wrap)
        # the cycle closes across the last control variable
        assert wrap == (0,) * (r - 1) + (1,)
        H = list(zigzag_code(r))
        for a, b in zip(H, H[1:]):
            diff = [y - x for x, y in zip(a, b)]
            assert unit(diff) and all(x >= 0 for x in diff)
        wrap = tuple(y - x for x, y in zip(H[0], H[-1]))
        assert wrap == tuple(F(2 ** k) for k in range(r - 1, -1, -1))
    assert [tuple(map(int, h)) for h in zigzag_code(3)] == [
        (0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0),
        (2, 1, 1), (3, 1, 1), (3, 2, 1), (4, 2, 1),
    ]
    for r in range(1, 17):
        assert is_convex_position(exotic_code(4 * r)), r
    for r in range(2, 17):
        H = list(exotic_code(4 * r))
        certs = separation_certificates_exotic(r)
        assert len(certs) == len(H)
        for i, (c, b) in enumerate(certs):
            assert dot(c, H[i]) > b
            for j, h in enumerate(H):
                if j != i:
                    assert dot(c, h) <= b
    print("encodings: gray/zigzag steps and wraps r<=4, exotic certified r<=16")


def exotic_case_points(enc):
    """Deterministic points hitting the wide and corner splits."""
    levels = {}
    for h in enc:
        levels.setdefault(h[1], []).append(h[0])
    ys = sorted(levels)
    pts = []
    for lo, hi in zip(ys, ys[1:]):
        pts.append((F(0), F(lo + hi, 2)))
    for y in ys[:-1]:
        xs = sorted(levels[y])
        x = xs[0] + 1
        while x < xs[-1]:
            pts.append((F(x), F(y)))
            x += 1
    return pts


def test_branching_soundness_bulk():
    runs = (
        ("variable", gray_code(3), 104),
        ("variable", zigzag_code(3), 104),
        ("moment", moment_code(8), 208),
        ("exotic", exotic_code(16), 208),
    )
    counts = {}
    tags = {}
    for name, enc, npts in runs:
        sch = make_scheme(name)
        root = sch.root(enc)
        rng = random.Random(60601 + npts)
        pts = [hull_point(rng, list(enc)) for _ in range(npts)]
        if name == "exotic":
            pts += exotic_case_points(enc)
            pts.append((F(0), F(-9)))
        for z in pts:
            rep = check_branch_soundness(sch, enc, root, z)
            assert rep.ok, (name, z, rep.failures[:3])
            tags.setdefault(name, set()).add(rep.stats["tag"])
        counts[name] = counts.get(name, 0) + len(pts)
    assert all(v >= 200 for v in counts.values()), counts
    assert {"integer-split", "wide-split", "corner-split"} <= tags["exotic"]
    # the midpoint of the top chord defeats any single-variable disjunction
    # but the interval split handles it
    sch = make_scheme("moment")
    enc7 = moment_code(7)
    rep = check_branch_soundness(sch, enc7, sch.root(enc7), (F(4), F(25)))
    assert rep.ok
    out = sch.step(sch.root(enc7), (F(4), F(25)), enc7)
    assert (out.children[0][1].interval, out.children[1][1].interval) == (
        (1, 4),
        (5, 7),
    )
    with pytest.raises(BranchError):
        check_branch_soundness(sch, enc7, sch.root(enc7), (F(4), F(25, 4)))
    print("branching: %s sound, exotic tags %s" % (counts, sorted(tags["exotic"])))


def test_solver_matches_brute_force_bulk():
    start = time.monotonic()
    instances = [("sos2-%d" % d, sos2_family(d)) for d in (4, 8, 16)]
    instances.append(("annulus", annulus_instance("1", "3", 8)[0]))
    instances.append(("grid", grid_triangulation_fixture()[0]))
    total = 0
    for label, fam in instances:
        d = fam.d
        k = (d - 1).bit_length()
        combos = (
            ("variable", build_general(fam, gray_code(k))),
            ("moment", build_moment_curve(fam)),
            ("exotic", build_general(fam, exotic_code(d))),
        )
        rng = random.Random(90210)
        for _ in range(100):
            w = [F(rng.randint(-9, 9)) for _ in range(fam.n)]
            want, _, _ = brute_force_optimum(fam, w)
            for scheme, form in combos:
                rep = solve(form, w, scheme)
                assert rep.status == "optimal", (label, scheme, rep.status)
                assert rep.value == want, (label, scheme, w)
                total += 1
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print("solver: %d solves equal brute force, %.1fs" % (total, elapsed))


def random_pieces(rng):
    pieces = []
    for _ in range(rng.randint(2, 4)):
        lox, loy = rng.randint(-9, 6), rng.randint(-9, 6)
        hix, hiy = lox + rng.randint(1, 5), loy + rng.randint(1, 5)
        A = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        b = [hix, -lox, hiy, -loy]
        if rng.random() < 0.5:
            g = (rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2)))
            center = (F(lox + hix, 2), F(loy + hiy, 2))
            A.append(g)
            b.append(dot(g, center) + rng.randint(1, 3))
        pieces.append(HRepPiece(A, b))
    return pieces


def lp_max(c, rows):
    res = solve_lp(LpProblem(2, c, [(a, LE, rhs) for a, rhs in rows]))
    assert res.status == "optimal", res.status
    return res.value


def test_ideal_pairs_close_at_the_root():
    # every vertex of an ideal formulation has z at a code, and the LP
    # optimum is a vertex, so no compatible scheme ever branches
    pairs = 0
    for label, form in builder_matrix():
        fam = form.family
        for name in ("variable", "moment", "exotic"):
            if not make_scheme(name).compatible(form.codes)[0]:
                continue
            pairs += 1
            rng = random.Random(label + name)
            for _ in range(5):
                w = [F(rng.randint(-9, 9)) for _ in range(fam.n)]
                rep = solve(form, w, name)
                assert rep.status == "optimal", (label, name, rep.status)
                assert rep.value == brute_force_optimum(fam, w)[0], (label, name, w)
                assert rep.nodes == 1, (label, name, w, rep.histogram)
    assert pairs == 41
    print("ideal pairs: %d, every solve closed at the root" % pairs)


def test_union_relaxation_slices_and_solves():
    directions = [(F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1))]
    rng_dir = random.Random(424242)
    while len(directions) < 12:
        g = (F(rng_dir.randint(-5, 5)), F(rng_dir.randint(-5, 5)))
        if any(g):
            directions.append(g)
    branched = 0
    for s in range(20):
        rng = random.Random(7000 + s)
        pieces = random_pieces(rng)
        system = build_bigm_moment(pieces)
        for i, piece in enumerate(pieces, start=1):
            z = (F(i), F(i * i))
            slice_rows = []
            for a_x, a_z, rhs in system.rows:
                shifted = rhs - dot(a_z, z)
                if all(x == 0 for x in a_x):
                    assert shifted >= 0, (s, i)
                else:
                    slice_rows.append((tuple(a_x), shifted))
            piece_rows = list(zip(piece.A, piece.b))
            # exact set equality, row by row in both directions
            for a, rhs in piece_rows:
                assert lp_max(a, slice_rows) <= rhs, (s, i)
            for a, rhs in slice_rows:
                assert lp_max(a, piece_rows) <= rhs, (s, i)
            for g in directions:
                assert lp_max(g, slice_rows) == lp_max(g, piece_rows), (s, i, g)
        for _ in range(3):
            c = [F(rng.randint(-5, 5)), F(rng.randint(-5, 5))]
            best = brute_force_optimum_hrep(pieces, c)
            rep = solve(system, c, "moment", debug_checks=True)
            assert rep.status == "optimal" and rep.value == best[0], (s, c)
            branched += rep.nodes > 1
    print("union relaxation: 20 instances, slices exact, %d solves branched" % branched)


def test_quantitative_claims_recap():
    # there is nothing experimental to replay; the size claims the suite
    # rests on are re-assertable constants
    assert len(build_sos2_exotic(16).one_sided()) == 4
    assert len(build_annulus(8, "exotic").one_sided()) == 6
    for d in (3, 5, 8, 16):
        assert len(build_moment_curve(sos2_family(d)).rows) == 2 * d - 3
    assert len(list(exotic_code(64))) == 64
    assert psi(7, 1, 7).contains((F(4), F(25)))
    print("recap: every quantitative claim is pinned by a golden or formula test")
