"""Run benchmark/run.py on every workload and write BENCH_<label>.json.

    python3 scripts/bench_json.py --label after [--root DIR]

Each workload runs twice in the checkout at --root (by default the one this
script belongs to), with seed 97 and the run length that checkout's
BENCHMARK.json sets: with --trace 0 for its end-to-end metrics and with
--trace 1 for its per-layer counters.  The last line each run prints is
stored as it is, under workloads.<name>.trace0 and .trace1, next to the
interpreter and machine that ran it.  The file goes to the current
directory, so the same command measures a second checkout, say the parent
commit, by --root and a different --label.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("solve", "verify", "build", "union")
SEED = 97


def run(root, workload, seconds, trace):
    argv = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=root, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--root", default=os.path.dirname(HERE))
    args = p.parse_args(argv)
    with open(os.path.join(args.root, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    doc = {
        "label": args.label,
        "seed": SEED,
        "seconds": seconds,
        "python": platform.python_version(),
        "machine": "%s, %d CPUs" % (platform.platform(), os.cpu_count()),
        "workloads": {},
    }
    for name in WORKLOADS:
        doc["workloads"][name] = {
            "trace%d" % t: run(args.root, name, seconds, t) for t in (0, 1)
        }
        print("%s: wall_s %.4f" % (name, doc["workloads"][name]["trace0"]["metrics"]["wall_s"]["value"]))
    path = "BENCH_%s.json" % args.label
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
