#!/usr/bin/env python3
"""Benchmark command: build the benchmark program, generate one workload's
inputs from a seed, run it in a single process, check and print the result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid-tiny --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are BENCHMARK.json's ``end_to_end`` list, with ``--trace 1``
its ``per_layer`` list, each with the unit BENCHMARK.json gives it.

The benchmark program (bench.exe) receives only the generated spec on its
standard input, never the seed.
"""

import argparse
import json
import os
import random
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
TARGET = "./perfbench/bench.exe"
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")

# Why each workload exists and which layers it separates is recorded in
# perfbench/README.md; the numbers below size one batch of work.
WORKLOADS = {
    # Clean grid on the 100-function firmware, 2 domains: per-trial rig
    # cold start, emulator and scenario glue, Pool and cross-domain GC.
    "grid-tiny": {"kind": "grid", "profile": "tiny-100", "faults": "none",
                  "jobs": 2, "ms": 500, "trials": 4, "setup_reps": 15},
    # Same firmware and flights under the stress fault profile, 1 domain:
    # the only workload that exercises lib/fault and the false-alarm path.
    "grid-faults": {"kind": "grid", "profile": "tiny-100", "faults": "stress",
                    "jobs": 1, "ms": 500, "trials": 1, "setup_reps": 15},
    # Clean grid on ArduPlane, 1 domain: master boot re-parses the
    # provisioned HEX, so objfile/master dominate.
    "grid-arduplane": {"kind": "grid", "profile": "arduplane", "faults": "none",
                       "jobs": 1, "ms": 500, "trials": 1, "setup_reps": 5},
    # Static analyses of ArduPlane: the dataflow solvers do the work, the
    # emulator none.
    "analyze-arduplane": {"kind": "analyze", "profile": "arduplane",
                          "layouts": 1, "census_layouts": 2, "setup_reps": 3},
}

MAX_BATCHES = 128


def generate_spec(workload, seed, seconds, trace, plant_digest=False):
    """The workload's inputs, a pure function of (workload, seed)."""
    w = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    draw = lambda: rng.getrandbits(30)  # noqa: E731
    spec = {
        "kind": w["kind"],
        "profile": w["profile"],
        "faults": w.get("faults", "none"),
        "jobs": w.get("jobs", 1),
        "ms": w.get("ms", 500),
        "trials": w.get("trials", 0),
        "batch_seeds": [],
        "layout_seeds": [],
        "census_seed": 0,
        "census_layouts": w.get("census_layouts", 0),
        "layer_seed": draw(),
        "seconds": float(seconds),
        "trace": bool(trace),
        "setup_reps": w["setup_reps"],
        "plant_digest": plant_digest,
    }
    if w["kind"] == "grid":
        spec["batch_seeds"] = [draw() for _ in range(MAX_BATCHES)]
    else:
        spec["layout_seeds"] = [draw() for _ in range(w["layouts"])]
        spec["census_seed"] = draw()
    return spec


def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_metrics(bench, trace):
    """name -> unit for the metrics a run with this --trace must print."""
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def attach_units(raw, expected):
    """Check bench.exe's output names against BENCHMARK.json and attach
    units; raises ValueError on any unnamed, missing or non-numeric metric."""
    got = raw["metrics"]
    unknown = sorted(set(got) - set(expected))
    missing = sorted(set(expected) - set(got))
    if unknown or missing:
        raise ValueError(f"metric names differ from BENCHMARK.json: "
                         f"unknown={unknown} missing={missing}")
    out = {}
    for name, unit in expected.items():
        v = got[name]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"metric {name} is not a number: {v!r}")
        out[name] = {"value": v, "unit": unit}
    return out


def check_checkout(root):
    for p in ("dune-project", "lib", os.path.join("perfbench", "dune"), "BENCHMARK.json"):
        if not os.path.exists(os.path.join(root, p)):
            raise FileNotFoundError(f"{p} not found: run from the root of a checkout")


def build(root):
    env = dict(os.environ, DUNE_CACHE="disabled")
    subprocess.run(["dune", "build", "--root", ".", "--profile", "release", "-j", "2", TARGET],
                   cwd=root, env=env, check=True, timeout=BUILD_TIMEOUT_S,
                   stdout=sys.stderr, stderr=sys.stderr)


def run_bench(root, spec):
    proc = subprocess.run([os.path.join(root, EXE)], cwd=root, input=json.dumps(spec),
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"bench.exe exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("bench.exe printed no result")
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant-digest", action="store_true",
                    help="self-test: plant a mismatched reference document digest")
    args = ap.parse_args(argv)
    root = os.getcwd()
    try:
        check_checkout(root)
        bench = load_benchmark(root)
        build(root)
        spec = generate_spec(args.workload, args.seed, args.seconds, args.trace, args.plant_digest)
        raw = run_bench(root, spec)
        metrics = attach_units(raw, expected_metrics(bench, args.trace))
    except (OSError, ValueError, KeyError, TypeError, RuntimeError,
            subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": bool(raw["correct"]), "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
