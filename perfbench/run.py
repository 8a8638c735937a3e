#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench (the library from src/ plus the benchmark program in perfbench/src)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset, then serves the workload frozen in perfbench/workloads.json for S
seconds. Span and output-digest files go to .bench_out/. The last stdout line
is the result object: correct, attempted, failed and metrics (end-to-end
metrics with --trace 0, per-layer metrics with --trace 1).

Outputs are checked three ways: the binary re-decodes sampled requests solo
and compares tokens, the traced run must reproduce the untraced run's output
digests, and for the seeds recorded in perfbench/expected.json the digests
(and the twin's simulated statistics) must equal the recorded ones.
--record rewrites this seed's entry in expected.json instead of comparing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    if not any((build_dir / f).exists() for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return build_dir / "perfbench"


def check_metric_units(result, trace):
    """The metric names and units the binary printed must be exactly the ones
    BENCHMARK.json declares for this kind of run."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if reported == declared:
        return True
    for name in sorted(set(declared) | set(reported)):
        if declared.get(name) != reported.get(name):
            log(f"metric {name}: BENCHMARK.json declares unit {declared.get(name)!r}, "
                f"perfbench reported {reported.get(name)!r}")
    return False


def compare_recorded(expected, workload, seed, seconds, outputs):
    """True when the recorded digests for this seed match (or none exist)."""
    rec = expected.get("runs", {}).get(workload, {}).get(str(seed))
    if rec is None or float(expected.get("seconds", -1)) != seconds:
        print(f"check: no recorded digests for seed {seed} at {seconds:g} s "
              f"(recorded seeds: {', '.join(sorted(expected.get('runs', {}).get(workload, {})))})")
        return True
    ok = True
    common = [k for k in outputs["digests"] if k in rec["digests"]]
    differ = [k for k in common if outputs["digests"][k] != rec["digests"][k]]
    print(f"check: {len(common) - len(differ)} of {len(common)} output digests match "
          f"the recorded ones for seed {seed}")
    if differ or not common:
        print(f"ERROR: output digests differ from the record for requests {differ[:8]}")
        ok = False
    if outputs["sim"] != rec["sim"]:
        print(f"ERROR: simulated statistics differ from the record: "
              f"{outputs['sim']} != {rec['sim']}")
        ok = False
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record", action="store_true",
                    help="store this seed's output digests in expected.json")
    args = ap.parse_args()

    spec = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in spec["workloads"]:
        log(f"unknown workload {args.workload!r}; known: {', '.join(spec['workloads'])}")
        return 2
    params = spec["workloads"][args.workload]["params"]

    try:
        exe = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench build failed: {e}")
        return 3

    out_dir = ROOT / ".bench_out"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", f"{args.seconds:g}", "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    for key, value in params.items():
        cmd += ["--param", f"{key}={value}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench run exceeded {RUN_TIMEOUT_S} s")
        return 4
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        log(f"perfbench exited with code {proc.returncode}")
        return proc.returncode or 5
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if not check_metric_units(result, args.trace):
        return 6

    outputs_path = out_dir / f"{args.workload}-seed{args.seed}.outputs.json"
    outputs = json.loads(outputs_path.read_text())
    expected_path = HERE / "expected.json"
    expected = json.loads(expected_path.read_text()) if expected_path.exists() else {}
    if args.record:
        expected["seconds"] = args.seconds
        expected.setdefault("runs", {}).setdefault(args.workload, {})[str(args.seed)] = {
            "digests": outputs["digests"], "sim": outputs["sim"]}
        expected_path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(outputs['digests'])} digests for seed {args.seed}")
    elif not compare_recorded(expected, args.workload, args.seed, args.seconds, outputs):
        result["correct"] = False

    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
