#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Builds the benchmark (with the repository's zkphire library) into .bench_build/
at the root of the checkout, runs one workload, and prints its report, a
provenance line, and last one JSON object with the keys correct, attempted,
failed and metrics. Untraced runs report the end-to-end metrics of
BENCHMARK.json, traced runs its per-layer metrics; a layer a workload never
calls reports 0. --all runs every workload and prints every metric by name
and unit with its error rate.

--quick runs small-mu inputs (the self-tests use it); --tamper corrupts the
first checked output so that the output checks must fail.
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
BUILD = ROOT / ".bench_build"
SPEC_PATH = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def private_env():
    """Scratch files (compiler temporaries, streaming slabs) stay in BUILD."""
    tmp = BUILD / "tmp"
    slabs = BUILD / "slabs"
    tmp.mkdir(parents=True, exist_ok=True)
    slabs.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp), ZKPHIRE_STREAM_DIR=str(slabs))


def build():
    """Configure once, then let the build tool bring the binary up to date."""
    cmake_dir = BUILD / "cmake"
    env = private_env()
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(cmake_dir), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    # The repository's build links compile_commands.json into the top-level
    # source directory, which here is this one; keep it free of build output.
    (HERE / "compile_commands.json").unlink(missing_ok=True)
    return cmake_dir / "perfbench"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def copy_probe(binary):
    """Copy bandwidth over arrays 4x the LLC, in a process of its own so
    that it never enters a workload's peak RSS."""
    out = subprocess.run([str(binary), "--copy-probe"], capture_output=True,
                         text=True, timeout=RUN_TIMEOUT_S)
    if out.returncode != 0:
        log(out.stderr.strip())
        return None
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_workload(binary, spec, workload, seed, seconds, trace, quick=False,
                 tamper=False):
    """Run one workload; returns (report lines, provenance, result)."""
    traces = BUILD / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    trace_out = traces / f"{workload}-seed{seed}.json"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out", str(trace_out)]
    if quick:
        cmd.append("--quick")
    if tamper:
        cmd.append("--tamper")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          env=private_env(), timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload}: no result (exit {proc.returncode})")
    raw = json.loads(lines[-1])
    provenance = raw["provenance"]
    provenance.update(host_cpu=cpu_model(), nproc=os.cpu_count(),
                      zkphire_env={k: v for k, v in os.environ.items()
                                   if k.startswith("ZKPHIRE_")})
    measured = raw["metrics"]
    report = lines[:-1]
    if trace:
        probe = copy_probe(binary)
        if probe is not None:
            measured["host.copy_gbs"] = {"value": probe["copy_gbs"],
                                         "unit": "GB/s"}
            provenance.update(host_copy_gbs=probe["copy_gbs"],
                              llc_bytes=probe["llc_bytes"],
                              copy_array_bytes=probe["array_bytes"])
        report.append(f"Chrome trace: {trace_out}")

    # Every metric of the mode, in BENCHMARK.json order and units.
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None and not trace:
            raise RuntimeError(f"{workload}: end-to-end metric {m['name']} "
                               "was not measured")
        if got is not None and got["unit"] != m["unit"]:
            raise RuntimeError(f"{workload}: {m['name']} unit {got['unit']} "
                               f"!= {m['unit']}")
        if got is not None and not trace and got["value"] == 0:
            raise RuntimeError(f"{workload}: {m['name']} measured 0")
        metrics[m["name"]] = {"value": got["value"] if got else 0,
                              "unit": m["unit"]}
    result = {"correct": bool(raw["correct"]) and proc.returncode == 0,
              "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]),
              "metrics": metrics}
    return report, provenance, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--tamper", action="store_true")
    args = ap.parse_args()
    if args.all == bool(args.workload):
        ap.error("give exactly one of --workload and --all")

    with open(SPEC_PATH) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload and args.workload not in names:
        ap.error(f"unknown workload {args.workload}; one of {names}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    binary = build()

    if args.workload:
        try:
            report, provenance, result = run_workload(
                binary, spec, args.workload, args.seed, seconds,
                args.trace == 1, args.quick, args.tamper)
        except (RuntimeError, subprocess.TimeoutExpired) as err:
            log(f"perfbench: {err}")
            return 1
        print("\n".join(report))
        print("provenance: " + json.dumps(provenance, sort_keys=True))
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] else 1

    failures = 0
    for name in names:
        try:
            report, provenance, result = run_workload(
                binary, spec, name, args.seed, seconds, args.trace == 1,
                args.quick, args.tamper)
        except (RuntimeError, subprocess.TimeoutExpired) as err:
            log(f"perfbench: {err}")
            failures += 1
            continue
        print(f"== {name} (seed {args.seed}, "
              f"{'traced' if args.trace else 'untraced'})")
        print("\n".join(report))
        for metric, m in result["metrics"].items():
            print(f"  {metric:40s} {m['value']:>16.6g} {m['unit']}")
        rate = result["failed"] / result["attempted"]
        print(f"  {'error_rate':40s} {rate:>16.6g} "
              f"({result['failed']} of {result['attempted']} failed)")
        print("  provenance: " + json.dumps(provenance, sort_keys=True))
        failures += 0 if result["correct"] else 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
