"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scan-snapshot --seed 1 \
        --seconds 10 --trace 0

Run from the repository root.  Inputs are generated from ``--seed`` and
checked against reference answers; the workload then runs in its own
process (whose cold start is one set-up sample), followed by extra cold
set-up probes.  The report goes to stdout; its last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
RUN_LIMIT_S = 170.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="input size (smoke is for the benchmark's tests)")
    return parser.parse_args(argv)


def _run_child(workdir: str, probe: bool, deadline: float):
    """Start the workload process; returns (ready line dict, setup s)."""
    cmd = [sys.executable, CHILD, workdir] + (["--probe"] if probe else [])
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready_wall = time.perf_counter() - started
        proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    code = proc.returncode
    if code != 0 or not line:
        raise RuntimeError(f"workload process exited with {code}")
    ready = json.loads(line)
    return ready, ready_wall - ready["input_s"]


def _versions(nproc: int) -> str:
    import numpy
    return (f"nproc {nproc}  python {platform.python_version()}  "
            f"numpy {numpy.__version__}")


def run(args) -> dict:
    from perfbench import inputs
    from perfbench.metrics import END_TO_END, NAMED_UNITS, PER_LAYER
    from perfbench.stats import median

    deadline = time.perf_counter() + RUN_LIMIT_S
    nproc = len(os.sched_getaffinity(0))
    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        params = inputs.prepare(args.workload, args.seed, args.seconds,
                                args.scale, workdir, nproc)
        params["trace"] = bool(args.trace)
        with open(os.path.join(workdir, "params.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(params, handle)
        ready, first = _run_child(workdir, False, deadline)
        with open(os.path.join(workdir, "result.json"),
                  encoding="utf-8") as handle:
            result = json.load(handle)
        if "reference" in result:
            # the pipeline's summary digest must also repeat across runs
            key = {"workload": args.workload, "seed": args.seed,
                   "squats": params["squats"]}
            if inputs.cached_reference(key, lambda: result["reference"]) \
                    != result["reference"]:
                result["failed"] = result["attempted"]
        samples = [(ready["phases"], first)]
        for _ in range(inputs.SCALES[args.scale]["probes"] - 1):
            probe, setup_s = _run_child(workdir, True, deadline)
            samples.append((probe["phases"], setup_s))
        if args.trace:
            trace_dir = os.path.join(ROOT, ".perfbench", "traces")
            os.makedirs(trace_dir, exist_ok=True)
            spans = os.path.join(trace_dir,
                                 f"{args.workload}-seed{args.seed}.jsonl")
            shutil.copyfile(result["spans"], spans)
            result["spans"] = os.path.relpath(spans, ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup = [s for _, s in samples]
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  {_versions(nproc)}")
    print(f"  {'setup_s':<28} {median(setup):.4f} s  "
          f"(median of {len(setup)} cold processes)")
    print(f"  {'failed_ratio':<28} {failed / max(attempted, 1):.4f} ratio  "
          f"({failed} of {attempted} operations)")
    if args.trace:
        phases = {}
        for sample, _ in samples:
            for name, value in sample.items():
                phases.setdefault(name, []).append(value)
        layers = {name: 0.0 for name in PER_LAYER}
        layers.update({name: median(v) for name, v in phases.items()})
        layers["perf.engine.workers_peak_rss_mb"] = result["workers_peak_rss_mb"]
        layers.update(result["layers"])
        for name, value in layers.items():
            print(f"  {name:<40} {value:.6g} {PER_LAYER[name][0]}")
        print(f"  spans written to {result['spans']}")
        metrics = {name: {"value": float(value), "unit": PER_LAYER[name][0]}
                   for name, value in layers.items()}
    else:
        for name, value in result["named"].items():
            print(f"  {name:<28} {value:.6g} {NAMED_UNITS[name]}")
        for rung in result.get("rungs", ()):
            print(f"    rate {rung['rate']:>8.0f} q/s  p50 {rung['p50_ms']:7.2f}"
                  f" ms  p99 {rung['p99_ms']:7.2f} ms  pooled p99 "
                  f"{rung['pooled_p99_ms']:7.2f} ms  CPU-replay p99 "
                  f"{rung['cpu_p99_ms']:7.2f} ms  growing backlog "
                  f"{rung['growing_backlog']!s:<5}  passed {rung['passed']}")
        print(f"  {'peak_rss_mb':<28} {result['peak_rss_mb']:.1f} MiB  "
              f"(pool workers {result['workers_peak_rss_mb']:.1f} MiB)")
        values = dict(result["slots"], setup_s=median(setup),
                      peak_rss_mb=result["peak_rss_mb"])
        metrics = {name: {"value": float(values[name]),
                          "unit": END_TO_END[name][0]}
                   for name in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: run from a checkout of the repository (src/repro "
              "not found)", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.metrics import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    outcome = run(args)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
