"""The workload process: cold set-up from interpreter start, then work.

``python3 perfbench/child.py <workdir> [--probe]``.  The process imports
the program, builds what its workload needs to answer (detector, mapped
snapshot, scan matrices, first verdict or pipeline object), prints one
JSON "ready" line with its phase times, and then either exits (a cold
set-up probe) or runs the workload's measured phase and writes
``result.json`` into the work directory.  Inputs come from files the
parent already wrote; only the pipeline workload builds its synthetic
world here, and that time is reported as input time, not set-up.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def _lap(phases, name, since):
    now = time.perf_counter()
    phases[name] = now - since
    return now


def cold_setup(workload, params, workdir):
    """Build the workload's ready state; returns (state, phases, input_s)."""
    phases = {}
    input_s = 0.0
    state = {}
    t = T0
    from repro.brands import build_paper_catalog
    from repro.squatting.detector import SquattingDetector
    if workload == "pipeline-e2e":
        from repro.core import PipelineConfig, SquatPhi
        from repro.phishworld.world import build_world
        from perfbench.inputs import world_config
        t = _lap(phases, "import_s", t)
        world = build_world(world_config(params["seed"], params["squats"]))
        from perfbench.spans import Tracer
        t2 = time.perf_counter()
        input_s = t2 - t
        config = PipelineConfig(**params["pipeline_config"])
        tracer = Tracer()
        with tracer.patched([(SquattingDetector, "__init__", "build")]):
            state["phi"] = SquatPhi(world, config)
        t = _lap(phases, "core.pipeline.construct_s", t2)
        phases["squatting.detector.build_s"] = sum(
            s["end"] - s["start"] for s in tracer.spans)
        state.update(world=world, config=config)
        return state, phases, input_s

    from repro.dns.packedzone import PackedZone
    from repro.squatting.packedscan import PackedScanContext
    if workload == "serve-openloop":
        from repro.serve.engine import QueryEngine
        from repro.serve.negcache import NegativeVerdictCache
    if workload == "stream-tape":
        from repro.stream.driver import StreamingDriver  # noqa: F401
    t = _lap(phases, "import_s", t)
    detector = SquattingDetector(build_paper_catalog())
    t = _lap(phases, "squatting.detector.build_s", t)
    zone = PackedZone.load(os.path.join(workdir, params["zone_file"]))
    t = _lap(phases, "dns.packedzone.load_s", t)
    state.update(detector=detector, zone=zone)
    if workload == "serve-openloop":
        engine = QueryEngine(detector, zone, negcache=NegativeVerdictCache())
        t = _lap(phases, "squatting.packedscan.matrices_s", t)
        engine.lookup_batch([params["first_query"]])
        phases["serve.engine.first_lookup_ms"] = \
            (time.perf_counter() - t) * 1e3
        state["engine"] = engine
    else:
        state["context"] = PackedScanContext(detector, zone)
        _lap(phases, "squatting.packedscan.matrices_s", t)
    return state, phases, input_s


def main(argv):
    workdir = argv[1]
    probe = "--probe" in argv[2:]
    with open(os.path.join(workdir, "params.json"), encoding="utf-8") as fh:
        params = json.load(fh)
    workload = params["workload"]
    state, phases, input_s = cold_setup(workload, params, workdir)
    ready = time.perf_counter()
    sys.stdout.write(json.dumps({"phases": phases, "input_s": input_s,
                                 "ready_s": ready - T0}) + "\n")
    sys.stdout.flush()
    if probe:
        return 0
    from perfbench.measure import measure
    result = measure(workload, state, params, workdir)
    with open(os.path.join(workdir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
