"""Measured phases of the four workloads (run inside the workload process).

Each ``_<workload>`` function gets the warm state that cold set-up built
and returns a dict with:

* ``attempted`` / ``failed`` — operations tried and operations that
  raised, diverged from their reference, or dropped a request;
* ``named`` — the workload's own end-to-end numbers under their long
  names (``scan_domains_per_s``, ``serve_p99_ms`` …);
* ``slots`` — the values of the benchmark's shared end-to-end slots
  (``throughput_per_s``, ``p50_ms``, ``tail_ms``) on this workload;
* ``layers`` — per-layer metrics, filled only by the traced run.

The untraced run measures; the traced run (``params["trace"]``) times
one untraced unit of work, then the same unit under spans, and derives
the per-layer metrics from the spans and the program's own counters.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import shutil
import time
from typing import Any, Dict, List

from perfbench import openloop
from perfbench.spans import Tracer, duration, self_times
from perfbench.stats import (
    children_peak_rss_mb,
    median,
    peak_rss_mb,
    percentile,
    reset_peak_rss,
    tail,
)

SERVE_LADDER = (10_000.0, 20_000.0, 40_000.0, 80_000.0)
SERVE_BASE_RATE = 10_000.0
SERVE_REFINE_STEPS = 4
FALLBACK_REASONS = ("idn", "unicode", "width", "empty", "scalar")
PIPELINE_STAGES = ("scan", "crawl", "ground_truth", "train", "classify",
                   "evasion", "enrich", "verify")


def measure(workload: str, state, params, workdir) -> Dict[str, Any]:
    """Run one workload's measured phase in this (already set-up) process.

    ``peak_rss_mb`` is the peak resident set while the measured work
    runs: the count restarts after set-up and after any warm-up step, so
    set-up's transient builds do not decide it.
    """
    fn = {"scan-snapshot": _scan, "serve-openloop": _serve,
          "stream-tape": _stream, "pipeline-e2e": _pipeline}[workload]
    gc.collect()
    reset_peak_rss()
    out = fn(state, params, workdir)
    out["peak_rss_mb"] = peak_rss_mb()
    out["workers_peak_rss_mb"] = children_peak_rss_mb()
    return out


def _repeats(params, per_10s: float, minimum: int) -> int:
    """Repetitions of a unit of work for ``--seconds``.

    A fixed count, not a deadline: the work measured (and the memory it
    reaches) is then a function of the inputs, not of the host's speed.
    Counts are sized so a run measures about ``--seconds`` on a 2-CPU box.
    """
    return max(minimum, round(params["seconds"] * per_10s / 10.0))


def _ms_stats(values: List[float]) -> Dict[str, float]:
    return {"p50": percentile(values, 50) * 1e3,
            "p99": percentile(values, 99) * 1e3}


def _durations(tracer: Tracer, name: str) -> List[float]:
    return [duration(s) for s in tracer.named(name)]


def _uncovered_share(tracer: Tracer, root: Dict[str, Any]) -> float:
    return self_times(tracer.spans)[root["id"]] / duration(root)


def _finish_trace(tracer, root, untraced_s, traced_s, workdir, layers):
    path = os.path.join(workdir, "spans.jsonl")
    tracer.write_jsonl(path)
    layers["trace.overhead_ratio"] = (traced_s - untraced_s) / untraced_s
    layers["trace.uncovered_share"] = _uncovered_share(tracer, root)
    layers["trace.spans"] = len(tracer.spans)
    return path


# ----------------------------------------------------------------------
# scan-snapshot
# ----------------------------------------------------------------------

def _pack(names, path):
    from repro.dns.packedzone import PackedZoneBuilder
    builder = PackedZoneBuilder()
    for name in names:
        builder.add_name(name)
    return builder.write(path)


def _scan(state, params, workdir):
    from repro.dns.packedzone import PackedZone, PackedZoneBuilder
    from repro.squatting import packedscan
    from repro.squatting.packedscan import PackedScanContext
    from repro.stages import digest_squat_matches

    detector, zone = state["detector"], state["zone"]
    nproc = params["nproc"]
    with open(os.path.join(workdir, "names.txt"), encoding="utf-8") as handle:
        names = handle.read().split("\n")
    ref = params["reference"]["scan_digest"]
    pack_path = os.path.join(workdir, "pack.pzon")
    attempted = failed = 0
    matched = []

    def scan_once():
        nonlocal attempted, failed
        attempted += 1
        started = time.perf_counter()
        try:
            # looked up at call time so the traced run's wrapper applies
            matches = packedscan.packed_scan(detector, zone, workers=nproc)
        except Exception:
            failed += 1
            return None
        elapsed = time.perf_counter() - started
        failed += digest_squat_matches(matches) != ref
        matched.append(len(matches))
        return elapsed

    def pack_once(span=contextlib.nullcontext):
        nonlocal attempted, failed
        attempted += 1
        started = time.perf_counter()
        try:
            with span():
                _pack(names, pack_path)
        except Exception:
            failed += 1
            return None
        elapsed = time.perf_counter() - started
        failed += PackedZone.load(pack_path).content_digest \
            != params["zone_digest"]
        return elapsed

    scan_once()                         # pool spin-up and first-touch
    reset_peak_rss()
    if not params["trace"]:
        # packs are spread among the scans, so both medians sample the
        # host over the whole run rather than one end of it
        n_scans, n_packs = _repeats(params, 6, 3), _repeats(params, 4, 2)
        scans, packs = [], []
        for i in range(n_scans):
            scans.append(scan_once())
            while len(packs) < (i + 1) * n_packs // n_scans:
                packs.append(pack_once())
        scans = [t for t in scans if t is not None]
        packs = [t for t in packs if t is not None]
        scan_s, pack_s = median(scans), median(packs)
        named = {"scan_domains_per_s": zone.n_registered / scan_s,
                 "pack_records_per_s": len(names) / pack_s}
        return {"attempted": attempted, "failed": failed, "named": named,
                "slots": {"throughput_per_s": named["scan_domains_per_s"],
                          "p50_ms": scan_s * 1e3, "tail_ms": pack_s * 1e3}}

    untraced = scan_once()
    tracer = Tracer()
    targets = [
        (PackedZoneBuilder, "write", "dns.packedzone.PackedZoneBuilder.write"),
        (PackedZone, "load", "dns.packedzone.PackedZone.load"),
        (packedscan, "packed_scan", "squatting.packedscan.packed_scan"),
        (PackedScanContext, "scan_slice",
         "squatting.packedscan.PackedScanContext.scan_slice"),
    ]
    with tracer.patched(targets), tracer.span("bench.scan-snapshot",
                                              run=0) as root:
        pack_once(lambda: tracer.span("dns.packedzone.pack"))
        traced = scan_once()
        kernel = packedscan.take_last_scan_stats()
        # serial slices: the slowest one sets the pool's time
        context = state["context"]
        chunk = packedscan.PACKED_CHUNK
        for start in range(0, zone.n_registered, chunk):
            context.scan_slice(start, min(start + chunk, zone.n_registered))
    slices = _durations(tracer,
                        "squatting.packedscan.PackedScanContext.scan_slice")
    pack_span = tracer.named("dns.packedzone.pack")[0]
    scan_span = tracer.named("squatting.packedscan.packed_scan")[0]
    layers = {
        "dns.packedzone.pack_s": duration(pack_span),
        "dns.packedzone.bytes_per_record":
            os.path.getsize(pack_path) / len(names),
        "squatting.packedscan.scan_s": duration(scan_span),
        "squatting.packedscan.slice_ms.p50": median(slices) * 1e3,
        "squatting.packedscan.slice_ms.max": max(slices) * 1e3,
        "perf.engine.pool_overhead_s":
            duration(scan_span) - sum(slices) / nproc,
    }
    layers.update(_kernel_layers(kernel, matched[-1]))
    spans_path = _finish_trace(tracer, root, untraced, traced, workdir,
                               layers)
    return {"attempted": attempted, "failed": failed, "layers": layers,
            "spans": spans_path}


def _kernel_layers(kernel, matches: int) -> Dict[str, float]:
    prefix = "squatting.packedscan."
    out = {prefix + "rows": kernel.rows,
           prefix + "survivors": kernel.survivors,
           prefix + "survivor_ratio":
               matches / kernel.survivors if kernel.survivors else 0.0,
           prefix + "matches": matches,
           prefix + "fallback_rate": kernel.fallback_rate}
    for reason in FALLBACK_REASONS:
        out[f"{prefix}fallbacks.{reason}"] = kernel.fallbacks.get(reason, 0)
    return out


# ----------------------------------------------------------------------
# serve-openloop
# ----------------------------------------------------------------------

def _serve(state, params, workdir):
    from repro.dns.packedzone import PackedZone
    from repro.serve.engine import QueryEngine, verdict_line
    from repro.serve.negcache import NegativeVerdictCache
    from repro.squatting.packedscan import PackedScanContext

    detector, zone = state["detector"], state["zone"]
    with open(os.path.join(workdir, params["requests_file"]),
              encoding="utf-8") as handle:
        requests = [(float(at), name) for at, name in json.load(handle)]
    reference = params["reference"]
    gen_rate = params["gen_rate"]

    def check(names, verdicts):
        return [i for i, (n, v) in enumerate(zip(names, verdicts))
                if verdict_line(v) != reference[n]]

    def rung(rate, on_batch=None, engine=None):
        # a fresh negative cache per rung: every rate sees the same mix
        engine = engine or QueryEngine(detector, zone,
                                       negcache=NegativeVerdictCache())
        return openloop.run_rung(engine, requests, gen_rate, rate, check,
                                 on_batch=on_batch)

    if not params["trace"]:
        best, rungs = openloop.walk_ladder(rung, SERVE_LADDER,
                                           SERVE_REFINE_STEPS)
        base = next(r for r in rungs if r.rate == SERVE_BASE_RATE)
        # at 2x the base rate and above, batches fill to max_batch
        full = [r for r in rungs[:len(SERVE_LADDER)]
                if r.rate >= 2 * SERVE_BASE_RATE]
        lat = tail(base.latencies)
        named = {"serve_p50_ms": lat["p50"] * 1e3,
                 "serve_p99_ms": base.p99_s * 1e3,
                 "serve_max_qps": best,
                 "serve_tail_p": lat["p"], "serve_tail_ms": lat["value"] * 1e3,
                 "serve_samples": lat["n"],
                 "serve_cpu_p50_ms": median(base.cpu_latencies) * 1e3,
                 "serve_cpu_p99_ms": base.cpu_p99_s * 1e3,
                 # requests per CPU-second of full batches
                 "serve_capacity_qps": sum(r.sent for r in full)
                 / sum(r.cpu_s for r in full)}
        return {"attempted": sum(r.sent for r in rungs),
                "failed": sum(r.failed for r in rungs), "named": named,
                "slots": {"throughput_per_s": named["serve_capacity_qps"],
                          "p50_ms": named["serve_cpu_p50_ms"],
                          "tail_ms": named["serve_cpu_p99_ms"]},
                "rungs": [r.summary() for r in rungs]}

    warm = rung(SERVE_BASE_RATE)
    untraced = rung(SERVE_BASE_RATE)
    tracer = Tracer()
    targets = [
        (QueryEngine, "lookup_batch", "serve.engine.QueryEngine.lookup_batch"),
        (PackedZone, "registered_ids", "dns.packedzone.PackedZone.registered_ids"),
        (PackedScanContext, "classify_batch",
         "squatting.packedscan.PackedScanContext.classify_batch"),
    ]
    engine = QueryEngine(detector, zone, negcache=NegativeVerdictCache())
    with tracer.patched(targets), tracer.span("bench.serve-openloop",
                                              run="rung") as root:
        traced = rung(SERVE_BASE_RATE, engine=engine,
                      on_batch=lambda i: tracer.span("serve.request-batch",
                                                     run=i))
    selfs = self_times(tracer.spans)
    lookups = tracer.named("serve.engine.QueryEngine.lookup_batch")
    stats = engine.stats
    lookup_ms = _ms_stats(_durations(
        tracer, "serve.engine.QueryEngine.lookup_batch"))
    lateness = _ms_stats(traced.lateness)
    layers = {
        "serve.batcher.batch_size_mean":
            sum(traced.batch_sizes) / len(traced.batch_sizes),
        "serve.generator_lateness_ms.p50": lateness["p50"],
        "serve.generator_lateness_ms.p99": lateness["p99"],
        "serve.engine.lookup_batch_ms.p50": lookup_ms["p50"],
        "serve.engine.lookup_batch_ms.p99": lookup_ms["p99"],
        "serve.engine.registered_ids_ms": median(_durations(
            tracer, "dns.packedzone.PackedZone.registered_ids")) * 1e3,
        "serve.engine.classify_batch_ms": median(_durations(
            tracer, "squatting.packedscan.PackedScanContext.classify_batch"))
        * 1e3,
        "serve.engine.self_ms": median([selfs[s["id"]] for s in lookups]) * 1e3,
        "serve.negcache.hit_ratio": stats.negcache_hits / stats.queries,
        "serve.engine.kernel_fallback_rate":
            sum(stats.fallbacks.values()) / stats.kernel_rows
            if stats.kernel_rows else 0.0,
    }
    spans_path = _finish_trace(tracer, root, untraced.busy_s, traced.busy_s,
                               workdir, layers)
    rungs = (warm, untraced, traced)
    return {"attempted": sum(r.sent for r in rungs),
            "failed": sum(r.failed for r in rungs), "layers": layers,
            "spans": spans_path}


# ----------------------------------------------------------------------
# stream-tape
# ----------------------------------------------------------------------

def _stamping_publisher(root, clock=time.perf_counter):
    from repro.serve.publisher import SnapshotPublisher

    class StampingPublisher(SnapshotPublisher):
        """Timestamps every publish (a base) and publish_delta (a flush)."""

        def __init__(self, path) -> None:
            super().__init__(path)
            self.stamps: List[tuple] = []     # (kind, time, bytes)

        def publish(self, zone):
            generation, path = super().publish(zone)
            self.stamps.append(("base", clock(), os.path.getsize(path)))
            return generation, path

        def publish_delta(self, segment_bytes):
            generation, path = super().publish_delta(segment_bytes)
            self.stamps.append(("delta", clock(), os.path.getsize(path)))
            return generation, path

    return StampingPublisher(root)


def _flushes(stamps):
    """(duration_s, carried_compaction) per flush, from publisher stamps.

    A flush ends at its ``publish_delta`` stamp, or at the base publish
    that follows it when the flush carried a compaction; it starts where
    the previous flush (or the initial base publish) ended.
    """
    groups: List[list] = []
    for kind, at, _size in stamps[1:]:
        if kind == "delta":
            groups.append([at, False])
        else:
            groups[-1] = [at, True]
    out = []
    previous = stamps[0][1]
    for end, carried in groups:
        out.append((end - previous, carried))
        previous = end
    return out


def _stream_run(state, params, workdir, tag):
    """One fresh driver over the tape; returns (outcome, publisher, ok)."""
    from repro.squatting.packedscan import packed_scan
    from repro.stages import digest_squat_matches
    from repro.stream.driver import StreamingDriver
    from perfbench.inputs import tape_config

    root = os.path.join(workdir, f"publish-{tag}")
    publisher = _stamping_publisher(root)
    driver = StreamingDriver(state["detector"], tape_config(params["tape"]),
                             publisher=publisher, **params["driver"])
    try:
        outcome = driver.run()
    except Exception:
        shutil.rmtree(root, ignore_errors=True)
        return None, publisher, False
    shutil.rmtree(root, ignore_errors=True)
    stats = outcome.stats
    batch = digest_squat_matches(packed_scan(state["detector"], outcome.base))
    expected = params["expected"]
    ok = (batch == outcome.match_digest and stats.cached_segments == 0
          and stats.segments == expected["segments"]
          and stats.compactions == expected["compactions"]
          and stats.digest_checks == expected["compactions"])
    return outcome, publisher, ok


def _stream(state, params, workdir):
    from repro.dns import deltazone
    from repro.dns.deltazone import DeltaSegmentBuilder
    from repro.serve.publisher import SnapshotPublisher
    from repro.squatting import packedscan
    from repro.stages.runner import StageRunner
    from repro.stream import driver as stream_driver
    from repro.stream.driver import StreamingDriver

    attempted = failed = 0
    segments = params["expected"]["segments"]    # one operation per flush
    digests = set()

    def run(tag):
        nonlocal attempted, failed
        outcome, publisher, ok = _stream_run(state, params, workdir, tag)
        attempted += segments
        if not ok:
            failed += segments
        else:
            digests.add(outcome.match_digest)
        return outcome, publisher

    run("warm")          # the tape's label widths build their scan matrices
    reset_peak_rss()
    if not params["trace"]:
        # two replays, pooled: one replay's medians sample the host for
        # only about 6 s, and the host's speed swings within minutes
        events, streaming_s, flush, compaction = 0, 0.0, [], []
        for i in range(_repeats(params, 2, 1)):
            outcome, publisher = run(i)
            if outcome is None:
                continue
            stamps = publisher.stamps
            events += outcome.stats.events
            streaming_s += stamps[-1][1] - stamps[0][1]
            for duration_s, carried in _flushes(stamps):
                (compaction if carried else flush).append(duration_s)
        failed += len(digests) > 1
        named = {"stream_events_per_s": events / streaming_s,
                 "stream_flush_p50_ms": median(flush) * 1e3,
                 "stream_compaction_p50_ms": median(compaction) * 1e3}
        return {"attempted": attempted, "failed": failed, "named": named,
                "slots": {"throughput_per_s": named["stream_events_per_s"],
                          "p50_ms": named["stream_flush_p50_ms"],
                          "tail_ms": named["stream_compaction_p50_ms"]}}

    _, untraced_pub = run("untraced")
    untraced = untraced_pub.stamps[-1][1] - untraced_pub.stamps[0][1]
    tracer = Tracer()
    scan_name = "squatting.packedscan.packed_scan"
    compact_name = "dns.deltazone.compact"
    targets = [
        (StreamingDriver, "run", "stream.driver.StreamingDriver.run"),
        (StageRunner, "run", "stages.runner.StageRunner.run"),
        (DeltaSegmentBuilder, "to_bytes",
         "dns.deltazone.DeltaSegmentBuilder.to_bytes"),
        (packedscan, "packed_scan", scan_name),
        (stream_driver, "packed_scan", scan_name),
        (deltazone, "compact", compact_name),
        (stream_driver, "compact", compact_name),
        (SnapshotPublisher, "publish", "serve.publisher.SnapshotPublisher.publish"),
        (SnapshotPublisher, "publish_delta",
         "serve.publisher.SnapshotPublisher.publish_delta"),
    ]
    with tracer.patched(targets), tracer.span("bench.stream-tape",
                                              run="tape") as root:
        outcome, publisher = run("traced")
    if outcome is None:
        raise RuntimeError("traced stream run failed its checks")
    stamps = publisher.stamps
    traced = stamps[-1][1] - stamps[0][1]
    run_span = tracer.named("stream.driver.StreamingDriver.run")[0]
    scans = tracer.named(scan_name)
    delta_scans = [s for s in scans
                   if tracer.spans[s["parent"]]["name"]
                   == "stages.runner.StageRunner.run"]
    compaction_scans = [s for s in scans if s["parent"] == run_span["id"]][1:]
    stats = outcome.stats
    layers = {
        "dns.deltazone.seal_ms": median(_durations(
            tracer, "dns.deltazone.DeltaSegmentBuilder.to_bytes")) * 1e3,
        "squatting.packedscan.delta_scan_ms":
            median([duration(s) for s in delta_scans]) * 1e3,
        "stages.runner.segment_ms": median(_durations(
            tracer, "stages.runner.StageRunner.run")) * 1e3,
        "dns.deltazone.compact_s": median(_durations(tracer, compact_name)),
        "squatting.packedscan.compaction_scan_s":
            median([duration(s) for s in compaction_scans]),
        "serve.publisher.publish_ms": median(_durations(
            tracer, "serve.publisher.SnapshotPublisher.publish")) * 1e3,
        "serve.publisher.publish_delta_ms": median(_durations(
            tracer, "serve.publisher.SnapshotPublisher.publish_delta")) * 1e3,
        "serve.publisher.bytes_per_event":
            sum(size for _, _, size in stamps) / stats.events,
        "stream.driver.segments": stats.segments,
        "stream.driver.compactions": stats.compactions,
        "stream.driver.digest_checks": stats.digest_checks,
        "stream.driver.cached_segments": stats.cached_segments,
    }
    spans_path = _finish_trace(tracer, root, untraced, traced, workdir, layers)
    return {"attempted": attempted, "failed": failed, "layers": layers,
            "spans": spans_path}


# ----------------------------------------------------------------------
# pipeline-e2e
# ----------------------------------------------------------------------

def summary_digest(result) -> str:
    """Digest of ``PipelineResult.summary()`` minus its wall-clock block."""
    summary = result.summary()
    summary.pop("perf", None)
    blob = json.dumps(summary, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _pipeline(state, params, workdir):
    from repro.core import SquatPhi
    from repro.squatting.detector import SquattingDetector
    from repro.stages.runner import StageRunner

    world, config = state["world"], state["config"]
    registered = world.zone.stats()["registered_domains"]
    attempted = failed = 0
    digests = []

    def run_once(phi=None):
        nonlocal attempted, failed
        attempted += 1
        started = time.perf_counter()
        try:
            phi = phi or SquatPhi(world, config)
            built = time.perf_counter()
            result = phi.run(follow_up_snapshots=False)
        except Exception:
            failed += 1
            return None
        done = time.perf_counter()
        digests.append(summary_digest(result))
        failed += digests[-1] != digests[0]
        return phi, done - built, done - started

    # the set-up object runs first; its run also pays first-use costs,
    # which the median over the runs discounts
    first = run_once(state["phi"])
    if not params["trace"]:
        fresh = [r for _ in range(_repeats(params, 3, 2) - 1)
                 if (r := run_once()) is not None]
        run_s = median([r[1] for r in [first] + fresh if r is not None])
        named = {"pipeline_s": run_s}
        return {"attempted": attempted, "failed": failed, "named": named,
                "slots": {"throughput_per_s": registered / run_s,
                          "p50_ms": run_s * 1e3,
                          "tail_ms": median([r[2] for r in fresh]) * 1e3},
                "reference": digests[0] if digests else None}

    untraced = run_once()
    tracer = Tracer()
    targets = [
        (SquatPhi, "__init__", "core.pipeline.SquatPhi.__init__"),
        (SquatPhi, "run", "core.pipeline.SquatPhi.run"),
        (StageRunner, "run", "stages.runner.StageRunner.run"),
        (SquattingDetector, "__init__",
         "squatting.detector.SquattingDetector.__init__"),
    ]
    with tracer.patched(targets), tracer.span("bench.pipeline-e2e",
                                              run="pipeline") as root:
        traced = run_once()
    if untraced is None or traced is None:
        raise RuntimeError("pipeline run raised")
    perf = traced[0].perf.to_dict()
    stages = perf["stage_seconds"]
    layers = {f"core.pipeline.{name}_s": float(stages.get(name, 0.0))
              for name in PIPELINE_STAGES}
    layers["core.pipeline.unattributed_s"] = \
        traced[1] - sum(float(v) for v in stages.values())
    layers["features.extraction.pages_per_s"] = \
        perf["pages_extracted"] / perf["extract_seconds"] \
        if perf["extract_seconds"] else 0.0
    for kind in ("render", "feature", "spell"):
        layers[f"perf.cache.{kind}_hit_rate"] = \
            float(perf["cache"][f"{kind}_hit_rate"])
    spans_path = _finish_trace(tracer, root, untraced[1], traced[1], workdir,
                               layers)
    return {"attempted": attempted, "failed": failed, "layers": layers,
            "spans": spans_path}
