"""Metric names, units and directions (mirrored in ``BENCHMARK.json``).

Every workload reports every end-to-end slot; what a slot means on each
workload is documented in ``perfbench/README.md``.  A traced run reports
every per-layer metric, with 0 for a layer its workload never enters.
"""

from __future__ import annotations

WORKLOADS = {
    "scan-snapshot": "defender batch job: pack a 2e5-record snapshot, "
                     "then scan it warm with the packed kernel at nproc",
    "serve-openloop": "interactive verdicts: open-loop rate ladder over "
                      "the snapshot, 2/3 negative-cache hits",
    "stream-tape": "registration feed: delta sealing, compaction repack "
                   "and many tiny scans, with a stamping publisher",
    "pipeline-e2e": "the paper end to end: crawl, render/OCR features, "
                    "forest training and classification",
}

# name: (unit, better, bound, meaning)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25,
                "cold set-up from interpreter start to ready"),
    "peak_rss_mb": ("MiB", "lower", 0.25,
                    "peak resident memory of the workload process"),
    "throughput_per_s": ("1/s", "higher", 0.25,
                         "the workload's headline warm rate"),
    "p50_ms": ("ms", "lower", 0.25,
               "median wait for the workload's unit of result"),
    "tail_ms": ("ms", "lower", 0.25,
                "the slow path or tail a user waits behind"),
}

# name: (unit, better)
PER_LAYER = {
    "import_s": ("s", "lower"),
    "squatting.detector.build_s": ("s", "lower"),
    "dns.packedzone.load_s": ("s", "lower"),
    "squatting.packedscan.matrices_s": ("s", "lower"),
    "serve.engine.first_lookup_ms": ("ms", "lower"),
    "core.pipeline.construct_s": ("s", "lower"),
    "perf.engine.workers_peak_rss_mb": ("MiB", "lower"),
    "dns.packedzone.pack_s": ("s", "lower"),
    "dns.packedzone.bytes_per_record": ("B/record", "lower"),
    "squatting.packedscan.scan_s": ("s", "lower"),
    "squatting.packedscan.slice_ms.p50": ("ms", "lower"),
    "squatting.packedscan.slice_ms.max": ("ms", "lower"),
    "squatting.packedscan.rows": ("count", "lower"),
    "squatting.packedscan.survivors": ("count", "lower"),
    "squatting.packedscan.survivor_ratio": ("ratio", "higher"),
    "squatting.packedscan.matches": ("count", "higher"),
    "squatting.packedscan.fallback_rate": ("ratio", "lower"),
    "squatting.packedscan.fallbacks.idn": ("count", "lower"),
    "squatting.packedscan.fallbacks.unicode": ("count", "lower"),
    "squatting.packedscan.fallbacks.width": ("count", "lower"),
    "squatting.packedscan.fallbacks.empty": ("count", "lower"),
    "squatting.packedscan.fallbacks.scalar": ("count", "lower"),
    "perf.engine.pool_overhead_s": ("s", "lower"),
    "serve.batcher.batch_size_mean": ("count", "higher"),
    "serve.generator_lateness_ms.p50": ("ms", "lower"),
    "serve.generator_lateness_ms.p99": ("ms", "lower"),
    "serve.engine.lookup_batch_ms.p50": ("ms", "lower"),
    "serve.engine.lookup_batch_ms.p99": ("ms", "lower"),
    "serve.engine.registered_ids_ms": ("ms", "lower"),
    "serve.engine.classify_batch_ms": ("ms", "lower"),
    "serve.engine.self_ms": ("ms", "lower"),
    "serve.negcache.hit_ratio": ("ratio", "higher"),
    "serve.engine.kernel_fallback_rate": ("ratio", "lower"),
    "dns.deltazone.seal_ms": ("ms", "lower"),
    "squatting.packedscan.delta_scan_ms": ("ms", "lower"),
    "stages.runner.segment_ms": ("ms", "lower"),
    "dns.deltazone.compact_s": ("s", "lower"),
    "squatting.packedscan.compaction_scan_s": ("s", "lower"),
    "serve.publisher.publish_ms": ("ms", "lower"),
    "serve.publisher.publish_delta_ms": ("ms", "lower"),
    "serve.publisher.bytes_per_event": ("B/event", "lower"),
    "stream.driver.segments": ("count", "higher"),
    "stream.driver.compactions": ("count", "higher"),
    "stream.driver.digest_checks": ("count", "higher"),
    "stream.driver.cached_segments": ("count", "lower"),
    "core.pipeline.scan_s": ("s", "lower"),
    "core.pipeline.crawl_s": ("s", "lower"),
    "core.pipeline.ground_truth_s": ("s", "lower"),
    "core.pipeline.train_s": ("s", "lower"),
    "core.pipeline.classify_s": ("s", "lower"),
    "core.pipeline.evasion_s": ("s", "lower"),
    "core.pipeline.enrich_s": ("s", "lower"),
    "core.pipeline.verify_s": ("s", "lower"),
    "core.pipeline.unattributed_s": ("s", "lower"),
    "features.extraction.pages_per_s": ("1/s", "higher"),
    "perf.cache.render_hit_rate": ("ratio", "higher"),
    "perf.cache.feature_hit_rate": ("ratio", "higher"),
    "perf.cache.spell_hit_rate": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.uncovered_share": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
}

# the long end-to-end names each workload reports beside its slots
NAMED_UNITS = {
    "scan_domains_per_s": "domains/s",
    "pack_records_per_s": "records/s",
    "serve_p50_ms": "ms",
    "serve_p99_ms": "ms",
    "serve_max_qps": "q/s",
    "serve_tail_ms": "ms",
    "serve_tail_p": "percentile",
    "serve_samples": "count",
    "serve_cpu_p50_ms": "ms",
    "serve_cpu_p99_ms": "ms",
    "serve_capacity_qps": "q/s",
    "stream_events_per_s": "events/s",
    "stream_flush_p50_ms": "ms",
    "stream_compaction_p50_ms": "ms",
    "pipeline_s": "s",
}


def benchmark_json(run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` document these definitions describe."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, (unit, better, bound, _) in END_TO_END.items()],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, (unit, better) in PER_LAYER.items()],
    }
