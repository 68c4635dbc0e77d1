"""Seeded inputs and their reference answers, made before any timing.

Everything here is a pure function of the workload's seed and scale and
reuses the repository's own synthesizers: the zone-scale bench's
snapshot stream and squat pool (``bench_snapshot_scale``), the serving
load generator (``synth_requests``), the event tape
(``EventTapeConfig``) and the synthetic world (``WorldConfig``).  The
program under test receives only the files written here.

References are computed once per (workload, seed, scale, program
source) and kept in ``.perfbench/cache`` so a repeated seed skips the
slow dict-backed oracle scan.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CACHE_DIR = os.path.join(ROOT, ".perfbench", "cache")

# the squatphi pipeline CLI defaults (``--squats 400``)
PIPELINE_SQUATS = 400

SCALES = {
    # records: scan/serve snapshot; requests_per_s: serve requests per
    # second of --seconds; events: stream tape, of which base_events build
    # the starting snapshot (a base large enough to hold the tape's long
    # labels keeps the scan width, and so the work, alike across seeds)
    "full": {"records": 200_000, "requests_per_s": 3_000,
             "base_events": 4_400, "events": 14_400,
             "squats": PIPELINE_SQUATS, "probes": 3},
    "smoke": {"records": 6_000, "requests_per_s": 200,
              "base_events": 400, "events": 1_400, "squats": 40,
              "probes": 2},
}

STREAM_SEGMENT_EVENTS = 100
STREAM_COMPACT_EVERY = 10
SERVE_GEN_RATE = 10_000.0       # arrivals are generated at the base rate
SERVE_SQUAT_RATE = 0.05
SERVE_MISS_RATE = 0.5
SERVE_REPEAT = 3


def world_config(seed: int, squats: int):
    """The ``squatphi pipeline --squats N --seed S`` world."""
    from repro.phishworld.world import WorldConfig
    return WorldConfig(seed=seed, n_organic_domains=squats,
                       n_squat_domains=squats,
                       n_phish_domains=max(4, squats // 12),
                       phishtank_reports=max(40, squats // 3))


def source_digest() -> str:
    """Digest of the program source the references were computed with."""
    hasher = hashlib.sha256()
    paths = [os.path.join(ROOT, "benchmarks", "bench_snapshot_scale.py")]
    for base, dirs, files in os.walk(os.path.join(ROOT, "src", "repro")):
        dirs.sort()
        paths.extend(os.path.join(base, f) for f in sorted(files)
                     if f.endswith(".py"))
    for path in paths:
        hasher.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            hasher.update(hashlib.sha256(handle.read()).digest())
    return hasher.hexdigest()


def cached_reference(key: Dict[str, object], compute):
    """``compute()`` once per key (plus program source); JSON-cached."""
    blob = json.dumps(dict(key, source=source_digest()), sort_keys=True)
    name = hashlib.sha256(blob.encode()).hexdigest()[:32] + ".json"
    path = os.path.join(CACHE_DIR, name)
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        pass
    value = compute()
    os.makedirs(CACHE_DIR, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(value, handle)
    os.replace(tmp, path)
    return value


def _bench_synthesizers():
    """The zone-scale bench's snapshot and squat-pool synthesizers."""
    bench_dir = os.path.join(ROOT, "benchmarks")
    if bench_dir not in sys.path:
        sys.path.append(bench_dir)
    import bench_snapshot_scale
    return bench_snapshot_scale


def _write_snapshot(names: List[str], path: str):
    from repro.dns.packedzone import PackedZone, PackedZoneBuilder
    builder = PackedZoneBuilder()
    for name in names:
        builder.add_name(name)
    builder.write(path)
    return PackedZone.load(path)


def prepare(workload: str, seed: int, seconds: int, scale: str,
            workdir: str, nproc: int) -> Dict[str, object]:
    """Write the workload's inputs and reference into ``workdir``.

    Returns the params the workload process reads from ``params.json``.
    """
    size = SCALES[scale]
    params: Dict[str, object] = {"workload": workload, "seed": seed,
                                 "seconds": seconds, "scale": scale,
                                 "nproc": nproc}
    if workload in ("scan-snapshot", "serve-openloop"):
        from repro.brands import build_paper_catalog
        catalog = build_paper_catalog()
        names = _bench_synthesizers().synth_names(size["records"], catalog,
                                                  seed=seed)
        zone = _write_snapshot(names, os.path.join(workdir, "snapshot.pzon"))
        params["zone_file"] = "snapshot.pzon"
        params["zone_digest"] = zone.content_digest
        if workload == "scan-snapshot":
            with open(os.path.join(workdir, "names.txt"), "w",
                      encoding="utf-8") as handle:
                handle.write("\n".join(names))
            params["reference"] = cached_reference(
                {"workload": workload, "seed": seed,
                 "records": size["records"]},
                lambda: {"scan_digest": _dict_scan_digest(catalog, names)})
        else:
            _prepare_serve(params, catalog, zone, seed, seconds, size,
                           workdir)
    elif workload == "stream-tape":
        from repro.dns.packedzone import pack_zone
        from repro.phishworld.events import build_tape, replay_into_store
        params["tape"] = {"seed": seed, "n_events": size["events"]}
        params["driver"] = {"base_events": size["base_events"],
                            "segment_events": STREAM_SEGMENT_EVENTS,
                            "compact_every": STREAM_COMPACT_EVERY,
                            "workers": 1}
        tape = build_tape(tape_config(params["tape"]))
        base = pack_zone(replay_into_store(tape[:size["base_events"]]))
        base.save(os.path.join(workdir, "base.pzon"))
        params["zone_file"] = "base.pzon"
        streamed = size["events"] - size["base_events"]
        params["expected"] = {
            "segments": -(-streamed // STREAM_SEGMENT_EVENTS),
            "compactions": -(-streamed // (STREAM_SEGMENT_EVENTS
                                           * STREAM_COMPACT_EVERY)),
        }
    elif workload == "pipeline-e2e":
        params["squats"] = size["squats"]
        # every process-pool knob at nproc; the scan stays serial because
        # the CLI-default world is dict-backed, whose parallel scan is the
        # per-worker-detector twin the benchmark does not time
        params["pipeline_config"] = {
            "cv_folds": 5, "rf_trees": 15, "scan_workers": 1,
            "crawl_workers": nproc, "train_workers": nproc,
            "extract_workers": nproc}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return params


def tape_config(tape: Dict[str, int]):
    from repro.phishworld.events import EventTapeConfig
    return EventTapeConfig(seed=tape["seed"], n_events=tape["n_events"])


def _dict_scan_digest(catalog, names: List[str]) -> str:
    """The oracle: dict-backed serial ``SquattingDetector.scan``."""
    from repro.dns.zone import ZoneStore
    from repro.squatting.detector import SquattingDetector
    from repro.stages import digest_squat_matches
    zone = ZoneStore()
    for name in names:
        zone.add_name(name)
    return digest_squat_matches(SquattingDetector(catalog).scan(zone))


def _prepare_serve(params, catalog, zone, seed, seconds, size, workdir):
    import numpy as np
    from repro.serve.engine import offline_verdicts, verdict_line
    from repro.serve.loadgen import synth_requests
    from repro.squatting.detector import SquattingDetector
    n_requests = max(size["requests_per_s"] * seconds, 500)
    squats = _bench_synthesizers()._squat_pool(
        catalog, np.random.default_rng([seed, 7]))
    requests = synth_requests(
        n_requests, SERVE_GEN_RATE, seed=seed,
        registered=list(zone.registered_domains()),
        squats=squats,
        miss_rate=SERVE_MISS_RATE, squat_rate=SERVE_SQUAT_RATE,
        pool_factor=SERVE_REPEAT)
    with open(os.path.join(workdir, "requests.json"), "w",
              encoding="utf-8") as handle:
        json.dump(requests, handle)
    unique = sorted({name for _, name in requests})
    verdicts = offline_verdicts(SquattingDetector(catalog), zone, unique)
    params["reference"] = {name: verdict_line(v)
                           for name, v in zip(unique, verdicts)}
    params["requests_file"] = "requests.json"
    params["gen_rate"] = SERVE_GEN_RATE
    params["first_query"] = requests[0][1]
