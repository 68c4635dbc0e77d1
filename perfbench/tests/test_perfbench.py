"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Smoke-scale runs of every workload check that each named metric is
present with its unit; the rest check the correctness gate, the
open-loop backlog detector and the span arithmetic on known inputs.
"""

import json
import os
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import inputs, metrics, openloop, run, spans, stats  # noqa: E402
from perfbench.measure import _flushes  # noqa: E402


def _bench(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--scale", "smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    out = _bench(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    wanted = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert set(out["metrics"]) == set(wanted)
    for name, entry in out["metrics"].items():
        assert entry["unit"] == wanted[name][0]
        assert isinstance(entry["value"], float)
        if not trace:
            assert entry["value"] > 0, name


@pytest.mark.parametrize("workload", ["scan-snapshot", "serve-openloop"])
def test_wrong_reference_fails_every_operation(workload, monkeypatch,
                                               capsys):
    prepare = inputs.prepare

    def corrupted(*args, **kwargs):
        params = prepare(*args, **kwargs)
        params["zone_digest"] = "0" * 64
        if workload == "scan-snapshot":
            params["reference"] = {"scan_digest": "0" * 64}
        else:
            params["reference"] = {name: "wrong"
                                   for name in params["reference"]}
        return params

    monkeypatch.setattr(inputs, "prepare", corrupted)
    args = run._parse(["--workload", workload, "--seed", "5",
                       "--seconds", "1", "--scale", "smoke"])
    out = run.run(args)
    assert out["attempted"] >= 1
    assert out["failed"] == out["attempted"]
    assert out["correct"] is False


class _SleepingEngine:
    """Serves at most 2000 requests per second, whatever it is offered."""

    def lookup_batch(self, names, now=0.0):
        time.sleep(0.0005 * len(names))
        return list(names)


def test_sleeping_engine_is_a_growing_backlog_and_not_max_rate():
    requests = [(i / 1000.0, f"n{i}.com") for i in range(400)]

    def rung(rate):
        return openloop.run_rung(_SleepingEngine(), requests, 1000.0, rate,
                                 lambda names, verdicts: [])

    overloaded = rung(8000.0)
    assert overloaded.growing_backlog
    assert not overloaded.passed
    best, rungs = openloop.walk_ladder(rung, [500.0, 8000.0], refine_steps=3)
    assert rungs[0].passed
    assert 500.0 <= best < 2500.0
    assert all(not r.passed for r in rungs if r.rate > best)


class _CountingEngine:
    """Charges a fixed CPU cost per request to a counter the test reads."""

    def __init__(self, per_request):
        self.cpu = 0.0
        self.per_request = per_request

    def lookup_batch(self, names, now=0.0):
        self.cpu += self.per_request * len(names)
        return list(names)


def test_cpu_replay_queues_each_batch_behind_the_previous_service():
    # one request every 10 ms, each alone in a batch closed 5 ms later
    requests = [(i / 100.0, f"n{i}.com") for i in range(50)]

    def replay(per_request):
        engine = _CountingEngine(per_request)
        return openloop.run_rung(engine, requests, 100.0, 100.0,
                                 lambda names, verdicts: [],
                                 sleep=lambda seconds: None,
                                 cpu_clock=lambda: engine.cpu)

    idle = replay(0.001)
    assert all(abs(lat - 0.006) < 1e-9 for lat in idle.cpu_latencies)
    busy = replay(0.02)          # service takes twice the arrival gap
    waits = busy.cpu_latencies
    assert waits == sorted(waits)
    assert abs(waits[-1] - (0.005 + 0.02 + 49 * 0.01)) < 1e-9


def test_failed_requests_miss_the_latency_limit():
    bunched = openloop.RungResult(rate=1.0, sent=100, failed=10,
                                  latencies=[0.001] * 90 + [float("inf")] * 10)
    spread = openloop.RungResult(
        rate=1.0, sent=500, failed=10,
        latencies=([0.001] * 98 + [float("inf")] * 2) * 5)
    for result in (bunched, spread):
        assert result.p99_s == float("inf")
        assert not result.passed


def test_self_time_on_a_hand_built_span_tree():
    tree = [
        {"id": 0, "name": "root", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 1, "name": "a", "start": 1.0, "end": 4.0, "parent": 0},
        {"id": 2, "name": "b", "start": 3.0, "end": 6.0, "parent": 0},
        {"id": 3, "name": "c", "start": 8.0, "end": 12.0, "parent": 0},
        {"id": 4, "name": "a1", "start": 1.0, "end": 2.0, "parent": 1},
    ]
    selfs = spans.self_times(tree)
    # root: 10 minus the union [1, 6] and [8, 10] its children cover
    assert selfs == {0: 3.0, 1: 2.0, 2: 3.0, 3: 4.0, 4: 1.0}


def test_tracer_nests_and_restores_patched_entry_points():
    class Layer:
        def work(self):
            return 7

        @classmethod
        def make(cls):
            return cls()

    tracer = spans.Tracer()
    original = Layer.__dict__["work"]
    with tracer.patched([(Layer, "work", "layer.work"),
                         (Layer, "make", "layer.make")]):
        with tracer.span("outer", run="r1"):
            assert Layer.make().work() == 7
    assert Layer.__dict__["work"] is original
    outer, make, work = tracer.spans
    assert make["parent"] == outer["id"] and work["parent"] == outer["id"]
    assert work["run"] == "r1"


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert stats.tail(list(range(1000)))["p"] == 99.0
    assert stats.tail(list(range(100)))["p"] == 90.0
    small = stats.tail([3.0, 1.0, 2.0])
    assert small["p"] == 100.0 and small["value"] == 3.0


def test_flushes_split_on_compaction_publishes():
    stamps = [("base", 0.0, 1), ("delta", 1.0, 1), ("delta", 1.5, 1),
              ("base", 4.0, 1), ("delta", 4.25, 1)]
    assert _flushes(stamps) == [(1.0, False), (3.0, True), (0.25, False)]


def test_benchmark_json_matches_the_metric_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        document = json.load(fh)
    assert document == metrics.benchmark_json(document["run_seconds"])


def test_refuses_to_run_outside_a_checkout(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, "perfbench", name), "rb") as fh:
                (bench / name).write_bytes(fh.read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-snapshot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
