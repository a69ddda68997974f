"""Checks of the benchmark spine itself (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/spine -q
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

sys.path.insert(0, str(HERE))
import metrics                                          # noqa: E402
import reference                                        # noqa: E402
from spans import SEAMS, Tracer, seam_name              # noqa: E402


def spine(*args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
        capture_output=True, text=True, timeout=170)


def leftovers() -> list[str]:
    """Worker processes still alive, and temp roots still on disk."""
    found = [p.name for p in OUT.glob("tmp-*")]
    for entry in pathlib.Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                command = (entry / "cmdline").read_bytes()
            except OSError:
                continue
            if b"spine/worker.py" in command:
                found.append(f"pid {entry.name}")
    return found


@pytest.fixture(scope="session")
def smoke():
    """One ``--smoke`` run of everything, shared by the tests below."""
    start = time.perf_counter()
    done = spine("--smoke")
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout + done.stderr
    assert leftovers() == []
    results = json.loads((OUT / "result_all.json").read_text())["results"]
    return elapsed, done.stdout, {r["workload"]: r for r in results}


def test_smoke_runs_all_six_workloads_within_a_minute(smoke):
    elapsed, _stdout, results = smoke
    assert elapsed < 60
    assert list(results) == WORKLOADS
    for result in results.values():
        assert result["problems"] == []
        assert result["untraced"]["failed"] == 0
        assert result["untraced"]["gate"]["passed"]


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/spine"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_declared_metrics_are_the_ones_the_code_produces():
    declared = [(m["name"], m["unit"], m["better"])
                for m in SPEC["per_layer"]]
    assert declared == [row[:3] for row in metrics.PER_LAYER]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_harness_line_carries_every_declared_metric(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = spine("--workload", workload, "--seed", "7", "--seconds",
                     "0.3", "--trace", str(trace), "--smoke")
        assert done.returncode == 0, done.stdout + done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert line["attempted"] >= 1 and line["failed"] == 0
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {n: v["unit"] for n, v in line["metrics"].items()} == declared
        for name, entry in line["metrics"].items():
            assert isinstance(entry["value"], (int, float)), name
            if trace == 0:
                assert entry["value"] > 0, name
    assert leftovers() == []


def test_layer_self_times_sum_to_the_root_spans(smoke):
    _elapsed, _stdout, results = smoke
    for workload, result in results.items():
        trace = result["traced"]["trace"]
        assert sum(trace["layer_self_s"].values()) == pytest.approx(
            trace["root_wall_s"], rel=1e-6), workload
        # the same from the spans as written out
        dumped = json.loads((OUT / f"trace_{workload}.json").read_text())
        assert tuple(dumped["columns"]) == (
            "name", "layer", "start", "end", "parent", "request")
        spans = dumped["spans"]
        covered = [0.0] * len(spans)
        for _name, _layer, start, end, parent, _request in spans:
            if parent >= 0:
                covered[parent] += end - start
        blocks = [i for i, span in enumerate(spans)
                  if span[0] == "driver.block"]
        timed = set(blocks)
        for i, span in enumerate(spans):     # parents come before children
            if span[4] in timed:
                timed.add(i)
        self_s = sum(spans[i][3] - spans[i][2] - covered[i] for i in timed)
        assert self_s == pytest.approx(
            sum(spans[i][3] - spans[i][2] for i in blocks), rel=1e-6)


def test_every_seam_resolves_and_the_design_separates_the_layers(smoke):
    _elapsed, _stdout, results = smoke
    called = set()
    for result in results.values():
        trace = result["traced"]["trace"]
        assert trace["missing_seam"] == []
        called.update(trace["calls"])
    # reverse TQL walks the symmetric list on the undirected schema, so
    # inlinks_batch is wrapped but never called
    expected = {seam_name(*seam[:3]) for seam in SEAMS}
    assert expected - called <= {"graph.inlinks_batch"}
    layers = {w: r["per_layer"] for w, r in results.items()}
    assert layers["serve_cold"]["serve.caches.result_hit_ratio"][0] == 0
    assert layers["serve_hot"]["serve.caches.result_hit_ratio"][0] >= 0.99
    for workload, values in layers.items():
        faults = values["memcloud.storage.page_faults"][0]
        assert bool(faults) == (workload == "serve_cold_paged"), workload


def test_a_slow_spell_does_not_move_the_end_to_end_times():
    def raw(slowdown):
        block = {"ops": 100, "wall": 2.0 * slowdown, "p50": 0.01 * slowdown,
                 "p95": 0.02 * slowdown,
                 "reference_s": reference.NOMINAL_S * slowdown}
        return {"blocks": [block] * 3, "rss_peak_mb": 50.0,
                "setup_s": [1.0 * slowdown] * 3,
                "setup_reference_s": [reference.NOMINAL_S * slowdown] * 3}

    quiet, slow = metrics.end_to_end(raw(1.0)), metrics.end_to_end(raw(1.3))
    assert quiet["ops_per_s"][0] == pytest.approx(50.0)
    assert quiet["op_p95_ms"][0] == pytest.approx(20.0)
    assert quiet["setup_s"][0] == pytest.approx(1.0)
    for name, (value, _unit, _samples) in quiet.items():
        assert slow[name][0] == pytest.approx(value), name


def test_a_seam_that_is_gone_is_reported_not_raised():
    class Bare:
        def run(self):
            return 1

    tracer = Tracer()
    server = Bare()
    tracer.install(server=server)
    assert "server.submit" in tracer.missing
    assert "server.executor.run_window" in tracer.missing
    assert server.run() == 1 and tracer.calls["server.run"] == 1


def test_counts_and_answers_repeat_exactly_at_one_seed():
    runs = []
    for _ in range(2):
        done = spine("--workload", "serve_rw", "--seed", "11", "--seconds",
                     "0.3", "--smoke")
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(
            (OUT / "result_serve_rw.json").read_text())["results"][0]
        runs.append((result["untraced"]["at_trace"]["digest"],
                     result["untraced"]["at_trace"]["counts"]))
    assert runs[0] == runs[1]


def test_a_failing_or_hanging_worker_leaves_nothing_behind():
    failing = spine("--workload", "serve_rw", "--seed", "-1", "--smoke")
    assert failing.returncode != 0           # numpy refuses the seed
    assert leftovers() == []
    hanging = spine("--workload", "serve_rw", "--smoke",
                    "--child-timeout", "0.2")
    assert hanging.returncode != 0
    assert "no result within" in hanging.stderr
    assert leftovers() == []


def test_nothing_to_measure_is_an_error(tmp_path):
    bare = tmp_path / "checkout"
    (bare / "benchmarks").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    subprocess.run(["cp", "-r", str(HERE), str(bare / "benchmarks" / "spine")],
                   check=True)
    done = subprocess.run(
        [sys.executable, "benchmarks/spine/run.py", "--workload", "serve_hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
