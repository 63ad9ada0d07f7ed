"""Runs the benchmark in ``--quick`` mode and checks what it wrote.

Not part of tier-1 (``testpaths`` does not collect it, by design — it
takes over a minute): ``PYTHONPATH=src python -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(ROOT))

from bench.spans import Span, self_times_ms  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TOP = {"browse": "core.lightweb.visit",
       "fetch": "core.zltp.eventloop.tcp_get_slots"}


@pytest.fixture(scope="module")
def quick_run():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--quick", "--seed", "5"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-4000:]
    last_line = json.loads(done.stdout.strip().splitlines()[-1])
    document = json.loads((ROOT / "bench/out/result.json").read_text())
    return last_line, document, done.stdout


def test_contract_file_is_within_limits():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    assert 1 <= CONTRACT["run_seconds"] <= 60
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in CONTRACT[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in CONTRACT["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    for workload in CONTRACT["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_last_line_is_the_result_object(quick_run):
    last_line, _document, _stdout = quick_run
    assert set(last_line) == {"correct", "attempted", "failed", "metrics"}
    assert last_line["correct"] is True
    assert last_line["failed"] == 0 and last_line["attempted"] >= 1


def test_every_metric_is_named_finite_and_printed(quick_run):
    _last_line, document, stdout = quick_run
    assert document["quick"] is True and document["seed"] == 5
    assert {"nproc", "memcpy_gbps", "python", "numpy", "commit"} \
        <= set(document["host"])
    assert list(document["workloads"]) == [
        entry["name"] for entry in CONTRACT["workloads"]]
    for name, sections in document["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in CONTRACT[section]}
            record = sections[section]
            assert record["ops_failed"] == 0, (name, section)
            assert record["ops_attempted"] >= 1
            assert list(record["metrics"]) == list(declared)
            for metric, entry in record["metrics"].items():
                assert entry["unit"] == declared[metric]
                assert math.isfinite(entry["value"]), (name, metric)
                assert metric in stdout
        for metric, entry in sections["end_to_end"]["metrics"].items():
            assert entry["value"] > 0, (name, metric)


def test_ladder_is_sane(quick_run):
    _last_line, document, _stdout = quick_run
    for name, sections in document["workloads"].items():
        layers = {metric: entry["value"] for metric, entry
                  in sections["per_layer"]["metrics"].items()}
        assert layers["loadgen.ladder_requests"] >= 10, name
        assert 0.2 < layers["loadgen.ladder_coverage"] < 1.5, name
        for metric, value in layers.items():
            if metric.endswith("_self_ms"):
                assert value >= 0, (name, metric)
        sharded = name == "fetch_sharded"
        assert (layers["pir.sharding.answer_ms"] > 0) == sharded
        assert (layers["crypto.lwe.answer_ms"] > 0) == (name == "fetch_lwe")
        assert (layers["crypto.dpf.eval_full_ms"] > 0) == (name != "fetch_lwe")
        assert (layers["core.lightweb.visit_ms"] > 0) == (name == "browse_pir2")


def test_trace_self_times_add_up_to_the_top_rung(quick_run):
    _last_line, document, _stdout = quick_run
    for name, sections in document["workloads"].items():
        trace = ROOT / sections["per_layer"]["trace_file"]
        spans = [Span(**json.loads(line))
                 for line in trace.read_text().splitlines()]
        assert spans, name
        top_key = TOP["browse" if name == "browse_pir2" else "fetch"]
        by_request = {}
        for span in spans:
            by_request.setdefault(span.request, []).append(span)
        for request, members in by_request.items():
            ids = {span.id for span in members}
            assert all(span.parent is None or span.parent in ids
                       for span in members), (name, request)
            tops = [span for span in members
                    if span.key == top_key and span.parent is None]
            assert len(tops) == 1, (name, request)
            # Walk the chain below the top rung; side rungs stay out.
            chain, frontier = [], [tops[0].id]
            while frontier:
                current = frontier.pop()
                chain.extend(s for s in members if s.id == current)
                frontier.extend(s.id for s in members if s.parent == current)
            own = self_times_ms(chain)
            leaves = sum(s.ms for s in chain
                         if not any(c.parent == s.id for c in chain))
            total = sum(sum(values) for values in own.values()) + leaves
            assert total == pytest.approx(tops[0].ms, rel=1e-9)


def test_compare_accepts_a_result_against_itself(quick_run):
    result = str(ROOT / "bench/out/result.json")
    done = subprocess.run(
        [sys.executable, "bench/compare.py", result, result],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    assert " worse" not in done.stdout.split("rows:")[0]
    assert "browse_pir2" in done.stdout and "wire_bytes_per_page" in done.stdout
