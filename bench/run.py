"""Run the benchmark: ``python3 bench/run.py`` (or ``python -m bench.run``).

With no arguments every workload is run twice — an untraced closed-loop run
for the end-to-end metrics, then a traced ladder run for the per-layer ones
— every metric is printed by name with its unit, and the whole result goes
to ``bench/out/result.json``. ``--workload`` and ``--trace`` narrow that to
one run, which is how the driver calls it. The last line of standard output
is always one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit("bench: no program to measure: src/repro is missing")
# One BLAS/OpenMP thread in this process and in the server child (which
# inherits the environment), so a run's CPU use is the program's own.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
from typing import Any, Dict, List  # noqa: E402

from bench.ladder import run_ladder  # noqa: E402
from bench.loadgen import OUT_DIR, host_fingerprint, quartiles, \
    run_end_to_end  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
SECTIONS = {0: "end_to_end", 1: "per_layer"}

# An untraced run splits its window over ``trials`` server children and
# reports medians over them; each child is warmed with ``warmup_pages``.
FULL = {"trials": 3, "warmup_pages": 5}
QUICK = {"trials": 1, "warmup_pages": 2}
QUICK_SECONDS = 3


def _with_units(section: str, values: Dict[str, float]) -> Dict[str, Dict]:
    """Attach BENCHMARK.json's units; the contract and the code must name
    exactly the same metrics, with finite values."""
    declared = {m["name"]: m["unit"] for m in CONTRACT[section]}
    if set(values) != set(declared):
        raise RuntimeError(
            f"{section} metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(declared))}")
    for name, value in values.items():
        if not math.isfinite(value):
            raise RuntimeError(f"{section} metric {name} is {value}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in declared.items()}


def run_once(workload_name: str, seed: int, seconds: float, trace: int,
             sizing: Dict[str, int]) -> Dict[str, Any]:
    """One run of one workload; ``metrics`` carries units."""
    workload = WORKLOADS[workload_name]
    if trace:
        result = run_ladder(workload, seed, seconds)
    else:
        result = run_end_to_end(workload, seed, seconds,
                                sizing["trials"],
                                sizing["warmup_pages"])
    result["metrics"] = _with_units(SECTIONS[trace], result["metrics"])
    result["seed"] = seed
    return result


def _merge_repeats(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold repeated runs of one (workload, section) into one record whose
    values are medians, keeping every run's value and their quartiles."""
    merged: Dict[str, Any] = {
        "ops_attempted": sum(run["ops_attempted"] for run in runs),
        "ops_failed": sum(run["ops_failed"] for run in runs),
        "seeds": [run["seed"] for run in runs],
        "metrics": {},
    }
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        merged["metrics"][name] = {
            "value": statistics.median(values), "unit": first["unit"],
            "values": values, **quartiles(values)}
    for name in runs[0].get("trials", {}):
        merged["metrics"][name]["trials"] = [run["trials"][name]
                                             for run in runs]
    if "trace_file" in runs[-1]:
        merged["trace_file"] = runs[-1]["trace_file"]
    return merged


def _print_metrics(workload: str, section: str, record: Dict[str, Any]) -> None:
    print(f"\n{workload} · {section} · attempted {record['ops_attempted']}"
          f" failed {record['ops_failed']}")
    for name, metric in record["metrics"].items():
        line = f"  {name:<48} {metric['value']:>16.6g} {metric['unit']}"
        if "q1" in metric and metric["value"]:
            iqr = (metric["q3"] - metric["q1"]) / abs(metric["value"])
            line += f"   (runs {metric['n']}, quartile spread {iqr:.4f})"
        print(line)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring window of one run (default: "
                             "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0 end-to-end run, 1 traced ladder run "
                             "(default: both)")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS} s windows, one trial")
    parser.add_argument("--repeat", type=int, default=1,
                        help="repeat each run on seeds seed..seed+N-1 and "
                             "report medians and quartiles")
    args = parser.parse_args(argv)

    sizing = QUICK if args.quick else FULL
    seconds = args.seconds if args.seconds is not None else (
        QUICK_SECONDS if args.quick else CONTRACT["run_seconds"])
    names = [args.workload] if args.workload else [
        entry["name"] for entry in CONTRACT["workloads"]]
    traces = [args.trace] if args.trace is not None else [0, 1]

    document: Dict[str, Any] = {
        "schema": 1, "host": host_fingerprint(), "seed": args.seed,
        "repeat": args.repeat, "quick": args.quick, "run_seconds": seconds,
        "workloads": {},
    }
    attempted = failed = 0
    for name in names:
        document["workloads"][name] = {}
        for trace in traces:
            record = _merge_repeats([
                run_once(name, args.seed + i, seconds, trace, sizing)
                for i in range(args.repeat)])
            document["workloads"][name][SECTIONS[trace]] = record
            attempted += record["ops_attempted"]
            failed += record["ops_failed"]
            _print_metrics(name, SECTIONS[trace], record)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "result.json").write_text(json.dumps(document, indent=1))

    single = len(names) == 1 and len(traces) == 1
    metrics = {
        (metric if single else f"{name}.{metric}"):
            {"value": entry["value"], "unit": entry["unit"]}
        for name, sections in document["workloads"].items()
        for record in sections.values()
        for metric, entry in record["metrics"].items()
    }
    print()
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
