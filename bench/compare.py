"""Compare two benchmark results: ``python3 bench/compare.py A.json B.json``.

``A`` is the base (the parent commit), ``B`` the candidate; both are
``bench/out/result.json`` documents. One row per (workload, end-to-end
metric): both values, the ratio B/A with its base, and a verdict against
the metric's bound in ``BENCHMARK.json`` —

    ok          B is not worse than A by more than the bound
    worse       it is
    unresolved  it is not, but either side's run-to-run spread (quartile
                distance over median, from ``--repeat`` runs) is wider than
                the bound, so "unchanged" cannot be claimed

Exits non-zero on any ``worse`` or when B fails a larger share of its
operations than A.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

CONTRACT = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
# Quartiles of fewer runs than this say little about spread.
MIN_RUNS_FOR_SPREAD = 4


def spread(metric: Dict[str, Any]) -> Optional[float]:
    """Quartile distance over the median, or None without enough runs."""
    if metric.get("n", 0) < MIN_RUNS_FOR_SPREAD or not metric["value"]:
        return None
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def worse_by(base: float, candidate: float, better: str) -> float:
    """How much worse the candidate is, as a share of the base."""
    if not base:
        return 0.0
    change = (candidate - base) / abs(base)
    return change if better == "lower" else -change


def compare(base: Dict[str, Any], candidate: Dict[str, Any]) -> List[Dict]:
    rows = []
    for name in (entry["name"] for entry in CONTRACT["workloads"]):
        a = base["workloads"].get(name, {}).get("end_to_end")
        b = candidate["workloads"].get(name, {}).get("end_to_end")
        if a is None or b is None:
            continue
        for spec in CONTRACT["end_to_end"]:
            ma, mb = a["metrics"][spec["name"]], b["metrics"][spec["name"]]
            spreads = [s for s in (spread(ma), spread(mb)) if s is not None]
            if worse_by(ma["value"], mb["value"], spec["better"]) \
                    > spec["bound"]:
                verdict = "worse"
            elif spreads and max(spreads) > spec["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({
                "workload": name, "metric": spec["name"],
                "unit": spec["unit"], "a": ma["value"], "b": mb["value"],
                "bound": spec["bound"],
                "spread": max(spreads) if spreads else None,
                "verdict": verdict})
        fail_a = a["ops_failed"] / a["ops_attempted"]
        fail_b = b["ops_failed"] / b["ops_attempted"]
        rows.append({
            "workload": name, "metric": "ops_failed/ops_attempted",
            "unit": "ratio", "a": fail_a, "b": fail_b, "bound": 0.0,
            "spread": None, "verdict": "worse" if fail_b > fail_a else "ok"})
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    base, candidate = (json.loads(Path(path).read_text()) for path in argv)
    rows = compare(base, candidate)
    print(f"{'workload':<14} {'metric':<26} {'A (base)':>14} {'B':>14} "
          f"{'unit':<6} {'B/A':>8} {'bound':>8} {'spread':>8}  verdict")
    for row in rows:
        ratio = f"{row['b'] / row['a']:.4f}" if row["a"] else "n/a"
        shown_spread = "n/a" if row["spread"] is None \
            else f"{row['spread']:.4f}"
        print(f"{row['workload']:<14} {row['metric']:<26} "
              f"{row['a']:>14.6g} {row['b']:>14.6g} {row['unit']:<6} "
              f"{ratio:>8} {row['bound']:>8.2g} {shown_spread:>8}  "
              f"{row['verdict']}")
    worse = [row for row in rows if row["verdict"] == "worse"]
    unresolved = sum(row["verdict"] == "unresolved" for row in rows)
    print(f"\n{len(rows)} rows: {len(worse)} worse, {unresolved} unresolved"
          f" (B/A is the candidate over the base in column A)")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
