"""Compare two result files written by ``run.py --out``.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds one JSON line per run; runs of one workload are pooled
and compared by their medians.  End-to-end metrics get one row per
workload and metric, with the bound from BENCHMARK.json (or from
``run.EXTRA_END_TO_END`` for metrics only some workloads report):

- ``REGRESSION``: the change's median is worse than the parent's by more
  than the bound;
- ``unresolved``: the spread of either side (quartile distance over
  median) exceeds the bound, unless every run of the change beats every
  run of the parent; ``item_p90_ms`` and ``item_p90_ms_plain`` are also
  unresolved when some run has fewer than 10 items beyond its p90
  (``chain`` always does);
- ``ok`` otherwise.

Output digests, per-layer ``calls`` counts and the traced runs' role
checks are reported in their own sections, apart from the timings.  The
exit code is 1 if any row is a regression or a gating role is unmet in
the change, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import EXTRA_END_TO_END, ROOT

MIN_BEYOND_P90 = 10


def load(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / abs(med) if med else 0.0


def pooled(records, trace: int) -> dict:
    """{workload: {metric: [values]}} over the runs with the given trace flag."""
    out: dict = {}
    for r in records:
        if r["trace"] != trace:
            continue
        metrics = out.setdefault(r["workload"], {})
        for name, m in r["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return out


def verdict(a: list[float], b: list[float], better: str, bound) -> tuple[float, str]:
    ma, mb = statistics.median(a), statistics.median(b)
    worse = (mb - ma) if better == "lower" else (ma - mb)
    if bound is None:
        return worse, "REGRESSION" if worse > 0 else "ok"
    rel = worse / abs(ma) if ma else (float("inf") if worse > 0 else 0.0)
    if rel > bound:
        return rel, "REGRESSION"
    if max(spread(a), spread(b)) > bound:
        all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
        return rel, "better" if all_better else "unresolved"
    return rel, "ok"


def end_to_end(a_runs, b_runs, spec) -> bool:
    bounds = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    bounds.update(EXTRA_END_TO_END)
    a, b = pooled(a_runs, 0), pooled(b_runs, 0)
    beyond_p90: dict = {}
    for r in a_runs + b_runs:
        if r["trace"] == 0:
            n = r["notes"].get("beyond_p90", 0)
            beyond_p90[r["workload"]] = min(n, beyond_p90.get(r["workload"], n))
    print("== end-to-end (untraced runs; medians) ==")
    print(f"{'workload':<10} {'metric':<18} {'unit':<6} {'parent':>12} {'change':>12} "
          f"{'worse by':>9} {'bound':>6} {'n':>5}  verdict")
    regression = False
    for workload in [w for w in a if w in b]:
        for name, (unit, better, bound) in bounds.items():
            if name not in a[workload] or name not in b[workload]:
                continue
            va, vb = a[workload][name], b[workload][name]
            worse, v = verdict(va, vb, better, bound)
            if name.startswith("item_p90_ms") and beyond_p90[workload] < MIN_BEYOND_P90:
                v = f"unresolved ({beyond_p90[workload]} beyond p90)"
            regression |= v == "REGRESSION"
            shown = f"{worse:+.1%}" if bound is not None else f"{worse:+.3g}"
            print(f"{workload:<10} {name:<18} {unit:<6} {statistics.median(va):>12.5g} "
                  f"{statistics.median(vb):>12.5g} {shown:>9} "
                  f"{'-' if bound is None else bound:>6} {len(va):>2}/{len(vb):<2}  {v}")
    return regression


def digests(a_runs, b_runs) -> None:
    """Digests per (workload, seed); traced and untraced runs must agree too."""
    print("\n== output digests (per workload and seed) ==")
    sides = []
    for side, runs in (("parent", a_runs), ("change", b_runs)):
        groups: dict = {}
        for r in runs:
            groups.setdefault((r["workload"], r["seed"]), set()).add(r["digest"])
        for key, found in sorted(groups.items()):
            if len(found) > 1:
                print(f"{side}: {key[0]} seed {key[1]}: runs disagree ({len(found)} digests)")
        sides.append(groups)
    a, b = sides
    for key in sorted(set(a) & set(b)):
        print(f"{key[0]:<10} seed {key[1]:<8} {'same' if a[key] == b[key] else 'CHANGED'}")


def calls(a_runs, b_runs) -> None:
    print("\n== per-layer counts (traced runs, per seed) ==")
    count_metric = {name for r in a_runs + b_runs if r["trace"] == 1 for name, m in r["metrics"].items()
                    if m["unit"] == "count"}
    a = {(r["workload"], r["seed"]): r["metrics"] for r in a_runs if r["trace"] == 1}
    b = {(r["workload"], r["seed"]): r["metrics"] for r in b_runs if r["trace"] == 1}
    changed = 0
    for key in sorted(set(a) & set(b)):
        for name in sorted(count_metric):
            va, vb = a[key].get(name, {}).get("value"), b[key].get(name, {}).get("value")
            if va != vb:
                changed += 1
                print(f"{key[0]:<10} seed {key[1]:<8} {name:<46} {va} -> {vb}")
    if not changed:
        print(f"no count changed in {len(set(a) & set(b))} (workload, seed) pairs")


def roles(a_runs, b_runs) -> bool:
    """Role checks per (workload, seed); True if a gating role is unmet in the change."""
    print("\n== workload roles (traced runs, per seed) ==")
    sides = [{(r["workload"], r["seed"], role["role"]): role
              for r in runs if r["trace"] == 1 for role in r.get("roles", [])}
             for runs in (a_runs, b_runs)]
    a, b = sides
    broken = shown = 0
    for key in sorted(set(a) | set(b)):
        met_a, met_b = (side[key]["met"] if key in side else None for side in sides)
        unmet = key in b and b[key]["gates"] and not met_b
        if unmet or met_a != met_b:
            broken += unmet
            shown += 1
            print(f"{key[0]:<10} seed {key[1]:<8} {key[2]}: met {met_a} -> {met_b} "
                  f"({b[key]['value'] if key in b else '-'}){'  BROKEN' if unmet else ''}")
    if not shown:
        print(f"no role changed in {len(set(a) & set(b))} (workload, seed, role) checks")
    return broken > 0


def layer_times(a_runs, b_runs) -> None:
    print("\n== per-layer self time (traced runs; medians, seconds per pass) ==")
    a, b = pooled(a_runs, 1), pooled(b_runs, 1)
    for workload in [w for w in a if w in b]:
        for name in sorted(a[workload]):
            if not (name.endswith(".self_s") or name == "trace_overhead_frac"):
                continue
            if name not in b[workload]:
                continue
            ma, mb = statistics.median(a[workload][name]), statistics.median(b[workload][name])
            if ma == 0 and mb == 0:
                continue
            change = f"{(mb - ma) / ma:+.1%}" if ma else "new"
            print(f"{workload:<10} {name:<46} {ma:>10.4g} {mb:>10.4g} {change:>8}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Diff two benchmark result files.")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_runs, b_runs = load(args.parent), load(args.change)
    regression = end_to_end(a_runs, b_runs, spec)
    digests(a_runs, b_runs)
    calls(a_runs, b_runs)
    regression |= roles(a_runs, b_runs)
    layer_times(a_runs, b_runs)
    return 1 if regression else 0


if __name__ == "__main__":
    sys.exit(main())
