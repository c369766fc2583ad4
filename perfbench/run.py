"""Benchmark runner for psf.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 30 --trace 0

Runs one workload against the checkout's ``src/`` as a closed loop: one
caller, one process, one thread, and the next item starts only when the
previous one has finished.  Items run in whole passes until ``--seconds``
of timed work are done; the four flags above are the benchmark's calling
convention, and ``--seconds`` defaults to ``run_seconds`` in
BENCHMARK.json.  Every item is checked for exactness; a failed check or
any exception (``RecursionError`` included) counts as a failed item and
never stops the run.

With ``--trace 0`` the end-to-end metrics are measured.  Before each
item and set-up, and after the last of a pass or of the set-ups, a fixed
reference computation that does not use psf is timed.  Every end-to-end
timing is corrected for the host's speed at the time by the factor
``host_scale(refs)`` over the pass's or the set-ups' reference times (see
README.md); the ``_plain`` metrics are the same timings uncorrected.  With
``--trace 1`` every pass runs twice on the same inputs, once plain and
once with the library's functions wrapped by ``tracing.Tracer``, and the
per-layer metrics come from the wrapped passes.  The last traced pass's
spans are written to ``perfbench/results/spans-<workload>-seed<seed>.jsonl``,
and a workload whose traced calls break its stated role (see ``roles``)
gives an incorrect result.

The output is a metric table, then, as the last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--out FILE`` appends the full result (environment, digest, every
metric) as one JSON line; ``compare.py`` diffs two such files.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from tracing import LAYERS, NAMES, OK_RATIO, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

DEFAULT_SEED = 1  # seed 7919 is held out for confirming claims (see README.md)
# Set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have
# been spent on it, so that a fast set-up's median rests on many samples.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
# A nominal time of one ``reference()`` call (it took 3 to 5 ms on the
# 2-vCPU Xeon virtual machine the benchmark was defined on), and the
# measured elasticity of psf item times to it there: when the host slows
# the reference by a factor x, psf items slow by about x ** HOST_ELASTICITY.
REFERENCE_S = 0.0035
HOST_ELASTICITY = 0.7
_REFERENCE_FACETS = [tuple(sorted(random.Random(i).sample(range(125), 5))) for i in range(500)]
PINNED_ENV = {"PYTHONHASHSEED": "0"}
UNSET_ENV = ("PSF_DEBUG_VERIFY",)
MODULES = ("complexes", "enumeration", "build", "buildscript", "verify",
           "separation", "decompose", "corpus", "fileio", "cli")

# End-to-end metrics printed and recorded besides those BENCHMARK.json
# lists: the uncorrected timings, which the host's speed swings move by
# more than their bounds, and those that apply to some workloads only.
# compare.py applies the bounds given here (None: any increase is a
# regression).
EXTRA_END_TO_END = {
    "setup_s_plain": ("s", "lower", 0.25),
    "items_per_s_plain": ("1/s", "higher", 0.25),
    "item_p50_ms_plain": ("ms", "lower", 0.25),
    "item_p90_ms_plain": ("ms", "lower", 0.25),
    "failed_frac": ("frac", "lower", None),
    "chain_s.25": ("s", "lower", 0.25),
    "chain_s.50": ("s", "lower", 0.25),
    "chain_s.100": ("s", "lower", 0.25),
    "scaling_exponent": ("1", "lower", 0.1),
}


def pin_environment() -> None:
    """Re-execute this script with the pinned environment if it differs."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()) and not any(
        k in os.environ for k in UNSET_ENV
    ):
        return
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env.update(PINNED_ENV)
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def import_psf() -> SimpleNamespace:
    """Import psf afresh from the checkout's src/ (set-up cost included)."""
    for key in [k for k in sys.modules if k == "psf" or k.startswith("psf.")]:
        del sys.modules[key]
    lib = SimpleNamespace(**{m: importlib.import_module(f"psf.{m}") for m in MODULES})
    origin = Path(lib.complexes.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"psf was imported from {origin}, not from {SRC}")
    return lib


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def git_sha():
    """The checkout's commit; None outside a repository or without git."""
    if not (ROOT / ".git").exists():  # keep git from finding an enclosing repository
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "psf").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def no_span(name):
    return contextlib.nullcontext()


def reference() -> int:
    """Ridges and vertex links of a fixed set of 500 4-simplices, computed
    with plain tuples, dicts and frozensets as psf does, but never by psf:
    its time gauges the host's current speed."""
    ridges: dict = {}
    for f in _REFERENCE_FACETS:
        for i in range(5):
            ridges.setdefault(f[:i] + f[i + 1:], []).append(f)
    links: dict = {}
    for f in _REFERENCE_FACETS:
        s = frozenset(f)
        for v in f:
            links.setdefault(v, set()).add(s - {v})
    return len(ridges) + sum(len(link) for link in links.values())


def time_reference(refs: list) -> None:
    # The reference makes no reference cycles.  With the collector on, its
    # allocations would start collections whose cost grows with the
    # objects the workload keeps alive, which differ by seed.
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference()
        refs.append(time.perf_counter() - t0)
    finally:
        gc.enable()


def host_scale(refs: list) -> float:
    """The factor that corrects times measured next to these reference
    times to the host's usual speed."""
    return (REFERENCE_S / statistics.median(refs)) ** HOST_ELASTICITY


def run_pass(workload, xs, span, refs=None) -> tuple[float, list]:
    """Run one pass; returns its wall time and (seconds, ok, digest, info) per item.

    With a list ``refs``, the reference is timed before each item and
    after the last one, and its times are appended there.
    """
    results = []
    start = time.perf_counter()
    for x in xs:
        if refs is not None:
            time_reference(refs)
        t0 = time.perf_counter()
        try:
            with span("item"):
                ok, out, info = workload.run(x, span)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok, out, info = False, b"", {}
        dt = time.perf_counter() - t0
        results.append((dt, bool(ok), hashlib.sha256(out).hexdigest(), info))
    if refs is not None:
        time_reference(refs)
    return time.perf_counter() - start, results


class Gates:
    """Counts items and failures across passes, and the pass-0 digest."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.first = None  # per-item digests of pass 0

    def check(self, results) -> None:
        digests = [r[2] for r in results]
        if self.first is None:
            self.first = digests
        repeat = self.workload.repeats
        pass_ok = getattr(self.workload, "pass_ok", None)
        if pass_ok and not pass_ok([r[3] for r in results]):
            # a pass-wide gate fails every item of the pass
            print(f"pass gate of {type(self.workload).__name__} failed", file=sys.stderr)
            results = [(dt, False, digest, info) for dt, _, digest, info in results]
        for i, (_, ok, digest, _) in enumerate(results):
            self.attempted += 1
            if not ok or (repeat and digest != self.first[i]):
                self.failed += 1

    @property
    def digest(self) -> str:
        return hashlib.sha256("".join(self.first).encode()).hexdigest()


def measure(workload, seconds: float, gates: Gates) -> tuple[dict, dict]:
    times, corrected, refs, infos, wall, p = [], [], [], [], 0.0, 0
    while p == 0 or wall < seconds:
        xs = workload.first if p == 0 else workload.inputs(p)
        gc.collect()
        pass_refs = []
        dt, results = run_pass(workload, xs, no_span, pass_refs)
        wall += dt
        gates.check(results)
        scale = host_scale(pass_refs)
        times += [r[0] for r in results]
        corrected += [r[0] * scale for r in results]
        refs += pass_refs
        infos += [r[3] for r in results]
        p += 1
    p90 = percentile(corrected, 0.9)
    metrics = {
        "items_per_s": len(corrected) / sum(corrected),
        "item_p50_ms": percentile(corrected, 0.5) * 1000,
        "item_p90_ms": p90 * 1000,
        "items_per_s_plain": len(times) / sum(times),
        "item_p50_ms_plain": percentile(times, 0.5) * 1000,
        "item_p90_ms_plain": percentile(times, 0.9) * 1000,
        "failed_frac": gates.failed / gates.attempted,
    }
    notes = {"passes": p, "items": len(corrected), "beyond_p90": sum(t > p90 for t in corrected),
             "reference_ms": round(statistics.median(refs) * 1000, 4)}
    by_size: dict[int, list[float]] = {}
    for t, info in zip(corrected, infos):
        if "n" in info:
            by_size.setdefault(info["n"], []).append(t)
    if by_size:
        sizes = sorted(by_size)
        medians = [statistics.median(by_size[n]) for n in sizes]
        for n, m in zip(sizes, medians):
            metrics[f"chain_s.{n}"] = m
        metrics["scaling_exponent"] = slope([math.log(n) for n in sizes],
                                             [math.log(m) for m in medians])
    return metrics, notes


def percentile(values: list[float], q: float) -> float:
    """Nearest rank: the smallest sample with at least a share q of samples at or below it."""
    return sorted(values)[math.ceil(q * len(values)) - 1]


def slope(xs, ys) -> float:
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def measure_traced(workload, seconds: float, gates: Gates, spans_path: Path) -> tuple[dict, dict]:
    tracer = Tracer()
    self_total = [0.0] * len(NAMES)
    plain_wall = traced_wall = 0.0
    first_calls = first_oks = first_infos = None
    start, p = time.perf_counter(), 0
    while p == 0 or time.perf_counter() - start < seconds:
        xs = workload.first if p == 0 else workload.inputs(p)
        gc.collect()
        dt, plain = run_pass(workload, xs, no_span)
        plain_wall += dt
        gc.collect()
        tracer.reset()
        tracer.install()
        try:
            dt, traced = run_pass(workload, xs, tracer.span)
        finally:
            tracer.uninstall()
        traced_wall += dt
        for i, s in enumerate(tracer.self_times()):
            self_total[i] += s
        gates.check(plain)
        gates.check(traced)
        # traced and untraced outputs must agree item by item
        for a, b in zip(plain, traced):
            if a[2] != b[2]:
                gates.failed += 1
        if p == 0:
            first_calls, first_oks = list(tracer.calls), list(tracer.oks)
            first_infos = [r[3] for r in traced]
        p += 1
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_path)

    metrics = {}
    index = {name: i for i, name in enumerate(NAMES)}
    for name, i in index.items():
        if name == "item":
            continue
        metrics[f"{name}.calls"] = first_calls[i]
        metrics[f"{name}.self_s"] = self_total[i] / p
        if name in OK_RATIO:
            metrics[f"{name}.ok_ratio"] = first_oks[i] / first_calls[i] if first_calls[i] else 0.0
    for layer in LAYERS:
        members = [n for n in NAMES if n.startswith(layer + ".")]
        metrics[f"{layer}.calls"] = sum(first_calls[index[n]] for n in members)
        metrics[f"{layer}.self_s"] = sum(self_total[index[n]] for n in members) / p
    # every span nests inside an item span, so the self times add up to the item time
    metrics["item.total_s"] = sum(self_total) / p
    metrics["decompose.tree_nodes"] = sum(info.get("tree_nodes", 0) for info in first_infos)
    metrics["decompose.tree_depth"] = max((info.get("tree_depth", 0) for info in first_infos),
                                          default=0)
    metrics["trace_overhead_frac"] = traced_wall / plain_wall - 1
    return metrics, {"passes": p, "spans": str(spans_path.relative_to(ROOT))}


def roles(workload: str, m: dict) -> list[dict]:
    """The traced run's check of the role each workload is meant to play.

    Each role has a measured value and whether it is met.  The zero-call
    roles gate the run: an unmet one makes the result incorrect.  The
    share of ``build`` time is a timing and is only reported, since a
    faster ``build`` may rightly lower it.
    """
    searches = sum(m[f"build.{f}.calls"] for f in
                   ("random_admissible", "find_vertex_folds", "find_edge_folds", "find_handles"))

    def never(text, calls):
        return {"role": text, "value": calls, "met": calls == 0, "gates": True}

    out = []
    if workload == "construct":
        share = m["build.self_s"] / m["item.total_s"]
        out.append({"role": "build self time is most of the item time",
                    "value": round(share, 3), "met": share > 0.5, "gates": False})
        out.append(never("verify is never called", m["verify.calls"]))
    else:
        out.append(never("fold searches are never called in the timed phase", searches))
    if workload in ("construct", "inspect"):
        out.append(never("decompose.decompose is never called", m["decompose.decompose.calls"]))
    return out


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        code = max(code, subprocess.run(cmd).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="construct, roundtrip, chain, inspect, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result as one JSON line to this file")
    args = parser.parse_args(argv)

    if not (SRC / "psf" / "__init__.py").is_file():
        print(f"no psf sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        reference()  # warm up
        setup_times, setup_refs = [], []
        while not setup_times or not args.trace and (
                len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS):
            workload = None
            gc.collect()
            time_reference(setup_refs)
            t0 = time.perf_counter()
            lib = import_psf()
            workload = WORKLOADS[args.workload](lib, args.seed, workdir)
            setup_times.append(time.perf_counter() - t0)
        time_reference(setup_refs)
        gates = Gates(workload)
        if args.trace:
            spans = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, notes = measure_traced(workload, args.seconds, gates, spans)
            listed = spec["per_layer"]
        else:
            metrics, notes = measure(workload, args.seconds, gates)
            metrics["setup_s_plain"] = statistics.median(setup_times)
            metrics["setup_s"] = metrics["setup_s_plain"] * host_scale(setup_refs)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            listed = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    units = {m["name"]: (m["unit"], m["better"]) for m in listed}
    if not args.trace:
        units.update({k: v[:2] for k, v in EXTRA_END_TO_END.items()})
    env = environment()
    print(f"psf benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, {'traced' if args.trace else 'untraced'}")
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"digest: sha256:{gates.digest} over {len(gates.first)} pass-0 items")
    print("notes: " + ", ".join(f"{k}={v}" for k, v in notes.items()))
    for name in sorted(metrics):
        if name in units:
            unit, better = units[name]
            print(f"  {name:<46} {metrics[name]:>14.6g} {unit:<6} {better}")
    role_list = roles(args.workload, metrics) if args.trace else []
    broken = [r for r in role_list if r["gates"] and not r["met"]]
    for r in role_list:
        print(f"role: {r['role']} ({r['value']}): {'met' if r['met'] else 'NOT MET'}")
    for r in broken:
        print(f"role of {args.workload} broken: {r['role']} ({r['value']})", file=sys.stderr)

    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": env, "digest": gates.digest,
            "attempted": gates.attempted, "failed": gates.failed, "notes": notes,
            "metrics": {k: {"value": v, "unit": units[k][0]}
                        for k, v in sorted(metrics.items()) if k in units},
            "roles": role_list,
        }
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a") as out:
            out.write(json.dumps(record) + "\n")

    result = {
        "correct": gates.failed == 0 and not broken,
        "attempted": gates.attempted,
        "failed": gates.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
