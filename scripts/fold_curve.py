#!/usr/bin/env python3
"""Build and decomposition time and peak memory of many-fold instances
against the number of folds F.

For each F given on the command line this times
``vertex_folded_instance(3, folds=F)``,
``edge_folded_instance(3, edge_folds=F)`` and
``suspension_instance(3, extra_vertex_folds=F)``, each built in a fresh
child process so that no cache or warm allocator carries over between
points, and then ``decompose`` on the result at its tracked vertex, in
``MODE_ONE`` for vertex folds, ``MODE_EDGE`` for edge folds and
``MODE_SUSPENSION`` for suspensions.  Each
point runs in three fresh children, and the minimum of each time is
kept: one run cannot tell a change from the spread of a shared host,
and the minimum is the run least disturbed by it.  The children run in
three rounds over all points rather than three in a row per point, so
that one busy stretch of the host slows one run of several points
instead of every run of one.  It prints one JSON line per point, each
as its last round ends:

    python scripts/fold_curve.py 1 2 4 8 12 16

Each line holds the fold kind, F, the seed, the minimum build and
decomposition time in seconds over the three children
(``time.perf_counter`` around each, inside the child), the facet count
of the result, the number of GF(2) link ranks (``_normal_betti``
calls) the decomposition made, ``peak_rss_mb``, the largest peak
resident set size in MB of the three children (each child's own
``ru_maxrss``, read after its decomposition, in KiB on Linux), and
``script_sha256``, the sha256 of the instance's build script as
``dump_script`` writes it.  The facet count, the rank count and the digest
must be the same in all three children, so two checkouts whose curves
agree on ``script_sha256`` at every F built the same instances.  The
children import ``psf`` from this checkout's ``src/``, and inherit the
environment, so ``PSF_DEBUG_VERIFY=1`` runs every debug oracle on
these instances.
"""

import argparse
import json
import os
import subprocess
import sys

SEED = 3
RUNS = 3
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

CHILD = """
import hashlib, importlib, json, resource, sys, time
from psf.buildscript import dump_script
from psf.corpus import edge_folded_instance, suspension_instance, vertex_folded_instance
from psf.decompose import MODE_EDGE, MODE_ONE, MODE_SUSPENSION, decompose
kind, folds, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
start = time.perf_counter()
if kind == "vertex":
    record, mode = vertex_folded_instance(seed, folds=folds), MODE_ONE
elif kind == "edge":
    record, mode = edge_folded_instance(seed, edge_folds=folds), MODE_EDGE
else:
    record, mode = suspension_instance(seed, extra_vertex_folds=folds), MODE_SUSPENSION
ranks = [0]
def counted(link, rank=importlib.import_module("psf.verify")._normal_betti):
    ranks[0] += 1
    return rank(link)
for name in ("psf.verify", "psf.decompose"):
    module = importlib.import_module(name)
    if hasattr(module, "_normal_betti"):
        module._normal_betti = counted
built = time.perf_counter()
decompose(record.complex, record.tracked, mode)
done = time.perf_counter()
script_sha256 = hashlib.sha256(dump_script(record.script).encode()).hexdigest()
print(json.dumps({"kind": kind, "folds": folds, "seed": seed, "build_s": round(built - start, 4),
                  "decompose_s": round(done - built, 4),
                  "facets": len(record.complex.maximal_faces), "normal_betti_calls": ranks[0],
                  "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
                  "script_sha256": script_sha256}))
"""

KINDS = ("vertex", "edge", "suspension")


def child(kind: str, folds: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", CHILD, kind, str(folds), str(SEED)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def points(folds: list[int]):
    """Each (F, kind) point in order, run in ``RUNS`` rounds over all of
    them; a point is yielded as soon as its last round has run."""
    order = [(kind, f) for f in folds for kind in KINDS]
    runs = {key: [] for key in order}
    for round_ in range(RUNS):
        for key in order:
            runs[key].append(child(*key))
            if round_ == RUNS - 1:
                yield merged(*key, runs[key])


def merged(kind: str, folds: int, runs: list[dict]) -> dict:
    """The point with the minimum times and the maximum peak over its
    children, which must agree on the facet count, the rank count and the
    script digest."""
    for key in ("facets", "normal_betti_calls", "script_sha256"):
        seen = {run[key] for run in runs}
        if len(seen) != 1:
            raise RuntimeError(f"{kind} F = {folds}: {key} {sorted(seen)} differ between runs")
    return {**runs[0], **{key: min(run[key] for run in runs) for key in ("build_s", "decompose_s")},
            "peak_rss_mb": max(run["peak_rss_mb"] for run in runs)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("folds", type=int, nargs="+", help="numbers of folds F (each >= 1)")
    args = parser.parse_args()
    if min(args.folds) < 1:
        parser.error("every F must be at least 1")
    for point in points(args.folds):
        print(json.dumps(point), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
