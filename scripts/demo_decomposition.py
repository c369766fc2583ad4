#!/usr/bin/env python3
"""Build folded instances, decompose them, and write all artifacts.

Produces, under the output directory: the facet file of each instance,
its decomposition tree JSON, and a summary table with the fold
counters and the 6m + 10n + base accounting.  Each round trip is verified
exactly before its files are written; one that fails exits 1.
"""

import argparse
import sys
from pathlib import Path

from psf import g2, g3
from psf.buildscript import dump_script
from psf.corpus import edge_folded_instance, suspension_instance, vertex_folded_instance
from psf.decompose import MODE_EDGE, MODE_ONE, MODE_SUSPENSION, decompose, rebuild
from psf.fileio import format_complex
from psf.verify import singular_vertices


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--out", default="demo_out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    instances = [
        ("one-vertex-fold", vertex_folded_instance(args.seed + 1, folds=1, sums=2), MODE_ONE),
        ("two-vertex-folds", vertex_folded_instance(args.seed + 2, folds=2), MODE_ONE),
        ("one-edge-fold", edge_folded_instance(args.seed + 3), MODE_EDGE),
        ("mixed-folds", edge_folded_instance(args.seed + 4, edge_folds=1, vertex_folds=1), MODE_EDGE),
        ("suspension", suspension_instance(args.seed + 5, extra_vertex_folds=1), MODE_SUSPENSION),
    ]

    rows = []
    for name, record, mode in instances:
        k, t = record.complex, record.tracked
        tree = decompose(k, t, mode=mode)
        if rebuild(tree) != k:
            print(f"{name}: the decomposition tree does not rebuild the complex", file=sys.stderr)
            return 1
        (out / f"{name}.facets").write_text(format_complex(k))
        (out / f"{name}.tree.json").write_text(dump_script(tree.to_dict()))
        rows.append((name, len(k.vertices), g2(k), g3(k),
                     len(singular_vertices(k)), *tree.g2_accounting()))

    header = (f"{'instance':<18} {'f0':>4} {'g2':>4} {'g3':>4} {'sing':>5}"
              f" {'m':>3} {'n':>3} {'base':>5} {'total':>6}")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row[0]:<18} {row[1]:>4} {row[2]:>4} {row[3]:>4} {row[4]:>5}"
              f" {row[5]:>3} {row[6]:>3} {row[7]:>5} {row[8]:>6}")
    print(f"\nartifacts written to {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
