#!/usr/bin/env python3
"""Large randomized identity sweep with its total run time.

Runs the same checks as `psf verify-identities` but at a configurable
scale, and prints the total wall-clock time and the time per script,
which is handy when tuning the generators.
"""

import argparse
import time

from psf.cli import at_least_one
from psf.identities import run_identity_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scripts", type=at_least_one, default=500)
    parser.add_argument("--ops", type=at_least_one, default=12)
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--deep-every", type=at_least_one, default=10,
                        help="full normality/oracle checks every n-th script")
    args = parser.parse_args()

    start = time.monotonic()
    report = run_identity_suite(
        scripts=args.scripts,
        max_ops=args.ops,
        base_seed=args.base_seed,
        deep_every=args.deep_every,
    )
    elapsed = time.monotonic() - start

    for line in report.summary_lines():
        print(line)
    for failure in report.failures:
        print("FAIL:", failure)
    total = sum(report.checked.values())
    print(f"{total} checks over {args.scripts} scripts in {elapsed:.1f}s "
          f"({1000 * elapsed / args.scripts:.1f} ms/script)")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
