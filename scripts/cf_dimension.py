#!/usr/bin/env python3
"""Dimension of the continued-fraction set with digits {1, ..., n}.

Two routes to the same number: the certified word-pressure bracket at a fixed
cylinder depth, with the Chebyshev-collocation root inside it, and the
cylinder transfer-operator root across context lengths.  The operator
route converges much faster per unit of work than the word bracket because
the eigenvalue sees the variation-refined weights, not just midpoint masses.
"""

import argparse
import time

from ifsdim.cli import ENTRY_BUDGET
from ifsdim.pressure import bowen_solve
from ifsdim.symbolic import count_admissible
from ifsdim.systems import continued_fraction_system
from ifsdim.transfer import build_operator, operator_bowen_solve


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--digits", type=int, default=2, help="alphabet size n")
    parser.add_argument("--word-depth", type=int, default=12)
    parser.add_argument("--max-context", type=int, default=8)
    args = parser.parse_args()

    system = continued_fraction_system(args.digits)

    t0 = time.perf_counter()
    word = bowen_solve(system, depth=args.word_depth)
    t_word = time.perf_counter() - t0
    print(
        f"word pressure, depth {word.depth}: h in "
        f"[{word.bracket[0]:.10f}, {word.bracket[1]:.10f}]"
        f"  (collocation root {word.h:.15f}, gap {word.gap:.2e},"
        f" {word.iterations} evaluations, {t_word:.3f}s)"
    )

    print(f"{'context':>8} {'operator root':>16} {'evals':>6} {'seconds':>8}")
    for k in range(1, args.max_context + 1):
        if count_admissible(system.incidence, k + 2) > ENTRY_BUDGET:  # two-step operator paths
            break
        t0 = time.perf_counter()
        sol = operator_bowen_solve(build_operator(system, k))
        dt = time.perf_counter() - t0
        print(f"{k:>8} {sol.h:>16.12f} {sol.iterations:>6} {dt:>8.2f}")


if __name__ == "__main__":
    main()
