#!/usr/bin/env python3
"""Perf-smoke gate over bench_micro_solvers / bench_planner JSON.

Three independent checks, each with an explicit tolerance:

1. Regression gate (needs --baseline): for every row family present in
   both files, the current single-thread wall time must not exceed
   --max-ratio (default 1.1) times the baseline single-thread wall time.
   Rows faster than --min-ms in the baseline are skipped -- sub-half-
   millisecond kernels are dominated by timer noise, not by the code
   under test.

2. Scaling gate: the parallel-scalable preconditioner families
   (cg_solve_ic0-level, cg_solve_chebyshev) must not be slower at the
   highest measured thread count <= os.cpu_count() than at one thread by
   more than --scaling-max-ratio (default 1.1). More threads than cores
   measure oversubscription overhead, not scaling, so a family with no
   such count above 1 is skipped with a printed reason unless
   --require-scaling lifts the core cap. A family whose 1-thread row is
   below --min-ms is skipped with a printed reason too: below that floor
   pool dispatch, not the kernel, sets the multi-thread time.

3. Planner speedup gate (needs --planner-min-speedup): over a
   bench_planner file, the single-thread planner_incremental wall time at
   the LARGEST recorded grid size must beat planner_full by at least the
   given factor (the checked-in BENCH_planner.json is gated at 2.0).
   When this gate is requested the solver scaling gate is skipped --
   planner files carry no kernel families.

Usage:
    tools/perf_smoke.py CURRENT.json [--baseline BENCH_solvers.json]
                        [--max-ratio 1.1] [--scaling-max-ratio 1.1]
                        [--min-ms 0.5] [--require-scaling]
    tools/perf_smoke.py BENCH_planner.json --planner-min-speedup 2.0

Exit code 0 when every applicable gate passes; 1 with one line per
violation otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

SCALABLE_FAMILIES = ("cg_solve_ic0-level", "cg_solve_chebyshev")
PLANNER_FAMILIES = ("planner_full", "planner_incremental")


def load_rows(path: pathlib.Path) -> dict:
    """Index records as {(name, threads, size): wall_ms}."""
    records = json.loads(path.read_text())
    rows = {}
    for rec in records:
        rows[(rec["name"], rec["threads"], rec["size"])] = rec["wall_ms"]
    return rows


def check_regression(
    current: dict, baseline: dict, max_ratio: float, min_ms: float, errors: list
) -> int:
    checked = 0
    for (name, threads, size), base_ms in sorted(baseline.items()):
        if threads != 1:
            continue
        cur_ms = current.get((name, 1, size))
        if cur_ms is None:
            errors.append(
                f"regression: row ('{name}', size {size}) missing from current"
            )
            continue
        if base_ms < min_ms:
            continue  # timer-noise regime; ratio is meaningless
        checked += 1
        if cur_ms > max_ratio * base_ms:
            errors.append(
                f"regression: {name} single-thread {cur_ms:.3f} ms > "
                f"{max_ratio:.2f}x baseline {base_ms:.3f} ms"
            )
    return checked


def check_scaling(
    current: dict, max_ratio: float, min_ms: float, max_threads: int,
    errors: list
) -> int:
    checked = 0
    for family in SCALABLE_FAMILIES:
        rows = {
            (t, s): ms for (name, t, s), ms in current.items() if name == family
        }
        if not rows:
            errors.append(f"scaling: family '{family}' missing from current")
            continue
        size = next(iter(rows))[1]
        one = rows.get((1, size))
        if one is None:
            errors.append(f"scaling: family '{family}' has no 1-thread row")
            continue
        # More threads than cores measures oversubscription, not scaling.
        counts = [t for (t, s) in rows if s == size and 1 < t <= max_threads]
        if not counts:
            print(f"skip scaling: {family} has no row above 1 thread "
                  f"within {max_threads} core(s)")
            continue
        if one < min_ms:
            print(f"skip scaling: {family} 1-thread {one:.3f} ms is below "
                  f"the {min_ms:g} ms floor that amortizes pool dispatch")
            continue
        top = max(counts)
        checked += 1
        if rows[(top, size)] > max_ratio * one:
            errors.append(
                f"scaling: {family} at {top} threads "
                f"{rows[(top, size)]:.3f} ms > {max_ratio:.2f}x "
                f"1-thread {one:.3f} ms"
            )
    return checked


def check_planner_speedup(
    current: dict, min_speedup: float, errors: list
) -> int:
    """Gate planner_full / planner_incremental at the largest grid size."""
    sizes = sorted(
        s for (name, t, s) in current if name in PLANNER_FAMILIES and t == 1
    )
    if not sizes:
        errors.append("planner: no single-thread planner_* rows found")
        return 0
    size = sizes[-1]
    full = current.get(("planner_full", 1, size))
    inc = current.get(("planner_incremental", 1, size))
    if full is None or inc is None:
        errors.append(
            f"planner: size {size} lacks a planner_full/planner_incremental "
            f"single-thread pair"
        )
        return 0
    speedup = full / inc if inc > 0.0 else float("inf")
    if speedup < min_speedup:
        errors.append(
            f"planner: incremental speedup {speedup:.2f}x at size {size} "
            f"({full:.3f} ms -> {inc:.3f} ms) below required "
            f"{min_speedup:.2f}x"
        )
    else:
        print(
            f"planner: incremental speedup {speedup:.2f}x at size {size} "
            f"({full:.3f} ms -> {inc:.3f} ms)"
        )
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=pathlib.Path)
    parser.add_argument("--baseline", type=pathlib.Path, default=None)
    parser.add_argument("--max-ratio", type=float, default=1.1)
    parser.add_argument("--scaling-max-ratio", type=float, default=1.1)
    parser.add_argument("--min-ms", type=float, default=0.5)
    parser.add_argument("--require-scaling", action="store_true")
    parser.add_argument("--planner-min-speedup", type=float, default=None)
    args = parser.parse_args()

    try:
        current = load_rows(args.current)
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as e:
        print(f"error: cannot read {args.current}: {e}", file=sys.stderr)
        return 1

    errors: list = []
    regression_checked = 0
    if args.baseline is not None:
        try:
            baseline = load_rows(args.baseline)
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as e:
            print(f"error: cannot read {args.baseline}: {e}", file=sys.stderr)
            return 1
        regression_checked = check_regression(
            current, baseline, args.max_ratio, args.min_ms, errors
        )

    cores = os.cpu_count() or 1
    scaling_checked = 0
    planner_checked = 0
    if args.planner_min_speedup is not None:
        planner_checked = check_planner_speedup(
            current, args.planner_min_speedup, errors
        )
    else:
        max_threads = sys.maxsize if args.require_scaling else cores
        scaling_checked = check_scaling(
            current, args.scaling_max_ratio, args.min_ms, max_threads, errors
        )

    if errors:
        for line in errors:
            print(f"FAIL {line}", file=sys.stderr)
        return 1
    print(
        f"OK {args.current}: regression rows checked={regression_checked} "
        f"scaling families checked={scaling_checked} "
        f"planner gates checked={planner_checked}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
