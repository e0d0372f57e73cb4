#!/usr/bin/env python3
"""End-to-end respin benchmark: Table IV timings, accuracy and layer traces.

Builds ppdl_bench and the library (Release) from this directory's CMake
project into .bench_build/e2e at the repository root, runs it, and reports
every metric BENCHMARK.json names, with its unit, sample count, gated value,
median and the highest percentile that has at least ten samples beyond it.

  python3 bench/e2e/run.py                      every workload, one run each
  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
                                                one run; the last stdout line
                                                is the JSON result
  python3 bench/e2e/run.py --smoke              scale 0.02, 3 episodes each
  python3 bench/e2e/run.py repeat --sets N      N sets of every workload, then
                                                each metric's spread vs bound
  python3 bench/e2e/run.py --self-test          unit tests of this runner

--trace 1 replays every episode's calls under spans and reports the
per-layer metrics instead of the end-to-end ones. Exit status: 0 when every
correctness check passed, 1 when one failed, 2 when the benchmark could not
be built or run. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "ppdl_bench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Candidate tail percentiles, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

# Span-derived per-layer metrics: name -> (span name, parent composite or
# None for a top-level probe). One sample per composite instance (each
# set-up, each episode's composite) or, for probes, per episode.
SPAN_METRICS = {
    "core.make_benchmark_s": ("core.make_benchmark", "setup"),
    "core.golden_s": ("core.golden", "setup"),
    "core.fit_s": ("core.fit", "setup"),
    "core.calibrate_s": ("core.calibrate", "setup"),
    "grid.validate_s": ("grid.validate", "conv_iter"),
    "analysis.assemble_s": ("analysis.assemble", "conv_iter"),
    "linalg.precond_setup_s": ("linalg.precond_setup", "conv_iter"),
    "linalg.cg_s": ("linalg.cg", "conv_iter"),
    "analysis.finalize_s": ("analysis.finalize", "conv_iter"),
    "planner.update_s": ("planner.update", "conv_iter"),
    "analysis.resolve_cold_s": ("analysis.resolve_cold", "resolve"),
    "analysis.resolve_s": ("analysis.resolve", "resolve"),
    "linalg.nd_order_s": ("linalg.nd_order", None),
    "linalg.cholesky_s": ("linalg.cholesky", None),
    "core.predict_s": ("core.predict", "dl"),
    "core.apply_widths_s": ("core.apply_widths", "dl"),
    "core.kirchhoff_eval_s": ("core.kirchhoff_eval", "dl"),
    "core.features_s": ("core.features", None),
    "nn.forward_s": ("nn.forward", None),
    "core.kirchhoff_build_s": ("core.kirchhoff_build", None),
}
# Probes that repeat one call `reps` times inside their span: per-call µs.
PER_CALL_US = {
    "linalg.spmv_us": "linalg.spmv",
    "common.dispatch_us": "common.dispatch",
}
# Composite spans: their children plus "<name>.unattributed_s" make up the
# composite's total.
COMPOSITES = ("setup", "conv_iter", "resolve", "dl")
# Per-layer counts taken from ppdl_bench's per-episode records: name ->
# (record key, aggregate).
EPISODE_COUNTS = {
    "analysis.cg_iterations": ("cg_iterations", statistics.median),
    "robust.escalations": ("escalations", sum),
    "planner.iterations": ("planner_iterations", statistics.median),
    "planner.resolve.hit": ("resolve_hit", statistics.median),
    "planner.resolve.low_rank": ("resolve_low_rank", statistics.median),
    "planner.resolve.patch": ("resolve_patch", statistics.median),
    "planner.resolve.fallback": ("resolve_fallback", statistics.median),
}
EPISODE_METRICS = ("conv_iter_s", "redesign_s", "dl_s", "worst_ir_err_pct",
                   "width_mse_pct")
# Gated on the run's fastest episode; the report still prints their median
# and tail. On a shared 4-vCPU VM, slow phases lasting seconds move a 10 s
# run's median by 5-17 % from run to run but its minimum by 3-5 %.
FASTEST = ("conv_iter_s", "redesign_s", "dl_s")


class BenchError(Exception):
    """The benchmark could not be built or run."""


# --- statistics ----------------------------------------------------------------


def tail_percentile(samples):
    """(p, value) for the highest of PERCENTILES with at least ten samples
    beyond its nearest-rank position, or None when too few samples."""
    xs = sorted(samples)
    n = len(xs)
    for p in PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return p, xs[rank - 1]
    return None


def regressed(parent, current, bound, better):
    """True when `current` is worse than `parent` by more than `bound`, a
    share of `parent`."""
    if better == "lower":
        return current > parent * (1.0 + bound)
    return current < parent * (1.0 - bound)


def spread(values):
    """Run-to-run spread as a share of the median: the interquartile
    distance (statistics.quantiles, n=4) from four values up, the range
    below that."""
    med = statistics.median(values)
    if med == 0:
        return 0.0
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / abs(med)
    return (max(values) - min(values)) / abs(med)


# --- spans ---------------------------------------------------------------------


def union_ns(intervals):
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def annotate_spans(spans):
    """Adds dur_ns, self_ns (duration minus the union of its children's
    intervals clipped to it) and children_ns (plain sum) to every span."""
    by_id = {s["id"]: s for s in spans}
    children = {s["id"]: [] for s in spans}
    for s in spans:
        if s["parent"] in children:
            children[s["parent"]].append(s)
    for s in spans:
        s["dur_ns"] = s["end_ns"] - s["start_ns"]
        clipped = [(max(c["start_ns"], s["start_ns"]), min(c["end_ns"], s["end_ns"]))
                   for c in children[s["id"]]]
        covered = union_ns([iv for iv in clipped if iv[1] > iv[0]])
        s["self_ns"] = s["dur_ns"] - covered
        s["children_ns"] = sum(c["end_ns"] - c["start_ns"] for c in children[s["id"]])
        s["parent_name"] = by_id[s["parent"]]["name"] if s["parent"] in by_id else None
    return spans


def composites_consistent(spans):
    """Every composite's children plus its unattributed remainder equal its
    total (children never overlap and stay inside their parent)."""
    return all(s["children_ns"] + s["self_ns"] == s["dur_ns"]
               for s in spans if s["name"] in COMPOSITES)


def span_samples(spans, name, parent):
    """Seconds per group: summed per parent instance, or per episode for a
    top-level probe."""
    groups = {}
    for s in spans:
        if s["name"] != name or s["parent_name"] != parent:
            continue
        key = s["parent"] if parent is not None else s["episode"]
        groups[key] = groups.get(key, 0) + s["dur_ns"]
    return [v / 1e9 for v in groups.values()]


def per_episode_ns(spans, name):
    return {s["episode"]: s["dur_ns"] for s in spans if s["name"] == name}


# --- metrics -------------------------------------------------------------------


def end_to_end_samples(result):
    episodes = result["episodes"]
    samples = {"setup_s": [s["setup_s"] for s in result["setups"]]}
    for key in EPISODE_METRICS:
        samples[key] = [e[key] for e in episodes if e.get(key) is not None]
    samples["peak_rss_mib"] = [result["peak_rss_mib"]]
    return samples


def per_layer_samples(result, spans):
    episodes = [e for e in result["episodes"] if "cg_iterations" in e]
    samples = {}
    for metric, (name, parent) in SPAN_METRICS.items():
        samples[metric] = span_samples(spans, name, parent)
    for metric, name in PER_CALL_US.items():
        samples[metric] = [s["dur_ns"] / s["reps"] / 1e3
                           for s in spans if s["name"] == name]
    for name in COMPOSITES:
        samples[f"{name}.unattributed_s"] = [
            s["self_ns"] / 1e9 for s in spans if s["name"] == name]
    samples["conv_iter.unattributed_pct"] = [
        100.0 * s["self_ns"] / s["dur_ns"]
        for s in spans if s["name"] == "conv_iter" and s["dur_ns"] > 0]
    samples["nn.epochs"] = [s["epochs"] for s in result["setups"]]

    cg_ns = {}
    for s in spans:
        if s["name"] == "linalg.cg":
            cg_ns[s["episode"]] = cg_ns.get(s["episode"], 0) + s["dur_ns"]
    samples["linalg.cg_iter_us"] = [
        cg_ns[e["id"]] / 1e3 / e["cg_iterations"]
        for e in episodes if e["id"] in cg_ns and e["cg_iterations"] > 0]

    # Traced composites vs the untraced timings of the same episodes.
    conv = per_episode_ns(spans, "conv_iter")
    dl = per_episode_ns(spans, "dl")
    traced = [(conv[e["id"]] + dl[e["id"]]) / 1e9
              for e in episodes if e["id"] in conv and e["id"] in dl]
    untraced = [e["conv_iter_s"] + e["dl_s"] for e in episodes]
    samples["trace_overhead_pct"] = (
        [100.0 * (statistics.median(traced) - statistics.median(untraced))
         / statistics.median(untraced)] if traced and untraced else [])
    # Counts are one value per run.
    for metric, (key, aggregate) in EPISODE_COUNTS.items():
        samples[metric] = [aggregate([e[key] for e in episodes])] if episodes else []
    return samples


def metric_values(defs, samples):
    """{name: {"value", "median", "unit", "n", "tail"}} for every defined
    metric; "value" is the gated one."""
    out = {}
    for d in defs:
        name = d["name"]
        xs = samples.get(name, [])
        median = statistics.median(xs) if xs else 0.0
        out[name] = {
            "value": min(xs) if xs and name in FASTEST else median,
            "median": median,
            "unit": d["unit"],
            "n": len(xs),
            "tail": tail_percentile(xs) if len(xs) > 1 else None,
        }
    return out


# --- processes -----------------------------------------------------------------


def run_process(cmd, timeout):
    """Runs `cmd` in its own process group, capturing output; on timeout or
    interruption kills the whole group and waits for it."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return proc.returncode, out, err


def tail_lines(text, n=30):
    return "\n".join(text.strip().splitlines()[-n:])


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no PowerPlanningDL source tree at {ROOT}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "ppdl_bench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            code, out, err = run_process(cmd, max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"build timed out after {BUILD_TIMEOUT_S} s") from None
        except OSError as e:
            raise BenchError(f"cannot run {cmd[0]}: {e}") from None
        if code != 0:
            raise BenchError("build failed:\n" + tail_lines(out + err))


def run_bench(workload, seed, seconds, trace, smoke):
    """One ppdl_bench run: (result, spans or None, wall seconds)."""
    trace_file = BUILD / f"trace-{workload}-{os.getpid()}.jsonl"
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}"]
    if trace:
        cmd.append(f"--trace={trace_file}")
    if smoke:
        cmd.append("--smoke")
    start = time.monotonic()
    try:
        code, out, err = run_process(cmd, RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s") from None
    wall = time.monotonic() - start
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise BenchError(f"{workload}: ppdl_bench exited {code}:\n" + tail_lines(err))
    try:
        result = json.loads(lines[-1])
        spans = None
        if trace:
            spans = annotate_spans([json.loads(line) for line in
                                    trace_file.read_text().splitlines()])
            trace_file.unlink()
    except (OSError, ValueError) as e:
        raise BenchError(f"{workload}: unreadable ppdl_bench output: {e}") from None
    return result, spans, wall


def git_head():
    # A checkout without .git must not pick up an enclosing repository.
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        code, out, _ = run_process(["git", "-C", str(ROOT), "rev-parse", "HEAD"], 30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.strip() if code == 0 else "unknown"


# --- reporting -----------------------------------------------------------------


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_metrics(title, values):
    print(f"  {title}")
    print(f"    {'metric':30s} {'unit':6s} {'n':>5s} {'value':>12s} {'median':>12s}  tail")
    for name, m in values.items():
        tail = m["tail"]
        tail_text = f"p{tail[0]:g} = {fmt(tail[1])}" if tail else "- (under 11 samples)"
        print(f"    {name:30s} {m['unit']:6s} {m['n']:5d} {fmt(m['value']):>12s} "
              f"{fmt(m['median']):>12s}  {tail_text}")


def print_composites(spans):
    print("  composites (median over instances; children + unattributed = total)")
    for comp in COMPOSITES:
        instances = [s for s in spans if s["name"] == comp]
        if not instances:
            continue
        total = statistics.median(s["dur_ns"] for s in instances) / 1e9
        print(f"    {comp:30s} total {total:.6g} s")
        names = []
        for s in spans:
            if s["parent_name"] == comp and s["name"] not in names:
                names.append(s["name"])
        for name in names:
            med = statistics.median(span_samples(spans, name, comp))
            print(f"      {name:28s} {med:.6g} s  ({100 * med / total:.1f} %)")
        unattr = statistics.median(s["self_ns"] for s in instances) / 1e9
        print(f"      {'(unattributed)':28s} {unattr:.6g} s  ({100 * unattr / total:.1f} %)")


def report_run(spec, workload, seed, result, spans, wall, head):
    info = result["info"]
    episodes = result["episodes"]
    failures = [e for e in episodes if not e["ok"]]
    oversubscribed = info["threads"] > info["nproc"]
    print(f"== {workload}  seed {seed}  ({info['circuit']} @ scale {info['scale']:g}: "
          f"{info['nodes']} nodes, {info['wires']} wires)")
    print(f"  threads {info['threads']}"
          f"{' (OVERSUBSCRIBED)' if oversubscribed else ''} | nproc {info['nproc']} | "
          f"compiler {info['compiler']} | build {info['build_type']} | git {head} | "
          f"wall {wall:.1f} s (episodes {info['measured_s']:.1f} s)")
    print(f"  episodes attempted {len(episodes)}, failed {len(failures)} "
          f"(fail_frac {len(failures) / max(1, len(episodes)):.3g})")
    for e in failures:
        print(f"    episode {e['id']} FAILED: {e['why']}")
    if spans is None:
        values = metric_values(spec["end_to_end"], end_to_end_samples(result))
        print_metrics(f"end-to-end (value: fastest episode for {', '.join(FASTEST)}, "
                      "else median)", values)
        conv, dl = values["conv_iter_s"]["median"], values["dl_s"]["median"]
        if dl > 0:
            print(f"  derived (not gated): speedup conv_iter_s / dl_s = {conv / dl:.3g}x "
                  f"(medians) at {info['threads']} thread(s) on {info['nproc']} cores")
    else:
        values = metric_values(spec["per_layer"], per_layer_samples(result, spans))
        print_metrics("per-layer (traced run)", values)
        print_composites(spans)
    correct = not failures and bool(episodes)
    if spans is not None and not composites_consistent(spans):
        print("  TRACE INCONSISTENT: a composite's children overlap or escape it")
        correct = False
    return values, correct, len(episodes), len(failures)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from None


def one_run(spec, workload, seed, seconds, trace, smoke, head):
    result, spans, wall = run_bench(workload, seed, seconds, trace, smoke)
    return report_run(spec, workload, seed, result, spans, wall, head)


def repeat(spec, sets, seconds, workloads, head):
    """Runs `sets` full sets (set i uses seed i) and prints each end-to-end
    metric's spread, and the drift between the medians of the first and
    second half of the sets, against its bound."""
    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
    all_correct = True
    for i in range(1, sets + 1):
        for w in workloads:
            run_values, correct, _, _ = one_run(spec, w, i, seconds, False, False, head)
            all_correct &= correct
            for name, m in run_values.items():
                values[w][name].append(m["value"])
    half = sets // 2
    print(f"\n== {sets} sets: spread is IQR/median from 4 sets up, else range/median; "
          "drift is the second half's median against the first's")
    print(f"  {'workload':18s} {'metric':18s} {'median':>12s} {'spread':>8s} "
          f"{'drift':>8s} {'bound':>6s}  status")
    holds = True
    for w in workloads:
        for m in spec["end_to_end"]:
            xs = values[w][m["name"]]
            s = spread(xs)
            first, second = statistics.median(xs[:half] or xs), statistics.median(xs[half:])
            apart = (regressed(first, second, m["bound"], m["better"])
                     or regressed(second, first, m["bound"], m["better"]))
            # setup_s is gated on its median only; its spread is informative.
            wide = s > m["bound"] and m["name"] != "setup_s"
            holds &= not (apart or wide)
            status = ("OVER" if apart or wide else
                      "ok" if s <= m["bound"] / 3 else "ok (spread over bound/3)")
            print(f"  {w:18s} {m['name']:18s} {fmt(statistics.median(xs)):>12s} "
                  f"{100 * s:7.2f}% {100 * (second - first) / first:+7.2f}% "
                  f"{100 * m['bound']:5.0f}%  {status}")
    return all_correct and holds


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", nargs="?", choices=("run", "repeat"), default="run")
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="episode time budget (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="scale 0.02, one set-up, 3 episodes")
    parser.add_argument("--sets", type=int, default=2, help="repeat: number of sets")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if args.self_test:
        import unittest

        sys.dont_write_bytecode = True
        sys.path.insert(0, str(HERE))
        suite = unittest.defaultTestLoader.loadTestsFromName("test_run")
        return 0 if unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful() else 1

    try:
        spec = load_spec()
        workloads = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in workloads:
            raise BenchError(f"unknown workload {args.workload!r}; one of {workloads}")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        build()
        head = git_head()
        if args.mode == "repeat":
            chosen = [args.workload] if args.workload else workloads
            return 0 if repeat(spec, args.sets, seconds, chosen, head) else 1
        if args.workload is None:
            ok = True
            for w in workloads:
                ok &= one_run(spec, w, args.seed, seconds, args.trace, args.smoke, head)[1]
            return 0 if ok else 1
        values, correct, attempted, failed = one_run(
            spec, args.workload, args.seed, seconds, args.trace, args.smoke, head)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
