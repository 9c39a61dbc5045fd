#!/usr/bin/env python3
"""Spine benchmark entry point.

``python3 benchmarks/spine/run.py --workload NAME --seed N --seconds S
--trace 0|1`` runs one workload and prints one JSON result as the last
line of standard output.  Without ``--workload`` it runs every workload,
each in a fresh process, and prints every metric by name with its unit;
``--selfcheck`` does that twice and compares the two sets.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SPINE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SPINE_DIR.parents[1]
SRC = REPO_ROOT / "src"
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="run this workload only, in this "
                                      "process (default: all, one fresh "
                                      "process each)")
    p.add_argument("--seed", type=int, default=7,
                   help="orders the work and picks the churn victims")
    p.add_argument("--seconds", type=float, default=None,
                   help="length of the timed phase the op list is sized "
                        "for (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: the traced run that yields per-layer metrics")
    p.add_argument("--scale", type=int, default=None,
                   help="graphs in the corpus (default 300)")
    p.add_argument("--tiny", action="store_true",
                   help="60 graphs, a few ops per kind: a smoke test")
    p.add_argument("--selfcheck", action="store_true",
                   help="run every workload twice and compare the sets "
                        "against the bounds in BENCHMARK.json")
    return p.parse_args(argv)


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def commit_id() -> str:
    """The checked-out commit, or ``unknown`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def run_workload(args, spec: dict) -> dict:
    import common
    import layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    ctx = common.Context(
        workload=args.workload, seed=args.seed,
        seconds=args.seconds or float(spec["run_seconds"]),
        scale=args.scale or (common.TINY_SCALE if args.tiny
                             else common.DEFAULT_SCALE),
        tiny=args.tiny,
    )
    workload = WORKLOADS[args.workload](ctx)
    try:
        if args.trace:
            result = layers.run_traced(workload, spec)
        else:
            result = run_untraced(workload, spec)
    finally:
        workload.close()
        ctx.cleanup()
    result["info"] = {
        "workload": ctx.workload, "seed": ctx.seed, "scale": ctx.scale,
        "seconds": ctx.seconds, "nproc": os.cpu_count(),
        "python": platform.python_version(), "commit": commit_id(),
        **result.get("info", {}),
    }
    return result


def run_untraced(workload, spec: dict) -> dict:
    """Set-up passes, the timed phase, the checks, the end-to-end
    metrics."""
    import common
    from common import KNN, READ_KINDS, SUBGRAPH

    ctx = workload.ctx
    began = time.perf_counter()
    passes = []
    for _ in range(common.SETUP_PASSES):
        workload.close()
        start = time.perf_counter()
        workload.build()
        workload.warm()
        passes.append(time.perf_counter() - start)
    ops = workload.ops()

    busy0 = workload.busy_seconds()
    timed_start = time.perf_counter()
    records, spins = workload.run_ops(
        ops, hard_cap=common.HARD_CAP_FACTOR * ctx.seconds)
    timed_end = time.perf_counter()
    # The spins are the benchmark's own CPU, not the system's.
    busy = workload.busy_seconds() - busy0 - sum(spins)
    speed = common.box_speed(spins)

    def at_reference_speed(seconds: float) -> float:
        """An op's time on the reference box: the part spent on the CPU
        scales with the box's speed, the part spent on a timer does not."""
        fixed = min(workload.timer_wait_s, seconds)
        return fixed + (seconds - fixed) * speed

    bytes_per_graph = workload.index_bytes_per_graph()

    problems = [f"{r.op.kind}: {r.error}" for r in records if r.error]
    problems += [f"not attempted: {len(ops) - len(records)} ops"] \
        if len(records) < len(ops) else []
    failed = set(i for i, r in enumerate(records) if r.error)
    oracle_cache: dict = {}
    reads = [i for i, r in enumerate(records)
             if r.op.kind in READ_KINDS and not r.error]
    stride = max(1, len(reads) // common.CHECKED_READS)
    checked = reads[ctx.seed % stride::stride]
    for i in checked:
        op = records[i].op
        mismatch = common.oracle_check(
            records[i], workload.oracle_query(op),
            workload.oracle_graphs(op), oracle_cache)
        if mismatch:
            failed.add(i)
            problems.append(mismatch)
    final = workload.final_check()
    problems += final
    workload.close()

    good = [r for i, r in enumerate(records) if i not in failed]
    by_kind = {kind: common.ms([at_reference_speed(r.seconds) for r in good
                                if r.op.kind == kind])
               for kind in (SUBGRAPH, KNN)}
    attempted = len(ops)
    n_failed = attempted - len(good) + len(final)
    # Every time is scaled to the reference box speed (common.REF_SPIN_S).
    values = {
        "setup_s": statistics.median(passes) * speed,
        "throughput_ops_s": len(records)
            / sum(at_reference_speed(r.seconds) for r in records),
        "subgraph_p50_ms": statistics.median(by_kind[SUBGRAPH]),
        "subgraph_p90_ms": common.percentile(by_kind[SUBGRAPH], 0.9),
        "knn_p50_ms": statistics.median(by_kind[KNN]),
        "cpu_ms_per_op": 1000.0 * busy / len(records) * speed,
        "peak_rss_mb": common.peak_rss_mb(),
        "index_bytes_per_graph": bytes_per_graph,
    }
    return {
        "correct": n_failed == 0,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]}
                    for m in spec["end_to_end"]},
        "info": {
            "samples": {kind: len(v) for kind, v in by_kind.items()},
            "writes": sum(1 for r in good if r.op.kind not in READ_KINDS),
            "checked_by_oracle": len(checked),
            "box_speed": speed,
            "raw_throughput_ops_s":
                len(records) / sum(r.seconds for r in records),
            "timed_wall_s": timed_end - timed_start,
            "before_timed_s": timed_start - began,
            "after_timed_s": time.perf_counter() - timed_end,
            "setup_passes_s": passes,
            "problems": problems[:10],
        },
    }


# ----------------------------------------------------------------------
# Every workload, one fresh process each
# ----------------------------------------------------------------------
def child_run(name: str, args, trace: int) -> dict:
    """Run one workload in a fresh interpreter; returns its result."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", name, "--seed", str(args.seed),
           "--trace", str(trace)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.scale is not None:
        cmd += ["--scale", str(args.scale)]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"workload {name} exited with {done.returncode}")
    info, result = done.stdout.strip().splitlines()[-2:]
    return {**json.loads(result), **json.loads(info)}


def run_all(args, spec: dict) -> bool:
    """Every workload of the spec, untraced then traced; prints every
    metric and returns whether every run was correct."""
    ok = True
    for entry in spec["workloads"]:
        for trace in (0, 1):
            result = child_run(entry["name"], args, trace)
            print_result(entry["name"], trace, result)
            ok = ok and result["correct"]
    return ok


def print_result(name: str, trace: int, result: dict) -> None:
    info = result.get("info", {})
    kind = "per-layer (traced)" if trace else "end-to-end (untraced)"
    print(f"\n== {name} · {kind} · attempted {result['attempted']} "
          f"failed {result['failed']} correct {result['correct']}")
    print("   " + " ".join(
        f"{k}={info[k]}" for k in ("scale", "seed", "seconds", "nproc",
                                   "python", "commit", "samples", "writes",
                                   "checked_by_oracle") if k in info))
    if "rung_ms_per_op" in info:
        print("   ladder, mean ms per op: " + " > ".join(
            f"{rung} {value:.1f}"
            for rung, value in info["rung_ms_per_op"].items()))
    for problem in info.get("problems", []):
        print(f"   PROBLEM {problem}")
    for metric, body in result["metrics"].items():
        print(f"   {metric:<36} {body['value']:>14.4f} {body['unit']}")


def selfcheck(args, spec: dict) -> int:
    """A/A: every workload twice back to back (untraced), each pair
    compared per end-to-end metric against the metric's bound."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    rows, bad = [], 0
    for entry in spec["workloads"]:
        name = entry["name"]
        a, b = child_run(name, args, 0), child_run(name, args, 0)
        print_result(name, 0, a)
        print_result(name, 0, b)
        bad += not (a["correct"] and b["correct"])
        samples = a["info"]["samples"]
        for metric, m in bounds.items():
            va = a["metrics"][metric]["value"]
            vb = b["metrics"][metric]["value"]
            change = (vb - va) / va
            worse = change if m["better"] == "lower" else -change
            flag = "" if worse <= m["bound"] else "  EXCEEDS"
            bad += bool(flag)
            rows.append(
                f"{name:<18} {metric:<24} {va:>12.4f} {vb:>12.4f} "
                f"{worse:>+9.2%} {m['bound']:>6.0%}  "
                f"{samples['subgraph']}+{samples['knn']}{flag}")
    print(f"\n{'workload':<18} {'metric':<24} {'A':>12} {'B':>12} "
          f"{'worse by':>9} {'bound':>6}  samples")
    print("\n".join(rows))
    return 1 if bad else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir() or not SPEC_PATH.is_file():
        sys.stderr.write(f"{SRC}/repro or {SPEC_PATH} is missing: the "
                         f"benchmark runs from a checkout of the repo\n")
        return 2
    spec = load_spec()
    if args.workload:
        if os.environ.get("PYTHONHASHSEED") != "0":
            # Pin string hashing so set order is not a variable.
            os.environ["PYTHONHASHSEED"] = "0"
            os.execv(sys.executable, [sys.executable] + sys.argv)
        sys.path[:0] = [str(SRC), str(SPINE_DIR)]
        result = run_workload(args, spec)
        # The last line is the result; the line before it labels the run.
        print(json.dumps({"info": result["info"]}))
        print(json.dumps({key: result[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
        return 0
    if args.selfcheck:
        return selfcheck(args, spec)
    return 0 if run_all(args, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
