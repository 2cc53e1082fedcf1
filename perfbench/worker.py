"""Benchmark worker: one process that imports qnls and runs one workload.

Started by run.py with the checkout's `src` on PYTHONPATH.  It prints
`ready` as soon as qnls is imported (run.py times process start to that
line) and times the calibration kernel.  With --ready-only it then exits.
Otherwise it runs one untraced pass over the workload and, with --trace 1,
one traced pass after it, and prints one JSON line.  Passes in one process
agree with each other more than with passes in the next process, so a run
takes one pass per process.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter, process_time

import numpy as np
import scipy

import qnls.cli

import artifacts
import calibration
import tracing
from workloads import (EXPECT_NONZERO, PER_LAYER, REFERENCE_SEEDS, RTOL, THREAD_VARS,
                       WORKLOADS)

ROOT = Path(__file__).resolve().parent.parent


class BenchmarkError(Exception):
    """The measurement itself is broken (not the program under test)."""


def run_pass(commands, seed: int, out_root: Path) -> list[dict]:
    """Run every command once, in order; an exception is kept, not raised."""
    shutil.rmtree(out_root, ignore_errors=True)
    results = []
    for i, cmd in enumerate(commands):
        out = out_root / f"{i}-{cmd.name}"
        try:
            # looked up at call time, so the traced pass calls the wrapper
            manifest = qnls.cli.run_experiment(cmd.name, cmd.config, seed, out, jobs=1)
            results.append({"dir": out, "manifest": manifest})
        except Exception as exc:  # a failing command is a measured outcome
            results.append({"dir": out, "error": f"{type(exc).__name__}: {exc}"})
    return results


def check_pass(results, refs, rtol) -> dict:
    """Count operations and compare every artifact with its reference."""
    tally = {"attempted": 0, "failed": 0, "mismatches": [], "identical": 0,
             "files": 0, "bytes": 0, "digests": []}
    for res, ref, tol in zip(results, refs, rtol):
        n_ops = len(ref["contracts"]) + 1
        if "error" in res:
            tally["attempted"] += n_ops
            tally["failed"] += n_ops
            tally["mismatches"].append(f"{ref['command']}: raised {res['error']}")
            tally["digests"].append({})
            continue
        contracts = res["manifest"]["contracts"]
        tally["attempted"] += len(contracts) + 1
        tally["failed"] += sum(not ok for ok in contracts.values())
        got = artifacts.summarize_dir(res["dir"])
        tally["digests"].append({name: s["sha256"] for name, s in got.items()})
        tally["bytes"] += sum(p.stat().st_size for p in res["dir"].iterdir())
        bad = [f"missing or extra files: {sorted(set(got) ^ set(ref['artifacts']))}"] \
            if set(got) != set(ref["artifacts"]) else []
        for name in sorted(set(got) & set(ref["artifacts"])):
            bad += [f"{name} {m}" for m in artifacts.compare(ref["artifacts"][name], got[name], tol)]
            tally["files"] += 1
            tally["identical"] += got[name]["sha256"] == ref["artifacts"][name]["sha256"]
        if bad:
            tally["failed"] += 1
            tally["mismatches"] += [f"{ref['command']}: {m}" for m in bad]
    return tally


def layer_metrics(spans, traced_wall: float, untraced_wall: float,
                  bytes_written: int) -> tuple[dict, dict]:
    """The PER_LAYER metrics of a traced pass, and the raw per-function table."""
    raw = tracing.layer_metrics(spans)
    out = {name: raw.get(name, 0) for name in PER_LAYER}
    calls = raw.get("bilinear.j_eval.calls", 0)
    out["bilinear.j_eval.fallback_frac"] = raw.get("bilinear.j_eval.fallbacks", 0) / calls if calls else 0.0
    integrals = raw.get("quadrature.integrate_with_tail.calls", 0)
    out["quadrature.nodes_per_integral"] = out["quadrature.panel_sums.nodes"] / integrals if integrals else 0.0
    out["cli.bytes_written"] = bytes_written
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.unattributed_s"] = traced_wall - tracing.root_time(spans)
    return out, raw


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--ready-only", action="store_true")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    print("ready", flush=True)
    setup_kernel_s = calibration.kernel_mean()
    if args.ready_only:
        print(json.dumps({"setup_kernel_s": setup_kernel_s}), flush=True)
        return 0
    if not Path(qnls.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise BenchmarkError(f"qnls imported from {qnls.cli.__file__}, not from this checkout")

    commands = WORKLOADS[args.workload]
    seed = args.seed % REFERENCE_SEEDS
    reference = json.loads((Path(__file__).parent / "reference.json").read_text())
    refs = [entry["by_seed"][str(seed)] if "by_seed" in entry else entry
            for entry in reference[args.workload]]
    rtol = [RTOL[cmd.name] for cmd in commands]
    out_root = args.out / args.workload

    gc.collect()
    with calibration.SpeedSampler() as speed:
        t0, c0 = perf_counter(), process_time()
        results = run_pass(commands, seed, out_root)
        wall, cpu = perf_counter() - t0, process_time() - c0
    timing = {"wall_s": wall - speed.kernel_s, "scale": speed.scale,
              "cpu_s": cpu - speed.kernel_cpu_s, "cpu_scale": speed.cpu_scale}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tallies = [check_pass(results, refs, rtol)]

    layers = functions = None
    if args.trace:
        recorder = tracing.Recorder()
        tracing.instrument(recorder)
        gc.collect()
        t0 = perf_counter()
        results = run_pass(commands, seed, out_root)
        traced_wall = perf_counter() - t0
        tallies.append(check_pass(results, refs, rtol))
        if tallies[1]["digests"] != tallies[0]["digests"]:
            tallies[1]["mismatches"].append(
                "traced pass wrote different artifacts than the untraced pass")
        layers, raw = layer_metrics(recorder.spans, traced_wall, timing["wall_s"],
                                    tallies[1]["bytes"])
        if recorder.count_errors:
            raise BenchmarkError(f"work counters failed: {recorder.count_errors[:3]}")
        zero = [name for name in EXPECT_NONZERO[args.workload] if not layers[name]]
        if zero:
            raise BenchmarkError(f"per-layer counters read zero on {args.workload}: {zero}")
        slack = max(layers["trace.overhead_s"], 0.01 * traced_wall)
        if not 0.0 <= layers["trace.unattributed_s"] <= slack:
            raise BenchmarkError(
                f"self times cover {traced_wall - layers['trace.unattributed_s']:.4f} s "
                f"of a {traced_wall:.4f} s traced pass (allowed gap {slack:.4f} s)")
        functions = {k: v for k, v in raw.items() if k.endswith((".calls", ".self_s"))}

    env = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
           "numpy": np.__version__, "scipy": scipy.__version__, "seed": args.seed,
           "qnls_seed": seed, **{v: os.environ.get(v) for v in THREAD_VARS}}
    for tally in tallies:
        del tally["digests"], tally["bytes"]
    print(json.dumps({"pass": timing, "setup_kernel_s": setup_kernel_s,
                      "peak_rss_mb": peak_rss_mb, "tallies": tallies,
                      "layers": layers, "functions": functions, "env": env}), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(3)
