"""qnls benchmark: time whole lab workloads end to end, or trace their layers.

    python3 perfbench/run.py --workload contraction --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 1      # every workload

Run from the root of a checkout.  Every pass over a workload runs in a fresh
worker process (worker.py) with the checkout's `src` on PYTHONPATH and every
BLAS and OpenMP thread variable set to 1; workers are started one after
another until --seconds have passed.  Before them, SETUP_PROBES processes
only import qnls, so set-up time is a median over every launch.  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`
(the end-to-end metrics with --trace 0, the per-layer ones with --trace 1).
Exit status 0 on a completed measurement, non-zero when the benchmark itself
cannot run or its instrumentation check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibration import REFERENCE_KERNEL_S
from workloads import END_TO_END, PER_LAYER, THREAD_VARS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3
TIMEOUT_S = 170.0


class RunFailed(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _launch(args: list[str], deadline: float) -> tuple[float, str]:
    """Start worker.py; return (start-to-ready seconds, rest of its stdout)."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(deadline - perf_counter(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RunFailed(f"worker {' '.join(args)} exited with status {proc.returncode}")
    return ready, rest


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    """Launch the set-up probes, then one-pass workers until `seconds` have
    passed (and one traced worker with --trace 1); merge their records.

    Every launch gives a set-up sample: seconds to ready, and the kernel
    time right after.  Every pass carries its own core-speed scale.
    """
    deadline = perf_counter() + TIMEOUT_S
    setup = []
    for _ in range(SETUP_PROBES):
        ready, out = _launch(["--ready-only"], deadline)
        setup.append({"ready_s": ready, **json.loads(out)})
    workers = []

    def worker(traced: int) -> None:
        ready, out = _launch(["--workload", name, "--seed", str(seed), "--out", str(OUT),
                              "--trace", str(traced)], deadline)
        workers.append(json.loads(out.strip().splitlines()[-1]))
        setup.append({"ready_s": ready, "setup_kernel_s": workers[-1]["setup_kernel_s"]})

    start = perf_counter()
    while not workers or perf_counter() - start < seconds:
        worker(0)
    if trace:
        worker(1)
    tallies = [t for w in workers for t in w["tallies"]]
    return {
        "passes": [w["pass"] for w in workers],
        "setup": setup,
        "peak_rss_mb": [w["peak_rss_mb"] for w in workers],
        "total": {"attempted": sum(t["attempted"] for t in tallies),
                  "failed": sum(t["failed"] for t in tallies),
                  "identical": sum(t["identical"] for t in tallies),
                  "files": sum(t["files"] for t in tallies),
                  "mismatches": sorted({m for t in tallies for m in t["mismatches"]})},
        "layers": workers[-1]["layers"],
        "functions": workers[-1]["functions"],
        "env": workers[0]["env"],
    }


def samples(res: dict) -> dict[str, tuple[list, list]]:
    """Per metric: (values in reference seconds, values as measured)."""
    ps, st = res["passes"], res["setup"]
    return {
        "wall_s": ([p["wall_s"] * p["scale"] for p in ps], [p["wall_s"] for p in ps]),
        "cpu_s": ([p["cpu_s"] * p["cpu_scale"] for p in ps], [p["cpu_s"] for p in ps]),
        "setup_s": ([s["ready_s"] * REFERENCE_KERNEL_S / s["setup_kernel_s"] for s in st],
                    [s["ready_s"] for s in st]),
        "peak_rss_mb": (res["peak_rss_mb"], res["peak_rss_mb"]),
    }


def end_to_end(res: dict) -> dict:
    return {k: statistics.median(ref) for k, (ref, _) in samples(res).items()}


def report(name: str, res: dict) -> None:
    tot, env = res["total"], res["env"]
    print(f"== {name}: {len(res['passes'])} untraced passes, seed {env['seed']} "
          f"(qnls seed {env['qnls_seed']}); times in reference-core seconds, "
          f"as measured in brackets")
    for metric, (ref, raw) in samples(res).items():
        print(f"  {metric:<13} {statistics.median(ref):12.4f} {END_TO_END[metric]:<5} "
              f"median of {len(ref)}  [measured median {statistics.median(raw):.4f}, "
              f"min {min(raw):.4f}, max {max(raw):.4f}]")
    print(f"  {'failed_frac':<13} {tot['failed'] / tot['attempted']:12.4f} ratio "
          f"{tot['failed']} of {tot['attempted']} operations")
    print(f"  reference     {'all outputs match' if not tot['mismatches'] else 'MISMATCH'}; "
          f"byte-identical artifacts {tot['identical']} of {tot['files']}")
    for m in tot["mismatches"]:
        print(f"    {m}")
    print("  environment   " + " ".join(f"{k}={v}" for k, v in env.items()))
    if res["layers"]:
        wall = res["layers"]["trace.wall_s"]
        print(f"  traced pass {wall:.4f} s, overhead {res['layers']['trace.overhead_s']:+.4f} s")
        for metric, value in res["layers"].items():
            share = f"  {value / wall:6.1%} of traced wall" if metric.endswith("self_s") else ""
            print(f"    {metric:<40} {value:14.6g} {PER_LAYER[metric]}{share}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qnls" / "cli.py").is_file():
        print(f"no qnls source under {ROOT / 'src'}: run from a qnls checkout", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except (RunFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    for name, res in results.items():
        report(name, res)
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(res, indent=1) + "\n")

    def metrics(res):
        if args.trace:
            return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in res["layers"].items()}
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end(res).items()}

    prefix = len(names) > 1
    print(json.dumps({
        "correct": not any(r["total"]["mismatches"] for r in results.values()),
        "attempted": sum(r["total"]["attempted"] for r in results.values()),
        "failed": sum(r["total"]["failed"] for r in results.values()),
        "metrics": {(f"{name}.{k}" if prefix else k): v
                    for name, res in results.items() for k, v in metrics(res).items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
