"""Regenerate perfbench/reference.json from the current program.

    python3 perfbench/make_reference.py

Runs every workload's commands once at qnls seed 0 and the seeded commands
at every reference seed, single-threaded like the benchmark, and records
each artifact's SHA-256 and numeric summary plus each command's contracts.
Run it only when a change is meant to alter the artifacts, and say so.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

from workloads import REFERENCE_SEEDS, THREAD_VARS, WORKLOADS  # noqa: E402

for _var in THREAD_VARS:        # before numpy is imported by the worker module
    os.environ[_var] = "1"
sys.path.insert(0, str(HERE.parent / "src"))

import artifacts  # noqa: E402
import worker  # noqa: E402


def _entries(commands, seed: int, out: Path) -> list[dict]:
    entries = []
    for cmd, res in zip(commands, worker.run_pass(commands, seed, out)):
        if "error" in res:
            raise SystemExit(f"{cmd.name} raised {res['error']}")
        entries.append({"command": cmd.name,
                        "contracts": res["manifest"]["contracts"],
                        "artifacts": artifacts.summarize_dir(res["dir"])})
    return entries


def main() -> None:
    out = HERE.parent / ".perfbench_out" / "reference"
    reference = {}
    for name, commands in WORKLOADS.items():
        base = _entries(commands, 0, out)
        seeded = [i for i, cmd in enumerate(commands) if cmd.seeded]
        by_seed = {0: base}
        for seed in range(1, REFERENCE_SEEDS if seeded else 1):
            by_seed[seed] = dict(zip(seeded, _entries([commands[i] for i in seeded], seed, out)))
        reference[name] = [
            {"command": cmd.name, "by_seed": {str(s): e[i] for s, e in by_seed.items()}}
            if cmd.seeded else base[i]
            for i, cmd in enumerate(commands)]
        print(f"{name}: {len(commands)} commands, {len(by_seed)} seeds", flush=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
