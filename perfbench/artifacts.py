"""Digests and numeric summaries of the CSV/JSON files one command writes.

A summary holds, per CSV column or JSON key path, the numbers found there
(all of them, or 64 evenly spaced ones plus their sum and largest magnitude
for long columns) and a hash of the non-numeric cells.  `compare` checks a
fresh summary against the committed reference to a relative tolerance.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

SAMPLE = 64
# Manifest keys left out of the digest: the run's timing and the seed echo
# (the seed is the benchmark's input, checked on its own).
MANIFEST_VOLATILE = ("wall_time_s", "seed")
# Manifest keys left out of the numeric check as well: contracts are counted
# as operations of their own, versions are part of the run environment.
MANIFEST_UNCHECKED = MANIFEST_VOLATILE + ("contracts", "passed", "versions")


def _cells_csv(text: str) -> dict[str, list]:
    rows = list(csv.reader(text.splitlines()))
    header, body = rows[0], rows[1:]
    return {col: [row[i] for row in body] for i, col in enumerate(header)}


def _flatten(obj, path: str, out: dict[str, list]) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(obj[key], f"{path}.{key}" if path else key, out)
    elif isinstance(obj, list):
        for item in obj:
            _flatten(item, path + "[]", out)
    else:
        out.setdefault(path, []).append(obj)


def _number(cell):
    if isinstance(cell, bool):
        return None
    if isinstance(cell, (int, float)):
        return float(cell)
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _summarize_groups(groups: dict[str, list]) -> dict[str, dict]:
    out = {}
    for name, cells in groups.items():
        nums, strs = [], []
        for cell in cells:
            x = _number(cell)
            if x is None:
                strs.append(json.dumps(cell))
            else:
                nums.append(x)
        if nums:
            n = len(nums)
            idx = range(n) if n <= SAMPLE else \
                sorted({round(i * (n - 1) / (SAMPLE - 1)) for i in range(SAMPLE)})
            out[name] = {"n": n, "sum": math.fsum(nums),
                         "absmax": max(abs(x) for x in nums),
                         "values": [nums[i] for i in idx]}
        if strs:
            out[name + "#text"] = {
                "n": len(strs),
                "sha256": hashlib.sha256("\x1f".join(strs).encode()).hexdigest()}
    return out


def manifest_view(manifest: dict, drop) -> dict:
    return {k: v for k, v in manifest.items() if k not in drop}


def summarize(path: Path) -> dict:
    """SHA-256 of the file (volatile manifest keys stripped) and its numbers."""
    raw = path.read_bytes()
    if path.suffix == ".json":
        data = json.loads(raw)
        if path.name.startswith("manifest_"):
            raw = json.dumps(manifest_view(data, MANIFEST_VOLATILE),
                             indent=2, sort_keys=True).encode()
            data = manifest_view(data, MANIFEST_UNCHECKED)
        groups: dict[str, list] = {}
        _flatten(data, "", groups)
    else:
        groups = _cells_csv(raw.decode())
    return {"sha256": hashlib.sha256(raw).hexdigest(),
            "groups": _summarize_groups(groups)}


def _close(a: float, b: float, tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol


def compare(ref: dict, got: dict, rtol: float) -> list[str]:
    """Mismatches between two summaries of one file; empty when they agree."""
    rg, gg = ref["groups"], got["groups"]
    if set(rg) != set(gg):
        return [f"columns differ: {sorted(set(rg) ^ set(gg))}"]
    bad = []
    for name, r in rg.items():
        g = gg[name]
        if r["n"] != g["n"]:
            bad.append(f"{name}: {g['n']} values, reference has {r['n']}")
        elif "sha256" in r:
            if r["sha256"] != g["sha256"]:
                bad.append(f"{name}: text differs")
        else:
            tol = rtol * r["absmax"]
            if not (_close(g["absmax"], r["absmax"], tol)
                    and _close(g["sum"], r["sum"], r["n"] * tol)
                    and all(_close(x, y, tol) for x, y in zip(g["values"], r["values"]))):
                worst = max((abs(x - y) for x, y in zip(g["values"], r["values"])),
                            default=0.0)
                bad.append(f"{name}: off by up to {worst:.3g}, tolerance {tol:.3g}")
    return bad


def summarize_dir(out_dir: Path) -> dict[str, dict]:
    return {p.name: summarize(p) for p in sorted(out_dir.iterdir()) if p.is_file()}
