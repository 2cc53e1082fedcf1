"""Command-line laboratory driver: seeded experiments, CSV/JSON artifacts.

Every run writes its outputs plus one manifest (config echo, versions, seed,
wall time, per-contract pass/fail).  Exit status: 0 all contracts pass, 1 a
contract fails or a module raises, 2 usage errors.  JSON carries config,
CSV carries bulk numerics; identical config + seed reproduce identical
numerical outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__, bilinear, boundary, dispersion, ibvp
from .errors import EmptyDirectory, InvalidConfig, QnlsError, UnknownCommand
from .grids import GridFunction, SpaceTimeField, TimeSeries
from .profiles import band_limited_pair, gaussian, smooth_bump

_FMT = "%.17g"


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_FMT % v if isinstance(v, float) else v for v in row])


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _require_pow2_grid(cfg) -> None:
    if not all(isinstance(n, int) and n > 0 and n & (n - 1) == 0
               for n in (cfg["nx"], cfg["nt"])):
        raise InvalidConfig("nx and nt must be powers of two")


def _solver_config(L, nx, dt, T, a) -> ibvp.SolverConfig:
    try:
        return ibvp.SolverConfig(L, nx, dt, T, a)
    except ValueError as exc:
        raise InvalidConfig(f"solver config: {exc}") from exc


def _gaussian_pair(cfg):
    L, nx = cfg["L"], cfg["nx"]
    x = np.linspace(0.0, L, nx)
    h = x[1] - x[0]
    u0 = GridFunction(0.0, h, gaussian(x, cfg.get("center_u", L / 3),
                                       cfg.get("width", 1.0),
                                       cfg.get("amp_u", 1.0)))
    v0 = GridFunction(0.0, h, gaussian(x, cfg.get("center_v", L / 2.4),
                                       cfg.get("width", 1.0),
                                       cfg.get("amp_v", 0.7)))
    return u0, v0


def _boundary_pair(cfg, dt, T):
    nt = int(round(T / dt)) + 1
    tg = dt * np.arange(nt)
    if cfg.get("boundary", "zero") == "bump":
        amp = cfg.get("bump_amp", 0.3)
        f = TimeSeries(0.0, dt, amp * smooth_bump(tg, 0.1 * T, 0.9 * T))
        g = TimeSeries(0.0, dt, 1j * amp * smooth_bump(tg, 0.2 * T, 0.8 * T))
    else:
        f = TimeSeries(0.0, dt, np.zeros(nt))
        g = TimeSeries(0.0, dt, np.zeros(nt))
    return f, g


# --- command handlers -------------------------------------------------------

def _cmd_simulate(cfg, rng, out: Path):
    defaults = {"L": 24.0, "nx": 257, "dt": 2e-3, "T": 0.5, "a": 1.0,
                "drift_tol_per_time": 1e-6}
    cfg = {**defaults, **cfg}
    sc = _solver_config(cfg["L"], cfg["nx"], cfg["dt"], cfg["T"], cfg["a"])
    u0, v0 = _gaussian_pair(cfg)
    f, g = _boundary_pair(cfg, cfg["dt"], cfg["T"])
    stride = cfg.get("snapshot_stride", 10 ** 9)
    states, ledger = ibvp.simulate(sc, u0, v0, f, g, snapshot_stride=stride)
    ledger_path = out / "simulate_ledger.csv"
    ledger.to_csv(ledger_path)
    outputs = [ledger_path]
    final_u, final_v = out / "simulate_final_u.csv", out / "simulate_final_v.csv"
    states[-1].u.to_csv(final_u)
    states[-1].v.to_csv(final_v)
    outputs += [final_u, final_v]
    if len(states) > 2:     # trajectory snapshots as (x, t, re, im) rows
        for tag in ("u", "v"):
            path = out / f"simulate_trajectory_{tag}.csv"
            rows = []
            for st in states:
                w = getattr(st, tag)
                for xv, zv in zip(w.x, w.samples):
                    rows.append([float(xv), float(st.t), float(zv.real),
                                 float(zv.imag)])
            _write_csv(path, ["x", "t", "re", "im"], rows)
            outputs.append(path)
    contracts = {"finite_run": bool(np.all(np.isfinite(ledger.mass)))}
    if cfg.get("boundary", "zero") == "zero":
        drift = float(np.max(np.abs(ledger.mass - ledger.mass[0]))
                      / max(ledger.mass[0], 1e-300))
        contracts["mass_drift_within_tolerance"] = \
            drift <= cfg["drift_tol_per_time"] * cfg["T"]
    return outputs, contracts


def _cmd_mass_track(cfg, rng, out: Path):
    defaults = {"L": 24.0, "nx": 241, "dt": 4e-3, "T": 0.5, "a": 0.8,
                "boundary": "bump", "levels": 2, "ratio_min": 3.0}
    cfg = {**defaults, **cfg}
    rows = []
    residuals = []
    for lvl in range(cfg["levels"]):
        nx = (cfg["nx"] - 1) * 2 ** lvl + 1
        dt = cfg["dt"] / 2 ** lvl
        sc = _solver_config(cfg["L"], nx, dt, cfg["T"], cfg["a"])
        u0, v0 = _gaussian_pair({**cfg, "nx": nx})
        f, g = _boundary_pair(cfg, dt, cfg["T"])
        _, ledger = ibvp.simulate(sc, u0, v0, f, g, snapshot_stride=10 ** 9)
        res = ibvp.mass_identity_residual(ledger)
        residuals.append(res)
        rows.append([lvl, float(nx), dt, res])
    path = out / "mass_track.csv"
    _write_csv(path, ["level", "nx", "dt", "identity_residual"], rows)
    ok = all(residuals[i] / residuals[i + 1] >= cfg["ratio_min"]
             for i in range(len(residuals) - 1))
    return [path], {"identity_residual_refines": bool(ok)}


def _cmd_verify_bilinear(cfg, rng, out: Path):
    defaults = {"a": 0.25, "b": 0.4, "d": 0.4, "kappa": 0.0, "s": 0.0,
                "n_pairs": 100, "nx": 64, "nt": 64, "lx": 32.0, "lt": 16.0,
                "which": ["L5.1", "L5.2"], "stability_tol": 0.2}
    cfg = {**defaults, **cfg}
    if not (isinstance(cfg["n_pairs"], int) and cfg["n_pairs"] >= 1):
        raise InvalidConfig("n_pairs must be a positive integer")
    _require_pow2_grid(cfg)
    if not (isinstance(cfg["which"], list)
            and all(isinstance(w, str) for w in cfg["which"])):
        raise InvalidConfig("which must be a list of estimate names")
    unknown = [w for w in cfg["which"] if w not in bilinear.ESTIMATES]
    if unknown:
        raise InvalidConfig(f"unknown estimates {unknown}; "
                            f"known: {list(bilinear.ESTIMATES)}")
    p = bilinear.EstimateParams(cfg["a"], cfg["b"], cfg["d"], cfg["kappa"], cfg["s"])
    seeds = rng.integers(0, 2 ** 31, size=cfg["n_pairs"])
    rows, contracts = [], {}
    for which in cfg["which"]:
        maxima = []
        for double in (False, True):
            scale = 2 if double else 1
            ratios = [bilinear.bilinear_ratio(
                *band_limited_pair(int(sd), scale * cfg["nx"], scale * cfg["nt"],
                                   cfg["lx"], cfg["lt"]), p, which)
                for sd in seeds]
            maxima.append(max(ratios))
            rows.append([which, int(double), float(len(ratios)), maxima[-1]])
        change = abs(maxima[1] - maxima[0]) / maxima[0]
        contracts[f"{which}_stable_under_doubling"] = \
            bool(change < cfg["stability_tol"])
    path = out / "bilinear_ratios.csv"
    _write_csv(path, ["which", "doubled", "n_pairs", "max_ratio"], rows)
    return [path], contracts


def _cmd_j_sweep(cfg, rng, out: Path):
    defaults = {"a": 0.25, "b": 0.4, "d": 0.4, "kappa": 0.0, "s": 0.0,
                "radii": [10.0, 20.0, 40.0], "stability_tol": 0.1,
                "expect_growth": False}
    cfg = {**defaults, **cfg}
    indices = cfg.get("indices")
    if indices is not None and not isinstance(indices, list):
        raise InvalidConfig("indices must be a list of J index names")
    unknown = [i for i in indices or [] if i not in bilinear.J_INDICES]
    if unknown:
        raise InvalidConfig(f"unknown J indices {unknown}; "
                            f"known: {list(bilinear.J_INDICES)}")
    # the stabilisation contract compares the last two radii
    if not (isinstance(cfg["radii"], list) and len(cfg["radii"]) >= 2):
        raise InvalidConfig("radii must be a list of at least two radii")
    p = bilinear.EstimateParams(cfg["a"], cfg["b"], cfg["d"], cfg["kappa"], cfg["s"])
    indices = indices or bilinear.applicable_indices(p)
    rows, contracts = [], {}
    for idx in indices:
        recs = bilinear.j_sup_sweep(idx, p, cfg["radii"])
        for r in recs:
            rows.append([idx, cfg["a"], cfg["b"], cfg["d"], cfg["kappa"],
                         cfg["s"], r["R"], r["sup"], r["argmax_xi"],
                         r["argmax_tau"]])
        sups = [r["sup"] for r in recs]
        if cfg["expect_growth"]:
            ok = all(sups[i] < sups[i + 1] for i in range(len(sups) - 1))
            contracts[f"{idx}_grows"] = bool(ok)
        else:
            ok = abs(sups[-1] - sups[-2]) < cfg["stability_tol"] * sups[-2]
            contracts[f"{idx}_sup_stabilizes"] = bool(ok)
    path = out / "j_sweep.csv"
    _write_csv(path, ["index", "a", "b", "d", "kappa", "s", "R", "sup",
                      "argmax_xi", "argmax_tau"], rows)
    return [path], contracts


def _cmd_trace_check(cfg, rng, out: Path):
    defaults = {"a_list": [1.0], "lambda_list": [0.0], "n": 2048,
                "tol_zero": 5e-3, "tol_frac": 1e-2, "dump_field": False}
    cfg = {**defaults, **cfg}
    tg = np.linspace(0.0, 1.0, cfg["n"])
    f = TimeSeries(0.0, tg[1] - tg[0], smooth_bump(tg, 0.15, 0.85))
    records, phases = [], set()
    outputs = []
    ok = True
    for lam in cfg["lambda_list"]:
        for a in cfg["a_list"]:
            spec = boundary.ForcingSpec(a, lam, f)
            rep = boundary.trace_check(spec)
            tol = cfg["tol_zero"] if lam == 0.0 else cfg["tol_frac"]
            ok &= rep.residual < tol
            if lam != 0.0:
                phases.add(rep.phase)
            records.append({"lambda": lam, "a": a, "branch": "trace",
                            "residual": rep.residual,
                            "phase_selected": rep.phase})
            if cfg["dump_field"]:
                nx, nt = 64, 32
                xs = -4.0 + (8.0 / nx) * np.arange(nx)
                ts = (1.0 / nt) * np.arange(nt)
                field = SpaceTimeField(xs[0], 8.0 / nx, 0.0, 1.0 / nt,
                                       boundary.forcing_field(spec, xs, ts))
                fpath = out / f"forcing_field_a{a}_lam{lam}.csv"
                field.to_csv(fpath)
                outputs.append(fpath)
    path = out / "trace_check.json"
    _write_json(path, {"records": records})
    contracts = {"trace_within_tolerance": bool(ok),
                 "phase_consistent": len(phases) <= 1}
    return [path] + outputs, contracts


def _cmd_dispersion_sweep(cfg, rng, out: Path):
    defaults = {"a_list": [0.1, 0.25, 0.4, 0.75, 1.0, 2.0, 5.0],
                "n_samples": 100_000}
    cfg = {**defaults, **cfg}
    rows = []
    violations = 0
    for a in cfg["a_list"]:
        fp = dispersion.sample_quadruples(cfg["n_samples"], rng)
        res = dispersion.lower_bound_residual(fp, a)
        tol = 1e-9 * (1.0 + fp.max_freq_sq())
        violations += int(np.sum(res < -tol))
        i = int(np.argmin(res + tol))
        rows.append([a, dispersion.classify_regime(a), float(np.min(res)),
                     float(fp.xi[i]), float(fp.tau[i]), float(fp.xi2[i]),
                     float(fp.tau2[i])])
    path = out / "dispersion_sweep.csv"
    _write_csv(path, ["a", "scheme", "min_residual", "argmin_xi",
                      "argmin_tau", "argmin_xi2", "argmin_tau2"], rows)
    return [path], {"lower_bound_no_violations": violations == 0}


def _cmd_region_map(cfg, rng, out: Path):
    defaults = {"a": 1.0, "lo": -1.0, "hi": 1.0, "step": 0.05}
    cfg = {**defaults, **cfg}
    # round the lattice so index values like 0, 1/2 are hit exactly
    grid = np.round(np.arange(cfg["lo"], cfg["hi"] + cfg["step"] / 2,
                              cfg["step"]), 10)
    rows = []
    origin_ok = False
    for kappa in grid:
        for s in grid:
            ok, constraints = ibvp.regularity_region(float(kappa), float(s),
                                                     cfg["a"])
            if kappa == 0.0 and s == 0.0:
                origin_ok = ok
            rows.append([float(kappa), float(s), int(ok),
                         ";".join(constraints)])
    path = out / "region_map.csv"
    _write_csv(path, ["kappa", "s", "admissible", "constraints"], rows)
    return [path], {"origin_admissible": bool(origin_ok)}


def _cmd_contraction(cfg, rng, out: Path):
    defaults = {"L": 20.0, "nx_sim": 129, "T": 0.1, "a": 1.0,
                "lambda1": 0.0, "lambda2": 0.0, "k_iters": 7,
                "nx": 256, "nt": 64, "t_span": 0.5,
                "amp_u": 1.0, "amp_v": 0.8, "ratio_max": 0.9,
                "discrepancy_max": 0.05}
    cfg = {**defaults, **cfg}
    _require_pow2_grid(cfg)
    # the x >= 0 half of the contraction grid is compared with the simulate grid
    if cfg["nx"] != 2 * (cfg["nx_sim"] - 1):
        raise InvalidConfig("nx must equal 2*(nx_sim-1)")
    # contraction_ratio checks ratios 2..5; below 3 iterates it checks none
    if not (isinstance(cfg["k_iters"], int) and cfg["k_iters"] >= 3):
        raise InvalidConfig("k_iters must be an integer >= 3")
    if not cfg["t_span"] > 0:
        raise InvalidConfig("t_span must be positive")
    dtc = cfg["t_span"] / cfg["nt"]
    # the time-stepper comparison reads the n_cmp + 1 grid times up to T
    n_cmp = int(cfg["T"] / dtc)
    if n_cmp + 1 > cfg["nt"]:
        raise InvalidConfig(f"T={cfg['T']} must be below t_span={cfg['t_span']}")
    x = np.linspace(0.0, cfg["L"], cfg["nx_sim"])
    h = x[1] - x[0]
    u0 = GridFunction(0.0, h, gaussian(x, 5.0, 1.0, cfg["amp_u"]))
    v0 = GridFunction(0.0, h, gaussian(x, 7.0, 1.2, cfg["amp_v"]))
    zero = TimeSeries(0.0, 0.01, np.zeros(101))
    sc = _solver_config(cfg["L"], cfg["nx_sim"], dtc / 8.0, cfg["T"], cfg["a"])
    res = ibvp.contraction_iterate(sc, u0, v0, zero, zero, cfg["lambda1"],
                                   cfg["lambda2"], cfg["k_iters"],
                                   nx=cfg["nx"], nt=cfg["nt"],
                                   t_span=cfg["t_span"])
    d = res.distances
    ratios = [d[k + 1] / d[k] if d[k] > 0 else 0.0 for k in range(len(d) - 1)]
    rows = [[k + 1, d[k], ratios[k] if k < len(ratios) else ""]
            for k in range(len(d))]
    path = out / "contraction_distances.csv"
    _write_csv(path, ["k", "distance", "ratio_to_next"], rows)

    states, _ = ibvp.simulate(sc, u0, v0, zero, zero, snapshot_stride=8)
    half = cfg["nx"] // 2
    Uc = res.u.samples[half:, :n_cmp + 1]
    Vc = res.v.samples[half:, :n_cmp + 1]
    us = np.stack([st.u.samples[:-1] for st in states[:n_cmp + 1]], axis=1)
    vs = np.stack([st.v.samples[:-1] for st in states[:n_cmp + 1]], axis=1)
    rel = ((np.linalg.norm(Uc - us) + np.linalg.norm(Vc - vs))
           / (np.linalg.norm(us) + np.linalg.norm(vs)))
    contracts = {
        "contraction_ratio": bool(all(r <= cfg["ratio_max"]
                                      for r in ratios[1:5])),
        "matches_time_stepper": bool(rel <= cfg["discrepancy_max"]),
    }
    summary = out / "contraction_summary.json"
    _write_json(summary, {"distances": d, "ratios": ratios,
                          "solver_discrepancy": float(rel)})
    return [path, summary], contracts


COMMANDS = {
    "simulate": _cmd_simulate,
    "mass-track": _cmd_mass_track,
    "verify-bilinear": _cmd_verify_bilinear,
    "j-sweep": _cmd_j_sweep,
    "trace-check": _cmd_trace_check,
    "dispersion-sweep": _cmd_dispersion_sweep,
    "region-map": _cmd_region_map,
    "contraction": _cmd_contraction,
}


def run_experiment(command: str, config: dict, seed: int, out_dir,
                   jobs: int = 1) -> dict:
    """Execute one named experiment; returns the manifest dictionary.

    `jobs` is accepted for callers that pass it and has no effect: every
    experiment runs in this process.
    """
    if command not in COMMANDS:
        raise UnknownCommand(f"unknown experiment {command!r}")
    if not isinstance(config, dict):
        raise InvalidConfig("config must be a JSON object")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    outputs, contracts = COMMANDS[command](dict(config), rng, out)
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__,
                     "qnls": __version__},
        "wall_time_s": round(time.perf_counter() - t0, 3),
        "outputs": [Path(p).name for p in outputs],
        "contracts": contracts,
        "passed": all(contracts.values()),
    }
    _write_json(out / f"manifest_{command}.json", manifest)
    return manifest


def emit_report(results_dir) -> dict:
    """Aggregate manifest contract outcomes into one summary dictionary."""
    out = Path(results_dir)
    manifests = sorted(out.glob("manifest_*.json"))
    if not manifests:
        raise EmptyDirectory(f"no manifest found under {out}")
    experiments = {}
    for mpath in manifests:
        data = json.loads(mpath.read_text())
        experiments[data["command"]] = "pass" if data["passed"] else "fail"
    summary = {
        "experiments": experiments,
        "overall": "pass" if all(v == "pass" for v in experiments.values())
                   else "fail",
    }
    _write_json(out / "summary.json", summary)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qnls",
        description="Numerical laboratory for quadratic Schrodinger "
                    "interactions on the half-line")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(COMMANDS) + ["report"]:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=Path, default=Path("qnls-out"))
    args = parser.parse_args(argv)

    try:
        if args.command == "report":
            summary = emit_report(args.out)
            print(json.dumps(summary, indent=2, sort_keys=True))
            return 0 if summary["overall"] == "pass" else 1
        config = {}
        if args.config is not None:
            try:
                config = json.loads(Path(args.config).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise InvalidConfig(f"cannot read config: {exc}") from exc
        manifest = run_experiment(args.command, config, args.seed, args.out)
        for name, ok in manifest["contracts"].items():
            print(f"[{'PASS' if ok else 'FAIL'}] {args.command}: {name}")
        return 0 if manifest["passed"] else 1
    except (InvalidConfig, UnknownCommand) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except QnlsError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
