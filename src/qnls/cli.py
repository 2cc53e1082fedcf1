"""Command-line laboratory driver: seeded experiments, CSV/JSON artifacts.

Every run writes its outputs plus one manifest (config echo, versions, seed,
wall time, per-contract pass/fail; a run that raises after validation gets
`passed: false` and its error).  Exit status: 0 all contracts pass, 1 a
contract fails or a module raises, 2 usage errors.  JSON carries config,
CSV carries bulk numerics; on one machine, identical config + seed
reproduce identical numerical outputs (other CPUs and BLAS builds may
differ in the last bits).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__, bilinear, boundary, dispersion, ibvp
from .errors import InvalidConfig, QnlsError, UnknownCommand
from .grids import MAX_STEPS, GridFunction, SpaceTimeField, TimeSeries, write_csv
from .profiles import BAND_MODES, band_limited_pair, gaussian, smooth_bump

# Every key each command reads, with its default.  A config sets some of
# these keys, each to a value of its default's kind (see `_validate`).
CONFIGS = {
    "simulate": {"L": 24.0, "nx": 257, "dt": 2e-3, "T": 0.5, "a": 1.0,
                 "boundary": "zero"},
    "mass-track": {"L": 24.0, "nx": 241, "dt": 4e-3, "T": 0.5, "a": 0.8,
                   "boundary": "bump", "levels": 2},
    "verify-bilinear": {"a": 0.25, "b": 0.4, "d": 0.4, "kappa": 0.0, "s": 0.0,
                        "n_pairs": 100, "nx": 64, "nt": 64, "lx": 32.0,
                        "lt": 16.0, "which": ["L5.1", "L5.2"]},
    # null indices: those `bilinear.applicable_indices` selects
    "j-sweep": {"a": 0.25, "b": 0.4, "d": 0.4, "kappa": 0.0, "s": 0.0,
                "radii": [10.0, 20.0, 40.0], "indices": None,
                "expect_growth": False},
    "trace-check": {"a_list": [1.0], "lambda_list": [0.0], "n": 2048,
                    "dump_field": False},
    "dispersion-sweep": {"a_list": [0.1, 0.25, 0.4, 0.75, 1.0, 2.0, 5.0],
                         "n_samples": 100_000},
    "region-map": {"a": 1.0, "lo": -1.0, "hi": 1.0, "step": 0.05},
    "contraction": {"L": 20.0, "nx_sim": 129, "T": 0.1, "a": 1.0,
                    "lambda1": 0.0, "lambda2": 0.0, "k_iters": 7, "nx": 256,
                    "nt": 64, "t_span": 0.5},
}
# Keys whose items name library entries: (what a list holds, noun, names).
_NAMED = {"which": ("estimate names", "estimates", bilinear.ESTIMATES),
          "indices": ("J index names", "J indices", bilinear.J_INDICES)}
_CHOICES = {"boundary": ("zero", "bump")}

# Contract thresholds.
DRIFT_TOL_PER_TIME = 1e-6       # simulate: relative mass drift per unit time
REFINE_RATIO_MIN = 3.0          # mass-track: residual ratio per refinement
BILINEAR_STABILITY_TOL = 0.2    # verify-bilinear: max-ratio change on doubling
J_STABILITY_TOL = 0.1           # j-sweep: sup change between the last radii
TRACE_TOL_ZERO = 5e-3           # trace-check: residual at lambda = 0
TRACE_TOL_FRAC = 1e-2           # trace-check: residual at lambda != 0
CONTRACTION_RATIO_MAX = 0.9     # contraction: iterate distance ratios 2..5
DISCREPANCY_MAX = 0.05          # contraction against the time stepper
# Stock data: Gaussians and bump boundary of simulate and mass-track; contraction's.
STOCK_WIDTH, STOCK_AMP_U, STOCK_AMP_V, BUMP_AMP = 1.0, 1.0, 0.7, 0.3
CONTRACTION_AMP_U, CONTRACTION_AMP_V = 1.0, 0.8
# dispersion-sweep: rows per block of its residual reductions (64 KB a column)
_SWEEP_BLOCK = 8192


def _output(out: Path, name: str) -> Path:
    """Path of one artifact; the first one makes the output directory."""
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise InvalidConfig(message)


def _fits(value, default) -> bool:
    """Whether value is of its default's kind: an int is a float, a float is finite,
    a bool no number, and a list is not empty and its items are of the kind of the
    default's first."""
    if isinstance(default, list):
        return (isinstance(value, list) and len(value) > 0
                and all(_fits(v, default[0]) for v in value))
    if type(value) is float and not np.isfinite(value):
        return False    # JSON's NaN and Infinity
    return type(value) is type(default) or (type(default) is float
                                            and type(value) is int)


def _validate(command: str, config: dict) -> dict:
    """The command's defaults updated by `config`, each key and kind checked."""
    table = CONFIGS[command]
    unknown = sorted(set(config) - set(table))
    _require(not unknown, f"unknown keys {unknown} for {command}; "
                          f"known: {list(table)}")
    for key, value in config.items():
        if key not in _NAMED:
            _require(_fits(value, table[key]),
                     f"{key}={value!r} is not of the kind of its default {table[key]!r}")
        elif value is not None or table[key] is not None:
            held, noun, names = _NAMED[key]
            _require(_fits(value, [""]), f"{key} must be a list of {held}")
            bad = [w for w in value if w not in names]
            _require(not bad, f"unknown {noun} {bad}; known: {list(names)}")
        if key in _CHOICES:
            _require(value in _CHOICES[key], f"{key} must be one of {list(_CHOICES[key])}")
    return {**table, **config}


def _params(make, *args):
    """make(*args), where the library's rejection of its parameters is a usage error."""
    try:
        return make(*args)
    except (ValueError, QnlsError) as exc:
        raise InvalidConfig(f"{make.__name__}: {exc}") from exc


def _require_pow2_grid(cfg) -> None:
    _require(all(n > 0 and n & (n - 1) == 0 for n in (cfg["nx"], cfg["nt"])),
             "nx and nt must be powers of two")


def _gaussian_pair(L, nx):
    x = np.linspace(0.0, L, nx)
    h = x[1] - x[0]
    return (GridFunction(0.0, h, gaussian(x, L / 3, STOCK_WIDTH, STOCK_AMP_U)),
            GridFunction(0.0, h, gaussian(x, L / 2.4, STOCK_WIDTH, STOCK_AMP_V)))


def _boundary_pair(kind, dt, T):
    nt = int(round(T / dt)) + 1
    tg = dt * np.arange(nt)
    if kind == "bump":
        f = TimeSeries(0.0, dt, BUMP_AMP * smooth_bump(tg, 0.1 * T, 0.9 * T))
        g = TimeSeries(0.0, dt, 1j * BUMP_AMP * smooth_bump(tg, 0.2 * T, 0.8 * T))
    else:
        f = g = TimeSeries(0.0, dt, np.zeros(nt))
    return f, g


def doubling_maxima(p, which: str, seeds, nx: int, nt: int, lx: float, lt: float):
    """The largest `which` ratio over the seeds' band-limited pairs on the
    nx x nt grid of the lx x lt box, then on that grid doubled in both axes."""
    return [max(bilinear.bilinear_ratio(
        *band_limited_pair(int(sd), scale * nx, scale * nt, lx, lt), p, which)
        for sd in seeds) for scale in (1, 2)]


# --- command handlers -------------------------------------------------------

def _cmd_simulate(cfg, rng, out: Path):
    sc = _params(ibvp.SolverConfig, cfg["L"], cfg["nx"], cfg["dt"], cfg["T"], cfg["a"])
    u0, v0 = _gaussian_pair(cfg["L"], cfg["nx"])
    f, g = _boundary_pair(cfg["boundary"], cfg["dt"], cfg["T"])
    states, ledger = ibvp.simulate(sc, u0, v0, f, g, snapshot_stride=10 ** 9)
    outputs = [_output(out, f"simulate_{name}.csv")
               for name in ("ledger", "final_u", "final_v")]
    ledger.to_csv(outputs[0])
    states[-1].u.to_csv(outputs[1])
    states[-1].v.to_csv(outputs[2])
    contracts = {"finite_run": bool(np.all(np.isfinite(ledger.mass)))}
    if cfg["boundary"] == "zero":
        drift = float(np.max(np.abs(ledger.mass - ledger.mass[0]))
                      / max(ledger.mass[0], 1e-300))
        contracts["mass_drift_within_tolerance"] = \
            drift <= DRIFT_TOL_PER_TIME * cfg["T"]
    return outputs, contracts


def _cmd_mass_track(cfg, rng, out: Path):
    # the refinement contract compares consecutive levels
    _require(cfg["levels"] >= 2, "levels must be an integer >= 2")
    # every level's refusal comes before the first level runs
    configs = [_params(ibvp.SolverConfig, cfg["L"], (cfg["nx"] - 1) * 2 ** lvl + 1,
                       cfg["dt"] / 2 ** lvl, cfg["T"], cfg["a"])
               for lvl in range(cfg["levels"])]
    rows = []
    residuals = []
    for lvl, sc in enumerate(configs):
        u0, v0 = _gaussian_pair(cfg["L"], sc.nx)
        f, g = _boundary_pair(cfg["boundary"], sc.dt, cfg["T"])
        _, ledger = ibvp.simulate(sc, u0, v0, f, g, snapshot_stride=10 ** 9)
        res = ibvp.mass_identity_residual(ledger)
        residuals.append(res)
        rows.append([lvl, float(sc.nx), sc.dt, res])
    path = _output(out, "mass_track.csv")
    write_csv(path, ["level", "nx", "dt", "identity_residual"], rows)
    ok = all(residuals[i] / residuals[i + 1] >= REFINE_RATIO_MIN
             for i in range(len(residuals) - 1))
    return [path], {"identity_residual_refines": bool(ok)}


def _cmd_verify_bilinear(cfg, rng, out: Path):
    _require(cfg["n_pairs"] >= 1, "n_pairs must be a positive integer")
    _require_pow2_grid(cfg)
    _require(cfg["lx"] > 0 and cfg["lt"] > 0, "lx and lt must be positive")
    # a box length near the smallest float gives a step that rounds to 0,
    # first on the doubled grid
    _require(cfg["lx"] / (2 * cfg["nx"]) > 0 and cfg["lt"] / (2 * cfg["nt"]) > 0,
             "the doubled grid's steps lx / (2 nx) and lt / (2 nt) must not round to 0")
    # a step that does not round to 0 can still make a wavenumber 2 pi k / lx overflow
    _require(all(np.isfinite(2 * np.pi * BAND_MODES / cfg[k]) for k in ("lx", "lt")),
             "2 pi BAND_MODES / lx and 2 pi BAND_MODES / lt must be finite")
    p = _params(bilinear.EstimateParams, cfg["a"], cfg["b"], cfg["d"],
                cfg["kappa"], cfg["s"])
    seeds = rng.integers(0, 2 ** 31, size=cfg["n_pairs"])
    rows, contracts = [], {}
    for which in cfg["which"]:
        maxima = doubling_maxima(p, which, seeds, cfg["nx"], cfg["nt"],
                                 cfg["lx"], cfg["lt"])
        rows += [[which, double, float(len(seeds)), maxima[double]] for double in (0, 1)]
        change = abs(maxima[1] - maxima[0]) / maxima[0]
        contracts[f"{which}_stable_under_doubling"] = \
            bool(change < BILINEAR_STABILITY_TOL)
    path = _output(out, "bilinear_ratios.csv")
    write_csv(path, ["which", "doubled", "n_pairs", "max_ratio"], rows)
    return [path], contracts


def _cmd_j_sweep(cfg, rng, out: Path):
    radii = cfg["radii"]
    # the stabilisation contract compares the last two radii
    _require(len(radii) >= 2, "radii must be a list of at least two radii")
    _require(radii[0] > 0 and all(r0 < r1 for r0, r1 in zip(radii, radii[1:])),
             "radii must be positive and strictly increasing")
    p = _params(bilinear.EstimateParams, cfg["a"], cfg["b"], cfg["d"],
                cfg["kappa"], cfg["s"])
    indices = cfg["indices"] or bilinear.applicable_indices(p)
    _params(bilinear.check_indices, indices, p, True)
    rows, contracts = [], {}
    for idx in indices:
        recs = bilinear.j_sup_sweep(idx, p, radii)
        for r in recs:
            rows.append([idx, cfg["a"], cfg["b"], cfg["d"], cfg["kappa"],
                         cfg["s"], r["R"], r["sup"], r["argmax_xi"],
                         r["argmax_tau"]])
        sups = [r["sup"] for r in recs]
        if cfg["expect_growth"]:
            ok = all(sups[i] < sups[i + 1] for i in range(len(sups) - 1))
            contracts[f"{idx}_grows"] = bool(ok)
        else:
            ok = abs(sups[-1] - sups[-2]) < J_STABILITY_TOL * sups[-2]
            contracts[f"{idx}_sup_stabilizes"] = bool(ok)
    path = _output(out, "j_sweep.csv")
    write_csv(path, ["index", "a", "b", "d", "kappa", "s", "R", "sup",
                     "argmax_xi", "argmax_tau"], rows)
    return [path], contracts


def _cmd_trace_check(cfg, rng, out: Path):
    # the half-order derivative of the datum needs 3 samples
    _require(cfg["n"] >= 3, "n must be an integer >= 3")
    _require(all(lam > -1.0 for lam in cfg["lambda_list"]),
             "lambda_list: the trace identity needs lambda > -1")
    tg = np.linspace(0.0, 1.0, cfg["n"])
    f = TimeSeries(0.0, tg[1] - tg[0], smooth_bump(tg, 0.15, 0.85))
    specs = [_params(boundary.ForcingSpec, a, lam, f)
             for lam in cfg["lambda_list"] for a in cfg["a_list"]]
    records, phases = [], set()
    outputs = []
    ok = True
    for spec, rep in zip(specs, boundary.trace_check(specs)):
        tol = TRACE_TOL_ZERO if spec.lam == 0.0 else TRACE_TOL_FRAC
        ok &= rep.residual < tol
        if spec.lam != 0.0:
            phases.add(rep.phase)
        records.append({"lambda": spec.lam, "a": spec.a, "branch": "trace",
                        "residual": rep.residual,
                        "phase_selected": rep.phase})
        if cfg["dump_field"]:
            nx, nt = 64, 32
            xs = -4.0 + (8.0 / nx) * np.arange(nx)
            ts = (1.0 / nt) * np.arange(nt)
            field = SpaceTimeField(xs[0], 8.0 / nx, 0.0, 1.0 / nt,
                                   boundary.forcing_field(spec, xs, ts))
            fpath = _output(out, f"forcing_field_a{spec.a}_lam{spec.lam}.csv")
            field.to_csv(fpath)
            outputs.append(fpath)
    path = _output(out, "trace_check.json")
    _write_json(path, {"records": records})
    contracts = {"trace_within_tolerance": bool(ok),
                 "phase_consistent": len(phases) <= 1}
    return [path] + outputs, contracts


def _residual_extremes(fp, a):
    """(violations, min residual, argmin of res + tol) over the rows of fp.

    The rows are reduced in blocks of `_SWEEP_BLOCK`, each a `FrequencyPoint`
    of views, so no temporary spans all of them.  The numbers are those of
    the whole-array `np.sum(res < -tol)`, `np.min(res)` and
    `np.argmin(res + tol)`: a block's argmin replaces the running one only
    when strictly smaller, so the first occurrence wins, and a NaN wins as
    in `np.argmin` and is the minimum as in `np.min`.
    """
    violations, low, best, arg = 0, np.inf, np.inf, 0
    for start in range(0, fp.xi.size, _SWEEP_BLOCK):
        rows = slice(start, start + _SWEEP_BLOCK)
        part = dispersion.FrequencyPoint(fp.xi[rows], fp.tau[rows],
                                         fp.xi2[rows], fp.tau2[rows])
        res = dispersion.lower_bound_residual(part, a)
        tol = 1e-9 * (1.0 + part.max_freq_sq())
        violations += int(np.count_nonzero(res < -tol))
        low = np.minimum(low, np.min(res))
        res += tol
        i = int(np.argmin(res))
        # arg starts at row 0, which is where np.argmin lands when every
        # value is +inf
        if not np.isnan(best) and (res[i] < best or np.isnan(res[i])):
            best, arg = res[i], start + i
    return violations, float(low), arg


def _cmd_dispersion_sweep(cfg, rng, out: Path):
    _require(cfg["n_samples"] >= 1, "n_samples must be a positive integer")
    schemes = [_params(dispersion.classify_regime, a) for a in cfg["a_list"]]
    _require("Resonant" not in schemes,
             "a_list: no lower bound is claimed at the resonant a = 1/2")
    rows = []
    violations = 0
    for a, scheme in zip(cfg["a_list"], schemes):
        fp = dispersion.sample_quadruples(cfg["n_samples"], rng)
        bad, low, i = _residual_extremes(fp, a)
        violations += bad
        # the argmin_* columns name the quadruple that minimises res + tol,
        # not res: at a >= 1/2 it is another quadruple than min_residual's
        rows.append([a, scheme, low, float(fp.xi[i]), float(fp.tau[i]),
                     float(fp.xi2[i]), float(fp.tau2[i])])
        del fp      # the next a's draws do not stack on these
    path = _output(out, "dispersion_sweep.csv")
    write_csv(path, ["a", "scheme", "min_residual", "argmin_xi",
                     "argmin_tau", "argmin_xi2", "argmin_tau2"], rows)
    return [path], {"lower_bound_no_violations": violations == 0}


def _cmd_region_map(cfg, rng, out: Path):
    # the predicate follows a's regime, which needs a > 0
    _params(dispersion.classify_regime, cfg["a"])
    _require(cfg["step"] > 0, "step must be positive")
    _require(cfg["lo"] <= cfg["hi"], "lo must not exceed hi")
    # np.arange refuses a count past its index range with a traceback, and
    # lo + k*step cannot tell lattice points apart beyond MAX_STEPS of them
    count = (cfg["hi"] - cfg["lo"]) / cfg["step"] + 1
    _require(count <= MAX_STEPS, f"the lattice must have at most 2**53 points per axis, "
                                 f"got (hi - lo) / step + 1 = {count:.3g}")
    # round the lattice so index values like 0, 1/2 are hit exactly
    grid = np.round(np.arange(cfg["lo"], cfg["hi"] + cfg["step"] / 2,
                              cfg["step"]), 10)
    # the origin_admissible contract reads the lattice point (0, 0)
    _require(0.0 in grid, "the lattice lo + k*step must contain 0")
    rows = []
    origin_ok = False
    for kappa in grid:
        for s in grid:
            ok, constraints = dispersion.regularity_region(float(kappa), float(s),
                                                           cfg["a"])
            if kappa == 0.0 and s == 0.0:
                origin_ok = ok
            rows.append([float(kappa), float(s), int(ok),
                         ";".join(constraints)])
    path = _output(out, "region_map.csv")
    write_csv(path, ["kappa", "s", "admissible", "constraints"], rows)
    return [path], {"origin_admissible": bool(origin_ok)}


def _cmd_contraction(cfg, rng, out: Path):
    _require_pow2_grid(cfg)
    # the boundary term takes the half-order derivative of its datum in time
    _require(cfg["nt"] >= 4, "nt must be at least 4")
    # nx is even, so x = 0 is a node of the contraction grid, where the
    # boundary term of an order <= -1 is singular
    _require(all(-1.0 < cfg[k] < 3.0 for k in ("lambda1", "lambda2")),
             "lambda1 and lambda2 must exceed -1 and lie below 3: the boundary "
             "term is singular at the node x = 0, and the forcing class ends at 3")
    # the x >= 0 half of the contraction grid is compared with the simulate grid
    _require(cfg["nx"] == 2 * (cfg["nx_sim"] - 1), "nx must equal 2*(nx_sim-1)")
    # contraction_ratio checks ratios 2..5; below 3 iterates it checks none
    _require(cfg["k_iters"] >= 3, "k_iters must be an integer >= 3")
    # a t_span near the smallest float gives a step that rounds to 0
    dtc = cfg["t_span"] / cfg["nt"]
    _require(dtc > 0, "t_span must be positive, and t_span / nt must not round to 0")
    # the time-stepper comparison reads the n_cmp + 1 grid times up to T,
    # int(T / dtc) + 1 <= nt; T / dtc may overflow to inf
    _require(cfg["T"] / dtc < cfg["nt"],
             f"T={cfg['T']} must be below t_span={cfg['t_span']}")
    n_cmp = int(cfg["T"] / dtc)
    sc = _params(ibvp.SolverConfig, cfg["L"], cfg["nx_sim"], dtc / 8.0,
                 cfg["T"], cfg["a"])
    # the free group's phase at the grid's largest wavenumber pi/dx, dx = 2L/nx;
    # past the float range the group field has non-finite samples
    xi_max = np.pi * cfg["nx"] / (2.0 * cfg["L"])
    _require(np.isfinite(cfg["a"] * xi_max * xi_max * cfg["t_span"]),
             f"a={cfg['a']}: the free group's phase a (pi/dx)^2 t_span must be finite")
    x = np.linspace(0.0, cfg["L"], cfg["nx_sim"])
    h = x[1] - x[0]
    u0 = GridFunction(0.0, h, gaussian(x, 5.0, 1.0, CONTRACTION_AMP_U))
    v0 = GridFunction(0.0, h, gaussian(x, 7.0, 1.2, CONTRACTION_AMP_V))
    zero = TimeSeries(0.0, 0.01, np.zeros(101))
    res = ibvp.contraction_iterate(sc, u0, v0, zero, zero, cfg["lambda1"],
                                   cfg["lambda2"], cfg["k_iters"],
                                   nx=cfg["nx"], nt=cfg["nt"],
                                   t_span=cfg["t_span"])
    d = res.distances
    ratios = [d[k + 1] / d[k] if d[k] > 0 else 0.0 for k in range(len(d) - 1)]
    rows = [[k + 1, d[k], ratios[k] if k < len(ratios) else ""]
            for k in range(len(d))]
    path = _output(out, "contraction_distances.csv")
    write_csv(path, ["k", "distance", "ratio_to_next"], rows)

    states, _ = ibvp.simulate(sc, u0, v0, zero, zero, snapshot_stride=8)
    half = cfg["nx"] // 2
    Uc = res.u.samples[half:, :n_cmp + 1]
    Vc = res.v.samples[half:, :n_cmp + 1]
    us = np.stack([st.u.samples[:-1] for st in states[:n_cmp + 1]], axis=1)
    vs = np.stack([st.v.samples[:-1] for st in states[:n_cmp + 1]], axis=1)
    rel = ((np.linalg.norm(Uc - us) + np.linalg.norm(Vc - vs))
           / (np.linalg.norm(us) + np.linalg.norm(vs)))
    contracts = {
        "contraction_ratio": bool(all(r <= CONTRACTION_RATIO_MAX
                                      for r in ratios[1:5])),
        "matches_time_stepper": bool(rel <= DISCREPANCY_MAX),
    }
    summary = _output(out, "contraction_summary.json")
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
    cfg = _validate(command, config)
    # numpy's generator takes no negative or fractional seed
    _require(isinstance(seed, (int, np.integer)) and seed >= 0,
             f"seed must be a non-negative integer, got {seed!r}")
    out = Path(out_dir)
    # the first artifact makes the directory, and a file in its place fails it
    for path in (out, *out.parents):
        _require(path.is_dir() or not path.exists(),
                 f"out_dir {out}: {path} is not a directory")
    rng = np.random.default_rng(seed)
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__,
                     "qnls": __version__},
    }
    t0 = time.perf_counter()
    try:
        outputs, contracts = COMMANDS[command](cfg, rng, out)
    except (InvalidConfig, UnknownCommand):
        raise       # a rejected config leaves no output directory
    except Exception as exc:
        # a failed run still leaves a manifest, which `report` counts
        manifest.update(wall_time_s=round(time.perf_counter() - t0, 3), passed=False,
                        error={"type": type(exc).__name__, "message": str(exc)})
        _write_json(_output(out, f"manifest_{command}.json"), manifest)
        raise
    manifest.update(wall_time_s=round(time.perf_counter() - t0, 3),
                    outputs=[Path(p).name for p in outputs], contracts=contracts,
                    passed=all(contracts.values()))
    _write_json(_output(out, f"manifest_{command}.json"), manifest)
    return manifest


def emit_report(results_dir) -> dict:
    """Aggregate manifest contract outcomes into one summary dictionary."""
    out = Path(results_dir)
    manifests = sorted(out.glob("manifest_*.json"))
    _require(bool(manifests), f"no manifest found under {out}")
    experiments = {}
    for mpath in manifests:
        try:
            data = json.loads(mpath.read_text())
            command, passed = data["command"], data["passed"]
        except (json.JSONDecodeError, UnicodeDecodeError, TypeError, KeyError) as exc:
            raise InvalidConfig(f"{mpath} is not a qnls manifest: "
                                f"{type(exc).__name__}: {exc}") from exc
        # a string "false" would otherwise count as a pass
        _require(isinstance(command, str) and isinstance(passed, bool),
                 f"{mpath} is not a qnls manifest: command must be a string "
                 f"and passed a boolean")
        experiments[command] = "pass" if passed else "fail"
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
    except MemoryError as exc:
        # the failed run's manifest records it; numpy's message names the size
        print(f"out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
