"""Workloads, reference tolerances and metric names of the qnls benchmark.

Each workload is a closed loop with one client: its commands run through
`qnls.cli.run_experiment` one after another with `jobs=1`.  README.md in
this directory gives the reason for every choice below.
"""

from __future__ import annotations

from typing import NamedTuple


class Command(NamedTuple):
    name: str
    config: dict
    seeded: bool = False    # numerics depend on the seed (reference per seed)


TRACE_A = [0.25, 0.5, 1.0, 2.0]

WORKLOADS = {
    "contraction": [Command("contraction", {"k_iters": 3})],
    "trace": [
        Command("trace-check", {"a_list": TRACE_A, "lambda_list": [0.0, 0.25, 0.5],
                                "n": 4096}),
        Command("trace-check", {"a_list": TRACE_A, "lambda_list": [-0.25], "n": 4096}),
    ],
    "jsweep": [Command("j-sweep", {})],
    "lab": [
        Command("verify-bilinear", {"n_pairs": 5}, seeded=True),
        Command("simulate", {"nx": 4097, "dt": 5e-4}),
        Command("mass-track", {}),
        Command("dispersion-sweep", {}, seeded=True),
        Command("region-map", {}),
    ],
}

# Thread-count variables of the BLAS and OpenMP runtimes; the benchmark sets
# each to 1 in its own child processes so one pass uses one core.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# References are committed for qnls seeds 0 .. REFERENCE_SEEDS-1; the
# benchmark seed is reduced modulo this count.
REFERENCE_SEEDS = 32

# Relative tolerance of the reference-output check, per command.  A number
# matches when it is within rtol times the largest magnitude of its column
# (CSV) or key path (JSON).  The boundary commands inherit the forcing_field
# quadrature tolerance, j-sweep the sweep's rel_tol; the others compute
# without a quadrature tolerance and are held to rounding level.
RTOL = {
    "contraction": 1e-5,
    "trace-check": 1e-5,
    "j-sweep": 3e-4,
    "verify-bilinear": 1e-9,
    "simulate": 1e-9,
    "mass-track": 1e-9,
    "dispersion-sweep": 1e-9,
    "region-map": 1e-9,
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_FUNCS = {
    "boundary": ("forcing_field", "trace_check"),
    "fractional": ("rl_apply",),
    "spectral": ("duhamel", "group_field", "bourgain_norm"),
    "ibvp": ("simulate", "contraction_iterate"),
    "bilinear": ("j_sup_sweep", "j_eval", "bilinear_ratio"),
    "quadrature": ("integrate_with_tail", "adaptive_panels", "panel_sums"),
    "dispersion": ("sample_quadruples", "lower_bound_residual"),
    "cli": ("run_experiment",),
}

PER_LAYER = {}
for _layer, _fns in _FUNCS.items():
    for _fn in _fns:
        PER_LAYER[f"{_layer}.{_fn}.calls"] = "count"
        PER_LAYER[f"{_layer}.{_fn}.self_s"] = "s"
    PER_LAYER[f"{_layer}.self_s"] = "s"
PER_LAYER.update({
    "boundary.forcing_field.points": "count",
    "ibvp.simulate.steps": "count",
    "ibvp.contraction_iterate.iterations": "count",
    "bilinear.j_eval.fallback_frac": "ratio",
    "quadrature.panel_sums.nodes": "count",
    "quadrature.nodes_per_integral": "count",
    "cli.bytes_written": "B",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
})

# Counters that must be non-zero in the traced pass of a workload.  A zero
# means a layer the workload is known to exercise went un-instrumented.
EXPECT_NONZERO = {
    "contraction": ("boundary.forcing_field.calls", "boundary.forcing_field.points",
                    "fractional.rl_apply.calls", "spectral.duhamel.calls",
                    "spectral.group_field.calls", "ibvp.contraction_iterate.calls",
                    "ibvp.contraction_iterate.iterations", "ibvp.simulate.calls",
                    "cli.run_experiment.calls", "cli.bytes_written"),
    "trace": ("boundary.trace_check.calls", "boundary.forcing_field.calls",
              "boundary.forcing_field.points", "fractional.rl_apply.calls",
              "cli.run_experiment.calls", "cli.bytes_written"),
    "jsweep": ("bilinear.j_sup_sweep.calls", "bilinear.j_eval.calls",
               "quadrature.integrate_with_tail.calls", "quadrature.adaptive_panels.calls",
               "quadrature.panel_sums.calls", "quadrature.panel_sums.nodes",
               "cli.run_experiment.calls", "cli.bytes_written"),
    "lab": ("bilinear.bilinear_ratio.calls", "spectral.bourgain_norm.calls",
            "ibvp.simulate.calls", "ibvp.simulate.steps",
            "dispersion.sample_quadruples.calls", "dispersion.lower_bound_residual.calls",
            "cli.run_experiment.calls", "cli.bytes_written"),
}
