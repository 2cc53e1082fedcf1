"""The grid containers' interpolation and their CSV tables."""

import csv

import numpy as np

from qnls.grids import GridFunction, TimeSeries
from qnls.ibvp import MassLedger


def test_each_interpolant_keeps_its_rule_outside_its_grid():
    # a time series (a boundary datum) is zero outside its window; a grid
    # function holds its end samples
    samples = [1 + 2j, 3 - 1j, -1j]
    f = TimeSeries(1.0, 0.5, samples)
    np.testing.assert_array_equal(f([0.5, 1.0, 1.25, 2.0, 2.5]), [0, 1 + 2j, 2 + 0.5j, -1j, 0])
    w = GridFunction(0.0, 2.0, samples)
    np.testing.assert_array_equal(w(np.array([-1.0, 0.0, 1.0, 4.0, 9.0])),
                                  [1 + 2j, 1 + 2j, 2 + 0.5j, -1j, -1j])


def test_mass_ledger_table_reads_back_exactly(tmp_path):
    rng = np.random.default_rng(0)
    cols = rng.standard_normal((5, 7)) * 10.0 ** rng.integers(-300, 300, (5, 7))
    MassLedger(*cols).to_csv(tmp_path / "ledger.csv")
    with open(tmp_path / "ledger.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "M", "flux_u", "flux_v", "residual"]
    np.testing.assert_array_equal(np.array(rows[1:], dtype=float).T, cols)
