"""Uniform-grid containers: time series, spatial fields, spacetime fields.

All containers are plain value types over complex numpy arrays.  CSV
serialization keeps the files diff-able: one sample per row, real and
imaginary parts in separate columns.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonPositiveStep

_FMT = "%.17g"
#: the most steps of a uniform lattice: past 2**53, t0 + k*dt stops naming distinct points
MAX_STEPS = 2 ** 53


def write_csv(path, header: list[str], rows) -> None:
    """One header row, then the rows; floats as %.17g, which round-trips them."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_FMT % v if isinstance(v, float) else v for v in row])


def _interp(x, xp, fp, left=None, right=None) -> np.ndarray:
    """np.interp of complex samples: the end samples outside xp, or left and right."""
    return np.interp(x, xp, fp.real, left, right) + 1j * np.interp(x, xp, fp.imag, left, right)


def _as_complex(values) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    return arr


@dataclass
class TimeSeries:
    """Uniformly sampled complex signal on [t0, t0 + (n-1)*dt]."""

    t0: float
    dt: float
    samples: np.ndarray

    def __post_init__(self):
        if self.dt <= 0:
            raise NonPositiveStep(f"dt must be positive, got {self.dt}")
        self.samples = _as_complex(self.samples)
        if self.samples.ndim != 1 or self.samples.size < 2:
            raise ValueError("need a 1-d signal with at least two samples")

    @property
    def n(self) -> int:
        return self.samples.size

    @cached_property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * (self.n - 1)

    def sup(self) -> float:
        return float(np.max(np.abs(self.samples)))

    def copy(self) -> "TimeSeries":
        return TimeSeries(self.t0, self.dt, self.samples.copy())

    def __call__(self, t) -> np.ndarray:
        """Linear interpolation, zero outside the sampled window."""
        return _interp(t, self.times, self.samples, 0.0, 0.0)


@dataclass
class GridFunction:
    """Complex field sampled on a uniform spatial grid."""

    x0: float
    dx: float
    samples: np.ndarray

    def __post_init__(self):
        self.samples = _as_complex(self.samples)
        if self.samples.ndim != 1 or self.samples.size < 2:
            raise ValueError("need a 1-d field with at least two samples")

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    def l2(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.samples) ** 2) * self.dx))

    def __call__(self, x) -> np.ndarray:
        """Linear interpolation, the end samples outside the grid."""
        return _interp(x, self.x, self.samples)

    def to_csv(self, path) -> None:
        write_csv(path, ["x", "re", "im"],
                  zip(self.x, self.samples.real, self.samples.imag))


@dataclass
class SpaceTimeField:
    """Complex field on an (x, t) grid, shape (nx, nt), both powers of two."""

    x0: float
    dx: float
    t0: float
    dt: float
    samples: np.ndarray

    def __post_init__(self):
        if self.dx <= 0 or self.dt <= 0:
            raise NonPositiveStep("dx and dt must be positive")
        self.samples = _as_complex(self.samples)
        if self.samples.ndim != 2:
            raise ValueError("samples must be a 2-d (nx, nt) array")
        nx, nt = self.samples.shape
        if nx & (nx - 1) or nt & (nt - 1):
            raise ValueError(f"nx and nt must be powers of two, got {nx}x{nt}")

    @property
    def nx(self) -> int:
        return self.samples.shape[0]

    @property
    def nt(self) -> int:
        return self.samples.shape[1]

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    @property
    def t(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.nt)

    def l2(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.samples) ** 2) * self.dx * self.dt))

    def to_csv(self, path) -> None:
        write_csv(path, ["x", "t", "re", "im"],
                  ((x, t, z.real, z.imag) for x, row in zip(self.x, self.samples)
                   for t, z in zip(self.t, row)))
