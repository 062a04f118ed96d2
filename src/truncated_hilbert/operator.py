"""Sampled truncated Hilbert transform matrix and its application.

Data samples live at x_i = a1 + i*step on [a1, a3]; object samples at
y_k = a1 + (k + shift)*step for the integers k with a2 - step < y_k < a4.
The default shift of half a step puts every object point midway between
two data points, whatever the breakpoints, so every kernel entry

    H[i, j] = (step / pi) / (y_j - x_i)

is finite, and the principal value needs no further regularization.  For
the reference geometry (0, 450, 1350, 1725) at step 1 this yields the
1351 x 1276 matrix used by all large-scale experiments.

Discrete inner products carry the weight `step` on both grids so vector
norms approximate L2 norms of the sampled functions.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError
from .geometry import Geometry


@dataclass(frozen=True)
class SampledGrid:
    """Uniform grid start + k*step for k = 0..count-1."""

    start: float
    step: float
    count: int

    def __post_init__(self):
        if self.step <= 0:
            raise GridError(f"step must be positive, got {self.step}")
        if self.count < 1:
            raise GridError(f"count must be >= 1, got {self.count}")

    @property
    def points(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)


def kernel_rows(x: np.ndarray, y: np.ndarray, step: float) -> np.ndarray:
    """Kernel entries (step/pi) / (y_j - x_i) for data samples x, object samples y.

    One (x.size, y.size) array, divided in place.
    """
    rows = np.subtract(y[None, :], x[:, None])
    return np.divide(step / np.pi, rows, out=rows)


@dataclass(frozen=True)
class DiscreteOperator:
    """The sampled operator, defined by its grids; rows = data, cols = object.

    The dense kernel matrix is formed on first access to `matrix` and kept;
    the structured decomposition and its reconstruction check never need it.
    """

    data_grid: SampledGrid
    object_grid: SampledGrid
    step: float
    geom: Geometry

    @property
    def shape(self) -> tuple[int, int]:
        return self.data_grid.count, self.object_grid.count

    @cached_property
    def matrix(self) -> np.ndarray:
        return kernel_rows(self.data_grid.points, self.object_grid.points, self.step)


def sample_grids(geom: Geometry, step: float = 1.0,
                 shift: float = 0.5) -> tuple[SampledGrid, SampledGrid]:
    """Data and object grids of the sampled operator, in O(m + n).

    shift is the offset of the object grid from the data lattice
    a1 + i*step, as a fraction of step in (0, 1), for any breakpoints.
    Breakpoints that are not multiples of step round the data count down.
    Raises GridError if an object sample lands within 1e-12 step of a data
    sample, where the kernel would be singular: at breakpoints too large
    for the step to resolve, or at a shift that close to 0 or 1.
    """
    if step <= 0:
        raise GridError(f"step must be positive, got {step}")
    if not (0.0 < shift < 1.0):
        raise GridError(f"shift must lie strictly in (0, 1), got {shift}")
    a1, a2, a3, a4 = geom.points

    n_data = int(np.floor((a3 - a1) / step + 1e-9)) + 1
    x = a1 + step * np.arange(n_data)

    # lattice indices around (a2 - step, a4) with spares; the rounded nodes decide
    k = np.arange(np.floor((a2 - a1) / step) - 2.0, np.ceil((a4 - a1) / step) + 1.0)
    y_cand = a1 + step * (k + shift)
    y = y_cand[(y_cand > a2 - step) & (y_cand < a4)]
    if y.size == 0:
        raise GridError("empty object grid; step too large for the geometry")

    # x ascends, so the closest data sample to each y is one of its two
    # neighbours in sorted order
    i = np.searchsorted(x, y)
    gap = np.minimum(np.abs(y - x[np.maximum(i - 1, 0)]),
                     np.abs(y - x[np.minimum(i, n_data - 1)]))
    if gap.min() < 1e-12 * step:
        raise GridError("object and data grids collide: samples within 1e-12 step")

    return (SampledGrid(start=float(x[0]), step=step, count=n_data),
            SampledGrid(start=float(y[0]), step=step, count=int(y.size)))


def build_operator(geom: Geometry, step: float = 1.0, shift: float = 0.5) -> DiscreteOperator:
    """The sampled operator on the grids of sample_grids; its matrix is not yet formed."""
    data_grid, object_grid = sample_grids(geom, step, shift)
    return DiscreteOperator(data_grid=data_grid, object_grid=object_grid,
                            step=step, geom=geom)


def apply_forward(op: DiscreteOperator, f: np.ndarray) -> np.ndarray:
    """Forward transform: sampled principal-value integral of f."""
    f = np.asarray(f, dtype=float)
    if f.shape != (op.shape[1],):
        raise ValueError(f"expected object vector of length {op.shape[1]}, "
                         f"got shape {f.shape}")
    return op.matrix @ f


def apply_adjoint(op: DiscreteOperator, g: np.ndarray) -> np.ndarray:
    """Adjoint in the step-weighted inner products (plain transpose)."""
    g = np.asarray(g, dtype=float)
    if g.shape != (op.shape[0],):
        raise ValueError(f"expected data vector of length {op.shape[0]}, "
                         f"got shape {g.shape}")
    return op.matrix.T @ g


def weighted_norm(v: np.ndarray, step: float) -> float:
    return float(np.sqrt(step) * np.linalg.norm(v))
