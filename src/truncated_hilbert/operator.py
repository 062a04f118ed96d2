"""Sampled truncated Hilbert transform matrix and its application.

Data samples live at x_i = a1 + i*step on [a1, a3]; object samples at
y_j = a2 - shift*step + j*step, kept while y_j < a4 (one extra boundary
sample just below a2).  With the default shift of half a step no object
point ever coincides with a data point, every kernel entry

    H[i, j] = (step / pi) / (y_j - x_i)

is finite, and the principal value needs no further regularization.  For
the reference geometry (0, 450, 1350, 1725) at step 1 this yields the
1351 x 1276 matrix used by all large-scale experiments.

Discrete inner products carry the weight `step` on both grids so vector
norms approximate L2 norms of the sampled functions.
"""

from dataclasses import dataclass

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


@dataclass(frozen=True)
class DiscreteOperator:
    """Dense kernel matrix with its grids; rows = data, cols = object."""

    matrix: np.ndarray
    data_grid: SampledGrid
    object_grid: SampledGrid
    step: float
    geom: Geometry

    @property
    def shape(self):
        return self.matrix.shape


def sample_grids(geom: Geometry, step: float = 1.0,
                 shift: float = 0.5) -> tuple[SampledGrid, SampledGrid]:
    """Data and object grids of the sampled operator, in O(m + n).

    shift is the offset of the object grid relative to the data grid, as a
    fraction of step in (0, 1).  Breakpoints that are not multiples of step
    round the sample counts down.  Raises GridError if an object sample
    coincides with a data sample, where the kernel would be singular.
    """
    if step <= 0:
        raise GridError(f"step must be positive, got {step}")
    if not (0.0 < shift < 1.0):
        raise GridError(f"shift must lie strictly in (0, 1), got {shift}")
    a1, a2, a3, a4 = geom.points

    n_data = int(np.floor((a3 - a1) / step + 1e-9)) + 1
    x = a1 + step * np.arange(n_data)

    j_max = int(np.floor((a4 - a2) / step + 1e-9)) + 1
    y_cand = a2 - shift * step + step * np.arange(j_max + 1)
    y = y_cand[(y_cand > a2 - step) & (y_cand < a4)]
    if y.size == 0:
        raise GridError("empty object grid; step too large for the geometry")

    # x ascends, so the closest data sample to each y is one of its two
    # neighbours in sorted order
    i = np.searchsorted(x, y)
    gap = np.minimum(np.abs(y - x[np.maximum(i - 1, 0)]),
                     np.abs(y - x[np.minimum(i, n_data - 1)]))
    if gap.min() < 1e-12 * step:
        raise GridError("object and data grids collide; adjust shift or step")

    return (SampledGrid(start=float(x[0]), step=step, count=n_data),
            SampledGrid(start=float(y[0]), step=step, count=int(y.size)))


def build_operator(geom: Geometry, step: float = 1.0, shift: float = 0.5) -> DiscreteOperator:
    """Assemble the sampled operator on the grids of sample_grids."""
    data_grid, object_grid = sample_grids(geom, step, shift)
    diff = object_grid.points[None, :] - data_grid.points[:, None]
    matrix = (step / np.pi) / diff
    return DiscreteOperator(matrix=matrix, data_grid=data_grid,
                            object_grid=object_grid, step=step, geom=geom)


def apply_forward(op: DiscreteOperator, f: np.ndarray) -> np.ndarray:
    """Forward transform: sampled principal-value integral of f."""
    f = np.asarray(f, dtype=float)
    if f.shape != (op.matrix.shape[1],):
        raise ValueError(f"expected object vector of length {op.matrix.shape[1]}, "
                         f"got shape {f.shape}")
    return op.matrix @ f


def apply_adjoint(op: DiscreteOperator, g: np.ndarray) -> np.ndarray:
    """Adjoint in the step-weighted inner products (plain transpose)."""
    g = np.asarray(g, dtype=float)
    if g.shape != (op.matrix.shape[0],):
        raise ValueError(f"expected data vector of length {op.matrix.shape[0]}, "
                         f"got shape {g.shape}")
    return op.matrix.T @ g


def weighted_dot(a: np.ndarray, b: np.ndarray, step: float) -> float:
    return step * float(np.dot(a, b))


def weighted_norm(v: np.ndarray, step: float) -> float:
    return float(np.sqrt(step) * np.linalg.norm(v))
