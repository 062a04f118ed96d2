"""Sampled truncated Hilbert transform matrix and its application.

Data samples live at x_i = a1 + i*step on [a1, a3]; object samples at
y_k = a1 + (k + shift)*step for the integers k with a2 - step < y_k < a4.
The default shift of half a step puts every object point midway between
two data points, whatever the breakpoints, so every kernel entry

    H[i, j] = (step / pi) / (y_j - x_i)

is finite, and the principal value needs no further regularization.  For
the reference geometry (0, 450, 1350, 1725) at step 1 this yields the
1351 x 1276 matrix used by all large-scale experiments.

Both grids share one step, so y_j - x_i depends only on j - i: the
operator is a Toeplitz section of a discrete convolution, fixed by its
first column and first row.  apply_forward and apply_adjoint multiply by
FFT from those m + n - 1 kernel values and never form the m x n matrix.
Away from integer nodes, rounding takes the formed matrix off Toeplitz
form by up to about 6e-14 relative; the products follow its first column
and row.

Discrete inner products carry the weight `step` on both grids so vector
norms approximate L2 norms of the sampled functions.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError, real
from .geometry import Geometry


@dataclass(frozen=True)
class SampledGrid:
    """Uniform grid start + k*step for k = 0..count-1.

    Raises GridError unless start is a finite real, step a finite real
    > 0 and count an integer >= 1 (errors.real).
    """

    start: float
    step: float
    count: int

    def __post_init__(self):
        real("start", self.start, error=GridError)
        real("step", self.step, 0, error=GridError)
        real("count", self.count, 1, closed=True, integer=True, error=GridError)

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

    H[i, j] depends only on j - i, so `kernel_spectrum` keeps the m + n - 1
    kernel values as one spectrum, which apply_forward and apply_adjoint
    multiply by.  The dense kernel matrix is formed on first access to
    `matrix` and kept; no command reads it: only compute_svd(method="lapack")
    and the checks of the tests and the benchmark do.
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

    @property
    def fft_size(self) -> int:
        """The power of two >= m + n - 1 at which a product wraps no term around."""
        m, n = self.shape
        return 1 << (m + n - 2).bit_length()

    @cached_property
    def kernel_spectrum(self) -> np.ndarray:
        """rfft of the kernel laid out cyclically by i - j.

        H[i, 0] sits at i and H[0, j] at fft_size - j.
        """
        x, y = self.data_grid.points, self.object_grid.points
        kern = np.zeros(self.fft_size)
        kern[:x.size] = kernel_rows(x, y[:1], self.step)[:, 0]
        kern[kern.size - y.size + 1:] = kernel_rows(x[:1], y[:0:-1], self.step)[0]
        return np.fft.rfft(kern)


def sample_grids(geom: Geometry, step: float = 1.0,
                 shift: float = 0.5) -> tuple[SampledGrid, SampledGrid]:
    """Data and object grids of the sampled operator, in O(m + n).

    shift is the offset of the object grid from the data lattice
    a1 + i*step, as a fraction of step in (0, 1), for any breakpoints.
    Breakpoints that are not multiples of step round the data count down.
    Raises GridError unless step is a finite real > 0, with (a3 - a1) / step
    finite, and shift a real in (0, 1), or if an object sample lands within
    1e-12 step of a data sample, where the kernel would be singular: at
    breakpoints too large for the step to resolve, or at a shift that
    close to 0 or 1.
    """
    step = real("step", step, 0, error=GridError)
    shift = real("shift", shift, 0, 1, error=GridError)
    a1, a2, a3, a4 = geom.points

    span = real("(a3 - a1) / step", (a3 - a1) / step, error=GridError)
    n_data = int(np.floor(span + 1e-9)) + 1
    x = a1 + step * np.arange(n_data)

    # lattice indices around (a2 - step, a4) with spares; the rounded nodes
    # decide.  A step near the double range overflows only spares to +-inf
    k = np.arange(np.floor((a2 - a1) / step) - 2.0, np.ceil((a4 - a1) / step) + 1.0)
    with np.errstate(over="ignore"):
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
                            step=data_grid.step, geom=geom)


def apply_forward(op: DiscreteOperator, f: np.ndarray) -> np.ndarray:
    """Forward transform: sampled principal-value integral of f.

    A cyclic convolution of f with the kernel, zero-padded to fft_size.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (op.shape[1],):
        raise ValueError(f"expected object vector of length {op.shape[1]}, "
                         f"got shape {f.shape}")
    size = op.fft_size
    spec = np.fft.rfft(f, size)
    spec *= op.kernel_spectrum
    return np.fft.irfft(spec, size)[:op.shape[0]]


def apply_adjoint(op: DiscreteOperator, g: np.ndarray) -> np.ndarray:
    """Adjoint in the step-weighted inner products (plain transpose).

    The cyclic correlation of g with the kernel: the conjugate spectrum.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (op.shape[0],):
        raise ValueError(f"expected data vector of length {op.shape[0]}, "
                         f"got shape {g.shape}")
    size = op.fft_size
    spec = np.fft.rfft(g, size)
    spec *= op.kernel_spectrum.conj()
    return np.fft.irfft(spec, size)[:op.shape[1]]


def weighted_norm(v: np.ndarray, step: float) -> float:
    """sqrt(step) |v|; ValueError unless step is a finite real > 0."""
    return float(np.sqrt(real("step", step, 0)) * np.linalg.norm(v))
