"""Sampled truncated Hilbert transform matrix and its application.

Data samples live at x_i = a1 + i*step on [a1, a3]; object samples at
y_j = a1 + (c + j)*step for the lattice offset c = k0 + shift, k0 the
first index k with a2 - step < a1 + (k + shift)*step, and j counting up
while y_j < a4.  In units of the step the kernel is

    H[i, j] = 1 / (pi (c + j - i)),

the sampled (1/pi) step / (y_j - x_i).  The default shift of half a step
puts every object point midway between two data points, whatever the
breakpoints, so every entry is finite and the principal value needs no
further regularization.  For the reference geometry (0, 450, 1350, 1725)
at step 1 this yields the 1351 x 1276 matrix used by all large-scale
experiments.

DiscreteOperator.nodes holds the nodes i and c + j.  The formed matrix,
the FFT spectrum and the structured solver's input are all built from
them, so they describe one operator at every step, whatever the size of
the breakpoints: translating a geometry leaves them bit for bit the same.
H[i, j] depends only on j - i, so the operator is a Toeplitz section of a
discrete convolution, fixed by its first column and first row;
apply_forward and apply_adjoint multiply by FFT from those m + n - 1
kernel values and never form the m x n matrix.  At a dyadic shift such
as the default, c + j - i is exact and the formed matrix exactly Toeplitz.

build_operator decides the grids in O(1) by index arithmetic, and refuses
more than MAX_SAMPLES data x object samples before anything is allocated.

Discrete inner products carry the weight `step` on both grids so vector
norms approximate L2 norms of the sampled functions.
"""

import math
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


def kernel_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kernel entries 1 / (pi (y_j - x_i)) for data nodes x, object nodes y in steps.

    One (x.size, y.size) array, divided in place.
    """
    rows = np.subtract(y[None, :], x[:, None])
    return np.divide(1 / np.pi, rows, out=rows)


@dataclass(frozen=True)
class DiscreteOperator:
    """The sampled operator, defined by its grids; rows = data, cols = object.

    offset is c, the object grid's offset from the data lattice in steps.
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
    offset: float

    @property
    def shape(self) -> tuple[int, int]:
        return self.data_grid.count, self.object_grid.count

    @property
    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Data nodes i and object nodes offset + j: the kernel in step units.

        On them the matrix is 1 / (pi (y_j - x_i)), a Cauchy matrix of scale 1/pi.
        """
        m, n = self.shape
        return np.arange(float(m)), self.offset + np.arange(float(n))

    @cached_property
    def matrix(self) -> np.ndarray:
        return kernel_rows(*self.nodes)

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
        x, y = self.nodes
        kern = np.zeros(self.fft_size)
        kern[:x.size] = kernel_rows(x, y[:1])[:, 0]
        kern[kern.size - y.size + 1:] = kernel_rows(x[:1], y[:0:-1])[0]
        return np.fft.rfft(kern)


# Largest data x object sample count of a grid: about 12x the paper's
# 1351 x 1276.  The solver keeps a few dense m x n arrays, so a larger grid
# would exhaust memory (or fail inside numpy) long after it was accepted.
MAX_SAMPLES = 2e7


def build_operator(geom: Geometry, step: float = 1.0, shift: float = 0.5) -> DiscreteOperator:
    """The sampled operator, its grids decided in O(1); its matrix is not yet formed.

    shift is the offset of the object grid from the data lattice
    a1 + i*step, as a fraction of step in (0, 1), for any breakpoints.
    Breakpoints that are not multiples of step round the data count down.
    Raises GridError unless step is a finite real > 0, with (a3 - a1) / step
    finite, and shift a real in (0, 1); if the object grid is empty; if the
    grids hold more than MAX_SAMPLES data x object samples; or if an object
    sample may land within 1e-12 step of a data sample, where the kernel
    would be singular: at breakpoints too large for the step to resolve,
    or at a shift that close to 0 or 1.
    """
    step = real("step", step, 0, error=GridError)
    shift = real("shift", shift, 0, 1, error=GridError)
    a1, a2, a3, a4 = geom.points

    span = real("(a3 - a1) / step", (a3 - a1) / step, error=GridError)
    n_data = math.floor(span + 1e-9) + 1
    # object nodes a1 + (k + shift)*step with a2 - step < node < a4; a count
    # past the double range reads inf
    k0 = math.floor((a2 - a1) / step - 1.0 - shift) + 1
    n_object = float(np.ceil((a4 - a1) / step - shift)) - k0
    if n_object < 1:
        raise GridError("empty object grid; step too large for the geometry")
    if n_object == math.inf:
        raise GridError(f"the object span (a4 - a1) / step leaves the double range, "
                        f"so the samples exceed the cap of {MAX_SAMPLES:g}")
    if not n_data * n_object <= MAX_SAMPLES:
        raise GridError(f"{n_data:g} x {n_object:g} samples exceed the cap of {MAX_SAMPLES:g}")

    # a data and an object sample carry six roundings of half an ulp between
    # them, each of a value below 2 max(|a1|, |a4|) + step in magnitude
    offset = k0 + shift
    slack = 3 * math.ulp(2 * max(abs(a1), abs(a4)) + step)
    if abs(offset - round(offset)) * step - slack < 1e-12 * step:
        raise GridError("object and data grids collide: samples within 1e-12 step")

    return DiscreteOperator(
        data_grid=SampledGrid(start=float(a1), step=step, count=n_data),
        object_grid=SampledGrid(start=float(a1 + step * offset), step=step,
                                count=int(n_object)),
        step=step, geom=geom, offset=offset)


def apply_forward(op: DiscreteOperator, f: np.ndarray) -> np.ndarray:
    """Forward transform: sampled principal-value integral of f.

    A cyclic convolution of f with the kernel, zero-padded to fft_size.
    Its unnormalised sums reach about fft_size max |f|, so entries within
    that factor of the largest double overflow: from about 1e306 on the
    small preset, whose fft_size is 256.
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
