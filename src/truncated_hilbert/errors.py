"""Exception hierarchy shared across the package, and its one argument checker."""

import math
import numbers

_DOUBLE_MAX = 1.7976931348623157e308   # sys.float_info.max


def real(name, x, lo=-math.inf, hi=math.inf, *, closed=False, integer=False,
         error=ValueError):
    """x as a Python float, or int with integer=True, if it is a usable number.

    Raises error, naming name and the interval, for a bool (numpy's too),
    anything not a numbers.Real (a string, None, a 0-d array), nan, +-inf,
    an int past the double range, anything outside (lo, hi), or [lo, hi)
    when closed, and with integer=True anything not a numbers.Integral.
    """
    if isinstance(x, float) and not integer:   # float and np.float64: no ABC check
        v = x
    elif type(x) is int or isinstance(x, numbers.Integral) and not isinstance(x, bool):
        v = int(x)
    elif isinstance(x, numbers.Real) and not isinstance(x, bool) and not integer:
        v = float(x)                            # np.float32 compares without numpy
    else:
        v = math.nan
    if -_DOUBLE_MAX <= v <= _DOUBLE_MAX and (lo <= v if closed else lo < v) and v < hi:
        return v if integer else float(v)
    raise error(f"{name} must be {'an integer' if integer else 'a finite real'} in "
                f"{'[' if closed else '('}{float(lo)!r}, {float(hi)!r}), got {x!r}")


class TruncatedHilbertError(Exception):
    """Base class for all errors raised by this package."""


class GeometryError(TruncatedHilbertError):
    """Invalid interval geometry or region-of-interest parameter."""


class QuadratureError(TruncatedHilbertError):
    """Quadrature failed to reach the requested tolerance.

    Carries the last estimate and its error bound so callers can decide
    whether the partial result is still usable.
    """

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class GridError(TruncatedHilbertError):
    """Discrete operator construction failed (e.g. grid collision)."""


class SpectralError(TruncatedHilbertError):
    """SVD computation or post-processing failed."""


class DomainError(TruncatedHilbertError):
    """Evaluation point outside the validity region of an asymptotic form."""


class BoundNotApplicableError(TruncatedHilbertError):
    """A stability bound was requested outside its validity regime."""


class ConfigError(TruncatedHilbertError):
    """Invalid experiment configuration."""
