"""One argument contract for the public API, checked by one property sweep.

TABLE lists every callable in truncated_hilbert's namespace with the
legal range of each of its numeric parameters, and how to call it with
one value in that parameter's place; a callable with no numeric
parameter has an empty entry.  Vector arguments (data and object
vectors) are not numeric parameters here.  UNCHECKED names the callables
whose numeric parameters are not checked, each with its reason.

For every listed parameter:
* hostile values (bools, numpy bools, +-10**400, nan, +-inf, strings,
  None, 0-d arrays, values just outside the range, non-integers where an
  integer is due) must raise ValueError or TruncatedHilbertError;
* legal values drawn by hypothesis may return, or raise only those two;
  the suite turns every warning into an error, so none may occur.
"""

import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import truncated_hilbert as th
from conftest import SMALL_PRESET_GEOM, TINY_GEOM

SMALL = SMALL_PRESET_GEOM            # (0, 30, 90, 115): overlap 60
MU = 8.0
_MAX = sys.float_info.max
_REFUSALS = (ValueError, th.TruncatedHilbertError)


@dataclass(frozen=True)
class Arg:
    """A numeric parameter: legal values lo < x < hi, or [lo, hi) when closed.

    call(ctx, x) calls the function with x in this parameter's place and
    legal values elsewhere; ok is a legal value for which it returns.  lo,
    hi and ok may be functions of ctx.  optional: None is legal too.
    unhashable: why a 0-d array fails with TypeError instead.
    """

    call: Callable[[Any, Any], Any]
    ok: Any
    lo: Any = -math.inf
    hi: Any = math.inf
    closed: bool = False
    integer: bool = False
    optional: bool = False
    unhashable: str = ""


def _at(value, ctx):
    return value(ctx) if callable(value) else value


def _mu(call):
    """mu of the small preset, in (0, a3 - a2)."""
    return Arg(call, ok=MU, lo=0.0, hi=60.0)


def _index(call):
    """A position among the retained triples of the small preset system."""
    return Arg(call, ok=3, lo=0, hi=lambda c: c.sys.count, closed=True, integer=True)


def _n(call, lo=1):
    """An asymptotic index n >= lo."""
    return Arg(call, ok=5, lo=lo, closed=True, integer=True)


def _config(key, ok, lo=-math.inf, hi=math.inf, wrap=None, **kw):
    """A config key, given to load_config through its overrides."""
    def call(c, v):
        return th.load_config(None, small=True,
                              overrides={key: v if wrap is None else wrap(v)})
    return Arg(call, ok=ok, lo=lo, hi=hi, **kw)


def _bump(param):
    """make_phantom("bump", ...) with x as param, center 72.5 and width 10 otherwise."""
    return lambda c, v: th.make_phantom("bump", SMALL, c.op.object_grid,
                                        **{"center": 72.5, "width": 10.0, param: v})


# calibrate_constants measures these; None, the config's value, is the only one
_MEASURED = dict(lo=0.0, hi=0.0, optional=True)

TABLE = {
    # errors: a message only
    "TruncatedHilbertError": {}, "GeometryError": {}, "GridError": {},
    "SpectralError": {}, "DomainError": {}, "BoundNotApplicableError": {},
    "ConfigError": {},
    # geometry
    "Geometry": {
        "a1": Arg(lambda c, v: th.Geometry(v, 2.0, 6.0, 8.0), ok=0.0, hi=2.0),
        "a2": Arg(lambda c, v: th.Geometry(0.0, v, 6.0, 8.0), ok=2.0, lo=0.0, hi=6.0),
        "a3": Arg(lambda c, v: th.Geometry(0.0, 2.0, v, 8.0), ok=6.0, lo=2.0, hi=8.0),
        "a4": Arg(lambda c, v: th.Geometry(0.0, 2.0, 6.0, v), ok=8.0, lo=6.0),
    },
    "alpha": {}, "k_minus": {}, "k_plus": {}, "near_one_rate": {},
    "near_one_model_valid": {},
    "check_roi": {"mu": _mu(lambda c, v: th.check_roi(SMALL, v))},
    "beta_mu_exact": {"mu": _mu(lambda c, v: th.beta_mu_exact(SMALL, v))},
    "holder_exponent": {"mu": _mu(lambda c, v: th.holder_exponent(SMALL, v))},
    "beta_mu_approx": {"mu": Arg(lambda c, v: th.beta_mu_approx(SMALL, v), ok=MU,
                                 lo=0.0, closed=True)},
    # (a2, a3]: the open interval up to the double after a3
    "w3": {"x": Arg(lambda c, v: th.w3(TINY_GEOM, v), ok=4.0, lo=2.0,
                    hi=math.nextafter(6.0, math.inf),
                    unhashable="w3's lru_cache hashes its arguments before "
                               "the body runs, and an array is unhashable")},
    # operator
    "SampledGrid": {
        "start": Arg(lambda c, v: th.SampledGrid(v, 1.0, 3), ok=0.0),
        "step": Arg(lambda c, v: th.SampledGrid(0.0, v, 3), ok=1.0, lo=0.0),
        "count": Arg(lambda c, v: th.SampledGrid(0.0, 1.0, v), ok=3, lo=1, closed=True,
                     integer=True),
    },
    "build_operator": {
        # a step fine enough to exceed the grid cap is refused before the
        # grids are allocated, so draws span the whole legal range
        "step": Arg(lambda c, v: th.build_operator(TINY_GEOM, step=v), ok=1.0, lo=0.0),
        "shift": Arg(lambda c, v: th.build_operator(TINY_GEOM, shift=v), ok=0.5,
                     lo=0.0, hi=1.0),
    },
    "apply_forward": {}, "apply_adjoint": {},
    "weighted_norm": {"step": Arg(lambda c, v: th.weighted_norm(np.ones(3), v), ok=1.0,
                                  lo=0.0)},
    # spectral
    "compute_svd": {"rank_tol": Arg(lambda c, v: th.compute_svd(c.tiny_op, rank_tol=v),
                                    ok=1e-21, lo=0.0, optional=True)},
    "tail_index_map": {"tail_len": Arg(lambda c, v: th.tail_index_map(c.sys, v), ok=9,
                                       lo=1, hi=lambda c: c.sys.count + 1, closed=True,
                                       integer=True)},
    "fit_tail_decay": {"tail_len": Arg(lambda c, v: th.fit_tail_decay(c.sys, v), ok=9,
                                       lo=1, hi=lambda c: c.sys.count + 1, closed=True,
                                       integer=True, optional=True)},
    "fit_exponential": {
        "points n": Arg(lambda c, v: th.fit_exponential([(v, 1.0), (2, 0.5)]), ok=1,
                        integer=True),
        "points y": Arg(lambda c, v: th.fit_exponential([(1, v), (2, 0.5)]), ok=1.0,
                        lo=0.0),
    },
    "roi_mask": {"mu": _mu(lambda c, v: th.roi_mask(SMALL, c.op.object_grid, v))},
    "roi_norm": {"triple_index": _index(lambda c, v: th.roi_norm(c.sys, v, MU)),
                 "mu": _mu(lambda c, v: th.roi_norm(c.sys, 3, v))},
    "check_monotone": {"triple_index": _index(lambda c, v: th.check_monotone(c.sys, v))},
    "fit_roi_decay": {"mu": _mu(lambda c, v: th.fit_roi_decay(c.sys, v))},
    "near_one_tail_fit": {}, "sigma_counts": {},
    "export_spectrum_csv": {"mu_list entry": _mu(
        lambda c, v: th.export_spectrum_csv(c.sys, c.dir / "spectrum.csv", [v]))},
    # asymptotics
    "log_sigma_model": {"n": _n(lambda c, v: th.log_sigma_model(SMALL, v), lo=0)},
    "sigma_model_pos": {"n": _n(lambda c, v: th.sigma_model_pos(SMALL, v), lo=0)},
    "sigma_model_neg": {"n_abs": _n(lambda c, v: th.sigma_model_neg(SMALL, v))},
    "log_roi_norm_model": {"mu": _mu(lambda c, v: th.log_roi_norm_model(SMALL, v, 5)),
                           "n": _n(lambda c, v: th.log_roi_norm_model(SMALL, MU, v))},
    "roi_norm_model": {"mu": _mu(lambda c, v: th.roi_norm_model(SMALL, v, 5)),
                       "n": _n(lambda c, v: th.roi_norm_model(SMALL, MU, v))},
    "wkb_epsilon": {"n": _n(lambda c, v: th.wkb_epsilon(SMALL, v))},
    "wkb_profile": {"n": _n(lambda c, v: th.wkb_profile(SMALL, v))},
    "u_wkb": {"n": _n(lambda c, v: th.u_wkb(SMALL, v, 60.0)),
              # the validity interval of n = 5
              "x": Arg(lambda c, v: th.u_wkb(SMALL, 5, v), ok=60.0,
                       lo=lambda c: th.wkb_profile(SMALL, 5).validity_interval[0],
                       hi=lambda c: th.wkb_profile(SMALL, 5).validity_interval[1])},
    "wkb_roi_norm_quadrature": {
        "mu": _mu(lambda c, v: th.wkb_roi_norm_quadrature(SMALL, v, 5)),
        "n": _n(lambda c, v: th.wkb_roi_norm_quadrature(SMALL, MU, v))},
    # regularization
    "add_noise": {
        "delta": Arg(lambda c, v: th.add_noise(np.zeros(3), v, 1), ok=0.1, lo=0.0,
                     closed=True),
        "seed": Arg(lambda c, v: th.add_noise(np.zeros(3), 0.1, v), ok=1, lo=0,
                    closed=True, integer=True),
        "step": Arg(lambda c, v: th.add_noise(np.zeros(3), 0.1, 1, step=v), ok=1.0,
                    lo=0.0),
    },
    "optimal_cutoff_l2": {
        "delta": Arg(lambda c, v: th.optimal_cutoff_l2(v, 50.0, c.k), ok=1e-6, lo=0.0),
        "E": Arg(lambda c, v: th.optimal_cutoff_l2(1e-6, v, c.k), ok=50.0, lo=0.0),
    },
    "optimal_cutoff_tv": {
        "delta": Arg(lambda c, v: th.optimal_cutoff_tv(v, 1.0, c.k), ok=1e-6, lo=0.0),
        "kappa": Arg(lambda c, v: th.optimal_cutoff_tv(1e-6, v, c.k), ok=1.0, lo=0.0),
    },
    "tsvd_reconstruct": {"n_cut": Arg(
        lambda c, v: th.tsvd_reconstruct(c.sys, c.g, v), ok=3, lo=0, closed=True,
        integer=True)},
    "tikhonov_reconstruct": {"eta": Arg(
        lambda c, v: th.tikhonov_reconstruct(c.sys, c.g, v), ok=1e-6, lo=0.0)},
    "make_phantom": {
        # the support center -+ width lies inside (a2, a4) = (30, 115)
        "center": Arg(_bump("center"), ok=72.5, lo=40.0, hi=105.0),
        "width": Arg(_bump("width"), ok=10.0, lo=0.0, hi=42.5),
        "amplitude": Arg(_bump("amplitude"), ok=2.0),
        "c": Arg(lambda c, v: th.make_phantom("indicator", SMALL, c.op.object_grid,
                                              c=v, d=100.0), ok=40.0, lo=30.0, hi=100.0),
        "d": Arg(lambda c, v: th.make_phantom("indicator", SMALL, c.op.object_grid,
                                              c=40.0, d=v), ok=100.0, lo=40.0, hi=115.0),
        "half_width": Arg(lambda c, v: th.make_phantom(
            "hat", SMALL, c.op.object_grid, center=72.5, half_width=v),
            ok=10.0, lo=0.0, hi=42.5),
        "peak": Arg(lambda c, v: th.make_phantom(
            "hat", SMALL, c.op.object_grid, center=72.5, half_width=10.0, peak=v),
            ok=2.0),
    },
    "export_reconstruction": {},
    # bounds
    "AsymptoticConstants": {
        "A": Arg(lambda c, v: th.AsymptoticConstants(v, 5.0, 1.0, 2, 1.0), ok=1.5,
                 lo=0.0, hi=2.0),
        "alpha": Arg(lambda c, v: th.AsymptoticConstants(1.5, v, 1.0, 2, 1.0), ok=5.0,
                     lo=1.0),
        "beta_mu": Arg(lambda c, v: th.AsymptoticConstants(1.5, 5.0, v, 2, 1.0),
                       ok=1.0, lo=0.0, hi=5.0),
        "n_mu": Arg(lambda c, v: th.AsymptoticConstants(1.5, 5.0, 1.0, v, 1.0), ok=2,
                    lo=1, integer=True),
        "c_tv": Arg(lambda c, v: th.AsymptoticConstants(1.5, 5.0, 1.0, 2, v), ok=1.0,
                    lo=0.0),
    },
    "v_mu": {"alpha": Arg(lambda c, v: th.v_mu(v, 1.0), ok=5.0, lo=1.0),
             "beta_mu": Arg(lambda c, v: th.v_mu(5.0, v), ok=1.0, lo=0.0, hi=5.0)},
    "w_mu": {"alpha": Arg(lambda c, v: th.w_mu(v, 1.0, 1.0, 2), ok=5.0, lo=1.0),
             "beta_mu": Arg(lambda c, v: th.w_mu(5.0, v, 1.0, 2), ok=1.0, lo=0.0, hi=5.0),
             "c_tv": Arg(lambda c, v: th.w_mu(5.0, 1.0, v, 2), ok=1.0, lo=0.0),
             "n_mu": Arg(lambda c, v: th.w_mu(5.0, 1.0, 1.0, v), ok=2, lo=1, closed=True,
                         integer=True)},
    "calibrate_constants": {
        "mu": _mu(lambda c, v: th.calibrate_constants(c.sys, SMALL, v)),
        "c_tv": Arg(lambda c, v: th.calibrate_constants(c.sys, SMALL, MU, c_tv=v),
                    ok=None, **_MEASURED),
        "amplitude": Arg(lambda c, v: th.calibrate_constants(c.sys, SMALL, MU,
                                                             amplitude=v),
                         ok=None, **_MEASURED),
    },
    "l2_validity": {
        "delta": Arg(lambda c, v: th.l2_validity(v, 50.0, c.k), ok=1e-6, lo=0.0),
        "E": Arg(lambda c, v: th.l2_validity(1e-6, v, c.k), ok=50.0, lo=0.0),
    },
    "roi_bound_l2": {
        "delta": Arg(lambda c, v: th.roi_bound_l2(v, 50.0, c.k), ok=1e-6, lo=0.0),
        "E": Arg(lambda c, v: th.roi_bound_l2(1e-6, v, c.k), ok=50.0, lo=0.0),
    },
    "tv_validity": {
        "delta": Arg(lambda c, v: th.tv_validity(v, 1.0, c.k), ok=1e-6, lo=0.0),
        "kappa": Arg(lambda c, v: th.tv_validity(1e-6, v, c.k), ok=1.0, lo=0.0),
    },
    "roi_bound_tv": {
        "delta": Arg(lambda c, v: th.roi_bound_tv(v, 1.0, c.k), ok=1e-6, lo=0.0),
        "kappa": Arg(lambda c, v: th.roi_bound_tv(1e-6, v, c.k), ok=1.0, lo=0.0),
    },
    "full_interval_validity": {
        "delta": Arg(lambda c, v: th.full_interval_validity(v, 1.0, c.k), ok=1e-6,
                     lo=0.0),
        "kappa": Arg(lambda c, v: th.full_interval_validity(1e-6, v, c.k), ok=1.0,
                     lo=0.0),
    },
    "full_interval_bound": {
        "delta": Arg(lambda c, v: th.full_interval_bound(v, 1.0, c.k), ok=1e-6, lo=0.0),
        "kappa": Arg(lambda c, v: th.full_interval_bound(1e-6, v, c.k), ok=1.0, lo=0.0),
    },
    "write_bounds_csv": {
        "deltas entry": Arg(lambda c, v: th.write_bounds_csv(
            c.dir / "bounds.csv", [v], c.k, 50.0, 1.0), ok=1e-6, lo=0.0),
        "E": Arg(lambda c, v: th.write_bounds_csv(
            c.dir / "bounds.csv", [1e-6], c.k, v, 1.0), ok=50.0, lo=0.0),
        "kappa": Arg(lambda c, v: th.write_bounds_csv(
            c.dir / "bounds.csv", [1e-6], c.k, 50.0, v), ok=1.0, lo=0.0),
    },
    # config: the numeric keys, each given through load_config's overrides,
    # where None keeps the preset's value, as an unset command-line option does
    "default_config": {},
    "load_config": {
        "step": _config("step", 1.0, lo=0.0, optional=True),
        "E": _config("E", 50.0, lo=0.0, optional=True),
        "kappa": _config("kappa", 1.0, lo=0.0, optional=True),
        "seed": _config("seed", 1, lo=0, closed=True, integer=True, optional=True),
        "mu_list entry": _config("mu_list", MU, lo=0.0, hi=60.0, wrap=lambda v: [v]),
        "delta_list entry": _config("delta_list", 1e-6, lo=0.0, wrap=lambda v: [v]),
        "geometry entry": _config("geometry", 0.0, hi=30.0,
                                  wrap=lambda v: (v, 30.0, 90.0, 115.0)),
    },
}

UNCHECKED = {
    # records: each holds what one function computed from arguments it checked
    "ExperimentConfig": "load_config checks its values",
    "DiscreteOperator": "build_operator checks step and shift",
    "SingularSystem": "SingularSystem.of checks the factors against the operator",
    "TailFit": "a result of fit_exponential",
    "CutoffChoice": "a result of optimal_cutoff_l2 or optimal_cutoff_tv",
    "NoisyData": "a result of add_noise",
    "ReconstructionResult": "a result of tsvd_reconstruct or tikhonov_reconstruct",
    "WkbProfile": "wkb_profile checks n; its call checks x",
    "QuadratureError": "carries the last estimate of a failed quadrature",
    # vectorized: x may be any float array, a 0-d one included
    "poly_P": "x is a float or a float array",
}

PARAMS = [(name, param) for name, args in TABLE.items() for param in args]
SWEEP = pytest.mark.parametrize("name, param", PARAMS,
                                ids=[f"{n}-{p}" for n, p in PARAMS])


class _Ctx(SimpleNamespace):
    def __repr__(self):       # hypothesis prints the arguments of a failing example
        return "ctx"


@pytest.fixture(scope="module")
def ctx(small_preset_op, small_preset_sys, tiny_op, tmp_path_factory):
    return _Ctx(op=small_preset_op, sys=small_preset_sys, tiny_op=tiny_op,
                k=th.calibrate_constants(small_preset_sys, SMALL, MU),
                g=np.ones(small_preset_op.shape[0]),
                dir=tmp_path_factory.mktemp("arguments"))


def _hostile(arg: Arg, c) -> list:
    lo, hi, ok = _at(arg.lo, c), _at(arg.hi, c), _at(arg.ok, c)
    shown = 1.0 if ok is None else ok
    bad = [True, False, np.True_, np.False_, 10 ** 400, -10 ** 400, math.nan,
           math.inf, -math.inf, np.float64("nan"), np.float32("inf"), str(shown),
           np.array(shown), complex(shown)]
    if not arg.optional:
        bad.append(None)
    if lo > -math.inf:
        bad += [lo - 1, math.nextafter(lo, -math.inf)] + ([] if arg.closed else [lo])
    if hi < math.inf:
        bad += [hi, hi + 1]
    if arg.integer:
        bad += [float(shown), np.float64(shown), shown + 0.5]
    return bad


def _legal(arg: Arg, c):
    lo, hi, closed = _at(arg.lo, c), _at(arg.hi, c), arg.closed
    if lo >= hi:
        values = st.nothing()
    elif arg.integer:
        first = max(lo, -_MAX)
        first = math.ceil(first) if closed else math.floor(first) + 1
        values = st.integers(first, math.ceil(min(hi, _MAX)) - 1)
        values = values | values.filter(lambda n: abs(n) < 2 ** 63).map(np.int64)
    else:
        values = st.floats(None if lo == -math.inf else lo,
                           None if hi == math.inf else hi,
                           exclude_min=not closed and lo > -math.inf,
                           exclude_max=hi < math.inf,
                           allow_nan=False, allow_infinity=False)
        values = values | values.map(np.float64)
    return st.none() | values if arg.optional else values


def _callables():
    return {name for name in dir(th)
            if not name.startswith("_") and callable(getattr(th, name))}


def test_table_lists_the_namespace():
    assert set(TABLE) | set(UNCHECKED) == _callables()
    assert not set(TABLE) & set(UNCHECKED)


@SWEEP
def test_legal_example_returns(ctx, name, param):
    # the sweep's other arguments are legal: the call returns
    arg = TABLE[name][param]
    arg.call(ctx, _at(arg.ok, ctx))


@SWEEP
def test_hostile_values_refused(ctx, name, param):
    arg = TABLE[name][param]
    for bad in _hostile(arg, ctx):
        want = TypeError if arg.unhashable and isinstance(bad, np.ndarray) else _REFUSALS
        with pytest.raises(want):
            arg.call(ctx, bad)
            print(f"{name}: {param}={bad!r} accepted")


@SWEEP
@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_legal_values_return_or_refuse(ctx, name, param, data):
    arg = TABLE[name][param]
    value = data.draw(_legal(arg, ctx), label=param)
    try:
        arg.call(ctx, value)
    except _REFUSALS:
        pass
