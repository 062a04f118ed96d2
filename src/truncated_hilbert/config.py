"""Experiment configuration: JSON document, schema-checked, presets."""

import json
import numbers
import sys
from dataclasses import dataclass, field, fields
from typing import ClassVar

from .errors import ConfigError, GeometryError, GridError
from .geometry import Geometry
from .operator import sample_grids
from .regularization import default_phantom, make_phantom
from .spectral import roi_mask

PAPER_GEOMETRY = (0.0, 450.0, 1350.0, 1725.0)
SMALL_GEOMETRY = (0.0, 30.0, 90.0, 115.0)   # paper geometry scaled by 1/15

# Largest data x object sample count accepted: about 12x the paper's
# 1351 x 1276 matrix.  The solver keeps a few dense copies of the matrix
# and its factors, so larger grids would exhaust memory (or fail inside
# numpy) long after the config was accepted.
_MAX_MATRIX_ENTRIES = 2e7

@dataclass
class ExperimentConfig:
    geometry: tuple = PAPER_GEOMETRY
    step: float = 1.0
    mu_list: list = field(default_factory=lambda: [5.0, 20.0, 100.0])
    delta_list: list = field(default_factory=lambda: [1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
    E: float = 500.0
    kappa: float = 1.0
    c_tv: float = 1.0
    A: float | None = None          # None -> calibrated automatically
    seed: int = 20240
    output_dir: str = "ht_out"
    phantom: dict | None = None
    # not keys: every command uses these library defaults.  Object nodes
    # midway between data nodes keep the spectrum accumulating at 1, and
    # the structured solver at its default truncation resolves its tail.
    shift: ClassVar[float] = 0.5
    rank_tol: ClassVar[float | None] = None
    svd_method: ClassVar[str] = "cauchy"

    def geom(self) -> Geometry:
        try:
            return Geometry(*[float(v) for v in self.geometry])
        except (TypeError, ValueError, GeometryError) as exc:
            raise ConfigError(f"invalid geometry {self.geometry!r}: {exc}") from exc


# mu values small enough to be meaningful on the coarse grid yet large
# enough that the ROI decay law is already visible at this scale
_SMALL_OVERRIDES = {
    "geometry": SMALL_GEOMETRY,
    "mu_list": [8.0, 10.0, 20.0],
    "E": 50.0,
}


def default_config(small: bool = False) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if small:
        for key, val in _SMALL_OVERRIDES.items():
            setattr(cfg, key, val)
    return cfg


def _check_real(name, val):
    """Reject anything but a finite real number; JSON true/false are not numbers."""
    # the bound also refuses ints too large for a float, which isfinite cannot
    if (isinstance(val, bool) or not isinstance(val, numbers.Real)
            or not abs(val) <= sys.float_info.max):
        raise ConfigError(f"{name} must be a finite number, got {val!r}")


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    for name in ("step", "E", "kappa", "c_tv"):
        _check_real(name, getattr(cfg, name))
    if cfg.A is not None:
        _check_real("A", cfg.A)
    for name in ("mu_list", "delta_list"):
        values = getattr(cfg, name)
        if not isinstance(values, (list, tuple)):
            raise ConfigError(f"{name} must be a list of numbers, got {values!r}")
        for val in values:
            _check_real(f"{name} entry", val)
    if isinstance(cfg.seed, bool) or not isinstance(cfg.seed, int) or cfg.seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {cfg.seed!r}")
    if not isinstance(cfg.output_dir, str):
        raise ConfigError(f"output_dir must be a string, got {cfg.output_dir!r}")
    if not isinstance(cfg.geometry, (list, tuple)) or len(cfg.geometry) != 4:
        raise ConfigError("geometry must list exactly four breakpoints")
    for val in cfg.geometry:
        _check_real("geometry entry", val)
    geom = cfg.geom()
    if not cfg.step > 0:
        raise ConfigError(f"step must be positive, got {cfg.step}")
    entries = (((geom.a3 - geom.a1) / cfg.step + 1)
               * ((geom.a4 - geom.a2) / cfg.step + 1))
    if not entries <= _MAX_MATRIX_ENTRIES:
        raise ConfigError(f"step {cfg.step} gives about {entries:.3g} matrix "
                          f"entries, more than the cap of {_MAX_MATRIX_ENTRIES:g}")
    # the grids every spectral command samples on, refused here rather
    # than after the decomposition
    _, object_grid = sample_grids(geom, cfg.step)
    if not cfg.mu_list:
        raise ConfigError("mu_list must not be empty")
    for mu in cfg.mu_list:
        if not roi_mask(geom, object_grid, float(mu)).any():
            raise ConfigError(f"region of interest (a2, a3 - mu) for mu={mu:g} "
                              f"contains no object grid points at step {cfg.step:g}")
    if not cfg.E > 0:
        raise ConfigError(f"E must be positive, got {cfg.E}")
    if not cfg.kappa > 0:
        raise ConfigError(f"kappa must be positive, got {cfg.kappa}")
    if not cfg.c_tv > 0:
        raise ConfigError(f"c_tv must be positive, got {cfg.c_tv}")
    for d in cfg.delta_list:
        if not d > 0:
            raise ConfigError(f"delta values must be positive, got {d}")
        _check_noise_level(float(d), cfg.E, cfg.kappa)
    # svd-report and figure2 name their columns and keys by the mu label,
    # reconstruct its per-run files by the delta label
    for name, spec in (("mu_list", "g"), ("delta_list", ".0e")):
        labels = [format(float(v), spec) for v in getattr(cfg, name)]
        if len(set(labels)) < len(labels):
            raise ConfigError(f"{name} labels {labels} repeat; one entry's "
                              f"outputs would overwrite another's")
    if cfg.A is not None and not (0.0 < cfg.A < 2.0):
        raise ConfigError(f"A must lie in (0, 2), got {cfg.A}")
    if cfg.phantom is not None:
        if (not isinstance(cfg.phantom, dict)
                or not isinstance(cfg.phantom.get("kind"), str)):
            raise ConfigError("phantom must be an object with a string 'kind'")
        for key, val in cfg.phantom.items():
            if key != "kind":
                _check_real(f"phantom {key}", val)
    # the default phantom too may leave (a2, a4) on a short overlap
    spec = cfg.phantom or default_phantom(geom)
    make_phantom(spec["kind"], geom, object_grid,
                 **{k: v for k, v in spec.items() if k != "kind"})
    return cfg


def _check_noise_level(delta: float, E, kappa) -> None:
    """Refuse delta unless delta^2/E^2, delta/kappa and kappa/delta are positive doubles.

    Past that range the bounds come out wrong yet marked valid.  The
    Tikhonov parameter is formed exactly as the reconstruct command forms it.
    """
    try:
        eta = delta ** 2 / E ** 2
    except (OverflowError, ZeroDivisionError):   # E^2 may underflow to 0
        eta = float("nan")
    if not 0.0 < eta < float("inf"):
        raise ConfigError(f"delta={delta:g} with E={E:g} gives the Tikhonov "
                          f"parameter delta^2/E^2 = {eta:g}, not a positive double")
    for name, ratio in (("delta/kappa", delta / kappa), ("kappa/delta", kappa / delta)):
        if not 0.0 < ratio < float("inf"):
            raise ConfigError(f"delta={delta:g} with kappa={kappa:g} gives {name} "
                              f"= {ratio:g}, not a positive double")


def load_config(path, small: bool = False, overrides: dict | None = None) -> ExperimentConfig:
    """Read a JSON config; unknown keys fail, known keys override the preset."""
    cfg = default_config(small=small)
    if path is not None:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        known = {f.name for f in fields(ExperimentConfig)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, val in doc.items():
            setattr(cfg, key, tuple(val) if key == "geometry" and isinstance(val, list)
                    else val)
    for key, val in (overrides or {}).items():
        if val is not None:
            setattr(cfg, key, val)
    # the library's own checks (grids, region of interest, phantom)
    # refuse what they cannot use
    try:
        return _validate(cfg)
    except (GeometryError, GridError) as exc:
        raise ConfigError(str(exc)) from exc
