"""Experiment configuration: JSON document, schema-checked, presets."""

import json
import os
from dataclasses import dataclass, field, fields
from typing import ClassVar

from .errors import ConfigError, GeometryError, GridError, real
from .geometry import Geometry
from .operator import build_operator
from .regularization import phantom_from_spec, tikhonov_eta
from .report import delta_label, mu_label
from .spectral import roi_mask

PAPER_GEOMETRY = (0.0, 450.0, 1350.0, 1725.0)
SMALL_GEOMETRY = (0.0, 30.0, 90.0, 115.0)   # paper geometry scaled by 1/15


@dataclass
class ExperimentConfig:
    geometry: tuple = PAPER_GEOMETRY
    step: float = 1.0
    mu_list: list = field(default_factory=lambda: [5.0, 20.0, 100.0])
    delta_list: list = field(default_factory=lambda: [1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
    E: float = 500.0
    kappa: float = 1.0
    seed: int = 20240
    output_dir: str = "ht_out"
    phantom: dict | None = None
    # not keys: every command uses these library defaults.  Object nodes
    # midway between data nodes, for any breakpoints, make the spectrum
    # accumulate at 1; the structured solver at this truncation resolves its tail.
    shift: ClassVar[float] = 0.5
    rank_tol: ClassVar[float | None] = None
    svd_method: ClassVar[str] = "cauchy"
    # not keys either: calibrate_constants measures both from the tail
    c_tv: ClassVar[float | None] = None
    A: ClassVar[float | None] = None

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


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    # values stay as given: errors.real only decides whether each is usable,
    # here or, for mu (check_roi) and phantom parameters, in the library
    _, E, _ = (real(name, getattr(cfg, name), 0, error=ConfigError)
               for name in ("step", "E", "kappa"))
    for name in ("mu_list", "delta_list"):
        values = getattr(cfg, name)
        if not isinstance(values, (list, tuple)):
            raise ConfigError(f"{name} must be a list of numbers, got {values!r}")
    real("seed", cfg.seed, 0, closed=True, integer=True, error=ConfigError)
    if not isinstance(cfg.output_dir, str) or not _is_path(cfg.output_dir):
        raise ConfigError(f"output_dir must be a usable path string, got {cfg.output_dir!r}")
    if not isinstance(cfg.geometry, (list, tuple)) or len(cfg.geometry) != 4:
        raise ConfigError("geometry must list exactly four breakpoints")
    for val in cfg.geometry:
        real("geometry entry", val, error=ConfigError)
    geom = cfg.geom()
    # the grids every spectral command samples on, refused here (an empty,
    # oversized or colliding grid) rather than after the decomposition
    object_grid = build_operator(geom, cfg.step).object_grid
    if not cfg.mu_list:
        raise ConfigError("mu_list must not be empty")
    for mu in cfg.mu_list:
        if not roi_mask(geom, object_grid, mu).any():
            raise ConfigError(f"region of interest (a2, a3 - mu) for mu={mu:g} "
                              f"contains no object grid points at step {cfg.step:g}")
    for d in cfg.delta_list:
        _check_noise_level(real("delta_list entry", d, 0, error=ConfigError), E)
    for name, label in (("mu_list", mu_label), ("delta_list", delta_label)):
        labels = [label(v) for v in getattr(cfg, name)]
        if len(set(labels)) < len(labels):
            raise ConfigError(f"{name} labels {labels} repeat; one entry's "
                              f"outputs would overwrite another's")
    if cfg.phantom is not None:
        if (not isinstance(cfg.phantom, dict)
                or not isinstance(cfg.phantom.get("kind"), str)):
            raise ConfigError("phantom must be an object with a string 'kind'")
    # the default phantom too may leave (a2, a4) on a short overlap
    phantom_from_spec(cfg.phantom, geom, object_grid)
    return cfg


def _is_path(name: str) -> bool:
    """True if the file system can take name: no null byte, no lone surrogate."""
    try:
        return b"\0" not in os.fsencode(name)
    except UnicodeEncodeError:
        return False


def _check_noise_level(delta: float, E) -> None:
    """Refuse delta unless delta^2/E^2, the Tikhonov parameter, is a positive double."""
    try:
        eta = tikhonov_eta(delta, E)
    except (OverflowError, ZeroDivisionError):   # E^2 may underflow to 0
        eta = float("nan")
    if not 0.0 < eta < float("inf"):
        raise ConfigError(f"delta={delta:g} with E={E:g} gives the Tikhonov "
                          f"parameter delta^2/E^2 = {eta:g}, not a positive double")


def load_config(path, small: bool = False, overrides: dict | None = None) -> ExperimentConfig:
    """Read a JSON config; unknown keys fail, known keys override the preset."""
    cfg = default_config(small=small)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        # malformed JSON, bytes that are not UTF-8, or nesting past the
        # recursion limit of the parser
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
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
