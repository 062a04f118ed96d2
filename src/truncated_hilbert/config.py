"""Experiment configuration: JSON document, schema-checked, presets."""

import json
import numbers
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .geometry import Geometry, check_roi

PAPER_GEOMETRY = (0.0, 450.0, 1350.0, 1725.0)
SMALL_GEOMETRY = (0.0, 30.0, 90.0, 115.0)   # paper geometry scaled by 1/15


@dataclass
class ExperimentConfig:
    geometry: tuple = PAPER_GEOMETRY
    step: float = 1.0
    shift: float = 0.5
    mu_list: list = field(default_factory=lambda: [5.0, 20.0, 100.0])
    delta_list: list = field(default_factory=lambda: [1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
    E: float = 500.0
    kappa: float = 1.0
    c_tv: float = 1.0
    A: float | None = None          # None -> calibrated automatically
    seed: int = 20240
    output_dir: str = "ht_out"
    rank_tol: float | None = None   # None -> solver default
    svd_method: str = "cauchy"
    phantom: dict | None = None

    def geom(self) -> Geometry:
        try:
            return Geometry(*[float(v) for v in self.geometry])
        except (TypeError, ValueError) as exc:
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
    """Reject anything but a real number; JSON true/false are not numbers."""
    if isinstance(val, bool) or not isinstance(val, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {val!r}")


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    from .errors import GeometryError

    for name in ("step", "shift", "E", "kappa", "c_tv"):
        _check_real(name, getattr(cfg, name))
    for name in ("A", "rank_tol"):
        if getattr(cfg, name) is not None:
            _check_real(name, getattr(cfg, name))
    for name in ("mu_list", "delta_list"):
        values = getattr(cfg, name)
        if not isinstance(values, (list, tuple)):
            raise ConfigError(f"{name} must be a list of numbers, got {values!r}")
        for val in values:
            _check_real(f"{name} entry", val)
    if isinstance(cfg.seed, bool) or not isinstance(cfg.seed, int):
        raise ConfigError(f"seed must be an integer, got {cfg.seed!r}")
    try:
        geom = cfg.geom()
    except Exception as exc:
        raise ConfigError(str(exc)) from exc
    if not isinstance(cfg.geometry, (list, tuple)) or len(cfg.geometry) != 4:
        raise ConfigError("geometry must list exactly four breakpoints")
    for val in cfg.geometry:
        _check_real("geometry entry", val)
    if not cfg.step > 0:
        raise ConfigError(f"step must be positive, got {cfg.step}")
    if not (0.0 < cfg.shift < 1.0):
        raise ConfigError(f"shift must lie in (0, 1), got {cfg.shift}")
    if not cfg.mu_list:
        raise ConfigError("mu_list must not be empty")
    for mu in cfg.mu_list:
        try:
            check_roi(geom, float(mu))
        except GeometryError as exc:
            raise ConfigError(str(exc)) from exc
    for d in cfg.delta_list:
        if not d > 0:
            raise ConfigError(f"delta values must be positive, got {d}")
    if not cfg.E > 0:
        raise ConfigError(f"E must be positive, got {cfg.E}")
    if not cfg.kappa > 0:
        raise ConfigError(f"kappa must be positive, got {cfg.kappa}")
    if not cfg.c_tv > 0:
        raise ConfigError(f"c_tv must be positive, got {cfg.c_tv}")
    if cfg.A is not None and not (0.0 < cfg.A < 2.0):
        raise ConfigError(f"A must lie in (0, 2), got {cfg.A}")
    if cfg.rank_tol is not None and not cfg.rank_tol > 0:
        raise ConfigError(f"rank_tol must be positive, got {cfg.rank_tol}")
    if cfg.svd_method not in ("cauchy", "lapack"):
        raise ConfigError(f"svd_method must be 'cauchy' or 'lapack', got {cfg.svd_method!r}")
    if cfg.phantom is not None:
        if not isinstance(cfg.phantom, dict) or "kind" not in cfg.phantom:
            raise ConfigError("phantom must be an object with a 'kind' key")
        if cfg.phantom["kind"] not in ("bump", "indicator", "hat"):
            raise ConfigError(f"unknown phantom kind {cfg.phantom['kind']!r}")
    return cfg


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
            setattr(cfg, key, tuple(val) if key == "geometry" else val)
    for key, val in (overrides or {}).items():
        if val is not None:
            setattr(cfg, key, val)
    return _validate(cfg)
