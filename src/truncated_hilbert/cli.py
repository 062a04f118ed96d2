"""Command-line harness: reproducible experiments with CSV/JSON outputs.

    ht constants|svd-report|figure1|figure2|reconstruct|bounds|validate
       [--config FILE] [--out DIR] [--seed N] [--small]

Every command is deterministic given the config and seed; reruns produce
byte-identical files.  Exit codes: 0 success, 2 configuration error or
unwritable output, 3 numerical failure.

svd-report, figure2, reconstruct and bounds share one decomposition per
output directory: the first of them to run decomposes through compute_svd
and writes the singular system to svd_cache.npy there; the others read
it back, and SingularSystem.of checks it as it checks a fresh one.
Only a command that decomposes loads scipy, and of it only the compiled
LAPACK module scipy.linalg._flapack, never a scipy package __init__;
validate, constants and figure1 load no scipy.  No command but
reconstruct, whose noise generator imports hashlib, loads OpenSSL: the
cache key is the JSON document itself, not a digest of it.
"""

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import __version__
from . import geometry as geo
from .asymptotics import log_roi_norm_model, log_sigma_model
from .bounds import calibrate_constants, l2_validity, roi_bound_l2, write_bounds_csv
from .config import load_config
from .errors import ConfigError, SpectralError, TruncatedHilbertError
from .operator import apply_forward, build_operator, weighted_norm
from .regularization import (add_noise, export_reconstruction, optimal_cutoff_l2,
                             phantom_from_spec, tikhonov_eta, tikhonov_reconstruct,
                             tsvd_reconstruct)
from .report import delta_label, mu_label, write_csv, write_json
from .spectral import (SingularSystem, check_monotone, compute_svd,
                       export_spectrum_csv, fit_roi_decay, fit_tail_decay,
                       near_one_tail_fit, roi_mask, roi_norm, sigma_counts)

# singular system of the configured operator as compute_svd returns it: four
# consecutive .npy records (key, data vectors v, sigmas, object vectors u)
SVD_CACHE = "svd_cache.npy"


def _build_parser():
    p = argparse.ArgumentParser(prog="ht", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    for name, (desc, _) in _COMMANDS.items():
        q = sub.add_parser(name, help=desc)
        q.add_argument("--config", default=None, help="JSON config file")
        q.add_argument("--out", default=None, help="output directory")
        q.add_argument("--seed", type=int, default=None, help="noise seed override")
        q.add_argument("--small", action="store_true",
                       help="fast preset on the 1/15-scale geometry")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _, runner = _COMMANDS[args.command]
    try:
        cfg = load_config(args.config, small=args.small,
                          overrides={"seed": args.seed, "output_dir": args.out})
        if runner is not _cmd_validate:   # the one command that writes nothing
            os.makedirs(cfg.output_dir, exist_ok=True)
        runner(cfg, cfg.output_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:   # an output path that cannot be created or written
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except TruncatedHilbertError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def _cmd_validate(cfg, outdir) -> None:
    print(f"config OK: geometry={cfg.geometry} step={cfg.step} "
          f"mu_list={cfg.mu_list} output_dir={cfg.output_dir}")


def _cmd_constants(cfg, outdir) -> None:
    geom = cfg.geom()
    km = geo.k_minus(geom)
    kp = geo.k_plus(geom)
    a = geo.alpha(geom)
    path = os.path.join(outdir, "constants.csv")
    betas = [geo.beta_mu_exact(geom, mu) for mu in cfg.mu_list]
    # a config mu may be a JSON integer; the column holds floats
    write_csv(path, ["mu", "k_minus", "k_plus", "alpha", "beta_mu_exact",
                     "beta_mu_approx", "holder_exponent"],
              [[float(mu), km, kp, a, be, geo.beta_mu_approx(geom, mu), be / a]
               for mu, be in zip(cfg.mu_list, betas)])
    print(f"K- = {km:.12e}   K+ = {kp:.12e}   alpha = {a:.12e}")
    for mu, be in zip(cfg.mu_list, betas):
        print(f"mu = {mu:g}: beta = {be:.12e}   beta/alpha = {be / a:.6f}")
    print(f"wrote {path}")


def _svd_cache_key(cfg) -> str:
    """JSON of everything the cached system depends on, and of its layout.

    Compared exactly, so no digest is needed.
    """
    return json.dumps([[float(v) for v in cfg.geometry], float(cfg.step), __version__,
                       "system"])


def _read_record(fh, dtype, max_shape):
    """Next .npy record of fh; ValueError unless its header has dtype and fits max_shape.

    The header is checked before any data is read, so a forged shape
    allocates nothing.
    """
    start = fh.tell()
    if np.lib.format.read_magic(fh) != (1, 0):   # the version np.save writes
        raise ValueError("unexpected .npy format version")
    shape, _, got = np.lib.format.read_array_header_1_0(fh)
    if (got != dtype or len(shape) != len(max_shape)
            or not all(0 <= d <= bound for d, bound in zip(shape, max_shape))):
        raise ValueError(f"record {got} {shape} does not fit {dtype} {max_shape}")
    fh.seek(start)
    return np.lib.format.read_array(fh, allow_pickle=False)


def _load_system(path, key, op):
    """Cached system of op under key; None if missing, unreadable, stale or inaccurate."""
    m, n = op.shape
    rank = min(m, n)
    try:
        with open(path, "rb") as fh:
            if _read_record(fh, np.array(key).dtype, ()).item() != key:
                return None
            v, s, u = (_read_record(fh, np.dtype(float), bound)
                       for bound in ((m, rank), (rank,), (n, rank)))
        return SingularSystem.of(op, s, u, v)
    except (OSError, ValueError, EOFError, SpectralError):
        return None


def _save_system(path, key, sys_) -> None:
    # a reader never sees a partial file: write aside, then rename over
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for arr in (np.array(key), sys_.v, sys_.sigmas, sys_.u):
                np.save(fh, arr, allow_pickle=False)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _spectral_setup(cfg, outdir, op=None):
    """Operator and singular system, decomposed at most once per output directory.

    op is the configured operator, built here unless the caller has it.
    A cached system passes the check of a fresh one, in SingularSystem.of;
    a cache that is unreadable, stale or fails it is replaced by a fresh solve.
    """
    op = build_operator(cfg.geom(), step=cfg.step) if op is None else op
    path = os.path.join(outdir, SVD_CACHE)
    key = _svd_cache_key(cfg)
    sys_ = _load_system(path, key, op)
    if sys_ is None:
        sys_ = compute_svd(op)
        _save_system(path, key, sys_)
    return op, sys_


def _cmd_svd_report(cfg, outdir) -> None:
    geom = cfg.geom()
    op, sys_ = _spectral_setup(cfg, outdir)
    below_097, below_001 = sigma_counts(sys_)
    tail_fit = fit_tail_decay(sys_)
    a = geo.alpha(geom)
    summary = {
        "matrix_shape": list(op.shape),
        "sigma_max": sys_.sigmas[0],
        "retained": sys_.count,
        "count_below_0.97": below_097,
        "count_below_0.01": below_001,
        "tail_fit": {"rate": tail_fit.rate, "amplitude": tail_fit.amplitude,
                     "residual": tail_fit.residual},
        "alpha": a,
        "tail_rate_rel_dev": abs(tail_fit.rate - a) / a,
        "roi_fits": {},
        "monotone_tail": [],
    }
    for mu in cfg.mu_list:
        rf = fit_roi_decay(sys_, mu)
        beta = geo.beta_mu_exact(geom, mu)
        summary["roi_fits"][mu_label(mu)] = {
            "rate": rf.rate, "beta_mu": beta,
            "rel_dev": abs(rf.rate - beta) / beta,
        }
    try:
        nf = near_one_tail_fit(sys_)
        summary["near_one_fit"] = {"rate": nf.rate, "amplitude": nf.amplitude}
        summary["near_one_rate_expected"] = geo.near_one_rate(geom)
    except SpectralError as exc:   # small systems may lack the near-one branch
        summary["near_one_fit"] = {"error": str(exc)}
    for n, k in enumerate(sys_.tail, 1):
        summary["monotone_tail"].append(
            {"n": n, "monotone": check_monotone(sys_, k)})
    head_index = max(0, sys_.tail.start - 20)
    summary["head_vector_monotone"] = check_monotone(sys_, head_index)

    spec_path = os.path.join(outdir, "spectrum.csv")
    export_spectrum_csv(sys_, spec_path, cfg.mu_list)
    sum_path = os.path.join(outdir, "svd_summary.json")
    write_json(sum_path, summary)
    print(f"sigma_max = {sys_.sigmas[0]:.12f}; retained = {sys_.count}")
    print(f"count < 0.97: {below_097}; count < 0.01: {below_001}")
    print(f"tail rate {tail_fit.rate:.4f} vs alpha {a:.4f} "
          f"({summary['tail_rate_rel_dev']:.2%})")
    print(f"wrote {spec_path} and {sum_path}")


def _cmd_figure1(cfg, outdir) -> None:
    fractions = (0.25, 0.10, 0.01)
    path = os.path.join(outdir, "figure1.csv")
    rows = []
    for a3 in np.round(np.linspace(0.05, 0.95, 19), 10):
        geom = geo.Geometry(-1.0, 0.0, float(a3), 1.0)
        for frac in fractions:
            mu = frac * a3
            rows.append([a3, f"{frac:g}", mu, geo.holder_exponent(geom, mu)])
    write_csv(path, ["a3", "mu_fraction", "mu", "holder_exponent"], rows)
    print(f"wrote {path}")


def _cmd_figure2(cfg, outdir) -> None:
    geom = cfg.geom()
    op, sys_ = _spectral_setup(cfg, outdir)

    sig_path = os.path.join(outdir, "figure2_sigma.csv")
    write_csv(sig_path, ["n", "log_sigma", "log_model"],
              [[n, np.log(sys_.sigmas[k]), log_sigma_model(geom, n)]
               for n, k in enumerate(sys_.tail, 1)])

    roi_path = os.path.join(outdir, "figure2_roi.csv")
    header = ["n"]
    for mu in cfg.mu_list:
        header += [f"log_roi_mu{mu_label(mu)}", f"log_model_mu{mu_label(mu)}"]
    rows = []
    for n, k in enumerate(sys_.tail, 1):
        row = [n]
        for mu in cfg.mu_list:
            row += [np.log(roi_norm(sys_, k, mu)), log_roi_norm_model(geom, mu, n)]
        rows.append(row)
    write_csv(roi_path, header, rows)
    print(f"wrote {sig_path} and {roi_path}")


def _cmd_reconstruct(cfg, outdir) -> None:
    geom = cfg.geom()
    op = build_operator(geom, cfg.step)
    f_true = phantom_from_spec(cfg.phantom, geom, op.object_grid)
    norm_true = weighted_norm(f_true, cfg.step)
    # the prior check needs only the object grid: refuse before decomposing
    if norm_true > cfg.E:
        raise ConfigError(f"phantom norm {norm_true:.6g} exceeds the prior bound "
                          f"E={cfg.E}; raise E or shrink the phantom")
    op, sys_ = _spectral_setup(cfg, outdir, op)
    g_ex = apply_forward(op, f_true)
    # a delta at or below the rounding of the exact data leaves the estimate
    # limited by that rounding, amplified by 1/sigma_n, which no bound sees.
    # The FFT product errs normwise in f (|H| <= 1): up to 1.54 eps |f| for
    # random f over 805 geometries, but 7 eps |g| for a bump near a4, where
    # |g| is |f|/8
    rounding = 2 * sys.float_info.epsilon * norm_true
    mu = float(cfg.mu_list[0])
    consts = calibrate_constants(sys_, geom, mu)
    mask = roi_mask(geom, op.object_grid, mu)

    rows = []
    for delta in map(float, cfg.delta_list):
        eta = tikhonov_eta(delta, cfg.E)   # a positive double: config checks it
        noisy = add_noise(g_ex, delta, cfg.seed, step=op.step)
        cut = optimal_cutoff_l2(delta, cfg.E, consts)
        valid = l2_validity(delta, cfg.E, consts) and delta > rounding
        for rec in (tsvd_reconstruct(sys_, noisy.g, cut.n_cut),
                    tikhonov_reconstruct(sys_, noisy.g, eta)):
            err = weighted_norm((rec.f - f_true)[mask], op.step)
            bound = (roi_bound_l2(delta, cfg.E, consts, rec.method)
                     if valid else float("nan"))
            rows.append([delta, rec.method, rec.cutoff_n, rec.eta, err, bound, valid])
            run_path = os.path.join(
                outdir, f"recon_{rec.method}_delta{delta_label(delta)}.csv")
            export_reconstruction(run_path, op.object_grid, f_true, rec.f, {
                "method": rec.method, "delta": delta, "E": cfg.E,
                "mu": mu, "seed": cfg.seed,
                "cutoff_n": rec.cutoff_n, "eta": rec.eta,
                "roi_error": err,
                "bound": bound if valid else None,
                "bound_valid": valid,
            })
    summary_path = os.path.join(outdir, "reconstruction_summary.csv")
    write_csv(summary_path, ["delta", "method", "cutoff_n", "eta", "roi_error",
                             "bound", "bound_valid"], rows)
    print(f"wrote {summary_path}")


def _cmd_bounds(cfg, outdir) -> None:
    geom = cfg.geom()
    op, sys_ = _spectral_setup(cfg, outdir)
    mu = float(cfg.mu_list[0])
    consts = calibrate_constants(sys_, geom, mu)
    path = os.path.join(outdir, "bounds.csv")
    write_bounds_csv(path, [float(d) for d in cfg.delta_list], consts,
                     E=cfg.E, kappa=cfg.kappa)
    print(f"calibrated: A={consts.A:.6f} N0={consts.n0} N_mu={consts.n_mu} "
          f"beta_mu={consts.beta_mu:.6f} V_mu={consts.v_mu:.6f} c_tv={consts.c_tv:.6f}")
    print(f"wrote {path}")


# command -> (help line, runner); the parser and main both read this table
_COMMANDS = {
    "constants": ("interval constants and Hoelder exponents", _cmd_constants),
    "svd-report": ("spectrum, decay fits, counts, monotonicity", _cmd_svd_report),
    "figure1": ("Hoelder exponent sweep over the overlap size", _cmd_figure1),
    "figure2": ("tail decay and ROI-norm data with model overlays", _cmd_figure2),
    "reconstruct": ("regularized inversions against noise sweeps", _cmd_reconstruct),
    "bounds": ("stability bound sweep", _cmd_bounds),
    "validate": ("check a configuration file and exit", _cmd_validate),
}


if __name__ == "__main__":
    sys.exit(main())
