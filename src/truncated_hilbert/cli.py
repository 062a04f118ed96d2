"""Command-line harness: reproducible experiments with CSV/JSON outputs.

    ht constants|svd-report|figure1|figure2|reconstruct|bounds|validate
       [--config FILE] [--out DIR] [--seed N] [--small]

Every command is deterministic given the config and seed; reruns produce
byte-identical files.  Exit codes: 0 success, 2 configuration error or
unwritable output, 3 numerical failure.

svd-report, figure2, reconstruct and bounds share one decomposition per
output directory: the first of them to run writes the raw factors to
svd_cache.npy there, the others read them back and repeat every check.
Only a command that decomposes loads scipy; validate, constants and
figure1 never do.
"""

import argparse
import contextlib
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from . import geometry as geo
from .bounds import calibrate_constants, roi_bound_l2, write_bounds_csv
from .config import load_config
from .errors import ConfigError, SpectralError, TruncatedHilbertError
from .operator import apply_forward, build_operator, sample_grids, weighted_norm
from .regularization import (add_noise, default_phantom, export_reconstruction,
                             make_phantom, optimal_cutoff_l2,
                             tikhonov_reconstruct, tsvd_reconstruct)
from .report import write_csv, write_json
from .spectral import (apply_conventions, check_monotone, export_spectrum_csv,
                       fit_roi_decay, fit_tail_decay, near_one_tail_fit,
                       raw_svd, roi_mask, roi_norm, sigma_counts, tail_index_map)

# raw SVD factors of the configured operator: four consecutive .npy
# records (key, data vectors, sigmas, object vectors)
SVD_CACHE = "svd_cache.npy"


def _build_parser():
    p = argparse.ArgumentParser(prog="ht", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    for name, desc in (
            ("constants", "interval constants and Hoelder exponents"),
            ("svd-report", "spectrum, decay fits, counts, monotonicity"),
            ("figure1", "Hoelder exponent sweep over the overlap size"),
            ("figure2", "tail decay and ROI-norm data with model overlays"),
            ("reconstruct", "regularized inversions against noise sweeps"),
            ("bounds", "stability bound sweep"),
            ("validate", "check a configuration file and exit")):
        q = sub.add_parser(name, help=desc)
        q.add_argument("--config", default=None, help="JSON config file")
        q.add_argument("--out", default=None, help="output directory")
        q.add_argument("--seed", type=int, default=None, help="noise seed override")
        q.add_argument("--small", action="store_true",
                       help="fast preset on the 1/15-scale geometry")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, small=args.small,
                          overrides={"seed": args.seed, "output_dir": args.out})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command != "validate":   # the one command that writes nothing
            os.makedirs(cfg.output_dir, exist_ok=True)
        runner = {
            "constants": _cmd_constants,
            "svd-report": _cmd_svd_report,
            "figure1": _cmd_figure1,
            "figure2": _cmd_figure2,
            "reconstruct": _cmd_reconstruct,
            "bounds": _cmd_bounds,
            "validate": _cmd_validate,
        }[args.command]
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
    """Digest of everything the raw factors depend on."""
    doc = [[float(v) for v in cfg.geometry], float(cfg.step), __version__]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def _load_factors(path, key, shape):
    """Cached factors of an m x n matrix under key; None if missing, unreadable or stale."""
    try:
        with open(path, "rb") as fh:
            if np.lib.format.read_array(fh, allow_pickle=False).tolist() != key:
                return None
            v, s, u = (np.lib.format.read_array(fh, allow_pickle=False)
                       for _ in range(3))
    except (OSError, ValueError, EOFError):
        return None
    m, n = shape
    if (any(a.dtype != np.float64 for a in (v, s, u)) or s.ndim != 1
            or v.shape != (m, s.size) or u.shape != (n, s.size)):
        return None
    return v, s, u


def _save_factors(path, key, factors) -> None:
    # a reader never sees a partial file: write aside, then rename over
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for arr in (np.array(key), *factors):
                np.save(fh, arr, allow_pickle=False)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _spectral_setup(cfg, outdir):
    """Operator and singular system, decomposed at most once per output directory.

    Cached factors go through the same reconstruction check, truncation
    and conventions as fresh ones; a cache that is unreadable, keyed to
    another configuration or fails the check is replaced by a fresh solve.
    """
    op = build_operator(cfg.geom(), step=cfg.step)
    path = os.path.join(outdir, SVD_CACHE)
    key = _svd_cache_key(cfg)
    factors = _load_factors(path, key, op.shape)
    if factors is not None:
        try:
            return op, apply_conventions(op, factors)
        except SpectralError:
            pass
    factors = raw_svd(op)
    sys_ = apply_conventions(op, factors)
    _save_factors(path, key, factors)
    return op, sys_


def _cmd_svd_report(cfg, outdir) -> None:
    geom = cfg.geom()
    op, sys_ = _spectral_setup(cfg, outdir)
    if sys_.count == 0:
        raise SpectralError("spectrum is empty after rank truncation")
    pairs = tail_index_map(sys_)
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
        summary["roi_fits"][f"{mu:g}"] = {
            "rate": rf.rate, "beta_mu": beta,
            "rel_dev": abs(rf.rate - beta) / beta,
        }
    try:
        nf = near_one_tail_fit(sys_)
        summary["near_one_fit"] = {"rate": nf.rate, "amplitude": nf.amplitude}
        summary["near_one_rate_expected"] = geo.near_one_rate(geom)
    except SpectralError as exc:   # small systems may lack the near-one branch
        summary["near_one_fit"] = {"error": str(exc)}
    for n, k in pairs:
        summary["monotone_tail"].append(
            {"n": n, "monotone": check_monotone(sys_, k)})
    head_index = max(0, pairs[0][1] - 20)
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
    pairs = tail_index_map(sys_)
    a = geo.alpha(geom)

    sig_path = os.path.join(outdir, "figure2_sigma.csv")
    write_csv(sig_path, ["n", "log_sigma", "log_model"],
              [[n, np.log(sys_.sigmas[k]), np.log(2.0) - a * n] for n, k in pairs])

    roi_path = os.path.join(outdir, "figure2_roi.csv")
    betas = {mu: geo.beta_mu_exact(geom, mu) for mu in cfg.mu_list}
    header = ["n"]
    for mu in cfg.mu_list:
        header += [f"log_roi_mu{mu:g}", f"log_model_mu{mu:g}"]
    rows = []
    for n, k in pairs:
        row = [n]
        for mu in cfg.mu_list:
            row += [np.log(roi_norm(sys_, k, mu)),
                    -betas[mu] * n - 0.5 * np.log(n * np.pi)]
        rows.append(row)
    write_csv(roi_path, header, rows)
    print(f"wrote {sig_path} and {roi_path}")


def _cmd_reconstruct(cfg, outdir) -> None:
    geom = cfg.geom()
    _, object_grid = sample_grids(geom, cfg.step)
    phantom_spec = cfg.phantom or default_phantom(geom)
    kind = phantom_spec["kind"]
    params = {k: v for k, v in phantom_spec.items() if k != "kind"}
    f_true = make_phantom(kind, geom, object_grid, **params)
    norm_true = weighted_norm(f_true, cfg.step)
    # the prior check needs only the object grid: refuse before decomposing
    if norm_true > cfg.E:
        raise ConfigError(f"phantom norm {norm_true:.6g} exceeds the prior bound "
                          f"E={cfg.E}; raise E or shrink the phantom")
    op, sys_ = _spectral_setup(cfg, outdir)
    g_ex = apply_forward(op, f_true)
    # a delta at or below the rounding of the exact data leaves the estimate
    # limited by that rounding, amplified by 1/sigma_n, which no bound sees
    rounding = sys.float_info.epsilon * weighted_norm(g_ex, op.step)
    mu = float(cfg.mu_list[0])
    consts = calibrate_constants(sys_, geom, mu, c_tv=cfg.c_tv, amplitude=cfg.A)
    mask = roi_mask(geom, object_grid, mu)

    rows = []
    for delta in map(float, cfg.delta_list):
        eta = delta ** 2 / cfg.E ** 2   # a positive double: config checks it
        noisy = add_noise(g_ex, delta, cfg.seed, step=op.step)
        cut = optimal_cutoff_l2(delta, cfg.E, consts)
        valid = cut.valid and delta > rounding
        for rec in (tsvd_reconstruct(sys_, noisy.g, cut.n_cut),
                    tikhonov_reconstruct(sys_, noisy.g, eta)):
            err = weighted_norm((rec.f - f_true)[mask], op.step)
            bound = (roi_bound_l2(delta, cfg.E, consts, rec.method)
                     if valid else float("nan"))
            rows.append([delta, rec.method, rec.cutoff_n, rec.eta, err, bound, valid])
            run_path = os.path.join(
                outdir, f"recon_{rec.method}_delta{delta:.0e}.csv")
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
    consts = calibrate_constants(sys_, geom, mu, c_tv=cfg.c_tv, amplitude=cfg.A)
    path = os.path.join(outdir, "bounds.csv")
    write_bounds_csv(path, [float(d) for d in cfg.delta_list], consts,
                     E=cfg.E, kappa=cfg.kappa)
    print(f"calibrated: A={consts.A:.6f} N0={consts.n0} N_mu={consts.n_mu} "
          f"beta_mu={consts.beta_mu:.6f} V_mu={consts.v_mu:.6f}")
    print(f"wrote {path}")


if __name__ == "__main__":
    sys.exit(main())
