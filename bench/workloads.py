"""The three workloads: inputs from a seed, one timed operation, checks.

Each workload object is built once per workload process (its set-up).
`run(i, res)` performs operation i and fills `res` with what the checks
need, so a failed operation leaves what it got done; `check(i, res)`
runs outside every timing and returns a list of failure reasons (empty
when the outputs are correct).
"""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import ellipk

import oracle
import reference as ref
import truncated_hilbert as th

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RANK_TOL = 1e-21
# the paper goldens were pinned from a double-precision run of the solver
# itself, so agreement with them beyond 12 digits marks no accuracy
GOLDEN_DIGITS_CAP = 12.0


def digits(rel_err, cap=16.0):
    """-log10 of a relative error, capped (doubles resolve about 16 digits)."""
    return min(cap, -math.log10(max(rel_err, 10.0 ** -cap)))


def paper_tail_error(tail):
    """Worst relative distance of the last nine sigmas from the pinned paper tail."""
    want = np.array(ref.PAPER_TAIL_SIGMAS)
    return float(np.max(np.abs(np.asarray(tail) - want) / want))


# ---------------------------------------------------------------- paper_session

PAPER_COMMANDS = ("validate", "constants", "figure1", "svd-report", "figure2",
                  "reconstruct", "bounds")
_DELTAS = ("1e-03", "1e-04", "1e-05", "1e-06", "1e-07")
EXPECTED_FILES = {
    "validate": (),
    "constants": ("constants.csv",),
    "figure1": ("figure1.csv",),
    "svd-report": ("spectrum.csv", "svd_summary.json"),
    "figure2": ("figure2_sigma.csv", "figure2_roi.csv"),
    "reconstruct": ("reconstruction_summary.csv",) + tuple(
        f"recon_{m}_delta{d}.csv{ext}" for m in ("tsvd", "tikhonov")
        for d in _DELTAS for ext in ("", ".json")),
    "bounds": ("bounds.csv",),
}
_HT = "import sys; from truncated_hilbert.cli import main; sys.exit(main())"


def src_digest():
    """Digest of the package sources: output hashes are compared only under it."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


class PaperSession:
    """The seven `ht` commands on the default paper config, each in a fresh process.

    The seed is not used: the session is the paper's reproduction with
    the default configuration.
    """

    def __init__(self, seed, out_dir, spans_dir=None):
        self.cfg = th.load_config(None)
        self.out_dir = Path(out_dir)
        self.spans_dir = spans_dir
        self.env = dict(os.environ)

    def _argv(self, cmd, outdir, i):
        if self.spans_dir is None:
            return [sys.executable, "-c", _HT, cmd, "--out", str(outdir)]
        spans = Path(self.spans_dir) / f"{os.getpid()}-{i}-{cmd}.json"
        return [sys.executable, str(BENCH / "worker.py"), "--ht-command", cmd,
                "--out", str(outdir), "--spans", str(spans)]

    def run(self, i, res):
        outdir = self.out_dir / f"session-{os.getpid()}-{i}"
        outdir.mkdir(parents=True)
        res["name"] = f"session{i}"
        res["outdir"] = str(outdir)
        cmds = res["cmds"] = []
        for cmd in PAPER_COMMANDS:
            before = set(os.listdir(outdir))
            t0 = time.perf_counter()
            proc = subprocess.run(self._argv(cmd, outdir, i), env=self.env,
                                  capture_output=True, text=True, timeout=170)
            wall = time.perf_counter() - t0
            new = set(os.listdir(outdir)) - before
            cmds.append({"cmd": cmd, "s": wall, "code": proc.returncode,
                         "new": sorted(new), "stderr": proc.stderr[-400:]})

    def check(self, i, res):
        bad = []
        for c in res["cmds"]:
            if c["code"] != 0:
                bad.append(f"{c['cmd']} exit {c['code']}: {c['stderr'].strip()[-200:]}")
            missing = set(EXPECTED_FILES[c["cmd"]]) - set(c["new"])
            if missing:
                bad.append(f"{c['cmd']} did not write {sorted(missing)}")
        outdir = Path(res["outdir"])
        try:
            with open(outdir / "svd_summary.json") as fh:
                summary = json.load(fh)
            got = (summary["retained"], summary["count_below_0.97"],
                   summary["count_below_0.01"])
            want = (ref.PAPER_RETAINED, ref.PAPER_COUNT_BELOW_097,
                    ref.PAPER_COUNT_BELOW_001)
            if got != want:
                bad.append(f"svd_summary retained/counts {got} != {want}")
            with open(outdir / "spectrum.csv") as fh:
                rows = fh.read().splitlines()[1:]
            rel = paper_tail_error([float(r.split(",")[2]) for r in rows[-9:]])
            if not rel <= 1e-6:
                bad.append(f"paper tail off the goldens by {rel:.2e} (limit 1e-6)")
            res["digits"] = digits(rel, GOLDEN_DIGITS_CAP)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            bad.append(f"unreadable svd-report output: {exc!r}")
        bad += self._check_hashes(outdir)
        shutil.rmtree(outdir)
        return bad

    def _check_hashes(self, outdir):
        """Byte-identical reruns: every session of one commit writes the same files."""
        hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(outdir.iterdir())}
        store = self.out_dir / "output_hashes.json"
        known = json.loads(store.read_text()) if store.exists() else {}
        key = src_digest()
        if key not in known:
            known[key] = hashes
            store.write_text(json.dumps(known, indent=1, sort_keys=True))
            return []
        diff = sorted(n for n in set(hashes) | set(known[key])
                      if hashes.get(n) != known[key].get(n))
        return [f"outputs differ from an earlier session of this commit: {diff}"] if diff else []


# --------------------------------------------------------------- geometry_sweep

FIXED_MEMBERS = (
    ("small_preset", oracle.FIXED_GEOMETRIES[0]),
    ("live_oracle_37x35", oracle.FIXED_GEOMETRIES[3]),
)
# inputs on which the program is known to return wrong results; they are
# probed by known_defects() instead of being timed as operations
SLOW_DECAY_MEMBERS = (
    ("slow_decay_alpha1.6", oracle.FIXED_GEOMETRIES[1]),
    ("slow_decay_alpha2.6", oracle.FIXED_GEOMETRIES[2]),
)
BLOCK = 200            # random members per stratified block
BLOCKS = 8             # blocks generated at set-up; no geometry is ever repeated
LIVE_ORACLE_MEMBERS = 4
MU_FRACTIONS = (0.25, 0.1, 0.01)
ROI_MU_FRACTION = 0.1


def _alpha_of_m(m):
    """alpha = pi K(m) / K(1 - m) for the cross-ratio m of the breakpoints."""
    return np.pi * ellipk(m) / ellipk(1.0 - m)


def _m_for_alpha(target):
    lo = np.full_like(target, 1e-12)
    hi = np.full_like(target, 1.0 - 1e-12)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = _alpha_of_m(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def random_geometries(seed, blocks=BLOCKS, block=BLOCK):
    """Integer geometries (0, a2, a3, a4), stratified over side length and alpha.

    Within each block of `block` members the larger matrix side runs over
    10..140 and alpha over 2..7 in a Latin-hypercube design, so every
    block has the same spread of sizes and decay rates whatever the seed.
    The ratio of the two outer segments is log-uniform in [1/4, 4].
    """
    rng = np.random.default_rng([seed, 7])
    out = []
    for _ in range(blocks):
        u = (rng.permutation(block) + rng.random(block)) / block
        v = (rng.permutation(block) + rng.random(block)) / block
        rho = np.exp(rng.uniform(np.log(0.25), np.log(4.0), block))
        side = 10.0 + 130.0 * u
        m = _m_for_alpha(2.0 + 5.0 * v)
        # overlap 1, outer segments L1 = rho * L3 with cross-ratio m
        l3 = ((1 - m) * (1 + rho) + np.sqrt((1 - m) ** 2 * (1 + rho) ** 2
                                            + 4 * m * rho * (1 - m))) / (2 * m * rho)
        l1 = rho * l3
        scale = (side - 1.0) / (1.0 + np.maximum(l1, l3))
        for s1, s2, s3 in zip(np.rint(l1 * scale), np.rint(scale), np.rint(l3 * scale)):
            s1, s2, s3 = (float(max(1.0, v)) for v in (s1, s2, s3))
            out.append((0.0, s1, s1 + s2, s1 + s2 + s3))
    return out


def _side(geometry):
    x, y = oracle.nodes(geometry)
    return max(len(x), len(y))


class GeometrySweep:
    """Cold caches: every operation is a geometry the process has not seen."""

    def __init__(self, seed, out_dir=None, spans_dir=None):
        self.random = random_geometries(seed)
        self.oracle = oracle.load_cache()
        # live mpmath checks: members of the first block with sides 25..40,
        # spread evenly over their range of alpha
        mid = sorted((g for g in self.random[:BLOCK] if 25 <= _side(g) <= 40),
                     key=lambda g: _alpha_of_m(_elliptic_m(g)))
        picks = np.linspace(0, len(mid) - 1, LIVE_ORACLE_MEMBERS).round().astype(int)
        self.live = {mid[k] for k in picks} if mid else set()

    def member(self, i):
        """Operation i: the fixed members first (once per run), then random ones."""
        if i < len(FIXED_MEMBERS):
            return FIXED_MEMBERS[i]
        j = i - len(FIXED_MEMBERS)
        return f"random{j}", self.random[j % len(self.random)]

    def run(self, i, res):
        name, pts = self.member(i)
        res["name"], res["geometry"] = name, pts
        g = th.Geometry(*pts)
        ov = g.overlap_width
        res["alpha"] = th.alpha(g)
        res["near_one_rate"] = th.near_one_rate(g)
        res["holder"] = []
        for f in MU_FRACTIONS:
            th.beta_mu_exact(g, f * ov)
            res["holder"].append(th.holder_exponent(g, f * ov))
        op = th.build_operator(g, step=1.0, shift=0.5)
        sys_ = th.compute_svd(op, rank_tol=RANK_TOL)
        res["op"], res["sys"] = op, sys_
        tail_len = min(9, sys_.count)
        res["fit"] = th.fit_tail_decay(sys_, tail_len) if tail_len >= 2 else None
        res["corr"] = _wkb_correlation(g, sys_, tail_len)
        res["roi_dev"] = []
        for n in range(5, 10):
            got = th.wkb_roi_norm_quadrature(g, ROI_MU_FRACTION * ov, n)
            want = th.roi_norm_model(g, ROI_MU_FRACTION * ov, n)
            res["roi_dev"].append(abs(got - want) / want)

    def check(self, i, res):
        """Return failure reasons; sets res["digits"] for mpmath-checked members."""
        bad = []
        pts = res["geometry"]
        a_ref = float(_alpha_of_m(np.array(_elliptic_m(pts))))
        if "alpha" in res and not abs(res["alpha"] - a_ref) <= 1e-7 * a_ref:
            bad.append(f"alpha {res['alpha']!r} vs elliptic {a_ref!r}")
        h = res.get("holder", [])
        if len(h) == len(MU_FRACTIONS) and not (
                all(0.0 < x < 1.0 for x in h) and h[0] > h[1] > h[2]):
            bad.append(f"Hoelder exponents {h} not in (0, 1) and ordered in mu")
        if "sys" not in res:
            return bad
        sys_, op = res["sys"], res["op"]
        s = sys_.sigmas
        bad += _factor_checks(op, sys_)
        if res.get("roi_dev") and max(res["roi_dev"]) > 0.2:
            bad.append(f"WKB ROI norm off the model by {max(res['roi_dev']):.2f}")
        refs = oracle.cached(self.oracle, pts)
        sigma_bad = _small_preset_check(s) if res["name"] == "small_preset" else []
        if refs is not None:
            reasons, rel = _oracle_check(s, np.array(refs))
            sigma_bad += reasons
            # sigma_digits counts the fixed members only, so it does not depend
            # on whether a random member happens to repeat one of them
            if not sigma_bad and i < len(FIXED_MEMBERS):
                res["digits"] = digits(rel)
        elif pts in self.live:
            sigma_bad += _oracle_check(s, np.array(oracle.sigmas(pts, dps=oracle.LIVE_DPS)))[0]
        else:
            sigma_bad += _lapack_check(op, s)
        return bad + sigma_bad


def known_defects():
    """Probe the known defects; return (name, reasons) for each that still shows.

    The two slow-decay geometries are checked against mpmath like any
    other member, and the ROI-norm quadrature is run at n = 1 on the
    small preset.  An empty list means every known defect is fixed.
    """
    cache = oracle.load_cache()
    found = []
    for name, pts in SLOW_DECAY_MEMBERS:
        op = th.build_operator(th.Geometry(*pts), step=1.0, shift=0.5)
        s = th.compute_svd(op, rank_tol=RANK_TOL).sigmas
        reasons = _oracle_check(s, np.array(oracle.cached(cache, pts)))[0]
        if reasons:
            found.append((f"{name} {pts}", reasons))
    g = th.Geometry(*FIXED_MEMBERS[0][1])
    try:
        th.wkb_roi_norm_quadrature(g, ROI_MU_FRACTION * g.overlap_width, 1)
    except Exception as exc:
        found.append((f"small_preset {g.points}: wkb_roi_norm_quadrature at n = 1",
                      [f"{type(exc).__name__}: {exc}"]))
    return found


def _elliptic_m(pts):
    a1, a2, a3, a4 = pts
    return (a3 - a2) * (a4 - a1) / ((a3 - a1) * (a4 - a2))


def _wkb_correlation(g, sys_, tail_len):
    """Correlation of |u| with the WKB profile for the last tail vector, if defined."""
    if tail_len < 1:
        return None
    prof = th.wkb_profile(g, tail_len)
    lo, hi = prof.validity_interval
    ys = sys_.object_grid.points
    mask = (ys > lo) & (ys < hi)
    if lo >= hi or mask.sum() < 2:
        return None
    vals = np.abs([prof(float(x)) for x in ys[mask]])
    ucol = np.abs(sys_.u[mask, sys_.count - 1])
    return float(ucol @ vals / (np.linalg.norm(ucol) * np.linalg.norm(vals)))


def _factor_checks(op, sys_):
    """Reconstruction residual and orthonormality, at the test suite's tolerances."""
    bad = []
    r = sys_.count
    u = sys_.u * np.sqrt(sys_.step)
    v = sys_.v * np.sqrt(sys_.step)
    eye = np.eye(r)
    worst = max(np.abs(u.T @ u - eye).max(), np.abs(v.T @ v - eye).max()) if r else 0.0
    if not worst <= 5e-14:
        bad.append(f"singular vectors not orthonormal ({worst:.1e})")
    recon = (v * sys_.sigmas[None, :]) @ u.T
    rel = np.linalg.norm(op.matrix - recon) / np.linalg.norm(op.matrix)
    if not rel <= 1e-13:
        bad.append(f"reconstruction residual {rel:.1e}")
    return bad


def _lapack_check(op, s):
    """Agreement with LAPACK wherever LAPACK resolves the value (above 1e-12 sigma_max)."""
    lap = np.linalg.svd(op.matrix, compute_uv=False)
    keep = lap > 1e-12 * lap[0]
    k = int(keep.sum())
    if s.size < k:
        return [f"only {s.size} values retained, LAPACK resolves {k}"]
    err = np.abs(s[:k] - lap[:k])
    if not np.all(err <= 1e-9 * lap[:k] + 1e-14 * lap[0]):
        return [f"disagrees with LAPACK above 1e-12 sigma_max "
                f"(worst relative {float((err / lap[:k]).max()):.1e})"]
    return []


def _oracle_check(s, refs):
    """Retained count and relative accuracy above rank_tol against mpmath.

    The tolerances are the test suite's: 1e-9 down to 1e-20 sigma_max, and
    2e-8 below that, where the elimination floor is approached.
    """
    sel = refs > RANK_TOL * refs[0]
    k = int(sel.sum())
    m = min(k, s.size)
    errs = np.abs(s[:m] - refs[:m]) / refs[:m]
    limits = np.where(refs[:m] > 1e-20 * refs[0], 1e-9, 2e-8)
    bad = []
    if s.size != k:
        bad.append(f"retained {s.size} values, mpmath has {k} above {RANK_TOL:g} sigma_max")
    if m and not np.all(errs < limits):
        j = int(np.argmax(errs / limits))
        bad.append(f"relative error {errs[j]:.1e} against mpmath at "
                   f"{refs[j] / refs[0]:.1e} sigma_max (limit {limits[j]:g})")
    return bad, float(errs.max()) if m else 0.0


def _small_preset_check(s):
    """The graded tolerances of the test suite's frozen 50-digit reference."""
    r = np.array(ref.SMALL_PRESET_SIGMAS)
    m = min(s.size, r.size)
    bad = []
    for lo, tol in ((1e-18, 1e-11), (1e-20, 1e-9), (1e-24, 2e-8)):
        sel = r[:m] > lo * r[0]
        worst = float((np.abs(s[:m][sel] - r[:m][sel]) / r[:m][sel]).max())
        if not worst < tol:
            bad.append(f"small preset: error {worst:.1e} above {lo:g} sigma_max "
                       f"(limit {tol:g})")
    return bad


# ------------------------------------------------------------------ noise_sweep

NOISE_SEEDS = 10
NOISE_DELTAS = tuple(float(d) for d in np.logspace(-2, -9, 15))
PHANTOMS = ("bump", "indicator", "hat")


class NoiseSweep:
    """One paper decomposition, read many times by noisy-data solves."""

    def __init__(self, seed, out_dir=None, spans_dir=None):
        cfg = self.cfg = th.load_config(None)
        g = self.geom = cfg.geom()
        self.op = th.build_operator(g, step=cfg.step, shift=cfg.shift)
        self.sys = th.compute_svd(self.op, rank_tol=cfg.rank_tol, method=cfg.svd_method)
        self.mus = [float(mu) for mu in cfg.mu_list]
        self.consts = {mu: th.calibrate_constants(self.sys, g, mu, c_tv=cfg.c_tv,
                                                  amplitude=cfg.A)
                       for mu in self.mus}
        self.masks = {mu: th.roi_mask(g, self.op.object_grid, mu) for mu in self.mus}
        grid = self.op.object_grid
        width = 0.2 * (g.a4 - g.a2)
        center = 0.5 * (g.a2 + g.a3)
        self.phantoms = {
            "bump": th.make_phantom("bump", g, grid, center=center, width=width),
            "indicator": th.make_phantom("indicator", g, grid, c=center - width,
                                         d=center + width),
            "hat": th.make_phantom("hat", g, grid, center=center, half_width=width),
        }
        rng = np.random.default_rng([seed, 11])
        noise_seeds = rng.integers(0, 2 ** 31, NOISE_SEEDS)
        ops = [(int(s), p, d) for s in noise_seeds for p in PHANTOMS for d in NOISE_DELTAS]
        self.ops = [ops[k] for k in rng.permutation(len(ops))]
        rel = paper_tail_error(self.sys.sigmas[-9:])
        self.setup_digits = digits(rel, GOLDEN_DIGITS_CAP)
        self.setup_bad = ([f"paper tail off the goldens by {rel:.2e} (limit 1e-6)"]
                          if not rel <= 1e-6 else [])

    def run(self, i, res):
        noise_seed, phantom, delta = self.ops[i % len(self.ops)]
        res["name"] = f"{phantom}/delta={delta:.2e}/seed={noise_seed}"
        cfg, op, sys_ = self.cfg, self.op, self.sys
        f_true = self.phantoms[phantom]
        g_ex = th.apply_forward(op, f_true)
        noisy = th.add_noise(g_ex, delta, noise_seed, step=op.step)
        eta = delta ** 2 / cfg.E ** 2
        rows = res["rows"] = []
        for mu in self.mus:
            k = self.consts[mu]
            cut = th.optimal_cutoff_l2(delta, cfg.E, k)
            recs = (th.tsvd_reconstruct(sys_, noisy.g, cut.n_cut),
                    th.tikhonov_reconstruct(sys_, noisy.g, eta))
            errs = [th.weighted_norm((r.f - f_true)[self.masks[mu]], op.step)
                    for r in recs]
            ok_l2 = th.l2_validity(delta, cfg.E, k)
            pair = th.roi_bound_l2(delta, cfg.E, k, "pair") if ok_l2 else math.nan
            if th.tv_validity(delta, cfg.kappa, k):
                th.roi_bound_tv(delta, cfg.kappa, k)
            if th.full_interval_validity(delta, cfg.kappa, k):
                th.full_interval_bound(delta, cfg.kappa, k)
            rows.append((mu, errs, ok_l2, pair))
        res["norm"] = th.weighted_norm(f_true, op.step)

    def check(self, i, res):
        bad = []
        if res.get("norm", 0.0) > self.cfg.E:
            bad.append(f"phantom norm {res['norm']:.3g} exceeds E")
        for mu, errs, ok_l2, pair in res.get("rows", ()):
            if ok_l2 and not max(errs) <= pair:
                bad.append(f"mu={mu:g}: ROI error {max(errs):.3e} above the bound {pair:.3e}")
        return bad


WORKLOADS = {"paper_session": PaperSession, "geometry_sweep": GeometrySweep,
             "noise_sweep": NoiseSweep}
