"""One workload process: set up, run operations, check them, report.

    python3 bench/worker.py --workload W --seed S --mode timed --budget SEC \
        --start I --result FILE [--trace 1 --spans FILE]
    python3 bench/worker.py --ht-command CMD --out DIR --spans FILE
    python3 bench/worker.py --selftest

Modes: `timed` runs operations from index --start until --budget seconds
of operation time have passed (at least one operation when --start is
0); `pass` runs operations 0..--count-1; `memory` measures the peak
allocation of the two solver stages with tracemalloc; `defects` probes
the known defects of workloads.known_defects().  `--ht-command`
runs one traced `ht` command in this process through cli.main.

The result file holds the time the process became ready (CLOCK_MONOTONIC,
comparable with the runner's clock), per-operation latencies, failures,
accuracy digits and the process's peak RSS.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import tracing  # noqa: E402  (stdlib only)


def _w3_cache():
    from truncated_hilbert import geometry
    w3 = geometry.w3
    while not hasattr(w3, "cache_info"):     # unwrap the tracer, not the cache
        w3 = w3.__wrapped__
    info = w3.cache_info()
    return [info.hits, info.misses]


def _dump_spans(tracer, path, w3_start):
    w3_end = _w3_cache()
    with open(path, "w") as fh:
        json.dump({"spans": tracer.spans,
                   "w3": [w3_end[0] - w3_start[0], w3_end[1] - w3_start[1]]}, fh)


def ht_command(args):
    """One `ht` command, traced in-process through cli.main."""
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from truncated_hilbert import cli
    w3_start = _w3_cache()
    tracer.op_id = 1
    code = cli.main([args.ht_command, "--out", args.out])
    _dump_spans(tracer, args.spans, w3_start)
    return code


def environment():
    import numpy as np
    import scipy
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name", ""),
            "blas_version": blas.get("version", ""), "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def memory_pass(args):
    """Peak bytes allocated inside gecp_cauchy and svd_from_rrd, by tracemalloc."""
    import tracemalloc

    import truncated_hilbert as th
    import workloads

    if args.workload == "geometry_sweep":
        first = workloads.random_geometries(args.seed)[:workloads.BLOCK]
        geom = th.Geometry(*max(first, key=workloads._side))
    else:
        geom = th.load_config(None).geom()
    peaks = {}

    def wrap(name, fn):
        if name not in ("cauchy_svd.gecp_cauchy", "cauchy_svd.svd_from_rrd"):
            return fn

        def measured(*a, **kw):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*a, **kw)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                peaks[name] = max(peaks.get(name, 0), peak / 2 ** 20)
        return measured

    tracing.install(None, wrap)
    op = th.build_operator(geom, step=1.0, shift=0.5)
    tracemalloc.start()
    try:
        th.compute_svd(op, rank_tol=workloads.RANK_TOL)
    finally:
        tracemalloc.stop()
    return {"alloc_peak_mb": peaks, "geometry": list(geom.points)}


def run_ops(args):
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    import workloads

    w3_start = _w3_cache()
    out_dir = Path(args.out_dir)
    spans_dir = out_dir / "spans" if (args.trace and args.workload == "paper_session") else None
    if spans_dir:
        spans_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir / args.workload, spans_dir)
    t_ready = time.monotonic()

    latencies, failures, digits, extra = [], [], [], {}
    measured = 0.0
    i = args.start
    while True:
        if args.mode == "pass":
            if i >= args.count:
                break
        elif measured >= args.budget and not (args.start == 0 and i == 0):
            break
        if tracer:
            tracer.op_id = i + 1
        res = {}
        t0 = time.perf_counter()
        try:
            wl.run(i, res)
            error = None
        except Exception as exc:   # a failed operation is recorded, not fatal
            error = f"{type(exc).__name__}: {exc}"
        lat = time.perf_counter() - t0
        measured += lat
        latencies.append(lat)
        reasons = wl.check(i, res) + ([error] if error else [])
        if "digits" in res:
            digits.append(res["digits"])
        if args.workload == "paper_session" and "cmds" in res:
            extra.setdefault("cmd_s", []).append({c["cmd"]: c["s"] for c in res["cmds"]})
        if reasons:
            failures.append({"op": i, "name": res.get("name", str(i)), "reasons": reasons})
        i += 1

    if args.workload == "noise_sweep":
        digits = [wl.setup_digits]
        if wl.setup_bad:
            failures.append({"op": -1, "name": "setup", "reasons": wl.setup_bad})
    result = {"t_ready": t_ready, "latencies": latencies, "failures": failures,
              "digits": digits, "extra": extra,
              "peak_rss_mb": _peak_rss_mb(), "env": environment()}
    if tracer:
        spans_file = out_dir / f"spans-{os.getpid()}.json"
        _dump_spans(tracer, spans_file, w3_start)
        files = [str(spans_file)]
        if spans_dir:
            files += sorted(str(p) for p in spans_dir.glob(f"{os.getpid()}-*.json"))
        result["span_files"] = files
    return result


def selftest():
    """The checks must reject wrong spectra: LAPACK's and the slow-decay tails."""
    import numpy as np

    import oracle
    import truncated_hilbert as th
    import workloads

    cache = oracle.load_cache()
    report = []
    small = th.Geometry(*oracle.FIXED_GEOMETRIES[0])
    op = th.build_operator(small)
    good = th.compute_svd(op, rank_tol=workloads.RANK_TOL).sigmas
    lapack = th.compute_svd(op, method="lapack").sigmas
    refs = np.array(oracle.cached(cache, small.points))
    report.append(("small preset, structured solver, accepted",
                   not workloads._small_preset_check(good)
                   and not workloads._oracle_check(good, refs)[0]))
    report.append(("small preset, svd_method='lapack', rejected",
                   bool(workloads._small_preset_check(lapack))
                   and bool(workloads._oracle_check(lapack, refs)[0])))
    for pts in oracle.FIXED_GEOMETRIES[1:3]:
        s = th.compute_svd(th.build_operator(th.Geometry(*pts)),
                           rank_tol=workloads.RANK_TOL).sigmas
        reasons, _ = workloads._oracle_check(s, np.array(oracle.cached(cache, pts)))
        report.append((f"slow decay {pts} flagged: {'; '.join(reasons)}", bool(reasons)))
    for label, ok in report:
        print(f"{'ok  ' if ok else 'FAIL'} {label}", file=sys.stderr)
    return 0 if all(ok for _, ok in report) else 1


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("timed", "pass", "memory", "defects"), default="timed")
    p.add_argument("--budget", type=float, default=0.0)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--count", type=int, default=0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out-dir", default=".bench_out")
    p.add_argument("--result")
    p.add_argument("--ht-command")
    p.add_argument("--out")
    p.add_argument("--spans")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.ht_command:
        return ht_command(args)
    if args.selftest:
        return selftest()
    try:
        if args.mode == "memory":
            result = memory_pass(args)
        elif args.mode == "defects":
            import workloads
            result = {"defects": workloads.known_defects()}
        else:
            result = run_ops(args)
    except Exception:
        traceback.print_exc()
        return 1
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
