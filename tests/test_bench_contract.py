"""Names the benchmark traces by attribute must exist in the package.

bench/tracing.py wraps the functions in its TARGETS table by name, and
bench/worker.py reads the hit counts of the w3 cache; renaming or removing
one of them breaks `bench/run.py --trace 1`.  bench/oracle.py rebuilds the
sampling nodes on its own, so they must equal those of build_operator.  This
module only reads bench/.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from truncated_hilbert import Geometry, build_operator, geometry

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _resolves(module, attr):
    obj = importlib.import_module(f"truncated_hilbert.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return callable(obj)


def test_traced_names_resolve():
    tracing = _load_tracing()
    missing = [f"{m}.{a}" for m, attrs in tracing.TARGETS.items() for a in attrs
               if not _resolves(m, a)]
    assert missing == []


def test_cli_decomposes_through_compute_svd(tmp_path, monkeypatch):
    # the benchmark's spectral.compute_svd metrics count the commands that
    # decompose: one span for a cold svd-report, none for a warm one
    tracing = _load_tracing()
    # monkeypatch puts back every binding install replaces
    mods = [importlib.import_module(f"truncated_hilbert.{name}") for name in tracing.TARGETS]
    for mod in [importlib.import_module("truncated_hilbert"), *mods]:
        for key, val in list(vars(mod).items()):
            if callable(val):
                monkeypatch.setattr(mod, key, val)
    for mod, attrs in zip(mods, tracing.TARGETS.values()):
        for cls_name, meth in (a.split(".") for a in attrs if "." in a):
            cls = getattr(mod, cls_name)
            monkeypatch.setattr(cls, meth, vars(cls)[meth])
    tracer = tracing.Tracer()
    tracing.install(tracer)
    cli = importlib.import_module("truncated_hilbert.cli")
    counts = []
    for _ in range(2):
        before = len(tracer.spans)
        assert cli.main(["svd-report", "--small", "--out", str(tmp_path)]) == 0
        counts.append(sum(span[3] == "spectral.compute_svd"
                          for span in tracer.spans[before:]))
    assert counts == [1, 0]


def test_w3_keeps_its_cache():
    assert callable(geometry.w3.cache_info)


def test_geometry_sweep_operations_pass(monkeypatch):
    # both fixed members and four random ones, run and checked the way the
    # benchmark does, so a signature the sweep calls cannot drift unnoticed
    monkeypatch.syspath_prepend(str(_TRACING.parent))
    workloads = importlib.import_module("workloads")
    sweep = workloads.GeometrySweep(seed=1)
    failures = {}
    for i in range(len(workloads.FIXED_MEMBERS) + 4):
        res = {}
        sweep.run(i, res)
        reasons = sweep.check(i, res)
        if reasons:
            failures[res["name"]] = reasons
    assert failures == {}


def test_noise_sweep_operations_pass(monkeypatch):
    # the sweep passes calibrate_constants c_tv and amplitude as keywords
    # (both None) and calls tsvd_reconstruct on one paper decomposition;
    # run and check its first operations the way the benchmark does
    monkeypatch.syspath_prepend(str(_TRACING.parent))
    workloads = importlib.import_module("workloads")
    sweep = workloads.NoiseSweep(seed=1)
    assert sweep.setup_bad == []
    failures = {}
    for i in range(3):
        res = {}
        sweep.run(i, res)
        reasons = sweep.check(i, res)
        if reasons:
            failures[res["name"]] = reasons
    assert failures == {}


def test_sample_grids_match_the_oracle_nodes(monkeypatch):
    # geometry_sweep checks its mpmath spectra on nodes bench/oracle.py
    # rebuilds itself; the package's grids must stay bitwise the same there
    monkeypatch.syspath_prepend(str(_TRACING.parent))
    workloads = importlib.import_module("workloads")
    geometries = [g for seed in (1, 2, 3) for g in workloads.random_geometries(seed)]
    for g in [*workloads.oracle.FIXED_GEOMETRIES, *geometries]:
        op = build_operator(Geometry(*g), 1.0, 0.5)
        x, y = workloads.oracle.nodes(g)
        assert op.data_grid.points.tobytes() == np.array(x).tobytes(), g
        assert op.object_grid.points.tobytes() == np.array(y).tobytes(), g
