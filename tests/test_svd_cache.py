"""The SVD cache shared by the spectral commands of one output directory.

svd-report, figure2, reconstruct and bounds decompose the configured
operator at most once per output directory and read the singular system
back from svd_cache.npy after that.  The outputs must not depend on
whether the system was solved or loaded, and a bad cache must cost a
fresh solve, never a wrong answer.
"""

import hashlib
import json

import numpy as np
import pytest

from truncated_hilbert import __version__, cli, spectral
from truncated_hilbert.cauchy_svd import accurate_cauchy_svd
from truncated_hilbert.cli import SVD_CACHE, main
from truncated_hilbert.config import load_config
from truncated_hilbert.spectral import compute_svd

SPECTRAL = ("figure2", "reconstruct", "bounds")
SESSION = ("validate", "constants", "figure1", "svd-report", "figure2",
           "reconstruct", "bounds")


@pytest.fixture
def solves(monkeypatch):
    """Counts the decompositions the CLI performs."""
    calls = []
    real = cli.compute_svd

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "compute_svd", counted)
    return calls


@pytest.fixture
def built_ops(monkeypatch):
    """The operators the CLI builds, in order."""
    ops = []
    real = cli.build_operator

    def recorded(*args, **kwargs):
        ops.append(real(*args, **kwargs))
        return ops[-1]

    monkeypatch.setattr(cli, "build_operator", recorded)
    return ops


def run(cmd, out, *extra):
    assert main([cmd, "--out", str(out), *extra]) == 0


def outputs(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name != SVD_CACHE}


def read_records(path):
    with open(path, "rb") as fh:
        return [np.lib.format.read_array(fh, allow_pickle=False) for _ in range(4)]


def write_records(path, records):
    with open(path, "wb") as fh:
        for arr in records:
            np.save(fh, arr, allow_pickle=False)


@pytest.mark.parametrize("flags", [["--small"], []], ids=["small", "paper"])
def test_loaded_factors_write_the_same_files(tmp_path, solves, flags):
    warm = tmp_path / "warm"
    for cmd in ("svd-report",) + SPECTRAL:
        run(cmd, warm, *flags)
    assert len(solves) == 1
    for cmd in SPECTRAL:
        cold = tmp_path / cmd
        run(cmd, cold, *flags)
        files = outputs(cold)
        assert files and all(files[name] == (warm / name).read_bytes()
                             for name in files)
        assert (cold / SVD_CACHE).read_bytes() == (warm / SVD_CACHE).read_bytes()
    assert len(solves) == 1 + len(SPECTRAL)


def test_no_command_forms_the_matrix(tmp_path, built_ops):
    # a cold decomposition and the warm spectral commands work from the
    # grids alone; reconstruct applies the operator to its phantom by FFT
    for cmd in ("svd-report", "figure2", "bounds", "reconstruct"):
        run(cmd, tmp_path, "--small")
    assert len(built_ops) == 4
    assert not any("matrix" in vars(op) for op in built_ops)


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _scale_sigmas(path):
    key, v, s, u = read_records(path)
    write_records(path, [key, v, s * 1.001, u])


def _forge_header(path):
    # the data-vector record claims a 10**6 x 10**6 matrix (8 TB)
    key, v, s, u = read_records(path)
    with open(path, "wb") as fh:
        np.save(fh, key, allow_pickle=False)
        np.lib.format.write_array_header_1_0(
            fh, {"descr": "<f8", "fortran_order": False, "shape": (10**6, 10**6)})
        fh.write(v.tobytes())
        for arr in (s, u):
            np.save(fh, arr, allow_pickle=False)


def _drop_column(path):
    # the data-vector record loses its last column: shapes that do not fit
    key, v, s, u = read_records(path)
    write_records(path, [key, v[:, :-1], s, u])


@pytest.mark.parametrize("spoil", [_truncate, _scale_sigmas, _forge_header,
                                   _drop_column])
def test_bad_cache_is_solved_again(tmp_path, solves, spoil):
    fresh = tmp_path / "fresh"
    run("figure2", fresh, "--small")
    out = tmp_path / "o"
    run("svd-report", out, "--small")
    spoil(out / SVD_CACHE)
    del solves[:]
    run("figure2", out, "--small")
    assert len(solves) == 1
    assert {n: (out / n).read_bytes() for n in outputs(fresh)} == outputs(fresh)
    assert (out / SVD_CACHE).read_bytes() == (fresh / SVD_CACHE).read_bytes()


@pytest.mark.parametrize("other", [{"geometry": [0, 30.2, 90, 115]},
                                   {"geometry": [0, 29.8, 90, 115]}])
def test_cache_of_another_config_is_solved_again(tmp_path, monkeypatch, solves, other):
    # the preset's 91 x 86 shape, another matrix (entries differ by up to
    # 0.42): the key refuses the cache before its system is checked, so the
    # one check is the fresh solve's
    fresh = tmp_path / "fresh"
    run("bounds", fresh, "--small")
    out = tmp_path / "o"
    cfg = tmp_path / "other.json"
    cfg.write_text(json.dumps(other))
    run("svd-report", out, "--small", "--config", str(cfg))
    assert (out / SVD_CACHE).read_bytes() != (fresh / SVD_CACHE).read_bytes()
    checks = []
    real = spectral.check_reconstruction

    def counted(*args, **kwargs):
        checks.append(len(solves))
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "check_reconstruction", counted)
    del solves[:]
    run("bounds", out, "--small")
    assert len(solves) == 1 and checks == [1]
    assert (out / "bounds.csv").read_bytes() == (fresh / "bounds.csv").read_bytes()
    assert (out / SVD_CACHE).read_bytes() == (fresh / SVD_CACHE).read_bytes()


def test_raw_factor_cache_is_solved_again(tmp_path, solves, small_preset_op):
    # the earlier layout: the solver's untruncated factors, keyed without
    # the layout tag.  At step 1 they fit the shape bounds and reconstruct
    # the matrix, so only the key tells them from a system
    fresh = tmp_path / "fresh"
    run("svd-report", fresh, "--small")
    cfg = load_config(None, small=True)
    doc = [[float(v) for v in cfg.geometry], float(cfg.step), __version__]
    raw_key = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    op = small_preset_op
    factors = accurate_cauchy_svd(op.data_grid.points, op.object_grid.points,
                                  op.step / np.pi)
    out = tmp_path / "o"
    out.mkdir()
    write_records(out / SVD_CACHE, [np.array(raw_key), *factors])
    del solves[:]
    run("svd-report", out, "--small")
    assert len(solves) == 1
    assert outputs(out) == outputs(fresh)
    assert (out / SVD_CACHE).read_bytes() == (fresh / SVD_CACHE).read_bytes()


def test_failed_fresh_solve_exits_3_and_caches_nothing(tmp_path, monkeypatch):
    real = spectral.accurate_cauchy_svd

    def inaccurate(*args, **kwargs):
        v, s, u = real(*args, **kwargs)
        return v, s * 1.001, u

    monkeypatch.setattr(spectral, "accurate_cauchy_svd", inaccurate)
    out = tmp_path / "o"
    assert main(["bounds", "--small", "--out", str(out)]) == 3
    assert not (out / SVD_CACHE).exists()


def test_compute_svd_writes_nothing(tmp_path, monkeypatch, small_preset_op):
    monkeypatch.chdir(tmp_path)
    compute_svd(small_preset_op)
    compute_svd(small_preset_op, method="lapack")
    assert list(tmp_path.iterdir()) == []


def test_small_session_output_contract(tmp_path):
    # what the benchmark checks of every paper session: each entry of the
    # output directory is a regular file, and reruns write identical bytes
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        for cmd in SESSION:
            run(cmd, out, "--small")
        entries = sorted(out.iterdir())
        assert all(p.is_file() and not p.is_symlink() for p in entries)
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in entries})
    assert SVD_CACHE in digests[0]
    assert digests[0] == digests[1]
