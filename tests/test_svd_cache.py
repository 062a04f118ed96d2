"""The SVD cache shared by the spectral commands of one output directory.

svd-report, figure2, reconstruct and bounds decompose the configured
operator at most once per output directory and read the raw factors back
from svd_cache.npy after that.  The outputs must not depend on whether
the factors were solved or loaded, and a bad cache must cost a fresh
solve, never a wrong answer.
"""

import hashlib
import json

import numpy as np
import pytest

from truncated_hilbert import cli
from truncated_hilbert.cli import SVD_CACHE, main
from truncated_hilbert.spectral import compute_svd

SPECTRAL = ("figure2", "reconstruct", "bounds")
SESSION = ("validate", "constants", "figure1", "svd-report", "figure2",
           "reconstruct", "bounds")


@pytest.fixture
def solves(monkeypatch):
    """Counts the decompositions the CLI performs."""
    calls = []
    real = cli.raw_svd

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "raw_svd", counted)
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


def test_only_reconstruct_forms_the_matrix(tmp_path, built_ops):
    # a cold decomposition and the warm spectral commands work from the
    # grids alone; reconstruct applies the operator to its phantom
    for cmd in ("svd-report", "figure2", "bounds", "reconstruct"):
        run(cmd, tmp_path, "--small")
    assert ["matrix" in vars(op) for op in built_ops] == [False, False, False, True]


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _scale_sigmas(path):
    key, v, s, u = read_records(path)
    write_records(path, [key, v, s * 1.001, u])


@pytest.mark.parametrize("spoil", [_truncate, _scale_sigmas])
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
    # 0.42): the key refuses the cache before its factors are checked
    fresh = tmp_path / "fresh"
    run("bounds", fresh, "--small")
    out = tmp_path / "o"
    cfg = tmp_path / "other.json"
    cfg.write_text(json.dumps(other))
    run("svd-report", out, "--small", "--config", str(cfg))
    assert (out / SVD_CACHE).read_bytes() != (fresh / SVD_CACHE).read_bytes()
    checks = []
    real = cli.apply_conventions

    def counted(*args, **kwargs):
        checks.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "apply_conventions", counted)
    del solves[:]
    run("bounds", out, "--small")
    assert len(solves) == 1 and len(checks) == 1
    assert (out / "bounds.csv").read_bytes() == (fresh / "bounds.csv").read_bytes()
    assert (out / SVD_CACHE).read_bytes() == (fresh / SVD_CACHE).read_bytes()


def test_failed_fresh_solve_exits_3_and_caches_nothing(tmp_path, monkeypatch):
    real = cli.raw_svd

    def inaccurate(*args, **kwargs):
        v, s, u = real(*args, **kwargs)
        return v, s * 1.001, u

    monkeypatch.setattr(cli, "raw_svd", inaccurate)
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
