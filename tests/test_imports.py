"""Only a command that decomposes loads scipy or looks up its OpenBLAS.

Each case runs CLI commands in one fresh interpreter and, after the last
main() returns, lists the scipy modules and the hashlib modules (whose
_hashlib loads OpenSSL) in sys.modules and counts the lookups of scipy's
OpenBLAS thread setter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, sys
from truncated_hilbert.cli import main
from truncated_hilbert.cauchy_svd import _blas_threads_local
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"),
    "hashlib": sorted(m for m in ("_hashlib", "hashlib") if m in sys.modules),
    "lookups": _blas_threads_local.cache_info().misses}))
"""


def probe(*commands, out):
    """Run commands (lists of CLI args) in order; the scipy and hashlib modules
    loaded and the lookups."""
    argvs = [cmd + ["--out", str(out)] for cmd in commands]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_loads_no_scipy(tmp_path):
    assert probe(out=tmp_path)["scipy"] == []


def test_commands_without_a_decomposition_load_no_scipy(tmp_path):
    # nor hashlib, whose _hashlib maps OpenSSL (3.6 MB of resident set)
    assert probe(["validate"], ["constants"], ["figure1", "--small"],
                 out=tmp_path) == {"scipy": [], "hashlib": [], "lookups": 0}


@pytest.fixture(scope="module")
def cold_svd_report(tmp_path_factory):
    """An output directory and what a cold svd-report loaded and looked up there."""
    out = tmp_path_factory.mktemp("warm")
    return out, probe(["svd-report", "--small"], out=out)


def test_cold_svd_report_loads_only_scipy_linalg(cold_svd_report):
    # of scipy only its compiled BLAS and LAPACK modules, loaded without
    # running any package __init__: scipy's own is not needed to find its
    # directory, and scipy.linalg's brings scipy's array-API layer
    _, loaded = cold_svd_report
    assert loaded["scipy"] == ["scipy.linalg._fblas", "scipy.linalg._flapack"]


def test_cold_svd_report_loads_no_hashlib(cold_svd_report):
    # the cache key is compared as JSON, not hashed
    _, loaded = cold_svd_report
    assert loaded["hashlib"] == []


def test_small_cold_svd_report_looks_up_the_setter_once(cold_svd_report):
    _, loaded = cold_svd_report
    assert loaded["lookups"] == 1


@pytest.mark.parametrize("command", ["figure2", "reconstruct", "bounds"])
def test_warm_cache_commands_load_no_scipy(cold_svd_report, command):
    out, _ = cold_svd_report
    assert (out / "svd_cache.npy").exists()
    loaded = probe([command, "--small"], out=out)
    assert loaded["scipy"] == []
    # reconstruct's seeded noise imports numpy.random, which imports
    # hashlib through secrets; the other two load no OpenSSL
    if command != "reconstruct":
        assert loaded["hashlib"] == []


def test_version_has_one_source():
    # pyproject.toml reads the version from the package instead of restating it
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        doc = tomllib.load(fh)
    assert "version" not in doc["project"] and doc["project"]["dynamic"] == ["version"]
    assert doc["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "truncated_hilbert.__version__"}
