"""Working memory of the decomposition, and what its in-place steps may touch.

Peaks are tracemalloc readings, which include numpy and f2py buffers,
in units of one m x n matrix of doubles (m data samples, n object
samples).  The solver frees the rank-revealing factors before the
Jacobi step and lets LAPACK overwrite its own temporaries, so at its
peak it holds only Q, W, the dgejsv workspace and dgejsv's u and v.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import PAPER_GEOM, TINY_GEOM
from truncated_hilbert import apply_forward, build_operator, cli
from truncated_hilbert.cauchy_svd import accurate_cauchy_svd, gecp_cauchy, svd_from_rrd
from truncated_hilbert.config import load_config
from truncated_hilbert.errors import GridError


def traced_peak(fn, *args, **kwargs):
    """(result, peak bytes allocated by fn above what was allocated before the call)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def step3_op():
    """The paper geometry at step 3: 451 x 426 samples, 311 retained triples."""
    # one small solve first, so loading scipy's LAPACK module is not in any window
    accurate_cauchy_svd(np.arange(4.0), 0.5 + np.arange(3.0), 1.0)
    return build_operator(PAPER_GEOM, step=3.0, shift=0.5)


def matrix_bytes(op):
    m, n = op.shape
    return m * n * np.dtype(float).itemsize


def test_build_operator_allocates_no_matrix():
    # measured 0.0008 matrices (1.2 kB): the grids are decided by index
    # arithmetic and hold no arrays
    op, peak = traced_peak(build_operator, PAPER_GEOM, step=3.0, shift=0.5)
    assert "matrix" not in vars(op)
    assert peak < 0.005 * matrix_bytes(op)


def test_oversized_grid_refused_before_any_allocation():
    # 6e15 x 6e15 samples, refused before any array of them is allocated
    err, peak = traced_peak(pytest.raises, GridError, build_operator, TINY_GEOM,
                            step=1e-15)
    assert "exceed the cap of 2e+07" in str(err.value)
    assert peak < 1e6


def test_apply_forward_allocates_no_matrix(step3_op):
    # the first call caches the kernel spectrum; after it a product holds a
    # few vectors of the FFT size, 1024 here: measured 0.012 matrices
    # (0.005 at step 1)
    op = step3_op
    f = np.ones(op.shape[1])
    apply_forward(op, f)
    _, peak = traced_peak(apply_forward, op, f)
    assert "matrix" not in vars(op)
    assert peak < 0.05 * matrix_bytes(op)


def test_solver_peak_below_four_matrices(step3_op):
    # measured 3.70 matrices here (3.53 at step 1); before the factors were
    # freed and LAPACK allowed to overwrite, 6.85 (6.64 at step 1)
    op = step3_op
    _, peak = traced_peak(accurate_cauchy_svd, op.data_grid.points,
                          op.object_grid.points, op.step / np.pi)
    assert peak < 4.0 * matrix_bytes(op)


def test_elimination_peak_below_two_and_a_fifth_matrices(step3_op):
    # measured 1.98 matrices: L and U, m x r and r x n, plus the scans;
    # a permutation deferred to one gather at the end would hold 3.34
    op = step3_op
    _, peak = traced_peak(gecp_cauchy, op.data_grid.points,
                          op.object_grid.points, op.step / np.pi)
    assert peak < 2.2 * matrix_bytes(op)


def test_warm_setup_peak_below_two_matrices(step3_op, tmp_path):
    # a warm command holds the loaded system (v and u, 311 of 426 columns
    # each) and one row block of kernel and of product, 1/16 of the matrix
    # each; re-truncating and re-scaling cached raw factors took 2.98
    cfg = load_config(None, overrides={"step": 3.0, "output_dir": str(tmp_path)})
    cli._spectral_setup(cfg, str(tmp_path))   # cold: writes svd_cache.npy
    (op, sys_), peak = traced_peak(cli._spectral_setup, cfg, str(tmp_path))
    assert op.shape == step3_op.shape and sys_.count == 311
    assert peak < 1.8 * matrix_bytes(op)


def snapshot(*arrays):
    return [a.copy() for a in arrays]


def assert_unchanged(arrays, copies):
    for a, c in zip(arrays, copies):
        assert a.shape == c.shape and a.tobytes() == c.tobytes()


def test_solver_leaves_its_inputs_untouched(small_preset_op):
    op = small_preset_op
    x, y = op.data_grid.points, op.object_grid.points
    copies = snapshot(x, y)
    accurate_cauchy_svd(x, y, op.step / np.pi)
    assert_unchanged([x, y], copies)


def test_svd_from_rrd_releases_factors_without_writing_them(small_preset_op):
    op = small_preset_op
    rrd = gecp_cauchy(op.data_grid.points, op.object_grid.points, op.step / np.pi)
    held = [rrd.L, rrd.d, rrd.U, rrd.rperm, rrd.cperm]
    copies = snapshot(*held)
    rank = rrd.rank
    left, s, right = svd_from_rrd(rrd)
    assert rrd.L is None and rrd.U is None
    assert rrd.rank == rank == s.size
    # a caller that kept its own references sees them unchanged
    assert_unchanged(held, copies)
