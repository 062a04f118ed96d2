"""Multiprecision reference spectra for the geometry sweep.

The singular values of the sampled kernel depend only on the nodes, so
a reference is keyed by (geometry, step, shift).  The nodes are rebuilt
here from the grid rule documented in truncated_hilbert.operator, not
taken from the program, and the matrix step / (pi (y_j - x_i)) is
decomposed with mpmath svd_r.

    python3 bench/oracle.py      # regenerate bench/oracle_cache.json

The cache holds the fixed geometry-sweep members; random members are
checked live at LIVE_DPS digits.
"""

import json
import math
import sys
from pathlib import Path

CACHE = Path(__file__).resolve().parent / "oracle_cache.json"
CACHE_DPS = 60
LIVE_DPS = 40
FIXED_GEOMETRIES = (
    (0.0, 30.0, 90.0, 115.0),    # small preset, paper geometry / 15
    (0.0, 60.0, 61.0, 120.0),    # slow decay, alpha ~ 1.6
    (0.0, 50.0, 60.0, 115.0),    # slow decay, alpha ~ 2.6
    (0.0, 12.0, 36.0, 46.0),     # the test suite's live-oracle geometry
)


def nodes(geometry, step=1.0, shift=0.5):
    """Data nodes a1 + i*step on [a1, a3]; object nodes a2 - shift*step + j*step below a4."""
    a1, a2, a3, a4 = geometry
    n_data = int(math.floor((a3 - a1) / step + 1e-9)) + 1
    x = [a1 + step * i for i in range(n_data)]
    y = []
    j = 0
    while True:
        yj = a2 - shift * step + step * j
        if yj >= a4:
            break
        if yj > a2 - step:
            y.append(yj)
        j += 1
    return x, y


def sigmas(geometry, step=1.0, shift=0.5, dps=CACHE_DPS):
    """All singular values, descending, from mpmath svd_r at `dps` digits."""
    import mpmath

    x, y = nodes(geometry, step, shift)
    with mpmath.workdps(dps):
        scale = mpmath.mpf(step) / mpmath.pi
        A = mpmath.matrix(len(x), len(y))
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                A[i, j] = scale / (mpmath.mpf(yj) - mpmath.mpf(xi))
        S = mpmath.svd_r(A, compute_uv=False)
        return sorted((float(S[k]) for k in range(len(S))), reverse=True)


def _key(geometry, step, shift):
    return json.dumps([[float(v) for v in geometry], float(step), float(shift)])


def load_cache():
    """Map from (geometry, step, shift) key to the cached spectrum."""
    with open(CACHE) as fh:
        doc = json.load(fh)
    return {_key(e["geometry"], e["step"], e["shift"]): e["sigmas"]
            for e in doc["entries"]}


def cached(cache, geometry, step=1.0, shift=0.5):
    return cache.get(_key(geometry, step, shift))


def regenerate():
    entries = []
    for geometry in FIXED_GEOMETRIES:
        print(f"svd_r at {CACHE_DPS} digits for {geometry}", file=sys.stderr)
        entries.append({"geometry": list(geometry), "step": 1.0, "shift": 0.5,
                        "sigmas": sigmas(geometry, dps=CACHE_DPS)})
    with open(CACHE, "w") as fh:
        json.dump({"dps": CACHE_DPS, "entries": entries}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    regenerate()
