import csv
import inspect
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SMALL_PRESET_GEOM
from truncated_hilbert import calibrate_constants, log_roi_norm_model, log_sigma_model
from truncated_hilbert.cli import main
from truncated_hilbert.config import ExperimentConfig, default_config, load_config
from truncated_hilbert.errors import ConfigError
from truncated_hilbert.operator import build_operator
from truncated_hilbert.report import delta_label, mu_label
from truncated_hilbert.spectral import compute_svd


def _read_rows(path):
    """The rows of a CSV output file, as dicts keyed by its header."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfig:
    def test_defaults_validate(self):
        cfg = load_config(None)
        assert cfg.geometry == (0.0, 450.0, 1350.0, 1725.0)
        small = load_config(None, small=True)
        assert small.geometry == (0.0, 30.0, 90.0, 115.0)

    def test_fixed_discretization_and_solver(self):
        # not keys, yet readable: the values every command decomposes with,
        # which are the library defaults, and the constants it calibrates
        assert [f.name for f in fields(ExperimentConfig)] == [
            "geometry", "step", "mu_list", "delta_list", "E", "kappa",
            "seed", "output_dir", "phantom"]
        cfg = load_config(None)
        assert cfg.shift == 0.5 and cfg.rank_tol is None and cfg.svd_method == "cauchy"
        assert cfg.c_tv is None and cfg.A is None
        assert inspect.signature(build_operator).parameters["shift"].default == cfg.shift
        params = inspect.signature(compute_svd).parameters
        assert params["rank_tol"].default is cfg.rank_tol
        assert params["method"].default == cfg.svd_method

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"stepp": 1.0}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_geometry_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"geometry": [0.0, 450.0, 450.0, 1725.0]}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_mu_validity_enforced(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mu_list": [900.0]}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_overrides_apply(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"E": 7.5}))
        cfg = load_config(path, overrides={"seed": 9, "output_dir": "zz"})
        assert cfg.E == 7.5 and cfg.seed == 9 and cfg.output_dir == "zz"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_phantom_validation(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"phantom": {"kind": "cube"}}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_readme_keys_and_defaults_block(self, tmp_path):
        # the block under "Keys and defaults" is the default config, verbatim
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"Keys and defaults:\n\n```json\n(.*?)```", readme, re.S)
        path = tmp_path / "cfg.json"
        path.write_text(block.group(1))
        assert load_config(path) == default_config()

    @pytest.mark.parametrize("phantom", [
        {"kind": "bump", "center": 60.0, "width": 10.0},
        {"kind": "bump", "center": 60.0, "width": 10.0, "amplitude": 0.5},
        {"kind": "indicator", "c": 40.0, "d": 80.0},
        {"kind": "hat", "center": 60.0, "half_width": 5.0, "peak": 2.0},
    ])
    def test_phantom_params_accepted(self, tmp_path, phantom):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"phantom": phantom}))
        assert load_config(path, small=True).phantom == phantom


class TestCliExitCodes:
    def test_validate_ok(self, tmp_path, capsys):
        rc = main(["validate", "--small", "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "config OK" in capsys.readouterr().out

    def test_validate_off_lattice_a2(self, tmp_path, capsys):
        # a2 half a step off the data lattice; object nodes still fall midway
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"geometry": [0, 30.5, 90, 115]}))
        assert main(["validate", "--small", "--config", str(cfg)]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_config_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"geometry": [3.0, 2.0, 1.0, 0.0]}))
        rc = main(["validate", "--config", str(bad)])
        assert rc == 2

    def test_unknown_key_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"unknown_key": 1}))
        rc = main(["constants", "--config", str(bad)])
        assert rc == 2

    @pytest.mark.parametrize("doc", [
        {"step": "1"}, {"mu_list": ["a"]}, {"E": True}, {"seed": True},
        {"geometry": ["0", 450, 1350, 1725]},
        {"E": float("inf")}, {"delta_list": [float("inf")]}, {"geometry": 5},
        {"output_dir": 5}, {"seed": -1},
        {"E": "0.5"}, {"kappa": [1.0]}, {"kappa": None},
        {"phantom": "bump"}, {"phantom": {"kind": 3}}, {"phantom": {"center": 60.0}},
    ])
    def test_wrongly_typed_value_exit_2(self, tmp_path, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main(["validate", "--config", str(bad)])
        assert rc == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"step": 1e-300}, {"step": 0.001},
        {"phantom": {"kind": "bump"}},
        {"phantom": {"kind": "bump", "center": 60.0, "widht": 10.0}},
        {"phantom": {"kind": "hat", "center": 60.0, "half_width": "5"}},
        {"phantom": {"kind": "bump", "center": 10.0, "width": 50.0}},
        {"phantom": {"kind": "indicator", "c": 80.0, "d": 40.0}},
        {"phantom": {"kind": "cube", "center": 60.0}},
        {"phantom": {"kind": "bump", "center": 60.0, "width": 10.0, "geom": 1.0}},
        {"phantom": {"kind": "hat", "center": 60.0, "half_width": 1e-300}},
        {"E": 0.0}, {"delta_list": [0.0]}, {"kappa": 0.0}, {"delta_list": [-1e-4]},
        {"mu_list": []}, {"delta_list": [1e-4, 1e-4]},
    ])
    def test_refused_config_exit_2(self, tmp_path, capsys, doc):
        # oversized grids, phantoms without their parameters and phantoms
        # whose support leaves (a2, a4) are refused before any matrix is built,
        # as are the constants and lists the bounds or the per-run file
        # names cannot take
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main(["reconstruct", "--small", "--config", str(bad),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["validate", "svd-report"])
    @pytest.mark.parametrize("doc", [
        {"shift": 0.3}, {"svd_method": "lapack"}, {"rank_tol": 1e-15},
        {"c_tv": 1.0}, {"A": None},
    ], ids=["shift", "svd_method", "rank_tol", "c_tv", "A"])
    def test_removed_keys_exit_2(self, tmp_path, capsys, cmd, doc):
        # fixed, not keys: a shift other than 1/2 moves the accumulation
        # point of the spectrum off 1, and the LAPACK spectrum loses its tail;
        # c_tv and A are measured from the computed tail
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main([cmd, "--small", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"unknown config keys: {sorted(doc)}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_repeated_delta_label_refused(self, tmp_path, capsys):
        # 1.2e-3 and 1.4e-3 both name their per-run files delta1e-03, so the
        # second would overwrite the first while the summary keeps both rows
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta_list": [1.2e-3, 1.4e-3]}))
        out = tmp_path / "o"
        assert main(["reconstruct", "--small", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert "['1e-03', '1e-03'] repeat" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_mu_label_refused(self, tmp_path, capsys):
        # 8.0 and 8.000001 both label their spectrum.csv and figure2_roi.csv
        # columns and their svd_summary.json roi_fits entry "8"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mu_list": [8.0, 8.000001, 20]}))
        assert main(["validate", "--small", "--config", str(cfg)]) == 2
        assert "['8', '8', '20'] repeat" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, blocker", [
        ("constants", "constants.csv"),   # a directory where the CSV goes
        ("bounds", "svd_cache.npy"),      # a directory where the cache goes
    ])
    def test_unwritable_output_exit_2(self, tmp_path, capsys, cmd, blocker):
        out = tmp_path / "o"
        (out / blocker).mkdir(parents=True)
        assert main([cmd, "--small", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "output error" in err and "Traceback" not in err
        assert not list(out.glob("*.tmp"))

    def test_output_dir_is_a_file_exit_2(self, tmp_path, capsys):
        (tmp_path / "o").write_text("")
        assert main(["constants", "--small", "--out", str(tmp_path / "o")]) == 2
        assert "output error" in capsys.readouterr().err

    # documents json.dumps never writes, and values the file system or
    # int() refuse after json.load has accepted them
    @pytest.mark.parametrize("raw", [
        b'{"output_dir": "a\\u0000b"}',          # os.makedirs: embedded null byte
        b'{"output_dir": "a\\ud800b"}',          # a lone surrogate encodes to no path
        b'{"E": 5\xff}',                          # not UTF-8
        b"[" * 200000 + b"]" * 200000,            # nesting past the parser's recursion
        b'{"E": ' + b"1" * 5000 + b"}",           # past int()'s 4300-digit limit
    ], ids=["null_byte", "surrogate", "not_utf8", "deep_nesting", "long_int"])
    def test_unparseable_or_unusable_config_exit_2(self, tmp_path, capsys,
                                                   monkeypatch, raw):
        # no --out, which would replace the output_dir under test
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_bytes(raw)
        with pytest.raises(ConfigError):
            load_config("cfg.json")
        for cmd in ("validate", "constants"):
            assert main([cmd, "--config", "cfg.json"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_null_byte_in_out_flag_exit_2(self, tmp_path, capsys):
        assert main(["constants", "--small", "--out", str(tmp_path / "a\0b")]) == 2
        assert capsys.readouterr().err.startswith("config error: output_dir")

    def test_validate_touches_no_output_path(self, tmp_path):
        out = tmp_path / "o"
        assert main(["validate", "--small", "--out", str(out)]) == 0
        assert not out.exists()
        out.write_text("kept")   # a file where a directory would go
        assert main(["validate", "--small", "--out", str(out)]) == 0
        assert out.read_text() == "kept"

    @pytest.mark.parametrize("cmd", ["validate", "reconstruct"])
    def test_default_phantom_checked(self, tmp_path, capsys, cmd):
        # the default bump, centred on the overlap (0, 11), leaves (10, 100)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"geometry": [0, 10, 11, 100], "mu_list": [0.1]}))
        assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert ("config error: bump support (-7.5, 28.5) is not an interval "
                "inside (10.0, 100.0)") in capsys.readouterr().err
        assert load_config(None).phantom is None
        assert load_config(None, small=True).phantom is None

    def test_phantom_norm_refused_before_svd(self, tmp_path, capsys, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("SVD set up before the prior check")

        monkeypatch.setattr("truncated_hilbert.cli._spectral_setup", no_svd)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"E": 0.001}))
        rc = main(["reconstruct", "--small", "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "exceeds the prior bound E=0.001" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"E": 1e160}, {"delta_list": [1e300]}, {"delta_list": [1e-4, 1e-300]},
    ])
    def test_tikhonov_parameter_refused_before_svd(self, tmp_path, capsys,
                                                   monkeypatch, doc):
        # eta = delta^2/E^2 overflows or underflows to 0; refused with exit 2
        # before decomposing, for every delta of the list
        def no_svd(*args, **kwargs):
            raise AssertionError("SVD set up before the eta check")

        monkeypatch.setattr("truncated_hilbert.cli._spectral_setup", no_svd)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        rc = main(["reconstruct", "--small", "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Tikhonov parameter" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc", [
        {"E": 1e300, "delta_list": [1e-300]},
        {"kappa": 1e300, "delta_list": [1e-300]},
    ])
    def test_noise_level_outside_double_range_exit_2(self, tmp_path, capsys, doc):
        # delta^2/E^2 underflows to 0, which tikhonov_reconstruct cannot take
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        rc = main(["bounds", "--small", "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Tikhonov parameter" in err and "not a positive double" in err
        assert not (tmp_path / "o" / "bounds.csv").exists()

    @pytest.mark.parametrize("doc, valid", [
        ({"kappa": 1e300, "delta_list": [1e-10]}, "true"),
        ({"kappa": 1e-300, "delta_list": [1e10]}, "false"),
    ], ids=["kappa_over_delta", "delta_over_kappa"])
    def test_ratio_outside_double_range_exit_0(self, tmp_path, small_preset_sys,
                                               doc, valid):
        # kappa/delta or delta/kappa past the double range, which the config
        # used to refuse: the bounds decide their own validity, in logs, so
        # bound_full is valid at kappa/delta = 1e310 (6.147e299, checked
        # against its closed form below)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["bounds", "--small", "--config", str(cfg), "--out", str(out)]) == 0
        [row] = _read_rows(out / "bounds.csv")
        assert [row[f"valid_{b}"] for b in ("l2", "tv", "full")] == [valid] * 3
        k = calibrate_constants(small_preset_sys, SMALL_PRESET_GEOM, 8.0)
        cfg_obj = load_config(str(cfg), small=True)
        _check_valid_bounds(out / "bounds.csv", k, cfg_obj.E, cfg_obj.kappa)

    def test_reconstruct_below_data_rounding_has_no_bound(self, tmp_path):
        # 2 eps |f_true| = 1.8e-15 is far above delta; sigma_9 ~ 1e-20 amplifies
        # that rounding to a ROI error of 7.8e-3, which the bound (3.9e-5)
        # does not describe
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta_list": [1e-20]}))
        out = tmp_path / "o"
        assert main(["reconstruct", "--small", "--config", str(cfg),
                     "--out", str(out)]) == 0
        rows = _read_rows(out / "reconstruction_summary.csv")
        assert [r["method"] for r in rows] == ["tsvd", "tikhonov"]
        assert rows[0]["cutoff_n"] == "9"
        for row in rows:
            assert row["bound_valid"] == "false"
            assert row["bound"] == "nan"
            assert float(row["roi_error"]) > 1e-3
        for meta in out.glob("recon_*.csv.json"):
            doc = json.loads(meta.read_text())
            assert doc["bound_valid"] is False and doc["bound"] is None

    @pytest.mark.parametrize("doc", [
        # doubles 2 apart round the object nodes onto the data nodes
        {"geometry": [1e16, 1e16 + 30, 1e16 + 90, 1e16 + 116]},
        {"geometry": [0, 2, 4, 6], "step": 3.0, "mu_list": [0.5]},
    ])
    def test_grids_the_svd_commands_reject_exit_2(self, tmp_path, capsys, doc):
        # colliding grids and a region of interest without object samples
        # used to pass validate and fail every SVD command with exit 3
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        for cmd in ("validate", "bounds"):
            rc = main([cmd, "--config", str(bad), "--out", str(tmp_path / "o")])
            assert rc == 2
        err = capsys.readouterr().err
        assert "collide" in err or "no object grid points" in err
        assert "Traceback" not in err

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        # a valid region of interest whose envelope no computed tail index
        # satisfies
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mu_list": [55.0]}))
        rc = main(["bounds", "--config", str(cfg), "--small",
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "no self-consistent N_mu" in capsys.readouterr().err


_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10**400, 10**400)
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
_NUM = st.integers(-5, 2000) | st.floats(-5.0, 2000.0)
# plausible values, so that most documents get past the type checks
_FIELDS = {
    "geometry": st.tuples(_NUM, *[st.floats(0.5, 600.0)] * 3).map(
        lambda t: [t[0], t[0] + t[1], t[0] + t[1] + t[2], t[0] + sum(t[1:])]),
    "step": st.floats(0.2, 50.0) | st.sampled_from([1, 0.5, 3.0]),
    "mu_list": st.lists(st.floats(0.0, 600.0), max_size=3),
    "delta_list": st.lists(st.floats(-1e-3, 1e-2), max_size=3),
    "E": _NUM, "kappa": _NUM,
    "seed": st.integers(-3, 2**70),
    "phantom": st.none() | st.fixed_dictionaries(
        {"kind": st.sampled_from(["bump", "indicator", "hat", "cube"])},
        optional={k: _NUM for k in ("center", "width", "amplitude", "c", "d",
                                    "half_width", "peak")}),
}


@st.composite
def _documents(draw):
    """A config document with plausible fields, one of them maybe arbitrary JSON."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_ANY_JSON)
    doc = draw(st.fixed_dictionaries({}, optional=_FIELDS))
    if draw(st.booleans()):
        doc[draw(st.sampled_from(sorted(_FIELDS) + ["stepp"]))] = draw(_ANY_JSON)
    return doc


_MAGNITUDE = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
# the small preset's overlap (a2, a3) = (30, 90)
_HEAVY_FIELDS = {
    "E": _MAGNITUDE,
    "kappa": _MAGNITUDE,
    "delta_list": st.lists(_MAGNITUDE, min_size=1, max_size=3),
    "mu_list": st.lists(st.floats(0.0, 60.0, exclude_min=True, exclude_max=True),
                        min_size=1, max_size=2),
}


class TestCliContract:
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(doc=_documents(), cmd=st.sampled_from(["validate", "constants"]))
    def test_any_json_document_exits_0_2_or_3(self, tmp_path_factory, doc, cmd):
        # any JSON config ends in exit 0, 2 or 3; an escaping exception fails here
        work = tmp_path_factory.mktemp("fuzz")
        path = work / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main([cmd, "--config", str(path), "--out", str(work / "o")]) in (0, 2, 3)

    @pytest.fixture(scope="class")
    def heavy_dir(self, tmp_path_factory):
        # one output directory: the cached factors do not depend on E, delta
        # or mu, so the small preset is decomposed once for every example
        return tmp_path_factory.mktemp("heavy")

    @settings(max_examples=120, derandomize=True, deadline=None, database=None)
    @given(doc=st.fixed_dictionaries({}, optional=_HEAVY_FIELDS),
           cmd=st.sampled_from(["bounds", "reconstruct"]))
    def test_extreme_prior_noise_and_roi_exit_0_2_or_3(self, heavy_dir, small_preset_sys,
                                                       doc, cmd):
        path = heavy_dir / "cfg.json"
        path.write_text(json.dumps(doc))
        rc = main([cmd, "--small", "--config", str(path), "--out", str(heavy_dir / "o")])
        assert rc in (0, 2, 3)
        if cmd == "bounds" and rc == 0:
            cfg = load_config(str(path), small=True)
            k = calibrate_constants(small_preset_sys, SMALL_PRESET_GEOM,
                                    float(cfg.mu_list[0]))
            _check_valid_bounds(heavy_dir / "o" / "bounds.csv", k, cfg.E, cfg.kappa)


# 0, 1, 3, 4, 8 and 12 values below the transition
_SMALL_GEOMETRIES = ([0, 1, 3, 4], [0, 2, 6, 8], [0, 4, 6, 10], [0, 6, 16, 21],
                     [0, 12, 34, 44], [0, 60, 120, 180])


@pytest.mark.parametrize("geometry", _SMALL_GEOMETRIES,
                         ids=lambda g: "_".join(map(str, g)))
@pytest.mark.parametrize("cmd", ["svd-report", "figure2", "reconstruct", "bounds"])
def test_decomposing_commands_on_small_geometries(tmp_path, capsys, geometry, cmd):
    # a short tail or none ends in exit 0, 2 or 3, never in a traceback
    a1, a2, a3, a4 = geometry
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "geometry": geometry, "mu_list": [0.1 * (a3 - a2)],
        "phantom": {"kind": "hat", "center": 0.5 * (a2 + a4),
                    "half_width": 0.25 * (a4 - a2)}}))
    assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / "o")]) in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


def _check_valid_bounds(path, k, E, kappa):
    """Every bound marked valid matches its closed form, evaluated in logs."""
    log = math.log
    gap = k.alpha - k.beta_mu
    for row in _read_rows(path):
        delta = float(row["delta"])
        checks = []
        if row["valid_l2"] == "true":
            head = log(delta) + k.alpha * k.n_mu - log(k.A)
            tail = (log(E) + log(k.b_mu)
                    + k.beta_mu / k.alpha * (log(delta) - log(k.A * k.v_mu) - log(E))
                    + log(k.alpha / gap) - 0.5 * log(math.expm1(2.0 * k.beta_mu)))
            checks.append(("bound_pair", log(2.0) + np.logaddexp(head, tail)))
        if row["valid_tv"] == "true":
            head = log(2.0 * delta / k.A) + k.alpha * k.n_mu
            tail = (log(2.0 * k.c_tv * k.b_mu / k.n_mu) + gap / k.alpha * log(kappa)
                    + k.beta_mu / k.alpha * (log(delta) - log(k.A * k.w_mu))
                    + log(k.alpha / gap) - log(math.expm1(k.beta_mu)))
            checks.append(("bound_tv", np.logaddexp(head, tail)))
        if row["valid_full"] == "true":
            C = k.c_tv * (1.0 / k.alpha + 2.0) * math.sqrt(k.alpha + 1.5)
            D = log(k.A * k.c_tv / (2.0 * k.alpha))
            checks.append(("bound_full", log(kappa) + log(C)
                           - 0.5 * log(log(kappa) - log(delta) + D)))
        for name, want in checks:
            got = float(row[name])
            assert 0.0 < got < math.inf, (name, row)
            assert abs(log(got) - want) <= 1e-9, (name, row, math.exp(want))


class TestCommands:
    def test_constants_golden(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["constants", "--out", str(out)])
        assert rc == 0
        rows = _read_rows(out / "constants.csv")
        assert len(rows) == 3
        assert float(rows[0]["alpha"]) == pytest.approx(5.043883356944654, rel=1e-9)
        assert float(rows[2]["beta_mu_exact"]) == pytest.approx(
            1.1868926401276634, rel=1e-9)
        for row in rows:
            h = float(row["holder_exponent"])
            assert 0.0 < h < 1.0

    @pytest.mark.parametrize("doc", [
        {"geometry": [0, 1e-170, 2e-170, 3e-170], "step": 1e-171, "mu_list": [2e-171]},
        {"geometry": [0, 4.5e102, 1.35e103, 1.725e103], "step": 1e101, "mu_list": [5e101]},
    ])
    def test_beta_mu_approx_at_extreme_scales(self, tmp_path, capsys, doc):
        # -P'(a3), a product of three breakpoint differences, leaves the
        # double range at these scales; beta_mu_approx must not
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert main(["constants", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""
        (row,) = _read_rows(tmp_path / "o" / "constants.csv")
        exact, approx = float(row["beta_mu_exact"]), float(row["beta_mu_approx"])
        a2, a3 = doc["geometry"][1:3]
        # relative error O(mu): mu / (a3 - a2) is 0.2 and 0.056 here
        assert abs(approx / exact - 1) <= doc["mu_list"][0] / (a3 - a2)

    def test_constants_deterministic_rerun(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["constants", "--small", "--out", str(out1)]) == 0
        assert main(["constants", "--small", "--out", str(out2)]) == 0
        assert (out1 / "constants.csv").read_bytes() == \
            (out2 / "constants.csv").read_bytes()

    def test_figure1(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["figure1", "--out", str(out)])
        assert rc == 0
        rows = _read_rows(out / "figure1.csv")
        assert len(rows) == 19 * 3
        assert list(rows[0]) == ["a3", "mu_fraction", "mu", "holder_exponent"]
        by_a3 = {}
        for row in rows:
            h = float(row["holder_exponent"])
            assert 0.0 < h < 1.0
            by_a3.setdefault(row["a3"], {})[row["mu_fraction"]] = h
        for vals in by_a3.values():
            assert vals["0.25"] > vals["0.1"] > vals["0.01"]
        # golden spot at a3 = 0.5, mu = 0.05
        spot = by_a3["5.00000000000000000e-01"]["0.1"]
        assert spot == pytest.approx(0.22188258163331545, abs=1e-9)

    def test_figure1_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["figure1", "--out", str(out1)]) == 0
        assert main(["figure1", "--out", str(out2)]) == 0
        assert (out1 / "figure1.csv").read_bytes() == (out2 / "figure1.csv").read_bytes()

    def test_svd_report_small(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["svd-report", "--small", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "svd_summary.json").read_text())
        assert summary["matrix_shape"] == [91, 86]
        assert abs(summary["count_below_0.97"] - 10) <= 1
        assert abs(summary["count_below_0.01"] - 9) <= 1
        assert summary["tail_rate_rel_dev"] < 0.05
        # coarse-grid smoke check; the tight law tolerances are asserted on
        # the full-resolution geometry in the acceptance suite
        for fit in summary["roi_fits"].values():
            assert fit["rel_dev"] < 0.15
        assert all(e["monotone"] for e in summary["monotone_tail"])
        assert not summary["head_vector_monotone"]
        lines = (out / "spectrum.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + summary["retained"]

    def test_svd_report_records_near_one_error(self, tmp_path):
        # 7 retained values, the transition at position 3: the 3 values below
        # it fit the tail, the 3 above hold no near-one window, so that fit
        # is refused and the command still reports the rest
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "geometry": [0, 4, 6, 10], "mu_list": [0.5],
            "phantom": {"kind": "hat", "center": 7.0, "half_width": 2.0}}))
        out = tmp_path / "o"
        assert main(["svd-report", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "svd_summary.json").read_text())
        assert summary["retained"] == 7
        assert [e["n"] for e in summary["monotone_tail"]] == [1, 2, 3]
        assert summary["near_one_fit"] == {
            "error": "near-one fit needs 5 values above the transition, got 3"}
        assert "near_one_rate_expected" not in summary

    def test_svd_report_refuses_a_one_value_tail(self, tmp_path, capsys):
        # one of the 7 values lies below the transition: no tail fit can run
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"geometry": [0, 2, 6, 8], "mu_list": [0.5]}))
        out = tmp_path / "o"
        assert main(["svd-report", "--config", str(cfg), "--out", str(out)]) == 3
        assert ("tail fits need at least 2 values below the transition, got 1"
                in capsys.readouterr().err)
        assert not (out / "svd_summary.json").exists()

    def test_figure2_tail_starts_at_the_transition(self, tmp_path):
        # alpha 4.02, 12 values below the transition: n = 1 is the first of
        # them (the last nine read log sigma -15.6 against the model's -3.33)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"geometry": [0, 60, 120, 180], "mu_list": [5.0]}))
        out = tmp_path / "o"
        assert main(["figure2", "--config", str(cfg), "--out", str(out)]) == 0
        first = _read_rows(out / "figure2_sigma.csv")[0]
        assert first["n"] == "1"
        assert abs(float(first["log_sigma"]) - float(first["log_model"])) < 0.5

    def test_figure2_small(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["figure2", "--small", "--out", str(out)])
        assert rc == 0
        sig_rows = _read_rows(out / "figure2_sigma.csv")
        assert len(sig_rows) == 9
        assert [r["n"] for r in sig_rows] == [str(n) for n in range(1, 10)]
        roi_rows = _read_rows(out / "figure2_roi.csv")
        assert len(roi_rows) == 9
        for row in roi_rows:
            for key, val in row.items():
                if key.startswith("log_"):
                    assert float(val) < 0
        # the model columns are the asymptotic laws' log forms, to the last digit
        cfg = load_config(None, small=True)
        for n, (sig, roi) in enumerate(zip(sig_rows, roi_rows), 1):
            assert float(sig["log_model"]) == log_sigma_model(cfg.geom(), n)
            for mu in cfg.mu_list:
                assert (float(roi[f"log_model_mu{mu_label(mu)}"])
                        == log_roi_norm_model(cfg.geom(), mu, n))

    def test_outputs_are_named_by_the_labels(self, tmp_path):
        # every column, key and file named after a mu or a delta reads
        # mu_label or delta_label of it: 8.5 and 2.5e-5 read 8.5 and 3e-05
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mu_list": [8.5], "delta_list": [2.5e-5]}))
        out = tmp_path / "o"
        for cmd in ("svd-report", "figure2", "reconstruct"):
            assert main([cmd, "--small", "--config", str(cfg), "--out", str(out)]) == 0
        mu, delta = mu_label(8.5), delta_label(2.5e-5)
        assert (mu, delta) == ("8.5", "3e-05")
        with open(out / "spectrum.csv", newline="") as fh:
            assert next(csv.reader(fh))[-1] == f"roi_norm_mu{mu}"
        with open(out / "figure2_roi.csv", newline="") as fh:
            assert next(csv.reader(fh)) == ["n", f"log_roi_mu{mu}", f"log_model_mu{mu}"]
        summary = json.loads((out / "svd_summary.json").read_text())
        assert list(summary["roi_fits"]) == [mu]
        assert sorted(p.name for p in out.glob("recon_*.csv")) == [
            f"recon_{method}_delta{delta}.csv" for method in ("tikhonov", "tsvd")]

    def test_reconstruct_small(self, tmp_path):
        out = tmp_path / "o"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta_list": [1e-4, 1e-6]}))
        rc = main(["reconstruct", "--small", "--config", str(cfg),
                   "--out", str(out), "--seed", "7"])
        assert rc == 0
        rows = _read_rows(out / "reconstruction_summary.csv")
        assert len(rows) == 4    # two deltas x two methods
        for row in rows:
            err = float(row["roi_error"])
            assert err >= 0
            if row["bound_valid"] == "true":
                assert err <= float(row["bound"])
        sidecars = sorted(out.glob("recon_*.csv.json"))
        assert len(sidecars) == 4
        meta = json.loads(sidecars[0].read_text())
        assert meta["seed"] == 7

    def test_bounds_small(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["bounds", "--small", "--out", str(out)])
        assert rc == 0
        rows = _read_rows(out / "bounds.csv")
        assert len(rows) == 5
        for row in rows:
            assert row["valid_l2"] in ("true", "false")
            if row["valid_tv"] == "false":
                assert row["bound_tv"] == "nan"

    def test_bounds_small_tv_bound_beyond_double_range(self, tmp_path):
        # the variation bound is about 1e448 here although delta/kappa is far
        # below its threshold; it used to be written as inf with valid_tv true
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kappa": 1e171, "mu_list": [6.173353054684783e-277]}))
        out = tmp_path / "o"
        assert main(["bounds", "--small", "--config", str(cfg), "--out", str(out)]) == 0
        rows = _read_rows(out / "bounds.csv")
        assert len(rows) == 5
        assert all(row["valid_tv"] == "false" and row["bound_tv"] == "nan"
                   for row in rows)

    def test_bounds_small_beta_not_applicable(self, tmp_path):
        # beta_mu = 4.6e-21: e^(2 beta) - 1 rounds to 0 unless formed with
        # expm1, and an infinite V_mu would mark every delta valid
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mu_list": [1e-40]}))
        out = tmp_path / "o"
        assert main(["bounds", "--small", "--config", str(cfg), "--out", str(out)]) == 0
        rows = _read_rows(out / "bounds.csv")
        assert len(rows) == 5
        assert all(row["valid_l2"] == "false" and row["bound_pair"] == "nan"
                   for row in rows)
