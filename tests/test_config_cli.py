import csv
import json

import pytest

from truncated_hilbert.cli import main
from truncated_hilbert.config import default_config, load_config
from truncated_hilbert.errors import ConfigError


class TestConfig:
    def test_defaults_validate(self):
        cfg = load_config(None)
        assert cfg.geometry == (0.0, 450.0, 1350.0, 1725.0)
        small = load_config(None, small=True)
        assert small.geometry == (0.0, 30.0, 90.0, 115.0)

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


class TestCliExitCodes:
    def test_validate_ok(self, tmp_path, capsys):
        rc = main(["validate", "--small", "--out", str(tmp_path / "o")])
        assert rc == 0
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
    ])
    def test_wrongly_typed_value_exit_2(self, tmp_path, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main(["validate", "--config", str(bad)])
        assert rc == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_numerical_failure_exit_3(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rank_tol": 1.5}))
        rc = main(["svd-report", "--config", str(cfg), "--small",
                   "--out", str(tmp_path / "o")])
        assert rc == 3


class TestCommands:
    def test_constants_golden(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["constants", "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(open(out / "constants.csv")))
        assert len(rows) == 3
        assert float(rows[0]["alpha"]) == pytest.approx(5.043883356944654, rel=1e-9)
        assert float(rows[2]["beta_mu_exact"]) == pytest.approx(
            1.1868926401276634, rel=1e-9)
        for row in rows:
            h = float(row["holder_exponent"])
            assert 0.0 < h < 1.0

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
        rows = list(csv.DictReader(open(out / "figure1.csv")))
        assert len(rows) == 19 * 3
        by_a3 = {}
        for row in rows:
            assert row["status"] == "ok"
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

    def test_figure2_small(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["figure2", "--small", "--out", str(out)])
        assert rc == 0
        sig_rows = list(csv.DictReader(open(out / "figure2_sigma.csv")))
        assert len(sig_rows) == 9
        assert [r["n"] for r in sig_rows] == [str(n) for n in range(1, 10)]
        roi_rows = list(csv.DictReader(open(out / "figure2_roi.csv")))
        assert len(roi_rows) == 9
        for row in roi_rows:
            for key, val in row.items():
                if key.startswith("log_"):
                    assert float(val) < 0

    def test_reconstruct_small(self, tmp_path):
        out = tmp_path / "o"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta_list": [1e-4, 1e-6]}))
        rc = main(["reconstruct", "--small", "--config", str(cfg),
                   "--out", str(out), "--seed", "7"])
        assert rc == 0
        rows = list(csv.DictReader(open(out / "reconstruction_summary.csv")))
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
        rows = list(csv.DictReader(open(out / "bounds.csv")))
        assert len(rows) == 5
        for row in rows:
            assert row["valid_l2"] in ("true", "false")
            if row["valid_tv"] == "false":
                assert row["bound_tv"] == "nan"
