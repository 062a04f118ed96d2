"""The one writer of output files: cell rules, JSON layout, and that nothing else writes."""

import ast
import csv
import json
import math
from pathlib import Path

import numpy as np

from truncated_hilbert import report
from truncated_hilbert.cli import main
from truncated_hilbert.report import write_csv, write_json


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestWriteCsv:
    def test_cell_rules(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"],
                  [[1.5, np.float64(2), 3, True, False, None, "x", math.nan]])
        assert read_csv(path) == [
            ["a", "b"],
            ["1.50000000000000000e+00", "2.00000000000000000e+00", "3",
             "true", "false", "", "x", "nan"],
        ]

    def test_doubles_round_trip_bitwise(self, tmp_path):
        # uniformly random bit patterns reach every exponent, subnormals included
        bits = np.random.default_rng(7).integers(0, 2 ** 64, 2000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = np.concatenate([values[np.isfinite(values)],
                                 [0.0, -0.0, 5e-324, np.finfo(float).max]])
        path = tmp_path / "t.csv"
        write_csv(path, ["v"], ([v] for v in values))
        back = np.array([float(row[0]) for row in read_csv(path)[1:]])
        assert np.array_equal(back.view(np.uint64), values.view(np.uint64))


class TestWriteJson:
    def test_layout(self, tmp_path):
        path = tmp_path / "t.json"
        write_json(path, {"b": np.float64(0.1), "a": {"z": np.float32(0.5), "y": None}})
        assert path.read_text() == (
            '{\n  "a": {\n    "y": null,\n    "z": 0.5\n  },\n  "b": 0.1\n}\n')


def test_integer_mu_list_writes_the_same_bytes(tmp_path):
    outs = []
    for mus in ([8, 10, 20], [8.0, 10.0, 20.0]):
        cfg = tmp_path / f"{type(mus[0]).__name__}.json"
        cfg.write_text(json.dumps({"mu_list": mus}))
        out = tmp_path / cfg.stem
        assert main(["constants", "--small", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "constants.csv").read_bytes())
    assert outs[0] == outs[1]


def test_report_is_the_only_writer():
    """No other module imports csv or calls json.dump; json.dumps stays allowed."""
    found = []
    for path in sorted(Path(report.__file__).parent.glob("*.py")):
        if path.name == "report.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "csv"
                    or isinstance(node, ast.Attribute) and node.attr == "dump"
                    and isinstance(node.value, ast.Name) and node.value.id == "json"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
