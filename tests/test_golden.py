"""Regression fixture: every file in configs/ against its committed scan.csv.

The seeded sampled config must reproduce its CSV byte for byte. Exact
configs must keep the header, the grid columns and the violation flags, and
every value within 1e-12.
"""

from pathlib import Path

import pytest

from lgsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))
SEEDED = {"bell_global_sampled", "single_qubit_sampled"}
EXACT_TOL = 1e-12


def read_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()]


@pytest.mark.parametrize("name", CONFIGS)
def test_config_reproduces_golden_csv(tmp_path, name):
    config = ROOT / "configs" / f"{name}.json"
    assert main(["scan", str(config), "--out", str(tmp_path)]) == 0
    got, want = tmp_path / "scan.csv", GOLDEN / f"{name}.csv"
    if name in SEEDED:
        assert got.read_bytes() == want.read_bytes()
        return
    got_rows, want_rows = read_rows(got), read_rows(want)
    header = want_rows[0]
    assert got_rows[0] == header
    assert len(got_rows) == len(want_rows)
    n_grid = 2 if header[0] == "ratio" else 1
    for got_row, want_row in zip(got_rows[1:], want_rows[1:]):
        assert got_row[:n_grid] == want_row[:n_grid]
        for column, a, b in zip(header[n_grid:], got_row[n_grid:], want_row[n_grid:]):
            if column.startswith("violated_"):
                assert a == b, (column, want_row[:n_grid])
            else:
                assert abs(float(a) - float(b)) <= EXACT_TOL, (column, want_row[:n_grid])
