import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lgsim import ConfusionMatrix
from lgsim.cli import main


def write_config(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def single_qubit_config(tmp_path):
    return write_config(
        tmp_path / "config.json",
        {
            "schema_version": 1,
            "scenario": "single_qubit",
            "parameters": {"gamma": 1.0},
            "engine": {"kind": "exact"},
        },
    )


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_scan_exact_single_qubit(tmp_path, single_qubit_config, capsys):
    out = tmp_path / "run"
    assert main(["scan", single_qubit_config, "--out", str(out)]) == 0
    header, rows = read_csv(out / "scan.csv")
    assert header == [
        "tau", "K3", "K3_prime", "K3_perm",
        "err_K3", "err_K3_prime", "err_K3_perm",
        "violated_K3", "violated_K3_prime", "violated_K3_perm",
    ]
    assert len(rows) == 75
    k3_max = max(float(r[1]) for r in rows)
    assert k3_max <= 1.5 + 1e-9
    assert k3_max > 1.49
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["scenario"] == "single_qubit"
    assert manifest["outputs"]["scan_csv"] == "scan.csv"
    summary = capsys.readouterr().out
    assert "violating points" in summary


def test_scan_single_shot_flags_errors(tmp_path, single_qubit_config):
    out = tmp_path / "run"
    code = main(
        ["scan", single_qubit_config, "--engine", "sampled", "--shots", "1",
         "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    _, rows = read_csv(out / "scan.csv")
    for row in rows:
        # raw correlators are +/-1, so the combinations are odd integers
        assert float(row[1]) in (-3.0, -1.0, 1.0, 3.0)
        assert row[4] == "nan"


def test_scan_missing_parameter_names_the_key(tmp_path, capsys):
    config = write_config(
        tmp_path / "bad.json",
        {"scenario": "single_qubit", "parameters": {}},
    )
    assert main(["scan", config, "--out", str(tmp_path / "o")]) == 2
    assert "gamma" in capsys.readouterr().err


def test_scan_missing_file(tmp_path, capsys):
    assert main(["scan", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


def test_scan_invalid_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["scan", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_scan_determinism_byte_identical(tmp_path):
    config = write_config(
        tmp_path / "config.json",
        {
            "scenario": "single_qubit",
            "parameters": {"gamma": 1.0},
            "engine": {"kind": "sampled", "shots": 1024, "seed": 99},
            "grid": {"n_points": 20},
        },
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["scan", config, "--out", str(a)]) == 0
    assert main(["scan", config, "--out", str(b)]) == 0
    assert (a / "scan.csv").read_bytes() == (b / "scan.csv").read_bytes()


def test_scan_rerun_from_manifest(tmp_path, single_qubit_config):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(
        ["scan", single_qubit_config, "--engine", "sampled", "--shots", "512",
         "--seed", "17", "--out", str(a)]
    ) == 0
    assert main(["scan", str(a / "manifest.json"), "--out", str(b)]) == 0
    assert (a / "scan.csv").read_bytes() == (b / "scan.csv").read_bytes()


def test_env_seed_fallback(tmp_path, monkeypatch):
    config = write_config(
        tmp_path / "config.json",
        {
            "scenario": "single_qubit",
            "parameters": {"gamma": 1.0},
            "engine": {"kind": "sampled", "shots": 256},
            "grid": {"n_points": 5},
        },
    )
    monkeypatch.setenv("LGSIM_SEED", "12345")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["scan", config, "--out", str(a)]) == 0
    assert main(["scan", config, "--out", str(b)]) == 0
    assert (a / "scan.csv").read_bytes() == (b / "scan.csv").read_bytes()
    manifest = json.loads((a / "manifest.json").read_text())
    assert manifest["seed"] == 12345


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "scenario, parameters, extra, key",
    [
        ("single_qubit", {"gamma": 1.0}, {"grid": {"tau_max": NAN}}, "tau_max"),
        ("single_qubit", {"gamma": 1.0}, {"grid": {"tau_max": INF}}, "tau_max"),
        ("single_qubit", {"gamma": 1.0}, {"grid": {"n_points": NAN}}, "n_points"),
        ("single_qubit", {"gamma": NAN}, {}, "gamma"),
        ("tfic", {"j": 0.1, "gammas": [1, 1, NAN], "k": 2}, {}, "gammas"),
        ("single_qubit", {"gamma": 1.0}, {"noise": {"gate_duration": 0.03}}, "gate_duration"),
        ("single_qubit", {"gamma": 1.0}, {"engine": {"shots": NAN}}, "shots"),
        ("single_qubit", {"gamma": 1.0}, {"noise": {"readout_flip": NAN}}, "readout_flip"),
        ("single_qubit", {"gamma": 1.0}, {"noise": {"readout_flip": 1.5}}, "readout_flip"),
        ("single_qubit", {"gamma": -1}, {}, "gamma"),
        ("bell_pair_lgbi", {"gamma1": 0, "gamma2": 1.0}, {}, "gamma1"),
        ("bell_pair_lgbi", {"gamma1": -2.0, "gamma2": 1.0}, {}, "gamma1"),
        ("tfic", {"j": 0.1, "gammas": [0, 1, 1], "k": 2}, {}, "gammas"),
        ("tfic", {"j": 0.1, "gammas": [-1, 1, 1], "k": 2}, {}, "gammas"),
        ("tfic", {"j": 0.1, "gammas": [], "k": 2}, {}, "gammas"),
        ("tfic", {"j": 0.1, "gammas": 1.0, "k": 2}, {}, "gammas"),
        ("param_scan", {"n_qubits": 2, "ratios": 1.0}, {}, "ratios"),
        ("param_scan", {"n_qubits": 2, "ratios": []}, {}, "ratios"),
        ("tfic", {"j": 0.1, "gammas": [1, 1, 2], "k": 2.7}, {}, "k"),
        ("param_scan", {"n_qubits": 3.9, "ratios": [1.0]}, {}, "n_qubits"),
        ("single_qubit", {"gamma": 1.0}, {"grid": {"n_points": 4.5}}, "n_points"),
        ("single_qubit", {"gamma": 1.0}, {"engine": {"shots": 100.5}}, "shots"),
        (
            "single_qubit",
            {"gamma": 1.0},
            {"noise": {"readout_confusion": {"num_bits": 1.5, "matrix": [[1, 0], [0, 1]]}}},
            "num_bits",
        ),
    ],
)
def test_scan_rejects_unphysical_config_naming_the_key(
    tmp_path, capsys, scenario, parameters, extra, key
):
    config = write_config(
        tmp_path / "bad.json", {"scenario": scenario, "parameters": parameters, **extra}
    )
    out = tmp_path / "o"
    assert main(["scan", config, "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not (out / "scan.csv").exists()


def test_scan_accepts_integral_floats(tmp_path):
    config = write_config(
        tmp_path / "config.json",
        {
            "scenario": "tfic",
            "parameters": {"j": 0.1, "gammas": [1.0, 1.0], "k": 2.0},
            "grid": {"n_points": 3.0},
        },
    )
    out = tmp_path / "run"
    assert main(["scan", config, "--out", str(out)]) == 0
    assert len((out / "scan.csv").read_text().splitlines()) == 1 + 3


def test_scan_has_no_jobs_flag(tmp_path, single_qubit_config):
    assert main(["scan", single_qubit_config, "--out", str(tmp_path), "--jobs", "2"]) == 2


def test_param_scan_via_cli(tmp_path):
    config = write_config(
        tmp_path / "config.json",
        {
            "scenario": "param_scan",
            "parameters": {"n_qubits": 2, "ratios": [0.5, 1.0]},
            "grid": {"n_points": 11},
        },
    )
    out = tmp_path / "run"
    assert main(["scan", config, "--out", str(out)]) == 0
    header, rows = read_csv(out / "scan.csv")
    assert header[:2] == ["ratio", "tau"]
    assert len(rows) == 22


def test_scan_mitigate_flag_runs(tmp_path):
    config = write_config(
        tmp_path / "config.json",
        {
            "scenario": "single_qubit",
            "parameters": {"gamma": 1.0},
            "engine": {"kind": "sampled", "shots": 512, "seed": 4},
            "grid": {"n_points": 5},
            "noise": {"readout_flip": 0.03},
        },
    )
    out = tmp_path / "run"
    assert main(["scan", config, "--mitigate", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["engine"]["mitigate"] is True


NO_SCIPY_SCRIPT = """
import sys

import lgsim.cli
import lgsim.mitigation as mitigation

assert "scipy" not in sys.modules, "import lgsim.cli loaded scipy"
fit = mitigation._constrained_fit
fits = []
mitigation._constrained_fit = lambda m, t: (fits.append(1), fit(m, t))[1]
assert lgsim.cli.main(["scan", sys.argv[1], "--out", sys.argv[2]]) == 0
assert fits, "no row took the constrained fit"
assert "scipy" not in sys.modules, "a mitigated scan loaded scipy"
"""


def test_cli_and_mitigated_scan_never_load_scipy(tmp_path):
    # 16 shots under 10% readout flips leave zero counts, so bootstrap rows
    # invert to negative entries and take the constrained fit
    config = write_config(
        tmp_path / "config.json",
        {
            "scenario": "single_qubit",
            "parameters": {"gamma": 1.0},
            "engine": {"kind": "sampled", "shots": 16, "seed": 5, "mitigate": True},
            "grid": {"n_points": 3},
            "noise": {"readout_flip": 0.1},
        },
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, config, str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# --- calibrate ----------------------------------------------------------------


def test_calibrate_flip_probability(tmp_path):
    out = tmp_path / "cal.json"
    code = main(
        ["calibrate", "--bits", "1", "--flip-prob", "0.03",
         "--shots", "1000000", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    matrix = np.array(data["matrix"])
    assert np.abs(matrix - [[0.97, 0.03], [0.03, 0.97]]).max() < 0.001


def test_calibrate_zero_flip_gives_identity(tmp_path):
    out = tmp_path / "cal.json"
    assert main(
        ["calibrate", "--bits", "2", "--flip-prob", "0.0", "--shots", "5000",
         "--out", str(out)]
    ) == 0
    matrix = np.array(json.loads(out.read_text())["matrix"])
    assert np.array_equal(matrix, np.eye(4))


def test_calibrate_rejects_seven_bit_full_mode(tmp_path, capsys):
    code = main(
        ["calibrate", "--bits", "7", "--flip-prob", "0.03", "--mode", "full",
         "--out", str(tmp_path / "cal.json")]
    )
    assert code == 2


def test_calibrate_requires_exactly_one_noise_source(tmp_path):
    assert main(["calibrate", "--bits", "1", "--out", str(tmp_path / "c.json")]) == 2
    assert main(
        ["calibrate", "--bits", "1", "--flip-prob", "0.1", "--matrix", "m.json",
         "--out", str(tmp_path / "c.json")]
    ) == 2


def test_calibrate_from_matrix_file(tmp_path):
    true_matrix = tmp_path / "true.json"
    true_matrix.write_text(json.dumps({"num_bits": 1, "matrix": [[0.9, 0.2], [0.1, 0.8]]}))
    out = tmp_path / "cal.json"
    assert main(
        ["calibrate", "--bits", "1", "--matrix", str(true_matrix),
         "--shots", "200000", "--seed", "2", "--out", str(out)]
    ) == 0
    matrix = np.array(json.loads(out.read_text())["matrix"])
    assert np.abs(matrix - [[0.9, 0.2], [0.1, 0.8]]).max() < 0.01


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"num_bits": 1.5, "matrix": [[0.97, 0.03], [0.03, 0.97]]}, "'num_bits'"),
        ({"matrix": [[0.97, 0.03], [0.03, 0.97]]}, "'num_bits'"),
    ],
)
def test_calibrate_rejects_bad_matrix_file(tmp_path, capsys, payload, message):
    matrix = tmp_path / "true.json"
    matrix.write_text(json.dumps(payload))
    out = tmp_path / "cal.json"
    assert main(
        ["calibrate", "--bits", "1", "--matrix", str(matrix), "--out", str(out)]
    ) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# --- mitigate -------------------------------------------------------------------


def test_mitigate_files_round_trip(tmp_path):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"num_bits": 1, "counts": {"0": 940, "1": 60}}))
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"num_bits": 1, "matrix": [[0.97, 0.03], [0.03, 0.97]]}))
    out = tmp_path / "mitigated.json"
    assert main(
        ["mitigate", "--counts", str(counts), "--matrix", str(matrix), "--out", str(out)]
    ) == 0
    data = json.loads(out.read_text())
    probs = np.array([data["probabilities"]["0"], data["probabilities"]["1"]])
    assert abs(probs.sum() - 1.0) < 1e-9
    # mitigation sharpens the distribution toward the true one
    assert probs[0] > 0.94


def test_mitigate_accepts_counts_table_json(tmp_path):
    counts = tmp_path / "counts.json"
    counts.write_text(
        json.dumps({"outcomes": {"++": 800, "+-": 50, "-+": 60, "--": 90}, "n_shots": 1000})
    )
    matrix = tmp_path / "matrix.json"
    pair = np.kron([[0.97, 0.03], [0.03, 0.97]], [[0.97, 0.03], [0.03, 0.97]])
    matrix.write_text(json.dumps({"num_bits": 2, "matrix": pair.tolist()}))
    out = tmp_path / "m.json"
    assert main(
        ["mitigate", "--counts", str(counts), "--matrix", str(matrix), "--out", str(out)]
    ) == 0
    data = json.loads(out.read_text())
    assert abs(sum(data["probabilities"].values()) - 1.0) < 1e-9


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"counts": {"0": 0, "1": 0}}, "empty counts"),
        ({"outcomes": {"++": 0, "+-": 0, "-+": 0, "--": 0}, "n_shots": 0}, "empty counts"),
        ({"counts": {"111": 5, "0": 3}, "num_bits": 2}, "'111'"),
        ({"counts": {"0x": 5, "01": 3}}, "'0x'"),
        ({"counts": {"0": None, "1": 3}}, "bad input file"),
        ({"counts": {"0": float("inf"), "1": 3}}, "bad input file"),
        ({"counts": {"0": 2.5, "1": 3}}, "'0'"),
        ({"outcomes": {"++": 2.5, "+-": 1, "-+": 0, "--": 0}, "n_shots": 3}, "'++'"),
        # a fractional num_bits is rejected, not truncated, in either file;
        # a "matrix" entry replaces the symmetric confusion matrix file
        ({"counts": {"0": 60, "1": 40}, "num_bits": 1.9}, "'num_bits'"),
        (
            {
                "counts": {"0": 60, "1": 40},
                "matrix": {"num_bits": 1.5, "matrix": [[0.97, 0.03], [0.03, 0.97]]},
            },
            "'num_bits'",
        ),
        # keys that do not match a huge num_bits are rejected before any
        # 2^num_bits table is allocated
        ({"counts": {"0": 60, "1": 40}, "num_bits": 40}, "'0'"),
    ],
)
def test_mitigate_rejects_bad_counts(tmp_path, capsys, payload, message):
    payload = dict(payload)
    matrix_payload = payload.pop("matrix", None)
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps(payload))
    matrix = tmp_path / "matrix.json"
    bits = 1 if "counts" in payload and "num_bits" not in payload else 2
    if matrix_payload is None:
        matrix.write_text(ConfusionMatrix.symmetric(0.03, bits).to_json())
    else:
        matrix.write_text(json.dumps(matrix_payload))
    out = tmp_path / "m.json"
    assert main(
        ["mitigate", "--counts", str(counts), "--matrix", str(matrix), "--out", str(out)]
    ) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_mitigate_missing_file(tmp_path):
    assert main(
        ["mitigate", "--counts", str(tmp_path / "x.json"),
         "--matrix", str(tmp_path / "y.json"), "--out", str(tmp_path / "o.json")]
    ) == 2


# --- oracle ---------------------------------------------------------------------


def test_oracle_uniform(tmp_path, capsys):
    dist = tmp_path / "d.json"
    dist.write_text(json.dumps({k: 0.125 for k in
                                ("+++", "++-", "+-+", "+--", "-++", "-+-", "--+", "---")}))
    assert main(["oracle", "--distribution", str(dist)]) == 0
    out = capsys.readouterr().out
    assert "K3 (C12 + C23 - C13)    = 0" in out


def test_oracle_lower_bound_delta(tmp_path, capsys):
    table = {k: 0.0 for k in ("+++", "++-", "+-+", "+--", "-++", "-+-", "--+", "---")}
    table["+-+"] = 1.0
    dist = tmp_path / "d.json"
    dist.write_text(json.dumps(table))
    assert main(["oracle", "--distribution", str(dist)]) == 0
    assert "= -3" in capsys.readouterr().out


def test_oracle_rejects_negative_entries(tmp_path):
    table = {k: 0.125 for k in ("+++", "++-", "+-+", "+--", "-++", "-+-", "--+", "---")}
    table["+++"] = -0.125
    table["---"] = 0.375
    dist = tmp_path / "d.json"
    dist.write_text(json.dumps(table))
    assert main(["oracle", "--distribution", str(dist)]) == 2


def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("single_qubit", "transmon", "bell_pair_lgbi", "tfic", "param_scan"):
        assert name in out
