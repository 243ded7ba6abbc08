import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lgsim import (
    ConfusionMatrix,
    MeasurementSchedule,
    NoiseModel,
    mitigate,
    parity_observable,
    prepare_state,
    sampled_correlator,
)
from lgsim import observables
from lgsim.cli import main
from lgsim.scenarios import transverse_field_hamiltonian


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


def test_scan_rejects_single_shot_sampled_scans(tmp_path, single_qubit_config, capsys):
    # one shot has no error bar, so a sampled scan would write NaN errors
    out = tmp_path / "run"
    code = main(
        ["scan", single_qubit_config, "--engine", "sampled", "--shots", "1",
         "--seed", "3", "--out", str(out)]
    )
    assert code == 2
    assert "--shots" in capsys.readouterr().err
    config = write_config(
        tmp_path / "one_shot.json",
        {
            "scenario": "single_qubit",
            "parameters": {"gamma": 1.0},
            "engine": {"kind": "sampled", "shots": 1, "seed": 3, "mitigate": True},
        },
    )
    assert main(["scan", config, "--out", str(out)]) == 2
    assert "engine.shots" in capsys.readouterr().err
    assert not (out / "scan.csv").exists()
    # an exact scan never reads the shot count
    assert main(["scan", single_qubit_config, "--shots", "1", "--out", str(out)]) == 0


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


def test_drawn_seed_reruns_from_manifest(tmp_path, monkeypatch):
    # a drawn seed is a 128-bit integer; the manifest must replay every digit
    monkeypatch.delenv("LGSIM_SEED", raising=False)
    config = write_config(
        tmp_path / "config.json",
        {
            "scenario": "single_qubit",
            "parameters": {"gamma": 1.0},
            "engine": {"kind": "sampled", "shots": 64},
            "grid": {"n_points": 4},
        },
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["scan", config, "--out", str(a)]) == 0
    assert json.loads((a / "manifest.json").read_text())["seed"] >= 2**64
    assert main(["scan", str(a / "manifest.json"), "--out", str(b)]) == 0
    assert (a / "scan.csv").read_bytes() == (b / "scan.csv").read_bytes()


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
        ("single_qubit", {"gamma": 1.0}, {"engine": {"kind": "sampled", "seed": -4}}, "engine.seed"),
        ("single_qubit", {"gamma": 1.0}, {"engine": {"kind": "sampled", "seed": 1.5}}, "engine.seed"),
        ("single_qubit", {"gamma": 1.0}, {"engine": {"kind": "sampled"}, "argv": ["--seed", "-1"]},
         "--seed"),
        ("single_qubit", {"gamma": 1.0}, {"engine": {"kind": "sampled"}, "env": "-3"}, "LGSIM_SEED"),
        ("single_qubit", {"gamma": 1.0}, {"engine": {"kind": "sampled"}, "env": "1.5"}, "LGSIM_SEED"),
        ("single_qubit", {"gamma": 1.0}, {"grid": {"tau_max": 1e300}}, "grid.tau_max"),
        ("transmon", {"omega_eff": 1.0, "t2": None}, {"grid": {"tau_max": 3.1e7}}, "grid.tau_max"),
        ("param_scan", {"n_qubits": 2, "ratios": [1.0]}, {"engine": {"kind": "sampled"}},
         "engine.kind"),
        ("param_scan", {"n_qubits": 2, "ratios": [1.0]}, {"engine": {"mitigate": True}},
         "engine.mitigate"),
        ("param_scan", {"n_qubits": 2, "ratios": [1.0]}, {"argv": ["--engine", "sampled"]},
         "engine.kind"),
        ("param_scan", {"n_qubits": 2, "ratios": [1.0]}, {"argv": ["--mitigate"]},
         "engine.mitigate"),
        ("param_scan", {"n_qubits": 2, "ratios": [1.0]}, {"noise": {"t2": 5.0}}, "noise"),
        ("transmon", {"omega_eff": 1.0, "t2": "abc"}, {}, "t2"),
        ("transmon", {"omega_eff": 1.0, "t2": [1]}, {}, "t2"),
        # a boolean is not a number, and engine.mitigate takes only a boolean
        ("transmon", {"omega_eff": 1.0, "t2": True}, {}, "t2"),
        ("tfic", {"j": 0.1, "gammas": [1, 1, 2], "k": True}, {}, "k"),
        ("single_qubit", {"gamma": 1.0}, {"schema_version": True}, "schema_version"),
        ("single_qubit", {"gamma": 1.0}, {"noise": {"t2": True}}, "noise.t2"),
        ("single_qubit", {"gamma": 1.0}, {"engine": {"kind": "sampled", "mitigate": "no"}},
         "engine.mitigate"),
        # misspelt keys in any block
        ("single_qubit", {"gamma": 1.0, "gama": 2.0}, {}, "gama"),
        ("single_qubit", {"gamma": 1.0}, {"grid": {"n_point": 5}}, "n_point"),
        ("single_qubit", {"gamma": 1.0}, {"engine": {"shot": 3}}, "shot"),
        ("single_qubit", {"gamma": 1.0}, {"nosie": {"t2": 5.0}}, "nosie"),
        # blocks that are not mappings, or lack a key
        ("single_qubit", {"gamma": 1.0}, {"grid": [1]}, "grid"),
        ("single_qubit", [1], {}, "parameters"),
        ("single_qubit", {"gamma": 1.0}, {"engine": "exact"}, "engine"),
        ("single_qubit", {"gamma": 1.0}, {"noise": {"readout_confusion": {"num_bits": 1}}},
         "noise.readout_confusion.matrix"),
        ("single_qubit", {"gamma": 1.0}, {"noise": {"gate_depolarizing_1q": "x"}},
         "noise.gate_depolarizing_1q"),
        # an empty or boolean flip probability is not read as no readout noise
        *[
            ("single_qubit", {"gamma": 1.0},
             {"engine": {"kind": "sampled", "seed": 1}, "noise": {"readout_flip": flip}},
             "noise.readout_flip")
            for flip in ("", False, [])
        ],
        # text is not a number, even when it reads as one
        ("single_qubit", {"gamma": "1.0"}, {}, "gamma"),
        ("single_qubit", {"gamma": 1.0}, {"grid": {"n_points": "3"}}, "grid.n_points"),
        ("single_qubit", {"gamma": 1.0}, {"grid": {"tau_max": "2"}}, "grid.tau_max"),
        ("tfic", {"j": 0.1, "gammas": [1, "1", 2], "k": 2}, {}, "gammas"),
        ("single_qubit", {"gamma": 1.0}, {"engine": {"shots": "64"}}, "engine.shots"),
        ("single_qubit", {"gamma": 1.0}, {"engine": {"kind": "sampled", "seed": "5"}},
         "engine.seed"),
        ("single_qubit", {"gamma": 1.0}, {"noise": {"readout_flip": "0.1"}}, "noise.readout_flip"),
        ("single_qubit", {"gamma": 1.0}, {"engine": {"kind": "sampled"}, "env": "2.0"},
         "LGSIM_SEED"),
        # a per-qubit time for a qubit outside the register is not dropped
        ("tfic", {"j": 0.1, "gammas": [1, 1, 1, 1, 2], "k": 2}, {"noise": {"t1": {"7": 50.0}}},
         "noise.t1"),
        ("tfic", {"j": 0.1, "gammas": [1, 1, 2], "k": 2}, {"noise": {"t2": {"3": 50.0}}},
         "noise.t2"),
        ("tfic", {"j": 0.1, "gammas": [1, 1, 2], "k": 2}, {"noise": {"t1": {"-1": 50.0}}},
         "noise.t1"),
        # numpy draws at most 2^63 - 1 shots
        ("single_qubit", {"gamma": 1.0}, {"engine": {"kind": "sampled", "shots": 10**20}},
         "engine.shots"),
        ("single_qubit", {"gamma": 1.0},
         {"engine": {"kind": "sampled"}, "argv": ["--shots", str(2**63)]}, "--shots"),
        # the chain and the region scan take 2 to 12 qubits
        ("tfic", {"j": 0.1, "gammas": [1] * 13, "k": 2}, {}, "gammas"),
        ("param_scan", {"n_qubits": 1, "ratios": [1.0]}, {}, "n_qubits"),
        ("param_scan", {"n_qubits": 13, "ratios": [1.0]}, {}, "n_qubits"),
        # a shot count below 1 is named before the engine is built
        ("single_qubit", {"gamma": 1.0}, {"engine": {"kind": "sampled"}, "argv": ["--shots", "0"]},
         "--shots"),
        ("single_qubit", {"gamma": 1.0}, {"argv": ["--shots", "-5"]}, "--shots"),
        ("single_qubit", {"gamma": 1.0}, {"engine": {"shots": 0}}, "engine.shots"),
        ("single_qubit", {"gamma": 1.0}, {"engine": {"kind": "sampled", "shots": -5}},
         "engine.shots"),
        # a flip probability next to a confusion matrix is not dropped
        ("single_qubit", {"gamma": 1.0},
         {"engine": {"kind": "sampled", "seed": 1},
          "noise": {"readout_flip": 0.2,
                    "readout_confusion": {"num_bits": 1, "matrix": [[1, 0], [0, 1]]}}},
         "noise.readout_flip and noise.readout_confusion"),
        # the transmon's dephasing time is parameters.t2 alone
        ("transmon", {"omega_eff": 1.0, "t2": 55.0}, {"noise": {"t2": 5.0}}, "noise.t2"),
        ("transmon", {"omega_eff": 1.0, "t2": None}, {"noise": {"t2": 5.0}}, "noise.t2"),
        # only the Trotterized chain has gates for a gate-noise rate to act on
        ("single_qubit", {"gamma": 1.0}, {"noise": {"gate_depolarizing_1q": 0.5}},
         "noise.gate_depolarizing_1q"),
        ("bell_pair_lgbi", {"gamma1": 1.0, "gamma2": 1.2},
         {"engine": {"kind": "sampled", "seed": 1}, "noise": {"gate_depolarizing_2q": 0.9}},
         "noise.gate_depolarizing_2q"),
        ("transmon", {"omega_eff": 1.0, "t2": 55.0}, {"noise": {"gate_depolarizing_1q": 0.1}},
         "noise.gate_depolarizing_1q"),
        # t2 <= 2 t1 names both keys, wherever each time comes from
        ("tfic", {"j": 0.1, "gammas": [1, 1, 2], "k": 2}, {"noise": {"t1": 5.0, "t2": 55.0}},
         "noise.t2=55.0 exceeds 2*noise.t1"),
        ("transmon", {"omega_eff": 1.0, "t2": 55.0}, {"noise": {"t1": 5.0}},
         "parameters.t2=55.0 exceeds 2*noise.t1"),
        # a readout that a mitigated scan cannot reduce to a sign confusion, or
        # of the wrong size, is decided by the config before any evolution
        ("bell_pair_lgi_global", {"gamma1": 1.0, "gamma2": 1.3},
         {"grid": {"n_points": 4},
          "engine": {"kind": "sampled", "shots": 256, "seed": 1, "mitigate": True},
          "noise": {"readout_confusion": {"num_bits": 1, "matrix": [[0.9, 0.2], [0.1, 0.8]]}}},
         "noise.readout_confusion"),
        ("single_qubit", {"gamma": 1.0},
         {"engine": {"kind": "sampled", "seed": 1},
          "noise": {"readout_confusion": {"num_bits": 2, "matrix": np.eye(4).tolist()}}},
         "noise.readout_confusion"),
        # a noise block that does not parse names its key
        ("single_qubit", {"gamma": 1.0},
         {"noise": {"readout_confusion": {"num_bits": 1, "matrix": [[0.9, 0.2], [0.2, 0.8]]}}},
         "noise.readout_confusion"),
        ("single_qubit", {"gamma": 1.0},
         {"noise": {"readout_confusion": {"num_bits": 1, "matrix": [[1.2, 0], [-0.2, 1]]}}},
         "noise.readout_confusion"),
        ("tfic", {"j": 0.1, "gammas": [1, 1, 2], "k": 2}, {"noise": {"gate_depolarizing_2q": -0.1}},
         "noise.gate_depolarizing_2q"),
    ],
)
def test_scan_rejects_unphysical_config_naming_the_key(
    tmp_path, capsys, monkeypatch, scenario, parameters, extra, key
):
    # "argv" holds extra command-line flags and "env" a value for LGSIM_SEED
    extra = dict(extra)
    argv = extra.pop("argv", [])
    monkeypatch.delenv("LGSIM_SEED", raising=False)
    if "env" in extra:
        monkeypatch.setenv("LGSIM_SEED", extra.pop("env"))
    config = write_config(
        tmp_path / "bad.json", {"scenario": scenario, "parameters": parameters, **extra}
    )
    out = tmp_path / "o"
    assert main(["scan", config, *argv, "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not (out / "scan.csv").exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["scan", "{dir}"], "{dir}"),
        (["scan", "{config}", "--out", "{file}"], "{file}"),
        (["mitigate", "--counts", "{dir}", "--matrix", "{matrix}", "--out", "{tmp}/m.json"],
         "{dir}"),
        (["oracle", "--distribution", "{dir}"], "{dir}"),
        (["calibrate", "--bits", "1", "--flip-prob", "0.03", "--out", "{file}/c.json"], "{file}"),
        (["calibrate", "--bits", "1", "--flip-prob", "0.03", "--shots", "0",
          "--out", "{tmp}/c.json"], "--shots"),
        (["calibrate", "--bits", "1", "--flip-prob", "0.03", "--shots", "-5",
          "--out", "{tmp}/c.json"], "--shots"),
        (["calibrate", "--bits", "1", "--flip-prob", "0.03", "--shots", str(10**20),
          "--out", "{tmp}/c.json"], "--shots"),
        (["mitigate", "--counts", "{file}", "--matrix", "{dir}", "--out", "{tmp}/m.json"],
         "{dir}"),
        (["mitigate", "--counts", "{counts}", "--matrix", "{matrix}", "--out", "{file}/m.json"],
         "{file}"),
        (["calibrate", "--bits", "1", "--matrix", "{dir}", "--out", "{tmp}/c.json"], "{dir}"),
    ],
)
def test_cli_rejects_unusable_paths_and_flags_naming_them(
    tmp_path, capsys, single_qubit_config, argv, named
):
    # "{dir}" is an existing directory and "{file}" an existing file
    paths = {
        "dir": tmp_path / "a_directory",
        "file": tmp_path / "a_file",
        "matrix": tmp_path / "matrix.json",
        "counts": tmp_path / "counts.json",
        "config": single_qubit_config,
        "tmp": tmp_path,
    }
    paths["dir"].mkdir()
    paths["file"].write_text("{}")
    paths["matrix"].write_text(ConfusionMatrix.symmetric(0.03).to_json())
    paths["counts"].write_text(json.dumps({"counts": {"0": 90, "1": 10}}))
    fill = {key: str(path) for key, path in paths.items()}
    assert main([arg.format(**fill) for arg in argv]) == 2
    assert named.format(**fill) in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()


def test_scan_exits_3_when_the_run_fails(tmp_path, capsys, monkeypatch):
    # a propagator that is not unitary makes the backward read of the
    # dephasing transmon's second segments drift, a fault found during the run
    expm = observables._expm_hermitian
    monkeypatch.setattr(observables, "_expm_hermitian", lambda *args: (1 + 1e-9) * expm(*args))
    config = write_config(
        tmp_path / "config.json",
        {
            "scenario": "transmon",
            "parameters": {"omega_eff": 1.0, "t2": 55.0},
            "grid": {"n_points": 4},
        },
    )
    out = tmp_path / "o"
    assert main(["scan", config, "--out", str(out)]) == 3
    assert "backward image of an exact segment drifted" in capsys.readouterr().err
    assert not (out / "scan.csv").exists()
    assert not out.exists()


def test_scan_that_fails_in_its_setup_leaves_no_output_directory(tmp_path, capsys):
    # gate noise on a scenario without Trotter gates exits 2 once the run
    # builds its setup; every directory the call created is removed again
    config = write_config(
        tmp_path / "config.json",
        {
            "scenario": "single_qubit",
            "parameters": {"gamma": 1.0},
            "grid": {"n_points": 4},
            "noise": {"gate_depolarizing_1q": 0.5},
        },
    )
    out = tmp_path / "new" / "o"
    assert main(["scan", config, "--out", str(out)]) == 2
    assert "noise.gate_depolarizing_1q" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("blocked", ["scan.csv", "manifest.json"])
def test_scan_reports_an_unwritable_output_and_leaves_no_csv_without_manifest(
    tmp_path, capsys, single_qubit_config, blocked
):
    out = tmp_path / "run"
    (out / blocked).mkdir(parents=True)
    assert main(["scan", single_qubit_config, "--out", str(out)]) == 2
    assert f"cannot use {out / blocked}" in capsys.readouterr().err
    assert not (out / "scan.csv").is_file()


def test_sampled_scan_takes_the_largest_int64_shot_count(tmp_path, single_qubit_config):
    argv = ["--engine", "sampled", "--seed", "1", "--shots", str(2**63 - 1)]
    assert main(["scan", single_qubit_config, *argv, "--out", str(tmp_path / "o")]) == 0


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


@pytest.mark.parametrize("flip", [None, 0])
def test_scan_reads_a_null_or_zero_readout_flip_as_no_readout_noise(tmp_path, flip):
    base = {
        "scenario": "single_qubit",
        "parameters": {"gamma": 1.0},
        "grid": {"n_points": 3},
        "engine": {"kind": "sampled", "shots": 64, "seed": 3},
    }
    runs = []
    for name, noise in (("plain", {}), ("flip", {"readout_flip": flip})):
        config = write_config(tmp_path / f"{name}.json", {**base, "noise": noise})
        out = tmp_path / name
        assert main(["scan", config, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        runs.append(((out / "scan.csv").read_text(), manifest["noise_digest"]))
    assert runs[0] == runs[1]


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


@pytest.mark.parametrize(
    "scenario, parameters",
    [
        ("single_qubit", {"gamma": 1.0}),
        ("bell_pair_lgi_global", {"gamma1": 1.0, "gamma2": 0.8}),
    ],
)
def test_exact_scan_ignores_mitigate_under_readout_noise(tmp_path, scenario, parameters):
    # readout confusion never enters the exact value, so there are no counts
    # to mitigate: --mitigate must give the full, unchanged exact scan
    config = write_config(
        tmp_path / "config.json",
        {
            "scenario": scenario,
            "parameters": parameters,
            "engine": {"kind": "exact"},
            "grid": {"n_points": 6},
            "noise": {"readout_flip": 0.03},
        },
    )
    scans = []
    for name, flags in (("plain", []), ("mitigated", ["--mitigate"])):
        out = tmp_path / name
        assert main(["scan", config, *flags, "--out", str(out)]) == 0
        scans.append((out / "scan.csv").read_text())
    assert scans[0] == scans[1]
    assert len(scans[0].splitlines()) == 1 + 6


def test_scan_mitigates_a_two_bit_confusion_on_the_global_parity(tmp_path):
    matrix = ConfusionMatrix.symmetric(0.03, 2).matrix.tolist()
    config = write_config(
        tmp_path / "config.json",
        {
            "scenario": "bell_pair_lgi_global",
            "parameters": {"gamma1": 1.0, "gamma2": 0.8},
            "engine": {"kind": "sampled", "shots": 2048, "seed": 4, "mitigate": True},
            "grid": {"n_points": 5},
            "noise": {"readout_confusion": {"num_bits": 2, "matrix": matrix}},
        },
    )
    out = tmp_path / "run"
    assert main(["scan", config, "--out", str(out)]) == 0
    assert len((out / "scan.csv").read_text().splitlines()) == 1 + 5


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
        ({"num_bits": True, "matrix": [[0.97, 0.03], [0.03, 0.97]]}, "'num_bits'"),
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


def test_mitigate_reads_the_counts_of_a_sampled_schedule(tmp_path):
    # the drawn counts, written as a bit-keyed counts file, mitigate as the
    # object itself does
    obs = parity_observable([0, 1], 2)
    noise = NoiseModel(readout_confusion=ConfusionMatrix.symmetric(0.05))
    ((_, drawn),) = sampled_correlator(
        prepare_state("bell", 2).density_matrix(), transverse_field_hamiltonian([1.0, 0.7]),
        [MeasurementSchedule((0.0, 0.8), obs, obs)], 4096, noise, [17],
    )
    pair = ConfusionMatrix.symmetric(0.05, num_bits=2)
    counts, matrix, out = tmp_path / "counts.json", tmp_path / "matrix.json", tmp_path / "m.json"
    counts.write_text(json.dumps({"counts": drawn.to_dict(), "num_bits": 2}))
    matrix.write_text(pair.to_json())
    assert main(
        ["mitigate", "--counts", str(counts), "--matrix", str(matrix), "--out", str(out)]
    ) == 0
    probs, method = mitigate(drawn, pair, return_method=True)
    data = json.loads(out.read_text())
    assert data["method"] == method
    assert list(data["probabilities"].values()) == probs.tolist()


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
        # a boolean is not a count or a bit count, and a num_bits of 0 is
        # not an unset one
        ({"counts": {"0": True, "1": 3}}, "'0'"),
        ({"outcomes": {"++": True, "+-": 1, "-+": 0, "--": 0}, "n_shots": 2}, "'++'"),
        ({"counts": {"0": 60, "1": 40}, "num_bits": True}, "'num_bits'"),
        (
            {
                "counts": {"0": 60, "1": 40},
                "matrix": {"num_bits": True, "matrix": [[0.97, 0.03], [0.03, 0.97]]},
            },
            "'num_bits'",
        ),
        ({"counts": {"0": 60, "1": 40}, "num_bits": 0}, "'0'"),
        # a count or bit count written as text is not a number
        ({"counts": {"0": "5", "1": 3}}, "count '0'"),
        ({"outcomes": {"++": "5", "+-": 1, "-+": 0, "--": 0}, "n_shots": 6}, "count '++'"),
        ({"counts": {"0": 60, "1": 40}, "num_bits": "1"}, "'num_bits'"),
        # a boolean is not a shot count either
        ({"outcomes": {"++": 1}, "n_shots": True}, "n_shots"),
        # mitigation reads counts and their total as floats
        ({"counts": {"00": 10**400, "01": 1}, "num_bits": 2}, "count '00'"),
        ({"counts": {"0": 10**308, "1": 10**308}}, "total"),
        # outcomes that are not a table, or hold a key that is no sign pair
        ({"outcomes": [1, 2, 3, 4], "n_shots": 10}, "'outcomes'"),
        ({"outcomes": {"++": 5, "+-": 5, "zz": 3}, "n_shots": 10}, "'zz'"),
        # a bit count that differs from the matrix's is rejected before the
        # 2^num_bits table is allocated
        ({"counts": {"0" * 16: 5}, "num_bits": 16}, "'num_bits' 16"),
        ({"counts": {}}, "'counts'"),
        # sign-keyed counts are 2-bit, so a 1-bit or a 3-bit matrix is a
        # usage error too
        (
            {
                "outcomes": {"++": 5, "+-": 1, "-+": 2, "--": 2},
                "n_shots": 10,
                "matrix": {"num_bits": 1, "matrix": [[0.97, 0.03], [0.03, 0.97]]},
            },
            "'num_bits' 2",
        ),
        (
            {
                "outcomes": {"++": 5, "+-": 1, "-+": 2, "--": 2},
                "n_shots": 10,
                "matrix": json.loads(ConfusionMatrix.symmetric(0.03, 3).to_json()),
            },
            "'num_bits' 2",
        ),
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
