"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import bruteforce as bf
from lgsim import (
    ConfusionMatrix,
    Engine,
    NoiseModel,
    closed_form_k3,
    joint_distribution_oracle,
    run_bell_pair,
    run_param_scan,
    run_single_qubit,
    run_tfic,
    run_transmon,
    transmon_closed_form,
)
from lgsim.cli import main as cli_main


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS: {description}")


def test_criterion_01_single_qubit_closed_form():
    with criterion(1, "exact 75-point scan matches the analytic triple to 1e-10 in < 1 s"):
        taus = np.linspace(0.0, 2 * np.pi, 75)
        start = time.perf_counter()
        scan = run_single_qubit(1.0, Engine.exact(), n_points=75, tau_max=2 * np.pi)
        elapsed = time.perf_counter() - start
        closed = np.column_stack(closed_form_k3(1.0, taus))
        assert np.abs(scan.values() - closed).max() < 1e-10
        assert elapsed < 1.0


def test_criterion_02_quantum_bound():
    with criterion(2, "dense exact scan peaks at 1.5 at phase pi/3; nothing exceeds 1.5 + 1e-9"):
        taus = np.linspace(0.0, 2 * np.pi, 1501)
        scan = run_single_qubit(1.0, Engine.exact(), n_points=1501, tau_max=2 * np.pi)
        values = scan.values()
        step = taus[1] - taus[0]
        # K3 is symmetric about pi, so the 1.5 peak recurs at 5 pi / 3;
        # locate it within the first half-period
        half = taus <= np.pi
        peak = values[half, 0].argmax()
        assert abs(taus[half][peak] - np.pi / 3) <= step
        assert values[half][peak, 0] >= 1.5 - 1.5 * (step / 2) ** 2
        assert values.max() <= 1.5 + 1e-9


def test_criterion_03_classical_bound():
    with criterion(3, "1000 random classical records keep K3 in [-3, 1]; both formulas agree to 1e-12"):
        rng = np.random.default_rng(314159)
        for _ in range(1000):
            dist = rng.dirichlet(np.full(8, rng.uniform(0.2, 3.0)))
            res = joint_distribution_oracle(dist)
            assert -3.0 <= res.k3_from_counting <= 1.0
            assert -3.0 <= res.k3_from_correlators <= 1.0
            assert res.consistent(1e-12)


def test_criterion_04_sampled_protocol_fidelity():
    with criterion(4, "8192-shot scan: >= 95% of points within 3 sigma; errors ~ 1e-2; < 2 min"):
        taus = np.linspace(0.0, 2 * np.pi, 75)
        start = time.perf_counter()
        scan = run_single_qubit(
            1.0, Engine.sampled(8192, seed=20240601), n_points=75, tau_max=2 * np.pi
        )
        elapsed = time.perf_counter() - start
        closed = np.column_stack(closed_form_k3(1.0, taus))
        errors = scan.errors()[:, None]
        within = np.abs(scan.values() - closed) <= 3 * np.maximum(errors, 1e-15)
        for combination in range(3):
            assert within[:, combination].mean() >= 0.95
        positive = scan.errors()[scan.errors() > 0]
        assert 0.003 < np.median(positive) < 0.05
        assert elapsed < 120.0


def test_criterion_05_bell_pair_modes():
    with criterion(5, "Bell modes: single==1q curve, global and two-site violate, two-site max "
                      "exceeds global max, all verified against the brute-force trace oracle"):
        taus = np.linspace(0.0, 2 * np.pi, 75)
        single = run_single_qubit(1.0, Engine.exact(), n_points=75, tau_max=2 * np.pi)
        lgi_single = run_bell_pair(
            "lgi_single", 1.0, 1.0, Engine.exact(), n_points=75, tau_max=2 * np.pi
        )
        lgi_global = run_bell_pair(
            "lgi_global", 1.0, 1.0, Engine.exact(), n_points=75, tau_max=2 * np.pi
        )
        lgbi = run_bell_pair("lgbi", 1.0, 1.0, Engine.exact(), n_points=75, tau_max=2 * np.pi)

        assert np.abs(lgi_single.values() - single.values()).max() < 1e-10
        assert sum(lgi_global.violation_counts().values()) >= 1
        assert sum(lgbi.violation_counts().values()) >= 1
        assert lgbi.values().max() > lgi_global.values().max()

        rho = bf.bell_rho()
        h = bf.hamiltonian(2, [(0.5, "XI"), (0.5, "IX")])
        branch_sets = {
            "lgi_single": (bf.z_pair(0, 2), bf.z_pair(0, 2)),
            "lgi_global": (bf.bitwise_parity_branches([0, 1], 2), bf.parity_pair([0, 1], 2)),
            "lgbi": (bf.z_pair(0, 2), bf.z_pair(1, 2)),
        }
        scans = {"lgi_single": lgi_single, "lgi_global": lgi_global, "lgbi": lgbi}
        for name, (first, second) in branch_sets.items():
            expected = np.array([bf.k3_triple(rho, h, tau, first, second) for tau in taus])
            assert np.abs(scans[name].values() - expected).max() < 1e-10


def test_criterion_06_violation_region_map():
    with criterion(6, "region maps: 2q violates in every ratio column; 5q ratio 1 is all-false "
                      "and ratio 2 violates; < 5 min"):
        start = time.perf_counter()
        two = run_param_scan(
            2, [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0], n_points=75, tau_max=2 * np.pi
        )
        any_violation = (
            two.violated["T3"].any(axis=1)
            | two.violated["T3_prime"].any(axis=1)
            | two.violated["T3_perm"].any(axis=1)
        )
        assert any_violation.all()

        five = run_param_scan(5, [1.0, 2.0], n_points=75, tau_max=2 * np.pi)
        for name in ("T3", "T3_prime", "T3_perm"):
            assert not five.violated[name][0].any()  # ratio 1 column
        assert any(five.violated[name][1].any() for name in ("T3", "T3_prime", "T3_perm"))
        assert time.perf_counter() - start < 300.0


def test_criterion_07_tfic_trotter():
    with criterion(7, "Ising chain: noiseless Trotter curves converge monotonically, per-layer "
                      "depolarizing makes deviations grow with k, exact curve violates below "
                      "phase 1"):
        taus = np.linspace(0.0, 1.0, 15)
        gammas = [1.0, 1.0, 1.0, 1.0, 2.0]
        trotter_errors = []
        reference = None
        for k in (1, 2, 3, 4, 5):
            scan = run_tfic(0.1, gammas, k, Engine.exact(), n_points=15, tau_max=1.0)
            reference = np.array(scan.metadata["exact_reference"])
            trotter_errors.append(np.abs(scan.values() - reference).max())
        assert all(b < a for a, b in zip(trotter_errors, trotter_errors[1:]))

        noise = NoiseModel(gate_depolarizing_1q=0.0003, gate_depolarizing_2q=0.01)
        deviations = []
        for k in (1, 2, 3, 4, 5):
            scan = run_tfic(
                0.1, gammas, k, Engine.exact(), noise=noise, n_points=15, tau_max=1.0
            )
            deviations.append(np.abs(scan.values() - np.array(scan.metadata["exact_reference"])).max())
        assert all(b >= a for a, b in zip(deviations, deviations[1:]))

        violated = (reference[:, 1] > 1 + 1e-9) | (reference[:, 2] > 1 + 1e-9)
        assert violated[taus < 1.0 + 1e-12].any()


def test_criterion_08_transmon_decay():
    with criterion(8, "dephasing kills violations at the damped-closed-form time (tens of "
                      "microseconds); the undamped reference violates in every period"):
        omega, t2 = 1.0, 55.0
        taus = np.linspace(0.0, 30.0, 1501)
        scan = run_transmon(omega, t2, Engine.exact(), n_points=1501, tau_max=30.0)
        damped = np.column_stack(transmon_closed_form(omega, t2, taus))
        assert np.abs(scan.values() - damped).max() < 1e-10

        sim_violates = (scan.values() > 1 + 1e-9).any(axis=1)
        oracle_violates = (damped > 1 + 1e-9).any(axis=1)
        last_sim = taus[sim_violates][-1]
        last_oracle = taus[oracle_violates][-1]
        assert last_sim == last_oracle

        # the phase-locked estimate tau* = t2 ln(1/(sqrt(3)-1)) sits within
        # 0.025 t2 of the dense-scan answer (the optimum phase shifts under
        # damping, see notes); the physical claim is tens of microseconds
        tau_star = t2 * np.log(1.0 / (np.sqrt(3.0) - 1.0))
        assert abs(last_sim - tau_star) <= 0.025 * t2
        assert 20.0 < 2.0 * last_sim < 50.0

        undamped = np.array(scan.metadata["undamped_reference"])
        undamped_violates = (undamped > 1 + 1e-9).any(axis=1)
        period = 2 * np.pi / omega
        for start_time in np.arange(0.0, taus[-1] - period, period):
            window = (taus >= start_time) & (taus < start_time + period)
            assert undamped_violates[window].any()


def test_criterion_09_mitigation_round_trip():
    with criterion(9, "3% readout flips: raw peak ~ 1.5(1-2p)^2, mitigated peak recovers 1.5, "
                      "mitigation beats raw in >= 19/20 seeds; < 2 min"):
        start = time.perf_counter()
        p = 0.03
        taus = np.linspace(0.0, 2 * np.pi, 75)
        closed = closed_form_k3(1.0, taus)[0]
        noise = NoiseModel(readout_confusion=ConfusionMatrix.symmetric(p))
        raw_maxima, raw_sigmas, mit_maxima, mit_sigmas = [], [], [], []
        improvements = 0
        for seed in range(20):
            raw = run_single_qubit(
                1.0, Engine.sampled(8192, seed=seed), noise=noise, n_points=75, tau_max=2 * np.pi
            )
            mit = run_single_qubit(
                1.0, Engine.sampled(8192, seed=seed, mitigate=True), noise=noise,
                n_points=75, tau_max=2 * np.pi,
            )
            raw_k3 = raw.values()[:, 0]
            mit_k3 = mit.values()[:, 0]
            raw_maxima.append(raw_k3.max())
            raw_sigmas.append(raw.errors()[raw_k3.argmax()])
            mit_maxima.append(mit_k3.max())
            mit_sigmas.append(mit.errors()[mit_k3.argmax()])
            if np.abs(mit_k3 - closed).max() < np.abs(raw_k3 - closed).max():
                improvements += 1
        damped_peak = 1.5 * (1 - 2 * p) ** 2
        assert abs(np.mean(raw_maxima) - damped_peak) <= 3 * np.mean(raw_sigmas)
        assert abs(np.mean(mit_maxima) - 1.5) <= 3 * np.mean(mit_sigmas)
        for value, sigma in zip(raw_maxima, raw_sigmas):
            assert abs(value - damped_peak) <= 5 * sigma
        for value, sigma in zip(mit_maxima, mit_sigmas):
            assert abs(value - 1.5) <= 5 * sigma
        assert improvements >= 19
        assert time.perf_counter() - start < 120.0


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "identical manifest reruns produce byte-identical CSV"):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "scenario": "single_qubit",
            "parameters": {"gamma": 1.0},
            "engine": {"kind": "sampled", "shots": 4096, "seed": 31415},
            "grid": {"n_points": 30},
        }))
        first, second, third = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert cli_main(["scan", str(config), "--out", str(first)]) == 0
        assert cli_main(["scan", str(config), "--out", str(second)]) == 0
        assert (first / "scan.csv").read_bytes() == (second / "scan.csv").read_bytes()
        assert cli_main(["scan", str(first / "manifest.json"), "--out", str(third)]) == 0
        assert (first / "scan.csv").read_bytes() == (third / "scan.csv").read_bytes()
