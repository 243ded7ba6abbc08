import re

import numpy as np
import pytest

import lgsim.scenarios as scenarios
from lgsim import (
    ConfigError,
    Engine,
    NoiseModel,
    ScenarioSpec,
    closed_form_k3,
    run_bell_pair,
    run_param_scan,
    run_single_qubit,
    run_tfic,
    run_transmon,
    transmon_closed_form,
)
from lgsim.mitigation import ConfusionMatrix
from lgsim.scenarios import (
    SCENARIOS,
    noise_from_config,
    noise_to_config,
    trotter_layer_depths,
)


def test_single_qubit_peak_sits_at_third_of_pi():
    scan = run_single_qubit(1.0, Engine.exact())
    values = scan.values()
    taus = np.array(scan.grid)
    step = taus[1] - taus[0]
    peak = values[:, 0].argmax()
    # peak value can miss 1.5 by at most curvature/2 * (step/2)^2, |K3''| = 3
    assert 1.5 - 1.5 * (step / 2) ** 2 <= values[peak, 0] <= 1.5 + 1e-9
    assert abs(taus[peak] - np.pi / 3) <= step


def test_single_qubit_quarter_period_point():
    scan = run_single_qubit(1.0, Engine.exact(), n_points=5, tau_max=2 * np.pi)
    # grid contains pi/2 exactly; there the permuted combination is cos(pi)
    assert abs(scan.grid[1] - np.pi / 2) < 1e-12
    assert abs(scan.results[1].k3_perm - (-1.0)) < 1e-10


def test_single_qubit_sampled_error_scale():
    scan = run_single_qubit(1.0, Engine.sampled(8192, seed=77))
    errors = scan.errors()
    median = np.median(errors[errors > 0])
    assert 0.003 < median < 0.05  # the advertised ~1e-2 statistical error


def test_single_qubit_rejects_bad_gamma():
    with pytest.raises(ConfigError):
        run_single_qubit(-1.0, Engine.exact())


def test_transmon_without_damping_matches_closed_form():
    taus = np.linspace(0.0, 12.0, 121)
    scan = run_transmon(1.0, None, Engine.exact(), n_points=121, tau_max=12.0)
    closed = np.column_stack(closed_form_k3(1.0, taus))
    assert np.abs(scan.values() - closed).max() < 1e-10


def test_transmon_with_dephasing_matches_damped_form():
    taus = np.linspace(0.0, 20.0, 201)
    scan = run_transmon(1.0, 55.0, Engine.exact(), n_points=201, tau_max=20.0)
    damped = np.column_stack(transmon_closed_form(1.0, 55.0, taus))
    assert np.abs(scan.values() - damped).max() < 1e-10
    assert np.array(scan.metadata["undamped_reference"]).shape == (201, 3)


def test_transmon_gate_scale_coherence_never_violates():
    scan = run_transmon(1.0, 0.01, Engine.exact(), n_points=151, tau_max=30.0)
    assert not (scan.values() > 1 + 1e-9).any()


def test_bell_single_mode_equals_single_qubit_run():
    pair = run_bell_pair("lgi_single", 1.0, 1.0, Engine.exact(), n_points=75, tau_max=2 * np.pi)
    single = run_single_qubit(1.0, Engine.exact(), n_points=75, tau_max=2 * np.pi)
    assert np.abs(pair.values() - single.values()).max() < 1e-10


def test_bell_lgbi_boundary_at_zero_separation():
    scan = run_bell_pair("lgbi", 1.0, 1.0, Engine.exact(), n_points=1)
    res = scan.results[0]
    assert abs(res.k3 - 1.0) < 1e-10
    assert abs(res.k3_prime - (-3.0)) < 1e-10
    assert not res.violated_k3


def test_bell_global_and_lgbi_modes_violate():
    for mode in ("lgi_global", "lgbi"):
        scan = run_bell_pair(mode, 1.0, 1.0, Engine.exact(), n_points=75, tau_max=2 * np.pi)
        assert sum(scan.violation_counts().values()) > 0


def test_bell_mode_name_validated():
    with pytest.raises(ConfigError):
        run_bell_pair("chsh", 1.0, 1.0, Engine.exact())


@pytest.mark.parametrize(
    "call, key",
    [
        # a zero rate has no default window; these divided by zero
        pytest.param(lambda: run_tfic(0.1, [0.0, 1.0], 3, Engine.exact()), "gammas[0]",
                     id="tfic-zero-rate"),
        pytest.param(lambda: run_bell_pair("lgbi", 0.0, 1.0, Engine.exact()), "gamma1",
                     id="bell-zero-rate"),
        pytest.param(lambda: run_transmon(1.0, True, Engine.exact()), "t2", id="transmon-bool-t2"),
        pytest.param(lambda: run_single_qubit(1.0, Engine.exact(), n_points=0), "n_points",
                     id="no-points"),
        pytest.param(lambda: run_param_scan(2, [1.0], tau_max=-1.0), "tau_max",
                     id="negative-tau-max"),
    ],
)
def test_runners_reject_bad_inputs_naming_the_key(call, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        call()


def test_tfic_reference_and_depths():
    scan = run_tfic(0.1, [1, 1, 1, 1, 2.0], 3, Engine.exact(), n_points=11, tau_max=1.0)
    reference = np.array(scan.metadata["exact_reference"])
    assert reference.shape == (11, 3)
    assert scan.metadata["depths"] == {"C12": 6, "C23": 12, "C13": 12}
    depths = [trotter_layer_depths(k) for k in range(1, 6)]
    for name in ("C12", "C23", "C13"):
        sequence = [d[name] for d in depths]
        assert all(b > a for a, b in zip(sequence, sequence[1:]))


def test_tfic_large_k_approaches_exact_reference():
    scan = run_tfic(0.1, [1, 1, 1, 1, 2.0], 50, Engine.exact(), n_points=11, tau_max=1.0)
    reference = np.array(scan.metadata["exact_reference"])
    assert np.abs(scan.values() - reference).max() < 0.01


def test_exact_runs_are_bit_for_bit_reproducible():
    a = run_bell_pair("lgbi", 1.0, 1.3, Engine.exact(), n_points=19, tau_max=2 * np.pi)
    b = run_bell_pair("lgbi", 1.0, 1.3, Engine.exact(), n_points=19, tau_max=2 * np.pi)
    assert np.array_equal(a.values(), b.values())


def test_param_scan_runner():
    result = run_param_scan(2, [0.5, 1.0], n_points=31, tau_max=2 * np.pi)
    assert result.metadata["scenario"] == "param_scan"
    assert result.values["T3"].shape == (2, 31)


# --- config round trips ------------------------------------------------------


def test_scenario_spec_round_trip():
    spec = ScenarioSpec(
        name="single_qubit",
        parameters={"gamma": 1.0},
        engine=Engine.sampled(2048, seed=5, mitigate=True),
        noise=NoiseModel(
            gate_depolarizing_1q=3e-4,
            gate_depolarizing_2q=1e-2,
            readout_confusion=ConfusionMatrix.symmetric(0.03),
        ),
        grid={"n_points": 10, "tau_max": 3.0},
    )
    config = spec.to_config()
    again = ScenarioSpec.from_config(config)
    assert again.to_config() == config


def test_missing_parameter_is_named():
    with pytest.raises(ConfigError, match="gamma"):
        ScenarioSpec.from_config({"scenario": "single_qubit", "parameters": {}})


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError):
        ScenarioSpec.from_config({"scenario": "ising_2d", "parameters": {}})


def test_bad_schema_version_rejected():
    with pytest.raises(ConfigError):
        ScenarioSpec.from_config(
            {"schema_version": 2, "scenario": "single_qubit", "parameters": {"gamma": 1}}
        )


def test_noise_config_round_trip():
    noise = NoiseModel(
        t1=100.0,
        t2={0: 50.0},
        gate_depolarizing_2q=0.01,
        readout_confusion=ConfusionMatrix.symmetric(0.03),
    )
    restored = noise_from_config(noise_to_config(noise))
    assert restored.digest() == noise.digest()


def test_noise_config_flip_shortcut_and_unknown_keys():
    noise = noise_from_config({"readout_flip": 0.05})
    assert np.allclose(noise.readout_confusion.matrix, [[0.95, 0.05], [0.05, 0.95]])
    with pytest.raises(ConfigError):
        noise_from_config({"t3": 1.0})


def test_every_scenario_runs_from_config():
    base = {
        "single_qubit": {"gamma": 1.0},
        "transmon": {"omega_eff": 1.0, "t2": 10.0},
        "bell_pair_lgi_single": {"gamma1": 1.0, "gamma2": 1.0},
        "bell_pair_lgi_global": {"gamma1": 1.0, "gamma2": 1.0},
        "bell_pair_lgbi": {"gamma1": 1.0, "gamma2": 1.0},
        "tfic": {"j": 0.1, "gammas": [1, 1, 1, 1, 2.0], "k": 2},
        "param_scan": {"n_qubits": 2, "ratios": [1.0]},
    }
    assert set(base) == set(SCENARIOS)
    for name, parameters in base.items():
        spec = ScenarioSpec.from_config(
            {
                "scenario": name,
                "parameters": parameters,
                "grid": {"n_points": 5},
            }
        )
        result = spec.run()
        assert result.metadata["config"]["scenario"] == name


@pytest.mark.parametrize(
    "scenario, parameters, runner",
    [
        ("single_qubit", {"gamma": 1.0}, "run_single_qubit"),
        ("transmon", {"omega_eff": 1.0, "t2": 10.0}, "run_transmon"),
        ("bell_pair_lgi_single", {"gamma1": 1.0, "gamma2": 1.0}, "run_bell_pair"),
        ("bell_pair_lgi_global", {"gamma1": 1.0, "gamma2": 1.0}, "run_bell_pair"),
        ("bell_pair_lgbi", {"gamma1": 1.0, "gamma2": 1.0}, "run_bell_pair"),
        ("tfic", {"j": 0.1, "gammas": [1.0, 2.0], "k": 2}, "run_tfic"),
        ("param_scan", {"n_qubits": 2, "ratios": [1.0]}, "run_param_scan"),
    ],
)
def test_config_runs_reach_the_runner_through_its_module_global(
    monkeypatch, scenario, parameters, runner
):
    # the benchmark's tracer rebinds these names; a config run must see it
    calls = []
    original = getattr(scenarios, runner)

    def counted(*args, **kwargs):
        calls.append(runner)
        return original(*args, **kwargs)

    monkeypatch.setattr(scenarios, runner, counted)
    spec = ScenarioSpec.from_config(
        {"scenario": scenario, "parameters": parameters, "grid": {"n_points": 2}}
    )
    spec.run()
    assert calls == [runner]


def test_rerunning_a_spec_reproduces_values():
    spec = ScenarioSpec.from_config(
        {
            "scenario": "single_qubit",
            "parameters": {"gamma": 1.0},
            "engine": {"kind": "sampled", "shots": 512, "seed": 11},
            "grid": {"n_points": 7},
        }
    )
    a = spec.run()
    b = ScenarioSpec.from_config(spec.to_config()).run()
    assert np.array_equal(a.values(), b.values())
