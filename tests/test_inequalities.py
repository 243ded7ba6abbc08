from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
import lgsim.inequalities as inequalities
import lgsim.observables as observables
from lgsim import (
    CorrelatorEstimate,
    DensityMatrix,
    Engine,
    InvalidDistribution,
    InvalidGrid,
    InvalidObservable,
    MixedMethodError,
    PauliSumHamiltonian,
    ThreeTimeSetup,
    assemble_third_order,
    closed_form_k3,
    joint_distribution_oracle,
    prepare_state,
    scan_to_csv,
    sigma_z_observable,
    tau_scan,
    violation_region_scan,
)


def exact_est(value):
    return CorrelatorEstimate(value, 0.0, 0, "exact")


def sampled_est(value, err=0.01):
    return CorrelatorEstimate(value, err, 8192, "sampled")


def single_qubit_setup(gamma=1.0, noise=None):
    return ThreeTimeSetup(
        rho0=prepare_state("zero", 1).density_matrix(),
        hamiltonian=PauliSumHamiltonian.from_terms(1, [(gamma / 2.0, "X")]),
        first_observable=sigma_z_observable(0, 1),
        second_observable=sigma_z_observable(0, 1),
        mode="LGI_single",
        noise=noise,
    )


# --- assembly ----------------------------------------------------------------


def test_assembly_at_the_quantum_peak():
    res = assemble_third_order(exact_est(0.5), exact_est(0.5), exact_est(-0.5), "LGI_single")
    assert res.combinations() == (1.5, -0.5, -0.5)
    assert res.violations() == (True, False, False)


def test_assembly_boundary_is_not_a_violation():
    res = assemble_third_order(exact_est(1.0), exact_est(1.0), exact_est(1.0), "LGI_single")
    assert res.k3 == 1.0
    assert not res.violated_k3


def test_assembly_saturates_lower_bound():
    res = assemble_third_order(exact_est(-1.0), exact_est(-1.0), exact_est(1.0), "LGI_single")
    assert res.k3 == -3.0


def test_mixed_methods_rejected():
    with pytest.raises(MixedMethodError):
        assemble_third_order(exact_est(0.5), sampled_est(0.5), exact_est(0.5), "LGI_single")


def test_propagated_error_and_sampled_margin():
    res = assemble_third_order(
        sampled_est(0.6, 0.01), sampled_est(0.6, 0.02), sampled_est(-0.5, 0.02), "LGI_single"
    )
    assert abs(res.std_error - np.sqrt(0.01**2 + 0.02**2 + 0.02**2)) < 1e-15
    assert abs(res.decision_margin - 2 * res.std_error) < 1e-15
    # 1.7 clears 1 + 2 sigma, so it is flagged
    assert res.violated_k3


def test_single_shot_estimates_never_flag():
    nan = float("nan")
    res = assemble_third_order(
        CorrelatorEstimate(1.0, nan, 1, "sampled"),
        CorrelatorEstimate(1.0, nan, 1, "sampled"),
        CorrelatorEstimate(-1.0, nan, 1, "sampled"),
        "LGI_single",
    )
    assert res.k3 == 3.0
    assert not res.violated_k3


def test_non_finite_correlator_rejected():
    for value in (float("nan"), float("inf"), 1.1):
        with pytest.raises(ValueError, match="outside"):
            CorrelatorEstimate(value, 0.0, 0, "exact")
    with pytest.raises(ValueError, match="outside"):
        CorrelatorEstimate(float("nan"), 0.01, 8192, "sampled")


def test_non_finite_combination_rejected():
    ok = assemble_third_order(exact_est(0.5), exact_est(0.5), exact_est(-0.5), "LGI_single")
    for value in (float("nan"), float("inf"), 3.1):
        with pytest.raises(ValueError, match="outside"):
            replace(ok, k3=value)


# --- closed form --------------------------------------------------------------


@pytest.mark.parametrize(
    "phase,expected",
    [
        (0.0, (1.0, -3.0, 1.0)),
        (np.pi, (-3.0, 1.0, 1.0)),
        (np.pi / 3, (1.5, -0.5, -0.5)),
    ],
)
def test_closed_form_values(phase, expected):
    got = closed_form_k3(1.0, phase)
    assert np.abs(np.array(got) - np.array(expected)).max() < 1e-12


def test_closed_form_complementarity():
    taus = np.linspace(1e-3, 2 * np.pi - 1e-3, 999)
    k3, k3p, _ = closed_form_k3(1.0, taus)
    keep = (np.abs(np.cos(taus)) > 1e-9) & ~((np.abs(k3 - 1) < 1e-12) & (np.abs(k3p - 1) < 1e-12))
    assert not np.any((k3[keep] > 1) & (k3p[keep] > 1))
    half = taus < np.pi
    assert (k3[half] > 1).any() and (k3[~half] > 1).any()
    assert (k3p[half] > 1).any() and (k3p[~half] > 1).any()


def test_sign_flip_orbit_recovers_all_four_patterns():
    # relabel Q -> -Q independently at the three times; collect the distinct
    # coefficient patterns of (C12, C23, C13) in the first combination
    patterns = set()
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                patterns.add((s1 * s2, s2 * s3, -s1 * s3))
    assert patterns == {(1, 1, -1), (-1, -1, -1), (-1, 1, 1), (1, -1, 1)}


# --- tau scan -----------------------------------------------------------------


def test_exact_scan_matches_closed_form():
    taus = np.linspace(0.0, 2 * np.pi, 75)
    scan = tau_scan(single_qubit_setup(), taus, Engine.exact())
    closed = np.column_stack(closed_form_k3(1.0, taus))
    assert np.abs(scan.values() - closed).max() < 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_qubit_combinations_respect_the_luders_bound(seed):
    # for a qubit read out projectively, C_ij = n_i . n_j for the Bloch
    # directions of the Heisenberg-picture observables, whatever the state,
    # so every third-order combination stays at or below 3/2
    rng = np.random.default_rng(seed)
    setup = ThreeTimeSetup(
        rho0=DensityMatrix(1, bf.random_density_matrix(1, rng)),
        hamiltonian=PauliSumHamiltonian.from_terms(1, bf.random_hamiltonian_terms(1, rng)),
        first_observable=sigma_z_observable(0, 1),
        second_observable=sigma_z_observable(0, 1),
        mode="LGI_single",
    )
    taus = np.sort(rng.uniform(0.0, 2.0 * np.pi, 5))
    scan = tau_scan(setup, taus, Engine.exact())
    assert scan.values().max() <= 1.5 + 1e-12


def test_single_point_grid_at_zero():
    scan = tau_scan(single_qubit_setup(), [0.0], Engine.exact())
    assert np.allclose(scan.results[0].combinations(), (1.0, -3.0, 1.0))


def test_grid_validation():
    setup = single_qubit_setup()
    with pytest.raises(InvalidGrid):
        tau_scan(setup, [], Engine.exact())
    with pytest.raises(InvalidGrid):
        tau_scan(setup, [0.5, 0.5], Engine.exact())
    with pytest.raises(InvalidGrid):
        tau_scan(setup, [-0.1, 0.5], Engine.exact())
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvalidGrid):
            tau_scan(setup, [0.0, bad], Engine.exact())


def test_sampled_scan_tracks_closed_form():
    taus = np.linspace(0.0, 2 * np.pi, 25)
    scan = tau_scan(single_qubit_setup(), taus, Engine.sampled(8192, seed=2024))
    closed = np.column_stack(closed_form_k3(1.0, taus))
    errors = np.maximum(scan.errors()[:, None], 1e-12)
    within = np.abs(scan.values() - closed) <= 4 * errors
    assert within.mean() > 0.9


def test_sampled_scan_deterministic():
    taus = np.linspace(0.0, 3.0, 7)
    setup = single_qubit_setup()
    a = tau_scan(setup, taus, Engine.sampled(1024, seed=5))
    b = tau_scan(setup, taus, Engine.sampled(1024, seed=5))
    assert np.array_equal(a.values(), b.values())
    exact_a = tau_scan(setup, taus, Engine.exact())
    exact_b = tau_scan(setup, taus, Engine.exact())
    assert np.array_equal(exact_a.values(), exact_b.values())


def test_lgbi_setup_requires_disjoint_qubits():
    with pytest.raises(InvalidObservable):
        ThreeTimeSetup(
            rho0=prepare_state("bell", 2).density_matrix(),
            hamiltonian=PauliSumHamiltonian.from_terms(2, [(0.5, "XI"), (0.5, "IX")]),
            first_observable=sigma_z_observable(0, 2),
            second_observable=sigma_z_observable(0, 2),
            mode="LGBI",
        )


def test_scan_metadata_records_engine_and_mode():
    scan = tau_scan(single_qubit_setup(), [0.0, 0.5], Engine.sampled(256, seed=9))
    assert scan.metadata["mode"] == "LGI_single"
    assert scan.metadata["engine"]["seed"] == 9
    assert scan.metadata["engine"]["n_shots"] == 256


@pytest.mark.parametrize("seed", [-1, 1.5, "x", float("nan"), True])
def test_engine_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match="seed"):
        Engine.sampled(64, seed=seed)


def test_engine_keeps_an_integral_seed_exact():
    big = 2**127 + 1
    scan = tau_scan(single_qubit_setup(), [0.0, 0.5], Engine.sampled(64, seed=big))
    assert scan.metadata["engine"]["seed"] == big
    for seed, want in ((3.0, 3), (np.int64(4), 4)):
        got = Engine.sampled(64, seed=seed).seed
        assert type(got) is int and got == want


@pytest.mark.parametrize("n_shots", [100.5, 0, float("nan"), "x", True])
def test_engine_rejects_a_shot_count_that_is_not_a_positive_integer(n_shots):
    with pytest.raises(ValueError, match="n_shots"):
        Engine.sampled(n_shots, seed=1)


def test_engine_keeps_an_integral_shot_count():
    got = Engine.sampled(3.0, seed=1).n_shots
    assert type(got) is int and got == 3


# --- CSV ----------------------------------------------------------------------


def test_csv_header_and_formatting():
    taus = np.linspace(0.0, 2 * np.pi, 5)
    scan = tau_scan(single_qubit_setup(), taus, Engine.exact())
    text = scan_to_csv(scan)
    lines = text.strip().split("\n")
    assert lines[0] == (
        "tau,K3,K3_prime,K3_perm,err_K3,err_K3_prime,err_K3_perm,"
        "violated_K3,violated_K3_prime,violated_K3_perm"
    )
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] == "1"
    assert first[7] == "false"
    # 12 significant digits
    value = float(lines[2].split(",")[1])
    assert f"{value:.12g}" == lines[2].split(",")[1]


def test_csv_uses_t3_prefix_for_spatio_temporal_mode():
    setup = ThreeTimeSetup(
        rho0=prepare_state("bell", 2).density_matrix(),
        hamiltonian=PauliSumHamiltonian.from_terms(2, [(0.5, "XI"), (0.5, "IX")]),
        first_observable=sigma_z_observable(0, 2),
        second_observable=sigma_z_observable(1, 2),
        mode="LGBI",
    )
    scan = tau_scan(setup, [0.0, 1.0], Engine.exact())
    header = scan_to_csv(scan).split("\n")[0]
    assert header.startswith("tau,T3,T3_prime,T3_perm")


# --- region scan ----------------------------------------------------------------


def test_region_scan_shapes_and_flags():
    result = violation_region_scan(2, [0.5, 1.0], np.linspace(0.0, 2 * np.pi, 21))
    assert result.values["T3"].shape == (2, 21)
    for name in ("T3", "T3_prime", "T3_perm"):
        assert result.violated[name].dtype == bool
    combined = (
        result.violated["T3"].any(axis=1)
        | result.violated["T3_prime"].any(axis=1)
        | result.violated["T3_perm"].any(axis=1)
    )
    assert combined.all()


def test_region_scan_makes_one_exact_batch_per_ratio(monkeypatch):
    # each ratio's tau grid is one exact_correlator call with one rank-one
    # test, not one of each per correlator (3 * taus * ratios)
    calls = {"exact": 0, "rank_one": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(
        inequalities, "exact_correlator", counting("exact", inequalities.exact_correlator)
    )
    monkeypatch.setattr(
        observables, "_state_vector", counting("rank_one", observables._state_vector)
    )
    violation_region_scan(3, [0.5, 1.0, 1.5], np.linspace(0.0, 2.0, 6))
    assert calls == {"exact": 3, "rank_one": 3}


def test_region_scan_csv_has_ratio_column():
    result = violation_region_scan(2, [1.0], np.linspace(0.0, 3.0, 4))
    text = scan_to_csv(result.to_scan_result())
    assert text.split("\n")[0].startswith("ratio,tau,T3")


def test_region_scan_validation():
    with pytest.raises(InvalidGrid):
        violation_region_scan(1, [1.0])
    with pytest.raises(InvalidGrid):
        violation_region_scan(2, [])


# --- classical oracle -----------------------------------------------------------


def test_oracle_uniform_distribution():
    res = joint_distribution_oracle([0.125] * 8)
    assert res.c12 == res.c23 == res.c13 == 0.0
    assert res.k3_from_correlators == 0.0
    assert res.k3_from_counting == 0.0


def test_oracle_deterministic_record():
    dist = {k: 0.0 for k in ("+++", "++-", "+-+", "+--", "-++", "-+-", "--+", "---")}
    dist["+++"] = 1.0
    res = joint_distribution_oracle(dist)
    assert res.c12 == res.c23 == res.c13 == 1.0
    assert res.k3_from_correlators == 1.0


def test_oracle_lower_bound_construction():
    dist = [0.0] * 8
    dist[2] = 1.0  # (+, -, +)
    res = joint_distribution_oracle(dist)
    assert res.k3_from_correlators == -3.0
    assert res.k3_from_counting == -3.0


def test_oracle_rejects_bad_distributions():
    with pytest.raises(InvalidDistribution):
        joint_distribution_oracle([0.5] * 8)
    with pytest.raises(InvalidDistribution):
        joint_distribution_oracle([-0.1, 1.1, 0, 0, 0, 0, 0, 0])
    with pytest.raises(InvalidDistribution):
        joint_distribution_oracle([1.0])
    with pytest.raises(InvalidDistribution):
        joint_distribution_oracle({"+++": 1.0})


def test_oracle_agrees_with_engine_on_classical_records():
    # a diagonal density matrix measured along z is a classical record; the
    # assembled scan value must match the joint-distribution computation
    rng = np.random.default_rng(606)
    probs = rng.dirichlet(np.ones(2))
    rho_diag = np.diag(probs).astype(complex)
    setup = ThreeTimeSetup(
        rho0=DensityMatrix(1, rho_diag),
        hamiltonian=PauliSumHamiltonian.from_terms(1, [(0.0, "X")]),
        first_observable=sigma_z_observable(0, 1),
        second_observable=sigma_z_observable(0, 1),
        mode="LGI_single",
    )
    scan = tau_scan(setup, [0.7], Engine.exact())
    # frozen dynamics: P(q,q,q) = P(q), all correlators 1, K3 = 1
    assert abs(scan.results[0].k3 - 1.0) < 1e-12
