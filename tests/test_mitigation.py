import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bruteforce as bf
from lgsim import (
    CalibrationTooLarge,
    ConfusionMatrix,
    CountsTable,
    CountsVector,
    InvalidNoiseParameter,
    MitigationFailed,
    NoiseModel,
    calibrate,
    mitigate,
    mitigate_correlator,
)
import lgsim.mitigation as mitigation
from lgsim.mitigation import _constrained_fit, _mitigate_rows
from lgsim.scenarios import ScenarioSpec


def test_confusion_matrix_validation():
    with pytest.raises(InvalidNoiseParameter):
        ConfusionMatrix(1, np.array([[0.9, 0.0], [0.0, 0.9]]))
    with pytest.raises(InvalidNoiseParameter):
        ConfusionMatrix(1, np.array([[1.2, 0.0], [-0.2, 1.0]]))
    with pytest.raises(InvalidNoiseParameter):
        ConfusionMatrix(2, np.eye(2))
    with pytest.raises(InvalidNoiseParameter, match="non-finite"):
        ConfusionMatrix(1, np.array([[np.nan, 0.0], [np.nan, 1.0]]))


def test_confusion_constructors():
    sym = ConfusionMatrix.symmetric(0.03)
    assert np.allclose(sym.matrix, [[0.97, 0.03], [0.03, 0.97]])
    asym = ConfusionMatrix.from_flip_probs(0.1, 0.02)
    assert np.allclose(asym.matrix, [[0.9, 0.02], [0.1, 0.98]])
    pair = ConfusionMatrix.tensor([sym, asym])
    assert pair.num_bits == 2
    assert np.allclose(pair.matrix, np.kron(sym.matrix, asym.matrix))
    assert ConfusionMatrix.identity(2).condition_number() == 1.0
    assert sym.condition_number() > 1.0


def test_confusion_serialization_round_trips():
    m = ConfusionMatrix.symmetric(0.07, num_bits=2)
    assert np.allclose(ConfusionMatrix.from_json(m.to_json()).matrix, m.matrix)


def test_counts_vector_round_trip_and_validation():
    v = CountsVector.from_dict(2, {"00": 5, "11": 3})
    assert v.counts == (5, 0, 0, 3)
    assert v.total == 8
    assert v.to_dict()["00"] == 5
    with pytest.raises(ValueError):
        CountsVector(1, (1, 2, 3), 6)
    with pytest.raises(ValueError):
        CountsVector(1, (1, -2), -1)
    with pytest.raises(ValueError, match="empty"):
        CountsVector(1, (0, 0), 0)
    for key in ("111", "0", "2x"):
        with pytest.raises(ValueError, match=repr(key)):
            CountsVector.from_dict(2, {key: 5, "00": 3})
    # fractional counts are rejected naming the key, not truncated
    with pytest.raises(ValueError, match="'01'"):
        CountsVector.from_dict(2, {"01": 2.5, "00": 3})
    with pytest.raises(ValueError, match="'1'"):
        CountsVector(1, (3, 2.5), 5)
    assert CountsVector.from_dict(1, {"0": 2.0, "1": 3}).counts == (2, 3)


# --- calibration -------------------------------------------------------------


def test_noiseless_calibration_is_exact_identity():
    m = calibrate(NoiseModel(), num_bits=2, shots_per_state=512, seed=1)
    assert np.array_equal(m.matrix, np.eye(4))


def test_single_bit_calibration_recovers_flip_probability():
    noise = NoiseModel(readout_confusion=ConfusionMatrix.symmetric(0.03))
    m = calibrate(noise, num_bits=1, shots_per_state=200_000, seed=2)
    assert np.abs(m.matrix - [[0.97, 0.03], [0.03, 0.97]]).max() < 0.005


def test_two_bit_calibration_matches_enumerated_tensor_product():
    p = 0.05
    noise = NoiseModel(readout_confusion=ConfusionMatrix.symmetric(p))
    m = calibrate(noise, num_bits=2, shots_per_state=100_000, seed=3)
    # brute-force enumeration of independent per-bit flip probabilities
    single = np.array([[1 - p, p], [p, 1 - p]])
    expected = np.zeros((4, 4))
    for s in range(4):
        for r in range(4):
            prob = 1.0
            for bit in range(2):
                prob *= single[(r >> bit) & 1, (s >> bit) & 1]
            expected[r, s] = prob
    assert np.abs(m.matrix - expected).max() < 0.01
    assert np.abs(m.matrix - np.kron(single, single)).max() < 0.01


def test_calibration_with_full_true_matrix():
    true = ConfusionMatrix.symmetric(0.08, num_bits=2)
    noise = NoiseModel(readout_confusion=true)
    m = calibrate(noise, num_bits=2, shots_per_state=100_000, seed=4)
    assert np.abs(m.matrix - true.matrix).max() < 0.01


def test_tensor_mode_calibration_for_many_bits():
    noise = NoiseModel(readout_confusion=ConfusionMatrix.symmetric(0.02))
    m = calibrate(noise, num_bits=4, shots_per_state=50_000, seed=5)
    assert m.num_bits == 4
    assert np.abs(m.matrix.sum(axis=0) - 1.0).max() < 1e-9
    single = np.array([[0.98, 0.02], [0.02, 0.98]])
    expected = np.kron(np.kron(np.kron(single, single), single), single)
    assert np.abs(m.matrix - expected).max() < 0.02


def test_full_calibration_cap():
    with pytest.raises(CalibrationTooLarge):
        calibrate(NoiseModel(), num_bits=7, mode="full")


def test_calibration_determinism():
    noise = NoiseModel(readout_confusion=ConfusionMatrix.symmetric(0.1))
    a = calibrate(noise, num_bits=2, shots_per_state=1000, seed=6)
    b = calibrate(noise, num_bits=2, shots_per_state=1000, seed=6)
    assert np.array_equal(a.matrix, b.matrix)


# --- mitigation ----------------------------------------------------------------


def test_identity_mitigation_returns_frequencies():
    raw = CountsVector(1, (75, 25), 100)
    out = mitigate(raw, ConfusionMatrix.identity(1))
    assert np.allclose(out, [0.75, 0.25])


def test_two_by_two_closed_form_inverse():
    # infinite-shot limit: direct probability vector input
    p = 0.03
    m = ConfusionMatrix.symmetric(p)
    z_true = 0.4
    true = np.array([(1 + z_true) / 2, (1 - z_true) / 2])
    noisy = m.matrix @ true
    out = mitigate(noisy, m)
    z_mitigated = out[0] - out[1]
    assert abs(z_mitigated - z_true) < 1e-9
    # equivalently z_noisy / (1 - 2p)
    z_noisy = noisy[0] - noisy[1]
    assert abs(z_mitigated - z_noisy / (1 - 2 * p)) < 1e-9


def test_round_trip_through_finite_shots():
    rng = np.random.default_rng(12)
    for _ in range(10):
        dist = rng.dirichlet(np.ones(4))
        m = ConfusionMatrix.symmetric(rng.uniform(0.01, 0.1), num_bits=2)
        counts = rng.multinomial(1_000_000, m.matrix @ dist)
        out = mitigate(counts.astype(float), m)
        assert 0.5 * np.abs(out - dist).sum() < 0.005


def test_round_trip_exact_at_infinite_shots():
    rng = np.random.default_rng(13)
    for _ in range(20):
        dist = rng.dirichlet(np.ones(8))
        m = ConfusionMatrix.symmetric(rng.uniform(0.0, 0.12), num_bits=3)
        assert m.condition_number() < 50
        out = mitigate(m.matrix @ dist, m)
        assert 0.5 * np.abs(out - dist).sum() < 1e-9


def test_mitigated_output_is_always_a_distribution():
    rng = np.random.default_rng(14)
    m = ConfusionMatrix.symmetric(0.2)
    for _ in range(50):
        counts = rng.multinomial(64, rng.dirichlet(np.ones(2)))
        out = mitigate(counts.astype(float), m)
        assert out.min() >= 0.0
        assert abs(out.sum() - 1.0) < 1e-9


def test_least_squares_fallback_engages_on_strong_negativity():
    # all mass on one outcome under heavy symmetric noise inverts to a
    # quasi-distribution with a large negative entry
    m = ConfusionMatrix.symmetric(0.2)
    out, method = mitigate(np.array([1.0, 0.0]), m, return_method=True)
    assert method == "least_squares"
    assert out.min() >= 0.0
    assert abs(out.sum() - 1.0) < 1e-9


def test_plain_inversion_reported_when_clean():
    m = ConfusionMatrix.symmetric(0.03)
    _, method = mitigate(np.array([0.6, 0.4]), m, return_method=True)
    assert method == "inverse"


def test_dimension_mismatch_rejected():
    with pytest.raises(MitigationFailed):
        mitigate(np.array([0.5, 0.5]), ConfusionMatrix.identity(2))


def test_empty_and_non_finite_counts_rejected():
    m = ConfusionMatrix.symmetric(0.03)
    with pytest.raises(MitigationFailed, match="empty"):
        mitigate(np.array([0.0, 0.0]), m)
    with pytest.raises(MitigationFailed, match="non-finite"):
        mitigate(np.array([np.nan, 1.0]), m)


# --- batched kernel against the per-row oracle ------------------------------------


def random_confusion(num_bits, rng, singular, max_mix):
    """A random column-stochastic matrix within ``max_mix`` of the identity,
    or the singular all-equal matrix of fair coin flips."""
    if singular:
        return ConfusionMatrix.symmetric(0.5, num_bits)
    dim = 2**num_bits
    mix = rng.uniform(0.0, max_mix)
    noise = rng.dirichlet(np.ones(dim), size=dim).T
    return ConfusionMatrix(num_bits, (1.0 - mix) * np.eye(dim) + mix * noise)


def random_counts(dim, shots, rng, alpha, size=None):
    """Multinomial counts from a random distribution; few shots and a small
    ``alpha`` give zero entries, whose inversions go negative and take the fit."""
    return rng.multinomial(shots, rng.dirichlet(np.full(dim, alpha)), size=size)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 40),
    st.integers(1, 60),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example(2, 20, 8, True, 1)
@example(3, 10, 5, False, 2)
def test_mitigate_rows_matches_per_row_oracle(num_bits, k, shots, singular, seed):
    rng = np.random.default_rng(seed)
    m = random_confusion(num_bits, rng, singular, max_mix=0.6)
    counts = random_counts(2**num_bits, shots, rng, alpha=0.3, size=k)
    targets = counts / counts.sum(axis=1, keepdims=True)
    try:
        expected = [bf.mitigate_row(t, m.matrix, _constrained_fit) for t in targets]
    except MitigationFailed:
        with pytest.raises(MitigationFailed):
            _mitigate_rows(targets, m.matrix)
        return
    rows, used_fit = _mitigate_rows(targets, m.matrix)
    assert np.array_equal(rows, np.array([row for row, _ in expected]))
    assert used_fit.tolist() == [fit for _, fit in expected]
    # one distribution through the public entry point takes the same kernel
    x, method = mitigate(counts[0], m, return_method=True)
    assert np.array_equal(x, rows[0])
    assert method == ("least_squares" if used_fit[0] else "inverse")


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 400), st.booleans(), st.integers(0, 2**32 - 1))
@example(9, False, 0)  # a zero entry: every resample takes the fit
@example(50, True, 1)  # singular matrix: every resample takes the fit
@example(8192, False, 2)  # about a third of the resamples take the fit
def test_bootstrap_matches_per_resample_oracle(shots, singular, seed):
    rng = np.random.default_rng(seed)
    m = random_confusion(2, rng, singular, max_mix=0.3)
    raw = random_counts(4, shots, rng, alpha=1.0)
    counts = CountsTable(dict(zip(("++", "+-", "-+", "--"), map(int, raw))), shots, seed)
    try:
        value, std_error = bf.bootstrap_correlator(raw, shots, seed, m.matrix, _constrained_fit)
    except MitigationFailed:
        with pytest.raises(MitigationFailed):
            mitigate_correlator(counts, m)
        return
    est = mitigate_correlator(counts, m)
    assert est.value == value
    assert est.std_error == std_error


# --- correlator mitigation -------------------------------------------------------


def test_identity_pair_matrix_preserves_estimate():
    counts = CountsTable({"++": 4000, "+-": 100, "-+": 150, "--": 3942}, 8192, seed=3)
    est = mitigate_correlator(counts, ConfusionMatrix.identity(2))
    probs = counts.probabilities()
    raw_value = probs[0] - probs[1] - probs[2] + probs[3]
    assert abs(est.value - raw_value) < 1e-12
    assert est.method == "sampled_mitigated"
    assert est.std_error > 0


def test_concentrated_counts_with_identity_matrix():
    counts = CountsTable({"++": 500, "+-": 0, "-+": 0, "--": 0}, 500, seed=1)
    est = mitigate_correlator(counts, ConfusionMatrix.identity(2))
    assert est.value == 1.0


def test_correlator_mitigation_undoes_known_flips():
    # damp a perfect correlator with p flips per recorded bit, then invert
    p = 0.03
    n = 200_000
    rng = np.random.default_rng(44)
    flips1 = rng.random(n) < p
    flips2 = rng.random(n) < p
    r1 = np.where(flips1, -1, 1)
    r2 = np.where(flips2, -1, 1)
    idx = 2 * ((1 - r1) // 2) + (1 - r2) // 2
    raw = np.bincount(idx, minlength=4)
    counts = CountsTable(dict(zip(("++", "+-", "-+", "--"), map(int, raw))), n, seed=9)
    pair = ConfusionMatrix.symmetric(p, num_bits=2)
    est = mitigate_correlator(counts, pair)
    assert abs(est.value - 1.0) < 4 * max(est.std_error, 1e-4)


def test_correlator_mitigation_is_deterministic():
    counts = CountsTable({"++": 3000, "+-": 1100, "-+": 900, "--": 3192}, 8192, seed=21)
    pair = ConfusionMatrix.symmetric(0.03, num_bits=2)
    a = mitigate_correlator(counts, pair)
    b = mitigate_correlator(counts, pair)
    assert a.value == b.value
    assert a.std_error == b.std_error


def test_correlator_mitigation_needs_pair_matrix():
    counts = CountsTable({"++": 10, "+-": 0, "-+": 0, "--": 0}, 10)
    with pytest.raises(MitigationFailed):
        mitigate_correlator(counts, ConfusionMatrix.identity(1))


# --- the active-set fit against SLSQP ---------------------------------------------


def objective(matrix, x, target):
    return float(np.sum((matrix @ x - target) ** 2))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 4),
    st.sampled_from(["random", "near_singular", "singular"]),
    st.integers(1, 60),
    st.integers(0, 2**32 - 1),
)
@example(4, "near_singular", 40, 3)
@example(3, "singular", 7, 4)
def test_constrained_fit_is_exact_and_no_worse_than_slsqp(num_bits, kind, shots, seed):
    rng = np.random.default_rng(seed)
    dim = 2**num_bits
    if kind == "near_singular":
        m = ConfusionMatrix.symmetric(0.5 - 10.0 ** rng.uniform(-9, -2), num_bits)
    else:
        m = random_confusion(num_bits, rng, kind == "singular", max_mix=1.0)
    counts = random_counts(dim, shots, rng, alpha=0.3)
    target = counts / counts.sum()
    x = _constrained_fit(m.matrix, target)
    assert x.min() >= 0.0
    assert abs(x.sum() - 1.0) <= 1e-12
    # KKT: the gradient takes one value on the support and none smaller off it
    grad = m.matrix.T @ (m.matrix @ x - target)
    support = x > 0.0
    level = grad[support].mean()
    assert np.abs(grad[support] - level).max() <= 1e-9
    assert (grad[~support] >= level - 1e-9).all()
    if kind == "singular":
        assert np.array_equal(x, np.full(dim, 1.0 / dim))
    try:
        reference = bf.slsqp_fit(m.matrix, target)
    except MitigationFailed:
        return
    assert objective(m.matrix, x, target) <= objective(m.matrix, reference, target) + 1e-12


def test_constrained_fit_raises_at_its_step_cap(monkeypatch):
    # a row that takes the fit fails rather than return an unconverged x
    m = ConfusionMatrix.symmetric(0.2)
    monkeypatch.setattr(mitigation, "FIT_MAX_SOLVES_PER_OUTCOME", 0)
    with pytest.raises(MitigationFailed, match="did not converge"):
        mitigate(np.array([1.0, 0.0]), m)
    assert mitigate(np.array([0.6, 0.4]), m, return_method=True)[1] == "inverse"


# --- mitigated against exact ------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    st.floats(0.5, 2.0),
    st.floats(0.005, 0.1),
    st.floats(0.005, 0.1),
    st.booleans(),
    st.integers(0, 2**31 - 1),
)
def test_mitigated_single_qubit_k3_within_five_sigma_of_exact(
    gamma, p10, p01, symmetric, seed
):
    if symmetric:
        noise = {"readout_flip": p10}
    else:
        matrix = ConfusionMatrix.from_flip_probs(p10, p01).matrix.tolist()
        noise = {"readout_confusion": {"num_bits": 1, "matrix": matrix}}
    config = {
        "scenario": "single_qubit",
        "parameters": {"gamma": gamma},
        "grid": {"n_points": 6, "tau_max": 3.0 / gamma},
        "engine": {"kind": "sampled", "shots": 8192, "seed": seed, "mitigate": True},
        "noise": noise,
    }
    sampled = ScenarioSpec.from_config(config).run()
    exact = ScenarioSpec.from_config({**config, "engine": {"kind": "exact"}}).run()
    for got, want in zip(sampled.results, exact.results):
        assert got.method == "sampled_mitigated"
        assert abs(got.k3 - want.k3) <= 5.0 * got.std_error
