import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bruteforce as bf
from lgsim import (
    CalibrationTooLarge,
    ConfusionMatrix,
    CountsVector,
    InvalidNoiseParameter,
    MitigationFailed,
    NoiseModel,
    calibrate,
    mitigate,
    mitigate_correlator,
)
import lgsim.mitigation as mitigation
from lgsim.mitigation import _constrained_fit, _mitigate_rows, _sign_confusion
from lgsim.observables import parity_observable
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
    asym = ConfusionMatrix(1, bf.flip_matrix(0.1, 0.02))
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


# --- the per-bit readout model ---------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.floats(0.0, 0.5), st.floats(0.0, 0.5))
def test_readout_map_is_the_per_bit_enumeration(m, p10, p01):
    single = ConfusionMatrix(1, bf.flip_matrix(p10, p01))
    got = single.on_bits(m)
    assert np.allclose(got, bf.per_bit_map(single.matrix, m), rtol=0.0, atol=1e-15)
    full = ConfusionMatrix(m, got)
    assert full.on_bits(m) is full.matrix
    if m > 1:
        with pytest.raises(InvalidNoiseParameter, match=f"{m} bits"):
            full.on_bits(m + 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.floats(0.0, 0.5))
def test_sign_confusion_matches_the_closed_form_under_symmetric_flips(m, p):
    obs = parity_observable(list(range(m)), m)
    expected = bf.sign_flip_confusion(p, m)
    for readout in (ConfusionMatrix.symmetric(p), ConfusionMatrix.symmetric(p, m)):
        assert np.allclose(_sign_confusion(obs, readout), expected, rtol=0.0, atol=1e-12)


def test_calibration_columns_follow_the_per_bit_law():
    # the one-multinomial calibration and the former per-shot flip loop draw
    # every column from the same per-bit law
    single = ConfusionMatrix(1, bf.flip_matrix(0.06, 0.02))
    law = bf.per_bit_map(single.matrix, 3)
    shots = 20_000
    sigma = np.sqrt(law * (1 - law) / shots)
    noise = NoiseModel(readout_confusion=single)
    calibrated = calibrate(noise, num_bits=3, shots_per_state=shots, seed=8).matrix
    assert (np.abs(calibrated - law) <= 5 * sigma + 1e-12).all()
    rng = np.random.default_rng(9)
    for prepared in range(8):
        counts = bf.per_shot_readouts(prepared, 3, single, shots, rng)
        assert (np.abs(counts / shots - law[:, prepared]) <= 5 * sigma[:, prepared] + 1e-12).all()


def bell_global_config(noise, engine):
    return {
        "scenario": "bell_pair_lgi_global",
        "parameters": {"gamma1": 1.0, "gamma2": 0.8},
        "grid": {"n_points": 8},
        "engine": engine,
        "noise": noise,
    }


def test_asymmetric_per_bit_flips_on_a_parity_cannot_be_mitigated():
    matrix = bf.flip_matrix(0.05, 0.02).tolist()
    noise = {"readout_confusion": {"num_bits": 1, "matrix": matrix}}
    engine = {"kind": "sampled", "shots": 1024, "seed": 2}
    ScenarioSpec.from_config(bell_global_config(noise, engine)).run()
    mitigated = bell_global_config(noise, {**engine, "mitigate": True})
    with pytest.raises(InvalidNoiseParameter, match="noise.readout_confusion .* parity_0_1"):
        ScenarioSpec.from_config(mitigated).run()


def test_lumpable_two_bit_matrix_mitigates_the_global_parity():
    matrix = ConfusionMatrix.symmetric(0.03, 2).matrix.tolist()
    noise = {"readout_confusion": {"num_bits": 2, "matrix": matrix}}
    engine = {"kind": "sampled", "shots": 8192, "seed": 17, "mitigate": True}
    sampled = ScenarioSpec.from_config(bell_global_config(noise, engine)).run()
    exact = ScenarioSpec.from_config(bell_global_config(None, {"kind": "exact"})).run()
    for got, want in zip(sampled.results, exact.results):
        assert got.method == "sampled_mitigated"
        for a, b in zip(got.combinations(), want.combinations()):
            assert abs(a - b) <= 5.0 * got.std_error


def test_two_bit_matrix_cannot_read_one_qubit():
    matrix = ConfusionMatrix.symmetric(0.03, 2).matrix.tolist()
    noise = {"readout_confusion": {"num_bits": 2, "matrix": matrix}}
    config = {
        "scenario": "single_qubit",
        "parameters": {"gamma": 1.0},
        "grid": {"n_points": 3},
        "noise": noise,
    }
    for mitigate in (False, True):
        engine = {"kind": "sampled", "shots": 256, "seed": 1, "mitigate": mitigate}
        with pytest.raises(InvalidNoiseParameter, match="2 bits"):
            ScenarioSpec.from_config({**config, "engine": engine}).run()


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
    counts = CountsVector(2, tuple(map(int, raw)), shots, seed)
    try:
        value, std_error = bf.bootstrap_correlator(raw, shots, seed, m.matrix, _constrained_fit)
    except MitigationFailed:
        with pytest.raises(MitigationFailed):
            mitigate_correlator([counts], m)
        return
    est = mitigate_correlator([counts], m)[0]
    assert est.value == value
    assert est.std_error == std_error


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 6), st.booleans(), st.integers(0, 2**32 - 1))
@example(6, False, 3)
@example(2, True, 4)  # singular matrix: every resample takes the fit
def test_batched_mitigation_matches_one_table_calls(k, singular, seed):
    # many tables in one call give what one-table calls give, bit for bit: the
    # value, the std_error and the note. The first table has seed None; the
    # last has a zero count, which flips of at least 0.05 send below the
    # inversion threshold, so its resamples take the fit
    rng = np.random.default_rng(seed)
    m = ConfusionMatrix.symmetric(0.5 if singular else rng.uniform(0.05, 0.3), num_bits=2)
    tables = []
    for i in range(k):
        shots = int(rng.integers(1, 400))
        raw = random_counts(4, shots, rng, alpha=1.0)
        tables.append(CountsVector(2, tuple(map(int, raw)), shots, None if i == 0 else seed + i))
    tables.append(CountsVector(2, (6, 0, 2, 1), 9, seed))
    try:
        singles = [mitigate_correlator([counts], m)[0] for counts in tables]
    except MitigationFailed:
        with pytest.raises(MitigationFailed):
            mitigate_correlator(tables, m)
        return
    fits = []
    fit = mitigation._constrained_fit
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mitigation, "_constrained_fit", lambda *args: fits.append(1) or fit(*args))
        batch = mitigate_correlator(tables, m)
    assert fits
    assert len(batch) == len(tables)
    assert [(e.value, e.std_error, e.note) for e in batch] == [
        (e.value, e.std_error, e.note) for e in singles
    ]
    assert mitigate_correlator([], m) == ()


# --- correlator mitigation -------------------------------------------------------


def test_identity_pair_matrix_preserves_estimate():
    counts = CountsVector(2, (4000, 100, 150, 3942), 8192, seed=3)
    est = mitigate_correlator([counts], ConfusionMatrix.identity(2))[0]
    probs = np.array(counts.counts) / counts.total
    raw_value = probs[0] - probs[1] - probs[2] + probs[3]
    assert abs(est.value - raw_value) < 1e-12
    assert est.method == "sampled_mitigated"
    assert est.std_error > 0


def test_concentrated_counts_with_identity_matrix():
    counts = CountsVector(2, (500, 0, 0, 0), 500, seed=1)
    est = mitigate_correlator([counts], ConfusionMatrix.identity(2))[0]
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
    counts = CountsVector(2, tuple(map(int, raw)), n, seed=9)
    pair = ConfusionMatrix.symmetric(p, num_bits=2)
    est = mitigate_correlator([counts], pair)[0]
    assert abs(est.value - 1.0) < 4 * max(est.std_error, 1e-4)


def test_correlator_mitigation_is_deterministic():
    counts = CountsVector(2, (3000, 1100, 900, 3192), 8192, seed=21)
    pair = ConfusionMatrix.symmetric(0.03, num_bits=2)
    a = mitigate_correlator([counts], pair)[0]
    b = mitigate_correlator([counts], pair)[0]
    assert a.value == b.value
    assert a.std_error == b.std_error


def test_correlator_mitigation_needs_pair_matrix():
    counts = CountsVector(2, (10, 0, 0, 0), 10)
    with pytest.raises(MitigationFailed):
        mitigate_correlator([counts], ConfusionMatrix.identity(1))


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


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.sampled_from(["random", "near_singular", "singular"]),
    st.integers(0, 6),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
@example(2, "random", 2, 4, 43)
@example(3, "near_singular", 1, 5, 3)
@example(2, "singular", 2, 2, 4)
def test_lockstep_fit_matches_one_row_calls(num_bits, kind, interior, boundary, seed):
    # a block of rows gives what one-row calls give, bit for bit, and every row
    # meets the KKT conditions. Interior rows M p (p inside the simplex) stop
    # after the first solve; rows of few shots with zero counts drop indices
    # (and may free some again); the fair-coin matrix keeps the uniform point
    rng = np.random.default_rng(seed)
    dim = 2**num_bits
    if kind == "near_singular":
        m = ConfusionMatrix.symmetric(0.5 - 10.0 ** rng.uniform(-9, -2), num_bits)
    else:
        m = random_confusion(num_bits, rng, kind == "singular", max_mix=1.0)
    inner = rng.dirichlet(np.full(dim, 5.0), size=interior) @ m.matrix.T
    counts = random_counts(dim, int(rng.integers(1, 20)), rng, alpha=0.3, size=boundary)
    block = np.concatenate([inner, counts / counts.sum(axis=1, keepdims=True)])
    block = block[rng.permutation(len(block))]
    x = _constrained_fit(m.matrix, block)
    assert x.shape == block.shape
    for row, target in zip(x, block):
        assert np.array_equal(row, _constrained_fit(m.matrix, target))
        assert row.min() >= 0.0
        assert abs(row.sum() - 1.0) <= 1e-12
        grad = m.matrix.T @ (m.matrix @ row - target)
        support = row > 0.0
        level = grad[support].mean()
        assert np.abs(grad[support] - level).max() <= 1e-9
        assert (grad[~support] >= level - 1e-9).all()
    if kind == "singular":
        assert np.array_equal(x, np.full(block.shape, 1.0 / dim))


def test_lockstep_fit_fails_whole_when_one_row_reaches_its_step_cap(monkeypatch):
    # at a cap of one solve per outcome (4 here) the interior row stops after
    # its first solve and the zero-count row needs five: the block raises
    # rather than return the rows that converged
    rng = np.random.default_rng(43)
    m = random_confusion(2, rng, False, max_mix=1.0)
    hard = random_counts(4, int(rng.integers(1, 20)), rng, alpha=0.3)
    hard = hard / hard.sum()
    easy = m.matrix @ np.full(4, 0.25)
    assert _constrained_fit(m.matrix, hard).min() == 0.0
    monkeypatch.setattr(mitigation, "FIT_MAX_SOLVES_PER_OUTCOME", 1)
    assert _constrained_fit(m.matrix, easy).shape == (4,)
    for targets in (hard, np.stack([easy, hard, easy])):
        with pytest.raises(MitigationFailed, match="did not converge"):
            _constrained_fit(m.matrix, targets)


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
        matrix = bf.flip_matrix(p10, p01).tolist()
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
