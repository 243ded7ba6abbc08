import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bruteforce as bf
from lgsim import (
    DensityMatrix,
    InvalidChannel,
    InvalidNoiseParameter,
    KrausChannel,
    NoiseModel,
    apply_channel,
    dephasing_channel,
    depolarizing_channel,
    prepare_state,
)
from lgsim.core import amplitude_damping_channel, identity_channel
from lgsim.mitigation import ConfusionMatrix


def plus_rho():
    return prepare_state("plus", 1).density_matrix()


def test_identity_channel_leaves_state_unchanged():
    rho = plus_rho()
    out = apply_channel(rho, identity_channel(0))
    assert np.abs(out.matrix - rho.matrix).max() < 1e-14


def test_dephasing_scales_off_diagonals_only():
    t2, duration = 4.0, 1.7
    rho = plus_rho()
    out = apply_channel(rho, dephasing_channel(t2, duration, 0))
    factor = np.exp(-duration / t2)
    assert abs(out.matrix[0, 0] - 0.5) < 1e-12
    assert abs(out.matrix[1, 1] - 0.5) < 1e-12
    assert abs(out.matrix[0, 1] - 0.5 * factor) < 1e-12


def test_dephasing_zero_duration_is_identity():
    ch = dephasing_channel(10.0, 0.0, 0)
    assert np.abs(ch.kraus_ops[0] - np.eye(2)).max() < 1e-12
    assert np.abs(ch.kraus_ops[1]).max() < 1e-12


def test_dephasing_half_life_gives_quarter_flip_weight():
    t2 = 3.0
    ch = dephasing_channel(t2, t2 * np.log(2.0), 0)
    # weights are sqrt(1-p), sqrt(p) with p = 1/4
    assert abs(ch.kraus_ops[1][0, 0] ** 2 - 0.25) < 1e-12
    out = apply_channel(plus_rho(), ch)
    assert abs(out.matrix[0, 1] - 0.25) < 1e-12


def test_dephasing_long_time_limit_kills_coherence():
    out = apply_channel(plus_rho(), dephasing_channel(1.0, 1e9, 0))
    assert abs(out.matrix[0, 1]) < 1e-12


def test_dephasing_requires_positive_t2():
    with pytest.raises(InvalidNoiseParameter):
        dephasing_channel(0.0, 1.0, 0)
    with pytest.raises(InvalidNoiseParameter):
        dephasing_channel(-2.0, 1.0, 0)


def test_fully_depolarizing_gives_maximally_mixed():
    rng = np.random.default_rng(3)
    rho = DensityMatrix(1, bf.random_density_matrix(1, rng))
    out = apply_channel(rho, depolarizing_channel(1.0, (0,)))
    assert np.abs(out.matrix - np.eye(2) / 2).max() < 1e-12


def test_two_qubit_full_depolarizing():
    rho = prepare_state("bell", 2).density_matrix()
    out = apply_channel(rho, depolarizing_channel(1.0, (0, 1)))
    assert np.abs(out.matrix - np.eye(4) / 4).max() < 1e-12


def test_amplitude_damping_decays_excited_population():
    t1, duration = 5.0, 2.0
    rho = DensityMatrix(1, np.diag([0.0, 1.0]).astype(complex))
    out = apply_channel(rho, amplitude_damping_channel(t1, duration, 0))
    assert abs(out.matrix[1, 1] - np.exp(-duration / t1)) < 1e-12


def test_incomplete_kraus_set_rejected():
    with pytest.raises(InvalidChannel):
        KrausChannel((0,), (0.5 * np.eye(2),))


def test_channel_targets_must_fit_register():
    rho = plus_rho()
    with pytest.raises(InvalidChannel):
        apply_channel(rho, identity_channel(qubit=3))


def test_all_builtin_channels_preserve_trace_and_validity():
    rng = np.random.default_rng(11)
    channels = [
        dephasing_channel(2.0, 0.7, 0),
        amplitude_damping_channel(3.0, 0.5, 1),
        depolarizing_channel(0.13, (0,)),
        depolarizing_channel(0.04, (0, 2)),
        identity_channel(2),
    ]
    for _ in range(10):
        rho = DensityMatrix(3, bf.random_density_matrix(3, rng))
        for ch in channels:
            out = apply_channel(rho, ch)
            assert abs(np.trace(out.matrix).real - 1.0) < 1e-10


def test_channel_on_embedded_qubit_matches_explicit_kron():
    # dephase qubit 1 of a 3-qubit register, compare against hand-built ops
    t2, duration = 2.5, 0.9
    rng = np.random.default_rng(5)
    rho = DensityMatrix(3, bf.random_density_matrix(3, rng))
    out = apply_channel(rho, dephasing_channel(t2, duration, 1))
    p = 0.5 * (1 - np.exp(-duration / t2))
    k0 = np.sqrt(1 - p) * np.eye(8)
    k1 = np.sqrt(p) * bf.op_on(bf.Z, 1, 3)
    expected = k0 @ rho.matrix @ k0.conj().T + k1 @ rho.matrix @ k1.conj().T
    assert np.abs(out.matrix - expected).max() < 1e-12


def test_non_finite_kraus_operator_rejected():
    with pytest.raises(InvalidChannel, match="non-finite"):
        KrausChannel((0,), ([[np.nan, 0], [0, 1]],))


@st.composite
def channel_cases(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, min(2, n)))
    targets = tuple(draw(st.permutations(range(n)))[:m])
    rank = draw(st.integers(1, 4**m))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, targets, rank, seed


@settings(max_examples=60, deadline=None)
@given(channel_cases())
@example((5, (3, 1), 3, 7))
@example((4, (0, 3), 16, 8))
@example((3, (2,), 2, 9))
def test_local_superoperator_matches_dense_kraus_sum(case):
    n, targets, rank, seed = case
    rng = np.random.default_rng(seed)
    ops = bf.random_kraus_ops(len(targets), rank, rng)
    rho = bf.random_density_matrix(n, rng)
    out = apply_channel(DensityMatrix(n, rho), KrausChannel(targets, tuple(ops)))
    assert np.abs(out.matrix - bf.kraus_sum(rho, ops, targets)).max() < 1e-12


# --- noise model -----------------------------------------------------------


def test_noise_model_rejects_unphysical_t2():
    with pytest.raises(InvalidNoiseParameter):
        NoiseModel(t1=10.0, t2=25.0)


def test_noise_model_accepts_t2_at_twice_t1():
    NoiseModel(t1=10.0, t2=20.0)


def test_noise_model_per_qubit_lookup():
    noise = NoiseModel(t1={0: 100.0}, t2={0: 50.0, 1: 70.0})
    assert noise.qubit_t1(0) == 100.0
    assert noise.qubit_t1(1) is None
    assert noise.qubit_t2(1) == 70.0


def test_noise_model_rejects_bad_probability():
    with pytest.raises(InvalidNoiseParameter):
        NoiseModel(gate_depolarizing_1q=1.5)


def test_noise_model_digest_distinguishes_models():
    a = NoiseModel(t2=50.0)
    b = NoiseModel(t2=55.0)
    c = NoiseModel(t2=50.0, readout_confusion=ConfusionMatrix.symmetric(0.03))
    assert a.digest() == NoiseModel(t2=50.0).digest()
    assert a.digest() != b.digest()
    assert a.digest() != c.digest()
