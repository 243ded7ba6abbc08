import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bruteforce as bf
from lgsim import (
    DensityMatrix,
    InvalidChannel,
    InvalidNoiseParameter,
    NoiseModel,
    apply_channel,
    dephasing_channel,
    depolarizing_channel,
    prepare_state,
)
from lgsim.core import amplitude_damping_channel, relaxation_channels
from lgsim.core.channels import BlockChannel, RelaxationChannel, block_channel
from lgsim.mitigation import ConfusionMatrix


def plus_rho():
    return prepare_state("plus", 1).density_matrix()


def random_unitary(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def block_depolarizing(m, p1, p2):
    """Gate depolarizing of a Trotter block: a bond and a field on each of
    its two qubits, or one field."""
    return [(p2, (0, 1)), (p1, (0,)), (p1, (1,))] if m == 2 else [(p1, (0,))]


def textbook_block(rho, gate, depolarizing, qubits):
    """Conjugation by the densely embedded gate, then for each (p, targets)
    a literal sum over the 4^m weighted Pauli strings on those targets."""
    full = bf.local_operator(gate, qubits, int(np.log2(rho.shape[0])))
    out = full @ rho @ full.conj().T
    for p, targets in depolarizing:
        m = len(targets)
        ops = [
            np.sqrt(1 - p * (4**m - 1) / 4**m if set(labels) == {"I"} else p / 4**m)
            * bf.pauli_string("".join(labels))
            for labels in itertools.product("IXYZ", repeat=m)
        ]
        out = bf.kraus_sum(out, ops, tuple(qubits[t] for t in targets))
    return out


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


def test_channel_targets_must_fit_register():
    rho = plus_rho()
    with pytest.raises(InvalidChannel):
        apply_channel(rho, dephasing_channel(2.0, 0.5, 3))


def test_all_builtin_channels_preserve_trace_and_validity():
    rng = np.random.default_rng(11)
    channels = [
        dephasing_channel(2.0, 0.7, 0),
        amplitude_damping_channel(3.0, 0.5, 1),
        depolarizing_channel(0.13, (0,)),
        depolarizing_channel(0.04, (0, 2)),
        block_channel(
            (1, 2), random_unitary(4, np.random.default_rng(2)), block_depolarizing(2, 0.13, 0.04)
        ),
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


def test_depolarizing_targets_may_be_any_sequence_of_qubit_indices():
    assert depolarizing_channel(0.1, [0, 1]) is depolarizing_channel(0.1, (0, 1))
    assert depolarizing_channel(0.1, np.array([2])) is depolarizing_channel(0.1, (2,))


@pytest.mark.parametrize("qubits", [0, "01", (0.0,), None])
def test_depolarizing_targets_must_be_qubit_indices(qubits):
    with pytest.raises(InvalidChannel, match="qubits"):
        depolarizing_channel(0.1, qubits)


def test_depolarizing_kraus_operators_are_built_when_read():
    ch = depolarizing_channel(0.37, (4, 1))
    assert "kraus_ops" not in vars(ch)
    assert len(ch.kraus_ops) == 16
    assert ch.kraus_ops is ch.kraus_ops


def test_relaxation_kraus_operators_are_complete_and_built_when_read():
    ch = RelaxationChannel(1, 0.3, 0.5)
    assert "kraus_ops" not in vars(ch)
    assert len(ch.kraus_ops) == 4
    assert ch.kraus_ops is ch.kraus_ops
    completeness = sum(k.conj().T @ k for k in ch.kraus_ops)
    assert np.abs(completeness - np.eye(2)).max() < 1e-12


@pytest.mark.parametrize(
    "decay, coherence",
    [(-0.1, 0.5), (1.1, 0.0), (float("nan"), 0.0), (0.0, -0.2), (0.0, 1.01), (0.75, 0.6),
     (1.0, 1e-9), (0.0, float("nan"))],
)
def test_relaxation_parameters_must_give_a_completely_positive_map(decay, coherence):
    with pytest.raises(InvalidNoiseParameter, match="relaxation"):
        RelaxationChannel(0, decay, coherence)


@st.composite
def channel_cases(draw):
    """A channel of any kind on qubits of n: depolarizing with probability p
    on 1 or 2 of them, in any order; the relaxation of one of them over some
    duration with a t1, a t2 (at most 2 t1) or both; or a random gate on 1
    or 2 adjacent qubits fused with the gate depolarizing of its block."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["relaxation", "depolarizing", "block"]))
    m = draw(st.integers(1, min(2, n))) if kind != "relaxation" else 1
    targets = tuple(draw(st.permutations(range(n)))[:m])
    if kind == "block":
        low = draw(st.integers(0, n - m))
        targets = tuple(range(low, low + m))
        param = (draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)))
    elif kind == "relaxation":
        t1 = draw(st.floats(0.1, 10.0))
        t2 = draw(st.floats(0.05, 2.0)) * t1
        duration = draw(st.floats(1e-3, 5.0))
        param = draw(st.sampled_from([(t1, None), (None, t2), (t1, t2)])) + (duration,)
    else:
        param = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, targets, kind, param, seed


def textbook_relaxation(rho, t1, t2, duration, targets):
    """Amplitude damping, then dephasing at the pure-dephasing rate
    1/t2 - 1/(2 t1), each as a literal sum over its Kraus pair."""
    if t1 is not None:
        g = 1.0 - np.exp(-duration / t1)
        damping = [np.diag([1.0, np.sqrt(1.0 - g)]), np.array([[0.0, np.sqrt(g)], [0.0, 0.0]])]
        rho = bf.kraus_sum(rho, damping, targets)
    if t2 is not None:
        rate = max(1.0 / t2 - (0.0 if t1 is None else 0.5 / t1), 0.0)
        p = 0.5 * (1.0 - np.exp(-duration * rate))
        rho = bf.kraus_sum(rho, [np.sqrt(1.0 - p) * np.eye(2), np.sqrt(p) * bf.Z], targets)
    return rho


@settings(max_examples=80, deadline=None)
@given(channel_cases())
@example((5, (3,), "relaxation", (2.0, 3.0, 0.7), 7))
@example((4, (0,), "relaxation", (0.1, None, 5.0), 8))
@example((3, (2,), "relaxation", (None, 0.4, 1.3), 9))
@example((2, (1,), "relaxation", (2.0, 4.0, 0.7), 14))
@example((5, (4, 1), "depolarizing", 0.0, 10))
@example((4, (3, 0), "depolarizing", 1.0, 11))
@example((3, (1,), "depolarizing", 1.0, 12))
@example((1, (0,), "depolarizing", 0.3, 13))
@example((4, (1, 2), "block", (0.2, 0.6), 15))
def test_channel_kernels_match_dense_kraus_sum(case):
    # every kernel is linear, so the input is a Hermitian matrix that is
    # not positive semidefinite, like the signed operator M(rho); the
    # closed form must match the textbook Kraus sums and the channel's own
    # Kraus operators
    n, targets, kind, param, seed = case
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    v, _ = np.linalg.qr(a)
    w = rng.normal(size=2**n)
    w[0] = -abs(w[0]) - 0.1
    signed = (v * w) @ v.conj().T
    if kind == "relaxation":
        t1, t2, duration = param
        (q,) = targets
        noise = NoiseModel(t1=None if t1 is None else {q: t1}, t2=None if t2 is None else {q: t2})
        (channel,) = relaxation_channels(noise, n, duration)
        expected = textbook_relaxation(signed, t1, t2, duration, targets)
    elif kind == "block":
        gate = random_unitary(2 ** len(targets), rng)
        depolarizing = block_depolarizing(len(targets), *param)
        channel = block_channel(targets, gate, depolarizing)
        expected = textbook_block(signed, gate, depolarizing, targets)
    else:
        channel = depolarizing_channel(param, targets)
        expected = bf.kraus_sum(signed, channel.kraus_ops, targets)
    out = apply_channel(DensityMatrix._trusted(n, signed), channel)
    assert np.abs(out.matrix - expected).max() < 1e-12
    assert np.abs(out.matrix - bf.kraus_sum(signed, channel.kraus_ops, targets)).max() < 1e-12


@st.composite
def block_cases(draw):
    """(n, low, m, p1, p2, seed): a block of m adjacent qubits from ``low``
    in n, with rates that include the ends of [0, 1]."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, min(2, n)))
    rates = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    low = draw(st.integers(0, n - m))
    return n, low, m, draw(rates), draw(rates), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(block_cases())
@example((5, 3, 2, 1.0, 1.0, 1))
@example((3, 0, 2, 0.0, 0.0, 2))
@example((1, 0, 1, 1.0, 0.0, 3))
def test_block_channel_matches_dense_kraus_sum(case):
    n, low, m, p1, p2, seed = case
    rng = np.random.default_rng(seed)
    qubits = tuple(range(low, low + m))
    gate = random_unitary(2**m, rng)
    depolarizing = block_depolarizing(m, p1, p2)
    channel = block_channel(qubits, gate, depolarizing)
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    signed = a + a.conj().T  # every kernel is linear; the input need not be a state
    out = apply_channel(DensityMatrix._trusted(n, signed), channel)
    assert "kraus_ops" not in vars(channel)
    assert np.abs(out.matrix - textbook_block(signed, gate, depolarizing, qubits)).max() < 1e-12
    completeness = sum(k.conj().T @ k for k in channel.kraus_ops)
    assert np.abs(completeness - np.eye(2**m)).max() < 1e-12
    assert np.abs(out.matrix - bf.kraus_sum(signed, channel.kraus_ops, qubits)).max() < 1e-12
    outside = block_channel(tuple(range(n - m + 1, n + 1)), gate, [])
    with pytest.raises(InvalidChannel, match="outside"):
        apply_channel(DensityMatrix._trusted(n, signed), outside)
    for targets in ((low, low + 2), (low + 1, low), (low, low + 1, low + 2), ()):
        with pytest.raises(InvalidChannel, match="adjacent"):
            BlockChannel(targets, np.eye(16))


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
