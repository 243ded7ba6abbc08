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
    prepare_state,
)
from lgsim.core import relaxation_channels
from lgsim.core.channels import BlockChannel, PauliVector, block_channel
from lgsim.mitigation import ConfusionMatrix


def plus_rho():
    return prepare_state("plus", 1).density_matrix()


def random_unitary(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def relaxation(qubit, n, duration, t1=None, t2=None):
    """The relaxation channel of ``qubit`` alone among n over ``duration``."""
    noise = NoiseModel(t1=None if t1 is None else {qubit: t1},
                       t2=None if t2 is None else {qubit: t2})
    (channel,) = relaxation_channels(noise, n, duration)
    return channel


def uniform_depolarizing(p, qubits):
    """Uniform depolarizing of the adjacent ``qubits``: an identity gate
    followed by the gate noise of its block."""
    m = len(qubits)
    return block_channel(qubits, np.eye(2**m), [(p, tuple(range(m)))])


def block_depolarizing(m, p1, p2):
    """Gate depolarizing of a Trotter block: a bond and a field on each of
    its two qubits, or one field."""
    return [(p2, (0, 1)), (p1, (0,)), (p1, (1,))] if m == 2 else [(p1, (0,))]


def textbook_relaxation(rho, t1, t2, duration, targets):
    """The literal Kraus sums of ``bf.relaxation_ops``, one after another."""
    for ops in bf.relaxation_ops(t1, t2, duration):
        rho = bf.kraus_sum(rho, ops, targets)
    return rho


def textbook_block(rho, gate, noise, qubits):
    """Conjugation by the densely embedded gate, then for each (p, targets)
    the literal sum over the 4^m weighted Pauli strings of
    ``bf.depolarizing_ops`` on those targets."""
    full = bf.local_operator(gate, qubits, int(np.log2(rho.shape[0])))
    out = full @ rho @ full.conj().T
    for p, targets in noise:
        ops = bf.depolarizing_ops(p, len(targets))
        out = bf.kraus_sum(out, ops, tuple(qubits[t] for t in targets))
    return out


def test_dephasing_scales_off_diagonals_only():
    t2, duration = 4.0, 1.7
    rho = plus_rho()
    out = apply_channel(rho, relaxation(0, 1, duration, t2=t2))
    factor = np.exp(-duration / t2)
    assert abs(out.matrix[0, 0] - 0.5) < 1e-12
    assert abs(out.matrix[1, 1] - 0.5) < 1e-12
    assert abs(out.matrix[0, 1] - 0.5 * factor) < 1e-12


def test_dephasing_zero_duration_is_identity():
    # a segment of no length gets no channel at all
    assert relaxation_channels(NoiseModel(t1=10.0, t2=10.0), 3, 0.0) == []


def test_dephasing_half_life_gives_quarter_flip_weight():
    t2 = 3.0
    ch = relaxation(0, 1, t2 * np.log(2.0), t2=t2)
    # the literal Kraus pair is sqrt(1 - p) I, sqrt(p) Z with p = 1/4
    ((keep, flip),) = bf.relaxation_ops(None, t2, t2 * np.log(2.0))
    assert abs(flip[0, 0] ** 2 - 0.25) < 1e-12
    out = apply_channel(plus_rho(), ch)
    assert abs(out.matrix[0, 1] - 0.25) < 1e-12
    assert np.abs(out.matrix - bf.kraus_sum(plus_rho().matrix, [keep, flip], (0,))).max() < 1e-12


def test_dephasing_long_time_limit_kills_coherence():
    out = apply_channel(plus_rho(), relaxation(0, 1, 1e9, t2=1.0))
    assert abs(out.matrix[0, 1]) < 1e-12


def test_dephasing_requires_positive_t2():
    with pytest.raises(InvalidNoiseParameter):
        NoiseModel(t2=0.0)
    with pytest.raises(InvalidNoiseParameter):
        NoiseModel(t2={0: -2.0})


def test_fully_depolarizing_gives_maximally_mixed():
    rng = np.random.default_rng(3)
    rho = DensityMatrix(1, bf.random_density_matrix(1, rng))
    out = apply_channel(rho, uniform_depolarizing(1.0, (0,)))
    assert np.abs(out.matrix - np.eye(2) / 2).max() < 1e-12


def test_two_qubit_full_depolarizing():
    rho = prepare_state("bell", 2).density_matrix()
    out = apply_channel(rho, uniform_depolarizing(1.0, (0, 1)))
    assert np.abs(out.matrix - np.eye(4) / 4).max() < 1e-12


def test_amplitude_damping_decays_excited_population():
    t1, duration = 5.0, 2.0
    rho = DensityMatrix(1, np.diag([0.0, 1.0]).astype(complex))
    out = apply_channel(rho, relaxation(0, 1, duration, t1=t1))
    assert abs(out.matrix[1, 1] - np.exp(-duration / t1)) < 1e-12
    assert abs(out.matrix[0, 0] - (1.0 - np.exp(-duration / t1))) < 1e-12


def test_channel_targets_must_fit_register():
    rho = plus_rho()
    with pytest.raises(InvalidChannel, match="outside"):
        apply_channel(rho, relaxation(3, 4, 0.5, t2=2.0))


def test_all_builtin_channels_preserve_trace_and_validity():
    rng = np.random.default_rng(11)
    channels = [
        relaxation(0, 3, 0.7, t2=2.0),
        relaxation(1, 3, 0.5, t1=3.0),
        relaxation(2, 3, 0.4, t1=3.0, t2=4.0),
        uniform_depolarizing(0.13, (0,)),
        uniform_depolarizing(0.04, (1, 2)),
        block_channel(
            (1, 2), random_unitary(4, np.random.default_rng(2)), block_depolarizing(2, 0.13, 0.04)
        ),
    ]
    for _ in range(10):
        rho = DensityMatrix(3, bf.random_density_matrix(3, rng))
        for ch in channels:
            out = apply_channel(rho, ch).matrix
            assert abs(np.trace(out).real - 1.0) < 1e-10
            assert np.abs(out - out.conj().T).max() < 1e-12
            assert np.linalg.eigvalsh(out).min() > -1e-12


def test_channel_on_embedded_qubit_matches_explicit_kron():
    # dephase qubit 1 of a 3-qubit register, compare against hand-built ops
    t2, duration = 2.5, 0.9
    rng = np.random.default_rng(5)
    rho = DensityMatrix(3, bf.random_density_matrix(3, rng))
    out = apply_channel(rho, relaxation(1, 3, duration, t2=t2))
    p = 0.5 * (1 - np.exp(-duration / t2))
    k0 = np.sqrt(1 - p) * np.eye(8)
    k1 = np.sqrt(p) * bf.op_on(bf.Z, 1, 3)
    expected = k0 @ rho.matrix @ k0.conj().T + k1 @ rho.matrix @ k1.conj().T
    assert np.abs(out.matrix - expected).max() < 1e-12


def test_depolarizing_kraus_operators_are_built_when_read():
    ch = uniform_depolarizing(0.37, (1, 2))
    assert "kraus_ops" not in vars(ch)
    assert len(ch.kraus_ops) == 16
    assert ch.kraus_ops is ch.kraus_ops


def test_relaxation_kraus_operators_are_complete_and_built_when_read():
    ch = relaxation(1, 2, 0.8, t1=3.0, t2=2.0)
    assert "kraus_ops" not in vars(ch)
    assert len(ch.kraus_ops) == 3
    assert ch.kraus_ops is ch.kraus_ops
    completeness = sum(k.conj().T @ k for k in ch.kraus_ops)
    assert np.abs(completeness - np.eye(2)).max() < 1e-12


@st.composite
def channel_cases(draw):
    """A channel of any kind on qubits of n: the relaxation of one of them
    over some duration with a t1, a t2 (at most 2 t1) or both; depolarizing
    with probability p on 1 or 2 adjacent ones; or a random gate on 1 or 2
    adjacent qubits fused with the gate depolarizing of its block."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["relaxation", "depolarizing", "block"]))
    m = draw(st.integers(1, min(2, n))) if kind != "relaxation" else 1
    low = draw(st.integers(0, n - m))
    targets = tuple(range(low, low + m))
    if kind == "block":
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


@settings(max_examples=80, deadline=None)
@given(channel_cases())
@example((5, (3,), "relaxation", (2.0, 3.0, 0.7), 7))
@example((4, (0,), "relaxation", (0.1, None, 5.0), 8))
@example((3, (2,), "relaxation", (None, 0.4, 1.3), 9))
@example((2, (1,), "relaxation", (2.0, 4.0, 0.7), 14))
@example((5, (3, 4), "depolarizing", 0.0, 10))
@example((4, (2, 3), "depolarizing", 1.0, 11))
@example((3, (1,), "depolarizing", 1.0, 12))
@example((1, (0,), "depolarizing", 0.3, 13))
@example((4, (1, 2), "block", (0.2, 0.6), 15))
def test_channel_kernels_match_dense_kraus_sum(case):
    # every channel is linear, so the input is a Hermitian matrix that is
    # not positive semidefinite, like the signed operator M(rho); the pass
    # must match the literal Kraus sums of tests/bruteforce.py and the
    # channel's own Kraus operators
    n, targets, kind, param, seed = case
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    v, _ = np.linalg.qr(a)
    w = rng.normal(size=2**n)
    w[0] = -abs(w[0]) - 0.1
    signed = (v * w) @ v.conj().T
    if kind == "relaxation":
        t1, t2, duration = param
        channel = relaxation(targets[0], n, duration, t1=t1, t2=t2)
        expected = textbook_relaxation(signed, t1, t2, duration, targets)
    elif kind == "block":
        gate = random_unitary(2 ** len(targets), rng)
        noise = block_depolarizing(len(targets), *param)
        channel = block_channel(targets, gate, noise)
        expected = textbook_block(signed, gate, noise, targets)
    else:
        channel = uniform_depolarizing(param, targets)
        expected = bf.kraus_sum(signed, bf.depolarizing_ops(param, len(targets)), targets)
    out = apply_channel(PauliVector.of(signed), channel)
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
    out = apply_channel(PauliVector.of(signed), channel)
    assert "kraus_ops" not in vars(channel)
    assert np.abs(out.matrix - textbook_block(signed, gate, depolarizing, qubits)).max() < 1e-12
    completeness = sum(k.conj().T @ k for k in channel.kraus_ops)
    assert np.abs(completeness - np.eye(2**m)).max() < 1e-12
    assert np.abs(out.matrix - bf.kraus_sum(signed, channel.kraus_ops, qubits)).max() < 1e-12
    outside = block_channel(tuple(range(n - m + 1, n + 1)), gate, [])
    with pytest.raises(InvalidChannel, match="outside"):
        apply_channel(PauliVector.of(signed), outside)
    for targets in ((low, low + 2), (low + 1, low), (low, low + 1, low + 2), ()):
        with pytest.raises(InvalidChannel, match="adjacent"):
            BlockChannel(targets, np.eye(16))


# --- Pauli form --------------------------------------------------------------


def pauli_labels(n):
    """The Pauli string of each coefficient index, character k on qubit k,
    as ``bf.pauli_string`` reads it: factor (index // 4^k) % 4 of I, X, Y, Z."""
    return ["".join("IXYZ"[index // 4**k % 4] for k in range(n)) for index in range(4**n)]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
@example(1, 0)
@example(6, 1)
def test_pauli_form_round_trip_and_coefficients(n, seed):
    # a Hermitian matrix that is no state goes to its real Pauli coefficients
    # and back unchanged, exactly Hermitian; each coefficient is Tr(P X)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    x = a + a.conj().T
    pauli = PauliVector.of(x)
    assert pauli.num_qubits == n
    assert pauli.coefficients.dtype == np.float64 and pauli.coefficients.shape == (4**n,)
    back = pauli.matrix
    assert np.abs(back - x).max() < 1e-14
    assert np.array_equal(back, back.conj().T)
    if n <= 3:
        for label, coefficient in zip(pauli_labels(n), pauli.coefficients):
            assert abs(np.trace(bf.pauli_string(label) @ x) - coefficient) < 1e-13


@settings(max_examples=30, deadline=None)
@given(block_cases(), st.floats(0.1, 10.0), st.floats(0.05, 2.0))
@example((2, 0, 2, 1.0, 1.0, 4), 0.1, 2.0)
@example((1, 0, 1, 0.0, 0.0, 5), 3.0, 0.05)
def test_transfer_matrix_is_real_and_trace_preserving(case, t1, ratio):
    # a block gate with its gate noise and the relaxation of its qubits: R is
    # real, R[P, Q] = Tr(P E(Q)) / 2^m from the channel's own Kraus
    # operators, and its identity row is e_0 because E keeps the trace
    n, low, m, p1, p2, seed = case
    relax = relaxation_channels(NoiseModel(t1=t1, t2=ratio * t1), m, 0.3)
    channel = block_channel(
        tuple(range(low, low + m)),
        random_unitary(2**m, np.random.default_rng(seed)),
        block_depolarizing(m, p1, p2),
        {k: ch.transfer_matrix for k, ch in enumerate(relax)},
    )
    r = channel.transfer_matrix
    assert r.dtype == np.float64 and r.shape == (4**m, 4**m)
    assert np.abs(r[0] - np.eye(4**m)[0]).max() < 1e-14
    strings = np.array([bf.pauli_string(label) for label in pauli_labels(m)])
    kraus = np.array(channel.kraus_ops)
    images = np.einsum("kab,qbc,kdc->qad", kraus, strings, kraus.conj())
    expected = np.einsum("pab,qba->pq", strings, images) / 2**m
    assert np.abs(expected - r).max() < 1e-13


@pytest.mark.parametrize("k", [0, 1])
def test_fused_relaxation_acts_on_its_own_qubit(k):
    # relaxation fused into local qubit k of a block on qubits (1, 2) is the
    # block gate, then the textbook relaxation of qubit 1 + k alone
    rng = np.random.default_rng(7)
    gate = random_unitary(4, rng)
    relax = relaxation(0, 1, 0.4, t1=2.0, t2=1.5)
    channel = block_channel((1, 2), gate, [], {k: relax.transfer_matrix})
    rho = bf.random_density_matrix(3, rng)
    expected = textbook_relaxation(textbook_block(rho, gate, [], (1, 2)), 2.0, 1.5, 0.4, (1 + k,))
    assert np.abs(apply_channel(DensityMatrix(3, rho), channel).matrix - expected).max() < 1e-12


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("seed", range(5))
def test_gate_transfer_matrix_is_orthogonal(m, seed):
    # conjugation by a unitary keeps the inner products Tr(P Q) of the strings,
    # so R R^T = I
    channel = block_channel(tuple(range(m)), random_unitary(2**m, np.random.default_rng(seed)), [])
    r = channel.transfer_matrix
    assert np.abs(r @ r.T - np.eye(4**m)).max() < 1e-13


@pytest.mark.parametrize("m, targets", [(1, (0,)), (2, (0,)), (2, (1,)), (2, (0, 1))])
@pytest.mark.parametrize("p", [0.0, 0.013, 0.5, 1.0])
def test_gate_depolarizing_transfer_matrix_is_diagonal(m, targets, p):
    # strings that are I on every target keep weight 1, all others 1 - p
    r = block_channel(tuple(range(1, 1 + m)), np.eye(2**m), [(p, targets)]).transfer_matrix
    expected = [1.0 if all(label[k] == "I" for k in targets) else 1.0 - p
                for label in pauli_labels(m)]
    assert np.array_equal(r, np.diag(expected))


@pytest.mark.parametrize("t1, t2", [(3.0, None), (None, 2.0), (3.0, 2.0), (3.0, 6.0), (40.0, 0.5)])
def test_relaxation_transfer_matrix_is_the_closed_form(t1, t2):
    # on (I, X, Y, Z): E(I) = I + g Z, E(Z) = (1 - g) Z, E(X) = c X, E(Y) = c Y,
    # with g = 1 - exp(-t / t1) and the coherence envelope c = exp(-t / t2)
    # (exp(-t / (2 t1)) without a t2)
    duration = 0.7
    g = 0.0 if t1 is None else 1.0 - np.exp(-duration / t1)
    c = np.exp(-duration / t2) if t2 is not None else np.exp(-duration / (2 * t1))
    expected = np.array([[1, 0, 0, 0], [0, c, 0, 0], [0, 0, c, 0], [g, 0, 0, 1 - g]])
    r = relaxation(1, 3, duration, t1=t1, t2=t2).transfer_matrix
    assert np.abs(r - expected).max() < 1e-15
    assert not r.flags.writeable


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
