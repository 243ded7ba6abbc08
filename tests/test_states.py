import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lgsim import (
    DensityMatrix,
    InvalidPreparation,
    InvalidState,
    PureState,
    TooManyQubits,
    prepare_state,
)
from lgsim.core.states import PSD_TOL


def test_zero_state_is_computational_ground():
    state = prepare_state("zero", 1)
    assert np.allclose(state.amplitudes, [1, 0])


def test_plus_state_single_qubit():
    state = prepare_state("plus", 1)
    assert np.allclose(state.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_bell_state_amplitudes():
    state = prepare_state("bell", 2)
    assert np.allclose(state.amplitudes, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])


def test_ghz_five_qubits_supported_on_extremal_indices():
    state = prepare_state("ghz", 5)
    expected = np.zeros(32)
    expected[0] = expected[31] = 1 / np.sqrt(2)
    assert np.allclose(state.amplitudes, expected)


@pytest.mark.parametrize("name,n", [("bell", 1), ("bell", 3), ("ghz", 1)])
def test_mismatched_preparation_raises(name, n):
    with pytest.raises(InvalidPreparation):
        prepare_state(name, n)


def test_unknown_state_name_raises():
    with pytest.raises(InvalidPreparation):
        prepare_state("w", 3)


def test_register_cap():
    with pytest.raises(TooManyQubits):
        prepare_state("zero", 13)


def test_pure_state_norm_validation():
    with pytest.raises(InvalidState):
        PureState(1, np.array([1.0, 1.0]))


def test_pure_state_length_validation():
    with pytest.raises(InvalidState):
        PureState(2, np.array([1.0, 0.0]))


def test_density_matrix_from_pure_state_is_valid():
    rho = prepare_state("bell", 2).density_matrix()
    assert rho.num_qubits == 2
    assert abs(np.trace(rho.matrix) - 1) < 1e-12


def test_density_matrix_rejects_non_hermitian():
    m = np.array([[0.5, 0.2], [0.1, 0.5]], dtype=complex)
    with pytest.raises(InvalidState):
        DensityMatrix(1, m)


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(InvalidState):
        DensityMatrix(1, np.diag([0.7, 0.7]).astype(complex))


def test_density_matrix_rejects_negative_eigenvalue():
    m = np.array([[1.2, 0], [0, -0.2]], dtype=complex)
    with pytest.raises(InvalidState):
        DensityMatrix(1, m)


@pytest.mark.parametrize(
    "m",
    [
        [[np.nan, 0], [0, np.nan]],
        [[np.inf, 0], [0, 1]],
        [[0.5, np.inf], [np.inf, 0.5]],
    ],
)
@pytest.mark.filterwarnings("error")
def test_density_matrix_rejects_non_finite_entries(m):
    with pytest.raises(InvalidState, match="non-finite"):
        DensityMatrix(1, m)


def test_density_matrix_accepts_tiny_psd_defect():
    m = np.array([[1.0 + 5e-10, 0], [0, -5e-10]], dtype=complex)
    m = m / np.trace(m)
    DensityMatrix(1, m)


def test_density_matrix_rejects_small_psd_defect():
    m = np.array([[1.0 + 2e-9, 0], [0, -2e-9]], dtype=complex)
    with pytest.raises(InvalidState, match="negative eigenvalue -2"):
        DensityMatrix(1, m)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6),
    st.floats(-12.0, -6.0),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_psd_verdict_matches_eigvalsh(n, log_offset, below, seed):
    # unit-trace Hermitian matrices whose smallest eigenvalue lies 1e-12 to
    # 1e-6 on either side of -PSD_TOL
    rng = np.random.default_rng(seed)
    dim = 2**n
    v, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    w = rng.uniform(0.0, 1.0, dim)
    w[0] = -PSD_TOL + (-1.0 if below else 1.0) * 10.0**log_offset
    w[1:] *= (1.0 - w[0]) / w[1:].sum()
    m = (v * w) @ v.conj().T
    m = 0.5 * (m + m.conj().T)
    min_eig = np.linalg.eigvalsh(m)[0]
    assume(abs(min_eig + PSD_TOL) >= 1e-12)
    try:
        DensityMatrix(n, m)
        accepted = True
    except InvalidState as err:
        assert "negative eigenvalue" in str(err)
        accepted = False
    assert accepted == (min_eig >= -PSD_TOL)


def test_state_arrays_are_read_only():
    state = prepare_state("zero", 1)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0
