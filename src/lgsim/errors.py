"""Exception types shared across the package."""


class LgsimError(Exception):
    """Base class for all lgsim errors."""


class TooManyQubits(LgsimError, ValueError):
    """Register exceeds the dense-simulation cap (12 qubits)."""


class InvalidState(LgsimError, ValueError):
    """State vector or density matrix violates its invariants."""


class InvalidPreparation(LgsimError, ValueError):
    """Named state preparation incompatible with the requested register."""


class InvalidHamiltonian(LgsimError, ValueError):
    """Malformed Pauli-sum Hamiltonian (bad strings, non-finite coefficients)."""


class InvalidTrotterPlan(LgsimError, ValueError):
    """Trotter partition is not a valid even/odd split of the Hamiltonian."""


class InvalidChannel(LgsimError, ValueError):
    """Channel targets are not distinct qubit indices of the register, or a
    depolarizing channel has other than one or two of them."""


class InvalidNoiseParameter(LgsimError, ValueError):
    """Noise model parameter out of its physical range."""


class InvalidObservable(LgsimError, ValueError):
    """Projector pair is not an orthogonal, complete, idempotent resolution."""


class InvalidGrid(LgsimError, ValueError):
    """Scan grid or schedule times are empty, unordered, or out of range."""


class MixedMethodError(LgsimError, ValueError):
    """Correlators estimated with different methods cannot be combined."""


class InvalidDistribution(LgsimError, ValueError):
    """Joint outcome distribution has negative entries or does not sum to 1."""


class CalibrationTooLarge(LgsimError, ValueError):
    """Full confusion-matrix calibration requested for too many bits."""


class MitigationFailed(LgsimError, RuntimeError):
    """Confusion matrix could not be inverted or fit."""


class ConfigError(LgsimError, ValueError):
    """Scenario configuration file is missing keys or malformed."""
