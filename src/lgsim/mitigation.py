"""Readout-error mitigation: confusion-matrix calibration and inversion.

Calibration prepares every basis state (or each bit separately in tensor
mode), simulates noisy readouts, and tallies a column-stochastic matrix M
with entry (r, s) = P(read r | prepared s). Mitigation solves M x = y for
the observed frequency vector y; plain inversion is tried first, and when
it produces clearly negative quasi-probabilities (an entry below -0.01) an
exact active-set fit of min ||M x - y||^2 over the probability simplex
(Lawson-Hanson NNLS with a sum row, in numpy) takes over. One kernel,
``_mitigate_rows``, serves a single distribution and a whole bootstrap: the
rows are inverted in one stacked solve, and only the rows that went
negative get the fit, one at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (
    CalibrationTooLarge,
    InvalidNoiseParameter,
    MitigationFailed,
)
from .observables import (
    METHOD_SAMPLED_MITIGATED,
    OUTCOME_KEYS,
    CorrelatorEstimate,
    CountsTable,
    _count,
)

if TYPE_CHECKING:
    from .core.channels import NoiseModel

COLUMN_TOL = 1e-9
FULL_CALIBRATION_MAX_BITS = 6
TENSOR_CALIBRATION_MAX_BITS = 12
NEGATIVITY_THRESHOLD = -0.01
BOOTSTRAP_RESAMPLES = 200
FIT_KKT_TOL = 1e-13
FIT_MAX_SOLVES_PER_OUTCOME = 10


@dataclass(frozen=True)
class ConfusionMatrix:
    """Column-stochastic readout map: entry (r, s) = P(read r | prepared s)."""

    num_bits: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float)
        dim = 2**self.num_bits
        if m.shape != (dim, dim):
            raise InvalidNoiseParameter(
                f"confusion matrix shape {m.shape} does not match {self.num_bits} bits"
            )
        if not np.isfinite(m).all():
            raise InvalidNoiseParameter("confusion matrix has non-finite entries")
        if m.min() < -COLUMN_TOL or m.max() > 1.0 + COLUMN_TOL:
            raise InvalidNoiseParameter("confusion matrix entries outside [0, 1]")
        col_sums = m.sum(axis=0)
        if np.abs(col_sums - 1.0).max() > COLUMN_TOL:
            raise InvalidNoiseParameter(
                f"columns must each sum to 1; got sums {col_sums}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls, num_bits: int = 1) -> "ConfusionMatrix":
        return cls(num_bits, np.eye(2**num_bits))

    @classmethod
    def symmetric(cls, flip_prob: float, num_bits: int = 1) -> "ConfusionMatrix":
        """Independent symmetric bit flips with the same probability."""
        if not 0.0 <= flip_prob <= 1.0:
            raise InvalidNoiseParameter(f"flip probability {flip_prob} outside [0, 1]")
        single = np.array([[1 - flip_prob, flip_prob], [flip_prob, 1 - flip_prob]])
        m = np.array([[1.0]])
        for _ in range(num_bits):
            m = np.kron(m, single)
        return cls(num_bits, m)

    @classmethod
    def from_flip_probs(cls, p_read1_given0: float, p_read0_given1: float) -> "ConfusionMatrix":
        return cls(
            1,
            np.array(
                [
                    [1 - p_read1_given0, p_read0_given1],
                    [p_read1_given0, 1 - p_read0_given1],
                ]
            ),
        )

    @classmethod
    def tensor(cls, factors: Sequence["ConfusionMatrix"]) -> "ConfusionMatrix":
        """Kronecker product; the first factor owns the most significant bits."""
        m = np.array([[1.0]])
        bits = 0
        for f in factors:
            m = np.kron(m, f.matrix)
            bits += f.num_bits
        return cls(bits, m)

    def condition_number(self) -> float:
        return float(np.linalg.cond(self.matrix))

    def to_json(self) -> str:
        return json.dumps({"num_bits": self.num_bits, "matrix": self.matrix.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "ConfusionMatrix":
        data = json.loads(text)
        return cls(_count(data["num_bits"], "num_bits"), np.array(data["matrix"], dtype=float))


@dataclass(frozen=True)
class CountsVector:
    """Nonnegative counts per bitstring with their total."""

    num_bits: int
    counts: tuple[int, ...]
    total: int

    def __post_init__(self) -> None:
        counts = tuple(
            _count(c, format(i, f"0{self.num_bits}b")) for i, c in enumerate(self.counts)
        )
        if len(counts) != 2**self.num_bits:
            raise ValueError(f"expected {2**self.num_bits} entries, got {len(counts)}")
        if any(c < 0 for c in counts):
            raise ValueError("negative counts")
        if sum(counts) != self.total:
            raise ValueError(f"counts sum {sum(counts)} != total {self.total}")
        if self.total == 0:
            raise ValueError("empty counts: every entry is 0")
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_dict(cls, num_bits: int, table: dict[str, int]) -> "CountsVector":
        # keys are checked before the 2^num_bits table is allocated
        for key in table:
            if len(key) != num_bits or set(key) - {"0", "1"}:
                raise ValueError(f"counts key {key!r} is not a {num_bits}-bit string")
        counts = [0] * (2**num_bits)
        for key, c in table.items():
            counts[int(key, 2)] = _count(c, key)
        return cls(num_bits, tuple(counts), sum(counts))

    def to_dict(self) -> dict[str, int]:
        return {
            format(i, f"0{self.num_bits}b"): c for i, c in enumerate(self.counts)
        }


def _simulate_readouts(
    prepared: int,
    num_bits: int,
    shots: int,
    confusion: ConfusionMatrix | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """Counts over read patterns for one prepared basis state."""
    dim = 2**num_bits
    if confusion is None:
        out = np.zeros(dim, dtype=np.int64)
        out[prepared] = shots
        return out
    if confusion.num_bits == 1:
        p10 = confusion.matrix[1, 0]
        p01 = confusion.matrix[0, 1]
        reads = np.full(shots, prepared, dtype=np.int64)
        for k in range(num_bits):
            bit = (prepared >> k) & 1
            flip_prob = p10 if bit == 0 else p01
            flips = rng.random(shots) < flip_prob
            reads ^= flips.astype(np.int64) << k
        return np.bincount(reads, minlength=dim)
    if confusion.num_bits == num_bits:
        return rng.multinomial(shots, confusion.matrix[:, prepared])
    raise InvalidNoiseParameter(
        f"confusion matrix on {confusion.num_bits} bits cannot model a "
        f"{num_bits}-bit readout"
    )


def calibrate(
    noise: "NoiseModel",
    num_bits: int,
    shots_per_state: int = 8192,
    seed: int = 0,
    mode: str = "auto",
) -> ConfusionMatrix:
    """Estimate the confusion matrix from simulated basis-state readouts.

    ``full`` prepares all 2^m states (capped at 6 bits); ``tensor``
    calibrates each bit separately and returns the Kronecker product, which
    avoids the exponential number of preparations. ``auto`` selects full up
    to 3 bits and tensor beyond.
    """
    if num_bits < 1:
        raise InvalidNoiseParameter(f"num_bits must be >= 1, got {num_bits}")
    if mode == "auto":
        mode = "full" if num_bits <= 3 else "tensor"
    if mode not in ("full", "tensor"):
        raise InvalidNoiseParameter(f"unknown calibration mode {mode!r}")
    if mode == "full" and num_bits > FULL_CALIBRATION_MAX_BITS:
        raise CalibrationTooLarge(
            f"full calibration of {num_bits} bits needs {2**num_bits} "
            f"preparations; cap is {FULL_CALIBRATION_MAX_BITS} bits"
        )
    if num_bits > TENSOR_CALIBRATION_MAX_BITS:
        raise CalibrationTooLarge(f"cannot materialize a {num_bits}-bit matrix")

    confusion = noise.readout_confusion
    rng = np.random.default_rng(seed)
    if mode == "tensor":
        factors = []
        for _ in range(num_bits):
            cols = []
            for prepared in (0, 1):
                counts = _simulate_readouts(prepared, 1, shots_per_state, confusion, rng)
                cols.append(counts / shots_per_state)
            factors.append(ConfusionMatrix(1, np.column_stack(cols)))
        # highest bit first so entry (r, s) indexes whole patterns
        return ConfusionMatrix.tensor(list(reversed(factors)))

    dim = 2**num_bits
    matrix = np.zeros((dim, dim))
    for prepared in range(dim):
        counts = _simulate_readouts(prepared, num_bits, shots_per_state, confusion, rng)
        matrix[:, prepared] = counts / shots_per_state
    return ConfusionMatrix(num_bits, matrix)


def _constrained_fit(matrix: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Exact minimiser of ||M x - y||^2 with x >= 0 and sum(x) = 1.

    A primal active-set method: Lawson and Hanson's NNLS with the sum row as
    an equality constraint. It starts at the uniform point with every index
    passive (free). On each passive set P the sum row is eliminated: z is
    the uniform point u on P plus steps along e_k - e_0, and ``lstsq`` fits
    M_P (e_k - e_0) to y - M_P u. This keeps cond(M), which the normal
    equations would square, and a singular M gets the minimum-norm step, so
    the fair-coin matrix keeps the uniform point. If z leaves the simplex, x
    steps towards z until its first entry hits zero and that index is
    dropped. Otherwise x = z, and the index whose bound multiplier (the
    gradient M^T (M x - y) less its value on P) is most negative is freed,
    until none is below -FIT_KKT_TOL.
    """
    dim = target.size
    x = np.full(dim, 1.0 / dim)
    passive = np.ones(dim, dtype=bool)
    for _ in range(FIT_MAX_SOLVES_PER_OUTCOME * dim):
        idx = np.flatnonzero(passive)
        cols = matrix[:, idx]
        steps = np.linalg.lstsq(
            cols[:, 1:] - cols[:, :1], target - cols.mean(axis=1), rcond=None
        )[0]
        z = np.full(idx.size, 1.0 / idx.size)
        z[1:] += steps
        z[0] -= steps.sum()
        if z.min() > 0.0:
            x = np.zeros(dim)
            x[idx] = z
            grad = matrix.T @ (matrix @ x - target)
            multipliers = grad - grad[passive].mean()
            multipliers[passive] = np.inf
            j = int(np.argmin(multipliers))
            if multipliers[j] >= -FIT_KKT_TOL:
                return x
            passive[j] = True
            continue
        current = x[idx]
        blocked = np.flatnonzero(z <= 0.0)
        ratios = current[blocked] / (current[blocked] - z[blocked])
        first = int(np.argmin(ratios))
        x[idx] = current + ratios[first] * (z - current)
        x[idx[blocked[first]]] = 0.0
        passive &= x > 0.0
    raise MitigationFailed(
        f"constrained least squares did not converge in "
        f"{FIT_MAX_SOLVES_PER_OUTCOME * dim} active-set steps"
    )


def _mitigate_rows(
    targets: np.ndarray, matrix: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mitigate a ``(k, 2^m)`` block of normalised frequencies, row by row.

    All rows are inverted in one stacked solve; a row with an entry below
    ``NEGATIVITY_THRESHOLD`` (every row, if ``matrix`` is singular) gets the
    constrained fit instead. Rows are then clipped at 0 and renormalised.
    Returns the rows and a mask of those that took the fit.
    """
    if not np.isfinite(targets).all():
        raise MitigationFailed("frequencies have non-finite entries")
    try:
        # the stacked (k, d, 1) form matches a per-row solve bit for bit
        x = np.linalg.solve(matrix, targets[..., None])[..., 0]
        used_fit = x.min(axis=1) < NEGATIVITY_THRESHOLD
    except np.linalg.LinAlgError:
        x = np.empty_like(targets)
        used_fit = np.ones(len(targets), dtype=bool)
    for i in np.flatnonzero(used_fit):
        x[i] = _constrained_fit(matrix, targets[i])
    x = np.clip(x, 0.0, None)
    totals = x.sum(axis=1)
    if (totals <= 0).any():
        raise MitigationFailed("mitigated distribution collapsed to zero")
    return x / totals[:, None], used_fit


def mitigate(
    raw: CountsVector | np.ndarray | Sequence[float],
    m: ConfusionMatrix,
    return_method: bool = False,
):
    """Recover the noiseless distribution from observed frequencies.

    Plain inversion is used when it yields no entry below -0.01; small
    negatives are clipped and the vector renormalized. Otherwise a
    least-squares fit constrained to the probability simplex is solved. The
    result always sums to 1.
    """
    target = np.asarray(raw.counts if isinstance(raw, CountsVector) else raw, dtype=float)
    total = target.sum()
    if total <= 0:
        raise MitigationFailed("empty counts cannot be mitigated")
    if target.shape != (2**m.num_bits,):
        raise MitigationFailed(
            f"counts of length {target.size} do not match a {m.num_bits}-bit matrix"
        )
    rows, used_fit = _mitigate_rows((target / total)[None, :], m.matrix)
    method = "least_squares" if used_fit[0] else "inverse"
    return (rows[0], method) if return_method else rows[0]


def mitigate_correlator(
    counts: CountsTable, m_pair: ConfusionMatrix
) -> CorrelatorEstimate:
    """Mitigate a 4-outcome counts table and rebuild the correlator.

    The pair matrix indexes outcomes as 2*bit(Q_i) + bit(Q_j), matching
    ``CountsTable`` order. The error bar comes from a bootstrap over
    multinomial resamples of the raw counts, mitigated together by the same
    kernel as the point estimate.
    """
    if m_pair.num_bits != 2:
        raise MitigationFailed("correlator mitigation needs a 2-bit confusion matrix")
    signs = np.array([1.0, -1.0, -1.0, 1.0])  # q_i * q_j for ++, +-, -+, --
    raw_probs = counts.probabilities()
    mitigated, method = mitigate(raw_probs, m_pair, return_method=True)
    value = float(signs @ mitigated)

    seed = counts.seed if counts.seed is not None else 0
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    resamples = rng.multinomial(counts.n_shots, raw_probs, size=BOOTSTRAP_RESAMPLES)
    freqs = resamples / resamples.sum(axis=1, keepdims=True)
    rows, _ = _mitigate_rows(freqs, m_pair.matrix)
    # an elementwise product and row sum reproduces the per-row ``signs @ row``
    # bit for bit; a matmul or einsum does not
    values = (rows * signs).sum(axis=1)
    std_error = float(values.std(ddof=1))
    return CorrelatorEstimate(
        value, std_error, counts.n_shots, METHOD_SAMPLED_MITIGATED, note=method
    )
