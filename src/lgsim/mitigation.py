"""Readout-error mitigation: confusion-matrix calibration and inversion.

``ConfusionMatrix.on_bits`` is the one readout model: the column-stochastic
map on m measured bits, entry (r, s) = P(read r | true s), which is the kron
of m copies of a 1-bit matrix (independent per-bit flips) or an m-bit
matrix as given. The sampled engine pushes its exact law through it,
calibration draws every prepared basis state's reads (or each bit's, in
tensor mode) from its columns, and correlator mitigation lumps it to a 2x2
confusion of the recorded sign, which exists only when all patterns of one
sign are misread alike. Mitigation solves M x = y for the observed
frequency vector y; plain inversion is tried first, and when it produces
clearly negative quasi-probabilities (an entry below -0.01) an exact
active-set fit of min ||M x - y||^2 over the probability simplex
(Lawson-Hanson NNLS with a sum row, in numpy) takes over. One kernel,
``_mitigate_rows``, serves a single distribution and the bootstrap of a
whole scan (every resample of every drawn ``CountsVector``): the rows are
inverted in one stacked solve, and the rows that went negative get the fit
together, in lockstep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import reduce
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (
    CalibrationTooLarge,
    InvalidNoiseParameter,
    MitigationFailed,
)
from .observables import (
    METHOD_SAMPLED_MITIGATED,
    CorrelatorEstimate,
    CountsVector,
    DichotomicObservable,
    _integer,
    _readout_on,
    _to_signs,
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
    # the maps of on_bits, by bit count, built once per matrix
    _maps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        single = cls(1, [[1 - flip_prob, flip_prob], [flip_prob, 1 - flip_prob]])
        return cls(num_bits, single.on_bits(num_bits))

    @classmethod
    def tensor(cls, factors: Sequence["ConfusionMatrix"]) -> "ConfusionMatrix":
        """Kronecker product; the first factor owns the most significant bits."""
        return cls(
            sum(f.num_bits for f in factors),
            reduce(np.kron, [f.matrix for f in factors], np.eye(1)),
        )

    def on_bits(self, bits: int) -> np.ndarray:
        """Column-stochastic map from the true to the read pattern of
        ``bits`` measured bits, entry (r, s) = P(read r | true s).

        An m-bit matrix serves an m-bit readout as given. A 1-bit matrix
        flips every bit independently, so its map is the Kronecker product of
        ``bits`` copies (the tensored model of Bravyi et al.,
        arXiv:2006.14044). Any other size cannot describe the readout. Each
        map is built once and cached, so it is read-only.
        """
        if self.num_bits == bits:
            return self.matrix
        if self.num_bits == 1 and bits > 1:
            if bits not in self._maps:
                kron = reduce(np.kron, [self.matrix] * bits)
                kron.setflags(write=False)
                self._maps[bits] = kron
            return self._maps[bits]
        raise InvalidNoiseParameter(
            f"readout confusion on {self.num_bits} bits cannot serve a "
            f"{bits}-bit measurement"
        )

    def condition_number(self) -> float:
        return float(np.linalg.cond(self.matrix))

    def to_json(self) -> str:
        return json.dumps({"num_bits": self.num_bits, "matrix": self.matrix.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "ConfusionMatrix":
        data = json.loads(text)
        num_bits = _integer(data["num_bits"], "matrix 'num_bits'")
        return cls(num_bits, np.array(data["matrix"], dtype=float))


def _simulate_readouts(
    readout: np.ndarray, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Read frequencies of every prepared basis state, one column each:
    ``shots`` reads per state drawn from the normalised column of the
    readout map by one multinomial."""
    columns = readout / readout.sum(axis=0)
    return rng.multinomial(shots, columns.T).T / shots


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
    bits = 1 if mode == "tensor" else num_bits
    readout = np.eye(2**bits) if confusion is None else confusion.on_bits(bits)
    rng = np.random.default_rng(seed)
    if mode == "tensor":
        factors = [
            ConfusionMatrix(1, _simulate_readouts(readout, shots_per_state, rng))
            for _ in range(num_bits)
        ]
        # highest bit first so entry (r, s) indexes whole patterns
        return ConfusionMatrix.tensor(factors[::-1])
    return ConfusionMatrix(num_bits, _simulate_readouts(readout, shots_per_state, rng))


def _sign_confusion(obs: DichotomicObservable, readout: ConfusionMatrix) -> np.ndarray:
    """2x2 confusion of the recorded sign of ``obs`` (+1 first).

    The readout map on the measured bits is lumped to signs by the parity
    coarse-graining of the sampled law. The lumped map is a sign confusion
    only when every true pattern of one sign is read as each sign with the
    same probability, as under symmetric per-bit flips, where the sign flips
    with probability (1 - (1 - 2p)^m) / 2; otherwise mitigating the recorded
    signs cannot undo the readout.
    """
    to_signs = _to_signs(len(obs.qubits))
    lumped = to_signs.T @ _readout_on(obs, readout)
    columns = [lumped[:, to_signs[:, s] == 1] for s in (0, 1)]
    if any(np.abs(c - c[:, :1]).max() > COLUMN_TOL for c in columns):
        raise InvalidNoiseParameter(
            f"noise.readout_confusion gives {obs.label} no sign confusion: patterns "
            f"of one sign are misread with different probabilities"
        )
    return np.column_stack([c[:, 0] for c in columns])


def _constrained_fit(matrix: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Exact minimisers of ||M x - y||^2 with x >= 0 and sum(x) = 1, one per
    row of a ``(k, 2^m)`` block of targets y (a 1-D target gives a 1-D x).

    Lawson and Hanson's NNLS with the sum row as an equality constraint, run
    on all rows in lockstep from the uniform point with every index passive.
    On a passive set P, z is the uniform point u on P plus the minimum-norm
    steps along e_k - e_r (r the first index of P) that fit M (e_k - e_r) to
    y - M u; ``pinv`` with lstsq's cutoff keeps cond(M) and the fair-coin
    matrix at u. If z leaves the simplex, x steps towards it until an entry
    hits zero and drops it; else x = z, and the index of the most negative
    multiplier (gradient M^T (M x - y) less its mean on P) is freed, until
    none is below -FIT_KKT_TOL. Each step solves every unfinished row at
    once, summing along each row's own outcomes: no row depends on another.
    """
    block = np.atleast_2d(targets)
    dim = block.shape[1]
    x, passive = np.full(block.shape, 1.0 / dim), np.ones(block.shape, dtype=bool)
    live = np.arange(len(block))
    for _ in range(FIT_MAX_SOLVES_PER_OUTCOME * dim):
        at, kept, y, current = np.arange(live.size), passive[live], block[live], x[live]
        ref = kept.argmax(axis=1)
        free = kept & (np.arange(dim) != ref[:, None])
        uniform = kept / kept.sum(axis=1, keepdims=True)
        columns = np.where(free[:, None, :], matrix - matrix[:, ref].T[:, :, None], 0.0)
        gap = y - (matrix * uniform[:, None, :]).sum(axis=2)
        fitted = (np.linalg.pinv(columns, dim * np.finfo(float).eps) * gap[:, None, :]).sum(axis=2)
        steps = np.where(free, fitted, 0.0)
        z = uniform + steps
        z[at, ref] -= steps.sum(axis=1)
        inside = np.where(kept, z, np.inf).min(axis=1) > 0.0
        grad = (matrix.T * ((matrix * z[:, None, :]).sum(axis=2) - y)[:, None, :]).sum(axis=2)
        multipliers = np.where(kept, np.inf, grad - (grad * uniform).sum(axis=1, keepdims=True))
        j = multipliers.argmin(axis=1)
        done = inside & (multipliers[at, j] >= -FIT_KKT_TOL)
        blocked = kept & (z <= 0.0)
        ratios = np.where(blocked, current, np.inf) / np.where(blocked, current - z, 1.0)
        first = ratios.argmin(axis=1)
        ratio = np.where(inside, 0.0, ratios[at, first])[:, None]
        x[live] = np.where(inside[:, None], z, current + ratio * (z - current))
        x[live[~inside], first[~inside]] = 0.0
        passive[live] = kept & (x[live] > 0.0)
        passive[live[inside & ~done], j[inside & ~done]] = True
        live = live[~done]
        if not live.size:
            return x if np.ndim(targets) > 1 else x[0]
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
        used_fit = (x < NEGATIVITY_THRESHOLD).any(axis=1)
    except np.linalg.LinAlgError:
        x = np.empty_like(targets)
        used_fit = np.ones(len(targets), dtype=bool)
    if used_fit.any():
        x[used_fit] = _constrained_fit(matrix, targets[used_fit])
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
    """Recover the noiseless distribution from observed frequencies: plain
    inversion when it yields no entry below -0.01 (small negatives clipped),
    else the least-squares fit over the probability simplex. The result
    always sums to 1."""
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
    tables: Sequence[CountsVector], m_pair: ConfusionMatrix
) -> tuple[CorrelatorEstimate, ...]:
    """Mitigate 2-bit counts of recorded sign pairs and rebuild their
    correlators, one per table, in order. The pair matrix indexes outcomes
    as 2*bit(Q_i) + bit(Q_j), the order of the counts. Each point estimate goes
    through ``mitigate``. Each error bar comes from a bootstrap over
    multinomial resamples of the table's raw counts, drawn from its own
    seed; the resamples of all tables go through one ``_mitigate_rows``."""
    if m_pair.num_bits != 2:
        raise MitigationFailed("correlator mitigation needs a 2-bit confusion matrix")
    tables = tuple(tables)
    if not tables:
        return ()
    signs = np.array([1.0, -1.0, -1.0, 1.0])  # q_i * q_j for ++, +-, -+, --
    points, resamples = [], []
    for counts in tables:
        raw_probs = np.array(counts.counts, dtype=float) / counts.total
        points.append(mitigate(raw_probs, m_pair, return_method=True))
        rng = np.random.default_rng(np.random.SeedSequence(counts.seed or 0, spawn_key=(1,)))
        draws = rng.multinomial(counts.total, raw_probs, size=BOOTSTRAP_RESAMPLES)
        resamples.append(draws / counts.total)  # every row sums to the total
    rows, _ = _mitigate_rows(np.concatenate(resamples), m_pair.matrix)
    # an elementwise product and row sum reproduces the per-row ``signs @ row``
    # bit for bit; a matmul or einsum does not
    values = (rows * signs).sum(axis=1).reshape(len(tables), BOOTSTRAP_RESAMPLES)
    std_errors = values.std(axis=1, ddof=1)
    return tuple(
        CorrelatorEstimate(
            float(signs @ x), float(s), counts.total, METHOD_SAMPLED_MITIGATED, note=method
        )
        for (x, method), s, counts in zip(points, std_errors, tables)
    )
