"""Correctness checks for `lgsim scan` outputs.

Nothing here imports lgsim. The exact workloads are compared against dense
references built from scipy's expm and explicit Kraus sums; the sampled
workload is compared against the exact values within five bootstrap sigmas.
Exact outputs must agree to 1e-12 plus the rounding of the CSV's
12 significant digits.
"""

import csv
import importlib.util
import math
import random
from pathlib import Path

import numpy as np
from scipy.linalg import expm

EXACT_TOL = 1e-12
CSV_REL_ROUNDING = 5e-12  # half a unit in the 12th significant digit
SAMPLED_SIGMAS = 5.0
EXACT_MARGIN = 1e-9  # the program's violation threshold above 1 for exact data
CHAIN_CHECKED_POINTS = 2
REGION_CHECKED_ROWS = 75

I2 = np.eye(2, dtype=complex)
PAULIS = (
    I2,
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
X, Z = PAULIS[1], PAULIS[3]


def load_bruteforce(root: Path):
    """The repository's brute-force test oracle (expm propagators and a
    literal branch double sum)."""
    path = root / "tests" / "bruteforce.py"
    spec = importlib.util.spec_from_file_location("lgsim_bench_bruteforce", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# literal noisy Trotter chain


def _op_on(ops: dict, n: int) -> np.ndarray:
    """Kronecker product with ops[q] on qubit q; qubit 0 is the least
    significant bit."""
    out = np.array([[1.0 + 0j]])
    for q in range(n - 1, -1, -1):
        out = np.kron(out, ops.get(q, I2))
    return out


def _depolarizing_kraus(p: float, qubits: tuple, n: int) -> np.ndarray:
    """Stacked full-register Kraus operators of uniform depolarizing."""
    m = len(qubits)
    count = 4**m
    ops = []
    for idx in range(count):
        labels = [(idx >> (2 * k)) & 3 for k in range(m)]
        weight = 1.0 - p * (count - 1) / count if idx == 0 else p / count
        ops.append(math.sqrt(weight) * _op_on({q: PAULIS[a] for q, a in zip(qubits, labels)}, n))
    return np.array(ops)


def _kraus_sum(rho: np.ndarray, kraus: np.ndarray) -> np.ndarray:
    return (kraus @ rho @ kraus.conj().transpose(0, 2, 1)).sum(axis=0)


class NoisyChain:
    """First-order Trotter steps of -J sum Z_i Z_{i+1} - sum g_q X_q: the odd
    bonds with every field term, their gate noise, then the even bonds and
    theirs."""

    def __init__(self, j, gammas, p1, p2):
        n = self.n = len(gammas)
        bonds = [(i, i + 1) for i in range(n - 1)]
        self.h_odd = sum(-j * _op_on({a: Z, b: Z}, n) for a, b in bonds if a % 2 == 1)
        self.h_odd = self.h_odd + sum(-g * _op_on({q: X}, n) for q, g in enumerate(gammas))
        self.h_even = sum(-j * _op_on({a: Z, b: Z}, n) for a, b in bonds if a % 2 == 0)
        self.odd_noise = [_depolarizing_kraus(p2, b, n) for b in bonds if b[0] % 2 == 1]
        self.odd_noise += [_depolarizing_kraus(p1, (q,), n) for q in range(n)]
        self.even_noise = [_depolarizing_kraus(p2, b, n) for b in bonds if b[0] % 2 == 0]
        dim = 2**n
        ghz = np.zeros(dim, dtype=complex)
        ghz[0] = ghz[-1] = 1 / math.sqrt(2)
        self.rho0 = np.outer(ghz, ghz.conj())
        idx = np.arange(dim)
        self.first = [(+1, np.diag((idx & 1 == 0).astype(complex))),
                      (-1, np.diag((idx & 1 == 1).astype(complex)))]
        self.second = _op_on({n - 1: Z}, n)

    def _evolve(self, rho, u_odd, u_even, steps):
        for _ in range(steps):
            rho = u_odd @ rho @ u_odd.conj().T
            for kraus in self.odd_noise:
                rho = _kraus_sum(rho, kraus)
            rho = u_even @ rho @ u_even.conj().T
            for kraus in self.even_noise:
                rho = _kraus_sum(rho, kraus)
        return rho

    def triple(self, tau: float, k: int) -> np.ndarray:
        """(T3, T3', T3_perm) with k Trotter steps per tau."""
        dt = tau / k
        u_odd = expm(-1j * self.h_odd * dt)
        u_even = expm(-1j * self.h_even * dt)

        def correlator(steps_i, steps_j):
            rho_i = self._evolve(self.rho0, u_odd, u_even, steps_i)
            total = 0.0
            for q, proj in self.first:
                rho_j = self._evolve(proj @ rho_i @ proj, u_odd, u_even, steps_j)
                total += q * np.trace(self.second @ rho_j).real
            return total

        c12, c23, c13 = correlator(0, k), correlator(k, k), correlator(0, 2 * k)
        return np.array([c12 + c23 - c13, -c12 - c23 - c13, -c12 + c23 + c13])


# ---------------------------------------------------------------------------
# expected outputs per workload


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class Expected:
    """Reference rows for one workload config.

    ``rows`` maps a row index to (grid values, three combination values);
    only those rows are compared. ``sampled`` switches to the five-sigma
    test against the per-row error column.
    """

    def __init__(self, prefix, grid_columns, n_rows, rows, sampled=False):
        self.prefix = prefix
        self.grid_columns = grid_columns
        self.n_rows = n_rows
        self.rows = rows
        self.sampled = sampled

    def check(self, csv_path: Path) -> str | None:
        """None when the CSV matches, else the first mismatch found."""
        try:
            header, body = _read_csv(csv_path)
        except OSError as err:
            return f"cannot read {csv_path.name}: {err}"
        names = [self.prefix, f"{self.prefix}_prime", f"{self.prefix}_perm"]
        want = self.grid_columns + names + [f"err_{c}" for c in names]
        want += [f"violated_{c}" for c in names]
        if header != want:
            return f"header {header} != {want}"
        if len(body) != self.n_rows:
            return f"{len(body)} rows, expected {self.n_rows}"
        g = len(self.grid_columns)
        for index, (grid, ref) in self.rows.items():
            if len(body[index]) != len(want):
                return f"row {index} has {len(body[index])} cells, expected {len(want)}"
            try:
                cells = [float(x) for x in body[index][: g + 6]]
                flags = body[index][g + 6 :]
            except ValueError as err:
                return f"row {index}: {err}"
            for got, exp in zip(cells[:g], grid):
                if abs(got - exp) > EXACT_TOL + CSV_REL_ROUNDING * abs(exp):
                    return f"row {index}: grid value {got} != {exp}"
            values, sigma = cells[g : g + 3], cells[g + 3]
            if not (math.isfinite(sigma) and sigma >= 0.0):
                return f"row {index}: error column reads {sigma}"
            for name, got, exp, flag in zip(names, values, ref, flags):
                if not math.isfinite(got):
                    return f"row {index}: {name} = {got}"
                if self.sampled:
                    if abs(got - exp) > SAMPLED_SIGMAS * sigma:
                        return (f"row {index}: {name} = {got} is more than "
                                f"{SAMPLED_SIGMAS} sigma ({sigma}) from {exp}")
                    threshold, decided = 1.0 + 2.0 * sigma, got
                else:
                    if abs(got - exp) > EXACT_TOL + CSV_REL_ROUNDING * abs(exp):
                        return f"row {index}: {name} = {got}, reference {exp}"
                    threshold, decided = 1.0 + EXACT_MARGIN, exp
                if abs(decided - threshold) > 1e-10:
                    if flag != ("true" if decided > threshold else "false"):
                        return f"row {index}: violated_{name} = {flag} for value {got}"
        return None


def expected_outputs(workload: str, config: dict, seed: int, root: Path) -> Expected:
    p = config["parameters"]
    n_points = config["grid"]["n_points"]
    if workload == "chain_noisy":
        taus = np.linspace(0.0, config["grid"]["tau_max"], n_points)
        chain = NoisyChain(
            p["j"], p["gammas"],
            config["noise"]["gate_depolarizing_1q"], config["noise"]["gate_depolarizing_2q"],
        )
        picks = random.Random(f"check:{seed}").sample(range(1, n_points), CHAIN_CHECKED_POINTS)
        rows = {i: ((taus[i],), chain.triple(taus[i], p["k"])) for i in sorted(picks)}
        return Expected("T3", ["tau"], n_points, rows)

    bf = load_bruteforce(root)
    if workload == "region_exact":
        n = p["n_qubits"]
        taus = np.linspace(0.0, config["grid"]["tau_max"], n_points)
        rho0 = bf.ghz_rho(n)
        first, second = bf.z_pair(0, n), bf.z_pair(n - 1, n)
        ratios = p["ratios"]
        picks = random.Random(f"check:{seed}").sample(
            range(len(ratios) * n_points), REGION_CHECKED_ROWS
        )
        rows = {}
        for row in sorted(picks):
            ratio, tau = ratios[row // n_points], taus[row % n_points]
            gammas = [1.0] * (n - 1) + [ratio]
            terms = [(g / 2.0, "".join("X" if k == q else "I" for k in range(n)))
                     for q, g in enumerate(gammas)]
            h = bf.hamiltonian(n, terms)
            rows[row] = ((ratio, tau), bf.k3_triple(rho0, h, tau, first, second))
        return Expected("T3", ["ratio", "tau"], len(ratios) * n_points, rows)

    if workload == "sampled_mitigated":
        g1, g2 = p["gamma1"], p["gamma2"]
        taus = np.linspace(0.0, 2.0 * math.pi / g1, n_points)
        h = bf.hamiltonian(2, [(g1 / 2.0, "XI"), (g2 / 2.0, "IX")])
        first = bf.bitwise_parity_branches([0, 1], 2)
        second = bf.parity_pair([0, 1], 2)
        rho0 = bf.bell_rho()
        rows = {i: ((tau,), bf.k3_triple(rho0, h, tau, first, second))
                for i, tau in enumerate(taus)}
        return Expected("K3", ["tau"], n_points, rows, sampled=True)

    raise KeyError(workload)
