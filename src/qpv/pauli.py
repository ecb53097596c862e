"""Pauli algebra and Clifford hierarchy membership tests.

A Pauli operator on n qubits is stored symplectically: bit vectors x, z and
a phase exponent p mod 4, denoting i^p * prod_j X_j^{x_j} Z_j^{z_j} (X to
the left of Z on each qubit). Its action on basis states is then integer
arithmetic (`_build_matrix`).

Registers of at most _CACHED_QUBITS qubits share one interned operator per
(x, z, phase), and one read-only matrix per operator. `try_as_pauli` reads
its candidate from the few entries that name it, takes the interned
operator, and confirms it against every entry of the matrix; the teleport
chain's per-hop corrections come from the same table.

Hierarchy levels follow the recursive definition: C_1 is the Pauli group and
U is in C_{k+1} iff U sigma U^dag is in C_k for every Pauli sigma. For k >= 3
the levels are not groups, so membership is tested by conjugating all 4^n
phaseless Paulis and recursing; checking generators only would be unsound.
Intended for n <= 2 and k <= 4, which covers every protocol in the package.

The 24-element single-qubit Clifford group modulo phase is built once at
import, by breadth-first closure of {H, S}, with integer tables for its
products, inverses and Pauli elements, so code that only ever holds a
single-qubit Clifford can track it by index instead of by matrix.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .gates import H, I2, S

ATOL = 1e-8


def _build_matrix(x_bits, z_bits, phase: int) -> np.ndarray:
    # X^x Z^z |c> = (-1)^{c.z} |c xor x>: one signed entry per column c
    x = z = 0
    for xb, zb in zip(x_bits, z_bits):
        x, z = 2 * x + xb, 2 * z + zb
    d = 2 ** len(x_bits)
    m = np.zeros((d, d), dtype=np.complex128)
    for c in range(d):
        m[c ^ x, c] = 1j**phase * (-1) ** bin(c & z).count("1")
    return m


# the widest register whose matrices are cached: 16 + 64 + 256 operators of
# at most 1 KB each, so the cache stays bounded however many trials run
_CACHED_QUBITS = 3


@functools.cache
def _cached_matrix(x_bits, z_bits, phase: int) -> np.ndarray:
    m = _build_matrix(x_bits, z_bits, phase)
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class PauliOperator:
    """i^phase * prod_j X_j^{x_j} Z_j^{z_j} on num_qubits qubits."""

    x_bits: tuple[int, ...]
    z_bits: tuple[int, ...]
    phase: int = 0

    def __post_init__(self):
        if len(self.x_bits) != len(self.z_bits):
            raise ValidationError("x_bits and z_bits must have equal length")
        object.__setattr__(self, "x_bits", tuple(int(b) & 1 for b in self.x_bits))
        object.__setattr__(self, "z_bits", tuple(int(b) & 1 for b in self.z_bits))
        object.__setattr__(self, "phase", int(self.phase) % 4)

    @property
    def num_qubits(self) -> int:
        return len(self.x_bits)

    def matrix(self) -> np.ndarray:
        """The 2^n x 2^n matrix. Registers of at most _CACHED_QUBITS qubits
        share one read-only array per operator; wider ones get a new array."""
        if self.num_qubits <= _CACHED_QUBITS:
            return _cached_matrix(self.x_bits, self.z_bits, self.phase)
        return _build_matrix(self.x_bits, self.z_bits, self.phase)


def single_qubit_pauli(name: str, qubit: int, n: int) -> PauliOperator:
    """Named Pauli embedded at one position of an n-qubit identity string."""
    x = [0] * n
    z = [0] * n
    if name == "X":
        x[qubit] = 1
    elif name == "Z":
        z[qubit] = 1
    elif name == "Y":
        x[qubit] = 1
        z[qubit] = 1
        return PauliOperator(x, z, 1)
    elif name != "I":
        raise ValidationError(f"unknown Pauli name {name!r}")
    return PauliOperator(x, z, 0)


def bits_of_index(index: int, n: int) -> tuple[int, ...]:
    return tuple((index >> (n - 1 - j)) & 1 for j in range(n))


@functools.cache
def _interned(n: int, x: int, z: int, phase: int) -> PauliOperator:
    return PauliOperator(bits_of_index(x, n), bits_of_index(z, n), phase)


def pauli_from_masks(n: int, x: int, z: int, phase: int = 0) -> PauliOperator:
    """i^phase X^x Z^z on n qubits, the bits of x and z read first qubit
    first. Registers of at most _CACHED_QUBITS qubits share one interned
    operator per (x, z, phase); wider ones get a new operator."""
    if n <= _CACHED_QUBITS:
        return _interned(n, x, z, phase % 4)
    return PauliOperator(bits_of_index(x, n), bits_of_index(z, n), phase)


# i^k for k = 0..3
_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)
_QUARTER_TURN = math.pi / 2


def try_as_pauli(m: np.ndarray, tol: float = ATOL) -> PauliOperator | None:
    """Exact Pauli representation of a matrix, or None if it is not one.

    The largest entry of column 0, at `row`, names the candidate's X bits
    and phase; the entry at (row ^ col, col) for each one-qubit column
    names a Z bit. The candidate is then confirmed against every entry.
    A non-finite entry fails one of these tests, so it gives None.
    """
    m = np.asarray(m, dtype=np.complex128)
    d = m.shape[0]
    if m.ndim != 2 or m.shape[1] != d or d & (d - 1):
        raise ValidationError("matrix must be square with power-of-two dimension")
    n = d.bit_length() - 1

    col0 = m[:, 0].tolist()
    mags = list(map(abs, col0))
    row = mags.index(max(mags))
    c = col0[row]
    if not abs(mags[row] - 1.0) <= tol:
        return None
    k = round(cmath.phase(c) / _QUARTER_TURN) % 4
    unit = _PHASES[k]
    if abs(c - unit) > tol:
        return None

    z = 0
    for j in range(n):
        col = 1 << (n - 1 - j)
        val = m.item(row ^ col, col)
        if abs(val - unit) <= tol:
            z <<= 1
        elif abs(val + unit) <= tol:
            z = (z << 1) | 1
        else:
            return None

    cand = pauli_from_masks(n, row, z, k)
    if not np.abs(m - cand.matrix()).max() <= tol:
        return None
    return cand


def phaseless_paulis(n: int):
    """All 4^n operators X^x Z^z with phase exponent 0, identity first."""
    for x in range(2**n):
        for z in range(2**n):
            yield pauli_from_masks(n, x, z)


def is_clifford(u: np.ndarray, tol: float = ATOL) -> bool:
    """True iff conjugation maps every X_j and Z_j generator to a Pauli."""
    u = np.asarray(u, dtype=np.complex128)
    n = u.shape[0].bit_length() - 1
    ud = u.conj().T
    for j in range(n):
        for name in ("X", "Z"):
            sigma = single_qubit_pauli(name, j, n).matrix()
            if try_as_pauli(u @ sigma @ ud, tol) is None:
                return False
    return True


@dataclass(frozen=True)
class HierarchyLevel:
    """Smallest hierarchy level, or level=None if above k_max."""

    level: int | None
    k_max: int

    def __str__(self) -> str:
        if self.level is None:
            return f"not in C_k for k <= {self.k_max}"
        return f"C_{self.level}"


def _in_level(u: np.ndarray, k: int, tol: float) -> bool:
    if k == 1:
        return try_as_pauli(u, tol) is not None
    n = u.shape[0].bit_length() - 1
    ud = u.conj().T
    for sigma in phaseless_paulis(n):
        conj = u @ sigma.matrix() @ ud
        if not _in_level(conj, k - 1, tol):
            return False
    return True


def hierarchy_level(u: np.ndarray, k_max: int = 4, tol: float = ATOL) -> HierarchyLevel:
    """Smallest k <= k_max with U in C_k, by full recursive conjugation."""
    u = np.asarray(u, dtype=np.complex128)
    d = u.shape[0]
    if u.ndim != 2 or u.shape[1] != d or d & (d - 1):
        raise ValidationError("matrix must be square with power-of-two dimension")
    n = d.bit_length() - 1
    if n > 2:
        raise ValidationError("hierarchy_level supports n <= 2")
    if k_max > 4:
        raise ValidationError("hierarchy_level supports k_max <= 4")
    if not np.all(np.abs(u @ u.conj().T - np.eye(d)) <= 1e-6):
        raise ValidationError("matrix is not unitary")
    for k in range(1, k_max + 1):
        if _in_level(u, k, tol):
            return HierarchyLevel(k, k_max)
    return HierarchyLevel(None, k_max)


def random_clifford(n: int, rng) -> np.ndarray:
    """Random Clifford as a random circuit of 20 n^2 + 10 H, S and CNOT gates.

    The walk's length is even, so it reaches only half the group: 12 of the
    24 classes up to phase at n = 1, and 5,760 of 11,520 at n = 2."""
    if n < 1:
        raise ValidationError("need at least one qubit")
    moves = 20 * n * n + 10
    gen = rng.generator
    u = np.eye(2**n, dtype=np.complex128)
    for _ in range(moves):
        kind = int(gen.integers(0, 3 if n > 1 else 2))
        if kind == 0:
            q = int(gen.integers(0, n))
            u = _embed_1q(H, q, n) @ u
        elif kind == 1:
            q = int(gen.integers(0, n))
            u = _embed_1q(S, q, n) @ u
        else:
            c = int(gen.integers(0, n))
            t = int(gen.integers(0, n - 1))
            if t >= c:
                t += 1
            u = _embed_cnot(c, t, n) @ u
    return u


def _embed_1q(g: np.ndarray, qubit: int, n: int) -> np.ndarray:
    m = np.array([[1.0 + 0j]])
    for j in range(n):
        m = np.kron(m, g if j == qubit else I2)
    return m


def _embed_cnot(control: int, target: int, n: int) -> np.ndarray:
    d = 2**n
    m = np.zeros((d, d), dtype=np.complex128)
    for idx in range(d):
        bits = [(idx >> (n - 1 - j)) & 1 for j in range(n)]
        if bits[control]:
            bits[target] ^= 1
        out = 0
        for b in bits:
            out = (out << 1) | b
        m[out, idx] = 1.0
    return m


def _phase_free_keys(ms: np.ndarray) -> list[bytes]:
    """One key per 2x2 matrix in the stack, equal for matrices equal up to phase.

    Each matrix is scaled so that its first nonzero entry is real and
    positive, then its entries are rounded.
    """
    flat = np.asarray(ms, dtype=np.complex128).reshape(-1, 4)
    pivot = flat[np.arange(len(flat)), np.argmax(np.abs(flat) > ATOL, axis=1)]
    flat = flat * (np.abs(pivot) / pivot)[:, None]
    rounded = np.round(np.concatenate((flat.real, flat.imag), axis=1) * 1e8)
    return [row.tobytes() for row in rounded.astype(np.int64)]


def _clifford_group() -> np.ndarray:
    """Breadth-first closure of {H, S}, one matrix per element modulo phase."""
    elements = [I2]
    seen = set(_phase_free_keys(I2))
    frontier = [I2]
    while frontier:
        grown = []
        for m in frontier:
            products = np.stack([H @ m, S @ m])
            for c, key in zip(products, _phase_free_keys(products)):
                if key not in seen:
                    seen.add(key)
                    elements.append(c)
                    grown.append(c)
        frontier = grown
    return np.stack(elements)


# The 24 single-qubit Cliffords modulo phase; element 0 is the identity.
CLIFFORD_1Q = _clifford_group()
_CLIFFORD_INDEX = {key: k for k, key in enumerate(_phase_free_keys(CLIFFORD_1Q))}


def _clifford_indices(ms: np.ndarray) -> tuple[int | None, ...]:
    return tuple(_CLIFFORD_INDEX.get(key) for key in _phase_free_keys(ms))


def clifford_index(m: np.ndarray) -> int | None:
    """Index of m in CLIFFORD_1Q up to phase, or None if m is not a Clifford."""
    return _clifford_indices(m)[0]


def clifford_conjugation_table(g: np.ndarray) -> tuple[int | None, ...]:
    """Entry k is the index of g C_k g^dag, or None where it leaves the group."""
    g = np.asarray(g, dtype=np.complex128)
    return _clifford_indices(g @ CLIFFORD_1Q @ g.conj().T)


# CLIFFORD_MUL[a][b] is the index of C_a C_b; CLIFFORD_INV[a] that of C_a^dag.
CLIFFORD_MUL = tuple(_clifford_indices(a @ CLIFFORD_1Q) for a in CLIFFORD_1Q)
CLIFFORD_INV = _clifford_indices(CLIFFORD_1Q.conj().transpose(0, 2, 1))
# (x, z) -> index of X^x Z^z, and back: the bits of each Pauli element, None
# for the 20 elements that are not Paulis.
PAULI_CLIFFORD = {
    (x, z): clifford_index(PauliOperator((x,), (z,)).matrix())
    for x, z in itertools.product((0, 1), repeat=2)
}
_XZ_OF_INDEX = {k: xz for xz, k in PAULI_CLIFFORD.items()}
CLIFFORD_XZ = tuple(_XZ_OF_INDEX.get(k) for k in range(len(CLIFFORD_1Q)))
