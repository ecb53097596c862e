"""Dense statevector simulation and the spectral helpers built on it.

Qubit ordering convention, used everywhere in the package: qubit 0 is the
most significant bit of the amplitude index, so |q0 q1 .. q_{n-1}> sits at
index sum_j q_j * 2^(n-1-j). Multi-qubit gates read their targets the same
way: the first listed target is the most significant bit of the gate index.

Two state representations live here. StateVector is the dense form for
registers up to roughly 12 qubits. QubitArray holds a product state as an
(n, 2) table and scales to n in the tens of thousands; the interleaved
product games use it, since their payloads never entangle qubits.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .pauli import PauliOperator, bits_of_index
from .rng import RngStream

ATOL_EXACT = 1e-10


def index_of_bits(bits) -> int:
    out = 0
    for b in bits:
        out = (out << 1) | (int(b) & 1)
    return out


def check_unitary(m: np.ndarray, tol: float = 1e-8, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be square")
    d = m.shape[0]
    if not np.all(np.abs(m.conj().T @ m - np.eye(d)) <= tol):
        raise ValidationError(f"{name} is not unitary within {tol}")
    return m


class StateVector:
    """Normalized pure state on num_qubits qubits."""

    __slots__ = ("amps",)

    def __init__(self, amps, normalize: bool = False):
        a = np.ascontiguousarray(np.asarray(amps, dtype=np.complex128).reshape(-1))
        d = a.shape[0]
        if d < 2 or d & (d - 1):
            raise ValidationError("amplitude count must be a power of two, >= 2")
        if not np.all(np.isfinite(a.view(np.float64))):
            raise ValidationError("amplitudes must be finite")
        norm = float(np.linalg.norm(a))
        if normalize:
            if norm == 0.0:
                raise ValidationError("cannot normalize the zero vector")
            a = a / norm
        elif abs(norm - 1.0) > ATOL_EXACT:
            raise ValidationError(f"state norm {norm!r} is not 1 within {ATOL_EXACT}")
        self.amps = a

    @property
    def num_qubits(self) -> int:
        return self.amps.shape[0].bit_length() - 1

    @classmethod
    def from_bits(cls, bits) -> "StateVector":
        bits = [int(b) & 1 for b in bits]
        if not bits:
            raise ValidationError("need at least one qubit")
        a = np.zeros(2 ** len(bits), dtype=np.complex128)
        a[index_of_bits(bits)] = 1.0
        return cls(a)

    def tensor(self, other: "StateVector") -> "StateVector":
        return StateVector(np.kron(self.amps, other.amps))

    def inner(self, other: "StateVector") -> complex:
        if self.amps.shape != other.amps.shape:
            raise ValidationError("state dimension mismatch")
        return complex(np.vdot(self.amps, other.amps))

    def __repr__(self) -> str:
        return f"StateVector(num_qubits={self.num_qubits})"


class DensityMatrix:
    """Mixed state; Hermitian, unit trace, PSD up to 1e-9."""

    __slots__ = ("mat",)

    def __init__(self, mat, check: bool = True):
        m = np.asarray(mat, dtype=np.complex128)
        d = m.shape[0]
        if m.ndim != 2 or m.shape[1] != d or d < 2 or d & (d - 1):
            raise ValidationError("density matrix must be square with power-of-two dimension")
        if check:
            if not np.all(np.abs(m - m.conj().T) <= ATOL_EXACT):
                raise ValidationError("density matrix is not Hermitian")
            if abs(np.trace(m).real - 1.0) > ATOL_EXACT:
                raise ValidationError("density matrix trace is not 1")
            if float(np.linalg.eigvalsh(m).min()) < -1e-9:
                raise ValidationError("density matrix has a negative eigenvalue")
        self.mat = m

    @property
    def num_qubits(self) -> int:
        return self.mat.shape[0].bit_length() - 1

    @classmethod
    def maximally_mixed(cls, n: int) -> "DensityMatrix":
        d = 2**n
        return cls(np.eye(d, dtype=np.complex128) / d, check=False)

    def __repr__(self) -> str:
        return f"DensityMatrix(num_qubits={self.num_qubits})"


def _check_targets(targets, n: int) -> list[int]:
    out = [int(t) for t in targets]
    if not out:
        raise ValidationError("need at least one target qubit")
    for t in out:
        if t < 0 or t >= n:
            raise ValidationError(f"target {t} out of range for {n} qubits")
    if len(set(out)) != len(out):
        raise ValidationError("repeated target qubit")
    return out


def apply_unitary(state: StateVector, u: np.ndarray, targets) -> StateVector:
    """Apply a 2^k-dimensional unitary to the listed qubits, identity elsewhere.

    When the targets are the whole register in order, this is one
    matrix-vector `dot`: the very product `tensordot` makes in that case,
    with u in the same memory order, so the amplitudes come out bit for bit
    the same without the axis plumbing.
    """
    n = state.num_qubits
    targets = _check_targets(targets, n)
    k = len(targets)
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (2**k, 2**k):
        raise ValidationError(f"gate dimension {u.shape} does not match {k} targets")
    if targets == list(range(n)):
        return StateVector(np.dot(u, state.amps.reshape(-1, 1)).reshape(-1))
    t = state.amps.reshape((2,) * n)
    ut = u.reshape((2,) * (2 * k))
    t = np.tensordot(ut, t, axes=(tuple(range(k, 2 * k)), tuple(targets)))
    t = np.moveaxis(t, tuple(range(k)), tuple(targets))
    return StateVector(t.reshape(-1))


def _draw_outcome(weights: np.ndarray, rng: RngStream) -> int:
    """Index drawn from the Born weights (any positive scale) with one
    rng.random() double: the draw and the index of
    Generator.choice(len(weights), p=weights / weights.sum())."""
    marg = weights / weights.sum()
    cdf = marg.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def measure_register(state: StateVector, rng: RngStream) -> tuple[int, ...]:
    """Outcome bits of measuring every qubit, first qubit first.

    The same draw as measure_computational(state, range(n), rng), which it
    leaves at the same stream position, but no collapsed state is built.
    """
    outcome = _draw_outcome(np.abs(state.amps) ** 2, rng)
    return bits_of_index(outcome, state.num_qubits)


def measure_computational(
    state: StateVector, targets, rng: RngStream, drop: bool = False
) -> tuple[tuple[int, ...], StateVector]:
    """Born-rule measurement of the listed qubits in the computational basis.

    Returns the outcome bits (in target-list order) and the collapsed state.
    With drop=True the measured qubits leave the register; the survivors
    keep their original relative order. A caller that needs only the bits
    of every qubit uses measure_register.
    """
    n = state.num_qubits
    targets = _check_targets(targets, n)
    k = len(targets)
    perm = targets + [a for a in range(n) if a not in targets]
    rows = np.transpose(state.amps.reshape((2,) * n), perm).reshape(2**k, -1)
    outcome = _draw_outcome(np.sum(np.abs(rows) ** 2, axis=1), rng)
    bits = bits_of_index(outcome, k)

    picked = rows[outcome]
    norm = float(np.linalg.norm(picked))
    if drop:
        if k == n:
            raise ValidationError("cannot drop every qubit")
        return bits, StateVector(picked / norm)
    collapsed = np.zeros_like(rows)
    collapsed[outcome] = picked / norm
    t = collapsed.reshape((2,) * n)
    return bits, StateVector(np.transpose(t, np.argsort(perm)).reshape(-1))


def bell_pair() -> StateVector:
    a = np.zeros(4, dtype=np.complex128)
    a[0] = a[3] = 1.0 / np.sqrt(2.0)
    return StateVector(a)


def bell_measurement(
    state: StateVector, q1: int, q2: int, rng: RngStream
) -> tuple[PauliOperator, StateVector]:
    """Bell-basis measurement of (q1, q2); both qubits leave the register.

    The returned single-qubit Pauli is the teleportation correction: when
    (q1, q2) were the sender qubit and the sender half of a Bell pair, the
    receiver half now holds correction * |psi>, so applying the correction
    inverse recovers |psi| exactly.
    """
    if q1 == q2:
        raise ValidationError("Bell measurement needs two distinct qubits")
    from .gates import CNOT, H

    state = apply_unitary(state, CNOT, [q1, q2])
    state = apply_unitary(state, H, [q1])
    (z, x), post = measure_computational(state, [q1, q2], rng, drop=True)
    return PauliOperator((x,), (z,), 0), post


def move_qubit(state: StateVector, src: int, dst: int) -> StateVector:
    """Relocate one qubit within the register, preserving the others' order."""
    n = state.num_qubits
    _check_targets([src], n)
    _check_targets([dst], n)
    if src == dst:
        return state
    t = np.moveaxis(state.amps.reshape((2,) * n), src, dst)
    return StateVector(t.reshape(-1))


def qubit_phase_distances(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """min over phases of the spectral norm ||U - e^{i phi} V|| for each pair
    of 2x2 unitaries in two stacks.

    The distance is 2 sin(w/4), w the width of the smallest circular arc
    containing the eigenphases of W = U^dag V. Those eigenvalues differ by
    sqrt(disc), disc = (w00 - w11)^2 + 4 w01 w10, so their arc is
    w = 2 arcsin(|sqrt(disc)| / 2), with no eigensolver. Unlike
    sqrt(2 - |tr W|), this keeps full precision as the distance goes to 0.
    """
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    if u.shape != v.shape or u.shape[-2:] != (2, 2):
        raise ValidationError("operands must be stacks of 2x2 matrices of equal shape")
    w = np.conj(np.swapaxes(u, -1, -2)) @ v
    disc = (w[..., 0, 0] - w[..., 1, 1]) ** 2 + 4.0 * w[..., 0, 1] * w[..., 1, 0]
    half_gap = np.minimum(np.sqrt(np.abs(disc)) / 2.0, 1.0)
    return 2.0 * np.sin(np.arcsin(half_gap) / 2.0)


def fidelity(pure: StateVector, other) -> float:
    """<psi|rho|psi> against a DensityMatrix, or |<psi|phi>|^2 against a pure state."""
    if isinstance(other, StateVector):
        return float(abs(pure.inner(other)) ** 2)
    mat = other.mat if isinstance(other, DensityMatrix) else np.asarray(other)
    if mat.shape[0] != pure.amps.shape[0]:
        raise ValidationError("state dimension mismatch")
    val = float(np.real(np.vdot(pure.amps, mat @ pure.amps)))
    return min(max(val, 0.0), 1.0)


def haar_random_unitary(dim: int, rng: RngStream) -> np.ndarray:
    """Haar-distributed unitary: QR of a Ginibre matrix with phase-fixed R diagonal."""
    if dim < 1:
        raise ValidationError("dimension must be at least 1")
    g = rng.generator
    z = (g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_from_normals(g: np.ndarray) -> np.ndarray:
    """Haar 2x2 unitaries from standard normals laid out (..., re/im, count, 2, 2).

    QR of each Ginibre matrix with its R diagonal phase-fixed (Mezzadri,
    Notices AMS 54, 592 (2007)); returns shape (..., count, 2, 2). Every
    matrix is computed on its own, so stacking more draws on the leading
    axes leaves each result bit for bit as it is.
    """
    z = (g[..., 0, :, :, :] + 1j * g[..., 1, :, :, :]) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_qubit_batch(count: int, rng: RngStream) -> np.ndarray:
    """Stack of `count` independent Haar 2x2 unitaries, shape (count, 2, 2):
    one normal draw laid out (re/im, count, 2, 2)."""
    if count < 1:
        raise ValidationError("count must be at least 1")
    return haar_from_normals(rng.generator.standard_normal((2, count, 2, 2)))


def haar_random_state(n: int, rng: RngStream) -> StateVector:
    g = rng.generator
    a = g.standard_normal(2**n) + 1j * g.standard_normal(2**n)
    return StateVector(a, normalize=True)


def embed_operator(u: np.ndarray, targets, n: int) -> np.ndarray:
    """Full 2^n matrix acting as u on the listed qubits, identity elsewhere."""
    targets = _check_targets(targets, n)
    k = len(targets)
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (2**k, 2**k):
        raise ValidationError(f"gate dimension {u.shape} does not match {k} targets")
    full = np.kron(u, np.eye(2 ** (n - k), dtype=np.complex128)) if k < n else u
    order = targets + [q for q in range(n) if q not in targets]
    inv = list(np.argsort(order))
    t = full.reshape((2,) * (2 * n))
    t = np.transpose(t, inv + [n + i for i in inv])
    return np.ascontiguousarray(t.reshape(2**n, 2**n))


class QubitArray:
    """Product state of n unentangled qubits as an (n, 2) amplitude table."""

    __slots__ = ("amps",)

    def __init__(self, amps):
        a = np.ascontiguousarray(amps, dtype=np.complex128)
        if a.ndim != 2 or a.shape[1] != 2 or a.shape[0] < 1:
            raise ValidationError("QubitArray expects an (n, 2) array")
        # row norms from the float64 view: np.linalg.norm would first copy
        # the conjugate
        re_im = a.view(np.float64)
        norms = np.sqrt(np.einsum("ij,ij->i", re_im, re_im))
        if not np.all(np.abs(norms - 1.0) <= ATOL_EXACT):
            raise ValidationError("every qubit row must have unit norm")
        self.amps = a

    @property
    def num_qubits(self) -> int:
        return self.amps.shape[0]

    @classmethod
    def from_bits(cls, bits) -> "QubitArray":
        bits = np.asarray(bits, dtype=np.int64) & 1
        a = np.zeros((bits.shape[0], 2), dtype=np.complex128)
        a[np.arange(bits.shape[0]), bits] = 1.0
        return cls(a)

    @classmethod
    def _unit_rows(cls, amps: np.ndarray) -> "QubitArray":
        """An (n, 2) table without the row-norm check: for the image of a
        checked array under unitaries, or for rows gathered from columns of
        unitaries that were checked for unit norm."""
        out = cls.__new__(cls)
        out.amps = np.ascontiguousarray(amps, dtype=np.complex128)
        return out

    def apply_same(self, u: np.ndarray) -> "QubitArray":
        """Apply one 2x2 unitary to every qubit. The rows are re-checked, so
        a u that is not unitary raises ValidationError."""
        return QubitArray(self._apply_same(u).amps)

    def apply_each(self, us: np.ndarray) -> "QubitArray":
        """Apply the i-th 2x2 unitary of a (n, 2, 2) stack to qubit i. The
        rows are re-checked, so a stack that is not unitary raises
        ValidationError."""
        return QubitArray(self._apply_each(us).amps)

    def _apply_same(self, u: np.ndarray) -> "QubitArray":
        """apply_same for a u that is unitary by construction: no re-check."""
        u = np.asarray(u, dtype=np.complex128)
        if u.shape != (2, 2):
            raise ValidationError("expected a 2x2 matrix")
        return QubitArray._unit_rows(self.amps @ u.T)

    def _apply_each(self, us: np.ndarray) -> "QubitArray":
        """apply_each for a stack that is unitary by construction: no re-check."""
        us = np.asarray(us, dtype=np.complex128)
        if us.shape != (self.num_qubits, 2, 2):
            raise ValidationError("expected an (n, 2, 2) stack")
        return QubitArray._unit_rows(np.einsum("qij,qj->qi", us, self.amps))

    def measure_all(self, rng: RngStream) -> np.ndarray:
        """Computational measurement of every qubit, vectorized; returns bits."""
        p1 = np.abs(self.amps[:, 1]) ** 2
        return (rng.random(self.num_qubits) < p1).astype(np.uint8)
