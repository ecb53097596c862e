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
ATOL_EIG = 1e-8


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

    @classmethod
    def zero(cls, n: int) -> "StateVector":
        return cls.from_bits([0] * n)

    def tensor(self, other: "StateVector") -> "StateVector":
        return StateVector(np.kron(self.amps, other.amps))

    def inner(self, other: "StateVector") -> complex:
        if self.amps.shape != other.amps.shape:
            raise ValidationError("state dimension mismatch")
        return complex(np.vdot(self.amps, other.amps))

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amps, self.amps.conj()), check=False)

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
    """Apply a 2^k-dimensional unitary to the listed qubits, identity elsewhere."""
    n = state.num_qubits
    targets = _check_targets(targets, n)
    k = len(targets)
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (2**k, 2**k):
        raise ValidationError(f"gate dimension {u.shape} does not match {k} targets")
    t = state.amps.reshape((2,) * n)
    ut = u.reshape((2,) * (2 * k))
    t = np.tensordot(ut, t, axes=(tuple(range(k, 2 * k)), tuple(targets)))
    t = np.moveaxis(t, tuple(range(k)), tuple(targets))
    return StateVector(t.reshape(-1))


def measure_computational(
    state: StateVector, targets, rng: RngStream, drop: bool = False
) -> tuple[tuple[int, ...], StateVector]:
    """Born-rule measurement of the listed qubits in the computational basis.

    Returns the outcome bits (in target-list order) and the collapsed state.
    With drop=True the measured qubits leave the register; the survivors
    keep their original relative order.
    """
    n = state.num_qubits
    targets = _check_targets(targets, n)
    k = len(targets)
    perm = targets + [a for a in range(n) if a not in targets]
    rows = np.transpose(state.amps.reshape((2,) * n), perm).reshape(2**k, -1)
    marg = np.sum(np.abs(rows) ** 2, axis=1)
    marg = marg / marg.sum()
    # the draw and the index of Generator.choice(2**k, p=marg)
    cdf = marg.cumsum()
    cdf /= cdf[-1]
    outcome = int(cdf.searchsorted(rng.random(), side="right"))
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


def partial_trace_matrix(mat: np.ndarray, keep) -> np.ndarray:
    """Partial trace of any square power-of-two operator; no trace-1 requirement."""
    mat = np.asarray(mat, dtype=np.complex128)
    d = mat.shape[0]
    n = d.bit_length() - 1
    keep = sorted(_check_targets(keep, n))
    t = mat.reshape((2,) * (2 * n))
    m = n
    for ax in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + m)
        m -= 1
    dd = 2**m
    return t.reshape(dd, dd)


def partial_trace(rho, keep) -> DensityMatrix:
    """Trace out every qubit not listed; kept qubits stay in ascending order."""
    mat = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=np.complex128)
    return DensityMatrix(partial_trace_matrix(mat, keep), check=False)


def phase_invariant_distance(u: np.ndarray, v: np.ndarray) -> float:
    """min over phases of the spectral norm ||U - e^{i phi} V||.

    Equals 2 sin(w/4) where w is the width of the smallest circular arc
    containing the eigenphases of U^dag V.
    """
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValidationError("operands must be square matrices of equal dimension")
    ang = np.sort(np.angle(np.linalg.eigvals(u.conj().T @ v)))
    if ang.shape[0] == 1:
        return 0.0
    gaps = np.diff(ang)
    largest = max(float(gaps.max()), float(ang[0] + 2.0 * np.pi - ang[-1]))
    width = 2.0 * np.pi - largest
    return float(2.0 * np.sin(width / 4.0))


def qubit_phase_distances(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """phase_invariant_distance of each pair of 2x2 unitaries in two stacks.

    The eigenvalues of W = U^dag V differ by sqrt(disc), disc = (w00 - w11)^2
    + 4 w01 w10, so their arc is w = 2 arcsin(|sqrt(disc)| / 2), with no
    eigensolver. Unlike sqrt(2 - |tr W|), this keeps full precision as the
    distance goes to 0.
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


def haar_qubit_stack(calls: int, count: int, rng: RngStream) -> np.ndarray:
    """`calls` stacks of `count` Haar 2x2 unitaries, shape (calls, count, 2, 2).

    One normal draw laid out as (call, re/im, count, 2, 2) takes each
    call's real parts, then its imaginary parts, so stack k holds the bits
    of the k-th of `calls` successive haar_qubit_batch(count) draws.
    """
    if calls < 1:
        raise ValidationError("calls must be at least 1")
    if count < 1:
        raise ValidationError("count must be at least 1")
    return haar_from_normals(rng.generator.standard_normal((calls, 2, count, 2, 2)))


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
    """Stack of `count` independent Haar 2x2 unitaries, shape (count, 2, 2)."""
    return haar_qubit_stack(1, count, rng)[0]


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

    def __init__(self, amps, normalize: bool = False):
        a = np.ascontiguousarray(amps, dtype=np.complex128)
        if a.ndim != 2 or a.shape[1] != 2 or a.shape[0] < 1:
            raise ValidationError("QubitArray expects an (n, 2) array")
        # row norms from the float64 view: np.linalg.norm would first copy
        # the conjugate
        re_im = a.view(np.float64)
        norms = np.sqrt(np.einsum("ij,ij->i", re_im, re_im))
        if normalize:
            if np.any(norms == 0.0):
                raise ValidationError("cannot normalize a zero row")
            if not np.all(np.isfinite(norms)):
                raise ValidationError("cannot normalize a row that is not finite")
            a = a / norms[:, None]
        elif not np.all(np.abs(norms - 1.0) <= ATOL_EXACT):
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

    def qubit(self, i: int) -> StateVector:
        return StateVector(self.amps[i])

    def measure_all(self, rng: RngStream) -> np.ndarray:
        """Computational measurement of every qubit, vectorized; returns bits."""
        p1 = np.abs(self.amps[:, 1]) ** 2
        return (rng.random(self.num_qubits) < p1).astype(np.uint8)
