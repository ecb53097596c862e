"""Reference code the tests check `qpv` against; no `qpv` run calls it.

- partial traces and the pure-state density matrix, for teleportation and
  chain checks;
- the Pauli product and the semi-Clifford predicates behind the hierarchy
  claims of Gottesman & Chuang, Nature 402, 390 (1999);
- the SK word-length profile and its length exponent;
- small builders: the semi-Clifford tree degree, one-gate layouts and the
  diagonal phase gates;
- config and record helpers: canonical config text, a record without its
  wall clock, and whether a channel is noiseless;
- the whole-register `apply_unitary` written through `tensordot`;
- the phase-invariant distance of any two square unitaries, through an
  eigensolver;
- one qubit of a product-state array as a norm-checked state vector;
- the PBT attack's chain run one qubit at a time, the reference for its
  stacked block pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from qpv.attacks.ip import _HOP_FAILED, PbtAttack, _share_factors
from qpv.costs import _require_positive
from qpv.errors import ValidationError
from qpv.experiment import ExperimentConfig, format_value
from qpv.layout import CircuitLayout, LayoutGate
from qpv.pauli import ATOL, PauliOperator, phaseless_paulis, try_as_pauli
from qpv.protocols import Challenge, ChannelModel
from qpv.rng import RngStream
from qpv.sk import EpsilonNet, _check_depth, _spine, su2_distance, to_su2
from qpv.statevec import (
    DensityMatrix,
    QubitArray,
    StateVector,
    _check_targets,
    haar_random_unitary,
)


def zero_state(n: int) -> StateVector:
    return StateVector.from_bits([0] * n)


def density(state: StateVector) -> DensityMatrix:
    return DensityMatrix(np.outer(state.amps, state.amps.conj()), check=False)


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


def pauli_mul(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Product a@b; moving each Z in a past each X in b costs a sign."""
    if a.num_qubits != b.num_qubits:
        raise ValidationError("Pauli size mismatch")
    crossings = sum(az & bx for az, bx in zip(a.z_bits, b.x_bits))
    return PauliOperator(
        tuple(ax ^ bx for ax, bx in zip(a.x_bits, b.x_bits)),
        tuple(az ^ bz for az, bz in zip(a.z_bits, b.z_bits)),
        (a.phase + b.phase + 2 * crossings) % 4,
    )


def _symplectic_product(a: tuple[int, ...], b: tuple[int, ...], n: int) -> int:
    ax, az = a[:n], a[n:]
    bx, bz = b[:n], b[n:]
    return (sum(x & z for x, z in zip(ax, bz)) + sum(x & z for x, z in zip(bx, az))) % 2


def _maximal_isotropic_subgroups(n: int) -> list[list[PauliOperator]]:
    """Maximal abelian subgroups of the phaseless Pauli group, n <= 2.

    Vectors live in F_2^{2n} as (x_bits, z_bits); a maximal isotropic
    subspace has dimension n (3 subgroups at n=1, 15 at n=2).
    """
    vecs = [v for v in itertools.product((0, 1), repeat=2 * n) if any(v)]
    spans: dict[frozenset, list[tuple[int, ...]]] = {}
    if n == 1:
        for v in vecs:
            spans[frozenset({v})] = [v]
    elif n == 2:
        for a, b in itertools.combinations(vecs, 2):
            if _symplectic_product(a, b, n):
                continue
            ab = tuple(x ^ y for x, y in zip(a, b))
            key = frozenset({a, b, ab})
            spans.setdefault(key, [a, b, ab])
    else:
        raise ValidationError("is_semi_clifford supports n <= 2")
    groups = []
    for members in spans.values():
        groups.append([PauliOperator(v[:n], v[n:]) for v in members])
    return groups


def is_semi_clifford(u: np.ndarray, tol: float = ATOL) -> bool:
    """True iff some maximal abelian Pauli subgroup stays Pauli under U . U^dag."""
    u = np.asarray(u, dtype=np.complex128)
    n = u.shape[0].bit_length() - 1
    ud = u.conj().T
    for group in _maximal_isotropic_subgroups(n):
        if all(try_as_pauli(u @ p.matrix() @ ud, tol) is not None for p in group):
            return True
    return False


def count_pauli_preserving(u: np.ndarray, tol: float = ATOL) -> int:
    """How many of the 4^n phaseless Paulis conjugate to a Pauli under U."""
    u = np.asarray(u, dtype=np.complex128)
    n = u.shape[0].bit_length() - 1
    if n > 2:
        raise ValidationError("count_pauli_preserving supports n <= 2")
    ud = u.conj().T
    return sum(
        1
        for sigma in phaseless_paulis(n)
        if try_as_pauli(u @ sigma.matrix() @ ud, tol) is not None
    )


@dataclass(frozen=True)
class ProfileRow:
    depth: int
    mean_length: float
    mean_distance: float


def length_accuracy_profile(
    samples: int, depths, net: EpsilonNet, rng: RngStream
) -> list[ProfileRow]:
    """Empirical word length and accuracy per recursion depth on Haar targets."""
    if samples < 1:
        raise ValidationError("need at least one sample")
    depths = [int(d) for d in depths]
    for depth in depths:
        _check_depth(depth)
    top = max(depths, default=0)
    if top > 0:
        net.ensure_convergent()
    targets = [to_su2(haar_random_unitary(2, rng.substream(i + 1))) for i in range(samples)]
    # stripped a second time, as sk_decompose strips its input, so the words match it
    spines = [_spine(to_su2(target), top, net) for target in targets]
    rows = []
    for depth in depths:
        words = [spine[depth] for spine in spines]
        lengths = np.array([word.length for word in words], dtype=float)
        dists = np.array([su2_distance(t, to_su2(w.unitary)) for t, w in zip(targets, words)])
        rows.append(ProfileRow(depth, float(lengths.mean()), float(dists.mean())))
    return rows


def fit_length_exponent(rows) -> float:
    """Slope c of log(length) against log(log(1/eps)) over depth >= 1 rows."""
    xs, ys = [], []
    for row in rows:
        if row.depth >= 1 and 0.0 < row.mean_distance < 1.0:
            xs.append(np.log(np.log(1.0 / row.mean_distance)))
            ys.append(np.log(row.mean_length))
    if len(xs) < 2:
        raise ValidationError("need at least two usable rows to fit an exponent")
    slope = np.polyfit(np.array(xs), np.array(ys), 1)[0]
    return float(slope)


def semi_clifford_tree_degree(n: int) -> int:
    """Branching degree of the tree when the gate is semi-Clifford: 4^n - 2^n."""
    _require_positive(n, "n")
    return 4**n - 2**n


def single_gate_layout(gate: np.ndarray, level: int) -> CircuitLayout:
    """One-qubit, one-layer layout wrapping a single gate."""
    gate = np.asarray(gate, dtype=np.complex128)
    n = gate.shape[0].bit_length() - 1
    targets = tuple(range(n))
    return CircuitLayout(n, ((LayoutGate(gate, targets, level),),))


def phase_gate(k: int) -> np.ndarray:
    """diag(1, exp(2*pi*i / 2^k)); k=3 is T, k=4 its square root."""
    return np.diag([1.0, np.exp(2j * np.pi / 2**k)]).astype(np.complex128)


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical config text; parse_config(serialize_config(c)) == c."""
    lines = [f"{key} = {format_value(value)}" for key, value in config.as_dict().items()]
    return "\n".join(lines) + "\n"


def strip_wall_clock(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "wall_clock_seconds"}


def noiseless(channel: ChannelModel) -> bool:
    return channel.p_loss == 0.0 and channel.p_dep == 0.0


def apply_unitary_tensordot(state: StateVector, u: np.ndarray) -> StateVector:
    """u on the whole register through the general `tensordot` form."""
    n = state.num_qubits
    t = np.tensordot(
        np.asarray(u, dtype=np.complex128).reshape((2,) * (2 * n)),
        state.amps.reshape((2,) * n),
        axes=(tuple(range(n, 2 * n)), tuple(range(n))),
    )
    return StateVector(t.reshape(-1))


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


def qubit(array: QubitArray, i: int) -> StateVector:
    """Qubit i of a product-state array, norm-checked as its own state."""
    return StateVector(array.amps[i])


def _survivor_p1(
    attack: PbtAttack, challenge: Challenge, amps: np.ndarray, q: int, rng: RngStream
) -> float | None:
    """Draw every hop's outcome; P(1) at the end, None when a hop failed."""
    u = _share_factors(challenge.v0_classical, q)
    v = _share_factors(challenge.v1_classical, q)
    psi = u[0].conj().T @ amps
    visibility = 1.0
    for h, m in enumerate(attack.ports):
        channel = attack._channels[m]
        if channel.draw_outcome(rng) == m:
            return None
        # hops 0, 2, 4, ... land at Bob (strips v_{h/2+1}); odd at Alice
        factor = v[h // 2] if h % 2 == 0 else u[h // 2 + 1]
        psi = factor.conj().T @ psi
        visibility *= channel.depolarizing
    return visibility * float(abs(psi[1]) ** 2) + (1.0 - visibility) / 2.0


def _run_qubit(
    attack: PbtAttack, challenge: Challenge, amps: np.ndarray, q: int, rng: RngStream
) -> tuple[int, float | None]:
    """One qubit's PBT chain on `rng`: (bit, P(1)), with _HOP_FAILED and
    None when a hop failed."""
    p1 = _survivor_p1(attack, challenge, amps, q, rng)
    if p1 is None:
        return _HOP_FAILED, None
    return int(rng.random() < p1), p1
