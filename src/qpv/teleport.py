"""Teleportation primitives: plain, gate-through-resource, and port-based.

Plain teleportation consumes one Bell pair per qubit and leaves the receiver
holding correction * |psi| with a tracked Pauli correction. Gate teleportation
pre-rotates the resource by a third-level gate U, so the receiver holds
U R |psi| = R' U |psi| with R' one hierarchy level below U; undoing R' yields
U|psi| without ever running U on the live state.

Port-based teleportation uses the square-root measurement over N Bell pairs
("ports"). For a qubit that channel is known in closed form (Ishizaka &
Hiroshima, PRL 101, 240501, 2008; Beigi & Koenig, NJP 13, 093036, 2011):
the completion outcome fires with probability q_N = (N+2)/2^(N+1) whatever
the input, each port with (1-q_N)/N, and the receiver at the fired port
holds the input depolarized, p_N rho + (1-p_N) I/2. So a channel is two
constants, and one use is one uniform draw against the outcome CDF. A chain
of hops only multiplies the visibilities p_N of the hops that succeed.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StrategyError, ValidationError
from .gates import CNOT, H
from .pauli import PauliOperator, hierarchy_level, is_clifford
from .rng import RngStream
from .statevec import (
    DensityMatrix,
    StateVector,
    apply_unitary,
    bell_measurement,
    bell_pair,
    fidelity,
    haar_random_state,
    measure_computational,
    move_qubit,
)


@dataclass(frozen=True)
class TeleportResult:
    """Receiver holds correction * |input>; undo with correction.inverse()."""

    correction: PauliOperator
    receiver_state: StateVector
    epr_consumed: int


def teleport(state: StateVector, qubit: int, rng: RngStream) -> TeleportResult:
    """Teleport one qubit of the register through a fresh Bell pair.

    The receiver qubit takes the sender qubit's register position, so
    callers keep stable indices across calls.
    """
    n = state.num_qubits
    reg = state.tensor(bell_pair())
    corr, post = bell_measurement(reg, qubit, n, rng)
    post = move_qubit(post, post.num_qubits - 1, qubit)
    return TeleportResult(corr, post, 1)


def teleport_register(
    state: StateVector, qubits, rng: RngStream
) -> tuple[PauliOperator, StateVector, int]:
    """Teleport the listed qubits one by one.

    Returns the combined correction as a register-wide Pauli (identity on
    qubits that stayed put), the post-teleport register, and the EPR count.
    """
    n = state.num_qubits
    qubits = [int(q) for q in qubits]
    if len(set(qubits)) != len(qubits):
        raise ValidationError("repeated qubit in teleport list")
    x = [0] * n
    z = [0] * n
    consumed = 0
    for q in qubits:
        res = teleport(state, q, rng)
        state = res.receiver_state
        x[q] = res.correction.x_bits[0]
        z[q] = res.correction.z_bits[0]
        consumed += res.epr_consumed
    return PauliOperator(x, z, 0), state, consumed


@dataclass(frozen=True, eq=False)
class GateTeleportResult:
    state: StateVector
    correction: PauliOperator
    shifted_correction: np.ndarray
    epr_consumed: int


def teleport_gate(state: StateVector, u: np.ndarray, rng: RngStream) -> GateTeleportResult:
    """Apply a third-level gate by teleporting through a pre-rotated resource.

    The receiver momentarily holds U R |psi|; the equivalent form R' U |psi|
    with R' = U R U^dag (verified Clifford) is undone here, so the returned
    state is exactly U|psi|.
    """
    n = state.num_qubits
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (2**n, 2**n):
        raise ValidationError("gate dimension does not match the register")
    lvl = hierarchy_level(u, k_max=3)
    if lvl.level is None:
        raise ValidationError("gate is not in the third hierarchy level")

    reg = state
    for _ in range(n):
        reg = reg.tensor(bell_pair())
    # layout: payload 0..n-1, pair j = (sender half n+2j, receiver half n+2j+1)
    receivers = [n + 2 * j + 1 for j in range(n)]
    reg = apply_unitary(reg, u, receivers)
    for j in range(n):
        reg = apply_unitary(reg, CNOT, [j, n + 2 * j])
        reg = apply_unitary(reg, H, [j])
    order = list(range(n)) + [n + 2 * j for j in range(n)]
    bits, remaining = measure_computational(reg, order, rng, drop=True)
    z_bits, x_bits = bits[:n], bits[n:]
    correction = PauliOperator(x_bits, z_bits, 0)

    shifted = u @ correction.matrix() @ u.conj().T
    if not is_clifford(shifted):
        raise StrategyError("teleported correction did not drop to the Clifford level")
    out = apply_unitary(remaining, shifted.conj().T, list(range(n)))
    return GateTeleportResult(out, correction, shifted, n)


_PROB_ATOL = math.sqrt(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class PbtChannel:
    """Square-root-measurement port teleportation of one qubit, in closed form.

    completion_probability is q_N = (N+2)/2^(N+1); each port then fires with
    probability (1-q_N)/N, whatever the input. depolarizing is p_N: the
    receiver at the fired port holds p_N rho + (1-p_N) I/2 (Ishizaka &
    Hiroshima, PRL 101, 240501, 2008). outcome_probs lists the N ports,
    then the completion outcome; they are checked once, here, and cdf is
    their running sum scaled to end at 1.
    """

    num_ports: int
    completion_probability: float
    depolarizing: float
    outcome_probs: tuple[float, ...]
    cdf: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = np.asarray(self.outcome_probs, dtype=np.float64)
        if p.shape != (self.num_ports + 1,):
            raise ValidationError("need one probability per port and one for completion")
        # the tolerance Generator.choice applies to its p
        if not np.all(p >= 0.0) or abs(math.fsum(p) - 1.0) > _PROB_ATOL:
            raise ValidationError("outcome probabilities must be non-negative and sum to 1")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        object.__setattr__(self, "cdf", tuple(cdf.tolist()))

    def draw_outcome(self, rng: RngStream) -> int:
        """Fired port, or num_ports for completion: the draw and the index
        of Generator.choice(num_ports + 1, p=outcome_probs)."""
        return bisect.bisect_right(self.cdf, rng.random())

    @property
    def average_fidelity(self) -> float:
        """Average fidelity over pure inputs, completion outcomes included."""
        q, p = self.completion_probability, self.depolarizing
        return (1.0 - q) * (1.0 + p) / 2.0 + q / 2.0


def build_pbt_channel(num_ports: int) -> PbtChannel:
    """q_N and p_N from the Ishizaka-Hiroshima sum over the spin-k blocks.

    The success part (1-q_N)(1+3p_N)/4 equals s_N = 2^-(N+3) sum_k C(N,k)
    [(N-2k-1)/sqrt(k+1) + (N-2k+1)/sqrt(N-k+1)]^2; the binomial weights are
    taken in log space, so any N is finite.
    """
    n = int(num_ports)
    if n < 2:
        raise ValidationError("port count must be at least 2")
    q = math.ldexp(n + 2, -(n + 1))
    log_scale = math.lgamma(n + 1) - (n + 3) * math.log(2.0)
    s = math.fsum(
        math.exp(log_scale - math.lgamma(k + 1) - math.lgamma(n - k + 1))
        * ((n - 2 * k - 1) / math.sqrt(k + 1) + (n - 2 * k + 1) / math.sqrt(n - k + 1)) ** 2
        for k in range(n + 1)
    )
    p = (4.0 * s / (1.0 - q) - 1.0) / 3.0
    return PbtChannel(n, q, p, ((1.0 - q) / n,) * n + (q,))


@dataclass(frozen=True, eq=False)
class PbtResult:
    """port is None when the completion outcome fired; the receiver is then
    maximally mixed, so measuring it in any basis is a fair coin. Otherwise
    the receiver is the input depolarized by the channel's p_N."""

    port: int | None
    receiver: DensityMatrix
    epr_consumed: int


_HALF_IDENTITY = np.eye(2, dtype=np.complex128) / 2.0


def _pbt_hop(rho: np.ndarray, channel: PbtChannel, rng: RngStream) -> PbtResult:
    """One port-teleportation use: draw the outcome, depolarize on success."""
    n = channel.num_ports
    port = channel.draw_outcome(rng)
    if port == n:
        return PbtResult(None, DensityMatrix.maximally_mixed(1), n)
    p = channel.depolarizing
    return PbtResult(port, DensityMatrix(p * rho + (1.0 - p) * _HALF_IDENTITY), n)


def pbt_teleport(qubit: StateVector, channel: PbtChannel, rng: RngStream) -> PbtResult:
    """Port-teleport a pure qubit; Bob's port qubit comes back as a density matrix."""
    if qubit.num_qubits != 1:
        raise ValidationError("port teleportation sends one qubit at a time")
    return _pbt_hop(np.outer(qubit.amps, qubit.amps.conj()), channel, rng)


def pbt_teleport_density(
    rho: DensityMatrix, channel: PbtChannel, rng: RngStream
) -> PbtResult:
    """Port-teleport a mixed qubit (chained hops receive one)."""
    if rho.num_qubits != 1:
        raise ValidationError("port teleportation sends one qubit at a time")
    return _pbt_hop(rho.mat, channel, rng)


def pbt_fidelity_curve(
    num_ports: int, trials: int, rng: RngStream
) -> tuple[float, float]:
    """Mean teleportation fidelity over Haar inputs, and its standard error.

    Completion outcomes contribute their actual (maximally mixed) fidelity
    of one half, so the mean reflects the full channel, not just successes.
    Trial t draws its input from stream 1 + 2t and its hop from 2 + 2t.
    """
    if trials < 1:
        raise ValidationError("need at least one trial")
    channel = build_pbt_channel(num_ports)
    fids = np.empty(trials)
    for t in range(trials):
        psi = haar_random_state(1, rng.substream(1 + 2 * t))
        res = pbt_teleport(psi, channel, rng.substream(2 + 2 * t))
        fids[t] = fidelity(psi, res.receiver)
    return float(fids.mean()), float(fids.std(ddof=1) / np.sqrt(trials))
