"""Coalition cheating interface and the shared teleportation-chain engine.

A coalition strategy splits one prover into two agents: Alice sits between
V0 and the honest transmission path (she receives the quantum payload and
V0's classical share), Bob sits near V1 (he receives V1's classical share).
The agents pre-share entanglement and classical randomness, run local
quantum operations, then perform exactly one simultaneous classical
exchange, after which each independently produces an answer string.

Because every measurement Alice performs acts on her registers and every
measurement Bob performs acts on his, the two parties' operations commute.
The shared quantum phase is therefore simulated once, in causal order, when
a trial state is built; each party's outcomes land in its private record,
and the interface methods only form messages (round 1) and decode answers
(finalize). No finalize ever sees more than one partner message, and no
round-1 message depends on the partner's message, which is the whole
one-round constraint.

The chain engine below drives the teleportation attacks. It tracks the
register state together with an outer operator O satisfying

    product of all operators applied so far = O * W,

where W is the ideal inverse accumulated by the strips. Stripping a gate G
conjugates O; if the result leaves the Pauli group, burn rounds (teleport to
the partner, teleport back, apply the correction-indexed candidate) lower it
one hierarchy level per burn until it is Pauli again. The realized branch is
the only one simulated; unselected teleportation channels hold maximally
mixed halves whose measurement records are plain uniform bits, and the
ledger still charges every branch through its reserved count.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from ..errors import BoundCheckError, StrategyError
from ..pauli import PauliOperator, hierarchy_level, try_as_pauli
from ..protocols import Challenge, DeliveredPayload, TrialOutcome
from ..rng import RngStream
from ..statevec import (
    StateVector,
    apply_unitary,
    embed_operator,
    measure_computational,
)
from ..teleport import teleport_register

ALICE = "A"
BOB = "B"


class EntanglementLedger:
    """Running count of EPR pairs: reserved up front, consumed as spent."""

    __slots__ = ("reserved", "consumed")

    def __init__(self, reserved: int):
        if reserved < 0:
            raise BoundCheckError("reserved EPR count cannot be negative")
        self.reserved = int(reserved)
        self.consumed = 0

    def spend(self, count: int):
        if count < 0:
            raise BoundCheckError("cannot consume a negative EPR count")
        self.consumed += int(count)
        if self.consumed > self.reserved:
            raise BoundCheckError(
                f"consumed {self.consumed} EPR pairs, reserved {self.reserved}"
            )

    def __repr__(self) -> str:
        return f"EntanglementLedger(consumed={self.consumed}, reserved={self.reserved})"


@dataclass
class TrialState:
    """Per-trial private state: one shared quantum workspace, two records."""

    challenge: Challenge
    delivered: DeliveredPayload
    rng: RngStream
    ledger: EntanglementLedger
    alice: dict = field(default_factory=dict)
    bob: dict = field(default_factory=dict)


class CoalitionStrategy(ABC):
    """Two cheating agents behind a single simultaneous classical exchange."""

    name = "abstract"

    @abstractmethod
    def reserved_epr(self, challenge: Challenge) -> int:
        """EPR pairs the strategy pre-shares for this challenge, all branches."""

    @abstractmethod
    def new_trial(
        self, challenge: Challenge, delivered: DeliveredPayload, rng: RngStream
    ) -> TrialState:
        """Run the shared quantum phase and return the populated trial state."""

    @abstractmethod
    def round1_alice(self, trial: TrialState) -> dict:
        """Alice's single classical message to Bob, from her record only."""

    @abstractmethod
    def round1_bob(self, trial: TrialState) -> dict:
        """Bob's single classical message to Alice, from his record only."""

    @abstractmethod
    def finalize_alice(self, trial: TrialState, bob_message: dict) -> str:
        """Alice's answer from her record plus Bob's one message."""

    @abstractmethod
    def finalize_bob(self, trial: TrialState, alice_message: dict) -> str:
        """Bob's answer from his record plus Alice's one message."""

    def base_trial(
        self, challenge: Challenge, delivered: DeliveredPayload, rng: RngStream
    ) -> TrialState:
        return TrialState(
            challenge,
            delivered,
            rng,
            EntanglementLedger(self.reserved_epr(challenge)),
        )

    def run_trial(
        self, challenge: Challenge, delivered: DeliveredPayload, rng: RngStream
    ) -> TrialOutcome:
        trial = self.new_trial(challenge, delivered, rng)
        to_bob = self.round1_alice(trial)
        to_alice = self.round1_bob(trial)
        y_alice = self.finalize_alice(trial, to_alice)
        y_bob = self.finalize_bob(trial, to_bob)
        ledger = trial.ledger
        if ledger.consumed > ledger.reserved:
            raise BoundCheckError("ledger invariant violated")
        return TrialOutcome(y_alice, y_bob, ledger.consumed, ledger.reserved)


def uniform_pauli(n: int, rng: RngStream) -> PauliOperator:
    """Bell-measurement corrections are uniform over the Pauli strings."""
    return PauliOperator(tuple(rng.bits(n)), tuple(rng.bits(n)), 0)


def shared_random_bits(trial: TrialState, n: int) -> np.ndarray:
    """Pre-agreed fallback bits (uint8), drawn once into both parties' records."""
    key = "fallback_bits"
    if key not in trial.alice:
        bits = trial.rng.bits(n)
        trial.alice[key] = bits
        trial.bob[key] = bits
    return trial.alice[key]


def with_fallback(trial: TrialState, bits, where) -> np.ndarray:
    """`bits` as a uint8 array, with the shared fallback bits at `where`.

    The fallback is drawn only when some position needs it, so a trial that
    never falls back leaves the trial stream untouched.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    where = np.asarray(where, dtype=bool)
    if not where.any():
        return bits
    return np.where(where, shared_random_bits(trial, len(bits)), bits)


class CorrectionTranscript:
    """Each party's teleport corrections, in the order its hops made them.

    A live chain records every correction under the party that sent the
    qubit; after the exchange both parties replay the chain, reading each
    party's corrections back in the same order.
    """

    def __init__(self, alice=None, bob=None):
        self.alice = [] if alice is None else list(alice)
        self.bob = [] if bob is None else list(bob)
        self._queues = {ALICE: self.alice, BOB: self.bob}
        self._cursor = {ALICE: 0, BOB: 0}

    def record(self, party: str, sigma):
        self._queues[party].append(sigma)

    def replay(self, party: str):
        queue = self._queues[party]
        cursor = self._cursor[party]
        if cursor >= len(queue):
            raise StrategyError("correction transcript exhausted during replay")
        self._cursor[party] = cursor + 1
        return queue[cursor]


@dataclass(frozen=True)
class ChainGate:
    """One strip target: `matrix` on `targets`, owned by one party, with the
    burn budget implied by its hierarchy level. When `level_checks` is set,
    the j-th burn verifies its candidate operator sits within the j-th listed
    hierarchy level (a per-round correctness check, live runs only)."""

    matrix: np.ndarray
    targets: tuple[int, ...]
    owner: str
    max_burns: int
    label: str = ""
    level_checks: tuple[int, ...] = ()


class ChainEngine:
    """Realized-path simulator/replayer for teleportation-chain attacks.

    Live mode (state given): teleports run on the actual register through
    fresh Bell pairs, corrections are recorded in the transcript, and the
    ledger is charged. Replay mode (state None): corrections are read back
    from the given transcripts and nothing is measured; both parties decode
    by replaying the identical deterministic control flow after the
    exchange.
    """

    def __init__(
        self,
        n: int,
        *,
        state: StateVector | None = None,
        rng: RngStream | None = None,
        ledger: EntanglementLedger | None = None,
        alice_sigmas: list | None = None,
        bob_sigmas: list | None = None,
    ):
        self.n = n
        self.state = state
        self.rng = rng
        self.ledger = ledger
        self.live = state is not None
        self.outer = np.eye(2**n, dtype=np.complex128)
        self.holder = ALICE
        self.transcript = CorrectionTranscript(alice_sigmas, bob_sigmas)
        self.burn_candidates: list[np.ndarray] = []

    def _hop(self, targets: tuple[int, ...]) -> PauliOperator:
        """One teleportation hop of the target qubits to the other party."""
        sender = self.holder
        if self.live:
            sigma, post, used = teleport_register(self.state, targets, self.rng)
            self.state = post
            self.ledger.spend(used)
            self.transcript.record(sender, sigma)
        else:
            sigma = self.transcript.replay(sender)
        self.outer = sigma.matrix() @ self.outer
        self.holder = BOB if sender == ALICE else ALICE
        return sigma

    def _apply(self, op: np.ndarray):
        if self.live:
            self.state = apply_unitary(self.state, op, tuple(range(self.n)))

    def move_to(self, party: str):
        """Hand the whole register to `party` (a plain teleport, no gate)."""
        if self.holder != party:
            self._hop(tuple(range(self.n)))

    def strip(self, gate: ChainGate):
        """Owner applies the gate inverse, then exactly max_burns burn round
        trips run to push the outer operator back into the Pauli group.

        The burn count is fixed by the declared level, not by the realized
        corrections: neither party can see the other's Bell outcomes, so the
        hop structure is pre-agreed and runs even on trials where the outer
        operator collapses early. Raises if the operator is still outside
        the Pauli group afterwards, which signals a wrong declared level.
        """
        self.move_to(gate.owner)
        g = gate.matrix
        if len(gate.targets) != self.n:
            g = embed_operator(g, gate.targets, self.n)
        self._apply(g.conj().T)
        self.outer = g.conj().T @ self.outer @ g
        for burns in range(gate.max_burns):
            check = gate.level_checks[burns] if burns < len(gate.level_checks) else None
            self._burn(gate.targets, check)
        if try_as_pauli(self.outer) is None:
            raise StrategyError(
                f"outer operator not Pauli after {gate.max_burns} burns "
                f"on {gate.label or 'gate'}"
            )

    def apply_exact(self, op: np.ndarray, party: str):
        """Holder applies a unitary it knows exactly; the outer operator must
        stay Pauli (used for the chain's opening word, where holder = owner)."""
        self.move_to(party)
        self._apply(op)
        self.outer = op @ self.outer @ op.conj().T
        if try_as_pauli(self.outer) is None:
            raise StrategyError("exact strip left a non-Pauli outer operator")

    def _burn(self, targets: tuple[int, ...], level_check: int | None = None):
        o_pre = self.outer
        s1 = self._hop(targets)
        candidate = s1.matrix() @ o_pre
        self._hop(targets)
        self._apply(candidate.conj().T)
        self.outer = candidate.conj().T @ self.outer
        self.burn_candidates.append(candidate)
        if self.live and level_check is not None:
            level = hierarchy_level(candidate, k_max=level_check)
            if level.level is None:
                raise StrategyError(
                    f"burn candidate escaped hierarchy level {level_check}"
                )

    def measure(self) -> tuple[int, ...]:
        if not self.live:
            raise StrategyError("replay engines cannot measure")
        bits, post = measure_computational(
            self.state, tuple(range(self.n)), self.rng
        )
        self.state = post
        return bits

    def decode_pauli(self) -> PauliOperator:
        """Reduce the final outer operator to the Pauli both parties invert."""
        p = try_as_pauli(self.outer)
        if p is None:
            raise StrategyError("chain residue is not a Pauli operator")
        return p


def run_chain(
    gates: list[ChainGate],
    n: int,
    *,
    state: StateVector | None = None,
    rng: RngStream | None = None,
    ledger: EntanglementLedger | None = None,
    alice_sigmas: list | None = None,
    bob_sigmas: list | None = None,
    opening: tuple[np.ndarray, str] | None = None,
) -> ChainEngine:
    """Run (or replay) a full strip chain and leave the register with Bob."""
    engine = ChainEngine(
        n,
        state=state,
        rng=rng,
        ledger=ledger,
        alice_sigmas=alice_sigmas,
        bob_sigmas=bob_sigmas,
    )
    if opening is not None:
        op, party = opening
        engine.apply_exact(op, party)
    for gate in gates:
        engine.strip(gate)
    engine.move_to(BOB)
    return engine


def decode_chain_answer(
    gates: list[ChainGate],
    n: int,
    alice_sigmas: list,
    bob_sigmas: list,
    measured: tuple[int, ...],
    opening: tuple[np.ndarray, str] | None = None,
) -> np.ndarray:
    """Replay the chain from the exchanged transcripts and undo the residue."""
    engine = run_chain(
        gates,
        n,
        alice_sigmas=alice_sigmas,
        bob_sigmas=bob_sigmas,
        opening=opening,
    )
    residue = engine.decode_pauli()
    return np.bitwise_xor(measured, residue.x_bits).astype(np.uint8)
