"""Coalition cheating interface and the shared teleportation-chain engine.

A coalition strategy splits one prover into two agents: Alice sits between
V0 and the honest transmission path (she receives the quantum payload and
V0's classical share), Bob sits near V1 (he receives V1's classical share).
The agents pre-share entanglement and classical randomness, run local
quantum operations, then perform exactly one simultaneous classical
exchange, after which each produces an answer string.

Because every measurement Alice performs acts on her registers and every
measurement Bob performs acts on his, the two parties' operations commute.
The shared quantum phase is therefore simulated once, in causal order, when
a trial state is built, and each party's outcomes land in its record. One
round bounds the number of exchanges, not their size, so a party loses
nothing by sending all it holds: its record is its message. The answer is a
function of the two records, the public challenge and the pre-agreed
randomness, which is the whole one-round constraint: after the exchange both
parties hold exactly these, so they give the same string and it is decoded
once.

The chain engine below drives the teleportation attacks. A live engine
tracks the outer operator O and the ideal inverse W that the strips
accumulate, both register-wide, so that

    product of all operators applied so far = O * W.

Stripping a gate G conjugates O; if the result leaves the Pauli group, burn
rounds (teleport to the partner, teleport back, apply the correction-indexed
candidate) lower it one hierarchy level per burn until it is Pauli again. A
teleport leaves a uniform Pauli correction on the sent qubits whatever the
register holds (Gottesman & Chuang, Nature 402, 390, 1999), so a live hop
only draws it, and the payload is evolved once, by O * W, when measured. The
realized branch is the only one simulated; unselected teleportation channels
hold maximally mixed halves whose measurement records are plain uniform
bits, and the ledger still charges every branch through its reserved count.
"""

from __future__ import annotations

import bisect
import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from ..errors import BoundCheckError, StrategyError
from ..pauli import PauliOperator, hierarchy_level, pauli_from_masks, try_as_pauli
from ..protocols import Challenge, DeliveredPayload, TrialOutcome
from ..rng import RngStream
from ..statevec import StateVector, apply_unitary, measure_computational

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
    """Per-trial state: the public challenge, the pre-agreed randomness, the
    ledger, and each party's record, which is the message it sends.
    `premeasure`, a chain's register just before measurement, is held by no
    party, so only validation reads it, never `answer`."""

    challenge: Challenge
    delivered: DeliveredPayload
    rng: RngStream
    ledger: EntanglementLedger
    alice: dict = field(default_factory=dict)
    bob: dict = field(default_factory=dict)
    premeasure: StateVector | None = None


class CoalitionStrategy(ABC):
    """Two cheating agents behind a single simultaneous classical exchange.

    Both agents answer from the same two records, so a strategy writes the
    decoder once, as `answer`, and `run_trial` reports its string for both.
    """

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
    def answer(self, trial: TrialState) -> str:
        """Both parties' answer from the two records, the public challenge
        and the pre-agreed randomness (`trial.rng`); never from `delivered`
        or `premeasure`."""

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
        y = self.answer(trial)
        ledger = trial.ledger
        if ledger.consumed > ledger.reserved:
            raise BoundCheckError("ledger invariant violated")
        return TrialOutcome(y, y, ledger.consumed, ledger.reserved)


def with_fallback(trial: TrialState, bits, where) -> np.ndarray:
    """`bits` as a uint8 array, with pre-agreed uniform bits at `where`.

    The fallback is drawn only when some position needs it, so a trial that
    never falls back leaves the trial stream untouched.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    where = np.asarray(where, dtype=bool)
    if not where.any():
        return bits
    return np.where(where, trial.rng.bits(len(bits)), bits)


class CorrectionTranscript:
    """Each party's teleport corrections, in the order its hops made them.

    A live chain records every correction under the party that sent the
    qubit; after the exchange the answer replays the chain, reading each
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
    """One strip target: the register-wide `matrix` of a gate on `targets`,
    which each burn teleports, owned by one party, with the burn budget
    implied by its hierarchy level. When `level_checks` is set, the j-th
    burn verifies its candidate operator sits within the j-th listed
    hierarchy level (a per-round correctness check, live runs only)."""

    matrix: np.ndarray
    targets: tuple[int, ...]
    owner: str
    max_burns: int
    label: str = ""
    level_checks: tuple[int, ...] = ()

    @functools.cached_property
    def adjoint(self) -> np.ndarray:
        return self.matrix.conj().T


# a Bell measurement's four outcomes are equally likely whatever it measures;
# the running sum of their probabilities, as Generator.choice computes it
_BELL_CDF = (0.25, 0.5, 0.75, 1.0)


class ChainEngine:
    """Realized-path simulator/replayer for teleportation-chain attacks.

    Live and replay runs share one control flow and differ only in where a
    hop's correction comes from. Live mode (state given) draws each
    correction as a Bell measurement of the sent qubit would, records it in
    the transcript and charges the ledger; the payload stays as delivered
    until measure() evolves it once by O W. Replay mode (state None) reads
    the corrections back from the exchanged transcripts, so the answer is
    decoded by replaying the identical control flow. A replay engine tracks
    O only: W serves measure(), which a replay engine cannot call.
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
        self.inverse = np.eye(2**n, dtype=np.complex128) if self.live else None
        self.holder = ALICE
        self.transcript = CorrectionTranscript(alice_sigmas, bob_sigmas)

    def _hop(self, targets: tuple[int, ...]):
        """One teleportation hop of the target qubits to the other party.

        Live, the Bell measurement of each target, in target order, has
        outcome k and leaves X^(k & 1) Z^(k >> 1) on it."""
        sender = self.holder
        if self.live:
            n = self.n
            x = z = 0
            for q in targets:
                # the draw and the index of Generator.choice(4, p=(0.25,) * 4)
                k = bisect.bisect_right(_BELL_CDF, self.rng.random())
                bit = 1 << (n - 1 - q)
                if k & 1:
                    x |= bit
                if k >> 1:
                    z |= bit
            sigma = pauli_from_masks(n, x, z)
            self.ledger.spend(len(targets))
            self.transcript.record(sender, sigma)
        else:
            sigma = self.transcript.replay(sender)
        self.outer = sigma.matrix() @ self.outer
        self.holder = BOB if sender == ALICE else ALICE

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
        self.outer = gate.adjoint @ self.outer @ gate.matrix
        if self.live:
            self.inverse = gate.adjoint @ self.inverse
        for burns in range(gate.max_burns):
            check = gate.level_checks[burns] if burns < len(gate.level_checks) else None
            self._burn(gate.targets, check)
        if try_as_pauli(self.outer) is None:
            raise StrategyError(
                f"outer operator not Pauli after {gate.max_burns} burns "
                f"on {gate.label or 'gate'}"
            )

    def _burn(self, targets: tuple[int, ...], level_check: int | None = None):
        self._hop(targets)
        # candidate = sigma1 @ o_pre; the owner covers every possible value
        # through the address-indexed bank, so acting with it is legitimate
        candidate = self.outer
        self._hop(targets)
        self.outer = candidate.conj().T @ self.outer
        if self.live and level_check is not None:
            level = hierarchy_level(candidate, k_max=level_check)
            if level.level is None:
                raise StrategyError(
                    f"burn candidate escaped hierarchy level {level_check}"
                )

    def measure(self) -> tuple[int, ...]:
        """Evolve the payload by O W and measure every qubit; `state` then
        holds the register just before the measurement."""
        if not self.live:
            raise StrategyError("replay engines cannot measure")
        qubits = tuple(range(self.n))
        self.state = apply_unitary(self.state, self.outer @ self.inverse, qubits)
        bits, _ = measure_computational(self.state, qubits, self.rng)
        return bits

    def decode_pauli(self) -> PauliOperator:
        """Reduce the final outer operator to the Pauli the answer inverts."""
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
) -> np.ndarray:
    """Replay the chain from the exchanged transcripts and undo the residue."""
    engine = run_chain(gates, n, alice_sigmas=alice_sigmas, bob_sigmas=bob_sigmas)
    residue = engine.decode_pauli()
    return np.bitwise_xor(measured, residue.x_bits).astype(np.uint8)
