"""Coalition strategies for the basis game.

The entangled family (pauli, clifford, tree, layout) is one algorithm at
four hierarchy depths: teleport the payload toward the party who knows the
rotation, strip the rotation, and burn the resulting operator back into the
Pauli group, where a computational measurement plus classical bookkeeping
recovers x. The non-entangled pair (breidbart, random-guess) needs no
quantum resources at all.

The tree strategy runs on the shared chain engine: it draws each teleport
correction as the Bell measurement would, evolves the payload once along the
realized branch, and fills the unselected slots of Bob's measurement record
with uniform bits, which is exactly what measuring halves of untouched Bell
pairs yields.

Every strategy's `answer` decodes the two exchanged records to a uint8
bit array. The basis game has no empty symbol, so lost positions take
pre-agreed random bits (`with_fallback`), and `protocols.render_answer`
spells the answer string.

Reconstruction failures (a residue that is not Pauli, a rotation outside
the declared hierarchy level) raise; they signal a misconfigured strategy,
not bad luck, and must not be papered over with a guess.
"""

from __future__ import annotations

import numpy as np

from ..costs import layout_cost, tree_cost
from ..errors import StrategyError, ValidationError
from ..layout import CircuitLayout
from ..pauli import PauliOperator, hierarchy_level, try_as_pauli
from ..protocols import BasisShare, Challenge, render_answer
from ..rng import RngStream
from ..statevec import QubitArray, embed_operator, measure_computational
from .base import (
    BOB,
    ChainGate,
    CoalitionStrategy,
    TrialState,
    decode_chain_answer,
    run_chain,
    with_fallback,
)


def _pauli_key(p: PauliOperator) -> tuple:
    return (tuple(p.x_bits), tuple(p.z_bits))


def _require_basis(challenge: Challenge):
    if challenge.game != "basis":
        raise ValidationError("this strategy plays the basis game")


def _require_dense(challenge: Challenge):
    """The Pauli and chain strategies read the rotation as a matrix; a bb84
    challenge names per-qubit letters and carries none."""
    _require_basis(challenge)
    share: BasisShare = challenge.v1_classical
    if share.unitary is None:
        raise ValidationError(
            f"this strategy needs a dense rotation, and {share.family} challenges carry none"
        )


class PauliAttack(CoalitionStrategy):
    """Computational measurement beats any Pauli rotation without EPR pairs.

    A Pauli rotation maps basis states to basis states, so Alice's
    measurement outcome is x up to the rotation's bit-flip pattern, which
    Bob reads off the classical description and both sides undo.
    """

    name = "pauli"

    def reserved_epr(self, challenge: Challenge) -> int:
        return 0

    def new_trial(self, challenge, delivered, rng) -> TrialState:
        _require_dense(challenge)
        trial = self.base_trial(challenge, delivered, rng)
        states = delivered.states
        if isinstance(states, QubitArray):
            bits = states.measure_all(rng)
        else:
            bits, _ = measure_computational(states, tuple(range(challenge.n)), rng)
        trial.alice["bits"] = bits
        trial.alice["lost"] = delivered.lost
        share: BasisShare = challenge.v1_classical
        pauli = try_as_pauli(share.unitary)
        if pauli is None:
            raise StrategyError("challenge rotation is not a Pauli operator")
        trial.bob["pauli"] = pauli
        return trial

    def answer(self, trial) -> str:
        bits = np.bitwise_xor(trial.alice["bits"], trial.bob["pauli"].x_bits)
        return render_answer(with_fallback(trial, bits, trial.alice["lost"]))


class ChainAttack(CoalitionStrategy):
    """Shared machinery for the teleportation-chain strategies.

    Subclasses define the strip list; this class runs the live chain, has
    Bob measure, and decodes the answer by transcript replay.
    """

    def _gates(self, challenge: Challenge) -> list[ChainGate]:
        raise NotImplementedError

    def _check_challenge(self, challenge: Challenge):
        _require_dense(challenge)

    def new_trial(self, challenge, delivered, rng) -> TrialState:
        self._check_challenge(challenge)
        trial = self.base_trial(challenge, delivered, rng)
        trial.alice["lost"] = delivered.lost
        engine = run_chain(
            self._gates(challenge),
            challenge.n,
            state=delivered.states,
            rng=rng,
            ledger=trial.ledger,
        )
        trial.alice["sigmas"] = engine.transcript.alice
        trial.bob["sigmas"] = engine.transcript.bob
        trial.bob["bits"] = engine.measure()
        trial.premeasure = engine.state
        return trial

    def _measured(self, trial) -> tuple:
        """Bob's outcome on the realized path."""
        return trial.bob["bits"]

    def answer(self, trial) -> str:
        bits = decode_chain_answer(
            self._gates(trial.challenge),
            trial.challenge.n,
            trial.alice["sigmas"],
            trial.bob["sigmas"],
            self._measured(trial),
        )
        return render_answer(with_fallback(trial, bits, trial.alice["lost"]))


class CliffordAttack(ChainAttack):
    """One teleport and one conjugation: the stripped operator stays Pauli."""

    name = "clifford"

    def reserved_epr(self, challenge: Challenge) -> int:
        return challenge.n

    def _gates(self, challenge: Challenge) -> list[ChainGate]:
        share: BasisShare = challenge.v1_classical
        return [
            ChainGate(
                share.unitary,
                tuple(range(challenge.n)),
                BOB,
                max_burns=0,
                label="clifford",
            )
        ]


class TreeAttack(ChainAttack):
    """Iterated strip for a level-k rotation: one hop in, k-2 burns, and a
    final measurement over a correction-indexed channel bank.

    Works for single-qubit challenges at depths 3 and 4. Every burn
    candidate is checked against the one-level-per-round descent.
    """

    def __init__(self, k: int):
        if k not in (3, 4):
            raise ValidationError("tree depth must be 3 or 4")
        self.k = k
        self.name = f"tree:{k}"

    def reserved_epr(self, challenge: Challenge) -> int:
        return tree_cost(challenge.n, self.k).reserved_epr

    def _gates(self, challenge: Challenge) -> list[ChainGate]:
        share: BasisShare = challenge.v1_classical
        k = self.k
        return [
            ChainGate(
                share.unitary,
                tuple(range(challenge.n)),
                BOB,
                max_burns=k - 2,
                label=f"tree:{k}",
                level_checks=tuple(range(k - 1, 1, -1)),
            )
        ]

    def _check_challenge(self, challenge: Challenge):
        super()._check_challenge(challenge)
        if challenge.n != 1:
            raise ValidationError("tree strategy runs single-qubit challenges")
        share: BasisShare = challenge.v1_classical
        if hierarchy_level(share.unitary, k_max=self.k).level is None:
            raise StrategyError(
                f"challenge rotation is outside hierarchy level {self.k}"
            )

    def new_trial(self, challenge, delivered, rng) -> TrialState:
        trial = super().new_trial(challenge, delivered, rng)
        self._attach_slot_record(trial, rng)
        return trial

    def _address(self, alice_sigmas) -> tuple:
        """Final-bank address: Alice's corrections before the last hop."""
        return tuple(_pauli_key(p) for p in alice_sigmas[:-1])

    def _all_addresses(self):
        cells = [((x,), (z,)) for x in (0, 1) for z in (0, 1)]
        if self.k == 3:
            return [(c,) for c in cells]
        return [(a, b) for a in cells for b in cells]

    def _attach_slot_record(self, trial, rng: RngStream):
        """Bob's measurement record covers every final-bank address; the
        unselected slots hold halves of untouched Bell pairs, so their
        outcomes are uniform bits. Bob cannot tell which slot was realized,
        so the realized bits leave his record for their slot."""
        n = trial.challenge.n
        realized = self._address(trial.alice["sigmas"])
        bits = trial.bob.pop("bits")
        slots = {}
        for address in self._all_addresses():
            if address == realized:
                slots[address] = bits
            else:
                slots[address] = tuple(int(b) for b in rng.bits(n))
        trial.bob["slots"] = slots

    def _measured(self, trial) -> tuple:
        """The slot that Alice's corrections address."""
        return trial.bob["slots"][self._address(trial.alice["sigmas"])]


class LayoutAttack(ChainAttack):
    """Chained strips over a fixed circuit layout, last layer first.

    Concatenation (layers in sequence) and parallelism (disjoint supports in
    one layer) both reduce to running the strip chain gate by gate; the
    reserved count multiplies across layers and adds within a layer.
    """

    def __init__(self, layout: CircuitLayout):
        if layout.n > 2:
            raise ValidationError("layout strategy runs at most 2 qubits")
        for layer in layout.layers:
            for gate in layer:
                if gate.level > 3:
                    raise ValidationError("layout gates must sit in level 3 or below")
        self.layout = layout
        self.name = "layout"
        self.reserved = layout_cost(layout).reserved_epr
        self.chain = [
            ChainGate(
                embed_operator(gate.gate, gate.targets, layout.n),
                gate.targets,
                BOB,
                max_burns=gate.level - 2,
                label=f"layer{index + 1}",
            )
            for index in reversed(range(layout.depth))
            for gate in layout.layers[index]
        ]

    def reserved_epr(self, challenge: Challenge) -> int:
        return self.reserved

    def _gates(self, challenge: Challenge) -> list[ChainGate]:
        return self.chain


BREIDBART_BASIS = np.array(
    [
        [np.cos(np.pi / 8), -np.sin(np.pi / 8)],
        [np.sin(np.pi / 8), np.cos(np.pi / 8)],
    ],
    dtype=np.complex128,
)


class BreidbartAttack(CoalitionStrategy):
    """Measure every qubit in the basis halfway between the two bb84 bases.

    The intermediate basis keeps overlap cos^2(pi/8) with the encoded bit in
    either preparation basis, so the per-qubit error rate is about 0.1464
    with no entanglement at all.
    """

    name = "breidbart"

    def reserved_epr(self, challenge: Challenge) -> int:
        return 0

    def new_trial(self, challenge, delivered, rng) -> TrialState:
        _require_basis(challenge)
        if challenge.v1_classical.family != "bb84":
            raise ValidationError(
                "the intermediate-basis strategy needs bb84 challenges"
            )
        trial = self.base_trial(challenge, delivered, rng)
        states: QubitArray = delivered.states
        overlaps = np.einsum("jb,qj->qb", BREIDBART_BASIS.conj(), states.amps)
        p1 = np.abs(overlaps[:, 1]) ** 2
        trial.alice["bits"] = (rng.random(challenge.n) < p1).astype(np.uint8)
        trial.alice["lost"] = delivered.lost
        return trial

    def answer(self, trial) -> str:
        bits, lost = trial.alice["bits"], trial.alice["lost"]
        return render_answer(with_fallback(trial, bits, lost))


class RandomGuessAttack(CoalitionStrategy):
    """Both parties return one pre-agreed uniform string; error rate 1/2."""

    name = "random-guess"

    def reserved_epr(self, challenge: Challenge) -> int:
        return 0

    def new_trial(self, challenge, delivered, rng) -> TrialState:
        return self.base_trial(challenge, delivered, rng)

    def answer(self, trial) -> str:
        return render_answer(trial.rng.bits(trial.challenge.n))
