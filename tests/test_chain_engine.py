"""The chain engine against the physical, step-by-step engine it replaced.

The oracle below is that engine, kept here: every hop tensors Bell pairs
onto the register and teleports through `teleport_register`, and every
strip and burn updates the state on the spot. The chain engine draws the
same corrections without a Bell register and evolves the payload once at
the end, so under one random stream both must agree on every draw, burn,
ledger count, measured bit and, to rounding, the final state.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpv import gates
from qpv.attacks import CliffordAttack, LayoutAttack, TreeAttack
from qpv.attacks.base import (
    ALICE,
    BOB,
    ChainEngine,
    CorrectionTranscript,
    EntanglementLedger,
    run_chain,
)
from qpv.errors import StrategyError
from qpv.layout import CircuitLayout, LayoutGate
from qpv.pauli import hierarchy_level, random_clifford, try_as_pauli
from qpv.protocols import (
    BasisGameSpec,
    ChannelModel,
    apply_channel,
    gen_basis_challenge,
)
from qpv.rng import RngStream
from qpv.statevec import apply_unitary, measure_computational
from qpv.teleport import teleport_register

from oracles import phase_gate, zero_state


class PhysicalChainEngine:
    """Live strip chain on the register itself: teleports through fresh
    Bell pairs, and the state is updated at every strip and burn."""

    def __init__(self, n, state, rng, ledger):
        self.n = n
        self.state = state
        self.rng = rng
        self.ledger = ledger
        self.outer = np.eye(2**n, dtype=np.complex128)
        self.holder = ALICE
        self.transcript = CorrectionTranscript()
        self.burn_candidates = []

    def _hop(self, targets):
        sender = self.holder
        sigma, self.state, used = teleport_register(self.state, targets, self.rng)
        self.ledger.spend(used)
        self.transcript.record(sender, sigma)
        self.outer = sigma.matrix() @ self.outer
        self.holder = BOB if sender == ALICE else ALICE
        return sigma

    def _apply(self, op):
        self.state = apply_unitary(self.state, op, tuple(range(self.n)))

    def move_to(self, party):
        if self.holder != party:
            self._hop(tuple(range(self.n)))

    def strip(self, gate):
        self.move_to(gate.owner)
        g = gate.matrix
        self._apply(g.conj().T)
        self.outer = g.conj().T @ self.outer @ g
        for burns in range(gate.max_burns):
            check = gate.level_checks[burns] if burns < len(gate.level_checks) else None
            self._burn(gate.targets, check)
        if try_as_pauli(self.outer) is None:
            raise StrategyError("outer operator not Pauli")

    def _burn(self, targets, level_check):
        o_pre = self.outer
        s1 = self._hop(targets)
        candidate = s1.matrix() @ o_pre
        self._hop(targets)
        self._apply(candidate.conj().T)
        self.outer = candidate.conj().T @ self.outer
        self.burn_candidates.append(candidate)
        if level_check is not None:
            if hierarchy_level(candidate, k_max=level_check).level is None:
                raise StrategyError("burn candidate escaped its hierarchy level")

    def measure(self):
        bits, self.state = measure_computational(
            self.state, tuple(range(self.n)), self.rng
        )
        return bits


def run_physical(chain, n, state, rng, ledger):
    engine = PhysicalChainEngine(n, state, rng, ledger)
    for gate in chain:
        engine.strip(gate)
    engine.move_to(BOB)
    return engine


@st.composite
def clifford_games(draw):
    n = draw(st.integers(1, 3))
    return BasisGameSpec(n, "clifford"), CliffordAttack(), n


@st.composite
def tree_games(draw):
    k = draw(st.sampled_from((3, 4)))
    c = random_clifford(1, RngStream(draw(st.integers(0, 2**16)), 5))
    top = gates.T if k == 3 else phase_gate(4)
    unitaries = (top, c @ top @ c.conj().T, gates.H @ top, gates.H, np.eye(2))
    return BasisGameSpec(1, "explicit", unitaries=unitaries), TreeAttack(k), 1


SINGLE_GATES = ("H", "S", "T", "Tdg", "X", "I")


@st.composite
def layout_games(draw):
    layers = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            name = draw(st.sampled_from(("CNOT", "CZ", "SWAP")))
            targets = draw(st.sampled_from(((0, 1), (1, 0))))
            layers.append((LayoutGate(gates.GATES[name], targets, 2),))
        else:
            layer = []
            for q in range(2):
                name = draw(st.sampled_from(SINGLE_GATES))
                level = 3 if name in ("T", "Tdg") else 2
                layer.append(LayoutGate(gates.GATES[name], (q,), level))
            layers.append(tuple(layer))
    layout = CircuitLayout(2, tuple(layers))
    return BasisGameSpec(2, "layout", layout=layout), LayoutAttack(layout), 2


@settings(max_examples=100, deadline=None)
@given(
    game=st.one_of(clifford_games(), tree_games(), layout_games()),
    seed=st.integers(0, 2**32 - 1),
    p_loss=st.sampled_from((0.0, 0.3)),
    p_dep=st.sampled_from((0.0, 0.2, 0.5)),
)
def test_chain_engine_matches_the_physical_engine(game, seed, p_loss, p_dep):
    spec, attack, n = game
    rng = RngStream(seed, 1)
    challenge = gen_basis_challenge(spec, rng)
    delivered, _ = apply_channel(
        challenge.quantum_payload, ChannelModel(p_loss, p_dep), rng
    )
    chain = attack._gates(challenge)
    reserved = attack.reserved_epr(challenge)

    oracle = run_physical(
        chain, n, delivered, RngStream(seed, 3), EntanglementLedger(reserved)
    )
    premeasure = oracle.state
    oracle_bits = oracle.measure()

    ledger = EntanglementLedger(reserved)
    with mock.patch.object(
        ChainEngine, "_burn", autospec=True, side_effect=ChainEngine._burn
    ) as burn:
        engine = run_chain(
            chain, n, state=delivered, rng=RngStream(seed, 3), ledger=ledger
        )
    bits = engine.measure()

    assert engine.transcript.alice == oracle.transcript.alice
    assert engine.transcript.bob == oracle.transcript.bob
    assert burn.call_count == len(oracle.burn_candidates)
    assert ledger.consumed == oracle.ledger.consumed
    assert bits == oracle_bits
    assert np.max(np.abs(engine.state.amps - premeasure.amps)) < 1e-10


def _choice_bell_outcomes(rng: RngStream, count: int) -> list[int]:
    """The Bell outcomes as Generator.choice draws them, one call each."""
    return [int(rng.generator.choice(4, p=(0.25,) * 4)) for _ in range(count)]


@pytest.mark.parametrize("seed", [5, 23])
def test_bell_outcomes_match_generator_choice(seed):
    # 5,000 two-qubit hops draw 10^4 outcomes; outcome k leaves
    # X^(k & 1) Z^(k >> 1) on its qubit
    hops = 5000
    live, ref = RngStream(seed, 3), RngStream(seed, 3)
    engine = ChainEngine(
        2, state=zero_state(2), rng=live,
        ledger=EntanglementLedger(2 * hops),
    )
    transcript = engine.transcript
    outcomes = []
    for _ in range(hops):
        sent = transcript.alice if engine.holder == ALICE else transcript.bob
        engine._hop((0, 1))
        sigma = sent[-1]
        outcomes += [x + 2 * z for x, z in zip(sigma.x_bits, sigma.z_bits)]
    assert outcomes == _choice_bell_outcomes(ref, 2 * hops)
    assert live.random() == ref.random()
