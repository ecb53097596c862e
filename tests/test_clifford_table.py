"""The single-qubit Clifford tables and the compiled-word chain built on them.

The chain is checked against the dense-matrix chain it replaced, kept here as
the oracle: it carries the outer operator and the running product of every
applied operator as 2x2 matrices and snaps the outer operator back to an
exact Pauli after every letter.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpv import gates
from qpv.attacks.base import ALICE, BOB, CorrectionTranscript, EntanglementLedger
from qpv.attacks.ip import _LETTER_CONJ, _TableChain, _strip_order, _words_product
from qpv.errors import StrategyError
from qpv.pauli import (
    CLIFFORD_1Q,
    CLIFFORD_INV,
    CLIFFORD_MUL,
    CLIFFORD_XZ,
    PAULI_CLIFFORD,
    clifford_index,
    is_clifford,
    try_as_pauli,
)
from qpv.rng import RngStream
from qpv.sk import LETTER_MATRICES, GateWord
from qpv.statevec import haar_random_unitary

from oracles import phase_invariant_distance


# X^x Z^z for each (x, z), the dense matrices the oracle chain multiplies
_SINGLE = {
    (0, 0): gates.I2,
    (1, 0): gates.X,
    (0, 1): gates.Z,
    (1, 1): gates.X @ gates.Z,
}


def equal_up_to_phase(a, b) -> bool:
    return phase_invariant_distance(a, b) < 1e-9


def test_group_has_24_distinct_cliffords_closed_under_products():
    assert CLIFFORD_1Q.shape == (24, 2, 2)
    assert clifford_index(np.eye(2)) == 0
    for a in range(24):
        assert is_clifford(CLIFFORD_1Q[a])
        for b in range(a):
            assert not equal_up_to_phase(CLIFFORD_1Q[a], CLIFFORD_1Q[b])
    assert all(k is not None for row in CLIFFORD_MUL for k in row)


def test_mul_inverse_and_pauli_entries_match_matrices():
    for a in range(24):
        for b in range(24):
            assert equal_up_to_phase(
                CLIFFORD_1Q[CLIFFORD_MUL[a][b]], CLIFFORD_1Q[a] @ CLIFFORD_1Q[b]
            )
        assert CLIFFORD_MUL[CLIFFORD_INV[a]][a] == 0
    for xz, m in _SINGLE.items():
        assert CLIFFORD_XZ[PAULI_CLIFFORD[xz]] == xz
        assert equal_up_to_phase(CLIFFORD_1Q[PAULI_CLIFFORD[xz]], m)
    assert sum(xz is not None for xz in CLIFFORD_XZ) == 4


def test_conjugation_entries_match_matrices():
    for letter, table in _LETTER_CONJ.items():
        g = LETTER_MATRICES[letter]
        for c, k in enumerate(table):
            conj = g @ CLIFFORD_1Q[c] @ g.conj().T
            if k is None:
                assert not is_clifford(conj)
            else:
                assert equal_up_to_phase(CLIFFORD_1Q[k], conj)


def test_letters_move_paulis_as_the_hierarchy_says():
    paulis = {xz: PAULI_CLIFFORD[xz] for xz in _SINGLE}
    for k in paulis.values():
        assert CLIFFORD_XZ[_LETTER_CONJ["H"][k]] is not None
    for letter in ("T", "Tdg"):
        table = _LETTER_CONJ[letter]
        for xz in ((0, 0), (0, 1)):
            assert table[paulis[xz]] == paulis[xz]
        for xz in ((1, 0), (1, 1)):
            assert table[paulis[xz]] is not None
            assert CLIFFORD_XZ[table[paulis[xz]]] is None


def test_transcript_replays_each_party_in_order():
    live = CorrectionTranscript()
    live.record(ALICE, "a1")
    live.record(BOB, "b1")
    live.record(ALICE, "a2")
    replay = CorrectionTranscript(live.alice, live.bob)
    assert [replay.replay(ALICE), replay.replay(BOB), replay.replay(ALICE)] == [
        "a1", "b1", "a2",
    ]
    with pytest.raises(StrategyError, match="exhausted"):
        replay.replay(BOB)


class DenseChain:
    """The dense-matrix strip chain, applied product included."""

    def __init__(self, rng=None, alice=None, bob=None):
        self.live = rng is not None
        self.rng = rng
        self.alice = [] if alice is None else list(alice)
        self.bob = [] if bob is None else list(bob)
        self._queues = {ALICE: self.alice, BOB: self.bob}
        self._cursor = {ALICE: 0, BOB: 0}
        self.holder = ALICE
        self.outer = np.eye(2, dtype=np.complex128)
        self.applied = np.eye(2, dtype=np.complex128)
        self.moves = 0
        self.burns = 0

    def _hop(self):
        sender = self.holder
        if self.live:
            xz = (int(self.rng.bits(1)[0]), int(self.rng.bits(1)[0]))
            self._queues[sender].append(xz)
        else:
            xz = self._queues[sender][self._cursor[sender]]
            self._cursor[sender] += 1
        m = _SINGLE[xz]
        self.outer = m @ self.outer
        self.applied = m @ self.applied
        self.holder = BOB if sender == ALICE else ALICE

    def move_to(self, party):
        if self.holder != party:
            self._hop()
            self.moves += 1

    def _snap(self):
        p = try_as_pauli(self.outer)
        if p is None:
            return False
        self.outer = p.matrix()
        return True

    def apply_exact(self, op):
        self.outer = op @ self.outer @ op.conj().T
        self.applied = op @ self.applied
        assert self._snap()

    def run(self, u_letters, v_letters):
        for letters, owner in _strip_order(u_letters, v_letters):
            self.apply_word(letters, owner)
        self.move_to(BOB)

    def apply_word(self, letters, owner):
        self.move_to(owner)
        for letter in reversed(letters):
            if letter == "I":
                continue
            m = LETTER_MATRICES[letter]
            self.outer = m @ self.outer @ m.conj().T
            self.applied = m @ self.applied
            if not self._snap():
                self._burn()

    def _burn(self):
        self._hop()
        candidate = self.outer
        self._hop()
        self.outer = candidate.conj().T @ self.outer
        self.applied = candidate.conj().T @ self.applied
        self.burns += 1
        assert self._snap()


words = st.lists(st.sampled_from(("I", "H", "T", "Tdg")), max_size=40)


@settings(max_examples=60, deadline=None)
@given(
    t=st.integers(1, 3),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_table_chain_matches_the_dense_chain(t, data, seed):
    v_words = [GateWord.from_letters(data.draw(words)) for _ in range(t)]
    u_words = [GateWord.from_letters(data.draw(words)) for _ in range(t - 1)]
    u_letters = [w.letters for w in u_words]
    v_letters = [w.letters for w in v_words]
    opening = haar_random_unitary(2, RngStream(seed, 1)).conj().T

    dense = DenseChain(rng=RngStream(seed, 0))
    dense.apply_exact(opening)
    dense.run(u_letters, v_letters)
    # one pair per hop: every move is one hop and every burn two
    hops = dense.moves + 2 * dense.burns
    ledger = EntanglementLedger(hops)
    table = _TableChain(rng=RngStream(seed, 0), ledger=ledger)
    table.run(u_letters, v_letters)

    assert ledger.consumed == hops
    assert table.transcript.alice == dense.alice
    assert table.transcript.bob == dense.bob
    residue = try_as_pauli(dense.outer)
    assert table.residue_x() == residue.x_bits[0]
    applied = table.frame @ _words_product(u_words, v_words) @ opening
    assert equal_up_to_phase(applied, dense.applied)

    replay = _TableChain(alice=dense.alice, bob=dense.bob)
    replay.run(u_letters, v_letters)
    assert replay.residue_x() == residue.x_bits[0]
