"""Entangled and unentangled coalition strategies against the basis game.

`FullTreeAttack` below is the depth-3 tree attack with every branch held in
one register, kept here as an oracle for the chain engine's realized-path
shortcut.
"""

import hashlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from qpv import gates
from qpv.attacks import (
    BreidbartAttack,
    CliffordAttack,
    LayoutAttack,
    PauliAttack,
    RandomGuessAttack,
    TreeAttack,
)
from qpv.attacks.base import decode_chain_answer
from qpv.attacks.basis import _pauli_key
from qpv.errors import StrategyError, ValidationError
from qpv.layout import CircuitLayout, LayoutGate, load_layout
from qpv.pauli import PauliOperator, random_clifford
from qpv.protocols import (
    BasisGameSpec,
    ChannelModel,
    DeliveredPayload,
    IPGameSpec,
    apply_channel,
    gen_basis_challenge,
    gen_ip_challenge,
    run_game,
)
from qpv.rng import RngStream
from qpv.statevec import (
    apply_unitary,
    bell_measurement,
    bell_pair,
    fidelity,
    measure_computational,
)

from oracles import partial_trace, phase_gate, single_gate_layout

CLEAN = ChannelModel()
# the layout of the benchmark's basis-layout-chain workload
CHAIN5 = Path(__file__).parent.parent / "perfbench" / "layouts" / "chain5.json"


def play(spec, attack, trials, seed=11):
    return run_game(spec, attack, CLEAN, trials, RngStream(seed, 0))


class FullTreeAttack(TreeAttack):
    """Depth-3 tree attack with every branch explicit in one 13-qubit register.

    Register labels at build time: 0 payload, (1, 2) the first round trip's
    outbound pair, (3, 4) its return pair, and (5+2s, 6+2s) the final bank
    pair for address s, the sender keeping the even-offset half. Bob applies
    the per-address correction inverse to all four bank halves and measures
    them all; only the slot matching Alice's first correction carries the
    payload. It shares TreeAttack's decoder, so equal records validate the
    lazy engine's uniform bits for the unselected slots.
    """

    def __init__(self, k: int = 3):
        if k != 3:
            raise ValidationError("the full-branch engine only supports depth 3")
        super().__init__(k)

    def new_trial(self, challenge, delivered, rng):
        self._check_challenge(challenge)
        trial = self.base_trial(challenge, delivered, rng)
        trial.alice["lost"] = delivered.lost
        u = challenge.v1_classical.unitary

        reg = delivered.states
        for _ in range(6):
            reg = reg.tensor(bell_pair())
        live = list(range(13))

        def pos(label: int) -> int:
            return live.index(label)

        def hop(a: int, b: int) -> PauliOperator:
            nonlocal reg
            corr, reg = bell_measurement(reg, pos(a), pos(b), rng)
            live.remove(a)
            live.remove(b)
            trial.ledger.spend(1)
            return corr

        sigma_a1 = hop(0, 1)
        reg = apply_unitary(reg, u.conj().T, [pos(2)])
        sigma_b1 = hop(2, 4)
        addresses = self._all_addresses()
        realized = addresses.index((_pauli_key(sigma_a1),))
        sigma_a2 = hop(3, 5 + 2 * realized)

        for s, address in enumerate(addresses):
            x_bits, z_bits = address[0]
            candidate = (
                sigma_b1.matrix()
                @ u.conj().T
                @ PauliOperator(x_bits, z_bits, 0).matrix()
                @ u
            )
            reg = apply_unitary(reg, candidate.conj().T, [pos(6 + 2 * s)])
        # the realized slot is pure here (its Bell partner is consumed), so
        # its reduced matrix is the same object the lazy engine measures
        trial.premeasure = partial_trace(
            np.outer(reg.amps, reg.amps.conj()), [pos(6 + 2 * realized)]
        )
        slots = {}
        for s, address in enumerate(addresses):
            (bit,), reg = measure_computational(reg, [pos(6 + 2 * s)], rng, drop=True)
            live.remove(6 + 2 * s)
            slots[address] = (int(bit),)

        trial.alice["sigmas"] = [sigma_a1, sigma_a2]
        trial.bob["sigmas"] = [sigma_b1]
        trial.bob["slots"] = slots
        return trial


def test_pauli_attack_breaks_pauli_family():
    stats = play(BasisGameSpec(4, "pauli"), PauliAttack(), 120)
    assert stats.win_rate == 1.0
    assert stats.reserved_epr == 0
    assert stats.mean_epr_consumed == 0.0


def test_pauli_attack_refuses_ip_challenges(rng):
    challenge = gen_ip_challenge(IPGameSpec(2, 1), rng)
    delivered = DeliveredPayload.pristine(challenge.quantum_payload, 2)
    with pytest.raises(ValidationError):
        PauliAttack().new_trial(challenge, delivered, rng)


def test_clifford_attack_breaks_clifford_family():
    for n in (1, 2):
        stats = play(BasisGameSpec(n, "clifford"), CliffordAttack(), 120)
        assert stats.win_rate == 1.0
        assert stats.reserved_epr == n
        assert stats.mean_epr_consumed == n


def test_clifford_attack_rejects_non_clifford_rotation(rng):
    # the stripped operator leaves the Pauli group whenever the teleport
    # correction anticommutes with T, so some trial in a batch must raise
    challenge = gen_basis_challenge(
        BasisGameSpec(1, "explicit", unitaries=(gates.T,)), rng
    )
    delivered = DeliveredPayload.pristine(challenge.quantum_payload, 1)
    with pytest.raises(StrategyError, match="not Pauli"):
        for i in range(12):
            CliffordAttack().run_trial(challenge, delivered, rng.substream(1 + i))


def tree_spec(*unitaries):
    return BasisGameSpec(1, "explicit", unitaries=tuple(unitaries))


def test_tree_attack_breaks_third_level_gates():
    rng = RngStream(3, 9)
    conjugated = tuple(
        c @ gates.T @ c.conj().T
        for c in (random_clifford(1, rng) for _ in range(3))
    )
    stats = play(
        tree_spec(gates.T, gates.H @ gates.T, *conjugated), TreeAttack(3), 150
    )
    assert stats.win_rate == 1.0
    assert stats.reserved_epr == 14
    # the realized path spends 1 pair hopping in and 2 on the burn round trip
    assert stats.mean_epr_consumed == 3.0


def test_tree_attack_depth_four():
    stats = play(tree_spec(phase_gate(3)), TreeAttack(4), 40)
    assert stats.win_rate == 1.0
    assert stats.reserved_epr == 58


def test_tree_attack_constructor_validation():
    with pytest.raises(ValidationError):
        TreeAttack(2)
    with pytest.raises(ValidationError):
        TreeAttack(5)


def test_tree_attack_rejects_out_of_level_rotation(rng):
    challenge = gen_basis_challenge(BasisGameSpec(1, "haar"), rng)
    delivered = DeliveredPayload.pristine(challenge.quantum_payload, 1)
    with pytest.raises(StrategyError, match="outside hierarchy level"):
        TreeAttack(3).new_trial(challenge, delivered, rng)


def test_tree_full_engine_matches_lazy_realized_path():
    """The lazy engine follows one branch; the full engine prepares every
    branch and keeps the one addressed by the realized corrections. Under
    the same random stream both must hold the same single-qubit state just
    before measuring, and answer identically."""
    lazy = TreeAttack(3)
    full = FullTreeAttack(3)
    gen_rng = RngStream(21, 4)
    for target in (gates.T, gates.H @ gates.T):
        challenge = gen_basis_challenge(tree_spec(target), gen_rng)
        delivered = DeliveredPayload.pristine(challenge.quantum_payload, 1)
        for seed in range(6):
            tl = lazy.new_trial(challenge, delivered, RngStream(seed, 2))
            tf = full.new_trial(challenge, delivered, RngStream(seed, 2))
            assert fidelity(tl.premeasure, tf.premeasure) > 1 - 1e-9
            yl = lazy.answer(tl)
            yf = full.answer(tf)
            assert yl == yf


def test_tree_full_engine_win_rate_matches():
    spec = tree_spec(gates.T)
    assert play(spec, FullTreeAttack(3), 60).win_rate == 1.0


def test_layout_attack_sequential_layers():
    layout = CircuitLayout(
        1,
        (
            (LayoutGate(gates.T, (0,), 3),),
            (LayoutGate(gates.H, (0,), 3),),
        ),
    )
    spec = BasisGameSpec(1, "layout", layout=layout)
    stats = play(spec, LayoutAttack(layout), 60)
    assert stats.win_rate == 1.0
    assert stats.reserved_epr == 196


def test_layout_attack_parallel_gates():
    layer = (LayoutGate(gates.T, (0,), 3), LayoutGate(gates.T, (1,), 3))
    layout = CircuitLayout(2, (layer,))
    spec = BasisGameSpec(2, "layout", layout=layout)
    stats = play(spec, LayoutAttack(layout), 60)
    assert stats.win_rate == 1.0
    assert stats.reserved_epr == 28


def test_layout_attack_strips_a_two_qubit_gate_on_reversed_targets():
    # control on qubit 1: the strip must embed the gate by its targets even
    # when it spans the whole register
    layout = CircuitLayout(
        2,
        (
            (LayoutGate(gates.T, (0,), 3), LayoutGate(gates.H, (1,), 2)),
            (LayoutGate(gates.CNOT, (1, 0), 2),),
        ),
    )
    stats = play(BasisGameSpec(2, "layout", layout=layout), LayoutAttack(layout), 60)
    assert stats.win_rate == 1.0


def test_layout_attack_single_gate_matches_tree():
    layout = single_gate_layout(gates.T, 3)
    stats = play(
        BasisGameSpec(1, "layout", layout=layout), LayoutAttack(layout), 60
    )
    assert stats.win_rate == 1.0
    assert stats.reserved_epr == 14


def test_breidbart_intermediate_basis_error_rate():
    # cos^2(pi/8) overlap with both encodings: error sin^2(pi/8) = 0.1464
    stats = play(BasisGameSpec(4000, "bb84"), BreidbartAttack(), 1)
    assert stats.reserved_epr == 0
    rate = stats.mean_error_count / 4000
    assert abs(rate - 0.1464) < 0.02


def test_random_guess_error_rate():
    stats = play(BasisGameSpec(4000, "bb84"), RandomGuessAttack(), 1)
    rate = stats.mean_error_count / 4000
    assert abs(rate - 0.5) < 0.03
    # both parties emit the same pre-agreed string, so they never split
    assert stats.win_rate == 0.0


def test_random_guess_answers_always_agree(rng):
    challenge = gen_basis_challenge(BasisGameSpec(6, "haar"), rng)
    delivered = DeliveredPayload.pristine(challenge.quantum_payload, 6)
    outcome = RandomGuessAttack().run_trial(challenge, delivered, rng)
    assert outcome.y_alice == outcome.y_bob
    assert outcome.epr_consumed == 0


def test_tree_full_engine_spends_the_realized_path():
    stats = play(tree_spec(gates.T), FullTreeAttack(3), 200, seed=13)
    assert stats.win_rate == 1.0
    assert stats.reserved_epr == 14
    assert stats.mean_epr_consumed == 3.0


def test_tree_attack_handles_gates_below_its_level():
    stats = play(tree_spec(gates.T, gates.H, np.eye(2)), TreeAttack(3), 300, seed=14)
    assert stats.win_rate == 1.0


def test_tree_attack_depth_four_on_the_pi_over_8_phase_gate():
    stats = play(tree_spec(phase_gate(4)), TreeAttack(4), 200, seed=15)
    assert stats.win_rate == 1.0
    assert stats.reserved_epr == 58
    # one hop in and two burn round trips
    assert stats.mean_epr_consumed == 5.0


def test_breidbart_error_rate_at_ten_thousand_qubits():
    stats = play(BasisGameSpec(10**4, "bb84"), BreidbartAttack(), 30, seed=18)
    assert abs(stats.mean_error_count / 10**4 - np.sin(np.pi / 8) ** 2) < 0.005


def test_breidbart_wins_above_its_error_rate():
    stats = play(BasisGameSpec(10**4, "bb84", 0.16), BreidbartAttack(), 30, seed=20)
    assert stats.win_rate == 1.0


def test_random_guess_error_rate_at_ten_thousand_qubits():
    stats = play(BasisGameSpec(10**4, "bb84"), RandomGuessAttack(), 30, seed=19)
    assert abs(stats.mean_error_count / 10**4 - 0.5) < 0.01


BASIS_STRATEGIES = {
    "pauli": lambda: (BasisGameSpec(3, "pauli"), PauliAttack()),
    "clifford": lambda: (BasisGameSpec(2, "clifford"), CliffordAttack()),
    "tree:3": lambda: (tree_spec(gates.T, gates.H @ gates.T), TreeAttack(3)),
    "tree:3-full": lambda: (tree_spec(gates.T), FullTreeAttack(3)),
    "layout": lambda: (
        BasisGameSpec(2, "layout", layout=load_layout(CHAIN5)),
        LayoutAttack(load_layout(CHAIN5)),
    ),
    "breidbart": lambda: (BasisGameSpec(8, "bb84"), BreidbartAttack()),
    "random-guess": lambda: (BasisGameSpec(8, "bb84"), RandomGuessAttack()),
}


@pytest.mark.parametrize("name", BASIS_STRATEGIES)
def test_answer_reads_only_the_exchanged_messages(name, answer_twice):
    spec, attack = BASIS_STRATEGIES[name]()
    some_lost = False
    for seed in range(6):
        (first, second), lost = answer_twice(attack, spec, seed)
        assert first == second
        some_lost |= bool(lost.any())
    # lost positions make with_fallback draw the pre-agreed bits
    assert some_lost


def test_chain_answer_replays_the_chain_once_per_trial():
    layout = load_layout(CHAIN5)
    spec = BasisGameSpec(2, "layout", layout=layout)
    with mock.patch(
        "qpv.attacks.basis.decode_chain_answer", wraps=decode_chain_answer
    ) as replay:
        stats = play(spec, LayoutAttack(layout), 200, seed=5)
    assert stats.win_rate == 1.0
    assert replay.call_count == 200


def chain_draws_digest(seed: int) -> str:
    """sha256 over 50 clean-channel trials of the CHAIN5 layout attack: each
    trial's hop corrections (Alice's, then Bob's), Bob's outcome and the
    answer."""
    layout = load_layout(CHAIN5)
    spec = BasisGameSpec(2, "layout", layout=layout)
    attack = LayoutAttack(layout)
    digest = hashlib.sha256()
    for i in range(50):
        rng = RngStream(seed, 0).substream(1 + i)
        challenge = gen_basis_challenge(spec, rng)
        state, lost = apply_channel(challenge.quantum_payload, CLEAN, rng)
        trial = attack.new_trial(challenge, DeliveredPayload(state, lost), rng)
        y = attack.answer(trial)
        for sigma in trial.alice["sigmas"] + trial.bob["sigmas"]:
            digest.update(bytes(sigma.x_bits + sigma.z_bits))
        digest.update(bytes(trial.bob["bits"]))
        digest.update(y.encode())
    return digest.hexdigest()


def test_layout_chain_keeps_its_draws():
    # the attack wins every trial at a fixed EPR count, so its record cannot
    # see a changed draw; this digest of the draws themselves can
    frozen = "546a4584b9cba67c2c5561d0e1a18363c9872be0f8dc3bff9c63473d1a862534"
    assert chain_draws_digest(5) == frozen
    assert chain_draws_digest(23) != frozen


def premeasure_digest(spec, attack, seed: int, trials: int = 60) -> str:
    """sha256 over `trials` trials at p_dep = 0.2: the live engine's register
    just before Bob measures (the amplitude bytes), Bob's outcome and the
    answer."""
    channel = ChannelModel(p_dep=0.2)
    digest = hashlib.sha256()
    for i in range(trials):
        rng = RngStream(seed, 0).substream(1 + i)
        challenge = gen_basis_challenge(spec, rng)
        state, lost = apply_channel(challenge.quantum_payload, channel, rng)
        trial = attack.new_trial(challenge, DeliveredPayload(state, lost), rng)
        y = attack.answer(trial)
        digest.update(trial.premeasure.amps.tobytes())
        digest.update(bytes(attack._measured(trial)))
        digest.update(y.encode())
    return digest.hexdigest()


def test_chain_keeps_its_premeasure_float_bits():
    # every float the live chain computes reaches the measured register, so
    # a change to the order of any product shows here though no answer moves
    layout = load_layout(CHAIN5)
    chain5 = premeasure_digest(
        BasisGameSpec(2, "layout", layout=layout), LayoutAttack(layout), 5
    )
    tree4 = premeasure_digest(tree_spec(phase_gate(4)), TreeAttack(4), 5)
    assert chain5 == (
        "b5b69267fa2eaddb0399878d2308b5df0d2729d6f4807d26f98c3443ebcf993c"
    )
    assert tree4 == (
        "ad638a09b01029b891c331920aa25f417f624900b062cdc6893e670784a79ef9"
    )


