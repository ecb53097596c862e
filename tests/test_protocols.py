"""Game specs, challenge generation, channels, verification, and run_game."""

import gc
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from qpv import gates, protocols
from qpv.attacks import strategy_from_name
from qpv.errors import ResourceError, ValidationError
from qpv.pauli import try_as_pauli
from qpv.protocols import (
    BLOCK_QUBITS,
    BasisGameSpec,
    ChannelModel,
    DeliveredPayload,
    HonestProver,
    IPGameSpec,
    TrialOutcome,
    apply_channel,
    gen_basis_challenge,
    gen_ip_block,
    gen_ip_challenge,
    interleave,
    run_game,
    verify_basis,
    verify_ip,
)
from qpv.rng import RngStream
from qpv.statevec import (
    QubitArray,
    StateVector,
    haar_qubit_batch,
    qubit_phase_distances,
)

from oracles import noiseless, phase_invariant_distance, qubit, single_gate_layout


def test_basis_spec_validation():
    with pytest.raises(ValidationError):
        BasisGameSpec(0, "haar")
    with pytest.raises(ValidationError):
        BasisGameSpec(2, "fourier")
    with pytest.raises(ValidationError):
        BasisGameSpec(2, "haar", eta=1.5)
    with pytest.raises(ValidationError):
        BasisGameSpec(2, "explicit")
    with pytest.raises(ValidationError):
        BasisGameSpec(2, "explicit", unitaries=(gates.T,))
    with pytest.raises(ValidationError):
        BasisGameSpec(2, "layout")
    with pytest.raises(ValidationError):
        BasisGameSpec(2, "layout", layout=single_gate_layout(gates.T, 3))


@pytest.mark.parametrize("family", ["explicit", "pauli", "clifford", "haar", "layout"])
def test_basis_spec_refuses_a_dense_game_past_desk_scale(family):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            BasisGameSpec(protocols.MAX_DENSE_QUBITS + 1, family)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a 13-qubit state vector alone would take 128 KiB
    assert peak < 64 * 1024


def test_bb84_games_run_at_ten_thousand_qubits():
    spec = BasisGameSpec(10_000, "bb84")
    stats = run_game(spec, HonestProver(), ChannelModel(), 3, RngStream(71, 0))
    assert stats.win_rate == 1.0


def test_ip_spec_and_channel_validation():
    with pytest.raises(ValidationError):
        IPGameSpec(0, 1)
    with pytest.raises(ValidationError):
        IPGameSpec(2, 0)
    with pytest.raises(ValidationError):
        IPGameSpec(2, 1, eta_err=-0.1)
    with pytest.raises(ValidationError):
        ChannelModel(p_loss=2.0)
    assert noiseless(ChannelModel())
    assert not noiseless(ChannelModel(p_dep=0.1))


def test_basis_challenge_haar_payload(rng):
    spec = BasisGameSpec(3, "haar")
    challenge = gen_basis_challenge(spec, rng)
    x = challenge.secret.x
    assert len(x) == 3 and all(b in (0, 1) for b in x)
    expected = challenge.secret.unitary[:, int("".join(map(str, x)), 2)]
    assert np.allclose(challenge.quantum_payload.amps, expected)
    assert challenge.v1_classical.unitary is challenge.secret.unitary


def test_basis_challenge_pauli_family_is_pauli(rng):
    spec = BasisGameSpec(2, "pauli")
    for _ in range(5):
        challenge = gen_basis_challenge(spec, rng)
        assert try_as_pauli(challenge.v1_classical.unitary) is not None


def test_basis_challenge_bb84_uses_letters(rng):
    spec = BasisGameSpec(4, "bb84")
    challenge = gen_basis_challenge(spec, rng)
    assert isinstance(challenge.quantum_payload, QubitArray)
    letters = challenge.v1_classical.letters
    assert len(letters) == 4 and set(letters) <= {"I", "H"}
    for q, letter in enumerate(letters):
        amps = qubit(challenge.quantum_payload, q).amps
        column = (gates.H if letter == "H" else gates.I2)[:, challenge.secret.x[q]]
        assert np.allclose(amps, column)


def test_basis_challenge_explicit_and_layout(rng):
    chosen = gen_basis_challenge(
        BasisGameSpec(1, "explicit", unitaries=(gates.H,)), rng
    )
    assert np.allclose(chosen.secret.unitary, gates.H)
    layout = single_gate_layout(gates.T, 3)
    placed = gen_basis_challenge(BasisGameSpec(1, "layout", layout=layout), rng)
    assert np.allclose(placed.secret.unitary, gates.T)
    assert placed.v1_classical.layout is layout


def test_ip_challenge_product_closes(rng):
    spec = IPGameSpec(3, 2)
    challenge = gen_ip_challenge(spec, rng)
    rebuilt = interleave(
        challenge.v0_classical.factors, challenge.v1_classical.factors
    )[0]
    assert phase_invariant_distance(rebuilt, challenge.secret.unitary[0]) < 1e-9
    for q in range(3):
        column = challenge.secret.unitary[0][:, challenge.secret.x[q]]
        assert np.allclose(qubit(challenge.quantum_payload, q).amps, column)


def test_ip_challenge_per_qubit_unitaries(rng):
    spec = IPGameSpec(3, 2, per_qubit_unitaries=True)
    challenge = gen_ip_challenge(spec, rng)
    assert challenge.v0_classical.factors.shape == (2, 3, 2, 2)
    assert challenge.secret.unitary.shape == (3, 2, 2)
    for q in range(3):
        rebuilt = interleave(
            challenge.v0_classical.factors, challenge.v1_classical.factors
        )[q]
        assert phase_invariant_distance(rebuilt, challenge.secret.unitary[q]) < 1e-9


def _reconstruct_oracle(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u_1 v_1 ... u_t v_t for one copy's (t, 2, 2) factor stacks, one 2x2
    product at a time: the per-qubit reconstruction `interleave` replaced."""
    out = np.eye(2, dtype=np.complex128)
    for i in range(u.shape[0]):
        out = out @ u[i] @ v[i]
    return out


@pytest.mark.parametrize("t", [1, 2, 3, 5])
@pytest.mark.parametrize("copies", [1, 7])
def test_interleave_matches_the_per_copy_oracle(t, copies):
    rng = RngStream(61, t)
    draws = np.stack([haar_qubit_batch(copies, rng) for _ in range(2 * t)])
    u, v = draws[:t], draws[t:]
    product = interleave(u, v)
    assert product.shape == (copies, 2, 2)
    for c in range(copies):
        assert np.array_equal(product[c], _reconstruct_oracle(u[:, c], v[:, c]))


@pytest.mark.parametrize("t", [1, 2, 3, 5])
@pytest.mark.parametrize("per_qubit", [False, True], ids=["shared", "per-qubit"])
def test_ip_challenge_keeps_one_layout(t, per_qubit):
    n = 9
    spec = IPGameSpec(n, t, per_qubit_unitaries=per_qubit)
    challenge = gen_ip_challenge(spec, RngStream(67, t))
    copies = n if per_qubit else 1
    u, v = challenge.v0_classical.factors, challenge.v1_classical.factors
    assert u.shape == v.shape == (t, copies, 2, 2)
    target = challenge.secret.unitary
    assert target.shape == (copies, 2, 2)
    x = challenge.secret.x
    for q in range(n):
        c = q if per_qubit else 0
        # the payload row is the target's column x_q, bit for bit
        assert np.array_equal(
            challenge.quantum_payload.amps[q], target[c][:, x[q]]
        )
        rebuilt = _reconstruct_oracle(u[:, c], v[:, c])
        assert phase_invariant_distance(rebuilt, target[c]) < 1e-9


def _per_trial_challenge(spec: IPGameSpec, rng: RngStream):
    """One trial's IP challenge drawn and closed on its own: the per-trial
    reference for `gen_ip_block`."""
    x = rng.bits(spec.n)
    copies = spec.n if spec.per_qubit_unitaries else 1
    draws = np.stack([haar_qubit_batch(copies, rng) for _ in range(2 * spec.t)])
    target = draws[0]
    u = draws[1::2].copy()
    v = np.empty_like(u)
    v[:-1] = draws[2::2]
    prefix = interleave(u[:-1], v[:-1]) @ u[-1]
    v[-1] = np.conj(np.swapaxes(prefix, -1, -2)) @ target
    assert np.all(qubit_phase_distances(target, prefix @ v[-1]) <= 1e-9)
    columns = np.take(
        np.swapaxes(target, -1, -2).reshape(-1, 2), x + 2 * np.arange(copies), axis=0
    )
    return x, target, u, v, columns


def _challenge_arrays(challenge):
    return (
        challenge.secret.x,
        challenge.secret.unitary,
        challenge.v0_classical.factors,
        challenge.v1_classical.factors,
        challenge.quantum_payload.amps,
    )


@pytest.mark.parametrize("t", [1, 2, 3, 5])
@pytest.mark.parametrize("per_qubit", [False, True], ids=["shared", "per-qubit"])
@pytest.mark.parametrize("n", [1, 4, 7])
def test_blocked_challenges_equal_per_trial_ones(n, t, per_qubit):
    spec = IPGameSpec(n, t, per_qubit_unitaries=per_qubit)
    trials = 6
    streams = [RngStream(71, 0).substream(1 + i) for i in range(trials)]
    block = gen_ip_block(spec, streams)
    assert len(block) == trials
    for i, row in enumerate(block):
        alone = RngStream(71, 0).substream(1 + i)
        reference = _per_trial_challenge(spec, alone)
        one = RngStream(71, 0).substream(1 + i)
        challenge = _challenge_arrays(gen_ip_challenge(spec, one))
        for got, single, want in zip(row, challenge, reference):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert np.array_equal(single, want)
        # the trial's stream goes on from where its own challenge left it
        assert streams[i].random() == alone.random() == one.random()


def _per_trial_rows(spec, actor, channel, trials, rng):
    """run_game's rows from one trial at a time, each challenge made alone."""
    rows = []
    for i in range(trials):
        rng_i = rng.substream(1 + i)
        x, target, u, v, columns = _per_trial_challenge(spec, rng_i)
        challenge = gen_ip_challenge(spec, None, (x, target, u, v, columns))
        if channel is None:
            delivered = DeliveredPayload.pristine(challenge.quantum_payload, spec.n)
        else:
            delivered = DeliveredPayload(
                *apply_channel(challenge.quantum_payload, channel, rng_i)
            )
        outcome = actor.run_trial(challenge, delivered, rng_i)
        verdict = verify_ip(
            x, outcome.y_alice, outcome.y_bob, spec.eta_err, spec.eta_loss
        )
        counts = (verdict.error_count, verdict.loss_count, outcome.epr_consumed)
        rows.append((i, verdict.accepted, *counts))
    return tuple(rows)


@pytest.mark.parametrize("mode", ["serial", "bank"])
@pytest.mark.parametrize(
    "blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)],
    ids=["1", "B-1", "B", "B+1", "2B+1"],
)
def test_run_game_rows_match_per_trial_play_across_blocks(blocks, extra, mode):
    spec = IPGameSpec(4, 2, eta_err=0.5, eta_loss=0.5)
    trials = blocks * (BLOCK_QUBITS // spec.n) + extra
    # bank mode delivers the payload through no channel
    channel = None if mode == "bank" else ChannelModel(p_loss=0.1, p_dep=0.1)
    actor = strategy_from_name("pbt:4,4,4")
    stats = run_game(spec, actor, channel, trials, RngStream(73, 0))
    want = _per_trial_rows(spec, actor, channel, trials, RngStream(73, 0))
    assert stats.trial_rows == want


@pytest.mark.parametrize("per_qubit", [False, True], ids=["shared", "per-qubit"])
def test_pbt_rows_do_not_depend_on_the_block_size(per_qubit, monkeypatch):
    spec = IPGameSpec(4, 2, eta_err=0.5, eta_loss=0.5, per_qubit_unitaries=per_qubit)
    channel = ChannelModel(p_loss=0.1, p_dep=0.1)
    actor = strategy_from_name("pbt:4,4,4")
    # blocks of 1, 32 and 256 trials; 275 is a multiple of none but the first
    rows = []
    for budget in (4, 128, 1024):
        monkeypatch.setattr(protocols, "BLOCK_QUBITS", budget)
        rows.append(run_game(spec, actor, channel, 275, RngStream(79, 0)).trial_rows)
    assert rows[0] == rows[1] == rows[2]
    # losses, errors and wins all occur, so the rows tell the sizes apart
    assert {row[1] for row in rows[0]} == {False, True}
    assert any(row[3] for row in rows[0])


def test_apply_channel_loss_marks_all(rng):
    state = StateVector.from_bits((0, 1))
    _, lost = apply_channel(state, ChannelModel(p_loss=1.0), rng)
    assert lost.tolist() == [True, True]
    _, kept = apply_channel(state, ChannelModel(), rng)
    assert kept.tolist() == [False, False]


def test_apply_channel_depolarizing_flip_rate(rng):
    # a uniform Pauli flips a computational-basis qubit half the time
    trials = 4000
    array = QubitArray.from_bits((0,) * trials)
    noisy, lost = apply_channel(array, ChannelModel(p_dep=0.4), rng)
    assert not any(lost)
    flips = int(np.sum(noisy.measure_all(rng)))
    assert abs(flips / trials - 0.2) < 0.025


# the channel as it once was: every qubit rotated by a dense (n, 2, 2) stack,
# the identity on each qubit the channel does not depolarize
_DENSE_PAULIS = np.stack([gates.I2, gates.X, gates.Y, gates.Z])


def _dense_channel(state, channel, rng):
    n = state.num_qubits
    lost = rng.random(n) < channel.p_loss
    dep = ~lost & (rng.random(n) < channel.p_dep)
    which = rng.integers(4, size=n)
    if dep.any():
        state = state._apply_each(
            np.take(_DENSE_PAULIS, np.where(dep, which, 0), axis=0)
        )
    return state, lost


@pytest.mark.parametrize("per_qubit", [False, True], ids=["shared", "per-qubit"])
@pytest.mark.parametrize("p_loss", [0.0, 0.3])
@pytest.mark.parametrize("p_dep", [0.0, 0.02, 0.5, 1.0])
@pytest.mark.parametrize("n", [1, 7, 10_000])
def test_channel_equals_the_dense_per_qubit_pass(n, p_dep, p_loss, per_qubit):
    spec = IPGameSpec(n, 2, per_qubit_unitaries=per_qubit)
    payload = gen_ip_challenge(spec, RngStream(79, 1)).quantum_payload
    sent = payload.amps.copy()
    channel = ChannelModel(p_loss=p_loss, p_dep=p_dep)
    live, ref = RngStream(79, 2), RngStream(79, 2)
    state, lost = apply_channel(payload, channel, live)
    want, want_lost = _dense_channel(payload, channel, ref)
    assert np.array_equal(state.amps, want.amps)
    assert np.array_equal(lost, want_lost)
    assert live.random() == ref.random()
    assert np.array_equal(payload.amps, sent)


@pytest.mark.parametrize("bad", [1.0 + 1e-6, float("nan")], ids=["off-norm", "nan"])
@pytest.mark.parametrize("per_qubit", [False, True], ids=["shared", "per-qubit"])
def test_ip_block_checks_the_target_columns(monkeypatch, per_qubit, bad):
    real = protocols.haar_from_normals

    def spoiled(normals):
        draws = real(normals)
        # the last copy's target (draw 0 of each trial), first column only
        draws[:, 0, -1, :, 0] *= bad
        return draws

    monkeypatch.setattr(protocols, "haar_from_normals", spoiled)
    spec = IPGameSpec(5, 2, per_qubit_unitaries=per_qubit)
    streams = [RngStream(83, 0).substream(1 + i) for i in range(3)]
    with pytest.raises(ValidationError, match="target columns must have unit norm"):
        gen_ip_block(spec, streams)


def test_verify_basis_inclusive_threshold():
    x = (0, 0, 0, 0)
    ok = verify_basis(x, "0001", "0001", eta=0.25)
    assert ok.accepted and ok.error_count == 1
    over = verify_basis(x, "0011", "0011", eta=0.25)
    assert not over.accepted and over.error_count == 2
    split = verify_basis(x, "0000", "0001", eta=0.25)
    assert not split.accepted and split.answers_equal is False
    with pytest.raises(ValidationError):
        verify_basis(x, "000", "000", eta=0.0)
    with pytest.raises(ValidationError):
        verify_basis(x, "00-0", "00-0", eta=0.0)


def test_verify_ip_strict_thresholds():
    x = (0, 0, 0, 0)
    # a zero count always passes, even at a zero threshold
    clean = verify_ip(x, "0000", "0000", eta_err=0.0, eta_loss=0.0)
    assert clean.accepted
    # strict: exactly eta*n errors is a rejection
    edge = verify_ip(x, "0001", "0001", eta_err=0.25, eta_loss=0.0)
    assert not edge.accepted and edge.error_count == 1
    under = verify_ip(x, "0001", "0001", eta_err=0.5, eta_loss=0.0)
    assert under.accepted
    lossy = verify_ip(x, "00-0", "00-0", eta_err=0.0, eta_loss=0.5)
    assert lossy.accepted and lossy.loss_count == 1
    drowned = verify_ip(x, "0--0", "0--0", eta_err=0.0, eta_loss=0.5)
    assert not drowned.accepted and drowned.loss_count == 2


def test_honest_prover_wins_clean_games(rng):
    for spec in (
        BasisGameSpec(3, "haar"),
        BasisGameSpec(4, "bb84"),
        BasisGameSpec(2, "clifford"),
    ):
        stats = run_game(spec, HonestProver(), ChannelModel(), 40, rng)
        assert stats.win_rate == 1.0, spec.family
    ip = run_game(IPGameSpec(3, 2), HonestProver(), ChannelModel(), 40, rng)
    assert ip.win_rate == 1.0
    assert ip.reserved_epr == 0 and ip.mean_epr_consumed == 0.0


def test_honest_prover_marks_lost_ip_qubits(rng):
    spec = IPGameSpec(4, 1)
    challenge = gen_ip_challenge(spec, rng)
    delivered = DeliveredPayload(challenge.quantum_payload, (True, False, True, False))
    outcome = HonestProver().run_trial(challenge, delivered, rng)
    assert outcome.y_alice[0] == "-" and outcome.y_alice[2] == "-"
    assert outcome.y_alice[1] in "01"


def test_honest_prover_guesses_lost_basis_qubits(rng):
    spec = BasisGameSpec(2, "haar", eta=1.0)
    stats = run_game(spec, HonestProver(), ChannelModel(p_loss=1.0), 60, rng)
    # guesses are uniform, so with eta=1 every trial still passes
    assert stats.win_rate == 1.0
    assert 0.2 < stats.mean_error_count / 2 < 0.8


def test_bank_mode_skips_the_channel(rng):
    spec = IPGameSpec(2, 1)
    banked = run_game(spec, HonestProver(), None, 50, rng)
    assert banked.win_rate == 1.0
    shipped = run_game(spec, HonestProver(), ChannelModel(p_loss=1.0), 50, rng)
    assert shipped.win_rate == 0.0


def test_run_game_deterministic_and_thread_independent():
    spec = BasisGameSpec(3, "haar", eta=0.4)
    channel = ChannelModel(p_loss=0.1, p_dep=0.1)

    def play():
        return run_game(spec, HonestProver(), channel, 60, RngStream(77, 0))

    base = play()
    assert base == play()
    # no draw depends on the thread that runs the game
    other = []
    worker = threading.Thread(target=lambda: other.append(play()))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert other == [base]
    assert len(base.trial_rows) == 60
    assert base.trial_rows[0][0] == 0


def test_run_game_rejects_inconsistent_ledger(rng):
    class FlakyLedger:
        name = "flaky"

        def __init__(self):
            self.calls = 0

        def run_trial(self, challenge, delivered, trial_rng):
            self.calls += 1
            y = "".join(str(b) for b in challenge.secret.x)
            return TrialOutcome(y, y, 0, self.calls % 2)

    with pytest.raises(ValidationError, match="inconsistent reserved"):
        run_game(BasisGameSpec(2, "haar"), FlakyLedger(), ChannelModel(), 4, rng)


def test_a_finished_trial_leaves_only_its_row():
    # each outcome holds its n-character answers, so none may outlive its trial
    class TrackedOutcome(TrialOutcome):
        pass

    class TrackingProver(HonestProver):
        def __init__(self):
            self.outcomes = []
            self.alive = []

        def run_trial(self, challenge, delivered, trial_rng):
            gc.collect()
            self.alive.append(sum(ref() is not None for ref in self.outcomes))
            outcome = TrackedOutcome(
                **vars(super().run_trial(challenge, delivered, trial_rng))
            )
            self.outcomes.append(weakref.ref(outcome))
            return outcome

    prover = TrackingProver()
    stats = run_game(IPGameSpec(50, 2), prover, ChannelModel(), 6, RngStream(5, 0))
    assert prover.alive == [0] * 6
    assert stats.wins == 6
    assert [row[0] for row in stats.trial_rows] == list(range(6))


def test_run_game_argument_validation(rng):
    spec = BasisGameSpec(2, "haar")
    with pytest.raises(ValidationError):
        run_game(spec, HonestProver(), ChannelModel(), 0, rng)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_apply_channel_returns_the_loss_draw_as_a_bool_array(seed):
    n = 500
    state = QubitArray.from_bits(np.zeros(n, dtype=np.uint8))
    channel = ChannelModel(p_loss=0.3, p_dep=0.2)
    _, lost = apply_channel(state, channel, RngStream(seed, 4))
    # the first draw of the stream decides loss, qubit by qubit
    expected = tuple(bool(b) for b in RngStream(seed, 4).random(n) < channel.p_loss)
    assert lost.dtype == np.bool_ and lost.shape == (n,)
    assert tuple(lost.tolist()) == expected
    _, lost_dense = apply_channel(StateVector.from_bits((0, 1, 1)), channel, RngStream(seed, 4))
    assert lost_dense.dtype == np.bool_ and lost_dense.shape == (3,)


def test_pristine_delivery_loses_nothing(rng):
    challenge = gen_ip_challenge(IPGameSpec(7, 1), rng)
    lost = DeliveredPayload.pristine(challenge.quantum_payload, 7).lost
    assert lost.dtype == np.bool_ and lost.shape == (7,) and not lost.any()


def test_ip_challenge_secret_is_a_bit_array(rng):
    x = gen_ip_challenge(IPGameSpec(50, 2), rng).secret.x
    assert x.dtype == np.uint8 and x.shape == (50,) and set(x.tolist()) <= {0, 1}


def test_honest_ip_answer_renders_the_measured_bits():
    n = 64
    challenge = gen_ip_challenge(IPGameSpec(n, 2), RngStream(9, 0))
    mask = np.arange(n) % 5 == 2
    tuple_mask = tuple(bool(b) for b in mask)
    answer = HonestProver().run_trial(
        challenge, DeliveredPayload(challenge.quantum_payload, mask), RngStream(9, 1)
    ).y_alice
    from_tuple = HonestProver().run_trial(
        challenge, DeliveredPayload(challenge.quantum_payload, tuple_mask), RngStream(9, 1)
    ).y_alice
    assert answer == from_tuple
    u = interleave(challenge.v0_classical.factors, challenge.v1_classical.factors)[0]
    bits = challenge.quantum_payload.apply_same(u.conj().T).measure_all(RngStream(9, 1))
    expected = "".join("-" if mask[q] else str(int(bits[q])) for q in range(n))
    assert answer == expected
    assert answer.count("-") == int(mask.sum())


def test_honest_bb84_prover_guesses_lost_qubits_in_order():
    n = 64
    challenge = gen_basis_challenge(BasisGameSpec(n, "bb84"), RngStream(4, 0))
    mask = np.arange(n) % 3 == 1
    answer = HonestProver().run_trial(
        challenge, DeliveredPayload(challenge.quantum_payload, mask), RngStream(4, 1)
    ).y_alice
    # the oracle: measure every qubit, then one scalar draw per lost qubit
    rng = RngStream(4, 1)
    mats = np.stack([gates.H if g == "H" else gates.I2 for g in challenge.v1_classical.letters])
    bits = [int(b) for b in challenge.quantum_payload.apply_each(mats).measure_all(rng)]
    for q in range(n):
        if mask[q]:
            bits[q] = int(rng.integers(2))
    assert answer == "".join(str(b) for b in bits)
