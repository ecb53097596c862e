"""Strategies against the interleaved-product game, and the name factory."""

import math
from unittest import mock

import numpy as np
import pytest

from qpv.attacks import (
    CliffordAttack,
    LossyConfidenceAttack,
    PauliAttack,
    PbtAttack,
    RandomBasisAttack,
    SkAttack,
    TreeAttack,
    strategy_from_name,
)
from qpv.attacks import ip as ip_module
from qpv.attacks.base import EntanglementLedger
from qpv.attacks.ip import _HOP_FAILED, _TableChain, _share_factors
from qpv import sk as sk_module
from qpv.costs import sk_cost
from qpv.errors import StrategyError, ValidationError
from qpv.protocols import (
    BasisGameSpec,
    ChannelModel,
    DeliveredPayload,
    IPGameSpec,
    apply_channel,
    gen_basis_challenge,
    gen_ip_block,
    gen_ip_challenge,
    run_game,
)
from qpv.rng import RngStream
from qpv.statevec import DensityMatrix, StateVector
from qpv.teleport import build_pbt_channel, pbt_teleport, pbt_teleport_density

from oracles import _run_qubit

CLEAN = ChannelModel()


def play(spec, attack, trials, seed=19):
    return run_game(spec, attack, CLEAN, trials, RngStream(seed, 0))


@pytest.fixture(scope="module")
def sk2():
    return SkAttack(2)


@pytest.fixture(scope="module")
def sk1():
    return SkAttack(1)


def test_pbt_attack_reserved_and_error_rate():
    stats = play(IPGameSpec(4, 1), PbtAttack((8,)), 80)
    assert stats.reserved_epr == 32
    # the whole port bank is committed up front
    assert stats.mean_epr_consumed == 32.0
    assert stats.mean_error_count / 4 <= 0.25


def test_pbt_attack_hop_count_must_match(rng):
    challenge = gen_ip_challenge(IPGameSpec(2, 2), rng)
    delivered = DeliveredPayload.pristine(challenge.quantum_payload, 2)
    with pytest.raises(ValidationError, match="2t-1"):
        PbtAttack((8,)).new_trial(challenge, delivered, rng)


def test_pbt_attack_constructor_validation():
    with pytest.raises(ValidationError):
        PbtAttack(())
    with pytest.raises(ValidationError):
        PbtAttack((8, 1))


def test_pbt_attack_refuses_basis_challenges(rng):
    challenge = gen_basis_challenge(BasisGameSpec(2, "haar"), rng)
    delivered = DeliveredPayload.pristine(challenge.quantum_payload, 2)
    with pytest.raises(ValidationError, match="interleaved-product"):
        PbtAttack((8,)).new_trial(challenge, delivered, rng)


def test_sk_attack_error_budget_and_ledger(sk2):
    spec = IPGameSpec(4, 1, eta_err=0.1)
    stats = play(spec, sk2, 24)
    # every emitted word is at most 14 * 5^2 letters after padding
    assert stats.reserved_epr == 4 * sk_cost(1, 14 * 25, semi_clifford=True).reserved_epr
    assert stats.mean_error_count / 4 <= 0.1
    assert stats.win_rate >= 0.5


def test_sk_attack_needs_an_error_allowance(sk2, rng):
    challenge = gen_ip_challenge(IPGameSpec(2, 1), rng)
    delivered = DeliveredPayload.pristine(challenge.quantum_payload, 2)
    with pytest.raises(StrategyError):
        sk2.new_trial(challenge, delivered, rng)


def test_sk_attack_calibrates_once_before_pooled_trials(monkeypatch):
    calls = []
    calibrate = sk_module._calibrate

    def counted(net):
        calls.append(net)
        return calibrate(net)

    monkeypatch.setattr(sk_module, "_calibrate", counted)
    # l0 = 11 has no pinned constants, so its net calibrates when built
    attack = SkAttack(1, l0=11)
    assert len(calls) == 1
    spec = IPGameSpec(2, 1, eta_err=0.5)
    stats = run_game(spec, attack, CLEAN, 4, RngStream(3, 0))
    assert stats.trials == 4
    assert len(calls) == 1


def test_sk_attack_depth_validation():
    with pytest.raises(ValidationError):
        SkAttack(-1)
    with pytest.raises(ValidationError):
        SkAttack(5)


def test_random_basis_quarter_error_rate():
    stats = play(IPGameSpec(4000, 1), RandomBasisAttack(), 1)
    assert stats.reserved_epr == 0
    assert abs(stats.mean_error_count / 4000 - 0.25) < 0.02


def test_random_basis_answers_agree(rng):
    challenge = gen_ip_challenge(IPGameSpec(8, 2), rng)
    delivered = DeliveredPayload.pristine(challenge.quantum_payload, 8)
    outcome = RandomBasisAttack().run_trial(challenge, delivered, rng)
    assert outcome.y_alice == outcome.y_bob
    assert outcome.epr_consumed == 0


def test_lossy_confidence_scales_error_mass():
    n = 2000
    for eta_loss in (0.2, 0.5):
        stats = play(IPGameSpec(n, 1, eta_loss=eta_loss), LossyConfidenceAttack(), 1)
        expected = (1.0 - eta_loss) / 4.0
        assert abs(stats.mean_error_count / n - expected) < 0.02
        # declares one empty fewer than the strict clause allows
        assert stats.mean_loss_count == float(math.ceil(eta_loss * n) - 1)


def test_lossy_confidence_uses_channel_losses_first():
    # error allowance comfortably above the (1 - eta_loss)/4 error mass
    spec = IPGameSpec(400, 1, eta_err=0.2, eta_loss=0.5)
    stats = run_game(
        spec,
        LossyConfidenceAttack(),
        ChannelModel(p_loss=0.1),
        4,
        RngStream(5, 0),
    )
    # channel losses fit inside the declared budget, so the clause holds
    assert stats.win_rate == 1.0
    assert stats.mean_loss_count == float(math.ceil(0.5 * 400) - 1)


@pytest.mark.parametrize("eta_loss, declared", [(0.27, 6), (0.28, 6)])
def test_lossy_confidence_budget_is_what_the_verifier_accepts(eta_loss, declared):
    # 0.28 * 25 = 7.000000000000001, which the 1e-9 guard reads as 7
    spec = IPGameSpec(25, 1, eta_err=0.5, eta_loss=eta_loss)
    stats = play(spec, LossyConfidenceAttack(), 200, seed=5)
    assert stats.mean_loss_count == declared
    assert stats.win_rate == 1.0


def test_strategy_factory_round_trip(tmp_path):
    assert isinstance(strategy_from_name("pauli"), PauliAttack)
    assert isinstance(strategy_from_name("clifford"), CliffordAttack)
    tree = strategy_from_name("tree:4")
    assert isinstance(tree, TreeAttack) and tree.k == 4
    pbt = strategy_from_name("pbt:8,6")
    assert isinstance(pbt, PbtAttack) and pbt.ports == (8, 6)
    assert isinstance(strategy_from_name("random-basis"), RandomBasisAttack)
    assert isinstance(strategy_from_name("lossy-confidence"), LossyConfidenceAttack)
    assert strategy_from_name("breidbart").name == "breidbart"
    assert strategy_from_name("random-guess").name == "random-guess"
    layout_doc = '{"n": 1, "layers": [[{"gate": "T", "targets": [0]}]]}'
    path = tmp_path / "single.json"
    path.write_text(layout_doc, encoding="utf-8")
    layout_attack = strategy_from_name(f"layout:{path}")
    assert layout_attack.name == "layout"


def test_strategy_factory_rejects_bad_names():
    with pytest.raises(ValidationError, match="unknown strategy"):
        strategy_from_name("mirror")
    with pytest.raises(ValidationError, match="malformed"):
        strategy_from_name("tree:three")
    with pytest.raises(ValidationError, match="malformed"):
        strategy_from_name("pbt:8,x")
    with pytest.raises(ValidationError, match="unknown strategy"):
        strategy_from_name("tree:")


def test_pbt_attack_three_hops():
    stats = play(IPGameSpec(2, 2, eta_err=0.5), PbtAttack((8, 8, 8)), 100, seed=12)
    assert stats.reserved_epr == 2 * (8 + 64 + 512)
    assert stats.mean_error_count / 2 <= 0.3


def _pbt_error_rate(ports) -> float:
    """Per-qubit error of the PBT attack on a clean channel."""
    channels = [build_pbt_channel(m) for m in ports]
    return 0.5 - 0.5 * math.prod((1 - c.completion_probability) * c.depolarizing for c in channels)


def test_pbt_attack_error_rate_is_exact():
    assert abs(_pbt_error_rate((8, 8, 8)) - 0.16521) < 5e-6
    n = 4
    for ports, t, trials, seed in (((8,), 1, 2000, 31), ((8, 8, 8), 2, 1000, 32)):
        e = _pbt_error_rate(ports)
        stats = play(IPGameSpec(n, t, eta_err=0.5), PbtAttack(ports), trials, seed=seed)
        # each qubit is wrong independently, so the count is Binomial(n, e)
        stderr = math.sqrt(n * e * (1 - e) / trials)
        assert abs(stats.mean_error_count - n * e) < 4 * stderr


def _pbt_block(spec, channel, trials, seed):
    """A block of PBT trials as `run_game` hands it over: challenges drawn as
    one block, each trial's channel applied on its own stream. Returns
    (challenges, delivered, streams, references): each reference is a second
    stream that has drawn the same challenge and channel, so it stands where
    its trial's stream stands when the actor starts."""
    streams = [RngStream(seed, 1 + i) for i in range(trials)]
    challenges = [
        gen_ip_challenge(spec, r, row) for r, row in zip(streams, gen_ip_block(spec, streams))
    ]
    delivered = [
        DeliveredPayload(*apply_channel(c.quantum_payload, channel, r))
        for c, r in zip(challenges, streams)
    ]
    references = []
    for i, payload in enumerate(delivered):
        ref = RngStream(seed, 1 + i)
        alone = gen_ip_challenge(spec, ref)
        state, lost = apply_channel(alone.quantum_payload, channel, ref)
        assert np.array_equal(state.amps, payload.states.amps)
        assert np.array_equal(lost, payload.lost)
        references.append(ref)
    return challenges, delivered, streams, references


def _block_pass(attack, challenges, delivered, streams, monkeypatch):
    """The block pass's trial states, and the P(1) of every survivor in
    (trial, qubit) order, taken from `_chain_p1` on the way."""
    seen = []
    chain_p1 = ip_module._chain_p1

    def spy(*args):
        seen.append(chain_p1(*args))
        return seen[-1]

    monkeypatch.setattr(ip_module, "_chain_p1", spy)
    trials = attack.new_trials(challenges, delivered, streams)
    return trials, (np.concatenate(seen) if seen else np.empty(0))


def _run_trials_by_qubit(run_qubit, attack, challenges, delivered, references):
    """Each trial's qubits run one at a time on its reference stream:
    (bits per trial, P(1) of every survivor in (trial, qubit) order)."""
    bits, survivors = [], []
    for challenge, payload, ref in zip(challenges, delivered, references):
        row = np.full(challenge.n, _HOP_FAILED, dtype=np.uint8)
        for q in np.flatnonzero(~np.asarray(payload.lost, dtype=bool)):
            row[q], p1 = run_qubit(attack, challenge, payload.states.amps[q], q, ref)
            if p1 is not None:
                survivors.append(p1)
        bits.append(row)
    return bits, np.array(survivors)


def _density_run_qubit(attack, challenge, amps, q, rng):
    """The PBT chain hop by hop on the receiver's density matrix: (bit, p1),
    p1 None when a hop failed. Oracle for the scalar-visibility run."""
    u = _share_factors(challenge.v0_classical, q)
    v = _share_factors(challenge.v1_classical, q)
    state = StateVector(u[0].conj().T @ amps)
    for h, m in enumerate(attack.ports):
        channel = build_pbt_channel(m)
        if isinstance(state, StateVector):
            res = pbt_teleport(state, channel, rng)
        else:
            res = pbt_teleport_density(state, channel, rng)
        if res.port is None:
            return _HOP_FAILED, None
        factor = v[h // 2] if h % 2 == 0 else u[h // 2 + 1]
        g = factor.conj().T
        state = DensityMatrix(g @ res.receiver.mat @ g.conj().T)
    p1 = float(state.mat[1, 1].real)
    return int(rng.random() < min(max(p1, 0.0), 1.0)), p1


def _assert_streams_agree(streams, references):
    """Both sides drew as many uniforms from every trial's stream."""
    for rng, ref in zip(streams, references):
        assert rng.random() == ref.random()


@pytest.mark.parametrize(
    "ports, t", [((8, 8, 8), 2), ((4, 6, 8, 4, 8), 3)], ids=["pbt-8-8-8", "pbt-4-6-8-4-8"]
)
def test_pbt_run_matches_the_density_matrix_oracle(ports, t, monkeypatch):
    spec = IPGameSpec(50, t, eta_err=0.5, per_qubit_unitaries=True)
    attack = PbtAttack(ports)
    block = _pbt_block(spec, ChannelModel(p_loss=0.1, p_dep=0.1), 40, seed=47)
    challenges, delivered, streams, references = block
    trials, p1 = _block_pass(attack, challenges, delivered, streams, monkeypatch)
    want_bits, want_p1 = _run_trials_by_qubit(
        _density_run_qubit, attack, challenges, delivered, references
    )
    for trial, want in zip(trials, want_bits):
        assert np.array_equal(trial.bob["bits"], want)
    assert p1.shape == want_p1.shape
    assert np.max(np.abs(p1 - want_p1)) < 1e-12
    _assert_streams_agree(streams, references)
    # both outcomes, failed hops and lost qubits all occur
    assert {0, 1, _HOP_FAILED} <= set(np.concatenate(want_bits).tolist())
    assert any(np.any(d.lost) for d in delivered)


@pytest.mark.parametrize("per_qubit", [False, True], ids=["shared", "per-qubit"])
@pytest.mark.parametrize(
    "ports, t", [((8, 8, 8), 2), ((2, 2, 2), 2), ((4, 6, 8, 4, 8), 3)],
    ids=["pbt-8-8-8", "pbt-2-2-2", "pbt-4-6-8-4-8"],
)
def test_pbt_block_pass_keeps_every_bit_of_the_per_qubit_chain(
    ports, t, per_qubit, monkeypatch
):
    spec = IPGameSpec(16, t, eta_err=0.5, per_qubit_unitaries=per_qubit)
    attack = PbtAttack(ports)
    block = _pbt_block(spec, ChannelModel(p_loss=0.2, p_dep=0.1), 24, seed=61)
    challenges, delivered, streams, references = block
    trials, p1 = _block_pass(attack, challenges, delivered, streams, monkeypatch)
    want_bits, want_p1 = _run_trials_by_qubit(
        _run_qubit, attack, challenges, delivered, references
    )
    for trial, want in zip(trials, want_bits):
        assert np.array_equal(trial.bob["bits"], want)
    assert p1.tolist() == want_p1.tolist()
    _assert_streams_agree(streams, references)
    assert {0, 1, _HOP_FAILED} <= set(np.concatenate(want_bits).tolist())
    assert any(np.any(d.lost) for d in delivered)


def test_sk_attack_undoes_an_x_type_residue():
    # depth-0 words are short enough that the replayed chain often ends on
    # an X-type Pauli, whose bit the decode must flip back; every word lands
    # within the 0.25 budget, so a qubit is wrong with probability <= 0.0625
    n, trials = 4, 100
    stats = play(IPGameSpec(n, 1, eta_err=0.5), SkAttack(0), trials, seed=33)
    bound = 0.25**2
    assert stats.mean_error_count / n < bound + 4 * math.sqrt(bound * (1 - bound) / (n * trials))


def test_sk_attack_wins_every_trial(sk2):
    stats = play(IPGameSpec(4, 1, eta_err=0.1), sk2, 200, seed=13)
    assert stats.reserved_epr == 4 * 2 ** (4 * sk2.word_cap)
    assert stats.mean_error_count / 4 <= 0.1
    assert stats.win_rate == 1.0


def test_sk_attack_chains_two_factor_pairs(sk2):
    stats = play(IPGameSpec(2, 2, eta_err=0.2), sk2, 50, seed=14)
    assert stats.mean_error_count / 2 <= 0.1


def test_random_basis_correct_fraction_at_ten_thousand_qubits():
    stats = play(IPGameSpec(10**4, 2, eta_err=0.3), RandomBasisAttack(), 3, seed=15)
    assert abs(1.0 - stats.mean_error_count / 10**4 - 0.75) < 0.015


@pytest.mark.parametrize("eta_loss", [0.2, 0.5])
def test_lossy_confidence_error_fraction_at_ten_thousand_qubits(eta_loss):
    spec = IPGameSpec(10**4, 2, eta_err=0.3, eta_loss=eta_loss)
    stats = play(spec, LossyConfidenceAttack(), 3, seed=16)
    assert abs(stats.mean_error_count / 10**4 - (1 - eta_loss) / 4) < 0.02


@pytest.mark.parametrize(
    "eta_loss, attack",
    [
        pytest.param(0.0, RandomBasisAttack(), id="random-basis"),
        pytest.param(0.2, LossyConfidenceAttack(), id="lossy-confidence"),
    ],
)
@pytest.mark.parametrize("margin", [0.03, -0.03], ids=["above", "below"])
def test_non_entangled_threshold_sits_at_a_quarter(eta_loss, attack, margin):
    # eta_err + eta_loss / 4 = 1/4 separates winning from losing
    eta_err = 0.25 + margin - eta_loss / 4
    spec = IPGameSpec(10**4, 2, eta_err=eta_err, eta_loss=eta_loss)
    stats = play(spec, attack, 20, seed=17)
    if margin > 0:
        assert stats.win_rate >= 0.95
    else:
        assert stats.win_rate <= 0.05


def test_lossy_confidence_wins_under_channel_loss_at_ten_thousand_qubits():
    spec = IPGameSpec(10**4, 1, eta_err=0.3, eta_loss=0.2)
    stats = run_game(
        spec, LossyConfidenceAttack(), ChannelModel(p_loss=0.1), 3, RngStream(18, 0)
    )
    assert stats.win_rate == 1.0


@pytest.mark.parametrize("name", ["pbt:8", "sk:1", "random-basis", "lossy-confidence"])
def test_answer_reads_only_the_exchanged_messages(name, request, answer_twice):
    attack = request.getfixturevalue("sk1") if name == "sk:1" else strategy_from_name(name)
    # sk:1 words land within 0.15 of each factor inverse, inside eta_err / 2
    spec = IPGameSpec(8, 1, eta_err=0.3, eta_loss=0.3)
    some_lost = False
    for seed in range(4):
        (first, second), lost = answer_twice(attack, spec, seed)
        assert first == second
        some_lost |= bool(lost.any())
    # lost positions make with_fallback and the lossy drop mask draw
    assert some_lost


@pytest.mark.parametrize("party", ["alice", "bob"])
def test_sk_answer_rejects_an_unread_correction(sk1, party):
    spec = IPGameSpec(2, 1, eta_err=0.3)
    rng = RngStream(5, 0)
    challenge = gen_ip_challenge(spec, rng)
    delivered = DeliveredPayload.pristine(challenge.quantum_payload, 2)
    trial = sk1.new_trial(challenge, delivered, rng)
    sk1.answer(trial)
    record = getattr(trial, party)
    sigmas = list(record["sigmas"])
    sigmas[1] += ((0, 0),)
    record["sigmas"] = tuple(sigmas)
    with pytest.raises(StrategyError, match="unread"):
        sk1.answer(trial)


def test_sk_answer_replays_each_arrived_qubit_once(sk1):
    spec = IPGameSpec(4, 1, eta_err=0.3)
    kept = 0
    for seed in range(3):
        rng = RngStream(seed, 0)
        challenge = gen_ip_challenge(spec, rng)
        state, lost = apply_channel(
            challenge.quantum_payload, ChannelModel(p_loss=0.3), rng
        )
        with mock.patch.object(
            _TableChain, "run", autospec=True, side_effect=_TableChain.run
        ) as run:
            sk1.run_trial(challenge, DeliveredPayload(state, lost), rng)
        # one live chain per qubit, then one replay per qubit that arrived
        assert run.call_count == spec.n + int((~lost).sum())
        kept += int((~lost).sum())
    assert 0 < kept < 3 * spec.n


@pytest.mark.parametrize("per_qubit", [False, True], ids=["shared", "per-qubit"])
@pytest.mark.parametrize("p_loss", [0.0, 0.3], ids=["clean", "lossy"])
def test_sk_spends_one_pair_per_recorded_correction(sk1, p_loss, per_qubit):
    # every hop of a live chain records one correction and spends one pair,
    # lost qubits included: the chain runs before anyone learns of the loss
    spec = IPGameSpec(4, 2, eta_err=0.6, per_qubit_unitaries=per_qubit)
    channel = ChannelModel(p_loss=p_loss)

    def payload(seed):
        rng = RngStream(seed, 0)
        challenge = gen_ip_challenge(spec, rng)
        state, lost = apply_channel(challenge.quantum_payload, channel, rng)
        return challenge, DeliveredPayload(state, lost), rng

    lost = 0
    for seed in range(3):
        trial = sk1.new_trial(*payload(seed))
        hops = sum(map(len, trial.alice["sigmas"] + trial.bob["sigmas"]))
        assert hops > 0
        assert sk1.run_trial(*payload(seed)).epr_consumed == hops
        lost += int(trial.alice["lost"].sum())
    assert (lost > 0) == (p_loss > 0)


@pytest.mark.parametrize("seed", [0, 1, 5, 23, 83, 2**40 + 7])
def test_table_chain_hop_draws_what_two_single_bits_draw(seed):
    # a hop's one bits(2) gives the (x, z) that two bits(1) calls give and
    # leaves the stream where they leave it, other draws interleaved
    rng, twin = RngStream(seed, 3), RngStream(seed, 3)
    chain = _TableChain(rng=rng, ledger=EntanglementLedger(12))
    want = []
    for k in range(12):
        chain._hop()
        want.append((int(twin.bits(1)[0]), int(twin.bits(1)[0])))
        if k % 3 == 0:
            assert rng.random() == twin.random()
        elif k % 3 == 1:
            assert rng.integers(0, 7, size=3).tolist() == twin.integers(0, 7, size=3).tolist()
    # hops alternate senders, Alice first
    assert chain.transcript.alice == want[0::2]
    assert chain.transcript.bob == want[1::2]
    assert len(set(want)) > 1
    assert rng.random() == twin.random()
