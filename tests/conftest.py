import dataclasses

import pytest

from qpv.protocols import (
    BasisGameSpec,
    ChannelModel,
    DeliveredPayload,
    apply_channel,
    gen_basis_challenge,
    gen_ip_challenge,
)
from qpv.rng import RngStream
from qpv.sk import build_net


@pytest.fixture(scope="session")
def net10():
    # small net shared by the compiler tests, built once per session
    return build_net(10)


@pytest.fixture()
def rng():
    return RngStream(1234, stream=0)


@pytest.fixture()
def answer_twice():
    """answer_twice(attack, spec, seed) runs one trial under 30% loss twice
    from one seed and returns both answers and the loss mask. The second
    answer is decoded with both private records cleared, so it can read only
    the two exchanged messages."""

    def run(attack, spec, seed):
        gen = gen_basis_challenge if isinstance(spec, BasisGameSpec) else gen_ip_challenge
        answers = []
        for blind in (False, True):
            rng = RngStream(seed, 0)
            challenge = gen(spec, rng)
            state, lost = apply_channel(
                challenge.quantum_payload, ChannelModel(p_loss=0.3), rng
            )
            trial = attack.new_trial(challenge, DeliveredPayload(state, lost), rng)
            to_bob, to_alice = attack.round1_alice(trial), attack.round1_bob(trial)
            if blind:
                trial = dataclasses.replace(trial, alice={}, bob={})
            answers.append(attack.answer(trial, to_bob, to_alice))
        return answers, lost

    return run
