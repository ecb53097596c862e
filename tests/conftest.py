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
    answer is decoded with the delivered payload, the pre-measure register
    and the challenge's secret and quantum payload all cleared, so it can
    read only the two exchanged records, the public challenge and the
    pre-agreed randomness."""

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
            if blind:
                public = dataclasses.replace(
                    challenge, secret=None, quantum_payload=None
                )
                trial = dataclasses.replace(
                    trial, challenge=public, delivered=None, premeasure=None
                )
            answers.append(attack.answer(trial))
        return answers, lost

    return run
