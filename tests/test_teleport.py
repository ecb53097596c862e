"""Teleportation: standard, gate, and port-based with its fidelity floor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpv import gates
from qpv.costs import pbt_fidelity_bound
from qpv.errors import ValidationError
from qpv.pauli import try_as_pauli
from qpv.rng import RngStream
from qpv.statevec import (
    apply_unitary,
    bell_pair,
    embed_operator,
    fidelity,
    haar_random_state,
)
from qpv.teleport import (
    PbtChannel,
    build_pbt_channel,
    pbt_fidelity_curve,
    pbt_teleport,
    pbt_teleport_density,
    teleport,
    teleport_gate,
    teleport_register,
)

from oracles import density, partial_trace_matrix, phase_gate


def test_teleport_restores_state_after_correction():
    rng = RngStream(5, 0)
    for i in range(30):
        sub = rng.substream(1 + i)
        psi = haar_random_state(1, sub)
        res = teleport(psi, 0, sub)
        fixed = apply_unitary(res.receiver_state, res.correction.matrix().conj().T, [0])
        assert fidelity(psi, fixed) > 1 - 1e-10


def test_teleport_outcomes_are_uniform():
    rng = RngStream(7, 0)
    counts = {}
    trials = 4000
    psi = haar_random_state(1, RngStream(8, 0))
    for i in range(trials):
        res = teleport(psi, 0, rng.substream(1 + i))
        key = (res.correction.x_bits, res.correction.z_bits)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 4
    for c in counts.values():
        assert abs(c / trials - 0.25) < 0.02


def test_teleport_register_moves_a_multiqubit_block():
    rng = RngStream(9, 0)
    psi = haar_random_state(2, rng)
    sigma, post, used = teleport_register(psi, (0, 1), rng)
    assert used == 2
    fixed = apply_unitary(post, sigma.matrix().conj().T, [0, 1])
    assert fidelity(psi, fixed) > 1 - 1e-10


def test_gate_teleport_applies_the_gate_exactly():
    # pushing T through teleportation demotes the correction one level; the
    # helper undoes the demoted correction, leaving exactly T|psi>
    from qpv.pauli import is_clifford

    rng = RngStream(11, 0)
    for i in range(20):
        sub = rng.substream(1 + i)
        psi = haar_random_state(1, sub)
        res = teleport_gate(psi, gates.T, sub)
        target = apply_unitary(psi, gates.T, [0])
        assert fidelity(target, res.state) > 1 - 1e-10
        assert is_clifford(res.shifted_correction)
        assert res.epr_consumed == 1


def test_gate_teleport_rejects_levels_above_three():
    rng = RngStream(12, 0)
    psi = haar_random_state(1, rng)
    with pytest.raises(ValidationError):
        teleport_gate(psi, phase_gate(4), rng)  # pi/8 phase sits at level 4


def _psd_inverse_sqrt(m: np.ndarray, cutoff: float = 1e-12) -> np.ndarray:
    """M^(-1/2) on the support {eigenvalue > cutoff}, zero on the kernel."""
    w, v = np.linalg.eigh(m)
    assert float(w.min()) > -1e-9
    inv = np.where(w > cutoff, 1.0 / np.sqrt(np.clip(w, cutoff, None)), 0.0)
    return (v * inv) @ v.conj().T


def _matrix_pbt_oracle(n: int):
    """The square-root-measurement POVM on the N+1 measured qubits (input
    first, then the sender halves), reduced to 2x2 kernels: outcome k fires
    with probability Tr(prob[k] rho) / 2^N, and port i leaves the receiver
    with einsum("yx,xuyv->vu", rho, recv[i]) / 2^N (unnormalized)."""
    dim = 2 ** (n + 1)
    phi = bell_pair().amps
    bell_proj = np.outer(phi, phi.conj())
    sigmas = [embed_operator(bell_proj, [0, 1 + i], n + 1) for i in range(n)]
    root = _psd_inverse_sqrt(sum(sigmas))
    elements = [root @ s @ root for s in sigmas]
    elements.append(np.eye(dim) - sum(elements))
    for e in elements:
        assert np.max(np.abs(e - e.conj().T)) < 1e-12
        assert float(np.linalg.eigvalsh(e).min()) > -1e-9
    assert np.max(np.abs(sum(elements) - np.eye(dim))) < 1e-12
    prob = np.stack([partial_trace_matrix(e, [0]) for e in elements])
    recv = np.stack(
        [partial_trace_matrix(elements[i], [0, 1 + i]).reshape(2, 2, 2, 2) for i in range(n)]
    )
    return prob, recv


@pytest.mark.parametrize("ports", range(2, 9))
def test_pbt_constants_match_the_matrix_oracle(ports):
    ch = build_pbt_channel(ports)
    prob, recv = _matrix_pbt_oracle(ports)
    scale = 2.0**ports
    # no outcome probability depends on the input: every kernel is c * I
    for k, kernel in enumerate(prob):
        assert np.max(np.abs(kernel / scale - ch.outcome_probs[k] * np.eye(2))) < 1e-12
    assert abs(prob[ports][0, 0].real / scale - ch.completion_probability) < 1e-12
    assert abs(ch.completion_probability - (ports + 2) / 2 ** (ports + 1)) < 1e-15
    # every port's receiver is the depolarized input, checked on a basis of
    # 2x2 matrices so the whole linear map is pinned
    p = ch.depolarizing
    for i in range(ports):
        for a in range(2):
            for b in range(2):
                rho = np.zeros((2, 2), dtype=np.complex128)
                rho[a, b] = 1.0
                out = np.einsum("yx,xuyv->vu", rho, recv[i]) / scale
                want = ch.outcome_probs[i] * (p * rho + (1 - p) * np.trace(rho) * np.eye(2) / 2)
                assert np.max(np.abs(out - want)) < 1e-12
    port0 = np.einsum("yx,xuyv->vu", np.diag([1.0, 0.0]), recv[0])
    assert abs((port0[0, 0] - port0[1, 1]).real / np.trace(port0).real - p) < 1e-12


def test_pbt_constants_in_closed_form():
    assert build_pbt_channel(2).depolarizing == pytest.approx((1 + np.sqrt(3)) / 3, abs=1e-15)
    assert build_pbt_channel(3).depolarizing == pytest.approx(29 / 33, abs=1e-15)


def test_pbt_channel_rejects_bad_port_counts():
    with pytest.raises(ValidationError):
        build_pbt_channel(1)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(2, 16), st.integers(0, 2**16 - 1))
def test_pbt_outcome_draw_matches_generator_choice(ports, seed):
    ch = build_pbt_channel(ports)
    live, ref = RngStream(seed, 1), RngStream(seed, 1)
    for _ in range(64):
        want = int(ref.generator.choice(ports + 1, p=ch.outcome_probs))
        assert ch.draw_outcome(live) == want


@pytest.mark.parametrize(
    "probs",
    [
        (0.3, 0.3, 0.3, 0.3, 0.1),  # sums to 1.3
        (0.6, 0.6, -0.2, 0.0, 0.0),  # a negative entry
        (0.25, 0.25, 0.25, float("nan"), 0.25),
        (0.5, 0.5),  # no entry for ports 2..4
    ],
)
def test_pbt_channel_refuses_bad_outcome_probabilities(probs):
    with pytest.raises(ValidationError):
        PbtChannel(4, 0.1875, 0.5, probs)


def test_pbt_channel_at_large_port_counts():
    fidelities = [build_pbt_channel(m).average_fidelity for m in range(2, 9)]
    for m in (9, 16, 64, 1000):
        ch = build_pbt_channel(m)
        assert 0.0 < ch.depolarizing < 1.0
        assert ch.completion_probability >= 0.0
        assert abs(sum(ch.outcome_probs) - 1.0) < 1e-12
        fidelities.append(ch.average_fidelity)
    assert all(a < b for a, b in zip(fidelities, fidelities[1:]))
    assert 1.0 - fidelities[-1] < 1e-3


def test_pbt_exact_fidelity_clears_the_product_bound():
    for m in range(2, 65):
        assert build_pbt_channel(m).average_fidelity >= pbt_fidelity_bound([m]).value


# frozen single-hop means, 1000 Haar trials at seed 77 (tolerance is the
# Monte Carlo three-sigma width, about 0.008)
PBT_FIDELITY_TABLE = {2: 0.7445, 4: 0.8581, 6: 0.9108, 8: 0.9363}


@pytest.mark.parametrize("ports", sorted(PBT_FIDELITY_TABLE))
def test_pbt_fidelity_matches_frozen_table(ports):
    mean, stderr = pbt_fidelity_curve(ports, 400, RngStream(77, 0))
    assert abs(mean - PBT_FIDELITY_TABLE[ports]) < 0.02
    assert mean - 3 * stderr > 1 - 4 / ports


def test_pbt_density_path_agrees_with_pure_path():
    ch = build_pbt_channel(4)
    rng_pure = RngStream(31, 1)
    rng_dens = RngStream(31, 2)
    fp, fd = [], []
    for i in range(250):
        psi = haar_random_state(1, RngStream(31, 3).substream(1 + i))
        rp = pbt_teleport(psi, ch, rng_pure.substream(1 + i))
        rd = pbt_teleport_density(density(psi), ch, rng_dens.substream(1 + i))
        fp.append(fidelity(psi, rp.receiver))
        fd.append(float(np.real(np.vdot(psi.amps, rd.receiver.mat @ psi.amps))))
    assert abs(np.mean(fp) - np.mean(fd)) < 0.03


def test_pbt_completion_yields_maximally_mixed():
    ch = build_pbt_channel(4)
    rng = RngStream(37, 0)
    seen_completion = False
    for i in range(400):
        psi = haar_random_state(1, rng.substream(1 + i))
        res = pbt_teleport(psi, ch, rng.substream(5000 + i))
        if res.port is None:
            seen_completion = True
            assert abs(fidelity(psi, res.receiver) - 0.5) < 1e-9
    assert seen_completion
