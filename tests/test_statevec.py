"""State vector layer: construction, gates, measurement, entangled pairs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpv import gates
from qpv.errors import ValidationError
from qpv.rng import RngStream
from qpv.sk import _rotation
from qpv.statevec import (
    DensityMatrix,
    QubitArray,
    StateVector,
    apply_unitary,
    bell_measurement,
    bell_pair,
    bits_of_index,
    check_unitary,
    embed_operator,
    fidelity,
    haar_qubit_batch,
    haar_qubit_stack,
    haar_random_state,
    haar_random_unitary,
    index_of_bits,
    measure_computational,
    move_qubit,
    partial_trace,
    phase_invariant_distance,
    qubit_phase_distances,
)


def test_state_vector_normalizes_and_validates():
    s = StateVector([1, 1], normalize=True)
    assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-12
    assert s.num_qubits == 1
    with pytest.raises(ValidationError):
        StateVector([1, 0, 0])  # not a power of two
    with pytest.raises(ValidationError):
        StateVector([0, 0])
    with pytest.raises(ValidationError):
        StateVector([np.nan, 1])


def test_state_vector_accepts_non_contiguous_input():
    u = haar_random_unitary(2, RngStream(5, 0))
    s = StateVector(u[:, 0])  # column slice has non-unit stride
    assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-10


def test_qubit_zero_is_most_significant():
    s = StateVector([1, 0, 0, 0])
    flipped = apply_unitary(s, gates.X, [0])
    assert np.argmax(np.abs(flipped.amps)) == 2
    assert bits_of_index(2, 2) == (1, 0)
    assert index_of_bits((1, 0)) == 2


def test_apply_unitary_matches_embedding():
    rng = RngStream(7, 0)
    s = haar_random_state(3, rng)
    u = haar_random_unitary(2, rng)
    via_targets = apply_unitary(s, u, [1])
    via_embed = apply_unitary(s, embed_operator(u, [1], 3), [0, 1, 2])
    assert np.allclose(via_targets.amps, via_embed.amps, atol=1e-12)


@st.composite
def gate_placements(draw):
    n = draw(st.integers(1, 4))
    order = draw(st.permutations(range(n)))
    return n, tuple(order[: draw(st.integers(1, n))])


@settings(max_examples=100, deadline=None)
@given(gate_placements(), st.integers(0, 2**32 - 1))
def test_apply_unitary_matches_the_embedded_operator(placement, seed):
    n, targets = placement
    rng = RngStream(seed, 0)
    state = haar_random_state(n, rng)
    u = haar_random_unitary(2 ** len(targets), rng)
    applied = apply_unitary(state, u, targets)
    embedded = embed_operator(u, targets, n) @ state.amps
    assert np.max(np.abs(applied.amps - embedded)) < 1e-12


def test_apply_unitary_rejects_bad_targets():
    s = StateVector([1, 0, 0, 0])
    with pytest.raises(ValidationError):
        apply_unitary(s, gates.X, [2])
    with pytest.raises(ValidationError):
        apply_unitary(s, gates.CNOT, [0])


def test_measure_computational_collapses():
    s = StateVector([1, 0, 0, 1], normalize=True)
    bits, post = measure_computational(s, [0, 1], RngStream(3, 0))
    assert bits in ((0, 0), (1, 1))
    idx = index_of_bits(bits)
    assert abs(abs(post.amps[idx]) - 1.0) < 1e-12


@pytest.mark.parametrize("seed", [5, 23])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_measurement_outcomes_match_generator_choice(seed, k):
    # the Born marginal over the first k of 4 qubits, drawn the way
    # Generator.choice(2**k, p=marg) draws it
    states = RngStream(seed, 1)
    live, ref = RngStream(seed, 2), RngStream(seed, 2)
    targets = list(range(k))
    for _ in range(300):
        state = haar_random_state(4, states)
        marg = np.sum(np.abs(state.amps.reshape(2**k, -1)) ** 2, axis=1)
        want = int(ref.generator.choice(2**k, p=marg / marg.sum()))
        bits, _ = measure_computational(state, targets, live)
        assert index_of_bits(bits) == want
    assert live.random() == ref.random()


def test_measurement_statistics_of_plus_state():
    ones = 0
    trials = 2000
    rng = RngStream(11, 0)
    plus = apply_unitary(StateVector([1, 0]), gates.H, [0])
    for i in range(trials):
        (b,), _ = measure_computational(plus, [0], rng.substream(1 + i))
        ones += b
    assert abs(ones / trials - 0.5) < 0.04


def test_teleport_identity_round_trip():
    # entangle, Bell-measure, and correcting by the outcome restores the state
    rng = RngStream(21, 0)
    for i in range(25):
        sub = rng.substream(1 + i)
        psi = haar_random_state(1, sub)
        reg = psi.tensor(bell_pair())
        corr, post = bell_measurement(reg, 0, 1, sub)
        fixed = apply_unitary(post, corr.matrix().conj().T, [0])
        assert fidelity(psi, fixed) > 1 - 1e-10


def test_partial_trace_of_bell_pair_is_maximally_mixed():
    rho = np.outer(bell_pair().amps, bell_pair().amps.conj())
    reduced = partial_trace(rho, [0])
    assert np.allclose(reduced.mat, np.eye(2) / 2, atol=1e-12)


def test_move_qubit_reorders_amplitudes():
    s = StateVector([0, 1, 0, 0])  # |01>
    moved = move_qubit(s, 1, 0)
    assert np.argmax(np.abs(moved.amps)) == 2  # |10>


def test_haar_unitary_moment():
    # mean |U00|^2 over Haar on U(2) is 1/2
    rng = RngStream(17, 0)
    total = 0.0
    samples = 10_000
    for _ in range(samples):
        total += abs(haar_random_unitary(2, rng)[0, 0]) ** 2
    assert abs(total / samples - 0.5) < 0.02


def test_haar_qubit_batch_is_a_unitary_stack():
    batch = haar_qubit_batch(64, RngStream(23, 0))
    assert batch.shape == (64, 2, 2)
    prods = np.einsum("qij,qkj->qik", batch, batch.conj())
    assert np.allclose(prods, np.eye(2), atol=1e-10)


def test_haar_qubit_batch_keeps_its_two_draw_bits():
    # the real parts of the whole block, then the imaginary parts, then one
    # stacked QR with the R diagonal's phases moved into Q
    g = RngStream(29, 1).generator
    z = (g.standard_normal((7, 2, 2)) + 1j * g.standard_normal((7, 2, 2))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    want = q * (d / np.abs(d))[:, None, :]
    assert haar_qubit_batch(7, RngStream(29, 1)).tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.integers(1, 16), st.integers(0, 2**16 - 1))
def test_haar_qubit_stack_matches_successive_batches(calls, count, seed):
    stack = haar_qubit_stack(calls, count, RngStream(seed, 1))
    rng = RngStream(seed, 1)
    batches = np.stack([haar_qubit_batch(count, rng) for _ in range(calls)])
    assert stack.shape == (calls, count, 2, 2)
    assert stack.tobytes() == batches.tobytes()


def test_haar_qubit_stack_rejects_empty_shapes():
    with pytest.raises(ValidationError):
        haar_qubit_stack(0, 4, RngStream(1, 0))
    with pytest.raises(ValidationError):
        haar_qubit_stack(2, 0, RngStream(1, 0))


def test_phase_invariant_distance_values():
    u = haar_random_unitary(2, RngStream(31, 0))
    assert phase_invariant_distance(u, np.exp(0.7j) * u) < 1e-12
    # eigenphases of T are {0, pi/4}: arc width pi/4, distance 2 sin(pi/16)
    expected = 2 * np.sin(np.pi / 16)
    assert abs(phase_invariant_distance(np.eye(2), gates.T) - expected) < 1e-12


def _near(u, axis, angle, phase):
    # U times a rotation by `angle` about `axis`, times a global phase
    return np.exp(1j * phase) * u @ _rotation(axis / np.linalg.norm(axis), angle)


def test_qubit_phase_distances_match_the_eigenvalue_form():
    rng = RngStream(47, 0)
    haar = haar_qubit_stack(2, 200, rng)
    us, vs = list(haar[0]), list(haar[1])
    for angle in np.geomspace(1e-10, 1e-3, 40):
        u = haar_random_unitary(2, rng)
        us.append(u)
        vs.append(_near(u, rng.standard_normal(3), angle, 2 * np.pi * rng.random()))
    got = qubit_phase_distances(np.stack(us), np.stack(vs))
    want = np.array([phase_invariant_distance(u, v) for u, v in zip(us, vs)])
    assert np.max(np.abs(got - want)) < 1e-12
    # a rotation by theta sits 2 sin(theta / 4) from the identity
    assert np.allclose(got[200:], 2 * np.sin(np.geomspace(1e-10, 1e-3, 40) / 4), rtol=1e-5)
    assert qubit_phase_distances(np.eye(2), gates.T) == pytest.approx(2 * np.sin(np.pi / 16), abs=1e-15)
    with pytest.raises(ValidationError):
        qubit_phase_distances(np.eye(2), np.eye(4))


def test_fidelity_pure_and_mixed():
    psi = StateVector([1, 0])
    phi = apply_unitary(psi, gates.H, [0])
    assert abs(fidelity(psi, phi) - 0.5) < 1e-12
    assert abs(fidelity(psi, DensityMatrix(np.eye(2) / 2)) - 0.5) < 1e-12


def test_qubit_array_matches_dense_single_qubit_ops():
    rng = RngStream(41, 0)
    arr = QubitArray(haar_qubit_batch(5, rng)[:, :, 0])
    u = haar_random_unitary(2, rng)
    rotated = arr.apply_same(u)
    for q in range(5):
        assert np.allclose(rotated.amps[q], u @ arr.amps[q], atol=1e-12)
    stack = np.stack([haar_random_unitary(2, rng) for _ in range(5)])
    eachwise = arr.apply_each(stack)
    for q in range(5):
        assert np.allclose(eachwise.amps[q], stack[q] @ arr.amps[q], atol=1e-12)


def test_qubit_array_rejects_non_unitary_operators():
    arr = QubitArray.from_bits([0, 1, 1])
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValidationError, match="unit norm"):
        arr.apply_same(shear)
    with pytest.raises(ValidationError, match="unit norm"):
        arr.apply_each(np.stack([gates.I2, shear, gates.H]))
    # the unchecked kernels that internal callers use give the same bits on
    # unitaries
    rng = RngStream(47, 0)
    us = haar_qubit_batch(3, rng)
    assert arr._apply_each(us).amps.tobytes() == arr.apply_each(us).amps.tobytes()
    assert arr._apply_same(us[0]).amps.tobytes() == arr.apply_same(us[0]).amps.tobytes()


def test_qubit_array_measurement_distribution():
    arr = QubitArray.from_bits([0, 1, 0, 1]).apply_same(gates.H)
    rng = RngStream(43, 0)
    counts = np.zeros(4)
    for i in range(1500):
        counts += arr.measure_all(rng.substream(1 + i))
    assert np.all(np.abs(counts / 1500 - 0.5) < 0.05)


NAN = float("nan")


def test_qubit_array_rejects_a_nan_row():
    with pytest.raises(ValidationError, match="unit norm"):
        QubitArray([[NAN, 0.0], [1.0, 0.0]])


@pytest.mark.parametrize("bad", [NAN, float("inf")])
def test_qubit_array_will_not_normalize_a_row_that_is_not_finite(bad):
    with pytest.raises(ValidationError, match="not finite"):
        QubitArray([[bad, 0.0], [1.0, 0.0]], normalize=True)


def test_apply_same_rejects_a_nan_operator():
    with pytest.raises(ValidationError, match="unit norm"):
        QubitArray.from_bits([0, 1]).apply_same(np.array([[NAN, 0.0], [0.0, 1.0]]))


def test_check_unitary_rejects_nan():
    with pytest.raises(ValidationError, match="not unitary"):
        check_unitary(np.full((2, 2), NAN))


def test_density_matrix_rejects_a_nan_entry():
    with pytest.raises(ValidationError, match="not Hermitian"):
        DensityMatrix(np.array([[0.5, NAN], [0.0, 0.5]]))
