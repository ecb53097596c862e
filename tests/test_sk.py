"""Gate-word compiler: nets, recursion guarantee, and the length profile."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpv import gates
from qpv import sk as sk_module
from qpv.attacks import SkAttack, strategy_from_name
from qpv.cli import main
from qpv.errors import ConvergenceError, ValidationError
from qpv.pauli import hierarchy_level
from qpv.protocols import ChannelModel, IPGameSpec, run_game
from qpv.rng import RngStream
from qpv.sk import (
    _CALIBRATION_SAMPLES,
    _NET_SEED,
    _PINNED,
    _INVERSE_LETTER,
    _KEY_BYTES,
    _RADIUS_MARGIN,
    LETTER_MATRICES,
    GateWord,
    _calibrate,
    _canonical_keys,
    _sample_covering_radius,
    _rotation,
    adjoint_letters,
    build_net,
    concat_words,
    pad_to_length,
    reduce_letters,
    sk_decompose,
    su2_distance,
    to_su2,
)
from qpv.statevec import haar_random_unitary

from oracles import fit_length_exponent, length_accuracy_profile


def test_gate_word_product_and_adjoint():
    w = GateWord.from_letters(("H", "T", "T"))
    assert np.allclose(w.unitary, gates.H @ gates.T @ gates.T)
    adj = w.adjoint()
    assert adj.letters == ("Tdg", "Tdg", "H")
    assert np.allclose(adj.unitary @ w.unitary, np.eye(2), atol=1e-12)


def test_letter_reduction_cancels_inverses():
    assert reduce_letters(("T", "Tdg", "H", "H", "T")) == ("T",)
    assert adjoint_letters(("H", "T")) == ("Tdg", "H")
    padded = pad_to_length(GateWord.from_letters(("H",)), 4)
    assert padded.length == 4
    assert np.allclose(padded.unitary, gates.H, atol=1e-12)


def test_concat_words_multiplies_in_reading_order():
    a = GateWord.from_letters(("H",))
    b = GateWord.from_letters(("T",))
    c = concat_words(a, b)
    assert c.letters == ("H", "T")
    assert np.allclose(c.unitary, gates.H @ gates.T)


# frozen build oracle: sizes and covering radii of the default nets,
# deterministic because build_net seeds its own sampling stream
NET_ORACLE = {10: (812, 0.2468), 12: (1672, 0.1693), 14: (3404, 0.1489)}


def test_net_build_matches_frozen_oracle(net10):
    assert len(net10) == NET_ORACLE[10][0]
    assert abs(net10.covering_radius - NET_ORACLE[10][1]) < 5e-4
    assert net10.base_length == 10


def _serial_key(m):
    # the per-matrix dedup key that build_net used before it keyed whole levels
    s = to_su2(m)
    v = s.reshape(-1).view(np.float64).copy()
    pivot = int(np.argmax(np.abs(v) > 0.35))
    if v[pivot] < 0:
        v = -v
    return np.round(v * 1e7).astype(np.int64).tobytes()


def _serial_entries(l0):
    """The word-at-a-time enumeration that build_net's level-at-a-time one replaces."""
    seen = {}
    entries = []

    def admit(letters, matrix):
        key = _serial_key(matrix)
        if key in seen:
            return False
        seen[key] = None
        entries.append((letters, matrix))
        return True

    admit((), np.eye(2, dtype=np.complex128))
    frontier = [((), np.eye(2, dtype=np.complex128))]
    for _ in range(l0):
        nxt = []
        for letters, matrix in frontier:
            for letter in ("H", "T", "Tdg"):
                if letters and _INVERSE_LETTER[letters[-1]] == letter:
                    continue
                cand = (letters + (letter,), matrix @ LETTER_MATRICES[letter])
                if admit(*cand):
                    nxt.append(cand)
        frontier = nxt
    return entries


def net_words(net):
    return [net.word(i) for i in range(len(net))]


@pytest.mark.parametrize("l0", range(1, 15))
def test_net_entries_match_the_serial_enumeration(l0):
    net = build_net(l0, radius_samples=1)
    want = _serial_entries(l0)
    words = net_words(net)
    assert [w.letters for w in words] == [letters for letters, _ in want]
    for word, (_, want_matrix) in zip(words, want):
        assert word.unitary.tobytes() == want_matrix.tobytes()


def test_net_words_share_the_read_only_stack(net10):
    u = haar_random_unitary(2, RngStream(19, 0))
    for word in (net10.word(len(net10) - 1), net10.nearest_word(u), net10.nearest(u)[0]):
        assert np.shares_memory(word.unitary, net10._stack)
        with pytest.raises(ValueError, match="read-only"):
            word.unitary[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        net10._stack[0] = gates.H


# sha256 over every entry's letters and matrix bytes, in net order, measured
# with the word-at-a-time enumeration
NET_ENTRIES_SHA256 = {
    10: ("98dae4b9509ea80bbbcde176913f6b7294f6892e4066e4793f19335b9ded73b8", 812),
    12: ("7ab5df082d7e19dbb0eb8cb7d67a4e9d88083679ed9c1a99c85c03cca4865b90", 1672),
    14: ("ac8e5546e879a292c6189d2a41f299ada34f99097fb838762776b2a173e4291f", 3404),
}


@pytest.mark.parametrize("l0", sorted(NET_ENTRIES_SHA256))
def test_net_entries_match_their_frozen_digest(l0):
    net = build_net(l0)
    digest = hashlib.sha256()
    for word in net_words(net):
        digest.update(" ".join(word.letters).encode() + b"|" + word.unitary.tobytes())
    assert (digest.hexdigest(), len(net)) == NET_ENTRIES_SHA256[l0]


def test_net_nearest_returns_exact_hits(net10):
    word, dist = net10.nearest(to_su2(gates.H))
    assert dist < 1e-6  # the arccos distance formula loses a few digits on hits
    assert np.allclose(
        to_su2(word.unitary), to_su2(gates.H), atol=1e-8
    ) or np.allclose(to_su2(word.unitary), -to_su2(gates.H), atol=1e-8)


def oracle_nearest(net, u):
    """Whole-stack lookup that EpsilonNet.nearest used before the quaternion argmax."""
    u = np.asarray(u, dtype=np.complex128)
    tr = np.einsum("ij,kij->k", u.conj(), net._stack)
    det_u = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    psi = (net._det_phase - np.angle(det_u)) / 2.0
    cos_chi = np.clip(np.real(tr * np.exp(-1j * psi)) / 2.0, -1.0, 1.0)
    chi = np.arccos(cos_chi)
    dist = 2.0 * np.sin(np.minimum(chi, np.pi - chi) / 2.0)
    idx = int(np.argmin(dist))
    return net.word(idx), float(dist[idx])


def assert_same_word(got, want):
    assert got.letters == want.letters
    assert got.unitary.tobytes() == want.unitary.tobytes()


def assert_matches_oracle(net, u):
    want_word, want_dist = oracle_nearest(net, u)
    word, dist = net.nearest(u)
    assert_same_word(word, want_word)
    assert dist.hex() == want_dist.hex()
    assert_same_word(net.nearest_word(u), want_word)


def rotation(axis, angle, phase):
    axis = np.asarray(axis)
    return np.exp(1j * phase) * _rotation(axis / np.linalg.norm(axis), angle)


haar_targets = st.integers(0, 2**64 - 1).map(lambda seed: haar_random_unitary(2, RngStream(seed, 0)))
# commutator factors of the recursion are rotations this close to identity
small_rotations = st.builds(
    rotation,
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda a: np.linalg.norm(a) > 1e-3),
    st.floats(1e-4, 0.5),
    st.floats(0.0, 2 * np.pi),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(haar_targets, small_rotations))
def test_nearest_matches_the_whole_stack_oracle(net10, u):
    assert_matches_oracle(net10, u)


def test_nearest_matches_the_oracle_on_every_entry(net10):
    for word in net_words(net10):
        assert_matches_oracle(net10, word.unitary)


def _threshold_matrix(a, flip_rows):
    # real SU(2) element with an entry of exactly +-0.35, the pivot threshold
    b = np.sqrt(1.0 - a * a)
    m = np.array([[a, -b], [b, a]], dtype=np.complex128)
    return m[::-1] if flip_rows else m


def _sparse_matrix(a, b, anti):
    # diagonal or antidiagonal unitary: exact zeros among the components
    d = np.array([np.exp(1j * a), np.exp(1j * b)])
    return np.fliplr(np.diag(d)) if anti else np.diag(d)


key_matrices = st.one_of(
    haar_targets,
    st.builds(
        lambda u, phase: np.exp(1j * phase) * u, haar_targets, st.floats(0.0, 2 * np.pi)
    ),
    st.builds(_threshold_matrix, st.sampled_from([0.35, -0.35]), st.booleans()),
    st.builds(
        _sparse_matrix,
        st.sampled_from([0.0, np.pi / 2, np.pi, -np.pi / 4]) | st.floats(-np.pi, np.pi),
        st.sampled_from([0.0, np.pi / 2, np.pi]) | st.floats(-np.pi, np.pi),
        st.booleans(),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(key_matrices, min_size=1, max_size=6))
def test_canonical_keys_match_the_per_matrix_key(matrices):
    keys = _canonical_keys(np.stack(matrices))
    assert keys == b"".join(_serial_key(m) for m in matrices)
    assert len(keys) == _KEY_BYTES * len(matrices)


def test_canonical_keys_refuse_non_unitary_rows_and_accept_empty_stacks():
    stack = np.stack([np.eye(2), 1.5 * gates.H, gates.T]).astype(np.complex128)
    with pytest.raises(ValidationError, match="not unitary"):
        _canonical_keys(stack)
    assert _canonical_keys(np.empty((0, 2, 2), dtype=np.complex128)) == b""


# Bit-exactness pins, computed at the commit before the quaternion lookup and
# the per-target calibration spine: both must leave every bit of these alone.
# The l0 = 12 row was measured when the constants were pinned in qpv.sk.
NET_CONSTANT_HEX = {
    10: ("0x1.f97aa567abcdfp-3", "0x1.22a6858202c99p-2", "0x1.538141bd067b1p+0"),
    12: ("0x1.5ab1e663ccbbbp-3", "0x1.8eb2fc25f83e3p-3", "0x1.c263a28717ed1p+0"),
    14: ("0x1.30e2ba56855f6p-3", "0x1.5e9e5649e62dap-3", "0x1.c6f0ac3a8dcb6p+0"),
}
SK_COMPILE_SHA256 = {
    ("T", "2"): "516598c7374bcb6e1f64a7907f2e3abed1560a2e9e036f6534841e1ad69760e7",
    ("H", "3"): "8aad76175348c345ff4780d221131e90b7d565bab34dda22431e394562d4c901",
}


@pytest.mark.parametrize("l0", sorted(NET_CONSTANT_HEX))
def test_net_constants_match_their_frozen_bits(l0):
    # recompute through the sampling code: build_net(l0) would read the pin back
    net = build_net(l0)
    pin = _PINNED[(l0, _NET_SEED, 1000, _CALIBRATION_SAMPLES)]
    radius = _sample_covering_radius(net, RngStream(_NET_SEED, 0), 1000)
    net.covering_radius = radius
    net.radius_bound = _RADIUS_MARGIN * radius
    cal = _calibrate(net)
    got = (radius.hex(), net.radius_bound.hex(), cal.commutator_constant.hex())
    assert got == NET_CONSTANT_HEX[l0]
    assert got == pin
    assert cal.radius_bound == net.radius_bound
    assert cal.samples == _CALIBRATION_SAMPLES
    pinned = build_net(l0)
    assert pinned.calibration == cal
    assert (pinned.covering_radius, pinned.radius_bound) == (radius, net.radius_bound)


def refuse(*args):
    raise AssertionError("a pinned net must not sample its constants")


def test_pinned_nets_skip_the_sampling_code(monkeypatch, capsys):
    monkeypatch.setattr(sk_module, "_calibrate", refuse)
    monkeypatch.setattr(sk_module, "_sample_covering_radius", refuse)
    attack = SkAttack(2)
    assert attack.net.calibration.is_convergent()
    spec = IPGameSpec(4, 1, eta_err=0.1)
    stats = run_game(spec, strategy_from_name("sk:2"), ChannelModel(), 2, RngStream(5, 0))
    assert stats.trials == 2
    assert main(["sk-compile", "T", "--depth", "2"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SK_COMPILE_SHA256[("T", "2")]


@pytest.mark.parametrize(
    "kwargs", [{"radius_samples": 200}, {"rng": RngStream(_NET_SEED, 0)}], ids=["samples", "rng"]
)
def test_unpinned_nets_run_the_sampling_code(monkeypatch, kwargs):
    calls = []
    sample, calibrate = sk_module._sample_covering_radius, sk_module._calibrate

    def counted_sample(net, rng, samples):
        calls.append(("radius", samples))
        return sample(net, rng, samples)

    def counted_calibrate(net):
        calls.append(("calibrate", net))
        return calibrate(net)

    monkeypatch.setattr(sk_module, "_sample_covering_radius", counted_sample)
    monkeypatch.setattr(sk_module, "_calibrate", counted_calibrate)
    net = build_net(10, **kwargs)
    assert calls == [("radius", kwargs.get("radius_samples", 1000))]
    cal = net.calibration
    assert calls[1:] == [("calibrate", net)]
    assert cal.radius_bound >= net.radius_bound


@pytest.mark.parametrize("gate, depth", sorted(SK_COMPILE_SHA256))
def test_sk_compile_records_match_their_frozen_digests(gate, depth, capsys):
    assert main(["sk-compile", gate, "--depth", depth]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SK_COMPILE_SHA256[(gate, depth)]


def test_depth_zero_is_net_lookup(net10):
    rng = RngStream(3, 0)
    for i in range(10):
        u = haar_random_unitary(2, rng.substream(1 + i))
        word = sk_decompose(u, 0, net10)
        assert su2_distance(to_su2(u), to_su2(word.unitary)) <= net10.radius_bound + 1e-9


def test_recursion_obeys_calibrated_epsilon(net10):
    cal = net10.ensure_convergent()
    rng = RngStream(5, 0)
    for depth in (1, 2):
        eps = cal.epsilon(depth)
        for i in range(8):
            u = haar_random_unitary(2, rng.substream(100 * depth + i))
            word = sk_decompose(u, depth, net10)
            assert su2_distance(to_su2(u), to_su2(word.unitary)) <= eps


def test_deeper_recursion_is_more_accurate(net10):
    rng = RngStream(7, 0)
    better = 0
    samples = 25
    for i in range(samples):
        u = haar_random_unitary(2, rng.substream(1 + i))
        d1 = su2_distance(to_su2(u), to_su2(sk_decompose(u, 1, net10).unitary))
        d3 = su2_distance(to_su2(u), to_su2(sk_decompose(u, 3, net10).unitary))
        if d3 < d1:
            better += 1
    assert better >= int(0.95 * samples)


def test_emitted_letters_stay_in_level_three(net10):
    u = haar_random_unitary(2, RngStream(9, 0))
    word = sk_decompose(u, 2, net10)
    for letter in set(word.letters):
        m = GateWord.from_letters((letter,)).unitary
        level = hierarchy_level(m, k_max=3).level
        assert level is not None and level <= 3


def test_word_length_growth_is_five_to_depth(net10):
    u = haar_random_unitary(2, RngStream(11, 0))
    for depth in (0, 1, 2):
        word = sk_decompose(u, depth, net10)
        assert word.length <= net10.base_length * 5**depth


def test_depth_validation(net10):
    u = haar_random_unitary(2, RngStream(13, 0))
    with pytest.raises(ValidationError):
        sk_decompose(u, -1, net10)
    with pytest.raises(ValidationError):
        sk_decompose(u, 7, net10)


def test_too_coarse_net_refuses_recursion():
    net = build_net(4)
    with pytest.raises(ConvergenceError):
        net.ensure_convergent()
    u = haar_random_unitary(2, RngStream(15, 0))
    with pytest.raises(ConvergenceError):
        sk_decompose(u, 1, net)


def test_length_profile_and_exponent(net10):
    rows = length_accuracy_profile(12, (1, 2, 3), net10, RngStream(17, 0))
    assert [r.depth for r in rows] == [1, 2, 3]
    assert rows[0].mean_distance > rows[2].mean_distance
    c = fit_length_exponent(rows)
    assert np.isfinite(c) and c > 0
