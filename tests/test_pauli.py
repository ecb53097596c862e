"""Pauli algebra, recognition, and the Clifford hierarchy predicates."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpv import gates
from qpv.errors import ValidationError
from qpv.pauli import (
    ATOL,
    CLIFFORD_1Q,
    PauliOperator,
    hierarchy_level,
    is_clifford,
    random_clifford,
    single_qubit_pauli,
    try_as_pauli,
)
from qpv.rng import RngStream
from qpv.statevec import haar_random_unitary

from oracles import count_pauli_preserving, is_semi_clifford, pauli_mul

# X^x Z^z for each (x, z): the oracle builds a Pauli's matrix as the
# Kronecker product of these, one factor per qubit
SINGLE = {
    (0, 0): gates.I2,
    (1, 0): gates.X,
    (0, 1): gates.Z,
    (1, 1): gates.X @ gates.Z,
}


def kron_matrix(p: PauliOperator) -> np.ndarray:
    factors = [SINGLE[xz] for xz in zip(p.x_bits, p.z_bits)]
    return (1j**p.phase) * functools.reduce(np.kron, factors)


@st.composite
def paulis(draw, n=None):
    if n is None:
        n = draw(st.integers(1, 4))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    return PauliOperator(draw(bits), draw(bits), draw(st.integers(0, 3)))


@st.composite
def pauli_pairs(draw):
    n = draw(st.integers(1, 4))
    return draw(paulis(n)), draw(paulis(n))


def test_pauli_matrix_round_trip():
    p = PauliOperator((1, 0), (0, 1), 1)  # i * (X tensor Z)
    expected = 1j * np.kron(gates.X, gates.Z)
    assert np.allclose(p.matrix(), expected)
    q = try_as_pauli(expected)
    assert q is not None
    assert (q.x_bits, q.z_bits, q.phase) == ((1, 0), (0, 1), 1)


def test_pauli_mul_tracks_phase():
    x = single_qubit_pauli("X", 0, 1)
    z = single_qubit_pauli("Z", 0, 1)
    xz = pauli_mul(x, z)
    assert np.allclose(xz.matrix(), gates.X @ gates.Z)
    # anticommutation: (XZ)^2 = -XXZZ picked up a sign
    assert np.allclose(pauli_mul(xz, xz).matrix(), -np.eye(2))
    assert np.allclose(pauli_mul(x, x).matrix(), np.eye(2))
    y = single_qubit_pauli("Y", 0, 1)
    assert np.allclose(y.matrix(), np.array([[0, -1j], [1j, 0]]))


def test_try_as_pauli_accepts_all_phases():
    for k in range(4):
        m = (1j**k) * np.kron(gates.Y, gates.X)
        p = try_as_pauli(m)
        assert p is not None
        assert np.allclose(p.matrix(), m, atol=1e-10)


def test_try_as_pauli_rejects_non_pauli():
    assert try_as_pauli(gates.H) is None
    assert try_as_pauli(gates.T) is None
    u = haar_random_unitary(4, RngStream(3, 0))
    assert try_as_pauli(u @ np.kron(gates.X, gates.X) @ u.conj().T) is None


def test_is_clifford_table():
    assert is_clifford(gates.H)
    assert is_clifford(gates.S)
    assert is_clifford(gates.CNOT)
    assert not is_clifford(gates.T)


def test_hierarchy_levels_of_named_gates():
    assert hierarchy_level(gates.X, k_max=4).level == 1
    assert hierarchy_level(gates.H, k_max=4).level == 2
    assert hierarchy_level(gates.S, k_max=4).level == 2
    assert hierarchy_level(gates.T, k_max=4).level == 3
    assert hierarchy_level(gates.CNOT, k_max=4).level == 2


def test_hierarchy_level_is_phase_blind():
    assert hierarchy_level(np.exp(0.31j) * gates.T, k_max=3).level == 3


def test_haar_unitary_escapes_hierarchy():
    rng = RngStream(9, 0)
    for _ in range(5):
        u = haar_random_unitary(2, rng)
        assert hierarchy_level(u, k_max=4).level is None


def test_semi_clifford_predicates():
    assert is_semi_clifford(gates.T)
    assert is_semi_clifford(gates.H)
    rng = RngStream(13, 0)
    for _ in range(5):
        assert not is_semi_clifford(haar_random_unitary(2, rng))


def test_count_pauli_preserving():
    assert count_pauli_preserving(gates.T) == 2  # I and Z survive
    assert count_pauli_preserving(gates.H) == 4
    rng = RngStream(15, 0)
    assert count_pauli_preserving(haar_random_unitary(2, rng)) == 1


def test_random_clifford_is_clifford_and_varied():
    rng = RngStream(19, 0)
    actions = set()
    for _ in range(30):
        c = random_clifford(1, rng)
        assert is_clifford(c)
        # classify by the conjugation action on X and Z, which is the
        # Clifford's identity modulo phase
        key = []
        for g in (gates.X, gates.Z):
            p = try_as_pauli(c @ g @ c.conj().T)
            key.append((p.x_bits, p.z_bits, p.phase))
        actions.add(tuple(key))
    assert len(actions) > 5


def test_random_clifford_two_qubits():
    rng = RngStream(23, 0)
    c = random_clifford(2, rng)
    assert c.shape == (4, 4)
    assert is_clifford(c)


def test_clifford_conjugation_preserves_third_level():
    rng = RngStream(29, 0)
    for _ in range(5):
        c = random_clifford(1, rng)
        u = c @ gates.T @ c.conj().T
        assert hierarchy_level(u, k_max=3).level == 3
        assert is_semi_clifford(u)


@settings(max_examples=200, deadline=None)
@given(paulis())
def test_matrix_equals_the_kronecker_product_of_single_qubit_factors(p):
    assert np.array_equal(p.matrix(), kron_matrix(p))


@settings(max_examples=200, deadline=None)
@given(pauli_pairs())
def test_pauli_mul_is_the_matrix_product(pair):
    a, b = pair
    assert np.array_equal(pauli_mul(a, b).matrix(), a.matrix() @ b.matrix())


@settings(max_examples=200, deadline=None)
@given(paulis())
def test_try_as_pauli_inverts_matrix(p):
    assert try_as_pauli(p.matrix()) == p


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_try_as_pauli_rejects_haar_unitaries(n, seed):
    assert try_as_pauli(haar_random_unitary(2**n, RngStream(seed, 0))) is None


def loop_matrix(p: PauliOperator) -> np.ndarray:
    """The matrix built entry by entry, one signed entry per column."""
    d = 2**p.num_qubits
    x = int("".join(map(str, p.x_bits)), 2)
    z = int("".join(map(str, p.z_bits)), 2)
    m = np.zeros((d, d), dtype=np.complex128)
    for c in range(d):
        m[c ^ x, c] = 1j**p.phase * (-1) ** bin(c & z).count("1")
    return m


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cached_matrices_equal_the_loop_built_ones_and_are_read_only(n):
    for bits in itertools.product((0, 1), repeat=2 * n):
        for phase in range(4):
            p = PauliOperator(bits[:n], bits[n:], phase)
            m = p.matrix()
            assert np.array_equal(m, loop_matrix(p))
            assert not m.flags.writeable
            # equal operators share the one cached array
            assert PauliOperator(bits[:n], bits[n:], phase).matrix() is m


def test_wide_registers_build_a_fresh_writeable_matrix():
    p = PauliOperator((1, 0, 1, 1), (0, 1, 1, 0), 3)
    m = p.matrix()
    assert np.array_equal(m, loop_matrix(p))
    assert m.flags.writeable and p.matrix() is not m


def oracle_try_as_pauli(m, tol=ATOL):
    """try_as_pauli as it stood before its candidate was interned: numpy
    scalars locate the candidate, and a fresh operator is built each call."""
    m = np.asarray(m, dtype=np.complex128)
    d = m.shape[0]
    n = d.bit_length() - 1

    col0 = m[:, 0]
    row = int(np.argmax(np.abs(col0)))
    c = col0[row]
    if abs(abs(c) - 1.0) > tol:
        return None
    k = int(np.round(np.angle(c) / (np.pi / 2))) % 4
    if abs(c - 1j**k) > tol:
        return None

    x_bits = tuple((row >> (n - 1 - j)) & 1 for j in range(n))
    z_bits = []
    for j in range(n):
        col = 1 << (n - 1 - j)
        val = m[row ^ col, col]
        if abs(val - 1j**k) <= tol:
            z_bits.append(0)
        elif abs(val + 1j**k) <= tol:
            z_bits.append(1)
        else:
            return None

    cand = PauliOperator(x_bits, tuple(z_bits), k)
    if np.max(np.abs(m - cand.matrix())) > tol:
        return None
    return cand


def phased_paulis(n):
    for bits in itertools.product((0, 1), repeat=2 * n):
        for phase in range(4):
            yield PauliOperator(bits[:n], bits[n:], phase)


def perturbed(m, delta, rng):
    """m with every entry moved by delta along a random axis or diagonal,
    and, separately, only the largest entry of column 0 moved by delta."""
    signs = rng.integers(-1, 2, size=(2,) + m.shape)
    yield m + delta * (signs[0] + 1j * signs[1])
    one = m.copy()
    one[int(np.argmax(np.abs(m[:, 0]))), 0] += delta
    yield one


def equivalence_inputs(n):
    rng = np.random.default_rng(n)
    paulis = [p.matrix() for p in phased_paulis(n)]
    yield from paulis
    for m in paulis:
        for scale in (0.5, -0.5, 2.0, -2.0):
            yield from perturbed(m, scale * ATOL, rng)
    eye = np.eye(2 ** (n - 1))
    for c in CLIFFORD_1Q:
        embedded = np.kron(c, eye)
        yield embedded
        # C P C^dag is a Pauli up to the rounding of the products
        for p in paulis[:: max(1, len(paulis) // 16)]:
            yield embedded @ p @ embedded.conj().T
    for seed in range(40):
        yield haar_random_unitary(2**n, RngStream(seed, n))


def verdict(p):
    return None if p is None else (p.x_bits, p.z_bits, p.phase)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_try_as_pauli_matches_the_oracle(n):
    inputs = list(equivalence_inputs(n))
    found = 0
    for m in inputs:
        want = verdict(oracle_try_as_pauli(m))
        assert verdict(try_as_pauli(m)) == want
        found += want is not None
    # the inputs hold Paulis and non-Paulis alike
    assert 0 < found < len(inputs)


def test_try_as_pauli_is_none_for_a_non_finite_matrix():
    for bad in (np.nan, np.inf, complex(0, np.nan)):
        for row, col in ((0, 0), (1, 0), (1, 1), (3, 2)):
            m = np.kron(gates.X, gates.Z).astype(np.complex128)
            m[row, col] = bad
            assert try_as_pauli(m) is None
    assert try_as_pauli(np.full((2, 2), np.nan)) is None


def test_hierarchy_level_rejects_a_nan_matrix():
    for m in (np.full((2, 2), np.nan), np.where(np.eye(4), np.nan, 0.0)):
        with pytest.raises(ValidationError, match="not unitary"):
            hierarchy_level(m)
