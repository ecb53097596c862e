"""verify_ip and verify_basis against the per-character verifiers they replaced.

The oracle below is the loop form the array verifiers must reproduce: same
Verdict for every answer over {0, 1, -}, same ValidationError otherwise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpv.errors import ValidationError
from qpv.protocols import (
    EMPTY_SYMBOL,
    Verdict,
    largest_strict_count,
    verify_basis,
    verify_ip,
)


def _oracle_count_clause(count: int, threshold: float, strict: bool) -> bool:
    # a zero count always passes; other counts meet the threshold with a 1e-9
    # guard against float rounding of eta * n
    if count == 0:
        return True
    if strict:
        return count < threshold - 1e-9
    return count <= threshold + 1e-9


def _oracle_check_answer(y: str, n: int, alphabet: str):
    if len(y) != n:
        raise ValidationError(f"answer length {len(y)} does not match n={n}")
    if any(c not in alphabet for c in y):
        raise ValidationError("answer contains symbols outside the alphabet")


def oracle_verify_basis(x, y0, y1, eta):
    n = len(x)
    _oracle_check_answer(y0, n, "01")
    _oracle_check_answer(y1, n, "01")
    answers_equal = y0 == y1
    errors = sum(1 for q in range(n) if int(y0[q]) != x[q])
    accepted = answers_equal and _oracle_count_clause(errors, eta * n, strict=False)
    return Verdict(accepted, errors, 0, answers_equal)


def oracle_verify_ip(x, y0, y1, eta_err, eta_loss):
    n = len(x)
    _oracle_check_answer(y0, n, "01" + EMPTY_SYMBOL)
    _oracle_check_answer(y1, n, "01" + EMPTY_SYMBOL)
    answers_equal = y0 == y1
    losses = sum(1 for c in y0 if c == EMPTY_SYMBOL)
    errors = sum(1 for q in range(n) if y0[q] != EMPTY_SYMBOL and int(y0[q]) != x[q])
    accepted = (
        answers_equal
        and _oracle_count_clause(errors, eta_err * n, strict=True)
        and _oracle_count_clause(losses, eta_loss * n, strict=True)
    )
    return Verdict(accepted, errors, losses, answers_equal)


def outcome(verify, *args):
    """The Verdict, or the ValidationError message."""
    try:
        return verify(*args)
    except ValidationError as exc:
        return ("ValidationError", str(exc))


@st.composite
def games(draw, symbols):
    n = draw(st.integers(1, 40))
    x = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    answer = st.text(alphabet=symbols, min_size=n, max_size=n)
    y0 = draw(answer)
    y1 = draw(st.one_of(st.just(y0), answer))
    # exact k/n thresholds hit the clause boundaries; floats land between
    eta = st.one_of(st.integers(0, n).map(lambda k: k / n), st.floats(0.0, 1.0))
    return x, y0, y1, draw(eta), draw(eta)


@settings(max_examples=300, deadline=None)
@given(games("01" + EMPTY_SYMBOL))
def test_verify_ip_matches_the_loop_oracle(game):
    x, y0, y1, eta_err, eta_loss = game
    expected = oracle_verify_ip(x, y0, y1, eta_err, eta_loss)
    bits = np.array(x, dtype=np.uint8)
    assert verify_ip(bits, y0, y1, eta_err, eta_loss) == expected
    assert verify_ip(x, y0, y1, eta_err, eta_loss) == expected


@settings(max_examples=300, deadline=None)
@given(st.one_of(games("01"), games("01" + EMPTY_SYMBOL)))
def test_verify_basis_matches_the_loop_oracle(game):
    # the empty symbol is outside the basis alphabet: both sides must raise
    x, y0, y1, eta, _ = game
    expected = outcome(oracle_verify_basis, x, y0, y1, eta)
    bits = np.array(x, dtype=np.uint8)
    assert outcome(verify_basis, bits, y0, y1, eta) == expected


def test_ip_counts_at_the_threshold_reject():
    # 0.3 * 10 rounds to 3.0000000000000004; the 1e-9 guard keeps 3 at the edge
    x = np.zeros(10, dtype=np.uint8)
    errors_at = verify_ip(x, "1110000000", "1110000000", eta_err=0.3, eta_loss=0.0)
    assert errors_at == Verdict(False, 3, 0, True)
    errors_under = verify_ip(x, "1100000000", "1100000000", eta_err=0.3, eta_loss=0.0)
    assert errors_under == Verdict(True, 2, 0, True)
    losses_at = verify_ip(x, "---0000000", "---0000000", eta_err=0.0, eta_loss=0.3)
    assert losses_at == Verdict(False, 0, 3, True)
    losses_under = verify_ip(x, "--00000000", "--00000000", eta_err=0.0, eta_loss=0.3)
    assert losses_under == Verdict(True, 0, 2, True)


def test_basis_count_at_the_threshold_accepts():
    x = np.zeros(10, dtype=np.uint8)
    assert verify_basis(x, "1110000000", "1110000000", eta=0.3) == Verdict(True, 3, 0, True)
    assert verify_basis(x, "1111000000", "1111000000", eta=0.3) == Verdict(False, 4, 0, True)


def test_zero_counts_pass_at_zero_thresholds():
    x = np.array([0, 1, 1, 0], dtype=np.uint8)
    assert verify_ip(x, "0110", "0110", 0.0, 0.0) == Verdict(True, 0, 0, True)
    assert verify_basis(x, "0110", "0110", 0.0) == Verdict(True, 0, 0, True)


def test_unequal_answers_reject_and_count_the_first():
    x = np.array([0, 1, 1, 0], dtype=np.uint8)
    ip = verify_ip(x, "1-10", "0110", eta_err=1.0, eta_loss=1.0)
    assert ip == Verdict(False, 1, 1, False)
    basis = verify_basis(x, "1110", "0110", eta=1.0)
    assert basis == Verdict(False, 1, 0, False)


@pytest.mark.parametrize("verify", [
    lambda x, y0, y1: verify_ip(x, y0, y1, 0.5, 0.5),
    lambda x, y0, y1: verify_basis(x, y0, y1, 0.5),
])
def test_bad_answers_raise(verify):
    x = np.zeros(4, dtype=np.uint8)
    with pytest.raises(ValidationError, match="answer length 3 does not match n=4"):
        verify(x, "000", "000")
    with pytest.raises(ValidationError, match="answer length 5 does not match n=4"):
        verify(x, "0000", "00000")
    for stray in ("2", "x", " ", "\x00"):
        with pytest.raises(ValidationError, match="outside the alphabet"):
            verify(x, "00" + stray + "0", "00" + stray + "0")
        with pytest.raises(ValidationError, match="outside the alphabet"):
            verify(x, "0000", "00" + stray + "0")


@pytest.mark.parametrize("symbol", ["é", "−", "\U0001f600"])
def test_non_ascii_symbols_raise_the_alphabet_error(symbol):
    # the UTF-8 bytes outnumber the characters; the length still matches
    x = np.zeros(4, dtype=np.uint8)
    answer = "00" + symbol + "0"
    assert len(answer.encode("utf-8")) > len(answer) == 4
    with pytest.raises(ValidationError, match="outside the alphabet"):
        verify_ip(x, answer, answer, 0.5, 0.5)
    with pytest.raises(ValidationError, match="outside the alphabet"):
        verify_basis(x, answer, answer, 0.5)


def test_largest_strict_count_is_the_strict_clause_cut_off():
    # eta = k/100 puts eta * n just above an integer for 22 of these pairs
    for n in range(1, 200):
        for k in range(101):
            threshold = k / 100 * n
            largest = largest_strict_count(threshold)
            assert _oracle_count_clause(largest, threshold, strict=True)
            assert not _oracle_count_clause(largest + 1, threshold, strict=True)
