"""The two verification games: basis game G(n, family, eta) and interleaved
product game G_IP(n, t, eta_err, eta_loss).

Verifier V0 sends the quantum payload (and, in the IP game, the unitaries
u_1..u_t); V1 sends the basis description (the unitary U, or v_1..v_t whose
interleaved product with the u's reconstructs U). The prover answers both
verifiers with the same string; acceptance compares it against the secret x.

Two deliberate asymmetries, preserved from the protocol definitions:

- The basis game accepts iff d_H(x, y) <= eta*n (inclusive); the IP game
  requires errors < eta_err*n and losses < eta_loss*n (strict). A perfect
  count of zero always passes its clause, so the strict form cannot reject a
  flawless transcript at zero thresholds. Integer counts are compared against
  the real thresholds with a 1e-9 guard so float rounding of eta*n never
  flips a boundary verdict; largest_strict_count is the strict cut-off.
- Classical channels are perfect; only the quantum payload passes through
  ChannelModel (per-qubit loss, then depolarizing implemented as a uniform
  random Pauli from {I, X, Y, Z}, i.e. replacement by the maximally mixed
  state, which flips a computational measurement with probability p_dep/2).

Product-state payloads (the IP game and the bb84 family) use the per-qubit
QubitArray representation so n = 10^4 games stay cheap; the entangling basis
families (pauli, clifford, haar, explicit, layout) use full state vectors at
desk scale, and `BasisGameSpec` refuses them above MAX_DENSE_QUBITS = 12.

An IP challenge has one layout: each share's factors are a (t, copies, 2, 2)
stack and the secret unitary a (copies, 2, 2) stack, where copies is n with
per-qubit unitaries and 1 without. `interleave` is the one product over such
stacks; the challenge, the honest prover and every IP attack use it.

`run_game` takes trials in blocks of B = max(1, BLOCK_QUBITS // n). Trial i
owns the stream rng.substream(1 + i). A block first makes the challenges of
all its trials, then runs each trial's channel, actor and verification in
index order on that same stream object, which continues from where its
challenge left it. An IP block (`gen_ip_block`) stacks its trials on a
leading axis: normals (B, 2t, 2, copies, 2, 2), factors (B, t, copies, 2, 2),
targets (B, copies, 2, 2) and payload columns (B, n, 2), so one QR, one
`interleave`, one closure check, one unit-norm check of the target columns
and one gather serve the whole block. `gen_ip_challenge` makes one trial's
Challenge from its row of the block; its payload rows are copies of checked
columns, so it wraps them without a per-row check. The channel then draws
per qubit but touches only the qubits it depolarizes.

Per-qubit data are numpy arrays: the secret string x is a uint8 bit array and
the channel's loss mask a bool array. Answers are strings over "0", "1" and
the empty symbol "-", and this module is the only one that spells them:
every prover, honest or coalition, decodes to a bit array plus an "empty"
mask and renders it through `render_answer`. The verifiers read answers back
as uint8 symbol codes through a 256-entry lookup table, so no per-qubit
Python runs on the honest path.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ResourceError, ValidationError
from .gates import H, I2, X, Y, Z
from .layout import CircuitLayout
from .pauli import PauliOperator, random_clifford
from .rng import RngStream
from .statevec import (
    ATOL_EXACT,
    QubitArray,
    StateVector,
    apply_unitary,
    check_unitary,
    haar_from_normals,
    haar_random_unitary,
    measure_register,
    qubit_phase_distances,
)

EMPTY_SYMBOL = "-"

# qubits of challenge per block of trials; a block holds its trials'
# challenges at once, so this bounds that memory
BLOCK_QUBITS = 128

BASIS_FAMILIES = ("explicit", "pauli", "clifford", "bb84", "haar", "layout")

# widest dense basis game: past it the payload and its 2^n x 2^n rotation
# leave desk scale (see `statevec`); bb84 payloads are per qubit
MAX_DENSE_QUBITS = 12


@dataclass(frozen=True)
class BasisGameSpec:
    """G(n, family, eta): guess x from U|x> given U."""

    n: int
    family: str
    eta: float = 0.0
    unitaries: tuple[np.ndarray, ...] | None = None
    layout: CircuitLayout | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("n must be at least 1")
        if self.family not in BASIS_FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}")
        if self.family != "bb84" and self.n > MAX_DENSE_QUBITS:
            raise ResourceError(
                f"{self.family} basis games above {MAX_DENSE_QUBITS} qubits are past desk scale"
            )
        if not 0.0 <= self.eta <= 1.0:
            raise ValidationError("eta must lie in [0, 1]")
        if self.family == "explicit":
            if not self.unitaries:
                raise ValidationError("explicit family needs a non-empty unitary list")
            dim = 2**self.n
            mats = tuple(np.asarray(u, dtype=np.complex128) for u in self.unitaries)
            for u in mats:
                if u.shape != (dim, dim):
                    raise ValidationError("family unitary has the wrong dimension")
                check_unitary(u, name="family unitary")
            object.__setattr__(self, "unitaries", mats)
        if self.family == "layout":
            if self.layout is None:
                raise ValidationError("layout family needs a layout")
            if self.layout.n != self.n:
                raise ValidationError("layout qubit count does not match the game")


@dataclass(frozen=True)
class IPGameSpec:
    """G_IP(n, t, eta_err, eta_loss): U arrives as the product u_1 v_1 ... u_t v_t."""

    n: int
    t: int
    eta_err: float = 0.0
    eta_loss: float = 0.0
    per_qubit_unitaries: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("n must be at least 1")
        if self.t < 1:
            raise ValidationError("t must be at least 1")
        for name in ("eta_err", "eta_loss"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class ChannelModel:
    """Independent per-qubit loss followed by depolarizing noise."""

    p_loss: float = 0.0
    p_dep: float = 0.0

    def __post_init__(self):
        for name in ("p_loss", "p_dep"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class BasisShare:
    """V1's classical share for the basis game: which rotation was applied."""

    family: str
    unitary: np.ndarray | None = None
    letters: tuple[str, ...] | None = None
    layout: CircuitLayout | None = None


@dataclass(frozen=True)
class IpShare:
    """One verifier's half of the interleaved product, factors in order."""

    factors: np.ndarray  # (t, copies, 2, 2); copies is n or 1 (see `interleave`)


@dataclass(frozen=True)
class Secret:
    """The verifiers' hidden record: the string and the full rotation."""

    x: np.ndarray  # (n,) uint8 bits
    unitary: np.ndarray  # basis: the rotation; IP: (copies, 2, 2)


@dataclass(frozen=True)
class Challenge:
    game: str  # "basis" | "ip"
    n: int
    quantum_payload: Union[StateVector, QubitArray]
    v0_classical: IpShare | None
    v1_classical: Union[BasisShare, IpShare]
    secret: Secret
    spec: Union[BasisGameSpec, IPGameSpec] = field(repr=False, default=None)


@dataclass(frozen=True)
class DeliveredPayload:
    """What reaches the prover side: the (possibly noisy) state plus which
    qubits the channel dropped, as an (n,) bool array. Readers take the mask
    through np.asarray(lost, dtype=bool), so a tuple of bools also works."""

    states: Union[StateVector, QubitArray]
    lost: np.ndarray

    @classmethod
    def pristine(cls, payload, n: int) -> "DeliveredPayload":
        return cls(payload, np.zeros(n, dtype=bool))


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    error_count: int
    loss_count: int
    answers_equal: bool


@dataclass(frozen=True)
class TrialOutcome:
    """One protocol run as seen by the verifiers, plus the EPR ledger."""

    y_alice: str
    y_bob: str
    epr_consumed: int
    epr_reserved: int


def gen_basis_challenge(spec: BasisGameSpec, rng: RngStream) -> Challenge:
    """Sample (U, x) uniformly and prepare U|x>."""
    x = rng.bits(spec.n)
    family = spec.family
    if family == "bb84":
        letters = tuple("H" if b else "I" for b in rng.integers(2, size=spec.n))
        payload = QubitArray.from_bits(x)._apply_each(_bb84_rotations(letters))
        share = BasisShare(family, letters=letters)
        # secret unitary kept per-qubit implicitly via the letters
        secret = Secret(x, np.empty(0))
        return Challenge("basis", spec.n, payload, None, share, secret, spec)
    if family == "explicit":
        u = spec.unitaries[int(rng.integers(len(spec.unitaries)))]
    elif family == "pauli":
        x_bits = rng.bits(spec.n)
        z_bits = rng.bits(spec.n)
        u = PauliOperator(x_bits, z_bits, 0).matrix()
    elif family == "clifford":
        u = random_clifford(spec.n, rng)
    elif family == "haar":
        u = haar_random_unitary(2**spec.n, rng)
    else:  # layout
        u = spec.layout.composite_unitary()
    state = apply_unitary(StateVector.from_bits(x), u, tuple(range(spec.n)))
    share = BasisShare(family, unitary=u, layout=spec.layout)
    return Challenge("basis", spec.n, state, None, share, Secret(x, u), spec)


def interleave(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u_1 v_1 ... u_k v_k for two (k, ..., 2, 2) factor stacks, such as
    (k, copies, 2, 2); the identity when k = 0."""
    out = np.eye(2, dtype=np.complex128)
    for i in range(len(u)):
        out = out @ u[i] @ v[i]
    return out


def gen_ip_block(
    spec: IPGameSpec, rngs: list[RngStream]
) -> list[tuple[np.ndarray, ...]]:
    """Draw and close the IP challenges of a block of trials, one stream each.

    Each stream draws its secret bits(n), then its (2t, 2, copies, 2, 2)
    normals, as it would for a challenge of its own. Then one stacked QR,
    one `interleave`, one closure check and one gather serve the block.
    Every 2x2 matrix is computed on its own, so each trial's challenge is
    bit for bit the one it would get alone. The targets' columns are
    checked for unit norm here, once per block, since every payload row is
    gathered from them. Returns one row
    (x, target, u, v, columns) per stream, for `gen_ip_challenge`.
    """
    n, t = spec.n, spec.t
    copies = n if spec.per_qubit_unitaries else 1
    xs = np.empty((len(rngs), n), dtype=np.uint8)
    normals = np.empty((len(rngs), 2 * t, 2, copies, 2, 2))
    for x, g, rng in zip(xs, normals, rngs):
        x[:] = rng.bits(n)
        rng.generator.standard_normal(out=g)
    # each trial's draws are in the order target, u_1, v_1, u_2, ...,
    # v_{t-1}, u_t; copied out so no challenge holds on to the whole draw
    draws = haar_from_normals(normals)
    target = draws[:, 0].copy()
    u = draws[:, 1::2].copy()
    v = np.empty_like(u)
    v[:, :-1] = draws[:, 2::2]
    # interleave runs over its leading axis, so the factor axis goes first
    prefix = interleave(u[:, :-1].swapaxes(0, 1), v[:, :-1].swapaxes(0, 1)) @ u[:, -1]
    v[:, -1] = np.conj(np.swapaxes(prefix, -1, -2)) @ target
    # every payload row is a column of a target, so this checks them all
    norms = np.sqrt(np.sum(target.real**2 + target.imag**2, axis=-2))
    if not np.all(np.abs(norms - 1.0) <= ATOL_EXACT):
        raise ValidationError("target columns must have unit norm")
    if not np.all(qubit_phase_distances(target, prefix @ v[:, -1]) <= 1e-9):
        raise ValidationError("interleaved product failed to close")
    # U|x_q> is column x_q of copy q's unitary: in trial b, row
    # 2 (b copies + q) + x_q of the stacked transposes (q = 0 for every
    # qubit of a shared unitary)
    first = 2 * (copies * np.arange(len(rngs))[:, None] + np.arange(copies))
    columns = np.take(
        np.swapaxes(target, -1, -2).reshape(-1, 2), xs + first, axis=0
    )
    return list(zip(xs, target, u, v, columns))


def gen_ip_challenge(
    spec: IPGameSpec, rng: RngStream, closed: tuple[np.ndarray, ...] | None = None
) -> Challenge:
    """Sample u_1..u_t and v_1..v_{t-1} Haar; v_t closes the product to U.

    `closed` is this trial's row of `gen_ip_block`, which already drew it
    from `rng`; without it, the challenge is drawn from `rng` as a block of
    one.
    """
    if closed is None:
        closed = gen_ip_block(spec, [rng])[0]
    x, target, u, v, columns = closed
    return Challenge(
        "ip",
        spec.n,
        QubitArray._unit_rows(columns),
        IpShare(u),
        IpShare(v),
        Secret(x, target),
        spec,
    )


# depolarizing draws index this stack; Y itself, not X @ Z = -iY, so the
# payload amplitudes carry the phase the channel has always applied
_PAULI_STACK = np.stack([I2, X, Y, Z])


def apply_channel(state, channel: ChannelModel, rng: RngStream):
    """Per-qubit loss then depolarization; returns (state, lost bool array).

    Lost qubits are flagged, not removed; consumers must ignore their
    amplitudes. Depolarization applies a Pauli drawn uniformly from all four
    of {I, X, Y, Z}, which averages to the maximally mixed state.

    A QubitArray draws loss, depolarization and the Pauli index for every
    qubit, but only the depolarized qubits are touched: their rows are
    gathered, rotated and scattered back into a copy. Pauli entries are 0,
    +-1 and +-i, so a hit row gets the values a full per-qubit pass would
    give, and every other row keeps its amplitudes (the identity would only
    change the sign of a zero, which no |amp|^2 sees).
    """
    if isinstance(state, QubitArray):
        n = state.num_qubits
        lost = rng.random(n) < channel.p_loss
        dep = ~lost & (rng.random(n) < channel.p_dep)
        which = rng.integers(4, size=n)
        if dep.any():
            hit = np.flatnonzero(dep)
            amps = state.amps.copy()
            amps[hit] = np.einsum("qij,qj->qi", _PAULI_STACK[which[hit]], amps[hit])
            state = QubitArray._unit_rows(amps)
        return state, lost
    n = state.num_qubits
    lost = []
    for q in range(n):
        if rng.random() < channel.p_loss:
            lost.append(True)
            continue
        lost.append(False)
        if channel.p_dep > 0.0 and rng.random() < channel.p_dep:
            pauli = _PAULI_STACK[int(rng.integers(4))]
            state = apply_unitary(state, pauli, (q,))
    return state, np.array(lost, dtype=bool)


def _bb84_rotations(letters: tuple[str, ...]) -> np.ndarray:
    """(n, 2, 2) stack of H or I per bb84 letter; both are self-inverse."""
    return np.stack([H if g == "H" else I2 for g in letters])


def render_answer(bits: np.ndarray, empty: np.ndarray | None = None) -> str:
    """The answer string of a bit array, with the empty symbol where `empty`."""
    codes = bits + ord("0")
    if empty is not None:
        codes = np.where(empty, ord(EMPTY_SYMBOL), codes)
    return codes.astype(np.uint8, copy=False).tobytes().decode("ascii")


def honest_prover_basis(
    challenge: Challenge, delivered: DeliveredPayload, rng: RngStream
) -> str:
    """Undo U and measure computationally; lost qubits get a uniform guess."""
    share: BasisShare = challenge.v1_classical
    states = delivered.states
    if isinstance(states, QubitArray):
        bits = states._apply_each(_bb84_rotations(share.letters)).measure_all(rng)
    else:
        inverse = share.unitary.conj().T
        undone = apply_unitary(states, inverse, tuple(range(challenge.n)))
        bits = np.array(measure_register(undone, rng), dtype=np.uint8)
    # one batched integers(2) draw yields the same values, and leaves the
    # stream at the same point, as one scalar draw per lost qubit in order
    lost = np.asarray(delivered.lost, dtype=bool)
    bits[lost] = rng.integers(2, size=int(np.count_nonzero(lost)))
    return render_answer(bits)


def honest_prover_ip(
    challenge: Challenge, delivered: DeliveredPayload, rng: RngStream
) -> str:
    """Rebuild U from the two shares, undo it per qubit, and measure; lost
    qubits answer the empty symbol."""
    states: QubitArray = delivered.states
    product = interleave(
        challenge.v0_classical.factors, challenge.v1_classical.factors
    )
    inverses = np.conj(np.swapaxes(product, -1, -2))
    # the per-qubit kernel rounds differently, so the spec picks it, not the
    # copy count: an n = 1 per-qubit game keeps apply_each
    if challenge.spec.per_qubit_unitaries:
        undone = states._apply_each(inverses)
    else:
        undone = states._apply_same(inverses[0])
    bits = undone.measure_all(rng)
    return render_answer(bits, np.asarray(delivered.lost, dtype=bool))


def largest_strict_count(threshold: float) -> int:
    """The largest count the strict clause `count < threshold` accepts: the
    largest integer below threshold - 1e-9, or 0, which always passes."""
    return max(0, math.ceil(threshold - 1e-9) - 1)


# answer symbol codes: "0" -> 0, "1" -> 1, the empty symbol -> 2, and every
# other byte above both, so one comparison checks the alphabet
_ONE, _EMPTY = 1, 2
_SYMBOL_CODES = np.full(256, 255, dtype=np.uint8)
_SYMBOL_CODES[[ord("0"), ord("1"), ord(EMPTY_SYMBOL)]] = (0, 1, _EMPTY)


def _answer_codes(y: str, n: int, highest: int) -> np.ndarray:
    """Symbol codes of an n-character answer; codes above `highest` (the
    last symbol of the game's alphabet) raise ValidationError."""
    if len(y) != n:
        raise ValidationError(f"answer length {len(y)} does not match n={n}")
    # "replace" turns each non-ASCII character into one "?", outside every
    # alphabet, so the codes stay one per character
    raw = np.frombuffer(y.encode("ascii", "replace"), dtype=np.uint8)
    codes = _SYMBOL_CODES[raw]
    if codes.max(initial=0) > highest:
        raise ValidationError("answer contains symbols outside the alphabet")
    return codes


def verify_basis(x: np.ndarray, y0: str, y1: str, eta: float) -> Verdict:
    """Accept iff both verifiers got the same y and d_H(x, y) <= eta*n."""
    n = len(x)
    codes = _answer_codes(y0, n, _ONE)
    answers_equal = y0 == y1
    if not answers_equal:
        _answer_codes(y1, n, _ONE)
    errors = int(np.count_nonzero(codes != np.asarray(x)))
    accepted = answers_equal and (errors == 0 or errors <= eta * n + 1e-9)
    return Verdict(accepted, errors, 0, answers_equal)


def verify_ip(
    x: np.ndarray, y0: str, y1: str, eta_err: float, eta_loss: float
) -> Verdict:
    """Accept iff answers match, errors < eta_err*n and losses < eta_loss*n
    (strict, except that a zero count always passes its clause)."""
    n = len(x)
    codes = _answer_codes(y0, n, _EMPTY)
    answers_equal = y0 == y1
    if not answers_equal:
        _answer_codes(y1, n, _EMPTY)
    empty = codes == _EMPTY
    losses = int(np.count_nonzero(empty))
    errors = int(np.count_nonzero(~empty & (codes != np.asarray(x))))
    accepted = (
        answers_equal
        and errors <= largest_strict_count(eta_err * n)
        and losses <= largest_strict_count(eta_loss * n)
    )
    return Verdict(accepted, errors, losses, answers_equal)


class HonestProver:
    """Reference prover: applies the inverse rotation and reports the truth."""

    name = "honest"

    def run_trial(
        self, challenge: Challenge, delivered: DeliveredPayload, rng: RngStream
    ) -> TrialOutcome:
        if challenge.game == "basis":
            y = honest_prover_basis(challenge, delivered, rng)
        else:
            y = honest_prover_ip(challenge, delivered, rng)
        return TrialOutcome(y, y, 0, 0)


@dataclass(frozen=True)
class GameStats:
    """Aggregate of a Monte Carlo run, computed once from its trial rows
    (index, accepted, error_count, loss_count, epr_consumed); all means are
    exact-integer totals divided by the trial count."""

    trials: int
    wins: int
    win_rate: float
    stderr: float
    mean_error_count: float
    mean_loss_count: float
    mean_epr_consumed: float
    reserved_epr: int
    error_histogram: dict[int, int]
    trial_rows: tuple[tuple[int, bool, int, int, int], ...]


def run_game(
    spec, actor, channel: ChannelModel | None, trials: int, rng: RngStream
) -> GameStats:
    """Run `trials` independent rounds, one after another, and aggregate.

    Trial i owns the stream rng.substream(1 + i): its challenge draws first,
    then the channel and the actor continue on the same stream object.
    Trials run in blocks of B = max(1, BLOCK_QUBITS // n). A block makes the
    challenges of its trials first (an IP block closes them as one stacked
    product, see `gen_ip_block`), then runs each trial's channel, actor and
    verification in index order. No two trials share a stream, so making
    the challenges of trials i..i+B-1 first leaves every stream's draws in
    their order: results depend only on (seed, trial index), never on the
    block size. A finished trial leaves only its row and its reserved EPR
    count, so memory holds no trial's challenge, state or answers past its
    block. With channel None the payload is delivered as sent and nothing
    is drawn for a channel.
    """
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    is_basis = isinstance(spec, BasisGameSpec)
    size = max(1, BLOCK_QUBITS // spec.n)
    reserved: set[int] = set()
    rows = []
    for start in range(0, trials, size):
        rngs = [rng.substream(1 + i) for i in range(start, min(start + size, trials))]
        if is_basis:
            challenges = [gen_basis_challenge(spec, r) for r in rngs]
        else:
            challenges = [
                gen_ip_challenge(spec, r, row)
                for r, row in zip(rngs, gen_ip_block(spec, rngs))
            ]
        for i, rng_i, challenge in zip(range(start, trials), rngs, challenges):
            payload = challenge.quantum_payload
            if channel is None:
                delivered = DeliveredPayload.pristine(payload, challenge.n)
            else:
                delivered = DeliveredPayload(*apply_channel(payload, channel, rng_i))
            outcome = actor.run_trial(challenge, delivered, rng_i)
            if is_basis:
                verdict = verify_basis(
                    challenge.secret.x, outcome.y_alice, outcome.y_bob, spec.eta
                )
            else:
                verdict = verify_ip(
                    challenge.secret.x,
                    outcome.y_alice,
                    outcome.y_bob,
                    spec.eta_err,
                    spec.eta_loss,
                )
            reserved.add(outcome.epr_reserved)
            counts = (verdict.error_count, verdict.loss_count, outcome.epr_consumed)
            rows.append((i, verdict.accepted, *counts))
            # the delivered state and the answers die with their trial, and
            # the challenges with their block
            del delivered, outcome
        del challenges, challenge, payload
    if len(reserved) != 1:
        raise ValidationError("strategy reported inconsistent reserved EPR counts")
    wins = sum(row[1] for row in rows)
    win_rate = wins / trials
    stderr = float(np.sqrt(win_rate * (1.0 - win_rate) / trials))
    return GameStats(
        trials=trials,
        wins=wins,
        win_rate=win_rate,
        stderr=stderr,
        mean_error_count=sum(row[2] for row in rows) / trials,
        mean_loss_count=sum(row[3] for row in rows) / trials,
        mean_epr_consumed=sum(row[4] for row in rows) / trials,
        reserved_epr=reserved.pop(),
        error_histogram=dict(Counter(row[2] for row in rows)),
        trial_rows=tuple(rows),
    )
