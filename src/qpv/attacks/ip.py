"""Coalition strategies for the interleaved-product game.

The product structure U = u_1 v_1 ... u_t v_t alternates factors known to
Alice (u) and Bob (v), so any attack must bounce each payload qubit between
the parties, stripping one factor per visit. Two entangled routes do this:

* Port-based hops: each visit ends with a port teleportation, the receiver
  applies its factor inverse to every port, and the chain continues from
  the realized port. No corrections ever need undoing, but every hop is a
  lossy channel, so the error rate is set by the port counts.
* Compiled words: each factor inverse is compiled to a letter word over
  {H, T, Tdg}; letters are Clifford or one level above, so the standard
  strip-and-burn chain applies letter by letter with exact algebra. The
  error rate is set by the compiler accuracy, charged against the game's
  error budget up front.

The non-entangled pair (random-basis, lossy-confidence) measures locally
and reconstructs the best guess after the single classical exchange; the
lossy variant converts the loss allowance into declared empties on a
pre-agreed subset, scaling the residual error mass by the answered
fraction so the winning boundary sits exactly at eta_err + eta_loss/4
= 1/4.

Every strategy's `answer` decodes the two exchanged records to a uint8
bit array plus a bool mask of the positions it declares empty, and
`protocols.render_answer` spells the answer string; positions with no
usable bit (a failed hop, a loss beyond the declared budget) take
pre-agreed random bits (`with_fallback`).
"""

from __future__ import annotations

import numpy as np

from ..costs import pbt_cost, sk_cost
from ..errors import StrategyError, ValidationError
from ..pauli import (
    CLIFFORD_1Q,
    CLIFFORD_INV,
    CLIFFORD_MUL,
    CLIFFORD_XZ,
    PAULI_CLIFFORD,
    clifford_conjugation_table,
)
from ..protocols import Challenge, IpShare, interleave, largest_strict_count, render_answer
from ..rng import RngStream
from ..sk import LETTER_MATRICES, build_net, pad_to_length, sk_decompose
from ..statevec import haar_qubit_batch, qubit_phase_distances
from ..teleport import build_pbt_channel
from .base import (
    ALICE,
    BOB,
    CoalitionStrategy,
    CorrectionTranscript,
    EntanglementLedger,
    TrialState,
    with_fallback,
)


def _require_ip(challenge: Challenge):
    if challenge.game != "ip":
        raise ValidationError("this strategy plays the interleaved-product game")


def _share_factors(share: IpShare, qubit: int) -> np.ndarray:
    """Factor stack (t, 2, 2) for one qubit; a shared challenge has one copy."""
    copies = share.factors.shape[1]
    return share.factors[:, qubit if copies > 1 else 0]


# a PBT chain's outcome when a hop failed; lost qubits keep it too
_HOP_FAILED = 2


def _adjoint(stack: np.ndarray) -> np.ndarray:
    """Conjugate transposes of a (..., 2, 2) stack; each equals its
    matrix's .conj().T, and a matmul by it rounds as that one's does."""
    return np.conj(np.swapaxes(stack, -1, -2))


def _chain_p1(amps, u, v, visibility: float) -> np.ndarray:
    """P(1) of qubits that survived every hop of a PBT chain.

    amps (S, 2) are the delivered qubits and u, v (S, t, 2, 2) their
    factors. Each qubit is stripped of u_1 before the first hop, then of
    the factor its hop lands on, one stacked matmul per hop; it reads 1
    with probability visibility |psi_1|^2 + (1 - visibility)/2.
    """
    psi = _adjoint(u[:, 0]) @ amps[:, :, None]
    for h in range(2 * u.shape[1] - 1):
        # hops 0, 2, 4, ... land at Bob (strips v_{h/2+1}); odd at Alice
        factor = v[:, h // 2] if h % 2 == 0 else u[:, h // 2 + 1]
        psi = _adjoint(factor) @ psi
    # hypot and pow round as the scalar abs() and ** 2 do; np.abs and the
    # array ** 2 take kernels that differ from them in the last bit
    amp1 = np.hypot(psi[:, 1, 0].real, psi[:, 1, 0].imag)
    return visibility * np.float_power(amp1, 2.0) + (1.0 - visibility) / 2.0


class PbtAttack(CoalitionStrategy):
    """Bounce every qubit through 2t-1 port teleportations.

    Hop h uses ports[h] ports; the receiver needs no correction, so each
    party just applies its next factor inverse to the arriving qubit. A
    completion outcome destroys the qubit and both parties fall back to a
    pre-agreed random bit for that position. The whole bank is committed,
    so consumed equals reserved.

    Each hop either completes (probability q_m) or depolarizes by p_m (see
    PbtChannel). Depolarizing commutes with the factor inverses, so a qubit
    that survives every hop is the pure state psi = W |input>, W the product
    of the inverses, mixed with I/2 at visibility P = prod_h p_{m_h}, and it
    reads 1 with probability P |psi_1|^2 + (1 - P)/2. No density matrix is
    needed. On a clean channel each qubit is wrong with probability exactly
    e = 1/2 - 1/2 prod_h (1 - q_{m_h}) p_{m_h}: 0.0626 for pbt:8 and
    0.16521 for pbt:8,8,8.

    The block pass `new_trials` is the only path, and `new_trial` runs a
    block of one. The hop draws depend only on the uniforms, never on the
    state, so each trial draws all of them first, on its own stream and in
    the order the qubits would draw them one by one. Then the whole block's
    survivors are stripped together, one stacked matmul per hop (see
    `_chain_p1`), with the bits a per-qubit run gives.
    """

    def __init__(self, ports):
        ports = tuple(int(m) for m in ports)
        if not ports:
            raise ValidationError("need at least one hop")
        self.ports = ports
        self._channels = {m: build_pbt_channel(m) for m in sorted(set(ports))}
        # a survivor passed every hop, so its visibility is the product of all
        visibility = 1.0
        for m in ports:
            visibility *= self._channels[m].depolarizing
        self._visibility = visibility
        # hop h completes, draw_outcome(rng) == m, exactly when its uniform
        # reaches the CDF entry of the last port (the CDF ends at 1)
        self._completion_edges = tuple(self._channels[m].cdf[m - 1] for m in ports)
        self.name = "pbt:" + ",".join(str(m) for m in ports)

    def reserved_epr(self, challenge: Challenge) -> int:
        return pbt_cost(challenge.n, self.ports).reserved_epr

    def new_trial(self, challenge, delivered, rng) -> TrialState:
        return self.new_trials([challenge], [delivered], [rng])[0]

    def new_trials(self, challenges, delivered, rngs) -> list[TrialState]:
        """Run the chains of a block of trials that share one spec.

        First each trial, on its own stream, draws its qubits' hop outcomes
        in qubit order, each up to the first completion, and then the
        readout uniform of each qubit that survived every hop. No draw
        depends on the state, so every stream sees the draws, in the order,
        that it would see if the qubits ran one by one. Then one stacked
        matmul per hop carries every survivor of the block, with each
        trial's own factors gathered per qubit (or its one shared copy),
        and one vectorised P(1) and one compare give every survivor's bit.
        """
        spec = challenges[0].spec
        for challenge in challenges:
            _require_ip(challenge)
            if challenge.spec != spec:
                raise ValidationError("the trials of a block must share one spec")
        if len(self.ports) != 2 * spec.t - 1:
            raise ValidationError(
                f"{len(self.ports)} hops cannot strip 2t-1 = {2 * spec.t - 1} factors"
            )
        reserved = self.reserved_epr(challenges[0])
        trials = []
        # every survivor's trial, qubit and readout uniform
        survivor_trial, survivor_qubit, readouts = [], [], []
        for challenge, payload, rng in zip(challenges, delivered, rngs):
            trial = TrialState(challenge, payload, rng, EntanglementLedger(reserved))
            trial.ledger.spend(reserved)
            lost = np.asarray(payload.lost, dtype=bool)
            trial.alice["lost"] = lost
            random = rng.generator.random
            for q, gone in enumerate(lost.tolist()):
                if gone:
                    continue
                for edge in self._completion_edges:
                    if random() >= edge:
                        break
                else:
                    survivor_trial.append(len(trials))
                    survivor_qubit.append(q)
                    readouts.append(random())
            trials.append(trial)

        bits = np.full((len(trials), challenges[0].n), _HOP_FAILED, dtype=np.uint8)
        if readouts:
            b, q = np.array(survivor_trial), np.array(survivor_qubit)
            amps = np.stack([p.states.amps for p in delivered])[b, q]
            u = np.stack([c.v0_classical.factors for c in challenges])
            v = np.stack([c.v1_classical.factors for c in challenges])
            # (survivors, t, 2, 2): each survivor's own copy, or copy 0
            copy = q if u.shape[2] > 1 else 0
            p1 = _chain_p1(amps, u[b, :, copy], v[b, :, copy], self._visibility)
            bits[b, q] = np.array(readouts) < p1
        for trial, row in zip(trials, bits):
            trial.bob["bits"] = row
        return trials

    def answer(self, trial) -> str:
        bits, lost = trial.bob["bits"], trial.alice["lost"]
        failed = (bits == _HOP_FAILED) & ~lost
        return render_answer(with_fallback(trial, bits, failed), lost)


_LETTER_CONJ = {
    letter: clifford_conjugation_table(m)
    for letter, m in LETTER_MATRICES.items()
    if letter != "I"
}


class _TableChain:
    """Single-qubit strip chain with synthetic corrections, tracked by index.

    Teleport corrections are uniform Pauli bits independent of the state,
    so a hop samples its own (x, z) pair instead of building Bell pairs.
    The outer operator is an index into CLIFFORD_1Q: it is a Pauli before
    every letter, a letter (H, T or Tdg) conjugates it to a Clifford, and
    one burn brings it back to a Pauli, so every step is an exact integer
    lookup. The opening strip (u_1 inverse, by Alice) acts before any hop,
    while the outer operator is still the identity, so it leaves the index
    alone. The product of everything applied equals frame @ W @ u_1^dag,
    where W is the words' product (_words_product), so the final qubit is
    recovered without a per-letter matrix. A live chain spends one pair of
    `ledger` per hop; replay mode reads the recorded corrections back and
    repeats the same control flow.
    """

    def __init__(self, rng=None, ledger=None, alice=None, bob=None):
        self.live = rng is not None
        self.rng = rng
        self.ledger = ledger
        self.transcript = CorrectionTranscript(alice, bob)
        self.holder = ALICE
        self.outer = PAULI_CLIFFORD[(0, 0)]

    @property
    def frame(self) -> np.ndarray:
        return CLIFFORD_1Q[self.outer]

    def _hop(self):
        sender = self.holder
        if self.live:
            xz = tuple(self.rng.bits(2).tolist())
            self.ledger.spend(1)
            self.transcript.record(sender, xz)
        else:
            xz = self.transcript.replay(sender)
        self.outer = CLIFFORD_MUL[PAULI_CLIFFORD[xz]][self.outer]
        self.holder = BOB if sender == ALICE else ALICE

    def move_to(self, party: str):
        if self.holder != party:
            self._hop()

    def run(self, u_letters, v_letters) -> _TableChain:
        """Strip every compiled word in order, then hand the qubit to Bob."""
        for letters, owner in _strip_order(u_letters, v_letters):
            self.apply_word(letters, owner)
        self.move_to(BOB)
        return self

    def apply_word(self, letters, owner: str):
        """Apply the word's letters so their product multiplies the state."""
        self.move_to(owner)
        for letter in reversed(letters):
            if letter == "I":
                continue
            outer = _LETTER_CONJ[letter][self.outer]
            if outer is None:
                raise StrategyError(f"letter {letter} left the Clifford group")
            self.outer = outer
            if CLIFFORD_XZ[outer] is None:
                self._burn()

    def _burn(self):
        self._hop()
        # candidate = sigma1 @ o_pre; the owner covers every possible value
        # through the address-indexed bank, so acting with it is legitimate
        candidate = self.outer
        self._hop()
        self.outer = CLIFFORD_MUL[CLIFFORD_INV[candidate]][self.outer]
        if CLIFFORD_XZ[self.outer] is None:
            raise StrategyError("burn failed to restore the Pauli invariant")

    def residue_x(self) -> int:
        """x bit of the final Pauli outer operator, which flips the outcome."""
        xz = CLIFFORD_XZ[self.outer]
        if xz is None:
            raise StrategyError("chain residue is not a Pauli operator")
        return xz[0]


class SkAttack(CoalitionStrategy):
    """Strip each factor through its compiled {H, T, Tdg} word.

    Every letter is at most one level above Clifford, so the strip chain
    stays exact; the only inaccuracy is the compiler's, and each word must
    land within eta_err / (2t) of its factor inverse so the triangle
    inequality keeps the whole product inside the game's error budget.
    """

    def __init__(self, depth: int, l0: int = 14):
        if depth < 0 or depth > 4:
            raise ValidationError("compiler depth must be between 0 and 4")
        self.depth = depth
        self.l0 = l0
        self.net = build_net(l0)
        if depth > 0:
            # check before any trial: a pinned net reads its constants and any
            # other calibrates here, so a net too coarse to contract fails
            # before the first trial
            self.net.ensure_convergent()
        # concatenation never lengthens words past the 5x recursion growth
        self.word_cap = l0 * 5**depth
        self.name = f"sk:{depth}"

    def reserved_epr(self, challenge: Challenge) -> int:
        t = challenge.spec.t
        return challenge.n * sk_cost(t, self.word_cap, semi_clifford=True).reserved_epr

    def _compile(self, factors: np.ndarray, budget: float, tag: str):
        """Words for the factor inverses, each checked against the budget."""
        words = []
        for i in range(factors.shape[0]):
            word = sk_decompose(factors[i].conj().T, self.depth, self.net)
            err = float(qubit_phase_distances(word.unitary, factors[i].conj().T))
            if err > budget:
                raise StrategyError(
                    f"compiled {tag}_{i + 1} misses by {err:.4f} "
                    f"(budget {budget:.4f})"
                )
            if word.length > self.word_cap:
                raise StrategyError("compiled word exceeded the declared cap")
            words.append(pad_to_length(word, self.word_cap))
        return words

    def new_trial(self, challenge, delivered, rng) -> TrialState:
        _require_ip(challenge)
        spec = challenge.spec
        t = spec.t
        budget = spec.eta_err / (2 * t) if spec.eta_err > 0 else 0.0
        if budget <= 0.0:
            raise StrategyError(
                "compiled strips need a positive error budget to charge against"
            )
        trial = self.base_trial(challenge, delivered, rng)
        trial.alice["lost"] = np.asarray(delivered.lost, dtype=bool)

        copies = challenge.v0_classical.factors.shape[1]
        u_letters = []
        v_letters = []
        words_product = []
        for q in range(copies):
            u = _share_factors(challenge.v0_classical, q)
            v = _share_factors(challenge.v1_classical, q)
            u_words = self._compile(u[1:], budget, "u")
            v_words = self._compile(v, budget, "v")
            u_letters.append(tuple(w.letters for w in u_words))
            v_letters.append(tuple(w.letters for w in v_words))
            words_product.append(_words_product(u_words, v_words))
        trial.alice["u_letters"] = tuple(u_letters)
        trial.bob["v_letters"] = tuple(v_letters)

        alice_sigmas = []
        bob_sigmas = []
        amps = delivered.states.amps
        bits = np.zeros(challenge.n, dtype=np.uint8)
        for q in range(challenge.n):
            c = q if copies > 1 else 0
            opening = _share_factors(challenge.v0_classical, q)[0].conj().T
            chain = _TableChain(rng=rng, ledger=trial.ledger).run(
                u_letters[c], v_letters[c]
            )
            applied = chain.frame @ words_product[c] @ opening
            psi = applied @ amps[q]
            p1 = float(np.abs(psi[1]) ** 2 / (np.abs(psi) ** 2).sum())
            bits[q] = rng.random() < p1
            alice_sigmas.append(tuple(chain.transcript.alice))
            bob_sigmas.append(tuple(chain.transcript.bob))
        trial.alice["sigmas"] = tuple(alice_sigmas)
        trial.bob["sigmas"] = tuple(bob_sigmas)
        trial.bob["bits"] = bits
        return trial

    def answer(self, trial) -> str:
        alice, bob = trial.alice, trial.bob
        u_letters, v_letters = alice["u_letters"], bob["v_letters"]
        lost = alice["lost"]
        bits = bob["bits"].copy()
        for q in np.flatnonzero(~lost):
            c = q if len(u_letters) > 1 else 0
            chain = _TableChain(alice=alice["sigmas"][q], bob=bob["sigmas"][q])
            chain.run(u_letters[c], v_letters[c]).transcript.check_read()
            bits[q] ^= chain.residue_x()
        return render_answer(bits, lost)


def _strip_order(u_words, v_words):
    """(word, owner) for v_1, u_2, v_2, ..., v_t (u_1 is stripped exactly)."""
    for k in range(2 * len(v_words) - 1):
        if k % 2 == 0:
            yield v_words[k // 2], BOB
        else:
            yield u_words[(k - 1) // 2], ALICE


def _words_product(u_words, v_words) -> np.ndarray:
    """Product of the strip words' cached unitaries, last stripped leftmost."""
    product = np.eye(2, dtype=np.complex128)
    for word, _ in _strip_order(u_words, v_words):
        product = word.unitary @ product
    return product


class RandomBasisAttack(CoalitionStrategy):
    """Measure each qubit in a fresh Haar basis; guess x from the overlaps.

    After the exchange both parties hold the outcome, the basis, and both
    factor shares, so they reconstruct U and pick the likelier preparation,
    agreeing by construction. The per-qubit error rate is exactly 1/4 in
    the noiseless game.
    """

    name = "random-basis"

    def reserved_epr(self, challenge: Challenge) -> int:
        return 0

    def new_trial(self, challenge, delivered, rng) -> TrialState:
        _require_ip(challenge)
        trial = self.base_trial(challenge, delivered, rng)
        n = challenge.n
        bases = haar_qubit_batch(n, rng)
        overlap = np.einsum("qjb,qj->qb", bases.conj(), delivered.states.amps)
        p = np.abs(overlap) ** 2
        outcomes = (rng.random(n) < p[:, 1] / p.sum(axis=1)).astype(int)
        trial.alice["bases"] = bases
        trial.alice["outcomes"] = outcomes
        trial.alice["lost"] = np.asarray(delivered.lost, dtype=bool)
        trial.alice["u_share"] = challenge.v0_classical
        trial.bob["v_share"] = challenge.v1_classical
        return trial

    def answer(self, trial) -> str:
        alice = trial.alice
        guess = _guess_bits(
            alice["bases"], alice["outcomes"], alice["u_share"],
            trial.bob["v_share"], trial.challenge.n,
        )
        return self._render(trial, guess, alice["lost"])

    def _render(self, trial, guess, lost) -> str:
        return render_answer(guess, lost)


def _guess_bits(bases, outcomes, u_share, v_share, n) -> np.ndarray:
    """The likelier x per qubit, from scores[q, x] = |<b_q^(m_q)| U_q |x>|^2."""
    stack = np.broadcast_to(interleave(u_share.factors, v_share.factors), (n, 2, 2))
    sel = bases[np.arange(n), :, outcomes]
    scores = np.abs(np.einsum("qj,qjx->qx", sel.conj(), stack)) ** 2
    return (scores[:, 1] > scores[:, 0]).astype(np.uint8)


class LossyConfidenceAttack(RandomBasisAttack):
    """Random-basis measurement that converts the loss allowance into empties.

    The loss budget is largest_strict_count(eta_loss * n), the most empties
    verify_ip's strict loss clause accepts, also where eta_loss * n rounds
    just above an integer (0.28 * 25). Channel-lost positions are
    hopeless anyway and use the allowance first; the rest of the budget is
    spent on a pre-agreed random subset, independent of the realized
    guesses, so the answered positions keep the bare 1/4 error rate and
    the total error mass scales to (1 - eta_loss)/4 of the game size.
    Dropping by realized guess quality instead would push the error mass
    below that line and blur the winning boundary the thresholds encode.
    Lost positions beyond the budget answer pre-agreed random bits rather
    than busting the loss clause.
    """

    name = "lossy-confidence"

    def _drop_mask(self, trial, lost, budget: int) -> np.ndarray:
        """Budgeted empty positions: the first `budget` lost ones, topped up
        with the not-yet-lost entries of a pre-agreed order."""
        n = trial.challenge.n
        order = trial.rng.generator.permutation(n)
        lost_q = np.flatnonzero(lost)
        extra = order[~lost[order]][: max(0, budget - len(lost_q))]
        drop = np.zeros(n, dtype=bool)
        drop[lost_q[:budget]] = True
        drop[extra] = True
        return drop

    def _render(self, trial, guess, lost) -> str:
        n = trial.challenge.n
        budget = largest_strict_count(trial.challenge.spec.eta_loss * n)
        drop = self._drop_mask(trial, lost, budget)
        return render_answer(with_fallback(trial, guess, lost & ~drop), drop)
