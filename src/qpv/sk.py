"""Solovay-Kitaev compilation of single-qubit unitaries into H/T/Tdg words.

Everything works projectively in SU(2): inputs are stripped of their
determinant phase and all distances are phase-invariant, since the letter
set only generates the group up to phase and no protocol observable sees one.

The recursion follows the classic scheme: approximate the residual
Delta = U * prev^dag as a balanced group commutator V W V^dag W^dag of two
rotations by equal angles about orthogonal axes, recurse on V and W, and
concatenate. Accuracy constants are not assumed: the net's covering radius
is measured on Haar samples and the contraction constant of the recursion is
calibrated the same way, so the guaranteed error profile
eps(0) = radius_bound, eps(d+1) = c_bound * eps(d)^1.5 is an empirical
contract rather than a theorem imported on faith. Both depend only on the
fixed net seed, the base length and the sample counts, so they are measured
once and pinned for the default nets (base lengths 10, 12, 14); a tier-1 test
recomputes every pin through the sampling code, which any other net still
runs when it is built.

Up to phase an SU(2) element is a unit quaternion, and the phase-invariant
distance falls as |<q_u, q_entry>| rises, so a net lookup is one argmax over
a matrix-vector product with the net's stacked quaternions; the distance is
then evaluated on the chosen entry alone. The recursion for a target at depth
d computes its words at every depth below d on the way, and calibration reads
that whole spine once per target instead of recompiling each depth.

The net is one (N, 2, 2) matrix stack, read-only, plus two small integer
tables: each entry's parent (the entry its word extends by one letter) and
that last letter. It is enumerated one word length at a time: each level is
one stacked matrix product, one vectorised dedup key and one array test of
the inverse-letter rule, and only the surviving candidates meet a Python set.
No entry holds a word or an array of its own; a lookup spells the chosen
entry's letters by walking its parents back to the root, at most base-length
steps, and its GateWord's unitary is that entry's row of the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ResourceError, ValidationError
from .gates import H, I2, T, TDG
from .rng import RngStream
from .statevec import haar_random_unitary

LETTER_MATRICES = {"I": I2, "H": H, "T": T, "Tdg": TDG}
_INVERSE_LETTER = {"I": "I", "H": "H", "T": "Tdg", "Tdg": "T"}
# the net's letters, by code; the root entry's last letter is -1
_NET_LETTERS = ("H", "T", "Tdg")
_INVERSE_CODE = np.array([_NET_LETTERS.index(_INVERSE_LETTER[g]) for g in _NET_LETTERS])

# fixed internal seed: nets must be identical across processes for the
# determinism contract, independent of any experiment seed
_NET_SEED = 20260818
_RADIUS_MARGIN = 1.15
_COMMUTATOR_MARGIN = 1.5
_CALIBRATION_SAMPLES = 64
# entries whose overlap is this close to the best are scored by the distance
# formula; it need only exceed the rounding of the overlap and of that formula
_TIE_TOLERANCE = 1e-9
# a net entry's dedup key: eight int64 components
_KEY_BYTES = 64
# float.hex of (covering_radius, radius_bound, commutator_constant), keyed by
# (l0, _NET_SEED, radius_samples, _CALIBRATION_SAMPLES): what
# _sample_covering_radius and _calibrate measure for the default nets
_PINNED = {
    (10, _NET_SEED, 1000, _CALIBRATION_SAMPLES): (
        "0x1.f97aa567abcdfp-3", "0x1.22a6858202c99p-2", "0x1.538141bd067b1p+0"
    ),
    (12, _NET_SEED, 1000, _CALIBRATION_SAMPLES): (
        "0x1.5ab1e663ccbbbp-3", "0x1.8eb2fc25f83e3p-3", "0x1.c263a28717ed1p+0"
    ),
    (14, _NET_SEED, 1000, _CALIBRATION_SAMPLES): (
        "0x1.30e2ba56855f6p-3", "0x1.5e9e5649e62dap-3", "0x1.c6f0ac3a8dcb6p+0"
    ),
}


def to_su2(m: np.ndarray) -> np.ndarray:
    """Strip the determinant phase, leaving an SU(2) representative."""
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (2, 2):
        raise ValidationError("expected a 2x2 matrix")
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(abs(det) - 1.0) > 1e-8:
        raise ValidationError("matrix is not unitary")
    return m * np.exp(-0.5j * np.angle(det))


def su2_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Phase-invariant spectral distance, closed form for the 2x2 case."""
    tr = np.vdot(u, v)
    det_u = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    det_v = v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0]
    psi = np.angle(np.conj(det_u) * det_v) / 2.0
    cos_chi = min(max(float(np.real(tr * np.exp(-1j * psi))) / 2.0, -1.0), 1.0)
    chi = float(np.arccos(cos_chi))
    return float(2.0 * np.sin(min(chi, np.pi - chi) / 2.0))


def reduce_letters(letters) -> tuple[str, ...]:
    """Drop identity letters and cancel adjacent inverse pairs."""
    stack: list[str] = []
    for letter in letters:
        if letter == "I":
            continue
        if letter not in LETTER_MATRICES:
            raise ValidationError(f"unknown letter {letter!r}")
        if stack and _INVERSE_LETTER[stack[-1]] == letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def adjoint_letters(letters) -> tuple[str, ...]:
    return tuple(_INVERSE_LETTER[g] for g in reversed(letters))


def _product(letters) -> np.ndarray:
    m = np.eye(2, dtype=np.complex128)
    for letter in letters:
        m = m @ LETTER_MATRICES[letter]
    return m


@dataclass(frozen=True, eq=False)
class GateWord:
    """Letter sequence with its cached matrix product (reading order)."""

    letters: tuple[str, ...]
    unitary: np.ndarray

    @classmethod
    def from_letters(cls, letters) -> "GateWord":
        letters = tuple(letters)
        for letter in letters:
            if letter not in LETTER_MATRICES:
                raise ValidationError(f"unknown letter {letter!r}")
        return cls(letters, _product(letters))

    @property
    def length(self) -> int:
        return len(self.letters)

    def adjoint(self) -> "GateWord":
        return GateWord(adjoint_letters(self.letters), self.unitary.conj().T)


def concat_words(*words: GateWord) -> GateWord:
    letters = reduce_letters([g for w in words for g in w.letters])
    return GateWord.from_letters(letters)


def pad_to_length(word: GateWord, length: int) -> GateWord:
    """Append identity letters so the word has the requested length."""
    if length < word.length:
        raise ValidationError("cannot pad below the current length")
    return GateWord(word.letters + ("I",) * (length - word.length), word.unitary)


def _canonical_keys(stack: np.ndarray) -> bytes:
    """Dedup keys of a stack of 2x2 unitaries, _KEY_BYTES per matrix, back to back.

    A matrix's key is its SU(2) form up to sign, rounded to 1e-7: the sign is
    fixed by the first of the eight real components above 0.35 in magnitude.
    One bytes object rather than one per matrix: a caller that slices out
    each key as it needs it frees a rejected key right away, instead of
    holding a level's worth of small objects that fragment the heap.
    """
    det = stack[:, 0, 0] * stack[:, 1, 1] - stack[:, 0, 1] * stack[:, 1, 0]
    if np.any(np.abs(np.abs(det) - 1.0) > 1e-8):
        raise ValidationError("matrix is not unitary")
    v = (stack * np.exp(-0.5j * np.angle(det))[:, None, None]).view(np.float64).reshape(len(stack), 8)
    pivot = np.argmax(np.abs(v) > 0.35, axis=1)
    flip = v[np.arange(len(v)), pivot] < 0
    v = np.where(flip[:, None], -v, v)
    return np.round(v * 1e7).astype(np.int64).tobytes()


def _quaternion(s: np.ndarray) -> np.ndarray:
    """(Re a, Im a, Re b, Im b) of SU(2) matrices [[a, b], [-b*, a*]]."""
    return np.ascontiguousarray(s[..., 0, :]).view(np.float64)


def _stack_distances(u: np.ndarray, stack: np.ndarray, det_phase: np.ndarray) -> np.ndarray:
    """su2_distance from U to each matrix of a stack with known determinant phases."""
    u = np.asarray(u, dtype=np.complex128)
    tr = np.einsum("ij,kij->k", u.conj(), stack)
    det_u = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    psi = (det_phase - np.angle(det_u)) / 2.0
    cos_chi = np.clip(np.real(tr * np.exp(-1j * psi)) / 2.0, -1.0, 1.0)
    chi = np.arccos(cos_chi)
    return 2.0 * np.sin(np.minimum(chi, np.pi - chi) / 2.0)


@dataclass(frozen=True)
class SkCalibration:
    """Measured constants behind the guaranteed error recursion."""

    radius_bound: float
    commutator_constant: float
    samples: int

    def epsilon(self, depth: int) -> float:
        eps = self.radius_bound
        for _ in range(depth):
            eps = self.commutator_constant * eps**1.5
        return eps

    def is_convergent(self) -> bool:
        return self.commutator_constant * np.sqrt(self.radius_bound) < 1.0


class EpsilonNet:
    """All distinct products of H/T/Tdg words up to a base length.

    The entries are the rows of one read-only (N, 2, 2) stack; entry i's word
    is entry parents[i]'s word followed by the letter coded last_letters[i]
    (row 0 is the empty word). word(i) spells it by walking the parents, and
    its GateWord's unitary is row i of the stack, not a copy. A lookup strips
    the target's phase and takes the entry whose quaternion has the largest
    |dot product| with the target's, against the entries' quaternions stacked
    once here; nearest then evaluates the phase-invariant distance on that
    entry only, and nearest_word skips it. covering_radius is the largest
    nearest-entry distance seen over a Haar sample, and radius_bound adds a
    safety margin on top so fresh targets stay inside it. build_net gives a
    default net its pinned radius and calibration; any other net samples the
    radius at build time and calibrates on first use.
    """

    def __init__(self, stack, parents, last_letters, base_length, covering_radius):
        stack.flags.writeable = False
        self._stack = stack
        self._parents = parents.tolist()
        self._last_letters = last_letters.tolist()
        self.base_length = base_length
        self.covering_radius = covering_radius
        self.radius_bound = _RADIUS_MARGIN * covering_radius
        dets = stack[:, 0, 0] * stack[:, 1, 1] - stack[:, 0, 1] * stack[:, 1, 0]
        self._det_phase = np.angle(dets)
        stripped = stack * np.exp(-0.5j * self._det_phase)[:, None, None]
        # (4, N): a vector-matrix product over rows is faster than (N, 4) @ q
        self._quaternions = np.ascontiguousarray(_quaternion(stripped).T)
        self._calibration: SkCalibration | None = None

    def __len__(self) -> int:
        return len(self._stack)

    def word(self, index: int) -> GateWord:
        """Entry index's word, spelled back to front along its parents."""
        letters = []
        i = index
        while i:
            letters.append(_NET_LETTERS[self._last_letters[i]])
            i = self._parents[i]
        return GateWord(tuple(reversed(letters)), self._stack[index])

    def _nearest_index(self, u: np.ndarray) -> int:
        u = np.asarray(u, dtype=np.complex128)
        det_u = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
        overlap = np.abs(_quaternion(u * np.exp(-0.5j * np.angle(det_u))) @ self._quaternions)
        idx = int(np.argmax(overlap))
        near = overlap >= overlap[idx] - _TIE_TOLERANCE
        if np.count_nonzero(near) == 1:
            return idx
        best = np.flatnonzero(near)
        # equidistant entries, e.g. a real target between a word and its
        # conjugate: the distance formula's rounding decides, first index wins
        dist = _stack_distances(u, self._stack[best], self._det_phase[best])
        return int(best[np.argmin(dist)])

    def nearest_word(self, u: np.ndarray) -> GateWord:
        return self.word(self._nearest_index(u))

    def nearest(self, u: np.ndarray) -> tuple[GateWord, float]:
        idx = self._nearest_index(u)
        dist = _stack_distances(u, self._stack[idx : idx + 1], self._det_phase[idx : idx + 1])
        return self.word(idx), float(dist[0])

    @property
    def calibration(self) -> SkCalibration:
        if self._calibration is None:
            self._calibration = _calibrate(self)
        return self._calibration

    def ensure_convergent(self) -> SkCalibration:
        cal = self.calibration
        if not cal.is_convergent():
            raise ConvergenceError(
                "net too coarse: contraction constant "
                f"{cal.commutator_constant:.3f} * sqrt(radius {cal.radius_bound:.3f}) >= 1"
            )
        return cal


def build_net(l0: int, rng: RngStream | None = None, radius_samples: int = 1000) -> EpsilonNet:
    """Enumerate all freely reduced words up to length l0 and dedup products.

    Words are built one length at a time: the level's candidates are one
    stacked product of the last level's admitted matrices with each letter,
    keyed together by _canonical_keys. One array test against the last
    level's final letters drops the candidates that would cancel a letter;
    the rest are admitted in word-then-letter order unless their key was
    seen before. Each level keeps its admitted rows as one array with their
    parent indices and letter codes, and the levels are joined once at the
    end into the net's stack and tables. A default net (no rng, a pinned l0
    and sample count) takes its covering radius and calibration from
    _PINNED; any other samples its radius on radius_samples Haar targets
    and calibrates on first use.
    """
    if l0 < 1:
        raise ValidationError("base length must be at least 1")
    if l0 > 16:
        raise ResourceError("base length above 16 is past desk scale")

    frontier = np.eye(2, dtype=np.complex128)[None]
    frontier_last = np.array([-1])
    seen = {_canonical_keys(frontier)}
    levels, parents, last_letters = [frontier], [np.array([0])], [frontier_last]
    offset = 0
    for _ in range(l0):
        # row 3f + k is frontier word f followed by letter k, the serial order
        cands = np.stack([frontier @ LETTER_MATRICES[g] for g in _NET_LETTERS], axis=1).reshape(-1, 2, 2)
        keys = _canonical_keys(cands)
        keep: list[int] = []
        # letter k cannot follow a word that ends in its inverse
        for j in np.flatnonzero(frontier_last[:, None] != _INVERSE_CODE).tolist():
            key = keys[_KEY_BYTES * j : _KEY_BYTES * (j + 1)]
            if key not in seen:
                seen.add(key)
                keep.append(j)
        rows = np.array(keep, dtype=np.intp)
        parents.append(offset + rows // 3)
        offset += len(frontier)
        # a copy, so the net does not keep the rejected candidates alive
        frontier = cands[rows]
        frontier_last = rows % 3
        levels.append(frontier)
        last_letters.append(frontier_last)
    stack = np.concatenate(levels)
    parents, last_letters = np.concatenate(parents), np.concatenate(last_letters)

    key = (l0, _NET_SEED, radius_samples, _CALIBRATION_SAMPLES)
    if rng is None and key in _PINNED:
        radius, bound, constant = (float.fromhex(h) for h in _PINNED[key])
        net = EpsilonNet(stack, parents, last_letters, l0, radius)
        net._calibration = SkCalibration(bound, constant, _CALIBRATION_SAMPLES)
        return net
    net = EpsilonNet(stack, parents, last_letters, l0, 0.0)
    if rng is None:
        rng = RngStream(_NET_SEED, 0)
    worst = _sample_covering_radius(net, rng, radius_samples)
    net.covering_radius = worst
    net.radius_bound = _RADIUS_MARGIN * worst
    return net


def _sample_covering_radius(net: EpsilonNet, rng: RngStream, samples: int) -> float:
    """Largest nearest-entry distance over Haar targets drawn from rng."""
    worst = 0.0
    for i in range(samples):
        target = to_su2(haar_random_unitary(2, rng.substream(i + 1)))
        _, dist = net.nearest(target)
        worst = max(worst, dist)
    return worst


def _su2_components(m: np.ndarray) -> tuple[float, np.ndarray]:
    """(cos(theta/2), sin(theta/2) * axis) of an SU(2) rotation, trace >= 0."""
    if np.real(m[0, 0] + m[1, 1]) < 0:
        m = -m
    a = float(np.real(m[0, 0] + m[1, 1])) / 2.0
    vec = np.array(
        [
            np.imag(m[0, 1] + m[1, 0]) * -1.0,
            np.real(m[1, 0] - m[0, 1]),
            np.imag(m[0, 0] - m[1, 1]) * -1.0,
        ]
    ) / -2.0
    return a, vec


def _rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    x, y, z = axis
    pauli_part = np.array([[z, x - 1j * y], [x + 1j * y, -z]], dtype=np.complex128)
    return np.cos(angle / 2.0) * np.eye(2) - 1j * np.sin(angle / 2.0) * pauli_part


def commutator_factor(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Balanced factorization delta = V W V^dag W^dag for delta near identity.

    V and W are rotations by the same angle phi about conjugated x and y
    axes, with sin^2(phi/2) = sin(theta/4) making the commutator's rotation
    angle exactly theta; a similarity then aligns its axis with delta's.
    """
    delta = to_su2(delta)
    if np.real(delta[0, 0] + delta[1, 1]) < 0:
        delta = -delta
    if su2_distance(delta, np.eye(2)) >= 0.5:
        raise ValidationError("residual too far from identity to factor")
    a, vec = _su2_components(delta)
    sin_half = float(np.linalg.norm(vec))
    theta = 2.0 * float(np.arctan2(sin_half, a))
    if theta < 1e-12:
        eye = np.eye(2, dtype=np.complex128)
        return eye, eye

    phi = 2.0 * float(np.arcsin(np.sqrt(np.sin(theta / 4.0))))
    v0 = _rotation(np.array([1.0, 0.0, 0.0]), phi)
    w0 = _rotation(np.array([0.0, 1.0, 0.0]), phi)
    base = v0 @ w0 @ v0.conj().T @ w0.conj().T

    _, base_vec = _su2_components(base)
    from_axis = base_vec / np.linalg.norm(base_vec)
    to_axis = vec / sin_half
    dot = float(np.clip(from_axis @ to_axis, -1.0, 1.0))
    if dot > 1.0 - 1e-14:
        sim = np.eye(2, dtype=np.complex128)
    elif dot < -1.0 + 1e-14:
        helper = np.array([1.0, 0.0, 0.0])
        if abs(from_axis[0]) > 0.9:
            helper = np.array([0.0, 1.0, 0.0])
        perp = np.cross(from_axis, helper)
        perp = perp / np.linalg.norm(perp)
        sim = _rotation(perp, np.pi)
    else:
        axis = np.cross(from_axis, to_axis)
        axis = axis / np.linalg.norm(axis)
        sim = _rotation(axis, float(np.arccos(dot)))

    v = sim @ v0 @ sim.conj().T
    w = sim @ w0 @ sim.conj().T
    residual = np.max(np.abs(delta - v @ w @ v.conj().T @ w.conj().T))
    if residual > 1e-9:
        raise ValidationError(f"commutator reconstruction off by {residual:.2e}")
    return v, w


def _spine(u_su2: np.ndarray, depth: int, net: EpsilonNet) -> list[GateWord]:
    """Words for U at depths 0..depth; each depth corrects the one before it."""
    spine = [net.nearest_word(u_su2)]
    for d in range(depth):
        prev = spine[-1]
        delta = to_su2(u_su2 @ prev.unitary.conj().T)
        v, w = commutator_factor(delta)
        v_word = _spine(to_su2(v), d, net)[-1]
        w_word = _spine(to_su2(w), d, net)[-1]
        spine.append(concat_words(v_word, w_word, v_word.adjoint(), w_word.adjoint(), prev))
    return spine


def _check_depth(depth: int) -> None:
    if depth < 0 or depth > 6:
        raise ValidationError("recursion depth must be between 0 and 6")


def sk_decompose(u: np.ndarray, depth: int, net: EpsilonNet) -> GateWord:
    """Word over H/T/Tdg within the calibrated eps(depth) of U, up to phase."""
    _check_depth(depth)
    u = to_su2(u)
    if depth > 0:
        net.ensure_convergent()
    return _spine(u, depth, net)[-1]


def _calibrate(net: EpsilonNet) -> SkCalibration:
    """Fit the contraction constant against the global error profile.

    Per-sample ratios d(k+1)/d(k)^1.5 are the wrong statistic: a target that
    happens to sit near a net point has a tiny d(k) while its commutator
    factors are still approximated only to the global accuracy, so the ratio
    diverges. The profile constant compares each depth's worst observed
    distance with the recursion value eps(k) itself, then is inflated until
    the whole observed profile sits under the recursion.
    """
    rng = RngStream(_NET_SEED, 1)
    depths = (0, 1, 2, 3)
    worst = [0.0] * len(depths)
    for i in range(_CALIBRATION_SAMPLES):
        target = to_su2(haar_random_unitary(2, rng.substream(i + 1)))
        try:
            spine = _spine(target, depths[-1], net)
        except ValidationError as exc:
            # residuals of a very coarse net leave the commutator
            # factorization's domain before any constant can be fit
            raise ConvergenceError(
                f"net too coarse to calibrate: covering radius "
                f"{net.covering_radius:.3f} over {len(net)} entries "
                f"(base length {net.base_length}): {exc}"
            ) from None
        for d in depths:
            worst[d] = max(worst[d], su2_distance(target, to_su2(spine[d].unitary)))

    eps0 = max(net.radius_bound, 1.05 * worst[0])
    constant = _COMMUTATOR_MARGIN * worst[1] / eps0**1.5
    for _ in range(64):
        eps = eps0
        ok = True
        for d in depths[1:]:
            eps = constant * eps**1.5
            if worst[d] > eps:
                ok = False
                break
        if ok:
            break
        constant *= 1.2
    return SkCalibration(
        radius_bound=eps0,
        commutator_constant=constant,
        samples=_CALIBRATION_SAMPLES,
    )
