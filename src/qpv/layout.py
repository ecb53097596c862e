"""Fixed circuit layouts: layered gate lists with declared hierarchy levels.

A layout is a sequence of layers; each layer places gates on disjoint qubit
subsets. Layer 1 acts first, so the composite unitary is the reversed matrix
product of the layers. Layouts feed both the cost calculators (reserved EPR
is multiplicative across layers and additive inside a layer) and the chained
teleportation attack, which strips layers in reverse order. The front end
reads its files through read_text and read_json, and [re, im] matrices
through matrix_from_pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import gates
from .errors import ValidationError
from .pauli import hierarchy_level
from .statevec import check_unitary, embed_operator


@dataclass(frozen=True)
class LayoutGate:
    """One placed gate: matrix, target qubits, and its declared level."""

    gate: np.ndarray
    targets: tuple[int, ...]
    level: int

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        gate = np.asarray(self.gate, dtype=np.complex128)
        object.__setattr__(self, "gate", gate)
        if len(set(self.targets)) != len(self.targets):
            raise ValidationError("gate targets repeat a qubit")
        if gate.shape != (2 ** len(self.targets),) * 2:
            raise ValidationError(
                f"gate shape {gate.shape} does not match {len(self.targets)} targets"
            )
        check_unitary(gate, name="layout gate")
        if self.level < 2:
            raise ValidationError("declared level must be at least 2")

    @property
    def num_qubits(self) -> int:
        return len(self.targets)


@dataclass(frozen=True)
class CircuitLayout:
    """Layered circuit; layer 1 is applied to the state first."""

    n: int
    layers: tuple[tuple[LayoutGate, ...], ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(
            self, "layers", tuple(tuple(layer) for layer in self.layers)
        )
        if self.n < 1:
            raise ValidationError("layout needs at least one qubit")
        if not self.layers:
            raise ValidationError("layout needs at least one layer")
        for index, layer in enumerate(self.layers):
            if not layer:
                raise ValidationError(f"layer {index + 1} is empty")
            seen: set[int] = set()
            for placed in layer:
                for t in placed.targets:
                    if not 0 <= t < self.n:
                        raise ValidationError(
                            f"layer {index + 1} targets qubit {t} outside 0..{self.n - 1}"
                        )
                    if t in seen:
                        raise ValidationError(
                            f"layer {index + 1} places two gates on qubit {t}"
                        )
                    seen.add(t)
                measured = hierarchy_level(placed.gate, k_max=placed.level)
                if measured.level is None:
                    raise ValidationError(
                        f"layer {index + 1} gate exceeds its declared level {placed.level}"
                    )

    @property
    def depth(self) -> int:
        return len(self.layers)

    def layer_level(self, index: int) -> int:
        return max(placed.level for placed in self.layers[index])

    def layer_unitary(self, index: int) -> np.ndarray:
        u = np.eye(2**self.n, dtype=np.complex128)
        for placed in self.layers[index]:
            u = embed_operator(placed.gate, placed.targets, self.n) @ u
        return u

    def composite_unitary(self) -> np.ndarray:
        """Full-circuit matrix: the last layer is the leftmost factor.

        The layout is immutable, so the product is built on the first call
        and every call returns that one read-only array.
        """
        return self._composite

    @cached_property
    def _composite(self) -> np.ndarray:
        u = np.eye(2**self.n, dtype=np.complex128)
        for index in range(self.depth):
            u = self.layer_unitary(index) @ u
        u.setflags(write=False)
        return u


# named gates accepted in layout files, with their default declared levels
_NAMED_GATES: dict[str, tuple[np.ndarray, int]] = {
    name.upper(): (matrix, 3 if name in ("T", "Tdg") else 2)
    for name, matrix in gates.GATES.items()
}


def read_text(path) -> str:
    """A UTF-8 text file's contents; ValidationError if it cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from None


def read_json(path):
    """The document a JSON file holds; ValidationError if it holds none."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None


def matrix_from_pairs(spec, where: str) -> np.ndarray:
    """A nested list of [re, im] pairs as a matrix; anything else, a ragged
    list included, raises ValidationError."""
    try:
        rows = [[complex(re, im) for re, im in row] for row in spec]
        return np.array(rows, dtype=np.complex128)
    except (TypeError, ValueError):
        raise ValidationError(f"{where}: expected a nested list of [re, im] pairs") from None


def _parse_layout_gate(entry, where: str) -> LayoutGate:
    if not isinstance(entry, dict):
        raise ValidationError(f"{where}: each gate must be an object")
    unknown = set(entry) - {"gate", "targets", "level"}
    if unknown:
        raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")
    if "gate" not in entry or "targets" not in entry:
        raise ValidationError(f"{where}: a gate needs 'gate' and 'targets'")
    spec = entry["gate"]
    level = entry.get("level")
    if isinstance(spec, str):
        key = spec.upper()
        if key not in _NAMED_GATES:
            known = ", ".join(sorted(_NAMED_GATES))
            raise ValidationError(f"{where}: unknown gate {spec!r} (known: {known})")
        matrix, default_level = _NAMED_GATES[key]
        level = default_level if level is None else level
    else:
        if level is None:
            raise ValidationError(f"{where}: matrix gates need an explicit level")
        matrix = matrix_from_pairs(spec, where)
    try:
        return LayoutGate(matrix, tuple(entry["targets"]), int(level))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: {exc}") from None
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def load_layout(path) -> CircuitLayout:
    """Read a layout from a JSON file.

    Schema: {"n": qubits, "layers": [[{"gate": name-or-matrix,
    "targets": [..], "level": k}, ..], ..]}. Named gates carry default
    levels; matrix gates spell entries as [re, im] pairs and must declare
    their level explicitly. Every malformed document raises ValidationError.
    """
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ValidationError("layout file must hold a JSON object")
    unknown = set(doc) - {"n", "layers"}
    if unknown:
        raise ValidationError(f"unknown layout keys {sorted(unknown)}")
    if "n" not in doc or "layers" not in doc:
        raise ValidationError("layout file needs 'n' and 'layers'")
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValidationError(f"layout 'n' must be an integer, got {n!r}")
    if not isinstance(doc["layers"], list):
        raise ValidationError("layout 'layers' must be a list of layers")
    layers = []
    for i, layer in enumerate(doc["layers"]):
        if not isinstance(layer, list):
            raise ValidationError(f"layer {i + 1} must be a list of gates")
        layers.append(
            tuple(
                _parse_layout_gate(entry, f"layer {i + 1} gate {j + 1}")
                for j, entry in enumerate(layer)
            )
        )
    return CircuitLayout(n, tuple(layers))
