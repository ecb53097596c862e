"""Closed-form EPR-pair accounting for every attack family.

Every function returns exact integers (Python ints, arbitrary precision);
floating point never touches a pair count. `reserved` is the strategy's
pre-shared requirement counting all branches, `bound` the looser closed-form
cap. Simulated attacks assert their ledgers against these values.

Two formula quirks are deliberate and documented here rather than "fixed":
the tree sum runs to j = k-2 as displayed in its source even though the
branch-counting prose stops at k-3 (the displayed formula is what the pinned
value 14 at n=1, k=3 comes from), and tree_cost(n, 2) = 3n exceeds the direct
Clifford-teleport count n exposed by clifford_cost - the tree formula is a
generic upper bound, so both are reported and consumers assert against the
strategy-specific count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .layout import CircuitLayout


@dataclass(frozen=True)
class CostReport:
    """Exact EPR accounting: strategy requirement and closed-form cap."""

    reserved_epr: int
    bound_epr: int
    formula_id: str

    def __post_init__(self):
        if self.reserved_epr < 0 or self.bound_epr < 0:
            raise ValidationError("EPR counts cannot be negative")
        if self.reserved_epr > self.bound_epr:
            raise ValidationError(
                f"reserved {self.reserved_epr} exceeds bound {self.bound_epr} "
                f"({self.formula_id})"
            )


def pauli_cost(n: int) -> CostReport:
    """Pauli-family attack: measure and decode, no entanglement at all."""
    _require_positive(n, "n")
    return CostReport(0, 0, "pauli")


def clifford_cost(n: int) -> CostReport:
    """Clifford-family attack: one teleport of the n-qubit payload."""
    _require_positive(n, "n")
    return CostReport(n, n, "clifford")


def tree_cost(n: int, k: int) -> CostReport:
    """Branching-tree attack on a level-k gate.

    reserved = 2n * sum_{j=0}^{k-2} 4^{jn} + n * 4^{n(k-2)}
    bound    = 4n * 4^{n(k-2)}
    """
    _require_positive(n, "n")
    if k < 2:
        raise ValidationError("tree attack needs level k >= 2")
    reserved = 2 * n * sum(4 ** (j * n) for j in range(k - 1)) + n * 4 ** (n * (k - 2))
    bound = 4 * n * 4 ** (n * (k - 2))
    return CostReport(reserved, bound, "tree")


def layout_cost(layout: CircuitLayout) -> CostReport:
    """Layered-circuit attack cost.

    Within a layer, disjoint gates attack in parallel and their tree costs
    add. Across layers, the teleportation chain continues instead of
    measuring, so per-layer costs multiply. The cap is
    4^{n * sum_i (k_i - 2)} * (4n)^d with k_i the layer level and d the depth.
    """
    reserved = 1
    exponent = 0
    for index in range(layout.depth):
        layer_reserved = 0
        for placed in layout.layers[index]:
            layer_reserved += tree_cost(placed.num_qubits, placed.level).reserved_epr
        reserved *= layer_reserved
        exponent += layout.layer_level(index) - 2
    bound = 4 ** (layout.n * exponent) * (4 * layout.n) ** layout.depth
    return CostReport(reserved, bound, "layout")


def pbt_cost(n: int, ports: list[int] | tuple[int, ...]) -> CostReport:
    """Port-based chain: M = n * (m1 + m1*m2 + ... + m1*...*m_last)."""
    _require_positive(n, "n")
    ports = tuple(int(m) for m in ports)
    if not ports:
        raise ValidationError("port list is empty")
    if any(m < 2 for m in ports):
        raise ValidationError("every hop needs at least 2 ports")
    total = 0
    prefix = 1
    for m in ports:
        prefix *= m
        total += prefix
    return CostReport(n * total, n * total, "pbt")


@dataclass(frozen=True)
class FidelityBound:
    """Product lower bound on chained-PBT fidelity, clamped to [0, 1].

    The single-hop factor 1 - 4/m is vacuous for m <= 4; a vacuous product is
    clamped to 0 and flagged rather than reported negative.
    """

    value: float
    vacuous: bool

    def __float__(self) -> float:
        return self.value


def pbt_fidelity_bound(ports: list[int] | tuple[int, ...]) -> FidelityBound:
    ports = tuple(int(m) for m in ports)
    if not ports:
        raise ValidationError("port list is empty")
    if any(m < 2 for m in ports):
        raise ValidationError("every hop needs at least 2 ports")
    value = 1.0
    for m in ports:
        value *= 1.0 - 4.0 / m
    if any(m <= 4 for m in ports) or value <= 0.0:
        return FidelityBound(0.0, True)
    return FidelityBound(min(value, 1.0), False)


def sk_cost(t: int, l: int, semi_clifford: bool) -> CostReport:
    """Compiled-word chain, per qubit: 2^{8tl}, or 2^{4tl} when every letter
    is semi-Clifford (the padded alphabet {I,H,T,Tdg} is)."""
    _require_positive(t, "t")
    _require_positive(l, "l")
    bound = 2 ** (8 * t * l)
    if semi_clifford:
        return CostReport(2 ** (4 * t * l), bound, "sk-semi-clifford")
    return CostReport(bound, bound, "sk")


def _require_positive(value: int, name: str):
    if value < 1:
        raise ValidationError(f"{name} must be at least 1")
