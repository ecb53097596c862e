"""Coalition cheating strategies and their EPR accounting.

Entangled strategies (Pauli, Clifford, tree, layout, PBT, SK) trade
pre-shared EPR pairs for the ability to answer within a single classical
exchange; the non-entangled family (random-basis, lossy-confidence,
Breidbart, random-guess) plays the same interface with an empty ledger.
In the one exchange each party sends its whole record, so both parties hold
the same two records and `answer(trial)` decodes their one string from them.
`strategy_from_name` maps the stable CLI identifiers onto constructors.
"""

from ..errors import ValidationError
from ..layout import load_layout
from .base import CoalitionStrategy
from .basis import (
    BreidbartAttack,
    CliffordAttack,
    LayoutAttack,
    PauliAttack,
    RandomGuessAttack,
    TreeAttack,
)
from .ip import (
    LossyConfidenceAttack,
    PbtAttack,
    RandomBasisAttack,
    SkAttack,
)

__all__ = [
    "BreidbartAttack",
    "CliffordAttack",
    "CoalitionStrategy",
    "LayoutAttack",
    "LossyConfidenceAttack",
    "PauliAttack",
    "PbtAttack",
    "RandomBasisAttack",
    "RandomGuessAttack",
    "SkAttack",
    "TreeAttack",
    "strategy_from_name",
]

_STRATEGY_NAMES = (
    "pauli",
    "clifford",
    "tree:k",
    "layout:<file>",
    "pbt:m1,m2,...",
    "sk:depth",
    "random-basis",
    "lossy-confidence",
    "breidbart",
    "random-guess",
)


def strategy_from_name(name: str) -> CoalitionStrategy:
    """Build a strategy from its stable identifier, e.g. "tree:3"."""
    head, _, arg = name.partition(":")
    try:
        if name == "pauli":
            return PauliAttack()
        if name == "clifford":
            return CliffordAttack()
        if name == "random-basis":
            return RandomBasisAttack()
        if name == "lossy-confidence":
            return LossyConfidenceAttack()
        if name == "breidbart":
            return BreidbartAttack()
        if name == "random-guess":
            return RandomGuessAttack()
        if head == "tree" and arg:
            return TreeAttack(int(arg))
        if head == "layout" and arg:
            return LayoutAttack(load_layout(arg))
        if head == "pbt" and arg:
            return PbtAttack(tuple(int(m) for m in arg.split(",")))
        if head == "sk" and arg:
            return SkAttack(int(arg))
    except ValueError:
        raise ValidationError(f"malformed strategy parameters in {name!r}") from None
    raise ValidationError(
        f"unknown strategy {name!r}; expected one of: " + ", ".join(_STRATEGY_NAMES)
    )
