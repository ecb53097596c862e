"""Desk-scale simulator for position-verification games.

Two protocol families are modeled end to end: the basis game, where a single
verifier challenge asks for a measurement in a rotated basis, and the
interleaved-product game, where the rotation is split across both verifiers
as a product of local factors, with their honest provers, entangled-coalition
strategies against both games and exact EPR cost formulas for each.

Public entry points: `parse_config` reads an experiment config,
`run_experiment` plays it and returns its record, `canonical_json` writes
that record byte-stably, and `strategy_from_name` builds a coalition strategy
from its config name. The `qpv` command (`qpv.cli:main`) wraps them. Every
other name is imported from its submodule.

Layering, bottom up: statevec/gates/pauli (linear algebra and the Clifford
hierarchy), teleport and sk (the quantum machinery attacks are built from),
layout/protocols/costs (games, channels, verdicts, EPR accounting), attacks
(coalition strategies), experiment/cli (configs, records, bound checks).
"""

from .attacks import strategy_from_name
from .errors import (
    BoundCheckError,
    ConfigError,
    ConvergenceError,
    QpvError,
    ResourceError,
    StrategyError,
    ValidationError,
)

# Kept eager: the harness loads every module a run reaches, and the benchmark's
# tracer test needs `import qpv` alone to load each module its tracer wraps.
from .experiment import (
    ARTIFACT_VERSION,
    SCHEMA_VERSION,
    ExperimentConfig,
    canonical_json,
    parse_config,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "ARTIFACT_VERSION",
    "SCHEMA_VERSION",
    "BoundCheckError",
    "ConfigError",
    "ConvergenceError",
    "ExperimentConfig",
    "QpvError",
    "ResourceError",
    "StrategyError",
    "ValidationError",
    "canonical_json",
    "parse_config",
    "run_experiment",
    "strategy_from_name",
]
