"""Desk-scale simulator for position-verification games.

Two protocol families are modeled end to end: the basis game, where a single
verifier challenge asks for a measurement in a rotated basis, and the
interleaved-product game, where the rotation is split across both verifiers
as a product of local factors. The package ships the honest provers, a
catalog of entangled-coalition strategies against both games, exact EPR cost
formulas for each strategy, teleportation primitives (standard, gate, and
port-based), a gate-word compiler over the H/T alphabet, and a deterministic
experiment harness with a CLI.

Layering, bottom up: statevec/gates/pauli (linear algebra and the Clifford
hierarchy), teleport and sk (the quantum machinery attacks are built from),
layout/protocols/costs (games, channels, verdicts, EPR accounting), attacks
(coalition strategies), experiment/cli (configs, records, bound checks).
"""

from . import gates
from .attacks import strategy_from_name
from .costs import (
    CostReport,
    FidelityBound,
    clifford_cost,
    layout_cost,
    pauli_cost,
    pbt_cost,
    pbt_fidelity_bound,
    semi_clifford_tree_degree,
    sk_cost,
    tree_cost,
)
from .errors import (
    BoundCheckError,
    ConfigError,
    ConvergenceError,
    QpvError,
    ResourceError,
    StrategyError,
    ValidationError,
)
from .experiment import (
    ARTIFACT_VERSION,
    SCHEMA_VERSION,
    ExperimentConfig,
    RunPayload,
    canonical_json,
    compare_bounds,
    emit_plot_data,
    parse_config,
    run_experiment,
    serialize_config,
)
from .layout import CircuitLayout, LayoutGate, load_layout, single_gate_layout
from .pauli import (
    HierarchyLevel,
    PauliOperator,
    count_pauli_preserving,
    hierarchy_level,
    is_clifford,
    is_semi_clifford,
    random_clifford,
    try_as_pauli,
)
from .protocols import (
    NOISELESS,
    BasisGameSpec,
    ChannelModel,
    Challenge,
    DeliveredPayload,
    GameStats,
    HonestProver,
    IPGameSpec,
    TrialOutcome,
    Verdict,
    gen_basis_challenge,
    gen_ip_challenge,
    run_game,
    verify_basis,
    verify_ip,
)
from .rng import RngStream
from .sk import EpsilonNet, GateWord, build_net, sk_decompose
from .statevec import (
    DensityMatrix,
    QubitArray,
    StateVector,
    fidelity,
    haar_random_state,
    haar_random_unitary,
)
from .teleport import (
    PbtChannel,
    build_pbt_channel,
    pbt_fidelity_curve,
    pbt_teleport,
    teleport,
    teleport_gate,
)

__version__ = "0.1.0"

__all__ = [
    "ARTIFACT_VERSION",
    "SCHEMA_VERSION",
    "BasisGameSpec",
    "BoundCheckError",
    "Challenge",
    "ChannelModel",
    "CircuitLayout",
    "ConfigError",
    "ConvergenceError",
    "CostReport",
    "DeliveredPayload",
    "DensityMatrix",
    "EpsilonNet",
    "ExperimentConfig",
    "FidelityBound",
    "GameStats",
    "GateWord",
    "HierarchyLevel",
    "HonestProver",
    "IPGameSpec",
    "LayoutGate",
    "NOISELESS",
    "PauliOperator",
    "PbtChannel",
    "QpvError",
    "QubitArray",
    "ResourceError",
    "RngStream",
    "RunPayload",
    "StateVector",
    "StrategyError",
    "TrialOutcome",
    "ValidationError",
    "Verdict",
    "build_net",
    "build_pbt_channel",
    "canonical_json",
    "clifford_cost",
    "compare_bounds",
    "count_pauli_preserving",
    "emit_plot_data",
    "fidelity",
    "gates",
    "gen_basis_challenge",
    "gen_ip_challenge",
    "haar_random_state",
    "haar_random_unitary",
    "hierarchy_level",
    "is_clifford",
    "is_semi_clifford",
    "layout_cost",
    "load_layout",
    "parse_config",
    "pauli_cost",
    "pbt_cost",
    "pbt_fidelity_bound",
    "pbt_fidelity_curve",
    "pbt_teleport",
    "random_clifford",
    "run_experiment",
    "run_game",
    "semi_clifford_tree_degree",
    "serialize_config",
    "single_gate_layout",
    "sk_cost",
    "sk_decompose",
    "strategy_from_name",
    "teleport",
    "teleport_gate",
    "tree_cost",
    "try_as_pauli",
    "verify_basis",
    "verify_ip",
]
