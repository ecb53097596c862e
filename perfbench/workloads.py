"""The four `qpv run` workloads: fixed shapes, seeded configs, invariants.

Each workload is one config shape; the seed is the only input that varies.
Configs use only keys that outlive the planned refactors (no `threads`, no
`bank`), so every run gets the shipped thread default. The invariants hold
for every seed: they follow from the game rules and the closed-form EPR
counts, not from a recorded result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
LAYOUT_FILE = HERE / "layouts" / "chain5.json"

# layout_cost of layouts/chain5.json worked by hand: a level-k gate on m
# qubits reserves 2m * sum_{j<k-1} 4^(jm) + m * 4^(m(k-2)) pairs (H: 3,
# T/Tdg: 14, CNOT/CZ: 6); costs add inside a layer and multiply across.
LAYOUT_RESERVED_EPR = (3 + 14) * 6 * (14 + 14) * 6 * (14 + 3)

# SkAttack pads every word to l0 * 5^depth letters (l0 = 14, depth 2)
SK_WORD_CAP = 14 * 5**2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    keys: tuple[tuple[str, object], ...]
    trials: int
    check: Callable[[dict, dict], list[str]]

    def config_text(self, seed: int) -> str:
        lines = [f"{key} = {value}" for key, value in self.keys]
        lines += [f"trials = {self.trials}", f"seed = {seed}"]
        return "\n".join(lines) + "\n"

    def params(self) -> dict:
        return dict(self.keys)


def _mean(record: dict, metric: str) -> float:
    return record["metrics"][metric]["mean"]


def _check_honest(record: dict, p: dict) -> list[str]:
    problems = []
    if _mean(record, "win_rate") != 1.0:
        problems.append(f"win_rate {_mean(record, 'win_rate')} != 1.0")
    trials = record["config"]["trials"]
    n, p_loss = p["n"], p["p_loss"]
    expected = n * p_loss
    stderr = math.sqrt(n * p_loss * (1.0 - p_loss) / trials)
    loss = _mean(record, "loss_count")
    if abs(loss - expected) > 5.0 * stderr:
        problems.append(
            f"mean loss_count {loss} is more than 5 standard errors "
            f"({stderr:.3f}) from n*p_loss = {expected}"
        )
    return problems


def _check_layout(record: dict, p: dict) -> list[str]:
    problems = []
    if _mean(record, "win_rate") != 1.0:
        problems.append(f"win_rate {_mean(record, 'win_rate')} != 1.0")
    if _mean(record, "error_count") != 0.0 or [h[0] for h in record["error_histogram"]] != [0]:
        problems.append("layout chain made bit errors")
    ledger = record["ledger"]
    if ledger["reserved_epr"] != LAYOUT_RESERVED_EPR:
        problems.append(
            f"reserved EPR {ledger['reserved_epr']} != layout cost {LAYOUT_RESERVED_EPR}"
        )
    if ledger["mean_epr_consumed"] > ledger["reserved_epr"]:
        problems.append("consumed more EPR pairs than reserved")
    return problems


def _check_sk(record: dict, p: dict) -> list[str]:
    problems = []
    if _mean(record, "win_rate") != 1.0:
        problems.append(f"win_rate {_mean(record, 'win_rate')} != 1.0")
    expected = p["n"] * 2 ** (4 * SK_WORD_CAP * p["t"])
    if record["ledger"]["reserved_epr"] != expected:
        problems.append("reserved EPR != n * 2^(4 l t)")
    return problems


def _check_pbt(record: dict, p: dict) -> list[str]:
    ports = [int(m) for m in p["actor"].partition(":")[2].split(",")]
    expected = p["n"] * sum(math.prod(ports[: i + 1]) for i in range(len(ports)))
    ledger = record["ledger"]
    if ledger["reserved_epr"] != expected or ledger["mean_epr_consumed"] != expected:
        return [
            f"EPR reserved {ledger['reserved_epr']} / consumed "
            f"{ledger['mean_epr_consumed']}, expected both {expected}"
        ]
    return []


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ip-honest-n10k",
            "IP game at the paper's n = 10^4 with the honest prover: per-qubit "
            "Python in protocols does the work",
            (
                ("game", "ip"), ("n", 10000), ("actor", "honest"), ("t", 2),
                ("eta_err", 0.1), ("eta_loss", 0.1), ("p_loss", 0.02), ("p_dep", 0.02),
            ),
            trials=100,
            check=_check_honest,
        ),
        Workload(
            "basis-layout-chain",
            "basis game against a 5-layer 2-qubit layout: the live ChainEngine "
            "strips, burns and replays on state vectors",
            (
                ("game", "basis"), ("n", 2), ("actor", f"layout:{LAYOUT_FILE}"),
                ("family", "layout"), ("layout_file", str(LAYOUT_FILE)),
            ),
            trials=200,
            check=_check_layout,
        ),
        Workload(
            "ip-sk-chain",
            "compiled-word attack: SK net build and calibration, then the "
            "per-letter Pauli snap of the synthetic chain",
            (("game", "ip"), ("n", 4), ("actor", "sk:2"), ("t", 1), ("eta_err", 0.1)),
            trials=8,
            check=_check_sk,
        ),
        Workload(
            "ip-pbt-hops",
            "port-based teleport chain of three 8-port hops: PBT channel "
            "build plus pure and density hops",
            (("game", "ip"), ("n", 4), ("actor", "pbt:8,8,8"), ("t", 2), ("eta_err", 0.5)),
            trials=1000,
            check=_check_pbt,
        ),
    )
}
