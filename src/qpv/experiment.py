"""Experiment harness: config files, deterministic runs, result records.

A config file is a flat list of typed `key = value` lines with `#` comment
lines, carrying an explicit schema version. parse_config rejects anything it
does not understand, with the offending line quoted, so a silently ignored
typo cannot skew a study. run_experiment turns a parsed config into a result
record: the full config echo, per-metric means with standard errors, the EPR
ledger summary, and a wall clock, plus a CSV with one row per trial. A trial
leaves only that row behind, and every statistic is computed once, from the
rows. Two runs with the same config produce byte-identical canonical JSON
apart from the wall clock.

compare_bounds lines up a result record against a cost record and checks
each comparable quantity (reserved EPR against the closed-form cap, measured
fidelity against the analytic floor). emit_plot_data flattens records into
CSV columns for plotting, preserving the requested column order. csv_text
writes every CSV table and quotes a field that holds a comma or a quote.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, fields, replace
from typing import Optional, get_type_hints

from .attacks import strategy_from_name
from .errors import ConfigError, ValidationError
from .layout import load_layout
from .protocols import (
    BasisGameSpec,
    ChannelModel,
    GameStats,
    HonestProver,
    IPGameSpec,
    run_game,
)
from .rng import MAX_SEED, RngStream

ARTIFACT_VERSION = 1
SCHEMA_VERSION = 1

# family "explicit" needs literal matrices, which a flat config cannot carry
_CONFIG_FAMILIES = ("pauli", "clifford", "bb84", "haar", "layout")

_BASIS_ONLY = ("family", "layout_file", "eta")
_IP_ONLY = ("t", "eta_err", "eta_loss", "per_qubit_unitaries")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully typed description of one Monte Carlo experiment.

    With bank = true the IP payload is delivered as sent, through no
    channel. threads is validated and echoed in the record but changes
    nothing: trials always run one after another. Keys that belong to the
    other protocol family keep their defaults and are rejected if a config
    file tries to set them.
    """

    game: str
    n: int
    actor: str
    family: str = "haar"
    layout_file: Optional[str] = None
    eta: float = 0.0
    t: int = 1
    eta_err: float = 0.0
    eta_loss: float = 0.0
    per_qubit_unitaries: bool = False
    p_loss: float = 0.0
    p_dep: float = 0.0
    bank: bool = False
    trials: int = 1000
    seed: int = 0
    threads: int = 0
    out: Optional[str] = None

    def as_dict(self) -> dict:
        """The schema, then the config's fields in declaration order, as the
        run record echoes them: the other game's keys (`_BASIS_ONLY` or
        `_IP_ONLY`) and unset values are left out."""
        other = _IP_ONLY if self.game == "basis" else _BASIS_ONLY
        d: dict = {"schema": SCHEMA_VERSION}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in other and value is not None:
                d[f.name] = value
        return d


# config key types, read off ExperimentConfig; schema is the one key that is
# not a field. Keys of any type but int, float and bool are text.
_KEY_TYPES = {"schema": int, **get_type_hints(ExperimentConfig)}


def _parse_typed(key: str, raw: str, lineno: int):
    kind = _KEY_TYPES[key]
    if kind is bool:
        if raw in ("true", "false"):
            return raw == "true"
        raise ConfigError(
            f"line {lineno}: expected true or false for {key!r}, got {raw!r}"
        )
    if kind in (int, float):
        try:
            return kind(raw)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ConfigError(
                f"line {lineno}: expected {noun} for {key!r}, got {raw!r}"
            ) from None
    if not raw:
        raise ConfigError(f"line {lineno}: empty value for {key!r}")
    return raw


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate `key = value` config text.

    Unknown keys, duplicate keys, type mismatches, out-of-range values, and
    keys that belong to the other protocol family are all rejected with the
    line number in the message. Omitted optional keys take their defaults.
    """
    values: dict = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"line {lineno}: expected 'key = value', got {stripped!r}"
            )
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {lines[key]})"
            )
        values[key] = _parse_typed(key, raw, lineno)
        lines[key] = lineno

    def ctx(key: str) -> str:
        return f"line {lines[key]}: " if key in lines else ""

    schema = values.pop("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ConfigError(
            f"{ctx('schema')}unsupported schema version {schema}; "
            f"this build reads version {SCHEMA_VERSION}"
        )
    for key in ("game", "n", "actor"):
        if key not in values:
            raise ConfigError(f"missing required key {key!r}")
    game = values["game"]
    if game not in ("basis", "ip"):
        raise ConfigError(f"{ctx('game')}game must be 'basis' or 'ip', got {game!r}")
    foreign = _IP_ONLY if game == "basis" else _BASIS_ONLY
    for key in foreign:
        if key in values:
            other = "ip" if game == "basis" else "basis"
            raise ConfigError(
                f"{ctx(key)}key {key!r} applies to the {other} game, not {game!r}"
            )
    if game == "basis":
        family = values.get("family", "haar")
        if family not in _CONFIG_FAMILIES:
            raise ConfigError(
                f"{ctx('family')}family must be one of "
                f"{', '.join(_CONFIG_FAMILIES)}; explicit unitaries cannot be "
                f"written in a config file"
            )
        if family == "layout" and "layout_file" not in values:
            raise ConfigError("family 'layout' requires the layout_file key")
        if family != "layout" and "layout_file" in values:
            raise ConfigError(
                f"{ctx('layout_file')}layout_file only applies to the layout family"
            )
        if values.get("bank", False):
            raise ConfigError(
                f"{ctx('bank')}the state bank only serves the interleaved game"
            )
    for key, lo in (("n", 1), ("t", 1), ("trials", 1), ("threads", 0), ("seed", 0)):
        if key in values and values[key] < lo:
            raise ConfigError(
                f"{ctx(key)}{key} must be at least {lo}, got {values[key]}"
            )
    if values.get("seed", 0) > MAX_SEED:
        raise ConfigError(
            f"{ctx('seed')}seed must be at most {MAX_SEED}, got {values['seed']}"
        )
    for key, kind in _KEY_TYPES.items():
        if kind is float and key in values and not 0.0 <= values[key] <= 1.0:
            raise ConfigError(
                f"{ctx(key)}{key} must lie in [0, 1], got {values[key]}"
            )
    return ExperimentConfig(**values)


def format_value(value) -> str:
    """A scalar as config and CSV text: booleans as true and false."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def csv_text(rows) -> str:
    """Rows of scalars as CSV text, each line ending in a newline. Fields are
    written by format_value; one that holds a comma or a quote is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        writer.writerow([format_value(value) for value in row])
    return out.getvalue()


def build_spec(config: ExperimentConfig):
    """Config -> (game spec, channel); the channel is None in bank mode."""
    if config.game == "basis":
        layout = None
        if config.family == "layout":
            layout = load_layout(config.layout_file)
        spec = BasisGameSpec(
            n=config.n, family=config.family, eta=config.eta, layout=layout
        )
    else:
        spec = IPGameSpec(
            n=config.n,
            t=config.t,
            eta_err=config.eta_err,
            eta_loss=config.eta_loss,
            per_qubit_unitaries=config.per_qubit_unitaries,
        )
    channel = None if config.bank else ChannelModel(config.p_loss, config.p_dep)
    return spec, channel


def resolve_actor(name: str):
    if name == "honest":
        return HonestProver()
    return strategy_from_name(name)


def _summary(rows, column: int, mean: float) -> dict:
    """Record entry of one row column: its mean and the mean's standard error."""
    n = len(rows)
    if n < 2:
        return {"mean": mean, "stderr": 0.0}
    var = sum((row[column] - mean) ** 2 for row in rows) / (n - 1)
    return {"mean": mean, "stderr": math.sqrt(var / n)}


@dataclass(frozen=True)
class RunPayload:
    """One finished experiment: the JSON-ready record and its GameStats."""

    record: dict
    stats: GameStats

    @property
    def trial_csv(self) -> str:
        """One CSV line per trial row, in index order."""
        rows = [("trial", "accepted", "error_count", "loss_count", "epr_consumed")]
        rows += [(i, int(a), e, l, c) for i, a, e, l, c in self.stats.trial_rows]
        return csv_text(rows)


def run_experiment(config: ExperimentConfig) -> RunPayload:
    """Execute the configured experiment and build its result record.

    run_game leaves one row per trial and computes every mean once from the
    rows; the record formats those means and takes each standard error
    around them. Rows are kept in index order, so the record and the trial
    CSV depend only on the config (seed included).
    """
    spec, channel = build_spec(config)
    actor = resolve_actor(config.actor)
    rng = RngStream(config.seed, stream=0)
    start = time.perf_counter()
    stats = run_game(spec, actor, channel, trials=config.trials, rng=rng)
    elapsed = time.perf_counter() - start
    rows = stats.trial_rows
    record = {
        "artifact_version": ARTIFACT_VERSION,
        "kind": "experiment",
        "config": config.as_dict(),
        "metrics": {
            "win_rate": {"mean": stats.win_rate, "stderr": stats.stderr},
            "error_count": _summary(rows, 2, stats.mean_error_count),
            "loss_count": _summary(rows, 3, stats.mean_loss_count),
            "epr_consumed": _summary(rows, 4, stats.mean_epr_consumed),
        },
        "ledger": {
            "reserved_epr": stats.reserved_epr,
            "mean_epr_consumed": stats.mean_epr_consumed,
        },
        "error_histogram": [
            [k, stats.error_histogram[k]] for k in sorted(stats.error_histogram)
        ],
        "wall_clock_seconds": round(elapsed, 6),
    }
    return RunPayload(record, stats)


def canonical_json(record: dict) -> str:
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def _compared(value, field: str):
    """A compared value as it stands, if it is a real number (bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{field} must be a number, not {value!r}")
    return value


def compare_bounds(result: dict, cost: dict) -> list[dict]:
    """Check every quantity the two records share a bound for.

    Reserved EPR must not exceed the closed-form cap; measured fidelity must
    not fall below the analytic floor. Returns one row per comparison with
    quantity, empirical value, bound, and pass flag.
    """
    if not isinstance(result, dict) or not isinstance(cost, dict):
        raise ValidationError("compare needs two JSON objects")
    rows: list[dict] = []
    ledger = result.get("ledger")
    if isinstance(ledger, dict) and "reserved_epr" in ledger and "bound_epr" in cost:
        reserved = _compared(ledger["reserved_epr"], "ledger.reserved_epr")
        bound = _compared(cost["bound_epr"], "bound_epr")
        rows.append(
            {
                "quantity": "reserved_epr",
                "empirical": reserved,
                "bound": bound,
                "passed": reserved <= bound,
            }
        )
    metrics = result.get("metrics")
    if (
        isinstance(metrics, dict)
        and isinstance(metrics.get("fidelity"), dict)
        and "fidelity_bound" in cost
    ):
        fidelity = _compared(metrics["fidelity"].get("mean"), "metrics.fidelity.mean")
        bound = _compared(cost["fidelity_bound"], "fidelity_bound")
        rows.append(
            {
                "quantity": "fidelity",
                "empirical": fidelity,
                "bound": bound,
                "passed": fidelity >= bound,
            }
        )
    if not rows:
        raise ValidationError(
            "no comparable quantities: the result record carries neither a "
            "ledger matching a bound_epr nor a fidelity matching a fidelity_bound"
        )
    return rows


def render_compare_table(rows: list[dict]) -> str:
    table = [("quantity", "empirical", "bound", "status")]
    for row in rows:
        status = "pass" if row["passed"] else "FAIL"
        table.append((row["quantity"], row["empirical"], row["bound"], status))
    return csv_text(table)


def _dig(record: dict, path: str, index: int):
    node = record
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise ValidationError(f"record {index} has no field {path!r}")
        node = node[part]
    if isinstance(node, (dict, list)):
        raise ValidationError(f"field {path!r} of record {index} is not a scalar")
    return node


def emit_plot_data(records: list[dict], axes: list[str]) -> str:
    """Flatten result records into CSV with one column per dotted path.

    Column order follows the axes argument exactly. An empty record list
    yields just the header line, so downstream plotting sees the schema
    either way.
    """
    axes = list(axes)
    if not axes:
        raise ValidationError("at least one axis is required")
    seen = set()
    for axis in axes:
        if axis in seen:
            raise ValidationError(f"duplicate axis {axis!r}")
        seen.add(axis)
    rows = [axes]
    for index, record in enumerate(records):
        if not isinstance(record, dict):
            raise ValidationError(f"record {index} is not a JSON object")
        rows.append([_dig(record, axis, index) for axis in axes])
    return csv_text(rows)


def check_seed_and_trials(seed: Optional[int], trials: Optional[int]):
    """Reject a command-line seed outside [0, MAX_SEED] or a trial count
    below 1; None skips that check."""
    if seed is not None:
        if seed < 0:
            raise ValidationError("seed must be non-negative")
        if seed > MAX_SEED:
            raise ValidationError(f"seed must be at most {MAX_SEED}")
    if trials is not None and trials < 1:
        raise ValidationError("trials must be at least 1")


def apply_overrides(
    config: ExperimentConfig,
    seed: Optional[int] = None,
    trials: Optional[int] = None,
    out: Optional[str] = None,
) -> ExperimentConfig:
    """Command-line overrides; the record echoes the effective values."""
    check_seed_and_trials(seed, trials)
    updates: dict = {}
    if seed is not None:
        updates["seed"] = seed
    if trials is not None:
        updates["trials"] = trials
    if out is not None:
        updates["out"] = out
    return replace(config, **updates) if updates else config
