"""Command line front end.

Subcommands: run (execute a config file), cost (closed-form EPR formulas),
sk-compile (single-qubit gate to an H/T/Tdg word), pbt-bench (port-based
teleportation fidelity), compare (result record against a cost record), and
plot (flatten records into CSV columns).

Exit codes: 0 success, 1 usage error, 2 validation error, 3 a bound check
failed. Every failure prints exactly one stderr line of the form
`error=<Class>: message` so scripts can branch on the class.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from .costs import (
    clifford_cost,
    layout_cost,
    pauli_cost,
    pbt_cost,
    pbt_fidelity_bound,
    sk_cost,
    tree_cost,
)
from .errors import BoundCheckError, QpvError, ValidationError
from .experiment import (
    ARTIFACT_VERSION,
    apply_overrides,
    canonical_json,
    check_seed_and_trials,
    compare_bounds,
    emit_plot_data,
    format_value,
    parse_config,
    render_compare_table,
    run_experiment,
)
from .gates import GATES
from .layout import load_layout
from .rng import RngStream
from .sk import build_net, sk_decompose, su2_distance, to_su2
from .teleport import build_pbt_channel, pbt_fidelity_curve


class UsageError(QpvError):
    """Malformed command line (bad flag, missing argument, unknown command)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract reserves 2
    # for validation, so usage problems are rethrown and mapped to 1
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qpv", description="position-verification simulator")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    run = sub.add_parser("run", help="execute an experiment config file")
    run.add_argument("config", help="path to a key = value config file")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--trials", type=int, default=None)
    run.add_argument("--out", default=None)
    run.add_argument("--format", choices=("json", "csv"), default="json")

    cost = sub.add_parser("cost", help="evaluate a closed-form EPR cost formula")
    cost.add_argument(
        "formula",
        choices=("pauli", "clifford", "tree", "layout", "pbt", "sk", "pbt-fidelity"),
    )
    cost.add_argument("params", nargs="*", help="key=value formula parameters")
    cost.add_argument("--out", default=None)
    cost.add_argument("--format", choices=("json", "csv"), default="json")

    skc = sub.add_parser("sk-compile", help="compile a gate into an H/T/Tdg word")
    skc.add_argument("unitary", help="gate name (e.g. T) or a JSON matrix file")
    skc.add_argument("--depth", type=int, default=2)
    skc.add_argument("--l0", type=int, default=14, help="base word length of the net")
    skc.add_argument("--out", default=None)
    skc.add_argument("--format", choices=("json", "csv"), default="json")

    bench = sub.add_parser("pbt-bench", help="measure teleportation fidelity")
    bench.add_argument("--ports", type=int, required=True)
    bench.add_argument("--trials", type=int, default=1000)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", default=None)
    bench.add_argument("--format", choices=("json", "csv"), default="json")

    cmp_ = sub.add_parser("compare", help="check a result record against bounds")
    cmp_.add_argument("result", help="result record JSON path")
    cmp_.add_argument("cost", help="cost record JSON path")

    plot = sub.add_parser("plot", help="flatten result records into CSV columns")
    plot.add_argument("results", nargs="+", help="result record JSON paths")
    plot.add_argument("--axes", required=True, help="comma-separated dotted paths")
    plot.add_argument("--out", default=None)
    return parser


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from None


def _read_json(path: str) -> dict:
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None


def _deliver(text: str, out: Optional[str]):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _flatten(record: dict, prefix: str = "") -> list[tuple[str, object]]:
    rows: list[tuple[str, object]] = []
    for key, value in record.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, prefix=f"{path}."))
        elif isinstance(value, list):
            rows.append((path, json.dumps(value)))
        else:
            rows.append((path, value))
    return rows


def _flat_csv(record: dict) -> str:
    lines = ["key,value"]
    for path, value in _flatten(record):
        lines.append(f"{path},{format_value(value)}")
    return "\n".join(lines) + "\n"


def _emit_record(record: dict, fmt: str, out: Optional[str]):
    _deliver(canonical_json(record) if fmt == "json" else _flat_csv(record), out)


def _cmd_run(args) -> int:
    config = parse_config(_read_text(args.config))
    config = apply_overrides(config, seed=args.seed, trials=args.trials, out=args.out)
    payload = run_experiment(config)
    body = canonical_json(payload.record) if args.format == "json" else payload.trial_csv
    _deliver(body, config.out)
    return 0


def _parse_params(pairs) -> dict[str, str]:
    params: dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ValidationError(f"expected key=value, got {pair!r}")
        if key in params:
            raise ValidationError(f"duplicate parameter {key!r}")
        params[key] = value.strip()
    return params


def _take_int(params: dict, key: str, formula: str) -> int:
    if key not in params:
        raise ValidationError(f"formula {formula!r} needs parameter {key}=<int>")
    raw = params.pop(key)
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"parameter {key!r} expects an integer, got {raw!r}") from None


def _take_ports(params: dict, formula: str) -> tuple[int, ...]:
    if "ports" not in params:
        raise ValidationError(f"formula {formula!r} needs parameter ports=<m1,m2,...>")
    raw = params.pop("ports")
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise ValidationError(f"parameter 'ports' expects integers, got {raw!r}") from None


def _cost_record(formula: str, params: dict[str, str]) -> dict:
    echo = dict(params)
    if formula == "pauli":
        report = pauli_cost(_take_int(params, "n", formula))
    elif formula == "clifford":
        report = clifford_cost(_take_int(params, "n", formula))
    elif formula == "tree":
        report = tree_cost(_take_int(params, "n", formula), _take_int(params, "k", formula))
    elif formula == "layout":
        if "file" not in params:
            raise ValidationError("formula 'layout' needs parameter file=<path>")
        report = layout_cost(load_layout(params.pop("file")))
    elif formula == "pbt":
        report = pbt_cost(_take_int(params, "n", formula), _take_ports(params, formula))
    elif formula == "sk":
        t = _take_int(params, "t", formula)
        l = _take_int(params, "l", formula)
        semi = params.pop("semi_clifford", "true")
        if semi not in ("true", "false"):
            raise ValidationError(
                f"parameter 'semi_clifford' expects true or false, got {semi!r}"
            )
        report = sk_cost(t, l, semi_clifford=semi == "true")
    elif formula == "pbt-fidelity":
        bound = pbt_fidelity_bound(_take_ports(params, formula))
        if params:
            raise ValidationError(
                f"unknown parameters for formula {formula!r}: {', '.join(sorted(params))}"
            )
        return {
            "artifact_version": ARTIFACT_VERSION,
            "kind": "cost",
            "formula_id": "pbt-fidelity",
            "fidelity_bound": bound.value,
            "vacuous": bound.vacuous,
            "params": echo,
        }
    else:
        raise ValidationError(f"unknown cost formula {formula!r}")
    if params:
        raise ValidationError(
            f"unknown parameters for formula {formula!r}: {', '.join(sorted(params))}"
        )
    return {
        "artifact_version": ARTIFACT_VERSION,
        "kind": "cost",
        "formula_id": report.formula_id,
        "reserved_epr": report.reserved_epr,
        "bound_epr": report.bound_epr,
        "params": echo,
    }


def _cmd_cost(args) -> int:
    record = _cost_record(args.formula, _parse_params(args.params))
    _emit_record(record, args.format, args.out)
    return 0


def _load_unitary(source: str) -> tuple[np.ndarray, str]:
    if source in GATES:
        matrix = GATES[source]
        if matrix.shape != (2, 2):
            raise ValidationError(f"{source} acts on two qubits; compile one qubit at a time")
        return matrix, source
    path = Path(source)
    if not path.exists():
        known = ", ".join(name for name, m in GATES.items() if m.shape == (2, 2))
        raise ValidationError(
            f"{source!r} is neither a known gate ({known}) nor a readable file"
        )
    data = _read_json(source)
    try:
        matrix = np.array(
            [[complex(re, im) for re, im in row] for row in data], dtype=np.complex128
        )
    except (TypeError, ValueError):
        raise ValidationError(
            f"{source}: expected a 2x2 nested list of [re, im] pairs"
        ) from None
    if matrix.shape != (2, 2):
        raise ValidationError(f"{source}: expected a 2x2 matrix, got {matrix.shape}")
    if not np.allclose(matrix @ matrix.conj().T, np.eye(2), atol=1e-8):
        raise ValidationError(f"{source}: matrix is not unitary")
    return matrix, source


def _cmd_sk_compile(args) -> int:
    matrix, label = _load_unitary(args.unitary)
    net = build_net(args.l0)
    word = sk_decompose(matrix, args.depth, net)
    achieved = su2_distance(word.unitary, to_su2(matrix))
    epsilon = net.calibration.epsilon(args.depth)
    record = {
        "artifact_version": ARTIFACT_VERSION,
        "kind": "sk-compile",
        "target": label,
        "depth": args.depth,
        "l0": args.l0,
        "length": word.length,
        "letters": list(word.letters),
        "achieved_distance": achieved,
        "epsilon_bound": epsilon,
        "within_bound": bool(achieved <= epsilon),
    }
    _emit_record(record, args.format, args.out)
    return 0


def _cmd_pbt_bench(args) -> int:
    check_seed_and_trials(args.seed, args.trials)
    rng = RngStream(args.seed, stream=0)
    start = time.perf_counter()
    mean, stderr = pbt_fidelity_curve(args.ports, args.trials, rng)
    record = {
        "artifact_version": ARTIFACT_VERSION,
        "kind": "pbt-bench",
        "ports": args.ports,
        "trials": args.trials,
        "seed": args.seed,
        "metrics": {"fidelity": {"mean": mean, "stderr": stderr}},
        "fidelity_exact": build_pbt_channel(args.ports).average_fidelity,
        "fidelity_bound": pbt_fidelity_bound([args.ports]).value,
        "wall_clock_seconds": round(time.perf_counter() - start, 6),
    }
    _emit_record(record, args.format, args.out)
    return 0


def _cmd_compare(args) -> int:
    rows = compare_bounds(_read_json(args.result), _read_json(args.cost))
    sys.stdout.write(render_compare_table(rows))
    failed = sum(1 for row in rows if not row["passed"])
    if failed:
        raise BoundCheckError(f"{failed} of {len(rows)} bound checks failed")
    return 0


def _cmd_plot(args) -> int:
    records = [_read_json(path) for path in args.results]
    axes = [axis.strip() for axis in args.axes.split(",") if axis.strip()]
    _deliver(emit_plot_data(records, axes), args.out)
    return 0


_DISPATCH = {
    "run": _cmd_run,
    "cost": _cmd_cost,
    "sk-compile": _cmd_sk_compile,
    "pbt-bench": _cmd_pbt_bench,
    "compare": _cmd_compare,
    "plot": _cmd_plot,
}


def _fail(exc: Exception, code: int) -> int:
    message = str(exc).replace("\n", " ")
    sys.stderr.write(f"error={type(exc).__name__}: {message}\n")
    return code


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        return _fail(exc, 1)
    except BoundCheckError as exc:
        return _fail(exc, 3)
    except QpvError as exc:
        return _fail(exc, 2)
    except OSError as exc:
        return _fail(exc, 2)


if __name__ == "__main__":
    sys.exit(main())
