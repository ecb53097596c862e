"""Exit codes and the single `error=<Class>:` stderr line of the command line."""

import csv
import hashlib
import io
import json
from pathlib import Path

import pytest

from qpv.cli import main
from qpv.experiment import canonical_json

from oracles import strip_wall_clock

T_PAIR_CNOT = Path(__file__).parent / "layouts" / "t_pair_cnot.json"

TINY_RUN = """\
game = ip
n = 3
actor = honest
t = 1
trials = 4
seed = 2
"""


def error_lines(err: str) -> list[str]:
    return [line for line in err.splitlines() if line]


def test_run_prints_a_record_and_exits_zero(tmp_path, capsys):
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_RUN)
    assert main(["run", str(config)]) == 0
    out, err = capsys.readouterr()
    record = json.loads(out)
    assert record["metrics"]["win_rate"]["mean"] == 1.0
    assert record["config"]["threads"] == 0
    assert err == ""


def test_run_rejects_an_unknown_key_with_one_error_line(tmp_path, capsys):
    config = tmp_path / "typo.cfg"
    config.write_text(TINY_RUN + "colour = blue\n")
    assert main(["run", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = error_lines(err)
    assert len(lines) == 1
    assert lines[0].startswith("error=ConfigError:")
    assert "unknown key 'colour'" in lines[0]


def test_run_rejects_a_one_port_hop_with_one_error_line(tmp_path, capsys):
    config = tmp_path / "pbt.cfg"
    config.write_text(TINY_RUN.replace("actor = honest", "actor = pbt:1"))
    assert main(["run", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = error_lines(err)
    assert len(lines) == 1
    assert lines[0].startswith("error=ValidationError:")
    assert "port count must be at least 2" in lines[0]


def test_run_rejects_a_rotation_above_the_tree_level_with_one_error_line(
    tmp_path, capsys
):
    config = tmp_path / "tree.cfg"
    config.write_text(
        "game = basis\nn = 1\nfamily = haar\nactor = tree:3\ntrials = 3\nseed = 1\n"
    )
    assert main(["run", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = error_lines(err)
    assert len(lines) == 1
    assert lines[0] == (
        "error=StrategyError: challenge rotation is outside hierarchy level 3"
    )


def test_run_rejects_a_directory_as_out_with_one_error_line(tmp_path, capsys):
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_RUN)
    assert main(["run", str(config), "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = error_lines(err)
    assert len(lines) == 1
    assert lines[0].startswith("error=IsADirectoryError:")


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--trials", "0", "trials must be at least 1"),
        ("--seed", "-1", "seed must be non-negative"),
        ("--seed", "18446744073709551616", "seed must be at most"),
    ],
)
def test_run_rejects_a_bad_override_with_one_error_line(
    flag, value, message, tmp_path, capsys
):
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_RUN)
    assert main(["run", str(config), flag, value]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = error_lines(err)
    assert len(lines) == 1
    assert lines[0].startswith("error=ValidationError:")
    assert message in lines[0]


def test_run_prints_one_csv_row_per_trial(tmp_path, capsys):
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_RUN)
    assert main(["run", str(config), "--format", "csv"]) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == "trial,accepted,error_count,loss_count,epr_consumed"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3"]
    assert all(len(line.split(",")) == 5 for line in lines[1:])
    assert err == ""


def test_usage_errors_exit_one(capsys):
    assert main(["run"]) == 1
    lines = error_lines(capsys.readouterr().err)
    assert len(lines) == 1
    assert lines[0].startswith("error=UsageError:")


def test_compare_exits_three_on_a_failing_bound(tmp_path, capsys):
    result = tmp_path / "result.json"
    cost = tmp_path / "cost.json"
    result.write_text(json.dumps({"ledger": {"reserved_epr": 100}}))
    cost.write_text(json.dumps({"bound_epr": 10}))
    assert main(["compare", str(result), str(cost)]) == 3
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "reserved_epr,100,10,FAIL"
    lines = error_lines(err)
    assert len(lines) == 1
    assert lines[0].startswith("error=BoundCheckError:")


@pytest.mark.parametrize(
    "result, cost, field",
    [
        ({"ledger": {"reserved_epr": "x"}}, {"bound_epr": 3}, "ledger.reserved_epr"),
        ({"ledger": {"reserved_epr": 3}}, {"bound_epr": True}, "bound_epr"),
        ({"metrics": {"fidelity": {"mean": None}}}, {"fidelity_bound": 0.5}, "metrics.fidelity.mean"),
        ({"metrics": {"fidelity": {"mean": 0.9}}}, {"fidelity_bound": [0.5]}, "fidelity_bound"),
    ],
    ids=["reserved", "bound", "fidelity", "fidelity-bound"],
)
def test_compare_rejects_a_value_that_is_not_a_number(result, cost, field, tmp_path, capsys):
    result_path = tmp_path / "result.json"
    cost_path = tmp_path / "cost.json"
    result_path.write_text(json.dumps(result))
    cost_path.write_text(json.dumps(cost))
    assert main(["compare", str(result_path), str(cost_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = error_lines(err)
    assert len(lines) == 1
    assert lines[0].startswith(f"error=ValidationError: {field} must be a number")


@pytest.mark.parametrize("actor", ["pauli", "clifford", "tree:3", "layout"])
@pytest.mark.parametrize("n", [1, 2])
def test_run_rejects_a_dense_attack_on_bb84_with_one_error_line(actor, n, tmp_path, capsys):
    if actor == "layout":
        actor = f"layout:{T_PAIR_CNOT}"
    config = tmp_path / "bb84.cfg"
    config.write_text(
        f"game = basis\nn = {n}\nfamily = bb84\nactor = {actor}\ntrials = 3\nseed = 1\n"
    )
    assert main(["run", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = error_lines(err)
    assert len(lines) == 1
    assert lines[0] == (
        "error=ValidationError: this strategy needs a dense rotation, "
        "and bb84 challenges carry none"
    )


@pytest.mark.parametrize("family, n", [("pauli", 16), ("haar", 40)])
def test_run_rejects_a_dense_basis_game_past_desk_scale_with_one_error_line(
    family, n, tmp_path, capsys
):
    config = tmp_path / "wide.cfg"
    config.write_text(
        f"game = basis\nn = {n}\nfamily = {family}\nactor = honest\ntrials = 1\nseed = 1\n"
    )
    assert main(["run", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = error_lines(err)
    assert len(lines) == 1
    assert lines[0].startswith("error=ResourceError:")


@pytest.mark.parametrize("ports, bound", [(3, 0.0), (4, 0.0), (8, 0.5), (16, 0.75)])
def test_pbt_bench_reports_the_fidelity_bound(ports, bound, capsys):
    assert main(["pbt-bench", "--ports", str(ports), "--trials", "2"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["fidelity_bound"] == bound
    assert record["fidelity_bound"] == max(0.0, 1.0 - 4.0 / ports)


@pytest.mark.parametrize("ports", [2, 4, 8])
def test_pbt_bench_mean_agrees_with_the_exact_fidelity(ports, capsys):
    assert main(["pbt-bench", "--ports", str(ports), "--trials", "400", "--seed", "77"]) == 0
    record = json.loads(capsys.readouterr().out)
    fid = record["metrics"]["fidelity"]
    assert abs(fid["mean"] - record["fidelity_exact"]) < 4 * fid["stderr"]


def test_pbt_bench_record_matches_its_frozen_digest(capsys):
    # a change to any input or hop draw of the bench changes this record
    assert main(["pbt-bench", "--ports", "8", "--trials", "50", "--seed", "3"]) == 0
    record = strip_wall_clock(json.loads(capsys.readouterr().out))
    assert hashlib.sha256(canonical_json(record).encode()).hexdigest() == (
        "881e4f27a4e37fc780413871a35a71559e4f1cd1a07f99a90dba4e8c9d0ce9e0"
    )


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--trials", "0", "trials must be at least 1"),
        ("--seed", "-1", "seed must be non-negative"),
        ("--seed", "18446744073709551616", "seed must be at most"),
        ("--ports", "1", "port count must be at least 2"),
    ],
)
def test_pbt_bench_rejects_a_bad_argument_with_one_error_line(flag, value, message, capsys):
    assert main(["pbt-bench", "--ports", "4", flag, value]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = error_lines(err)
    assert len(lines) == 1
    assert lines[0].startswith("error=ValidationError:")
    assert message in lines[0]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_pbt_bench_of_one_trial_reports_a_zero_stderr(capsys):
    # one sample has no spread to estimate; the record stays strict JSON
    assert main(["pbt-bench", "--ports", "4", "--trials", "1"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    record = json.loads(out, parse_constant=_reject_constant)
    assert record["metrics"]["fidelity"]["stderr"] == 0.0


def test_cost_prints_a_record_and_exits_zero(capsys):
    assert main(["cost", "pauli", "n=3"]) == 0
    out, err = capsys.readouterr()
    record = json.loads(out)
    assert record["formula_id"] == "pauli"
    assert record["params"] == {"n": "3"}
    assert err == ""


def test_cost_rejects_a_bad_parameter_with_one_error_line(capsys):
    assert main(["cost", "pauli", "n=three"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = error_lines(err)
    assert len(lines) == 1
    assert lines[0].startswith("error=ValidationError:")
    assert "parameter 'n' expects an integer, got 'three'" in lines[0]


def test_sk_compile_prints_a_word_and_exits_zero(capsys):
    assert main(["sk-compile", "T", "--depth", "0"]) == 0
    out, err = capsys.readouterr()
    record = json.loads(out)
    assert record["kind"] == "sk-compile"
    assert record["depth"] == 0 and record["within_bound"] is True
    assert record["length"] == len(record["letters"])
    assert err == ""


def test_sk_compile_rejects_a_non_unitary_matrix_file(tmp_path, capsys):
    matrix = tmp_path / "m.json"
    # [[1, 1], [0, 1]] as [re, im] pairs
    matrix.write_text(json.dumps([[[1, 0], [1, 0]], [[0, 0], [1, 0]]]))
    assert main(["sk-compile", str(matrix), "--depth", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = error_lines(err)
    assert len(lines) == 1
    assert lines[0].startswith("error=ValidationError:")
    assert "matrix is not unitary" in lines[0]


@pytest.mark.parametrize(
    "l0, depth, prefix",
    [
        # l0 = 9 has no pinned constants: its net samples and calibrates
        ("9", "1", "error=ConvergenceError:"),
        ("17", "0", "error=ResourceError:"),
        ("0", "0", "error=ValidationError:"),
    ],
)
def test_sk_compile_rejects_a_bad_net_with_one_error_line(l0, depth, prefix, capsys):
    assert main(["sk-compile", "T", "--l0", l0, "--depth", depth]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = error_lines(err)
    assert len(lines) == 1
    assert lines[0].startswith(prefix)


def test_plot_prints_the_axes_and_exits_zero(tmp_path, capsys):
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_RUN)
    record = tmp_path / "record.json"
    assert main(["run", str(config), "--out", str(record)]) == 0
    assert main(["plot", str(record), "--axes", "config.n,metrics.win_rate.mean"]) == 0
    out, err = capsys.readouterr()
    assert out == "config.n,metrics.win_rate.mean\n3,1.0\n"
    assert err == ""


def test_plot_rejects_a_missing_record_with_one_error_line(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    assert main(["plot", str(missing), "--axes", "config.n"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = error_lines(err)
    assert len(lines) == 1
    assert lines[0].startswith("error=ValidationError:")
    assert f"cannot read {missing}" in lines[0]


def assert_one_error_line(capsys, prefix: str, fragment: str = ""):
    out, err = capsys.readouterr()
    assert out == ""
    lines = error_lines(err)
    assert len(lines) == 1
    assert lines[0].startswith(prefix)
    assert fragment in lines[0]


ONE_H = [[{"gate": "H", "targets": [0]}]]
RAGGED = [[{"gate": [[[1, 0], [0, 0]], [[0, 0]]], "targets": [0], "level": 2}]]
MALFORMED_LAYOUTS = {
    "ragged-matrix": json.dumps({"n": 1, "layers": RAGGED}).encode(),
    "string-n": json.dumps({"n": "two", "layers": ONE_H}).encode(),
    "bool-n": json.dumps({"n": True, "layers": ONE_H}).encode(),
    "float-n": json.dumps({"n": 1.0, "layers": ONE_H}).encode(),
    "layers-not-a-list": json.dumps({"n": 1, "layers": 5}).encode(),
    "not-utf-8": b'{"n": 1, "layers": []}\xff',
}


@pytest.mark.parametrize("command", ["cost", "run"])
@pytest.mark.parametrize("doc", list(MALFORMED_LAYOUTS))
def test_a_malformed_layout_gives_one_validation_error_line(doc, command, tmp_path, capsys):
    layout = tmp_path / "layout.json"
    layout.write_bytes(MALFORMED_LAYOUTS[doc])
    if command == "cost":
        argv = ["cost", "layout", f"file={layout}"]
    else:
        config = tmp_path / "layout.cfg"
        config.write_text(
            f"game = basis\nn = 1\nfamily = layout\nlayout_file = {layout}\n"
            "actor = honest\ntrials = 1\nseed = 1\n"
        )
        argv = ["run", str(config)]
    assert main(argv) == 2
    assert_one_error_line(capsys, "error=ValidationError:")


@pytest.mark.parametrize("command", ["run", "plot"])
def test_a_file_that_is_not_utf_8_gives_one_validation_error_line(command, tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(TINY_RUN.encode() + b"# caf\xe9\n")
    argv = ["run", str(path)] if command == "run" else ["plot", str(path), "--axes", "n"]
    assert main(argv) == 2
    assert_one_error_line(capsys, "error=ValidationError:", "is not UTF-8 text")


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["pauli", "n"], "expected key=value, got 'n'"),
        (["pauli", "n=1", "n=2"], "duplicate parameter 'n'"),
        (["pbt", "n=2", "ports=4,x"], "parameter 'ports' expects integers"),
        (["layout"], "needs parameter file=<path>"),
        (["sk", "t=1", "l=2", "semi_clifford=yes"], "expects true or false"),
        (["pbt-fidelity", "ports=8", "x=1"], "formula 'pbt-fidelity': x"),
        (["tree", "n=2", "k=3", "x=1"], "formula 'tree': x"),
    ],
)
def test_cost_rejects_a_malformed_parameter_list_with_one_error_line(argv, fragment, capsys):
    assert main(["cost", *argv]) == 2
    assert_one_error_line(capsys, "error=ValidationError:", fragment)


def csv_rows(text: str) -> list[list[str]]:
    """The rows of a CSV table, each checked to be as wide as the header."""
    rows = list(csv.reader(io.StringIO(text)))
    assert rows and all(len(row) == len(rows[0]) for row in rows)
    return rows


def test_plot_quotes_an_actor_that_holds_commas(tmp_path, capsys):
    config = tmp_path / "pbt.cfg"
    config.write_text(
        TINY_RUN.replace("actor = honest", "actor = pbt:4,4,4").replace("t = 1", "t = 2")
    )
    record = tmp_path / "record.json"
    assert main(["run", str(config), "--out", str(record)]) == 0
    assert main(["plot", str(record), "--axes", "config.actor,config.n"]) == 0
    out, err = capsys.readouterr()
    assert csv_rows(out) == [["config.actor", "config.n"], ["pbt:4,4,4", "3"]]
    assert err == ""


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["cost", "pbt", "n=2", "ports=4,4"], "params.ports", "4,4"),
        (["sk-compile", "S", "--depth", "0"], "letters", json.dumps(["T", "T"])),
    ],
    ids=["cost-pbt", "sk-compile"],
)
def test_csv_records_quote_fields_that_hold_commas(argv, key, value, capsys):
    assert main([*argv, "--format", "csv"]) == 0
    out, err = capsys.readouterr()
    assert dict(csv_rows(out)[1:])[key] == value
    assert err == ""
