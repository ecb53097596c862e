"""Exit codes and the single `error=<Class>:` stderr line of the command line."""

import hashlib
import json

import pytest

from qpv.cli import main
from qpv.experiment import canonical_json, strip_wall_clock

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
