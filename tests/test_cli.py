"""Exit codes and the single `error=<Class>:` stderr line of the command line."""

import json

import pytest

from qpv.cli import main

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


@pytest.mark.parametrize("ports, bound", [(3, 0.0), (4, 0.0), (8, 0.5)])
def test_pbt_bench_reports_the_fidelity_bound(ports, bound, capsys):
    assert main(["pbt-bench", "--ports", str(ports), "--trials", "2"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["fidelity_bound"] == bound
    assert record["fidelity_bound"] == max(0.0, 1.0 - 4.0 / ports)
