"""Config file format, experiment records, and the bound-comparison helpers."""

import dataclasses
import hashlib
import shutil
from pathlib import Path

import pytest

from qpv import layout as layout_module
from qpv.errors import ConfigError, ValidationError
from qpv.experiment import (
    ExperimentConfig,
    apply_overrides,
    canonical_json,
    compare_bounds,
    emit_plot_data,
    parse_config,
    render_compare_table,
    run_experiment,
)

from oracles import serialize_config, strip_wall_clock

BASIS_TEXT = """\
# a small clean run
schema = 1
game = basis
n = 4
actor = honest
family = bb84
eta = 0.0
trials = 20
seed = 7
threads = 1
"""

IP_TEXT = """\
schema = 1
game = ip
n = 3
actor = honest
t = 2
trials = 10
seed = 3
threads = 1
"""


def test_parse_and_serialize_round_trip():
    config = parse_config(BASIS_TEXT)
    assert config.game == "basis"
    assert config.n == 4
    assert config.family == "bb84"
    assert config.trials == 20
    again = parse_config(serialize_config(config))
    assert again == config


def test_parse_defaults_fill_in():
    config = parse_config(IP_TEXT)
    assert config.eta_err == 0.0 and config.eta_loss == 0.0
    assert config.per_qubit_unitaries is False
    assert config.bank is False
    assert config.out is None


MINI = "game = basis\nn = 4\nactor = honest\n"


# each config's record echo, key by key in order
AS_DICT_CASES = [
    (
        ExperimentConfig(
            "basis", 2, "layout:x.json", family="layout", layout_file="x.json",
            eta=0.1, p_loss=0.2, trials=50, seed=7, out="res.json",
        ),
        [
            ("schema", 1), ("game", "basis"), ("n", 2), ("actor", "layout:x.json"),
            ("family", "layout"), ("layout_file", "x.json"), ("eta", 0.1),
            ("p_loss", 0.2), ("p_dep", 0.0), ("bank", False), ("trials", 50),
            ("seed", 7), ("threads", 0), ("out", "res.json"),
        ],
    ),
    (
        ExperimentConfig("basis", 3, "clifford", family="clifford"),
        [
            ("schema", 1), ("game", "basis"), ("n", 3), ("actor", "clifford"),
            ("family", "clifford"), ("eta", 0.0), ("p_loss", 0.0), ("p_dep", 0.0),
            ("bank", False), ("trials", 1000), ("seed", 0), ("threads", 0),
        ],
    ),
    (
        ExperimentConfig(
            "ip", 4, "sk:1", t=2, eta_err=0.3, eta_loss=0.1,
            per_qubit_unitaries=True, p_dep=0.05, bank=True, threads=2,
        ),
        [
            ("schema", 1), ("game", "ip"), ("n", 4), ("actor", "sk:1"), ("t", 2),
            ("eta_err", 0.3), ("eta_loss", 0.1), ("per_qubit_unitaries", True),
            ("p_loss", 0.0), ("p_dep", 0.05), ("bank", True), ("trials", 1000),
            ("seed", 0), ("threads", 2),
        ],
    ),
]


@pytest.mark.parametrize(
    "config, items", AS_DICT_CASES, ids=["layout-with-out", "basis", "ip"]
)
def test_as_dict_keeps_its_keys_order_and_values(config, items):
    echo = config.as_dict()
    assert list(echo.items()) == items
    assert [type(value) for value in echo.values()] == [type(v) for _, v in items]


@pytest.mark.parametrize(
    "line,complaint",
    [
        ("color = blue", "unknown key"),
        ("n = 5", "duplicate key"),
        ("trials = soon", "expected an integer"),
        ("eta = maybe", "expected a number"),
        ("bank = perhaps", "expected true or false"),
        ("threads = -2", "threads must be at least"),
        ("seed = 18446744073709551616", "line 4: seed must be at most"),
        ("eta = 1.5", "must lie in"),
        ("t = 2", "applies to the ip game"),
        ("eta_err = 0.1", "applies to the ip game"),
        ("family = fourier", "family must be one of"),
        ("family = explicit", "cannot be written in a config file"),
        ("bank = true", "only serves the interleaved game"),
        ("layout_file = a.json", "only applies to the layout family"),
        ("actor honest", "expected 'key = value'"),
        ("out =", "empty value"),
    ],
)
def test_parse_config_rejections(line, complaint):
    with pytest.raises(ConfigError, match=complaint):
        parse_config(MINI + line + "\n")


def test_parse_config_missing_required():
    with pytest.raises(ConfigError, match="game"):
        parse_config("schema = 1\nn = 2\nactor = honest\n")
    with pytest.raises(ConfigError, match="schema version 2"):
        parse_config("schema = 2\ngame = basis\nn = 2\nactor = honest\n")


def test_parse_config_rejects_ip_with_basis_keys():
    with pytest.raises(ConfigError, match="applies to the basis game"):
        parse_config(IP_TEXT + "family = haar\n")
    with pytest.raises(ConfigError, match="applies to the basis game"):
        parse_config(IP_TEXT + "eta = 0.1\n")


def test_parse_config_reports_line_numbers():
    text = "schema = 1\ngame = basis\nnoise = 3\n"
    with pytest.raises(ConfigError, match="line 3"):
        parse_config(text)
    # duplicate messages point at both the clash and the original
    with pytest.raises(ConfigError, match="line 4.*first set on line 2"):
        parse_config("schema = 1\nn = 2\ngame = basis\nn = 3\n")


def test_layout_family_needs_a_file():
    with pytest.raises(ConfigError, match="layout_file"):
        parse_config(MINI + "family = layout\n")


def test_run_experiment_record_shape():
    payload = run_experiment(parse_config(BASIS_TEXT))
    record = payload.record
    assert record["artifact_version"] == 1
    assert record["kind"] == "experiment"
    assert record["config"]["game"] == "basis"
    assert record["metrics"]["win_rate"]["mean"] == 1.0
    assert record["ledger"]["reserved_epr"] == 0
    assert record["error_histogram"] == [[0, 20]]
    assert record["wall_clock_seconds"] >= 0.0
    lines = payload.trial_csv.strip().split("\n")
    assert lines[0] == "trial,accepted,error_count,loss_count,epr_consumed"
    assert len(lines) == 21
    assert lines[1] == "0,1,0,0,0"


def test_records_are_byte_identical_across_threads():
    base = parse_config(BASIS_TEXT)
    one = run_experiment(base)
    again = run_experiment(base)
    pooled = run_experiment(dataclasses.replace(base, threads=3))
    flat = canonical_json(strip_wall_clock(one.record))
    assert flat == canonical_json(strip_wall_clock(again.record))
    # the threads key is config, so compare fixed-config blocks only
    assert one.record["metrics"] == pooled.record["metrics"]
    assert one.record["error_histogram"] == pooled.record["error_histogram"]
    assert one.trial_csv == pooled.trial_csv


FROZEN_HONEST_IP = """\
game = ip
n = 2000
actor = honest
t = 2
p_loss = 0.05
p_dep = 0.05
trials = 5
seed = 11
"""

FROZEN_HONEST_BASIS = """\
game = basis
family = bb84
n = 2000
actor = honest
p_loss = 0.05
trials = 5
seed = 11
"""


def _config(**keys) -> str:
    return "".join(f"{key} = {value}\n" for key, value in keys.items())


def _basis(actor, family, n, p_loss, trials, **keys):
    return _config(
        game="basis", family=family, n=n, actor=actor, p_loss=p_loss,
        trials=trials, seed=3, **keys,
    )


# T and Tdg on the two qubits, then a CNOT
T_PAIR_CNOT = Path(__file__).parent / "layouts" / "t_pair_cnot.json"


def _ip(actor, n, t, eta_err, eta_loss, p_loss, trials, **keys):
    return _config(
        game="ip", n=n, t=t, actor=actor, eta_err=eta_err, eta_loss=eta_loss,
        p_loss=p_loss, trials=trials, seed=3, **keys,
    )


@pytest.mark.parametrize(
    "text, digest",
    [
        pytest.param(
            FROZEN_HONEST_IP,
            "fcd1e4d3ed48aa8afab5dc8adb159ddc3f291b2bff97e1d6e217d33cded95e74",
            id="honest-ip",
        ),
        pytest.param(
            # a tenth of the qubits lost, each kept one depolarized at 1/2
            _config(
                game="ip", n=2000, actor="honest", t=2, p_loss=0.1, p_dep=0.5,
                trials=5, seed=11,
            ),
            "d644c6703fdd35e19535899954c11e2473d56ffc02de70042b3facce29ea27c6",
            id="honest-ip-half-depolarized",
        ),
        pytest.param(
            FROZEN_HONEST_BASIS,
            "3535a79cbdebaa819ffb820ec472e730b8e922ce21247bf8b22effac7a59d191",
            id="honest-bb84",
        ),
        pytest.param(
            _basis("pauli", "pauli", 3, 0.3, 40),
            "a3890ce6d6cbbd2f4c7fa2769ef2481128294f85356ebe7a7fb68d46f3c8e4b3",
            id="pauli",
        ),
        pytest.param(
            _basis("clifford", "clifford", 2, 0.3, 40),
            "6c45e09fe74eedfd238a56d328f305a6b9773759cd42d644e1869ee29e1affb0",
            id="clifford",
        ),
        pytest.param(
            _basis("tree:3", "clifford", 1, 0.3, 40),
            "6513072123af437c0d33b96fbc486e8bf2f3860cded583641237be09385e956b",
            id="tree-3",
        ),
        pytest.param(
            _basis(
                f"layout:{T_PAIR_CNOT}", "layout", 2, 0.2, 100,
                layout_file=T_PAIR_CNOT, p_dep=0.1,
            ),
            "e4f465805b6ef7fe488a6557ea4348b0394d985fcb125c7b2061cc309d0a30fd",
            id="layout-t-pair-cnot",
        ),
        pytest.param(
            _basis("clifford", "clifford", 3, 0.2, 40, p_dep=0.2),
            "60b86bd452d4fccdeb75b4b38e1958b87a19ab60d7b801ed2368de68a417f4fc",
            id="clifford-3-depolarized",
        ),
        pytest.param(
            _basis("breidbart", "bb84", 500, 0.1, 10, eta=0.16),
            "5436c8173bb8db261787aa18f75432c56fb7a0e2f7723895196b4c0503aad5db",
            id="breidbart",
        ),
        pytest.param(
            _basis("random-guess", "bb84", 500, 0.1, 10),
            "f57c64718d1380b3d0a41bf6fad1f074e69f08d62a1960c2df0f32511ce92bc2",
            id="random-guess",
        ),
        pytest.param(
            _ip("pbt:3", 6, 1, 0.4, 0.5, 0.2, 60),
            "833f8298cc73f0b847ad05ee11df9b70b59891eaec896126b8c26f7d53d0c716",
            id="pbt-3",
        ),
        pytest.param(
            _config(
                game="ip", n=300, actor="honest", t=3, p_loss=0.05, p_dep=0.05,
                trials=5, seed=11, per_qubit_unitaries="true",
            ),
            "d60325c23c7b01fc8f3990402cbf9d76fc7832554859014f2807d4ddeb97f843",
            id="honest-ip-per-qubit",
        ),
        pytest.param(
            _ip("pbt:4,6,8", 6, 2, 0.4, 0.5, 0.2, 60),
            "4e9134ce1f46b79d6ea85f07a6a1b4df8414e6cb37947281adb0f602e8625fcf",
            id="pbt-4-6-8",
        ),
        pytest.param(
            _ip("pbt:4,6,8", 6, 2, 0.4, 0.5, 0.2, 60, per_qubit_unitaries="true"),
            "020673dcca6f40fb8d532304bd7d087b544d3c4f04fd08343ee91224e38a1bae",
            id="pbt-4-6-8-per-qubit",
        ),
        pytest.param(
            _config(
                game="ip", n=8, t=3, actor="pbt:8,8,8,8,8", eta_err=0.5, p_dep=0.1,
                trials=40, seed=3,
            ),
            "60da959e6c6f832b35bfe181c30302d527a048e744a1ceb4c2b55c4bd0633da5",
            id="pbt-8x5-depolarized",
        ),
        pytest.param(
            _ip("sk:1", 4, 1, 0.2, 0.5, 0.2, 10),
            "821a8a65a28dd4924241322ef724f390bccee65588db3911e4b5a1645bb58b04",
            id="sk-1",
        ),
        pytest.param(
            _ip("random-basis", 500, 2, 0.3, 0.2, 0.1, 10),
            "a50262465aa377be04df7ce8b0afcc59651ef10a95252e34465a2bddc5549286",
            id="random-basis",
        ),
        pytest.param(
            _ip("lossy-confidence", 500, 2, 0.3, 0.2, 0.1, 10),
            "126d3508119f85e46e96651729e8c61e35d1b4c4e07acc47a855c843d1ecda2d",
            id="lossy-confidence",
        ),
        pytest.param(
            # losses exceed the declared budget, so the shared fallback fires
            _ip("lossy-confidence", 500, 2, 0.3, 0.05, 0.2, 10),
            "b76bb2f2403f986230244a52d0ebeef7f807df22c459a1c756489bcd22255c59",
            id="lossy-confidence-over-budget",
        ),
        pytest.param(
            _ip("random-basis", 500, 2, 0.3, 0.2, 0.1, 10, per_qubit_unitaries="true"),
            "4682e877865ccfa9e41909c22cd4df29487e4472b0c477bafa40feef7caee594",
            id="random-basis-per-qubit",
        ),
        pytest.param(
            _ip(
                "lossy-confidence", 500, 2, 0.3, 0.2, 0.1, 10,
                per_qubit_unitaries="true",
            ),
            "349090265aeb0fbcf78130ccab6e7bb179c553e01e61f7e76ebc722d9d269b69",
            id="lossy-confidence-per-qubit",
        ),
        pytest.param(
            _config(
                game="ip", n=3, t=2, actor="sk:2", eta_err=0.3, eta_loss=0.5,
                p_loss=0.1, trials=4, seed=7, per_qubit_unitaries="true",
            ),
            "d6cbb14106f5b6396469a7488c61c1afd47c374e0e26fbb98d008e92a7893dc4",
            id="sk-2-per-qubit",
        ),
        pytest.param(
            # 53 trials end part-way through a block of trials
            _ip(
                "pbt:4,4,4", 5, 2, 0.4, 0.5, 0.1, 53,
                p_dep=0.1, per_qubit_unitaries="true",
            ),
            "cef785b1261a48b75e994940137aad902118cf246b572621094b87a9c19cefcb",
            id="pbt-4-4-4-per-qubit-53",
        ),
        pytest.param(
            # bank mode: the payload arrives as sent and no channel is drawn
            _config(
                game="ip", n=9, actor="pbt:4,4,4", t=2, eta_err=0.5, p_loss=0.2,
                p_dep=0.2, bank="true", trials=40, seed=5,
            ),
            "55b39f70cf9b13752a45778ecf0a20b6ecac3063529ccd3ef51e934edbe99c1b",
            id="pbt-4-4-4-bank",
        ),
        pytest.param(
            # the threads key is echoed but changes no draw
            _config(
                game="ip", n=16, actor="honest", t=2, eta_err=0.1, eta_loss=0.1,
                p_loss=0.1, p_dep=0.1, trials=40, seed=5, threads=3,
            ),
            "8b2c5fec193badefd4e5163af288cbec0caf7b64f072f1736a1acab4e91a57f1",
            id="honest-ip-threads-3",
        ),
    ],
)
def test_records_match_their_frozen_digests(text, digest):
    # A change to any random draw of the honest games or of a strategy, or to
    # how a strategy decodes its answers, changes these records. Such a
    # change bumps ARTIFACT_VERSION and re-derives every digest.
    record = strip_wall_clock(run_experiment(parse_config(text)).record)
    # the layout file's path depends on the checkout, so only its name counts
    config = record["config"]
    if "layout_file" in config:
        name = Path(config["layout_file"]).name
        config["layout_file"] = name
        config["actor"] = f"layout:{name}"
    assert record["artifact_version"] == 1
    assert hashlib.sha256(canonical_json(record).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "text, digest",
    [
        pytest.param(
            FROZEN_HONEST_IP,
            "1dd5d1a1323eb53a4c1f280cc4bfd7925ab3fa8216336a08771d001ff8eb86f3",
            id="honest-ip",
        ),
        pytest.param(
            _ip("sk:1", 4, 1, 0.2, 0.5, 0.2, 10),
            "95338247213132ccccccdcd5bacb5b316b0c28c01bcc3b68974cb17f01eb0551",
            id="sk-1",
        ),
        pytest.param(
            _ip("lossy-confidence", 500, 2, 0.3, 0.05, 0.2, 10),
            "7b5fe5bcbd08245b0074769585ad1744c1a8ae02d3266822b8aeaff072854a17",
            id="lossy-confidence-over-budget",
        ),
        pytest.param(
            _config(
                game="ip", n=8, t=3, actor="pbt:8,8,8,8,8", eta_err=0.5, p_dep=0.1,
                trials=40, seed=3,
            ),
            "807f74ce0c890a6fa5e825a885ffbdab6bb5ce6dab269f653cafef27e7839d3c",
            id="pbt-8x5-depolarized",
        ),
        pytest.param(
            _basis("clifford", "clifford", 3, 0.2, 40, p_dep=0.2),
            "ffe81157f80d05482eff4ef52020640fe45d36425661895a2205182404fc9169",
            id="clifford-3-depolarized",
        ),
    ],
)
def test_trial_csvs_match_their_frozen_digests(text, digest):
    # one row per trial, in index order, with every count a finished trial keeps
    csv = run_experiment(parse_config(text)).trial_csv
    assert hashlib.sha256(csv.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "actor_file, reads",
    [("same", 1), ("relative", 1), ("copy", 2)],
    ids=["same-path", "same-file-relative", "other-file"],
)
def test_a_layout_run_parses_its_layout_file_once(
    actor_file, reads, tmp_path, monkeypatch
):
    # a layout actor naming the game's own file takes the game's parsed
    # layout; another file, even one with the same content, is parsed too
    seen = []
    read_json = layout_module.read_json

    def counted(path):
        seen.append(path)
        return read_json(path)

    monkeypatch.setattr(layout_module, "read_json", counted)
    monkeypatch.chdir(T_PAIR_CNOT.parent)
    actor = {
        "same": T_PAIR_CNOT,
        "relative": T_PAIR_CNOT.name,
        "copy": shutil.copy(T_PAIR_CNOT, tmp_path),
    }[actor_file]
    text = _basis(f"layout:{actor}", "layout", 2, 0.2, 20, layout_file=T_PAIR_CNOT)
    record = run_experiment(parse_config(text)).record
    assert len(seen) == reads
    # the frozen layout-t-pair-cnot digest checks that the record is unchanged
    assert record["config"]["actor"] == f"layout:{actor}"


def test_a_single_trial_has_zero_stderrs_and_one_csv_row():
    config = dataclasses.replace(parse_config(FROZEN_HONEST_IP), trials=1)
    payload = run_experiment(config)
    metrics = payload.record["metrics"]
    assert {name: m["stderr"] for name, m in metrics.items()} == dict.fromkeys(
        metrics, 0.0
    )
    assert metrics["loss_count"]["mean"] > 0
    lines = payload.trial_csv.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0,")


def test_canonical_json_is_sorted_and_newline_terminated():
    text = canonical_json({"b": 1, "a": 2})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


def test_compare_bounds_rows():
    result = {
        "ledger": {"reserved_epr": 14},
        "metrics": {"fidelity": {"mean": 0.93, "stderr": 0.001}},
    }
    cost = {"bound_epr": 16, "fidelity_bound": 0.5}
    rows = compare_bounds(result, cost)
    assert [r["quantity"] for r in rows] == ["reserved_epr", "fidelity"]
    assert all(r["passed"] for r in rows)
    table = render_compare_table(rows)
    assert table.startswith("quantity,empirical,bound,status\n")
    assert "reserved_epr,14,16,pass" in table


def test_compare_bounds_flags_failures():
    rows = compare_bounds({"ledger": {"reserved_epr": 20}}, {"bound_epr": 16})
    assert rows == [
        {"quantity": "reserved_epr", "empirical": 20, "bound": 16, "passed": False}
    ]
    assert "FAIL" in render_compare_table(rows)


def test_compare_bounds_needs_comparable_pairs():
    with pytest.raises(ValidationError, match="no comparable"):
        compare_bounds({"metrics": {}}, {"bound_epr": 5})
    with pytest.raises(ValidationError, match="JSON objects"):
        compare_bounds([], {})


def test_emit_plot_data_columns():
    records = [
        {"config": {"n": 2}, "metrics": {"win_rate": {"mean": 1.0}}},
        {"config": {"n": 4}, "metrics": {"win_rate": {"mean": 0.5}}},
    ]
    out = emit_plot_data(records, ["config.n", "metrics.win_rate.mean"])
    assert out == "config.n,metrics.win_rate.mean\n2,1.0\n4,0.5\n"


def test_emit_plot_data_edge_cases():
    assert emit_plot_data([], ["config.n"]) == "config.n\n"
    with pytest.raises(ValidationError, match="duplicate axis"):
        emit_plot_data([], ["a", "a"])
    with pytest.raises(ValidationError, match="no field"):
        emit_plot_data([{"config": {}}], ["config.n"])
    with pytest.raises(ValidationError, match="not a scalar"):
        emit_plot_data([{"config": {"n": [1]}}], ["config.n"])
    with pytest.raises(ValidationError, match="at least one"):
        emit_plot_data([], [])


def test_apply_overrides():
    config = parse_config(BASIS_TEXT)
    bumped = apply_overrides(config, seed=9, trials=5, out="r.json")
    assert (bumped.seed, bumped.trials, bumped.out) == (9, 5, "r.json")
    untouched = apply_overrides(config, None, None, None)
    assert untouched == config
    with pytest.raises(ValidationError):
        apply_overrides(config, None, 0, None)
