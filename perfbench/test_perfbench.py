"""Tests of the benchmark's own machinery: tracer, self time and the gate."""

from __future__ import annotations

import copy
import inspect
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench.gate import check_records, result_digest  # noqa: E402
from perfbench.tracer import SPAN_METRICS, Tracer, layer_metrics, summarize  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def _qpv_bindings() -> dict:
    """Every (namespace, name) -> object in qpv's modules and their classes."""
    import qpv

    out = {}
    for key, module in list(sys.modules.items()):
        if module is None or not (key == "qpv" or key.startswith("qpv.")):
            continue
        for name, value in vars(module).items():
            out[(key, name)] = value
            if inspect.isclass(value) and value.__module__.startswith("qpv"):
                for attr, member in vars(value).items():
                    out[(f"{key}.{name}", attr)] = member
    assert qpv.__name__ == "qpv"
    return out


def test_tracer_wraps_every_copy_and_restores_every_binding():
    import qpv.attacks.base
    import qpv.protocols
    import qpv.sk
    import qpv.statevec
    from qpv.pauli import PauliOperator

    before = _qpv_bindings()
    apply_unitary = qpv.statevec.apply_unitary
    with Tracer():
        # qpv.teleport is the function the package re-exports, not the module
        for key in ("qpv.statevec", "qpv.protocols", "qpv.attacks.base", "qpv.teleport"):
            module = sys.modules[key]
            assert module.apply_unitary is not apply_unitary
            assert module.apply_unitary.__wrapped__ is apply_unitary
        assert vars(PauliOperator)["matrix"] is not before[("qpv.pauli.PauliOperator", "matrix")]
        assert vars(qpv.sk.EpsilonNet)["calibration"].fget.__wrapped__ is (
            before[("qpv.sk.EpsilonNet", "calibration")].fget
        )
    after = _qpv_bindings()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []
    assert after.keys() == before.keys()


def test_traced_run_records_spans_and_keeps_the_result():
    from qpv.experiment import parse_config, run_experiment

    config = parse_config(
        "game = ip\nn = 16\nactor = honest\nt = 2\neta_err = 0.1\n"
        "eta_loss = 0.1\np_loss = 0.1\np_dep = 0.1\ntrials = 4\nseed = 5\nthreads = 2\n"
    )
    plain = run_experiment(config).record
    with Tracer() as tracer:
        traced = run_experiment(config).record
    assert result_digest(traced) == result_digest(plain)
    summary = summarize(tracer.spans)
    assert summary["protocols.gen_ip_challenge"]["calls"] == 4
    assert summary["protocols.verify_ip"]["calls"] == 4
    # spans in pool workers hang under run_game in the main thread
    run_game = [s for s in tracer.spans if s[0] == "protocols.run_game"]
    assert len(run_game) == 1
    verifies = [s for s in tracer.spans if s[0] == "protocols.verify_ip"]
    assert all(s[1] is run_game[0] for s in verifies)
    metrics = layer_metrics(summary, 0.0, 1.0)
    assert metrics["statevec.QubitArray.bytes"]["value"] > 0
    assert metrics["sk.build_net.self_s"]["value"] == 0.0


def _span(name, parent, cpu_start, cpu_end, extra=0, thread=1):
    return [name, parent, 0, 0, cpu_start, cpu_end, extra, thread]


def test_self_time_subtracts_same_thread_children():
    root = _span("root", None, 0, 100)
    a = _span("a", root, 10, 40)
    leaf = _span("leaf", a, 15, 20, extra=1)
    b = _span("b", root, 40, 70)
    late = _span("leaf", b, 65, 80, extra=1)  # clipped to its parent's end
    worker = _span("worker", root, 0, 50, thread=2)  # covers no CPU of root's thread
    summary = summarize([leaf, a, late, b, worker, root])
    assert summary["root"] == {"calls": 1, "self_ns": 100 - 60, "total_ns": 100, "extra": 0}
    assert summary["a"]["self_ns"] == 30 - 5
    assert summary["b"]["self_ns"] == 30 - 5
    assert summary["leaf"] == {"calls": 2, "self_ns": 20, "total_ns": 20, "extra": 2}
    assert summary["worker"]["self_ns"] == 50


def _honest_record(seed=3, trials=10) -> dict:
    return {
        "artifact_version": 1,
        "kind": "experiment",
        "config": {"seed": seed, "trials": trials},
        "metrics": {
            "win_rate": {"mean": 1.0, "stderr": 0.0},
            "error_count": {"mean": 99.0, "stderr": 1.0},
            "loss_count": {"mean": 201.0, "stderr": 1.4},
            "epr_consumed": {"mean": 0.0, "stderr": 0.0},
        },
        "ledger": {"reserved_epr": 0, "mean_epr_consumed": 0.0},
        "error_histogram": [[99, 10]],
        "wall_clock_seconds": 1.5,
    }


def test_gate_accepts_repeat_runs_and_rejects_tampered_records():
    workload = WORKLOADS["ip-honest-n10k"]
    good = _honest_record()
    again = dict(good, wall_clock_seconds=2.5)
    texts = [json.dumps(good), json.dumps(again)]
    digest, problems = check_records(workload, texts, 3, 10)
    assert problems == [[], []]
    assert digest == result_digest(good)
    assert check_records(workload, texts, 3, 10, expected_digest=digest)[1] == [[], []]

    tampered = copy.deepcopy(good)
    tampered["metrics"]["win_rate"]["mean"] = 0.9
    _, problems = check_records(workload, [texts[0], json.dumps(tampered)], 3, 10)
    assert problems[0] == [] and len(problems[1]) == 2  # invariant and determinism

    _, problems = check_records(workload, texts, 3, 10, expected_digest="sha256:00")
    assert all(problems)

    far = copy.deepcopy(good)
    far["metrics"]["loss_count"]["mean"] = 260.0
    assert check_records(workload, [json.dumps(far)], 3, 10)[1][0]
    assert check_records(workload, ["not json"], 3, 10)[1][0]
    assert check_records(workload, texts, 4, 10)[1][0]


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["trials_per_s", "setup_s", "peak_rss_mb"]
    reported = layer_metrics({}, 0.0, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(reported)
    assert all(m["unit"] == reported[m["name"]]["unit"] for m in spec["per_layer"])
    assert set(SPAN_METRICS) < set(reported)
