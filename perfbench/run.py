"""Benchmark of `qpv run`: end-to-end metrics, or per-layer spans with --trace 1.

    python3 perfbench/run.py --workload ip-honest-n10k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; qpv is imported from its src/ directory.
Every measurement is a fresh interpreter (perfbench/child.py) with
OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1, run one at a time.

--trace 0 reports, per workload:
  trials_per_s  trials over the time of the call into `qpv run`, median over
                the runs that fit in --seconds
  setup_s       time from before `import qpv` until a 1-trial `qpv run`
                returns, median over the cold starts made in SETUP_SECONDS
  peak_rss_mb   peak RSS of a full run's process, from os.wait4, median
  failed_frac   failed runs over attempted runs (printed, not a metric: it
                is 0 on a correct program)
--trace 1 reports the per-layer metrics of one traced run of the same config
and its overhead over the untraced runs made before it.

Every record passes the correctness gate (perfbench/gate.py). The last line
is one JSON object: correct, attempted, failed and metrics. The exit status
is 1 when a run failed, and 2 when the checkout has no qpv sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.gate import check_records  # noqa: E402
from perfbench.tracer import layer_metrics  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402

CHILD = ROOT / "perfbench" / "child.py"
OUT_DIR = ROOT / "perfbench" / ".out"
SETUP_SECONDS = 4.0  # cold starts go on until this much time has passed
MIN_RUNS = 3  # cold starts and timed runs per workload, whatever the time
TIME_LIMIT_S = 170.0  # per workload; the whole invocation must end in 180 s


@dataclass(eq=False)
class Child:
    reply: dict | None
    rss_mb: float
    error: str = ""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, what: str, problems):
        self.failed += 1
        self.notes.append(f"{what}: {'; '.join(problems)}")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], workdir: Path, deadline: float) -> Child:
    """Run child.py to completion or the deadline; reap it with os.wait4."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), *args],
            stdout=out, stderr=err, env=child_env(), cwd=ROOT,
        )
    # a timer kills the child at the deadline, so the parent sleeps in wait4
    # instead of polling on a box with two cores
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise
    finally:
        timer.cancel()
    timed_out = time.monotonic() > deadline
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    stderr = err_path.read_text(errors="replace").strip().splitlines()
    error = "timed out" if timed_out else (stderr[-1] if stderr else f"exit {code}")
    reply = None
    if code == 0 and not timed_out:
        lines = out_path.read_text().strip().splitlines()
        try:
            reply = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            error = "no reply from the child"
    return Child(reply, rss_mb, error)


def repeat(args: list[str], seconds: float, workdir: Path, deadline: float) -> list[Child]:
    """At least MIN_RUNS children, more while `seconds` have not passed."""
    runs: list[Child] = []
    start = time.monotonic()
    # stop 30 s short of the deadline, which leaves time for a traced run
    while len(runs) < MIN_RUNS or (
        time.monotonic() - start < seconds and time.monotonic() < deadline - 30
    ):
        runs.append(run_child(args, workdir, deadline))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def read_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def gate_runs(workload, seed, trials, runs, tally, what, expected_digest=None):
    """Count every run and gate the records of those that exited cleanly."""
    ok = [r for r in runs if r.reply is not None and r.reply["code"] == 0]
    for r in runs:
        tally.attempted += 1
        if r not in ok:
            detail = r.error if r.reply is None else f"qpv exited {r.reply['code']}"
            tally.fail(what, [detail])
    digest, problems = check_records(
        workload, [r.reply["record"] for r in ok], seed, trials, expected_digest
    )
    for found in problems:
        if found:
            tally.fail(what, found)
    return ok, digest


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            expected_digest: str | None, workdir: Path) -> tuple[dict, Tally]:
    deadline = time.monotonic() + TIME_LIMIT_S
    config = workdir / "workload.cfg"
    config.write_text(workload.config_text(seed))
    tally = Tally()

    # compiles the bytecode and reports the environment; not a timed run
    env = run_child(["env", str(ROOT)], workdir, deadline)
    if env.reply is None:
        raise SystemExit(f"error: cannot import qpv: {env.error}")
    env.reply["commit"] = read_commit()
    print("env " + json.dumps(env.reply, sort_keys=True))

    ok_setups = []
    if not trace:
        setups = repeat(["setup", str(ROOT), str(config)], SETUP_SECONDS, workdir, deadline)
        ok_setups, _ = gate_runs(workload, seed, 1, setups, tally, "setup run")

    runs = repeat(["run", str(ROOT), str(config)], seconds, workdir, deadline)
    traced = []
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{workload.name}-seed{seed}.tsv"
        traced = [run_child(["trace", str(ROOT), str(config), str(spans)], workdir, deadline)]
    ok, digest = gate_runs(
        workload, seed, workload.trials, runs + traced, tally, "run", expected_digest
    )
    ok_runs = [r for r in ok if r in runs]
    if not ok_runs or (traced and traced[0] not in ok) or (not trace and not ok_setups):
        raise SystemExit(f"error: no usable run of {workload.name}: " + "; ".join(tally.notes))

    tps = [workload.trials / r.reply["seconds"] for r in ok_runs]
    untraced_s = statistics.median(r.reply["seconds"] for r in ok_runs)
    print(f"workload {workload.name} seed {seed}: {workload.trials} trials per run, "
          f"digest {digest}")
    if trace:
        reply = traced[0].reply
        epr = json.loads(reply["record"])["metrics"]["epr_consumed"]["mean"]
        metrics = layer_metrics(reply["summary"], epr, reply["seconds"] / untraced_s)
        print(f"  traced run {reply['seconds']:.4f} s ({reply['cpu_seconds']:.4f} s CPU), "
              f"untraced median {untraced_s:.4f} s over {len(ok_runs)} runs; "
              f"spans in {spans.relative_to(ROOT)}")
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    else:
        samples = {
            "trials_per_s": (tps, "trials/s"),
            "setup_s": ([r.reply["seconds"] for r in ok_setups], "s"),
            "peak_rss_mb": ([r.rss_mb for r in ok_runs], "MB"),
        }
        metrics = {}
        for name, (values, unit) in samples.items():
            q1, med, q3 = quartiles(values)
            metrics[name] = {"value": med, "unit": unit}
            print(f"  {name} = {med:.6g} {unit}  (q1 {q1:.6g}, q3 {q3:.6g}, n = {len(values)})")
    print(f"  failed_frac = {tally.failed / tally.attempted:.6g} ratio  "
          f"({tally.failed} of {tally.attempted} runs failed)")
    for note in tally.notes:
        print(f"  FAILED {note}")
    return metrics, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--expect-digest", default=None,
        help="fail unless every record has this result digest (one workload only)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.expect_digest and args.workload == "all":
        parser.error("--expect-digest needs a single workload")
    if not (ROOT / "src" / "qpv" / "__init__.py").is_file():
        print(f"error: no qpv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    total = Tally()
    metrics = {}
    try:
        for name in names:
            found, tally = measure(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                args.expect_digest, workdir,
            )
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in found.items()})
            total.attempted += tally.attempted
            total.failed += tally.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = total.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
