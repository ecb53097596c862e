"""Span tracer for the traced benchmark run, kept outside the program.

install() wraps each traced public function of qpv and rebinds the wrapper
in every `qpv.*` module namespace that holds the same object, because
`from .statevec import apply_unitary` copies the name into each importing
module. Methods and properties are wrapped on the class that defines them.
uninstall() puts every original object back.

A span records its name, the span that caused it, its wall-clock interval,
its interval on the thread's CPU clock, a counter and its thread. Each
thread keeps its own span stack. A root span in a pool worker takes the
main thread's innermost open span (run_game) as its cause. Spans stay in
memory until the run ends.

Self time is busy time: the span's CPU-clock duration minus the part of it
that its children in the same thread cover. With the two pool workers
taking turns on the interpreter lock, wall-clock spans would charge each
wait for the lock to whichever function released it (LAPACK calls in
haar_qubit_batch, for one), so they are kept for the span file only. A
span in a pool worker does not cover any CPU time of run_game's thread, so
run_game's self time is the pool and the aggregation.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

NAME, PARENT, START, END, CPU_START, CPU_END, EXTRA, THREAD = range(8)

# (span name, module, attribute path). Span names are "<layer>.<public name>";
# several targets may share one span name.
TARGETS = (
    ("experiment.run_experiment", "qpv.experiment", "run_experiment"),
    ("experiment.canonical_json", "qpv.experiment", "canonical_json"),
    ("protocols.run_game", "qpv.protocols", "run_game"),
    ("protocols.gen_ip_challenge", "qpv.protocols", "gen_ip_challenge"),
    ("protocols.gen_basis_challenge", "qpv.protocols", "gen_basis_challenge"),
    ("protocols.apply_channel", "qpv.protocols", "apply_channel"),
    ("protocols.HonestProver.run_trial", "qpv.protocols", "HonestProver.run_trial"),
    ("protocols.verify_ip", "qpv.protocols", "verify_ip"),
    ("protocols.verify_basis", "qpv.protocols", "verify_basis"),
    ("attacks.strategy_from_name", "qpv.attacks", "strategy_from_name"),
    ("attacks.ChainEngine.strip", "qpv.attacks.base", "ChainEngine.strip"),
    ("attacks.decode_chain_answer", "qpv.attacks.base", "decode_chain_answer"),
    ("teleport.teleport_register", "qpv.teleport", "teleport_register"),
    ("teleport.pbt_teleport", "qpv.teleport", "pbt_teleport"),
    ("teleport.pbt_teleport_density", "qpv.teleport", "pbt_teleport_density"),
    ("teleport.build_pbt_channel", "qpv.teleport", "build_pbt_channel"),
    ("sk.build_net", "qpv.sk", "build_net"),
    ("sk.calibration", "qpv.sk", "EpsilonNet.calibration"),
    ("sk.sk_decompose", "qpv.sk", "sk_decompose"),
    ("sk.EpsilonNet.nearest", "qpv.sk", "EpsilonNet.nearest"),
    ("pauli.try_as_pauli", "qpv.pauli", "try_as_pauli"),
    ("pauli.PauliOperator.matrix", "qpv.pauli", "PauliOperator.matrix"),
    ("pauli.hierarchy_level", "qpv.pauli", "hierarchy_level"),
    ("statevec.apply_unitary", "qpv.statevec", "apply_unitary"),
    ("statevec.measure_computational", "qpv.statevec", "measure_computational"),
    ("statevec.embed_operator", "qpv.statevec", "embed_operator"),
    ("statevec.haar", "qpv.statevec", "haar_qubit_batch"),
    ("statevec.haar", "qpv.statevec", "haar_random_unitary"),
    ("statevec.QubitArray", "qpv.statevec", "QubitArray.apply_each"),
    ("statevec.QubitArray", "qpv.statevec", "QubitArray.apply_same"),
    ("statevec.QubitArray", "qpv.statevec", "QubitArray.measure_all"),
    ("statevec.DensityMatrix.init", "qpv.statevec", "DensityMatrix.__init__"),
    ("rng.RngStream", "qpv.rng", "RngStream.__init__"),
)

# wrapped on every CoalitionStrategy subclass that defines them; the Alice
# and Bob halves share one span
STRATEGY_METHODS = {
    "new_trial": "attacks.new_trial",
    "round1_alice": "attacks.round1",
    "round1_bob": "attacks.round1",
    "finalize_alice": "attacks.finalize",
    "finalize_bob": "attacks.finalize",
}

# per-span counters taken at the boundary from (args, result). Bytes are
# computed, not measured: one read and one write of the complex128
# amplitudes, 2 * 16 * 2^n for a state vector and 2 * 16 * 2 * n for a
# QubitArray of n qubits.
OBSERVERS = {
    "pauli.try_as_pauli": lambda args, result: int(result is not None),
    "teleport.pbt_teleport": lambda args, result: int(result.port is not None),
    "teleport.pbt_teleport_density": lambda args, result: int(result.port is not None),
    "statevec.apply_unitary": lambda args, result: 2 * 16 * 2**result.num_qubits,
    "statevec.QubitArray": lambda args, result: 2 * 16 * 2 * args[0].num_qubits,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    """Install with `with Tracer() as tracer:`; spans land in tracer.spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._bindings: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            main = threading.current_thread() is threading.main_thread()
            self._local.stack = self._main_stack if main else []
            return self._local.stack

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        spans = self.spans
        stack_of = self._stack
        main_stack = self._main_stack
        clock = time.perf_counter_ns
        cpu = time.thread_time_ns
        ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = None
            if stack:
                parent = stack[-1]
            elif stack is not main_stack:
                try:
                    parent = main_stack[-1]
                except IndexError:
                    pass
            span = [name, parent, 0, 0, 0, 0, 0, ident()]
            stack.append(span)
            span[START] = clock()
            span[CPU_START] = cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[CPU_END] = cpu()
                span[END] = clock()
                stack.pop()
                spans.append(span)
            if observe is not None:
                span[EXTRA] = observe(args, result)
            return result

        return traced

    def _rebind(self, owner, attr: str, new):
        self._bindings.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_function(self, name: str, fn):
        wrapper = self._wrap(name, fn)
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "qpv" or key.startswith("qpv."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._rebind(module, attr, wrapper)

    def _wrap_member(self, cls, attr: str, name: str):
        original = cls.__dict__[attr]
        if isinstance(original, property):
            new = property(self._wrap(name, original.fget), original.fset, original.fdel)
        else:
            new = self._wrap(name, original)
        self._rebind(cls, attr, new)

    def install(self):
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        importlib.import_module("qpv")
        from qpv.attacks.base import CoalitionStrategy

        for name, module, path in TARGETS:
            owner = importlib.import_module(module)
            *classes, attr = path.split(".")
            for part in classes:
                owner = getattr(owner, part)
            if classes:
                self._wrap_member(owner, attr, name)
            else:
                self._wrap_function(name, getattr(owner, attr))
        for cls in _subclasses(CoalitionStrategy):
            for attr, name in STRATEGY_METHODS.items():
                if attr in cls.__dict__:
                    self._wrap_member(cls, attr, name)

    def uninstall(self):
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)


def _covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, self and total busy ns, and the summed counter."""
    children = defaultdict(list)
    for span in spans:
        parent = span[PARENT]
        if parent is not None and parent[THREAD] == span[THREAD]:
            children[id(parent)].append((span[CPU_START], span[CPU_END]))
    out: dict[str, dict] = {}
    for span in spans:
        start, end = span[CPU_START], span[CPU_END]
        agg = out.setdefault(
            span[NAME], {"calls": 0, "self_ns": 0, "total_ns": 0, "extra": 0}
        )
        agg["calls"] += 1
        agg["total_ns"] += end - start
        agg["self_ns"] += end - start - _covered(children.get(id(span), ()), start, end)
        agg["extra"] += span[EXTRA]
    return out


def write_spans(spans, path):
    """Tab-separated spans: id, parent id, thread, name, wall interval, busy ns."""
    ids = {id(span): i for i, span in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tparent\tthread\tname\tstart_ns\tend_ns\tbusy_ns\n")
        for i, span in enumerate(spans):
            parent = "" if span[PARENT] is None else ids[id(span[PARENT])]
            fh.write(
                f"{i}\t{parent}\t{span[THREAD]}\t{span[NAME]}\t{span[START]}\t"
                f"{span[END]}\t{span[CPU_END] - span[CPU_START]}\n"
            )


# per-layer metrics: "<span name>.<stat>" for stat in calls, self_s,
# total_s (inclusive, for the set-up builders), bytes and hit_ratio
SPAN_METRICS = (
    "experiment.run_experiment.self_s",
    "experiment.canonical_json.self_s",
    "protocols.run_game.self_s",
    "protocols.gen_ip_challenge.calls",
    "protocols.gen_ip_challenge.self_s",
    "protocols.gen_basis_challenge.calls",
    "protocols.gen_basis_challenge.self_s",
    "protocols.apply_channel.self_s",
    "protocols.HonestProver.run_trial.self_s",
    "protocols.verify_ip.self_s",
    "protocols.verify_basis.self_s",
    "attacks.strategy_from_name.self_s",
    "attacks.new_trial.self_s",
    "attacks.round1.self_s",
    "attacks.finalize.self_s",
    "attacks.ChainEngine.strip.calls",
    "attacks.decode_chain_answer.self_s",
    "teleport.teleport_register.calls",
    "teleport.teleport_register.self_s",
    "teleport.pbt_teleport.calls",
    "teleport.pbt_teleport.self_s",
    "teleport.pbt_teleport_density.calls",
    "teleport.pbt_teleport_density.self_s",
    "teleport.build_pbt_channel.self_s",
    "teleport.build_pbt_channel.total_s",
    "sk.build_net.self_s",
    "sk.build_net.total_s",
    "sk.calibration.self_s",
    "sk.calibration.total_s",
    "sk.sk_decompose.calls",
    "sk.sk_decompose.self_s",
    "sk.EpsilonNet.nearest.calls",
    "sk.EpsilonNet.nearest.self_s",
    "pauli.try_as_pauli.calls",
    "pauli.try_as_pauli.self_s",
    "pauli.try_as_pauli.hit_ratio",
    "pauli.PauliOperator.matrix.calls",
    "pauli.PauliOperator.matrix.self_s",
    "pauli.hierarchy_level.calls",
    "pauli.hierarchy_level.self_s",
    "statevec.apply_unitary.calls",
    "statevec.apply_unitary.self_s",
    "statevec.apply_unitary.bytes",
    "statevec.measure_computational.calls",
    "statevec.measure_computational.self_s",
    "statevec.embed_operator.calls",
    "statevec.embed_operator.self_s",
    "statevec.haar.calls",
    "statevec.haar.self_s",
    "statevec.QubitArray.calls",
    "statevec.QubitArray.self_s",
    "statevec.QubitArray.bytes",
    "statevec.DensityMatrix.init.calls",
    "statevec.DensityMatrix.init.self_s",
    "rng.RngStream.calls",
    "rng.RngStream.self_s",
)

UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "bytes": "B", "hit_ratio": "ratio"}


def _ratio(hits: int, calls: int) -> float:
    # 0 when the span never ran, so every metric is present on every workload
    return hits / calls if calls else 0.0


def layer_metrics(summary: dict, epr_per_trial: float, overhead: float) -> dict:
    """Every per-layer metric as {name: {"value", "unit"}}."""
    empty = {"calls": 0, "self_ns": 0, "total_ns": 0, "extra": 0}
    out = {}
    for metric in SPAN_METRICS:
        span, _, stat = metric.rpartition(".")
        agg = summary.get(span, empty)
        value = {
            "calls": agg["calls"],
            "self_s": agg["self_ns"] / 1e9,
            "total_s": agg["total_ns"] / 1e9,
            "bytes": agg["extra"],
            "hit_ratio": _ratio(agg["extra"], agg["calls"]),
        }[stat]
        out[metric] = {"value": value, "unit": UNITS[stat]}
    hops = [summary.get(s, empty) for s in ("teleport.pbt_teleport", "teleport.pbt_teleport_density")]
    out["teleport.pbt_port_hit_ratio"] = {
        "value": _ratio(sum(h["extra"] for h in hops), sum(h["calls"] for h in hops)),
        "unit": "ratio",
    }
    out["attacks.epr_consumed_per_trial"] = {"value": epr_per_trial, "unit": "pairs/trial"}
    out["trace_overhead"] = {"value": overhead, "unit": "ratio"}
    return out
