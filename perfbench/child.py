"""One fresh interpreter per measurement; run.py starts it and reads its reply.

    python3 perfbench/child.py env   ROOT
    python3 perfbench/child.py setup ROOT CONFIG
    python3 perfbench/child.py run   ROOT CONFIG
    python3 perfbench/child.py trace ROOT CONFIG SPANS_FILE

setup times from before `import qpv` until `qpv run CONFIG --trials 1`
returns. run and trace time only the call into the `qpv run` entry point,
after the import; trace also wraps the layers with the span tracer and
reports the process CPU time of the call. The child prints one JSON line:
the exit status of `qpv run`, the time, the record `qpv run` wrote, and for
trace the per-span summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time


def _import_qpv(root: str):
    sys.path.insert(0, os.path.join(root, "src"))
    import qpv.cli

    expected = os.path.join(root, "src", "qpv")
    if os.path.dirname(os.path.abspath(qpv.cli.__file__)) != expected:
        raise SystemExit(f"qpv was imported from {qpv.cli.__file__}, not {expected}")
    return qpv.cli.main


def _env() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _call(main, argv) -> tuple[int, str]:
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = main(argv)
    return code, captured.getvalue()


def child(argv) -> dict:
    mode, root = argv[0], argv[1]
    if mode == "env":
        _import_qpv(root)
        return _env()
    config = argv[2]
    if mode == "setup":
        start = time.perf_counter()
        main = _import_qpv(root)
        code, record = _call(main, ["run", config, "--trials", "1"])
        return {"code": code, "seconds": time.perf_counter() - start, "record": record}
    main = _import_qpv(root)
    if mode == "run":
        start = time.perf_counter()
        code, record = _call(main, ["run", config])
        return {"code": code, "seconds": time.perf_counter() - start, "record": record}
    if mode == "trace":
        sys.path.insert(0, root)
        from perfbench.tracer import Tracer, summarize, write_spans

        with Tracer() as tracer:
            start, cpu = time.perf_counter(), time.process_time()
            code, record = _call(main, ["run", config])
            seconds, cpu = time.perf_counter() - start, time.process_time() - cpu
        write_spans(tracer.spans, argv[3])
        return {
            "code": code,
            "seconds": seconds,
            "cpu_seconds": cpu,
            "record": record,
            "summary": summarize(tracer.spans),
        }
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    reply = child(sys.argv[1:])
    sys.stdout.write(json.dumps(reply) + "\n")
