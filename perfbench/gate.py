"""Correctness gate applied to every `qpv run` record the benchmark collects.

A record passes when it parses as an experiment record for the configured
seed and trial count, satisfies its workload's seed-independent invariants,
and matches every other record of the same config byte for byte once
`wall_clock_seconds` is removed. The result digest covers only `metrics`,
`ledger` and `error_histogram`, so dropping a config key from the echo does
not count as a change of result.
"""

from __future__ import annotations

import hashlib
import json

from .workloads import Workload

DIGEST_KEYS = ("metrics", "ledger", "error_histogram")


def result_digest(record: dict) -> str:
    body = {key: record[key] for key in DIGEST_KEYS}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _untimed(record: dict) -> str:
    body = {k: v for k, v in record.items() if k != "wall_clock_seconds"}
    return json.dumps(body, sort_keys=True, indent=2)


def _check_one(workload: Workload, text: str, seed: int, trials: int):
    """(record, problems) for one record text; record is None if unusable."""
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"record is not JSON: {exc}"]
    if not isinstance(record, dict) or record.get("kind") != "experiment":
        return None, ["not an experiment record"]
    missing = [k for k in DIGEST_KEYS + ("config",) if k not in record]
    if missing:
        return None, [f"record lacks {', '.join(missing)}"]
    config = record["config"]
    if config.get("seed") != seed or config.get("trials") != trials:
        return None, [f"record echoes seed {config.get('seed')} trials {config.get('trials')}"]
    try:
        return record, workload.check(record, workload.params())
    except (KeyError, TypeError, ValueError) as exc:
        return None, [f"record is malformed: {exc!r}"]


def check_records(
    workload: Workload,
    texts: list[str],
    seed: int,
    trials: int,
    expected_digest: str | None = None,
) -> tuple[str | None, list[list[str]]]:
    """Gate a group of records from runs of one config.

    Returns the group's digest (that of its first usable record) and, per
    record, the list of problems found; an empty list means the run passed.
    With expected_digest, every record must also carry that digest.
    """
    problems: list[list[str]] = []
    reference = None
    for text in texts:
        record, found = _check_one(workload, text, seed, trials)
        if record is not None:
            if reference is None:
                reference = record
            elif _untimed(record) != _untimed(reference):
                found.append("record differs from the first run of the same seed")
            digest = result_digest(record)
            if expected_digest is not None and digest != expected_digest:
                found.append(f"digest {digest} != expected {expected_digest}")
        problems.append(found)
    digest = None if reference is None else result_digest(reference)
    return digest, problems
