"""Benchmark of `qpv run`; see README.md in this directory."""
