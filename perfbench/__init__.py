"""Benchmark harness for the ewlgames CLI; see perfbench/README.md."""
