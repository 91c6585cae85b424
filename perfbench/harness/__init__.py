"""Benchmark harness: workloads, load generator, span analysis."""
