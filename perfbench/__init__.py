"""Benchmark of record for the dHPF reproduction (see README.md)."""
