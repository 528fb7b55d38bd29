"""Benchmark for vacuumpairs; see README.md in this directory."""
