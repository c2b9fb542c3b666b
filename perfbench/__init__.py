"""Benchmark of emtshape: three closed-loop workloads and a traced pass."""
