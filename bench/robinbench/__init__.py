"""Benchmark for robineig: seeded workloads, a solver-independent output
check, and a span tracer that times each module from outside it."""
