"""Test oracles: the slow, obviously correct formulations of hot paths.

Each production path in ``src`` has exactly one implementation.  The
formulation it replaced — a per-pair Python loop, a per-scale inverse
FFT, a row-at-a-time walk — lives here instead, where parity tests hold
the production path to it and the throughput benchmarks use it as the
"before" baseline.  Nothing under ``src`` imports this package.

Replint rule REP002 keeps the package honest: every public function
defined here must be referenced by some ``tests/**/test_*.py`` module.
"""
