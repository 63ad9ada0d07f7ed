"""The repo's page-load benchmark (see bench/README.md).

``python3 bench/run.py`` runs it; ``BENCHMARK.json`` at the repo root is
its contract. Everything that touches ``repro`` goes through
:mod:`bench.adapters`.
"""
