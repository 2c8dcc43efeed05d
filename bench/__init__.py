"""Benchmark of the conefbp numerical cores; run it with ``python3 bench/run.py``."""
