"""Test-wide settings and the scalar reference walk.

Property tests run under a derandomised hypothesis profile: the same
examples on every run, no example database, no deadline, so the suite
gives the same result wherever it runs.
"""

from hypothesis import settings

settings.register_profile("derandomised", max_examples=40, derandomize=True, database=None, deadline=None)
settings.load_profile("derandomised")


def query_walk(oracle, key, a, b):
    """Scalar reference for the walk kernel: one query() per step, from 0
    to -a (declared 0) or +b (declared 1). Returns (declared, steps)."""
    d = steps = 0
    while -a < d < b:
        steps += 1
        d += 1 if oracle.query(key) else -1
    return int(d == b), steps
