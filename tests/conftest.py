"""Test-wide settings, the scalar reference walk and its exact law.

Property tests run under a derandomised hypothesis profile: the same
examples on every run, no example database, no deadline, so the suite
gives the same result wherever it runs.
"""

import math

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


def log_up_first(u, a, b):
    """log P(+b first) for a walk from 0 stepping +1 w.p. u < 1/2 and -1
    otherwise, stopped at -a or +b. With s = (1-u)/u the stable form is
    P = s^-b (1 - s^-a) / (1 - s^-(a+b)); in logs it stays exact where P
    itself is subnormal or underflows."""
    log_s = math.log((1.0 - u) / u)
    return -b * log_s + math.log(-math.expm1(-a * log_s)) - math.log(-math.expm1(-(a + b) * log_s))


def exact_walk(u, a, b):
    """(P(+b first), E[steps]) of the walk of :func:`log_up_first`, the
    mean from Wald's identity: E[T] = (a - (a+b) P) / (1 - 2u)."""
    up = math.exp(log_up_first(u, a, b))
    return up, (a - (a + b) * up) / (1.0 - 2.0 * u)


def exact_check(p, a, b, bit):
    """(error, E[steps]) of a walk with barriers -a, +b on a hidden bit
    under flip probability p. A 0-bit's walk steps +1 w.p. p and errs at
    +b; a 1-bit's walk is its mirror, which errs at -a."""
    return exact_walk(p, a, b) if bit == 0 else exact_walk(p, b, a)
