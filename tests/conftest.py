"""Test-wide settings, the scalar reference walk, its exact law, the
exact threshold error built on it, and per-slot answer counts read off
an oracle's counters.

Property tests run under a derandomised hypothesis profile: the same
examples on every run, no example database, no deadline, so the suite
gives the same result wherever it runs.
"""

import math

from hypothesis import settings
import numpy as np
from scipy.stats import binom

from noisyquery import NoiseModel
from noisyquery.counting import threshold_barriers
from noisyquery.oracles import GAMMA

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


# GAMMA is odd, so it has an inverse modulo 2^64
GAMMA_INVERSE = pow(GAMMA, -1, 1 << 64)


def answer_counts(oracle, fresh):
    """Answers ``oracle`` has given per slot, as a list. ``fresh`` is an
    unqueried oracle with the same stream: slot s's counter has moved
    from fresh's by j * GAMMA after j answers, modulo 2^64."""
    return ((oracle._counters - fresh._counters) * np.uint64(GAMMA_INVERSE)).tolist()


def exact_threshold_error(n, k, p, delta, ones):
    """Exact error of ``threshold_count(oracle, k, delta)`` on n bits with
    ``ones`` ones, scored as the harness scores it.

    Each index's verdict is independent given its bit, and a scan for t
    ones with m ones present reports "at least t" exactly when the sum X
    of its verdicts is: X = m - W + Z with W ~ Bin(m, e1) missed ones and
    Z ~ Bin(n - m, e0) false ones, e0 and e1 from :func:`exact_check` at
    the barriers of the branch's own target. For 2k <= n + 1 the scan
    looks for t = k ones and the answer min(k, X) must equal min(k, ones).
    For 2k > n + 1 it looks for t = n - k + 1 ones of the complement, with
    m = n - ones, and only the decision is scored. Each tail is a direct
    sum of pmf * cdf or pmf * sf terms, never 1 - x, so it keeps its
    precision far below 1e-16.
    """
    complement = 2 * k > n + 1
    target = n - k + 1 if complement else k
    m = n - ones if complement else ones
    a, b = threshold_barriers(NoiseModel(p), n, target, delta)
    e0, e1 = exact_check(p, a, b, 0)[0], exact_check(p, a, b, 1)[0]
    missed = np.arange(m + 1)
    weights = binom.pmf(missed, m, e1)

    def below(s):
        # P(X < s) = P(Z < s - m + W)
        return float(np.sum(weights * binom.cdf(s - m + missed - 1, n - m, e0)))

    def at_least(s):
        return float(np.sum(weights * binom.sf(s - m + missed - 1, n - m, e0)))

    if complement:
        return at_least(target) if m < target else below(target)
    return below(target) if m >= target else below(m) + at_least(m + 1)
