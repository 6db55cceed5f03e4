"""Test-wide settings, the scalar reference walk, its exact law, the
exact threshold and counting errors built on it, per-slot answer counts
read off an oracle's counters, and a switch to small kernel rounds.

Property tests run under a derandomised hypothesis profile: the same
examples on every run, no example database, no deadline, so the suite
gives the same result wherever it runs.
"""

import itertools
import math
from contextlib import contextmanager
from unittest import mock

from hypothesis import settings
import numpy as np
from scipy.stats import binom

from noisyquery import NoiseModel
from noisyquery import walks as walks_module
from noisyquery.counting import counting_levels, threshold_barriers
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


@contextmanager
def small_rounds(answers):
    """Kernel rounds of about ``answers`` answers, full or in the tail:
    with answers = capacity * block_width, capacity walks at a time."""
    with mock.patch.object(walks_module, "_ROUND_ANSWERS", answers), \
            mock.patch.object(walks_module, "_TAIL_ANSWERS", answers):
        yield


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


def exact_counting_error(n, ones, p, delta):
    """Error of ``counting_one_sided(oracle, delta)`` on n bits with
    ``ones`` ones, bounded from above by the chance that its ones miss
    their count or one of its zeros retires.

    Index i retires under a floor s exactly when its walk reaches
    +retire before -s: for a one with chance F(s) = 1 - e1(s), e1 from
    :func:`exact_check`, and the floor only rises. So the run reaches
    count c + 1 from c exactly when at least c + 1 indices retire under
    the stop level s(c) of :func:`counting_levels`. With m ones and no
    zero retiring, the run counts all m exactly when, for every c < m, at
    least c + 1 ones retire under s(c), and then it ends at floor s(m).
    The ones' walks are independent, so that is a DP over the distinct
    levels of s(0..m-1): of the ones still out under the last floor, each
    stays out under the next with chance e1(next)/e1(last), a binomial
    increment, and the states with fewer than c + 1 retired ones at the
    last c of a level are the error's. Their mass is summed directly,
    never as 1 - x, so it keeps its precision far below 1e-16. A zero
    retires under s(m) with chance e0(s(m)), and the zeros walk
    independently of the ones, so the two parts combine as P(A or B).
    """
    noise = NoiseModel(p)
    m = ones
    retire = counting_levels(noise, n, 0, delta)[1]
    levels = [counting_levels(noise, n, c, delta)[0] for c in range(m + 1)]
    alive = np.zeros(m + 1)  # alive[k]: no error yet, k ones retired
    alive[0] = 1.0
    missed = 0.0
    out_before = 1.0
    for floor, group in itertools.groupby(range(m), key=levels.__getitem__):
        need = list(group)[-1] + 1
        out = exact_check(p, floor, retire, 1)[0]
        rows = np.flatnonzero(alive)
        # ones out under the last floor that stay out under this one
        stay = binom.pmf(m - np.arange(m + 1), (m - rows)[:, None], out / out_before)
        alive = alive[rows] @ stay
        out_before = out
        missed += float(alive[:need].sum())
        alive[:need] = 0.0
    zero_retires = -math.expm1((n - m) * math.log1p(-exact_check(p, levels[m], retire, 0)[0]))
    return missed + zero_retires - missed * zero_retires
