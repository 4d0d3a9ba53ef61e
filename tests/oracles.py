"""Independent reference implementations used to check the fast code.

Everything here is written the slow, obvious way on purpose: exhaustive
path enumeration and closed-form expressions, sharing no code with the
package internals they verify.
"""
import math
from functools import lru_cache

import numpy as np

BRIGHT, DARK = 0, 1


def enumerate_count_distribution(n_pulses, a, b, d, initial="bright"):
    """Exhaustive sum over every per-pulse outcome path.

    Per pulse, a bright spin either flips (prob a, photon lost on the
    non-collected line), or stays and produces a detected count with
    probability (1-a)*d, or stays silently.  A dark spin either flips to
    bright (prob b, no count within the flipping pulse) or stays dark.
    """

    @lru_cache(maxsize=None)
    def paths(n, state):
        if n == 0:
            return ((0, 1.0),)
        out = {}
        if state == BRIGHT:
            branches = ((a, 0, DARK),
                        ((1.0 - a) * d, 1, BRIGHT),
                        ((1.0 - a) * (1.0 - d), 0, BRIGHT))
        else:
            branches = ((b, 0, BRIGHT),
                        (1.0 - b, 0, DARK))
        for prob, detected, nxt in branches:
            if prob == 0.0:
                continue
            for count, q in paths(n - 1, nxt):
                key = count + detected
                out[key] = out.get(key, 0.0) + prob * q
        return tuple(sorted(out.items()))

    start = BRIGHT if initial == "bright" else DARK
    dist = np.zeros(n_pulses + 1)
    for count, prob in paths(n_pulses, start):
        dist[count] = prob
    return dist


def convolve_poisson(dist, mean, tail=1e-13):
    """Reference dark-count convolution: independent Poisson additive."""
    if mean == 0.0:
        return np.asarray(dist, dtype=float)
    kmax = 0
    term = math.exp(-mean)
    cum = term
    while 1.0 - cum > tail:
        kmax += 1
        term *= mean / kmax
        cum += term
    pois = np.array([math.exp(-mean) * mean ** k / math.factorial(k)
                     for k in range(kmax + 1)])
    return np.convolve(np.asarray(dist, dtype=float), pois)


def best_threshold_scan(shots_bright, shots_dark):
    """Reference threshold scan: (f_min, threshold, f_bright, f_dark) at
    the first threshold 1..max+1 that maximizes min(F_bright, F_dark)."""
    bright = np.asarray(shots_bright)
    dark = np.asarray(shots_dark)
    best = None
    for threshold in range(1, int(max(bright.max(), dark.max())) + 2):
        f_bright = float(np.mean(bright >= threshold))
        f_dark = float(np.mean(dark < threshold))
        f_min = min(f_bright, f_dark)
        if best is None or f_min > best[0]:
            best = (f_min, threshold, f_bright, f_dark)
    return best


def trace_closed_form(n_pulses, a, b, d, initial="bright"):
    """Expected per-pulse detection: d * P(bright at pulse k)."""
    p0 = 1.0 if initial == "bright" else 0.0
    if a + b == 0.0:
        return np.full(n_pulses, d * p0)
    pi = b / (a + b)
    k = np.arange(n_pulses)
    return d * (pi + (p0 - pi) * (1.0 - a - b) ** k)


def decay_pulses_from_relaxation(relaxation_constant):
    """Exponential-fit decay constant implied by per-pulse survival.

    The per-pulse survival factor is (1 - 1/R); fitting exp(-k/N0)
    yields N0 = -1/ln(1 - 1/R).
    """
    return -1.0 / math.log(1.0 - 1.0 / relaxation_constant)
