"""Exact photon-count statistics of the pulsed single-shot spin readout.

Per pulse the spin follows a two-state chain with an attached detection
channel:

    bright: flip to dark   a        (no photon collected)
            stay + detect  (1-a)*d
            stay, silent   (1-a)*(1-d)
    dark:   flip to bright b        (no photon within the flipping pulse)
            stay           (1-b)

with d = p_excite * eta_detect.  The full count distribution is computed
by dynamic programming over (pulse, state, count) and convolved with a
Poisson dark-count background over the total gated time; one helper,
:func:`_count_pmfs`, builds every exact count pmf from a DP buffer, and a
zero dark rate is the one-point pmf [1.0].  Everything here is exact
arithmetic on the model — no sampling — apart from
:func:`empirical_fidelity`, the same threshold scan on measured counts.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .estimators import (FitError, FitResult, NumericalError, fit_model,
                         write_csv)
from .physics import InvalidConfigError, check_count, check_fields, check_range, ranged

__all__ = [
    "CAPACITY_PULSES",
    "CAPACITY_DARK_MEAN",
    "CALIBRATION_TOL",
    "CALIBRATION_RANGES",
    "CapacityError",
    "CalibrationError",
    "ReadoutParams",
    "CountDistribution",
    "check_state",
    "FidelityReport",
    "DecayFit",
    "FlipCalibration",
    "OptimizeResult",
    "count_distribution",
    "expected_trace",
    "fit_decay_constant",
    "cyclicity",
    "readout_fidelity",
    "empirical_fidelity",
    "readout_report",
    "optimize_readout",
    "calibrate_flip_asymmetry",
    "flip_probabilities",
    "dark_count_penalty",
    "format_fidelity_report",
]

# largest pulse count of the exact DP.  Its pmf drifts from sum 1 by a
# rounding error that grows linearly with the pulse count: over 1000
# random (a, b, d) points at 4000 pulses the worst was 4.5e-13 (1.14e-16
# per pulse), inside the 1e-12 that CountDistribution checks; at 10000
# pulses six of 451 points broke that check.
CAPACITY_PULSES = 4000
# largest dark-count mean over all gates: its truncated Poisson pmf spans
# about mu + 8 sqrt(mu) counts, 1.008e6 here, on every distribution's
# count axis
CAPACITY_DARK_MEAN = 1e6
# largest |achieved - target| fidelity that calibrate_flip_asymmetry accepts
CALIBRATION_TOL = 1e-4
# calibrate_flip_asymmetry's intervals, as check_range's (low, high, open_low, open_high)
CALIBRATION_RANGES = {"relaxation_constant": (1.0, math.inf, True, True),
                      "target_f": (0.0, 1.0, True, True)}
_STATES = ("bright", "dark")
_POISSON_TAIL = 1e-13
_SUPPORT_STEP = 16      # pulses between checks of the DP's top counts
_SCAN_BLOCK = 64        # pulses whose threshold scans share one cumsum
_FIRST_CAP = 256        # counts optimize_readout's DP first keeps (doubled on need)


class CapacityError(ValueError):
    """Pulse count or dark-count mean exceeds what the exact model (or
    the timeline executor) is rated for."""


class CalibrationError(NumericalError):
    """Requested fidelity is outside the attainable range."""

    def __init__(self, message, attainable=None):
        super().__init__(message)
        self.attainable = attainable


@dataclass(frozen=True)
class ReadoutParams:
    """Knobs of one pulsed-readout sequence.

    Rates in Hz, times in microseconds; ``flip_bright``/``flip_dark``
    are the per-pulse flip probabilities of the bright and dark ground
    state (a and b in the chain above).  ``n_pulses`` is an integer in
    1..sys.maxsize (int64, as the engines hold it), and the dark-count
    mean at most CAPACITY_DARK_MEAN (a CapacityError).
    """
    n_pulses: int
    p_excite: float = ranged(0.0, 1.0, open_high=False)
    eta_detect: float = ranged(0.0, 1.0, open_high=False)
    flip_bright: float = ranged(0.0, 1.0, open_high=False)
    flip_dark: float = ranged(0.0, 1.0, open_high=False)
    dark_rate: float = ranged(0.0, default=0.0)
    gate_window: float = ranged(0.0, default=3.0)
    pulse_period: float = ranged(0.0, open_low=True, default=10.0)

    def __post_init__(self):
        object.__setattr__(self, "n_pulses", check_count("n_pulses", self.n_pulses, 1, sys.maxsize))
        check_fields(self)
        if not self.dark_count_mean <= CAPACITY_DARK_MEAN:
            raise CapacityError(
                f"the dark-count mean {self.dark_count_mean:g} over "
                f"{self.n_pulses:g} gates of {self.gate_window:g} us exceeds "
                f"the exact model's capacity of {CAPACITY_DARK_MEAN:g}")

    @property
    def detection_probability(self) -> float:
        return self.p_excite * self.eta_detect

    @property
    def dark_count_mean(self) -> float:
        # Hz * us over all gates
        return self.dark_rate * self.gate_window * 1e-6 * self.n_pulses

    @property
    def duration_ms(self) -> float:
        return self.n_pulses * self.pulse_period * 1e-3


@dataclass(eq=False)
class CountDistribution:
    """The probability of each photon count 0..N after N pulses from one spin state."""
    probabilities: np.ndarray
    initial_state: str
    n_pulses: int

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "probabilities", p)
        check_state("initial_state", self.initial_state)
        if np.any(p < 0):
            raise ValueError("count probabilities must be non-negative")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise ValueError("count probabilities must sum to 1 within 1e-12")

    def mean(self) -> float:
        return float(np.arange(len(self.probabilities)) @ self.probabilities)

    def prob_at_least(self, threshold: int) -> float:
        return float(self.probabilities[threshold:].sum())

    def prob_below(self, threshold: int) -> float:
        return float(self.probabilities[:threshold].sum())

    def to_csv(self, path):
        write_csv(path, "count,probability",
                  np.arange(len(self.probabilities)), self.probabilities)


@dataclass
class FidelityReport:
    """Bright and dark readout fidelities at one threshold and pulse count."""
    f_bright: float
    f_dark: float
    threshold: int
    n_pulses: int
    readout_duration: float | None = None   # ms
    cyclicity: float | None = None
    f_bright_se: float | None = None
    f_dark_se: float | None = None

    @property
    def f_min(self) -> float:
        return min(self.f_bright, self.f_dark)


# ---------------------------------------------------------------------------
# dynamic programming over (pulse, state, count)
# ---------------------------------------------------------------------------

def check_state(name, value):
    """``value`` if it is "bright" or "dark"; else an InvalidConfigError naming it."""
    if value not in _STATES:
        raise InvalidConfigError(f"{name} must be 'bright' or 'dark', got {value!r}")
    return value


def _chain(a, b, d, starts, n_pulses, cap=None):
    """Yield the (state, pair, count) probabilities, bright then dark,
    after each of n_pulses <= CAPACITY_PULSES pulses for every (point,
    initial state) pair of the batch, at one (a, b, d) per point; a
    scalar serves every point.  The yielded array is the buffer that
    each pulse overwrites in place, so it stays valid only until the
    generator resumes.

    Each yielded array holds only counts 0 .. w - 1 of the n_pulses + 1;
    every count at or above its width w is an exact zero, or dropped
    when w has reached ``cap``.  Count c is read only from counts c and
    c - 1 of the previous pulse, so a cap keeps every count below it
    exact, and a zero tail stays zero (0 * x + 0 * y = 0): the support
    grows by at most one count per pulse, and in floating point much
    more slowly, as the top counts underflow (at ``paper.cfg`` the last
    nonzero count is 956 at N = 3000).  Every _SUPPORT_STEP pulses the
    width therefore grows by _SUPPORT_STEP counts if any of its top
    _SUPPORT_STEP counts is nonzero, so the support cannot reach the
    width before the next check.  The kept counts go through the same
    floating-point operations as on the full axis and keep their bits.
    """
    if n_pulses > CAPACITY_PULSES:
        raise CapacityError(
            f"n_pulses={n_pulses} exceeds the exact-DP capacity of {CAPACITY_PULSES}")
    a, b, d = (np.repeat(x, len(starts))[:, None] for x in
               np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (a, b, d))))
    # probs[to] gains probs[from] * mix[from, to]; a detection also
    # shifts the count of a bright spin that stays bright
    mix = np.stack((np.stack(((1.0 - a) * (1.0 - d), a)), np.stack((b, 1.0 - b))))
    detect = (1.0 - a) * d
    step = _SUPPORT_STEP
    limit = n_pulses + 1 if cap is None else min(n_pulses + 1, cap)
    grown = np.zeros((2, a.size, min(limit, 1 + step)))
    for j, state in enumerate(starts):
        grown[_STATES.index(state), j::len(starts), 0] = 1.0
    for pulse in range(1, n_pulses + 1):
        if grown is not None:             # new buffers and the views of one step
            probs, grown, width = grown, None, grown.shape[2]
            terms = np.empty((2,) + probs.shape)                # [from, to]
            mixing = np.broadcast_to(mix, terms.shape).copy()   # the faster loop
            from_bright, from_dark = terms
            shift = np.empty_like(probs[0, :, 1:])
            stay, spread, rise = probs[0, :, :-1], probs[:, None], probs[0, :, 1:]
        np.multiply(stay, detect, out=shift)
        np.multiply(spread, mixing, out=terms)
        np.add(from_bright, from_dark, out=probs)
        np.add(rise, shift, out=rise)
        if pulse % step == 0 and width < limit and probs[:, :, -step:].any():
            grown = np.concatenate(
                (probs, np.zeros((2, a.size, min(step, limit - width)))), axis=2)
        yield probs


def _poisson_pmf(mu: float) -> np.ndarray:
    """Poisson pmf of mean mu, truncated as :func:`_poisson_pmfs` says."""
    return _poisson_pmfs([mu])[0]


def _poisson_pmfs(mus) -> list:
    """Poisson pmf of each mean >= 0 of ``mus``, truncated once the
    missing tail is < 1e-13; a zero mean gives the pmf [1.0].

    The upward recurrence from exp(-mu) steps all means at once, each
    through the float operations, in the order, of a loop over it alone.
    Once exp(-mu) leaves the normal float range (mu > ~708) that
    recurrence can stall, so the pmf instead grows outward from the mode
    in units of the mode term, each side stopping below 1e-13 of it
    (~5e-15 of missing mass), and is then normalized.
    """
    term, mu = np.array([math.exp(-m) for m in mus]), np.array(mus, dtype=float)
    upward = term >= sys.float_info.min
    cum, terms, length = term.copy(), [term], np.ones(len(mus), dtype=int)
    going = upward & (1.0 - cum > _POISSON_TAIL)
    while going.any():
        term = term * mu / len(terms)
        cum += term
        terms.append(term)
        length += going
        going &= 1.0 - cum > _POISSON_TAIL
    table = np.stack(terms, axis=1)
    return [row[:k] if up else _poisson_from_mode(m) for row, k, up, m in
            zip(table, length.tolist(), upward.tolist(), mus)]


def _poisson_from_mode(mu: float) -> np.ndarray:
    mode = math.floor(mu)
    below, above = [1.0], [1.0]         # counts mode - i and mode + i
    while below[-1] >= _POISSON_TAIL:
        below.append(below[-1] * (mode + 1 - len(below)) / mu)
    while above[-1] >= _POISSON_TAIL:
        above.append(above[-1] * mu / (mode + len(above)))
    pmf = np.concatenate((np.zeros(mode + 1 - len(below)), below[:0:-1], above))
    return pmf / pmf.sum()


def _count_pmfs(probs, width, dark, cut=None) -> np.ndarray:
    """(row, count) pmfs of the DP buffer ``probs`` (state, row, count):
    each row's two states summed over its first ``width`` counts, zero-
    padded, convolved with the dark-count pmf ``dark`` ([1.0] at a zero
    mean, which keeps every bit) and cut to ``cut`` counts.  A list gives
    one width, dark pmf or cut per row; a shorter row ends in zeros."""
    rows = probs.shape[1]
    widths, darks, cuts = (x if isinstance(x, list) else [x] * rows for x in (width, dark, cut))
    signal = np.zeros((rows, max(widths, default=0)))
    kept = min(probs.shape[2], signal.shape[1])
    signal[:, :kept] = probs[0, :, :kept] + probs[1, :, :kept]
    pmfs = [np.convolve(row[:w], x)[:c] for row, w, x, c in zip(signal, widths, darks, cuts)]
    size = max(map(len, pmfs), default=0)
    return np.array([np.concatenate((x, np.zeros(size - len(x)))) if len(x) < size else x
                     for x in pmfs]).reshape(rows, size)


def _distributions(params: ReadoutParams, a, b, starts=_STATES, d=None):
    """Count distributions at params' N and dark mean for every (a, b, d)
    point and initial state, from one batched DP; indexed [point][state].
    d defaults to params' detection probability."""
    n = params.n_pulses
    for probs in _chain(a, b, params.detection_probability if d is None else d, starts, n):
        pass
    rows, k = _count_pmfs(probs, n + 1, _poisson_pmf(params.dark_count_mean)), len(starts)
    return [[CountDistribution(pmf, state, n) for pmf, state in zip(rows[i:i + k], starts)]
            for i in range(0, len(rows), k)]


def count_distribution(params: ReadoutParams, initial: str = "bright") -> CountDistribution:
    """Exact distribution of detected photons over the full sequence."""
    return _distributions(params, [params.flip_bright], [params.flip_dark],
                          (check_state("initial", initial),))[0][0]


def expected_trace(params: ReadoutParams, initial: str = "bright") -> np.ndarray:
    """d * P(bright before pulse k), for k = 0 .. N-1.

    This is not the detection probability of pulse k: a spin that flips
    in a pulse is not detected in it, so the chain (and the Monte Carlo
    trace) detects with (1 - a) times this.  The two-state chain relaxes
    toward pi = b/(a+b) with per-pulse factor (1 - a - b); a = b = 0
    freezes the chain (constant trace).
    """
    a, b = params.flip_bright, params.flip_dark
    d = params.detection_probability
    p0 = 1.0 if check_state("initial", initial) == "bright" else 0.0
    k = np.arange(params.n_pulses)
    s = a + b
    if s == 0.0:
        return np.full(params.n_pulses, d * p0)
    stationary = b / s
    return d * (stationary + (p0 - stationary) * (1.0 - s) ** k)


@dataclass
class DecayFit:
    """A per-pulse trace's decay constant N0 in pulses, with the fit behind it."""
    n0: float
    amplitude: float
    offset: float
    n0_sd: float
    fit: FitResult


def fit_decay_constant(trace) -> DecayFit:
    """Fit A*exp(-k/N0)+c to a per-pulse trace; N0 in pulses."""
    trace = np.asarray(trace, dtype=float)
    if trace.size < 4:
        raise ValueError("need at least 4 trace points")
    scale = max(float(np.max(np.abs(trace))), 1.0)
    if float(np.ptp(trace)) <= 1e-14 * scale:
        raise FitError("constant trace: decay constant is unbounded")
    pulses = np.arange(trace.size, dtype=float)
    result = fit_model("exp_decay", pulses, trace)
    return DecayFit(
        n0=result["tau"],
        amplitude=result["amplitude"],
        offset=result["offset"],
        n0_sd=result.uncertainties["tau"],
        fit=result,
    )


def cyclicity(p_excite: float, n0: float) -> float:
    """Mean photons emitted on the readout transition before a flip."""
    return (check_range("p_excite", p_excite, 0.0, 1.0, True, False)
            * check_range("n0", n0, 0.0, math.inf, True, True))


def readout_fidelity(dist_bright: CountDistribution, dist_dark: CountDistribution,
                     threshold: int) -> FidelityReport:
    """min-fidelity of thresholding: classify bright if count >= threshold."""
    threshold = check_count("threshold", threshold)
    if (len(dist_bright.probabilities) != len(dist_dark.probabilities)
            or dist_bright.n_pulses != dist_dark.n_pulses):
        raise ValueError("mismatched supports: distributions must share "
                         "pulse count and count axis")
    f_bright = dist_bright.prob_at_least(threshold)
    f_dark = dist_dark.prob_below(threshold)
    return FidelityReport(
        f_bright=f_bright,
        f_dark=f_dark,
        threshold=threshold,
        n_pulses=dist_bright.n_pulses,
    )


def empirical_fidelity(shots_bright, shots_dark) -> FidelityReport:
    """Best-threshold readout fidelity from per-shot photon counts.

    Scans all thresholds, returns the report at the threshold that
    maximizes min(F_bright, F_dark); binomial standard errors attached.
    """
    bright = np.asarray(shots_bright, dtype=np.int64)
    dark = np.asarray(shots_dark, dtype=np.int64)
    if bright.size == 0 or dark.size == 0:
        raise ValueError("both shot lists must be non-empty")
    thresholds = np.arange(1, int(max(bright.max(), dark.max())) + 2)
    # shares of shots at or above / below every threshold, from sorted counts
    f_bright = (bright.size - np.searchsorted(np.sort(bright), thresholds)) / bright.size
    f_dark = np.searchsorted(np.sort(dark), thresholds) / dark.size
    i = int(np.argmax(np.minimum(f_bright, f_dark)))    # ties: lowest threshold
    threshold, f_bright, f_dark = int(thresholds[i]), float(f_bright[i]), float(f_dark[i])
    se_b = math.sqrt(f_bright * (1.0 - f_bright) / bright.size)
    se_d = math.sqrt(f_dark * (1.0 - f_dark) / dark.size)
    return FidelityReport(
        f_bright=f_bright,
        f_dark=f_dark,
        threshold=threshold,
        n_pulses=0,
        f_bright_se=se_b,
        f_dark_se=se_d,
    )


def readout_report(params: ReadoutParams, threshold: int | None = None) -> FidelityReport:
    """Full fidelity report at fixed n_pulses, with duration and cyclicity.

    threshold=None picks the best threshold.  Both expected traces relax
    by 1 - a - b per pulse, so the bright, dark and mean cyclicity are one
    value, p_excite * N0 with N0 = -1/ln(1 - a - b); it is unset unless
    the chain relaxes observably (a > 0, b > 0, a + b < 1, d > 0).
    """
    a, b = params.flip_bright, params.flip_dark
    [report] = fidelity_reports(params, [a], [b], threshold=threshold)
    report.readout_duration = params.duration_ms
    if a > 0.0 and b > 0.0 and a + b < 1.0 and params.detection_probability > 0.0:
        report.cyclicity = cyclicity(params.p_excite, -1.0 / math.log1p(-(a + b)))
    return report


def fidelity_reports(params: ReadoutParams, a, b, d=None, threshold=None) -> list:
    """:func:`readout_fidelity`'s report at ``threshold`` (None: the lowest
    best one) per (a, b, d) point of one batched DP pass; readout_report,
    calibrate_flip_asymmetry and pulse_area_scan share it (not in __all__)."""
    dists, n = _distributions(params, a, b, d=d), params.n_pulses
    thresholds = [threshold] * len(dists)
    if threshold is None and dists:
        pmfs = np.array([[dist.probabilities for dist in pair] for pair in dists])
        thresholds = [row[1] for row in _scan(pmfs, [n] * len(dists), [n] * len(dists))]
    return [readout_fidelity(*pair, t) for pair, t in zip(dists, thresholds)]


@dataclass(eq=False)
class OptimizeResult:
    """The best pulse count and threshold, and the fidelities at every pulse count tried."""
    n_star: int
    threshold_star: int
    f_star: float
    n_values: np.ndarray
    threshold_values: np.ndarray
    f_bright_values: np.ndarray
    f_dark_values: np.ndarray
    f_values: np.ndarray

    def to_csv(self, path):
        write_csv(path, "n,threshold,f_bright,f_dark,f_min",
                  self.n_values, self.threshold_values, self.f_bright_values,
                  self.f_dark_values, self.f_values)


def _scan(pmfs, tops, pulses):
    """(N, threshold, F_bright, F_dark, F_min) at the lowest best
    threshold below each ``top``, per (bright, dark) pmf pair of the
    (pair, arm, count) array ``pmfs``, which holds at least each top's
    counts; None where the arms do not cross below a top short of N.

    F_bright(t) = 1 - CDF_b(t - 1) never increases and F_dark(t) =
    CDF_d(t - 1) never decreases, in floating point too, since every pmf
    entry is >= 0 and cumsum adds in order.  So min(F_bright, F_dark)
    rises up to the first threshold t_c with F_dark >= F_bright and
    falls after it, and its lowest-index maximum lies at or before t_c:
    a scan that reaches t_c finds the threshold, with the same bits,
    that the scan of all thresholds 1..N finds.
    """
    tops, pulses = np.array(tops), np.array(pulses)
    cum = np.cumsum(pmfs[:, :, :tops.max()], axis=2)
    f_bright, f_dark = 1.0 - cum[:, 0], cum[:, 1]
    inside = np.arange(cum.shape[2]) < tops[:, None]
    crossed = np.any((f_dark >= f_bright) & inside, axis=1) | (tops == pulses)
    f_min = np.where(inside, np.minimum(f_bright, f_dark), -np.inf)
    i = np.argmax(f_min, axis=1)
    k = np.arange(len(pmfs))
    rows = zip(pulses.tolist(), (i + 1).tolist(), f_bright[k, i].tolist(),
               f_dark[k, i].tolist(), f_min[k, i].tolist())
    return [row if ok else None for ok, row in zip(crossed.tolist(), rows)]


def _scan_rows(params: ReadoutParams, start: int, n_hi: int, cap: int, rows: list) -> int:
    """Append the rows of N = start .. n_hi to ``rows``, one block of
    _SCAN_BLOCK pulses at a time, from one chain that keeps the counts
    below ``cap``.  Return 0 when done, or stop at the first block that
    reads more counts and return how many it reads.
    """
    width = min(cap, n_hi + 1)
    held = np.zeros((2, _SCAN_BLOCK, 2, width))    # (state, pulse, start, count)
    chain = _chain([params.flip_bright], [params.flip_dark],
                   params.detection_probability, _STATES, n_hi, width)
    for pulse, probs in enumerate(chain, start=1):
        if pulse < start:
            continue
        j = (pulse - start) % _SCAN_BLOCK
        held[:, j, :, :probs.shape[2]] = probs     # widths never shrink: no stale tail
        if j < _SCAN_BLOCK - 1 and pulse < n_hi:
            continue
        pulses = np.arange(pulse - j, pulse + 1)
        threshold = rows[-1][1] if rows else 0
        # room for the crossing to move on within the block
        tops = np.minimum(pulses, threshold + max(8, threshold // 4) + len(pulses) // 4)
        darks = _poisson_pmfs((params.dark_rate * params.gate_window * 1e-6 * pulses).tolist())
        sizes = np.minimum(pulses + 1, np.maximum(tops, [len(x) for x in darks]))
        need = int(sizes.max())
        if need > width:
            return need
        # one row per (pulse, start), each pulse's dark pmf for both starts
        arms = _count_pmfs(held[:, :len(pulses)].reshape(2, -1, width),
                           np.repeat(sizes, 2).tolist(), [x for x in darks for _ in _STATES],
                           np.repeat(tops, 2).tolist())
        block = _scan(arms.reshape(len(pulses), 2, -1), tops, pulses)
        for k, row in enumerate(block):
            if row is None:                 # the arms do not cross: scan all of N
                n = int(pulses[k])
                if n + 1 > width:
                    return n + 1
                [block[k]] = _scan(_count_pmfs(held[:, k], n + 1, darks[k])[None], [n], [n])
        rows += block
    return 0


def optimize_readout(params: ReadoutParams, n_range) -> OptimizeResult:
    """Exhaustive (pulse count, threshold) scan of the min-fidelity.

    Runs the DP once up to the top of ``n_range`` and reads off every
    intermediate pulse count, which is bitwise identical to rerunning
    the DP per N.  Ties resolve to the smallest N, then threshold.

    The thresholds of _SCAN_BLOCK consecutive N are scanned together,
    each only up to a window past the previous block's last best
    threshold, and all of them where the arms do not cross inside it
    (:func:`_scan` says why that keeps every bit).  Count c of the
    signal and of its convolution with the dark pmf depends only on
    counts <= c, through the same dot products as on the full axis as
    long as the signal prefix is at least as long as the dark pmf
    (np.convolve swaps a shorter first argument); a prefix shorter than
    that is the full signal.  So the chain keeps only the counts below a
    cap, and starts over with the cap doubled when a block reads more;
    no row depends on the cap.
    """
    n_lo = check_count("n_range[0]", n_range[0])
    n_hi = check_count("n_range[1]", n_range[1], n_lo)
    rows, cap = [], _FIRST_CAP
    while len(rows) <= n_hi - n_lo:
        need = _scan_rows(params, n_lo + len(rows), n_hi, cap, rows)
        while cap < need:
            cap *= 2
    best = max(rows, key=lambda row: row[4])    # first maximum: smallest N

    n_values, t_values, fb_values, fd_values, f_values = map(np.array, zip(*rows))
    return OptimizeResult(
        n_star=int(best[0]),
        threshold_star=int(best[1]),
        f_star=float(best[4]),
        n_values=n_values,
        threshold_values=t_values,
        f_bright_values=fb_values,
        f_dark_values=fd_values,
        f_values=f_values,
    )


@dataclass
class FlipCalibration:
    """Flip probabilities a and b that reach the target fidelity, and the best reachable."""
    a: float
    b: float
    asymmetry: float
    achieved_f: float
    f_max: float


def _increasing_roots(evaluate, grid, values, coeffs, eps):
    """Roots in [0, 1] of K non-decreasing functions y_k = coeffs[k] . (v, 1)
    of the values v that ``evaluate`` returns per point, all advanced in
    one batched ``evaluate`` call per step.

    ``values`` holds v at the uniform ``grid``, which brackets each root;
    a root is clamped to 0 (1) when y_k >= 0 (< 0) on the whole grid.
    Each bracket [lo, hi] with y(lo) < 0 <= y(hi) is then shrunk by ITP
    (Oliveira & Takahashi, ACM TOMS 47(1), 2020): a truncated regula-falsi
    step, projected into a shrinking ball around the midpoint, so the
    bracket converges superlinearly on smooth arms but never takes more
    steps than bisection plus one.  Returns the final (lo, hi) per root,
    both evaluated, hi - lo <= 2 * eps.
    """
    y = values @ coeffs[:, :-1].T + coeffs[:, -1]       # (grid point, root)
    above = y >= 0.0
    first = np.where(above.any(axis=0), above.argmax(axis=0), len(grid))
    inner = np.clip(first, 1, len(grid) - 1)
    k = np.arange(len(coeffs))
    lo = np.where(first == len(grid), 1.0, grid[inner - 1])
    hi = np.where(first == 0, 0.0, grid[inner])
    y_lo, y_hi = y[inner - 1, k], y[inner, k]
    width = grid[1] - grid[0]
    # a light truncation (kappa1 = 0.01/width, not the paper's 0.2/width)
    # wastes fewer early steps: the arms are smooth, so regula falsi
    # lands close to the root from the first step
    kappa1, kappa2, n0 = 0.01 / width, 2.0, 1
    n_max = math.ceil(math.log2(width / (2.0 * eps))) + n0
    for j in range(n_max):
        active = np.flatnonzero(hi - lo > 2.0 * eps)
        if active.size == 0:
            break
        a, b, ya, yb = lo[active], hi[active], y_lo[active], y_hi[active]
        middle = 0.5 * (a + b)
        falsi = (yb * a - ya * b) / (yb - ya)
        sigma = np.sign(middle - falsi)
        # floored at eps, so the step still crosses a root that regula
        # falsi has already pinned closer than float spacing resolves
        delta = np.maximum(kappa1 * (b - a) ** kappa2, eps)
        step = np.where(delta <= np.abs(middle - falsi), falsi + sigma * delta, middle)
        radius = eps * 2.0 ** (n_max - j) - 0.5 * (b - a)
        x = np.where(np.abs(step - middle) <= radius, step, middle - sigma * radius)
        y_x = (evaluate(x) * coeffs[active, :-1]).sum(axis=1) + coeffs[active, -1]
        right = y_x >= 0.0
        hi[active[right]], y_hi[active[right]] = x[right], y_x[right]
        lo[active[~right]], y_lo[active[~right]] = x[~right], y_x[~right]
    return lo, hi


def flip_probabilities(relaxation_constant, asymmetry):
    """Per-pulse flip probabilities (a, b) = (s/R, (1-s)/R) at flip
    asymmetry s = a/(a+b) and relaxation constant R = 1/(a+b) pulses;
    s may be an array."""
    return asymmetry / relaxation_constant, (1.0 - asymmetry) / relaxation_constant


def calibrate_flip_asymmetry(params: ReadoutParams, relaxation_constant: float,
                             target_f: float, threshold: int) -> FlipCalibration:
    """Invert the DP model for the flip asymmetry at fixed relaxation.

    The DP runs at ``params``' pulse count, detection probability and
    dark-count mean; its flip_bright and flip_dark are ignored, since
    the search sets them.  With a = s/R and b = (1-s)/R
    (:func:`flip_probabilities`, R = relaxation_constant, so a + b is
    pinned to 1/R), the bright arm F_bright falls with s and the dark
    arm F_dark rises, so their minimum peaks where F_dark - F_bright
    changes sign (or at an endpoint when it does not).  One batched DP
    pass over nine s-points, 0 and 1 included, brackets that peak and
    the target: a root of F_dark - target on the rising branch
    (s <= peak), or, only if the target is below the s = 0 fidelity, of
    F_bright - target on the falling branch.  The rising-branch solution
    thus wins: it has the smaller s, i.e. the smaller bright-state flip
    probability a.  Both roots are refined together by ITP, one batched
    DP pass per step, to a bracket of 2e-12 in s.  The search reads F_dark
    and 1 - F_bright as P(count < threshold), so its passes keep only the
    counts below max(threshold, dark pmf length), exact as
    :func:`optimize_readout` says.  One full-support pass at s = 0, s = 1
    and each bracket's ends gives the reported fidelities; the result
    must reach the target within CALIBRATION_TOL.
    """
    for name, value in (("relaxation_constant", relaxation_constant), ("target_f", target_f)):
        check_range(name, value, *CALIBRATION_RANGES[name])
    threshold = check_count("threshold", threshold)
    n, noise = params.n_pulses, _poisson_pmf(params.dark_count_mean)
    cap = min(n + 1, max(threshold, len(noise)))

    def evaluate(s):                # one batched, capped DP for all s
        for probs in _chain(*flip_probabilities(relaxation_constant, s),
                            params.detection_probability, _STATES, n, cap):
            pass
        below = _count_pmfs(probs, cap, noise, threshold).sum(axis=1)
        return np.column_stack((1.0 - below[0::2], below[1::2]))

    grid = np.linspace(0.0, 1.0, 9)
    values = evaluate(grid)
    rising = target_f >= values[0].min()
    # each root is of a non-decreasing c_bright*F_bright + c_dark*F_dark + c
    roots = [(-1.0, 1.0, 0.0)]                  # peak: F_dark - F_bright
    if rising:
        roots.append((0.0, 1.0, -target_f))
    elif target_f >= values[-1].min():          # falling branch
        roots.append((-1.0, 0.0, target_f))
    lo, hi = _increasing_roots(evaluate, grid, values, np.array(roots), 1e-12)
    ends = np.concatenate(([0.0, 1.0], lo, hi))     # one full-support pass
    f_mins = {x: report.f_min for x, report in zip(ends.tolist(), fidelity_reports(
        params, *flip_probabilities(relaxation_constant, ends), threshold=threshold))}
    f_left, f_right = f_mins[0.0], f_mins[1.0]
    s_peak = float(max(lo[0], hi[0], key=f_mins.get))
    f_max = f_mins[s_peak]
    attainable = (min(f_left, f_right), f_max)
    if target_f > f_max + CALIBRATION_TOL:
        raise CalibrationError(
            f"target fidelity {target_f:.6g} unreachable; attainable range "
            f"[{attainable[0]:.6g}, {f_max:.6g}] at "
            f"relaxation_constant={relaxation_constant:g}",
            attainable=attainable)
    if len(roots) == 1:
        raise CalibrationError(
            f"target fidelity {target_f:.6g} below both endpoints "
            f"({f_left:.6g}, {f_right:.6g})",
            attainable=attainable)

    s = float(min(lo[1], hi[1], key=lambda x: abs(f_mins[x] - target_f)))
    s = min(s, s_peak) if rising else max(s, s_peak)
    f_s = f_mins[s]
    if abs(f_s - target_f) > CALIBRATION_TOL:
        raise CalibrationError(
            f"root search stalled at fidelity {f_s:.6g} for target {target_f:.6g}",
            attainable=attainable)
    return FlipCalibration(*flip_probabilities(relaxation_constant, s),
                           asymmetry=s, achieved_f=f_s, f_max=f_max)


def dark_count_penalty(params: ReadoutParams, threshold: int = 1) -> float:
    """Dark-state fidelity lost to detector dark counts at this threshold."""
    threshold = check_count("threshold", threshold)
    for probs in _chain([params.flip_bright], [params.flip_dark], params.detection_probability,
                        ("dark",), params.n_pulses):
        pass
    without, with_dark = (float(_count_pmfs(probs, params.n_pulses + 1, dark, threshold).sum())
                          for dark in _poisson_pmfs([0.0, params.dark_count_mean]))
    return without - with_dark


def format_fidelity_report(report: FidelityReport) -> str:
    lines = [
        f"pulses: {report.n_pulses}   threshold: {report.threshold}",
        f"F_bright: {report.f_bright:.12g}",
        f"F_dark:   {report.f_dark:.12g}",
        f"F_min:    {report.f_min:.12g}",
    ]
    if report.f_bright_se is not None:
        lines.insert(2, f"F_bright_se: {report.f_bright_se:.3g}   "
                        f"F_dark_se: {report.f_dark_se:.3g}")
    if report.readout_duration is not None:
        lines.append(f"duration: {report.readout_duration:.12g} ms")
    if report.cyclicity is not None:
        zeta = f"{report.cyclicity:.6g}"
        lines.append(f"cyclicity: bright {zeta}, dark {zeta}, mean {zeta}")
    return "\n".join(lines) + "\n"
