"""Stochastic shot-by-shot simulation of the readout and spin protocols.

The readout engine and the timeline executor each vectorize their own
kernel over a block of shots and run the blocks through one runner,
:func:`_run_blocks`, whose docstring states how blocks, Philox streams
and worker threads (SPINSHOT_THREADS) keep every result bitwise
reproducible.  The readout engine jumps each shot from one spin flip to
the next by geometric holds, so a shot costs work per flip, not per
pulse; it draws one binomial detection total and one Poisson dark-count
total per shot and keeps counts only.  The timeline executor
is the one source of photon records: it draws each emission's real time
and assigns it to the gate that sees it.  It plans once per row of the
timeline's per-statement table and once over its events, and walks a
shot longer than its block budget in segments of at most
TIMELINE_BLOCK_CELLS cells (optical pulses plus gates), slices of that
plan that carry only each shot's spin state from one to the next, so it
holds one segment, 16 bytes per gate and 4 per optical pulse, gate and
MW pulse however long the program is.

Bloch vectors are (3, ...) component arrays (x, y, z), which
:func:`_rotate` broadcasts against scalar or per-shot drive parameters;
echo runs its two first-pulse phases as the two rows of one pass.

Unit conventions: optical lifetimes and gate/pulse times in us, MW
Rabi/detuning frequencies in kHz, spectroscopy offsets in MHz, spin
lifetime in s.
"""
from __future__ import annotations

import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .estimators import PhotonRecords, gaussian_fwhm_to_sigma, write_csv
from .physics import (MAX_SPIN_FREQUENCY_MHZ, EmitterConfig, InvalidConfigError,
                      check_count, check_fields, check_range, lorentzian_suppression, ranged)
from .readout import (CapacityError, CountDistribution, ReadoutParams, check_state,
                      cyclicity, fidelity_reports)
from .sequence import _TRANSITION_LABELS, DETECT, MAX_EVENTS, MW, OPTICAL, Timeline

_LABEL = {name: code for code, name in enumerate(_TRANSITION_LABELS)}

__all__ = [
    "BLOCK_SHOTS",
    "TIMELINE_BLOCK_CELLS",
    "MAX_THREADS",
    "MW_DEFAULTS",
    "MW_RANGES",
    "BathParams",
    "ReadoutSimResult",
    "ProtocolCurve",
    "AreaScanResult",
    "TimelineRun",
    "worker_count",
    "simulate_readout_shots",
    "run_protocol",
    "pulse_area_scan",
    "run_timeline",
]

BLOCK_SHOTS = 65536
_MASK64 = (1 << 64) - 1
PROTOCOLS = ("t1", "odmr", "rabi", "echo")
# the MW drive when none is given, as run_protocol's keywords: a 2.3 us pi
# pulse on the central line, a detuning spread that sets the Rabi decay
# envelope, and no drive jitter
MW_DEFAULTS = {"mw_rabi_khz": 217.4, "detuning_sigma_khz": 20.0, "drive_jitter": 0.0}
# and the interval of each, as check_range's (low, high, open_low, open_high)
MW_RANGES = {"mw_rabi_khz": (0.0, 1e3 * MAX_SPIN_FREQUENCY_MHZ, True, False),
             "detuning_sigma_khz": (0.0, 1e3 * MAX_SPIN_FREQUENCY_MHZ, False, False),
             "drive_jitter": (0.0, 1.0, False, False)}


# Rated maximum of SPINSHOT_THREADS.  Each worker holds one block in flight:
# a readout block of BLOCK_SHOTS shots peaks at about 4.5 MB (tracemalloc,
# paper.cfg at N = 3000) and a timeline block at about 1.6 MB, so 64 workers
# hold at most 0.3 GB, the peak of protocols at its rated shot count.
MAX_THREADS = 64


def worker_count() -> int:
    """Worker cap from SPINSHOT_THREADS, an integer in 0..MAX_THREADS; 0 or
    unset is auto, the CPU count up to MAX_THREADS.  Any other value is an
    InvalidConfigError that names the variable."""
    raw = os.environ.get("SPINSHOT_THREADS", "0")
    try:
        raw = int(raw)
    except ValueError:
        pass                                # check_count names the string
    return (check_count("SPINSHOT_THREADS", raw, 0, MAX_THREADS)
            or min(os.cpu_count() or 1, MAX_THREADS))


def _stream(seed: int, *key: int) -> np.random.Generator:
    entropy = (int(seed) & _MASK64,) + tuple(int(k) & _MASK64 for k in key)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _run_blocks(run_block, shots: int, block: int, seed: int, key: tuple = ()):
    """Simulate ``shots`` shots, a count >= 1, in blocks of ``block`` (the
    last may be short) and join the blocks.

    ``run_block(n, rng)`` simulates n shots and returns (per-shot totals,
    a tuple of arrays to sum over blocks, record columns or None); record
    columns start with the shot id inside the block and are sorted by
    (shot, time).  Block i draws only from the Philox stream keyed by
    (seed, *key, i).  Blocks run on up to worker_count() threads, with no
    pool for one, and are reduced in index order as they arrive, so
    nothing of size shots x cells is kept and no result depends on the
    thread count.  Block i's shot ids are offset by i * block.  Returns
    (totals, sums, columns or None).
    """
    shots = check_count("shots", shots)
    sizes = [min(block, shots - s) for s in range(0, shots, block)]
    workers = min(worker_count(), len(sizes))
    pool = None
    if workers > 1:
        # imported here: every command that runs one worker skips the import
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(workers)
    with pool or nullcontext():
        results = (pool.map if pool else map)(
            lambda i: run_block(sizes[i], _stream(seed, *key, i)), range(len(sizes)))
        totals, parts, sums = [], [], None
        for i, (block_totals, block_sums, columns) in enumerate(results):
            totals.append(block_totals)
            sums = block_sums if sums is None else tuple(map(np.add, sums, block_sums))
            if columns is not None:
                parts.append((columns[0] + i * block,) + tuple(columns[1:]))
    columns = tuple(map(np.concatenate, zip(*parts))) if parts else None
    return np.concatenate(totals), sums, columns


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BathParams:
    """Spin environment: superhyperfine ODMR mixture and T1/T2.

    The three-peak splitting and weights are assumptions (the split is
    visible but unquantified in the device data); the linewidth, T1 and
    T2 defaults are the nominal device values.  Centers lie within
    +-MAX_SPIN_FREQUENCY_MHZ; the weights, one per center, are >= 0 and sum to 1.
    """
    odmr_centers: tuple = ranged(-MAX_SPIN_FREQUENCY_MHZ, MAX_SPIN_FREQUENCY_MHZ,
                                 open_high=False, default=(-3.3, 0.0, 3.3))   # MHz
    odmr_weights: tuple = ranged(0.0, default=(0.25, 0.5, 0.25))
    odmr_sigma: float = ranged(0.0, default=gaussian_fwhm_to_sigma(2.37))  # MHz, 1 SD
    t1_spin: float = ranged(0.0, open_low=True, default=0.44)    # s
    t2_echo: float = ranged(0.0, open_low=True, default=48.0)    # us
    echo_exponent: float = ranged(0.0, open_low=True, default=2.0)

    def __post_init__(self):
        check_fields(self)
        n, total = len(self.odmr_centers), sum(map(float, self.odmr_weights))  # inf: no warning
        if len(self.odmr_weights) != n or not abs(total - 1.0) <= 1e-9:
            raise InvalidConfigError(f"odmr_weights must be {n} weights summing to 1, got "
                                     f"{len(self.odmr_weights)} summing to {total:g}")


def _sample_mixture(rng, bath: BathParams, size: int) -> np.ndarray:
    components = rng.choice(len(bath.odmr_weights), size=size,
                            p=np.asarray(bath.odmr_weights, dtype=float))
    centers = np.asarray(bath.odmr_centers, dtype=float)[components]
    if bath.odmr_sigma == 0.0:
        return centers
    return centers + rng.normal(0.0, bath.odmr_sigma, size)


# ---------------------------------------------------------------------------
# pulsed-readout engine
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ReadoutSimResult:
    """A readout run's count histogram, per-shot counts and spin transition counts."""
    histogram: CountDistribution
    per_shot_counts: np.ndarray
    transitions: np.ndarray    # (from, to) cell counts over (bright, dark)


def _readout_block(params: ReadoutParams, initial: str, n_block: int, rng,
                   counts: bool = True):
    """(per-shot counts, (transition counts,), None) of one block of shots,
    for :func:`_run_blocks`, at O(flips) per shot.  The transition counts
    are the (from, to) numbers of (shot, pulse) cells over (bright, dark).
    With ``counts`` false the block draws no counts, and its per-shot
    counts are empty; the count draws come after every hold draw, so the
    transitions do not change.

    Each round holds every active shot in one state, bright and dark in
    turn: all shots start in ``initial``, and a shot stays active only by
    flipping.  A shot's hold is geometric, floor(E / -ln(1-p)) pulses
    before its flip for a standard exponential E, with p = a when bright
    and b when dark; a shot whose flip falls at or past pulse N leaves,
    its remaining pulses held in its state.  Given no flip in a pulse, a
    bright spin is detected with probability (1-a) d / (1-a) = d, and a
    detection leaves the state as it is, so a shot's emitter detections
    are one binomial draw over its bright pulses without a flip.  Its dark
    counts, a sum of N independent Poisson gate counts, are one Poisson
    draw with the total mean.
    """
    n = params.n_pulses
    a, b = params.flip_bright, params.flip_dark
    shot, at = np.arange(n_block), np.zeros(n_block, dtype=np.int64)
    quiet = np.zeros(n_block, dtype=np.int64)   # bright pulses without a flip
    flips = [0, 0]                              # out of (dark, bright)
    bright = initial == "bright"
    while shot.size:
        p = a if bright else b
        # hold: the pulses before each shot's flip, at most the n - at left
        if p == 0.0:                                       # never
            hold = n - at
        elif p == 1.0:                                     # at once
            hold = np.zeros_like(at)
        else:                                  # in place: fewer large temporaries
            hold = rng.standard_exponential(at.size)
            with np.errstate(over="ignore"):   # a hold past the float range passes pulse n
                hold /= -math.log1p(-p)
            hold = np.minimum(hold, n - at, out=hold).astype(np.int64)
        end = hold + at                        # the pulse after the flip; n + 1 if none
        end += 1
        if bright:
            quiet[shot] += hold                # a shot holds once per round
        flips[bright] += np.count_nonzero(end <= n)
        stay = np.flatnonzero(end < n)         # faster than a boolean mask here
        shot, at = shot[stay], end[stay]
        bright = not bright
    (flips_dark, flips_bright), stay_bright = flips, quiet.sum()
    transitions = np.array([[stay_bright, flips_bright],
                            [flips_dark, n_block * n - stay_bright - sum(flips)]])
    if not counts:
        return quiet[:0], (transitions,), None
    detected = rng.binomial(quiet, params.detection_probability)
    n_dark = rng.poisson(params.dark_count_mean, n_block)   # mean 0 draws nothing
    return detected + n_dark, (transitions,), None


def simulate_readout_shots(params: ReadoutParams, initial: str = "bright",
                           shots: int = 1, seed: int = 0, _key: tuple = (),
                           _counts: bool = True) -> ReadoutSimResult:
    """Shot-by-shot sampling of the pulsed-readout outcome model.

    Counts follow exactly the per-pulse chain of
    :func:`spinshot.readout.count_distribution`, sampled from one flip to
    the next, so a shot costs work per flip, not per pulse
    (:func:`_readout_block`).  Each shot's dark counts are one Poisson draw
    with mean ``params.dark_count_mean``.  Shots run through
    :func:`_run_blocks` in blocks of BLOCK_SHOTS keyed by (seed, *_key).
    With ``_counts`` false only the transitions are drawn, the same as
    with counts, and the histogram and per-shot counts are None.
    Photon records, with their timestamps, come from :func:`run_timeline`.
    """
    check_state("initial", initial)
    counts, (transitions,), _ = _run_blocks(
        lambda n_block, rng: _readout_block(params, initial, n_block, rng, _counts),
        shots, BLOCK_SHOTS, seed, _key)
    if not _counts:
        return ReadoutSimResult(None, None, transitions)
    return ReadoutSimResult(
        histogram=CountDistribution(np.bincount(counts) / shots, initial,
                                    params.n_pulses),
        per_shot_counts=counts,
        transitions=transitions,
    )


# ---------------------------------------------------------------------------
# Bloch rotations
# ---------------------------------------------------------------------------

def _rotate(spin, rabi_khz, detuning_khz, duration_us, phase_rad=0.0):
    """Rodrigues rotation of Bloch vectors ``spin = (x, y, z)``, shape
    (3, ...), about the driven-frame axis (O cos phi, O sin phi, Delta)/O_eff
    by angle 2*pi*O_eff*t; the components broadcast against every
    parameter, and the result has their joint shape after the 3."""
    x, y, z = spin
    eff = np.hypot(rabi_khz, detuning_khz)
    moving = eff > 0.0
    safe = np.where(moving, eff, 1.0)
    ax = rabi_khz * np.cos(phase_rad) / safe
    ay = rabi_khz * np.sin(phase_rad) / safe
    az = detuning_khz / safe
    angle = 2.0 * np.pi * eff * duration_us * 1e-3
    c, s = np.cos(angle), np.sin(angle)
    dot, k = ax * x + ay * y + az * z, 1.0 - c
    return np.array([
        np.where(moving, x * c + (ay * z - az * y) * s + ax * dot * k, x),
        np.where(moving, y * c + (az * x - ax * z) * s + ay * dot * k, y),
        np.where(moving, z * c + (ax * y - ay * x) * s + az * dot * k, z)])


# ---------------------------------------------------------------------------
# protocol curves
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ProtocolCurve:
    """A protocol's signal at each sweep point: mean and standard error over the shots."""
    protocol: str
    x: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    shots: int

    def to_csv(self, path):
        write_csv(path, "x,mean,stderr,shots", self.x, self.mean, self.stderr,
                  [self.shots] * len(self.x))


_UP = (0.0, 0.0, 1.0)   # the spin before any MW pulse


def _bernoulli_stats(rng, p, shots):
    hits = rng.random(shots) < p
    m = float(hits.mean())
    return m, math.sqrt(max(m * (1.0 - m), 0.0) / shots)


def run_protocol(protocol: str, sweep, bath: BathParams, shots: int = 1000,
                 seed: int = 0, mw_rabi_khz: float = MW_DEFAULTS["mw_rabi_khz"],
                 detuning_sigma_khz: float = MW_DEFAULTS["detuning_sigma_khz"],
                 drive_jitter: float = MW_DEFAULTS["drive_jitter"]) -> ProtocolCurve:
    """Simulate one spin-characterization protocol over a sweep grid.

    t1: wait times in s, signal = P(still bright) after relaxation of z
    toward 0 with t1_spin.  odmr: MW offsets in MHz, signal = flip
    probability of a pi pulse, per-shot spin offset drawn from the
    three-Gaussian mixture.  rabi: durations in us; the decay envelope
    comes from a per-shot detuning spread (detuning_sigma_khz) and,
    optionally, fractional drive-amplitude jitter — both knobs exist
    because the data does not pin down the mechanism.  echo: total
    sequence lengths in us; pi/2 - pi - pi/2 with the two opposite
    first-pulse phases (two rows of one pass) subtracted and transverse
    components damped by exp(-(t/t2_echo)^echo_exponent).
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; choose from {PROTOCOLS}")
    shots = check_count("shots", shots)
    for name, value in zip(MW_RANGES, (mw_rabi_khz, detuning_sigma_khz, drive_jitter)):
        check_range(name, value, *MW_RANGES[name])
    x = np.asarray(sweep, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("sweep grid must be a non-empty 1-d array")
    mean = np.empty_like(x)
    stderr = np.empty_like(x)
    pi_time = 500.0 / mw_rabi_khz           # us

    for i, value in enumerate(x):
        rng = _stream(seed, i)
        if protocol == "t1":
            with np.errstate(over="ignore"):   # a ratio past the float range relaxes fully
                z = math.exp(-value / bath.t1_spin)
            mean[i], stderr[i] = _bernoulli_stats(rng, 0.5 * (1.0 + z), shots)
        elif protocol == "odmr":
            offsets = _sample_mixture(rng, bath, shots)
            detuning = (value - offsets) * 1e3
            z = _rotate(_UP, mw_rabi_khz, detuning, pi_time)[2]
            mean[i], stderr[i] = _bernoulli_stats(rng, 0.5 * (1.0 - z), shots)
        elif protocol == "rabi":
            detuning = rng.normal(0.0, detuning_sigma_khz, shots)
            omega = mw_rabi_khz
            if drive_jitter > 0.0:
                omega = np.clip(omega * (1.0 + drive_jitter *
                                         rng.normal(0.0, 1.0, shots)), 0.0, None)
            z = _rotate(_UP, omega, detuning, value)[2]
            mean[i], stderr[i] = _bernoulli_stats(rng, 0.5 * (1.0 - z), shots)
        else:  # echo
            offsets_khz = _sample_mixture(rng, bath, shots) * 1e3
            with np.errstate(over="ignore"):   # a power past the float range damps to 0
                damping = math.exp(-((value / bath.t2_echo) ** bath.echo_exponent))
            phase = np.array([[math.pi], [0.0]])   # first pi/2 about -x, then +x
            spin = _rotate(_UP, mw_rabi_khz, 0.0, 0.5 * pi_time, phase)
            spin = _free_precession(spin, offsets_khz, 0.5 * value)
            spin = _rotate(spin, mw_rabi_khz, 0.0, pi_time)
            sx, sy, sz = _free_precession(spin, offsets_khz, 0.5 * value)
            z = _rotate((sx * damping, sy * damping, sz), mw_rabi_khz, 0.0,
                        0.5 * pi_time)[2]
            m = (rng.random((2, shots)) < 0.5 * (1.0 - z)).mean(axis=1)
            var = m * (1.0 - m) / shots
            mean[i] = m[0] - m[1]
            stderr[i] = math.sqrt(var[0] + var[1])
    return ProtocolCurve(protocol=protocol, x=x, mean=mean, stderr=stderr,
                         shots=shots)


def _free_precession(spin, detuning_khz, duration_us):
    """``spin = (x, y, z)`` turned about z by 2*pi*Delta*t, as a tuple of
    components; z passes through as it is."""
    x, y, z = spin
    angle = 2.0 * np.pi * detuning_khz * duration_us * 1e-3
    c, s = np.cos(angle), np.sin(angle)
    return x * c - y * s, x * s + y * c, z


# ---------------------------------------------------------------------------
# pulse-area sweep
# ---------------------------------------------------------------------------

def excitation_probability(area_pi: float) -> float:
    """Excitation probability vs pulse area, anchored at 1 for a pi pulse."""
    return math.sin(area_pi * math.pi / 2.0) ** 2


@dataclass(eq=False)
class AreaScanResult:
    """Per pulse area: excitation probability, N0 and its SE, cyclicity, best fidelity."""
    area: np.ndarray
    p_excite: np.ndarray
    n0: np.ndarray
    n0_se: np.ndarray
    zeta: np.ndarray
    f_min: np.ndarray
    threshold: np.ndarray

    def to_csv(self, path):
        write_csv(path, "area,p_excite,n0,cyclicity,threshold,f_min",
                  self.area, self.p_excite, self.n0, self.zeta,
                  self.threshold, self.f_min)


def _decay_pulses(transitions):
    """(N0, its standard error) from (from, to) transition counts over
    (bright, dark).

    a = flips/exposures of the bright state and b of the dark state are
    the maximum-likelihood transition probabilities of a two-state
    Markov chain (Anderson & Goodman, Ann. Math. Stat. 28, 89, 1957);
    N0 = -1/ln(1 - a - b), with a delta-method error from the binomial
    variances of a and b.  Both are NaN when a state was never occupied
    or a + b is outside (0, 1).
    """
    exposed = transitions.sum(axis=1)
    if not exposed.all():
        return math.nan, math.nan
    a, b = transitions[0, 1] / exposed[0], transitions[1, 0] / exposed[1]
    if not 0.0 < a + b < 1.0:
        return math.nan, math.nan
    n0 = -1.0 / math.log1p(-(a + b))
    variance = a * (1.0 - a) / exposed[0] + b * (1.0 - b) / exposed[1]
    return n0, n0 * n0 / (1.0 - a - b) * math.sqrt(variance)


def pulse_area_scan(areas, params: ReadoutParams, flip_slope: float = 0.0,
                    shots: int = 20000, seed: int = 0) -> AreaScanResult:
    """Cyclicity and fidelity vs excitation pulse area.

    For each area: excitation probability sin^2(area*pi/2), per-pulse
    flip probabilities a(area) = min(a + flip_slope*area, 1) and
    b = params.flip_dark, a Monte Carlo run whose transition counts
    give N0 in closed form (see :func:`_decay_pulses`), cyclicity p*N0
    (NaN when p = 0 or N0 is), and the exact best-threshold fidelity at
    the same pulse count, from one DP pass over all points whose rows
    keep the bits of a pass per point.
    """
    areas = np.asarray(areas, dtype=float)
    points = [replace(params, p_excite=excitation_probability(area), flip_bright=float(
        min(params.flip_bright + flip_slope * area, 1.0))) for area in areas]
    n0, n0_se = np.array([_decay_pulses(simulate_readout_shots(
        point, "bright", shots, seed, _key=(i,), _counts=False).transitions)
        for i, point in enumerate(points)]).reshape(-1, 2).T
    reports = fidelity_reports(params, [point.flip_bright for point in points],
                               [params.flip_dark] * len(points),
                               d=[point.detection_probability for point in points])
    p = np.array([point.p_excite for point in points])
    return AreaScanResult(
        area=areas, p_excite=p, n0=n0, n0_se=n0_se,
        zeta=np.array([cyclicity(p_i, n0_i) if p_i > 0 and math.isfinite(n0_i) else math.nan
                       for p_i, n0_i in zip(p.tolist(), n0.tolist())]),
        f_min=np.array([report.f_min for report in reports]),
        threshold=np.array([report.threshold for report in reports], dtype=int),
    )


# ---------------------------------------------------------------------------
# compiled-timeline executor
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class TimelineRun:
    """A compiled program's count histogram, photon records and gates per shot."""
    histogram: CountDistribution
    records: PhotonRecords
    gate_count: int


# Executor budget in cells (optical pulses plus gates, times shots).  A
# block runs TIMELINE_BLOCK_CELLS // (cells per shot) shots, at least one,
# and walks the timeline in segments of at most TIMELINE_BLOCK_CELLS //
# (block shots) cells per shot, so a shot that fits is one segment and a
# longer one runs alone, segment by segment.  A block holds about 100
# bytes per cell of its segment, more where MW pulses precede an optical
# pulse, whatever the length of the program.
TIMELINE_BLOCK_CELLS = 1 << 14


def _spin_chain(codes, state):
    """Row k: each shot's state (1 = bright) after k optical pulses, from
    ``state``.  codes[k] is pulse k's map, f(dark) + 2 f(bright): 0 and 3
    set the state, 1 negates it and 2 keeps it, so the state is the value
    last set, flipped once per negation since (a segmented scan: Blelloch,
    "Prefix sums and their applications", CMU-CS-90-190, 1990)."""
    codes = np.vstack((3 * state, codes))
    n, m = codes.shape
    # flat index of the last setting map at or before each row
    last = np.where((codes == 0) | (codes == 3), np.arange(0, n * m, m)[:, None], 0)
    np.maximum.accumulate(last, axis=0, out=last)
    last += np.arange(m)
    odd = np.bitwise_xor.accumulate(codes == 1, axis=0)   # parity of negations
    return ((codes ^ odd).ravel()[last] ^ odd) & 1


@dataclass(frozen=True, eq=False)
class _TimelinePlan:
    """Shot-independent arrays of a timeline for the block executor: per
    statement row (read at the rows of their kind), the int32 event
    positions of its optical pulses, gates and MW pulses, per gate, and
    the segment bounds.  Segment i holds opt[opt_bounds[i]:opt_bounds[i +
    1]], the same slices of gate and mw by gate_bounds and mw_bounds, and
    so the MW pulses before its optical pulses."""
    timeline: Timeline
    keep_below: np.ndarray     # bright stays bright if r >= keep_below
    gain_below: np.ndarray     # dark turns bright if r < gain_below
    emit_below: np.ndarray     # a bright, unflipped spin emits if r < emit_below
    mw_rad: np.ndarray         # MW phase in radians
    gate_mu: np.ndarray        # dark-count mean of a gate
    opt: np.ndarray            # event of each optical pulse
    gate: np.ndarray           # event of each gate
    mw: np.ndarray             # event of each MW pulse
    gate_start: np.ndarray     # per gate of the timeline
    gate_end: np.ndarray
    opt_bounds: list
    gate_bounds: list
    mw_bounds: list
    block_shots: int


def _plan_timeline(tl, params: ReadoutParams, fwhm_mhz: float) -> _TimelinePlan:
    table = tl.table
    label = table.label
    # sin^2 has period 2 in the area, and fmod is exact: an area in (-2, 2)
    # keeps its bits, and a huge one cannot overflow the scaling
    p_area = np.sin(np.fmod(table.area_pi, 2.0) * np.pi / 2.0) ** 2
    offset = np.nan_to_num(table.offset_mhz)          # labelled pulses: 0
    readout = (label == _LABEL["A"]) | (label == -1)  # -1: a literal offset
    if fwhm_mhz > 0.0:
        with np.errstate(over="ignore"):   # a detuning past the float range: weight 0
            weight = lorentzian_suppression(offset, fwhm_mhz)
    else:                                            # no line: detuned pulses miss
        weight = (offset == 0.0).astype(float)
    pump_dark, pump_bright = label == _LABEL["C"], label == _LABEL["D"]
    keep = np.select([readout, pump_dark], [params.flip_bright, p_area], 0.0)
    gain = np.select([readout, pump_bright], [params.flip_dark, p_area], 0.0)
    emit = np.where(readout, params.p_excite * p_area * weight, 0.0)
    with np.errstate(over="ignore"):   # a mean past the float range fails below
        gate_mu = params.dark_rate * table.duration_us * 1e-6

    # the event kinds are gathered once and dropped, and every temporary is
    # freed before the gate times are made, so planning peaks below a segment
    kind = table.kind[tl.row]
    opt, gate, mw = (np.flatnonzero(kind == k).astype(np.int32)
                     for k in (OPTICAL, DETECT, MW))
    del kind
    # segment i holds cells (optical pulses and gates) [i budget,
    # (i + 1) budget) of the shot, and begins at the event of cell i budget
    block_shots = max(1, TIMELINE_BLOCK_CELLS // max(len(opt) + len(gate), 1))
    budget = TIMELINE_BLOCK_CELLS // block_shots
    first = np.sort(np.concatenate((opt, gate)))[budget::budget].copy()
    opt_bounds = [0, *np.searchsorted(opt, first).tolist(), len(opt)]
    with np.errstate(over="ignore"):
        dark_mean = float(gate_mu[tl.row[gate]].sum())
    if dark_mean > MAX_EVENTS:
        raise CapacityError(
            f"the dark-count mean {dark_mean:g} per shot over {len(gate)} "
            f"detection gates at a dark rate of {params.dark_rate:g} Hz exceeds "
            f"the {MAX_EVENTS} records one shot is rated to hold")
    gate_start, gate_end = tl.start_us[gate], table.duration_us[tl.row[gate]]
    gate_end += gate_start
    return _TimelinePlan(
        timeline=tl, keep_below=keep, gain_below=gain, emit_below=emit,
        mw_rad=np.radians(table.phase_deg), gate_mu=gate_mu,
        opt=opt, gate=gate, mw=mw, gate_start=gate_start, gate_end=gate_end,
        opt_bounds=opt_bounds,
        gate_bounds=[0, *np.searchsorted(gate, first).tolist(), len(gate)],
        # an MW pulse acts before the next optical pulse; after the last one,
        # on nothing
        mw_bounds=np.searchsorted(np.searchsorted(opt, mw), opt_bounds).tolist(),
        block_shots=block_shots)


def _timeline_segment(plan: _TimelinePlan, params: ReadoutParams, offsets,
                      lifetime_us, mw_rabi_khz, rng, state, i):
    """(each shot's state after the segment, per-shot totals, records
    columns) of segment i of a block's shots, from each shot's ``state``
    (1 = bright) before it."""
    tl, table = plan.timeline, plan.timeline.table
    n_block, n_gates = len(offsets), len(plan.gate_start)
    (o0, o1), (g0, g1), (m0, m1) = (bounds[i:i + 2] for bounds in (
        plan.opt_bounds, plan.gate_bounds, plan.mw_bounds))
    opt, gate, mw = plan.opt[o0:o1], plan.gate[g0:g1], plan.mw[m0:m1]
    opt_row, n_opt = tl.row[opt], len(opt)

    # MW pulses act on the spin before the next optical pulse; a run is
    # the MW pulses between two optical pulses.  z of the spin before each
    # optical pulse is rotated from +z through the preceding run; from -z
    # it is the negative (rotations are linear)
    run_of = np.searchsorted(opt, mw)
    z = np.ones((n_opt, n_block))
    if len(mw):
        runs, row_of = np.unique(run_of, return_inverse=True)
        position = np.arange(len(mw)) - np.searchsorted(run_of, run_of)
        mw_row = tl.row[mw]
        spin = np.zeros((3, len(runs), n_block))
        spin[2] = 1.0
        for j in range(int(position.max()) + 1):
            at = position == j
            rows, step = row_of[at], mw_row[at]
            with np.errstate(over="ignore", invalid="ignore"):   # NaN: checked below
                detuning = (table.frequency_mhz[step][:, None] - offsets) * 1e3
                turned = _rotate(spin[:, rows], mw_rabi_khz, detuning,
                                 table.duration_us[step][:, None],
                                 plan.mw_rad[step][:, None])
            bad = step[~np.isfinite(turned).all(axis=(0, 2))]
            if bad.size:
                raise ValueError(
                    f"the MW pulse at {table.frequency_mhz[bad[0]]:g} MHz for "
                    f"{table.duration_us[bad[0]]:g} us rotates the spin by an angle "
                    "past the float range")
            spin[:, rows] = turned
        z[runs] = spin[2]

    # optical pulses are projective; evaluate each pulse's map from both
    # prior states on the same draws, then chain the maps in one scan
    u_collapse = rng.random((n_opt, n_block))
    r_flip = rng.random((n_opt, n_block))
    r_emit = rng.random((n_opt, n_block))
    from_bright = u_collapse < 0.5 * (1.0 + z)
    from_dark = u_collapse < 0.5 * (1.0 - z)
    stay = r_flip >= plan.keep_below[opt_row][:, None]
    gain = r_flip < plan.gain_below[opt_row][:, None]
    codes = (np.where(from_dark, stay, gain).view(np.int8)
             + 2 * np.where(from_bright, stay, gain).view(np.int8))
    chain = _spin_chain(codes, state)
    emits = (np.where(chain[:-1] == 1, from_bright, from_dark) & stay
             & (r_emit < plan.emit_below[opt_row][:, None]))

    # an emission is seen by the first later gate that has not ended yet,
    # if that gate has already opened; it may lie in a later segment
    k, shot = np.divmod(np.flatnonzero(emits), n_block)
    t = (tl.start_us[opt] + table.duration_us[opt_row])[k] \
        - lifetime_us * np.log1p(-rng.random(k.size))
    first_gate = g0 + np.searchsorted(gate, opt)
    seen_by = np.maximum(np.searchsorted(plan.gate_end, t), first_gate[k])
    covered = seen_by < n_gates
    covered[covered] = t[covered] >= plan.gate_start[seen_by[covered]]
    seen = covered & (rng.random(k.size) < params.eta_detect)
    shot, seen_by, t = shot[seen], seen_by[seen], t[seen]
    n_dark = rng.poisson(plan.gate_mu[tl.row[gate]], (n_block, len(gate)))
    totals = np.bincount(shot, minlength=n_block) + n_dark.sum(axis=1)

    dark_shot, dark_gate = np.divmod(np.flatnonzero(n_dark), len(gate))
    reps = n_dark[dark_shot, dark_gate]
    dark_shot = np.repeat(dark_shot, reps)
    dark_gate = g0 + np.repeat(dark_gate, reps)
    dark_t = plan.gate_start[dark_gate] + rng.random(dark_gate.size) * (
        plan.gate_end[dark_gate] - plan.gate_start[dark_gate])
    records = [(shot, seen_by, t, np.zeros(shot.size, dtype=np.int8)),
               (dark_shot, dark_gate, dark_t, np.ones(dark_shot.size, dtype=np.int8))]
    return chain[-1], totals, records


def _timeline_block(plan: _TimelinePlan, params: ReadoutParams, bath,
                    lifetime_us, mw_rabi_khz, n_block, rng):
    """(per-shot totals, (), records columns) of one block, for
    :func:`_run_blocks`.

    The block runs the plan's segments in order.  Only each shot's spin
    state after a segment carries into the next: MW pulses belong to the
    segment of the optical pulse they precede, and emissions are looked
    up in every gate of the timeline.  A single segment draws exactly as
    a whole-shot block would."""
    offsets = (_sample_mixture(rng, bath, n_block) if bath is not None
               else np.zeros(n_block))
    state = np.ones(n_block, dtype=np.int8)   # every shot starts bright
    totals, records = np.zeros(n_block, dtype=np.int64), []
    for i in range(len(plan.opt_bounds) - 1):
        state, counts, columns = _timeline_segment(
            plan, params, offsets, lifetime_us, mw_rabi_khz, rng, state, i)
        totals += counts
        records += columns
    # record columns (shot, gate, time, origin code) sorted by (shot, time)
    shot, gate, t, code = map(np.concatenate, zip(*records))
    order = np.lexsort((t, shot))
    return totals, (), (shot[order], gate[order], t[order], code[order])


def run_timeline(timeline, params: ReadoutParams, bath: BathParams | None = None,
                 shots: int = 1000, seed: int = 0,
                 emission_lifetime_us: float = 0.803,
                 mw_rabi_khz: float = MW_DEFAULTS["mw_rabi_khz"],
                 spectral_diffusion_fwhm_mhz: float =
                 EmitterConfig.spectral_diffusion_fwhm_mhz) -> TimelineRun:
    """Execute a compiled sequence timeline for ``shots`` shots.

    Semantics per event: optical pulses on the readout transition (A,
    or a literal detuning weighted by the Lorentzian spectral-diffusion
    line) follow the per-pulse readout outcome model and leave a real
    emission time behind — the photon is only detected if a later gate
    covers it.  Pulses on C/D act as optical pumping between the ground
    states; pulses on B are emission on the off-resonant branch and are
    not detected.  Every optical pulse projects the spin.  MW pulse
    frequencies are offsets (MHz) from the nominal spin transition of
    the shot.  Dark counts are Poisson per gate with uniform timestamps.

    The default ``emission_lifetime_us``, 0.803 us, is within 0.1% of
    the cavity-enhanced lifetime at `paper.cfg`, 142/177 = 0.8023 us, and
    stays as it is, since every draw of a caller that takes it depends on
    it.  `simulate` passes the lifetime it computes from [emitter] and
    [cavity] (:func:`physics.effective_lifetime` on resonance).  The
    other two defaults are MW_DEFAULTS' and EmitterConfig's.

    Shots run through :func:`_run_blocks` in blocks of
    TIMELINE_BLOCK_CELLS // (optical pulses + gates) shots (at least
    one) keyed by the seed, each vectorized over (event, shot).  A block
    walks the timeline in segments of at most TIMELINE_BLOCK_CELLS //
    (block shots) cells, slices of one plan of the timeline; a shot that
    fits the budget is one segment.  An MW pulse runs in the segment of
    the optical pulse it precedes, each shot's spin state carries into
    the next segment, and emissions are looked up in every gate of the
    timeline, so the cut changes only which draws a longer shot takes.
    """
    check_range("mw_rabi_khz", mw_rabi_khz, *MW_RANGES["mw_rabi_khz"])
    plan = _plan_timeline(timeline, params, spectral_diffusion_fwhm_mhz)
    n_gates = len(plan.gate_start)
    totals, _, columns = _run_blocks(
        lambda n_block, rng: _timeline_block(plan, params, bath,
                                             emission_lifetime_us, mw_rabi_khz,
                                             n_block, rng),
        shots, plan.block_shots, seed)
    return TimelineRun(
        histogram=CountDistribution(np.bincount(totals) / shots, "bright",
                                    max(n_gates, 1)),
        records=PhotonRecords(*columns, shots, max(n_gates, 1)),
        gate_count=n_gates)
