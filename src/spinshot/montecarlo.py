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
timeline's per-statement table and walks a shot longer than its block
budget in segments of at most TIMELINE_BLOCK_CELLS cells (optical pulses
plus gates), carrying each shot's spin state from one segment to the
next, so it holds one segment and 16 bytes per gate however long the
program is.

Unit conventions: optical lifetimes and gate/pulse times in us, MW
Rabi/detuning frequencies in kHz, spectroscopy offsets in MHz, spin
lifetime in s.
"""
from __future__ import annotations

import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from .estimators import PhotonRecords, gaussian_fwhm_to_sigma, write_csv
from .physics import lorentzian_suppression
from .readout import (CountDistribution, ReadoutParams, _distributions, _scan,
                      cyclicity, readout_fidelity)
from .sequence import (_TRANSITION_LABELS, DETECT, KINDS, MAX_EVENTS, MW, OPTICAL,
                       Timeline)

_LABEL = {name: code for code, name in enumerate(_TRANSITION_LABELS)}

__all__ = [
    "BLOCK_SHOTS",
    "TIMELINE_BLOCK_CELLS",
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


def worker_count() -> int:
    """Worker cap from SPINSHOT_THREADS (0 or unset = auto)."""
    raw = os.environ.get("SPINSHOT_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"SPINSHOT_THREADS must be an integer, got {raw!r}")
    if n <= 0:
        return os.cpu_count() or 1
    return n


def _stream(seed: int, *key: int) -> np.random.Generator:
    entropy = (int(seed) & _MASK64,) + tuple(int(k) & _MASK64 for k in key)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _run_blocks(run_block, shots: int, block: int, seed: int, key: tuple = ()):
    """Simulate ``shots`` shots in blocks of ``block`` (the last may be
    short) and join the blocks.

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
    if shots < 1:
        raise ValueError("shots must be >= 1")
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

def _nominal_sigma():
    return gaussian_fwhm_to_sigma(2.37)


@dataclass(frozen=True)
class BathParams:
    """Spin environment: superhyperfine ODMR mixture and T1/T2.

    The three-peak splitting and weights are assumptions (the split is
    visible but unquantified in the device data); the linewidth, T1 and
    T2 defaults are the nominal device values.
    """
    odmr_centers: tuple = (-3.3, 0.0, 3.3)          # MHz
    odmr_weights: tuple = (0.25, 0.5, 0.25)
    odmr_sigma: float = field(default_factory=_nominal_sigma)  # MHz, 1 SD
    t1_spin: float = 0.44                            # s
    t2_echo: float = 48.0                            # us
    echo_exponent: float = 2.0

    def __post_init__(self):
        weights = np.asarray(self.odmr_weights, dtype=float)
        if len(self.odmr_centers) != len(self.odmr_weights):
            raise ValueError("odmr_centers and odmr_weights must match in length")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("odmr_weights must be >= 0 and sum to 1")
        if self.odmr_sigma < 0:
            raise ValueError("odmr_sigma must be >= 0")
        if self.t1_spin <= 0 or self.t2_echo <= 0:
            raise ValueError("t1_spin and t2_echo must be > 0")
        if self.echo_exponent <= 0:
            raise ValueError("echo_exponent must be > 0")


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

@dataclass
class ReadoutSimResult:
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
    if initial not in ("bright", "dark"):
        raise ValueError("initial must be 'bright' or 'dark'")
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

def _rotate(spins, rabi_khz, detuning_khz, duration_us, phase_rad=0.0):
    """Rodrigues rotation of Bloch vectors about the driven-frame axis
    (O cos phi, O sin phi, Delta)/O_eff by angle 2*pi*O_eff*t; every
    parameter is a scalar or one value per vector."""
    spins = np.asarray(spins, dtype=float)
    single = spins.ndim == 1
    v = spins.reshape(1, 3) if single else spins
    omega = np.broadcast_to(np.asarray(rabi_khz, dtype=float), v.shape[:1]).copy()
    delta = np.broadcast_to(np.asarray(detuning_khz, dtype=float), v.shape[:1]).copy()
    eff = np.hypot(omega, delta)
    angle = 2.0 * np.pi * eff * duration_us * 1e-3
    safe = np.where(eff > 0.0, eff, 1.0)
    axis = np.stack([omega * np.cos(phase_rad) / safe,
                     omega * np.sin(phase_rad) / safe,
                     delta / safe], axis=1)
    cos_t = np.cos(angle)[:, None]
    sin_t = np.sin(angle)[:, None]
    dot = np.sum(axis * v, axis=1, keepdims=True)
    out = v * cos_t + np.cross(axis, v) * sin_t + axis * dot * (1.0 - cos_t)
    out = np.where((eff > 0.0)[:, None], out, v)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# protocol curves
# ---------------------------------------------------------------------------

@dataclass
class ProtocolCurve:
    protocol: str
    x: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    shots: int

    def to_csv(self, path):
        write_csv(path, "x,mean,stderr,shots", self.x, self.mean, self.stderr,
                  [self.shots] * len(self.x))


def _bernoulli_stats(rng, p, shots):
    hits = rng.random(shots) < p
    m = float(hits.mean())
    return m, math.sqrt(max(m * (1.0 - m), 0.0) / shots)


def _spins_up(shots):
    """``shots`` Bloch vectors along +z, the spin before any MW pulse."""
    return np.tile([0.0, 0.0, 1.0], (shots, 1))


def run_protocol(protocol: str, sweep, bath: BathParams, shots: int = 1000,
                 seed: int = 0, mw_rabi_khz: float = 217.4,
                 detuning_sigma_khz: float = 20.0,
                 drive_jitter: float = 0.0) -> ProtocolCurve:
    """Simulate one spin-characterization protocol over a sweep grid.

    t1: wait times in s, signal = P(still bright) after relaxation of z
    toward 0 with t1_spin.  odmr: MW offsets in MHz, signal = flip
    probability of a pi pulse, per-shot spin offset drawn from the
    three-Gaussian mixture.  rabi: durations in us; the decay envelope
    comes from a per-shot detuning spread (detuning_sigma_khz) and,
    optionally, fractional drive-amplitude jitter — both knobs exist
    because the data does not pin down the mechanism.  echo: total
    sequence lengths in us; pi/2 - pi - pi/2 with the two opposite
    first-pulse phases subtracted and transverse components damped by
    exp(-(t/t2_echo)^echo_exponent).
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; choose from {PROTOCOLS}")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if not mw_rabi_khz > 0.0:
        raise ValueError(f"mw_rabi_khz must be > 0, got {mw_rabi_khz}")
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
            spins = _rotate(_spins_up(shots), mw_rabi_khz, detuning, pi_time)
            p_flip = 0.5 * (1.0 - spins[:, 2])
            mean[i], stderr[i] = _bernoulli_stats(rng, p_flip, shots)
        elif protocol == "rabi":
            detuning = rng.normal(0.0, detuning_sigma_khz, shots)
            omega = np.full(shots, mw_rabi_khz)
            if drive_jitter > 0.0:
                omega = np.clip(omega * (1.0 + drive_jitter *
                                         rng.normal(0.0, 1.0, shots)), 0.0, None)
            spins = _rotate(_spins_up(shots), omega, detuning, value)
            p_flip = 0.5 * (1.0 - spins[:, 2])
            mean[i], stderr[i] = _bernoulli_stats(rng, p_flip, shots)
        else:  # echo
            offsets_khz = _sample_mixture(rng, bath, shots) * 1e3
            with np.errstate(over="ignore"):   # a power past the float range damps to 0
                damping = math.exp(-((value / bath.t2_echo) ** bath.echo_exponent))
            results = []
            for phase in (math.pi, 0.0):   # first pi/2 about -x, then +x
                spins = _rotate(_spins_up(shots), mw_rabi_khz, 0.0, 0.5 * pi_time,
                                phase)
                spins = _free_precession(spins, offsets_khz, 0.5 * value)
                spins = _rotate(spins, mw_rabi_khz, 0.0, pi_time)
                spins = _free_precession(spins, offsets_khz, 0.5 * value)
                spins[:, 0] *= damping
                spins[:, 1] *= damping
                spins = _rotate(spins, mw_rabi_khz, 0.0, 0.5 * pi_time)
                p_dark = 0.5 * (1.0 - spins[:, 2])
                hits = rng.random(shots) < p_dark
                m = float(hits.mean())
                results.append((m, m * (1.0 - m) / shots))
            mean[i] = results[0][0] - results[1][0]
            stderr[i] = math.sqrt(results[0][1] + results[1][1])
    return ProtocolCurve(protocol=protocol, x=x, mean=mean, stderr=stderr,
                         shots=shots)


def _free_precession(spins, detuning_khz, duration_us):
    angle = 2.0 * np.pi * detuning_khz * duration_us * 1e-3
    cos_t, sin_t = np.cos(angle), np.sin(angle)
    out = spins.copy()
    out[:, 0] = spins[:, 0] * cos_t - spins[:, 1] * sin_t
    out[:, 1] = spins[:, 0] * sin_t + spins[:, 1] * cos_t
    return out


# ---------------------------------------------------------------------------
# pulse-area sweep
# ---------------------------------------------------------------------------

def excitation_probability(area_pi: float) -> float:
    """Excitation probability vs pulse area, anchored at 1 for a pi pulse."""
    return math.sin(area_pi * math.pi / 2.0) ** 2


@dataclass
class AreaScanResult:
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
    dists = _distributions(params, [point.flip_bright for point in points],
                           [params.flip_dark] * len(points),
                           d=[point.detection_probability for point in points])
    n = [params.n_pulses] * len(points)
    arms = np.array([(b.probabilities, d.probabilities) for b, d in dists])
    thresholds = [row[1] for row in _scan(arms, n, n)] if points else []
    p = np.array([point.p_excite for point in points])
    return AreaScanResult(
        area=areas, p_excite=p, n0=n0, n0_se=n0_se,
        zeta=np.array([cyclicity(p_i, n0_i) if p_i > 0 else math.nan
                       for p_i, n0_i in zip(p.tolist(), n0.tolist())]),
        f_min=np.array([readout_fidelity(*dist, t).f_min
                        for dist, t in zip(dists, thresholds)]),
        threshold=np.array(thresholds, dtype=int),
    )


# ---------------------------------------------------------------------------
# compiled-timeline executor
# ---------------------------------------------------------------------------

@dataclass
class TimelineRun:
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


def _apply_map(code, state):
    """A map {dark, bright} -> {dark, bright} (1 = bright) is coded
    f(dark) + 2 f(bright); its value at ``state``."""
    return (code >> state) & 1


# _COMPOSE[g, f] codes "f, then g"
_COMPOSE = np.array([[_apply_map(g, _apply_map(f, 0))
                      + 2 * _apply_map(g, _apply_map(f, 1)) for f in range(4)]
                     for g in range(4)], dtype=np.int8)


def _prefix_compose(codes):
    """Inclusive scan over axis 0: out[k] codes codes[0], ..., codes[k]
    applied in order (Hillis-Steele, log2 depth)."""
    out = codes.copy()
    step = 1
    while step < len(out):
        out[step:] = _COMPOSE[out[step:], out[:-step]]
        step *= 2
    return out


@dataclass(frozen=True)
class _TimelinePlan:
    """Shot-independent arrays of a timeline for the block executor: per
    statement row (read at the rows of their kind), per gate, and the
    segment bounds."""
    timeline: Timeline
    keep_below: np.ndarray     # bright stays bright if r >= keep_below
    gain_below: np.ndarray     # dark turns bright if r < gain_below
    emit_below: np.ndarray     # a bright, unflipped spin emits if r < emit_below
    mw_rad: np.ndarray         # MW phase in radians
    gate_mu: np.ndarray        # dark-count mean of a gate
    gate_start: np.ndarray     # per gate of the timeline
    gate_end: np.ndarray
    bounds: tuple              # segment i holds events bounds[i]:bounds[i + 1]
    block_shots: int


def _windows(tl):
    """(first event, statement kinds) of each run of TIMELINE_BLOCK_CELLS
    events, so that a scan of the timeline holds one run at a time."""
    for w in range(0, len(tl.start_us), TIMELINE_BLOCK_CELLS):
        yield w, tl.table.kind[tl.row[w:w + TIMELINE_BLOCK_CELLS]]


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

    # two scans: count the cells, then fill the gate times and cut the
    # segments, each just after its last cell
    kinds = sum((np.bincount(k, minlength=len(KINDS)) for _, k in _windows(tl)),
                np.zeros(len(KINDS), dtype=np.int64))
    n_gates, cells = int(kinds[DETECT]), int(kinds[OPTICAL] + kinds[DETECT])
    block_shots = max(1, TIMELINE_BLOCK_CELLS // max(cells, 1))
    budget = TIMELINE_BLOCK_CELLS // block_shots
    gate_start, gate_end = np.empty(n_gates), np.empty(n_gates)
    bounds, cells_seen, gates_seen, dark_mean = [0], 0, 0, 0.0
    for w, k in _windows(tl):
        gate = w + np.flatnonzero(k == DETECT)
        at = slice(gates_seen, gates_seen + gate.size)
        gate_start[at] = tl.start_us[gate]
        gate_end[at] = gate_start[at] + table.duration_us[tl.row[gate]]
        gates_seen += gate.size
        with np.errstate(over="ignore"):
            dark_mean += float(gate_mu[tl.row[gate]].sum())
        cell = np.flatnonzero((k == OPTICAL) | (k == DETECT))
        number = cells_seen + 1 + np.arange(cell.size)   # in the shot, from 1
        cut = (number % budget == 0) & (number < cells)
        bounds.extend((w + 1 + cell[cut]).tolist())
        cells_seen += cell.size
    bounds.append(len(tl.start_us))
    if dark_mean > MAX_EVENTS:
        raise ValueError(
            f"the dark-count mean {dark_mean:g} per shot over {n_gates} "
            f"detection gates at a dark rate of {params.dark_rate:g} Hz exceeds "
            f"the {MAX_EVENTS} records one shot is rated to hold")
    return _TimelinePlan(
        timeline=tl, keep_below=keep, gain_below=gain, emit_below=emit,
        mw_rad=np.radians(table.phase_deg), gate_mu=gate_mu,
        gate_start=gate_start, gate_end=gate_end,
        bounds=tuple(bounds), block_shots=block_shots)


def _timeline_segment(plan: _TimelinePlan, params: ReadoutParams, offsets,
                      lifetime_us, mw_rabi_khz, rng, carry, e0, e1):
    """(carry, per-shot totals, records columns) of events e0:e1 of a
    block's shots.  ``carry`` is (each shot's state, 1 = bright, the MW
    pulses since the last optical pulse, gates before e0)."""
    tl, table = plan.timeline, plan.timeline.table
    n_block, n_gates = len(offsets), len(plan.gate_start)
    state, pending, gates_seen = carry
    kinds = table.kind[tl.row[e0:e1]]
    opt = e0 + np.flatnonzero(kinds == OPTICAL)
    gate = e0 + np.flatnonzero(kinds == DETECT)
    mw = np.concatenate((pending, e0 + np.flatnonzero(kinds == MW)))
    opt_row, n_opt = tl.row[opt], len(opt)

    # MW pulses act on the spin before the next optical pulse; a run is
    # the MW pulses between two optical pulses.  z of the spin before each
    # optical pulse is rotated from +z through the preceding run; from -z
    # it is the negative (rotations are linear)
    run_of = np.searchsorted(opt, mw)
    live = run_of < n_opt
    pending, mw, run_of = mw[~live], mw[live], run_of[live]
    z = np.ones((n_opt, n_block))
    if len(mw):
        runs, row_of = np.unique(run_of, return_inverse=True)
        position = np.arange(len(mw)) - np.searchsorted(run_of, run_of)
        mw_row = tl.row[mw]
        spins = np.zeros((len(runs), n_block, 3))
        spins[..., 2] = 1.0
        for j in range(int(position.max()) + 1):
            at = position == j
            rows, step = row_of[at], mw_row[at]
            detuning = (table.frequency_mhz[step][:, None] - offsets) * 1e3
            spins[rows] = _rotate(
                spins[rows].reshape(-1, 3), mw_rabi_khz, detuning.ravel(),
                np.repeat(table.duration_us[step], n_block),
                np.repeat(plan.mw_rad[step], n_block),
            ).reshape(len(rows), n_block, 3)
        z[runs] = spins[..., 2]

    # optical pulses are projective; evaluate each pulse's map from both
    # prior states on the same draws, then chain the maps
    u_collapse = rng.random((n_opt, n_block))
    r_flip = rng.random((n_opt, n_block))
    r_emit = rng.random((n_opt, n_block))
    from_bright = u_collapse < 0.5 * (1.0 + z)
    from_dark = u_collapse < 0.5 * (1.0 - z)
    stay = r_flip >= plan.keep_below[opt_row][:, None]
    gain = r_flip < plan.gain_below[opt_row][:, None]
    codes = (np.where(from_dark, stay, gain).view(np.int8)
             + 2 * np.where(from_bright, stay, gain).view(np.int8))
    # the state before each optical pulse, then after the last
    chain = np.vstack((state, _apply_map(_prefix_compose(codes), state)))
    emits = (np.where(chain[:-1] == 1, from_bright, from_dark) & stay
             & (r_emit < plan.emit_below[opt_row][:, None]))

    # an emission is seen by the first later gate that has not ended yet,
    # if that gate has already opened; it may lie in a later segment
    k, shot = np.nonzero(emits)
    t = (tl.start_us[opt] + table.duration_us[opt_row])[k] \
        - lifetime_us * np.log1p(-rng.random(k.size))
    first_gate = gates_seen + np.cumsum(kinds == DETECT)[opt - e0]
    seen_by = np.maximum(np.searchsorted(plan.gate_end, t), first_gate[k])
    covered = seen_by < n_gates
    covered[covered] = t[covered] >= plan.gate_start[seen_by[covered]]
    seen = covered & (rng.random(k.size) < params.eta_detect)
    shot, seen_by, t = shot[seen], seen_by[seen], t[seen]
    n_dark = rng.poisson(plan.gate_mu[tl.row[gate]], (n_block, len(gate)))
    totals = np.bincount(shot, minlength=n_block) + n_dark.sum(axis=1)

    dark_shot, dark_gate = np.nonzero(n_dark)
    reps = n_dark[dark_shot, dark_gate]
    dark_shot = np.repeat(dark_shot, reps)
    dark_gate = gates_seen + np.repeat(dark_gate, reps)
    dark_t = plan.gate_start[dark_gate] + rng.random(dark_gate.size) * (
        plan.gate_end[dark_gate] - plan.gate_start[dark_gate])
    records = [(shot, seen_by, t, np.zeros(shot.size, dtype=np.int8)),
               (dark_shot, dark_gate, dark_t, np.ones(dark_shot.size, dtype=np.int8))]
    return (chain[-1], pending, gates_seen + len(gate)), totals, records


def _timeline_block(plan: _TimelinePlan, params: ReadoutParams, bath,
                    lifetime_us, mw_rabi_khz, n_block, rng):
    """(per-shot totals, (), records columns) of one block, for
    :func:`_run_blocks`.

    The block runs the plan's segments in order.  Each shot's spin state
    after a segment's last optical pulse, and the MW pulses since that
    pulse, carry into the next segment, and emissions are looked up in
    every gate of the timeline.  A single segment draws exactly as a
    whole-shot block would."""
    offsets = (_sample_mixture(rng, bath, n_block) if bath is not None
               else np.zeros(n_block))
    # every shot starts bright, with no MW pulse pending and no gate seen
    carry = (np.ones(n_block, dtype=np.int8), np.zeros(0, dtype=np.intp), 0)
    totals, records = np.zeros(n_block, dtype=np.int64), []
    for e0, e1 in zip(plan.bounds[:-1], plan.bounds[1:]):
        carry, counts, columns = _timeline_segment(
            plan, params, offsets, lifetime_us, mw_rabi_khz, rng, carry, e0, e1)
        totals += counts
        records += columns
    # record columns (shot, gate, time, origin code) sorted by (shot, time)
    shot, gate, t, code = map(np.concatenate, zip(*records))
    order = np.lexsort((t, shot))
    return totals, (), (shot[order], gate[order], t[order], code[order])


def run_timeline(timeline, params: ReadoutParams, bath: BathParams | None = None,
                 shots: int = 1000, seed: int = 0,
                 emission_lifetime_us: float = 0.803,
                 mw_rabi_khz: float = 217.4,
                 spectral_diffusion_fwhm_mhz: float = 13.5) -> TimelineRun:
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

    Shots run through :func:`_run_blocks` in blocks of
    TIMELINE_BLOCK_CELLS // (optical pulses + gates) shots (at least
    one) keyed by the seed, each vectorized over (event, shot).  A block
    walks the timeline in segments of at most TIMELINE_BLOCK_CELLS //
    (block shots) cells, each cut just after its last cell; a shot that
    fits the budget is one segment.  Each shot's spin state and the MW
    pulses pending since its last optical pulse carry into the next
    segment, and emissions are looked up in every gate of the timeline,
    so the cut changes only which draws a longer shot takes.
    """
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
