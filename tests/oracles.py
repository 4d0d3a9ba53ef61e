"""Independent reference implementations used to check the fast code.

Everything here is written the slow, obvious way on purpose: exhaustive
path enumeration and closed-form expressions, sharing no code with the
package internals they verify.
"""
from __future__ import annotations

import inspect
import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from spinshot.estimators import _decay_tau_guess, _fft_frequency_guess, _span
from spinshot.montecarlo import run_timeline
from spinshot.readout import (CALIBRATION_TOL, CalibrationError, FlipCalibration,
                              _distributions, _increasing_roots, flip_probabilities,
                              readout_fidelity)
from spinshot.sequence import (DEFAULT_OVERHEAD_US, DETECT, KINDS, Detect,
                               MwPulse, OpticalPulse, ParseError, Repeat, Wait)

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
    """d * P(bright before pulse k); the expected detections in pulse k
    are (1 - a) times this, since a spin that flips is not detected."""
    p0 = 1.0 if initial == "bright" else 0.0
    if a + b == 0.0:
        return np.full(n_pulses, d * p0)
    pi = b / (a + b)
    k = np.arange(n_pulses)
    return d * (pi + (p0 - pi) * (1.0 - a - b) ** k)


def readout_block_three_draw(params: ReadoutParams, initial: str, n_block: int,
                             rng):
    """The readout engine's former sampler, kept verbatim but for its
    records mode: three uniforms per (shot, pulse) cell (flip, detect,
    emission delay) and one Poisson draw per (shot, gate) for the dark
    counts.  Returns (per-shot counts, per-pulse detections, per-shot
    detections before the first flip)."""
    n = params.n_pulses
    a, b = params.flip_bright, params.flip_dark
    d = params.detection_probability
    mu_gate = params.dark_rate * params.gate_window * 1e-6

    bright = np.full(n_block, initial == "bright")
    counts = np.zeros(n_block, dtype=np.int64)
    unflipped = np.ones(n_block, dtype=bool)
    before_flip = np.zeros(n_block, dtype=np.int64)
    trace = np.zeros(n)

    for k in range(n):
        r_flip = rng.random(n_block)
        r_det = rng.random(n_block)
        rng.random(n_block)     # the emission delay, read only by records
        flip_b = bright & (r_flip < a)
        flip_d = ~bright & (r_flip < b)
        detect = bright & ~flip_b & (r_det < d)
        counts += detect
        trace[k] = detect.sum()
        before_flip += detect & unflipped
        unflipped &= ~flip_b
        bright = (bright & ~flip_b) | flip_d
        if mu_gate > 0.0:
            n_dark = rng.poisson(mu_gate, n_block)
            counts += n_dark
            rng.random(int(n_dark.sum()))   # dark-count times, likewise
    return counts, trace, before_flip


def decay_pulses_from_relaxation(relaxation_constant):
    """Exponential-fit decay constant implied by per-pulse survival.

    The per-pulse survival factor is (1 - 1/R); fitting exp(-k/N0)
    yields N0 = -1/ln(1 - 1/R).
    """
    return -1.0 / math.log(1.0 - 1.0 / relaxation_constant)


def rotate_rows(spins, rabi_khz, detuning_khz, duration_us, phase_rad=0.0):
    """Rodrigues rotation of Bloch vectors about the driven-frame axis
    (O cos phi, O sin phi, Delta)/O_eff by angle 2*pi*O_eff*t; every
    parameter is a scalar or one value per vector.

    Row layout: ``spins`` is one 3-vector or an (n, 3) array.  This is
    the package's rotation before it took (3, ...) component arrays,
    kept verbatim as the bitwise reference for the broadcasting one."""
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


def _rotate_one(spin, rabi_khz, detuning_khz, duration_us, phase_rad):
    """Rodrigues rotation of one Bloch vector about the driven-frame axis."""
    eff = math.hypot(rabi_khz, detuning_khz)
    if eff == 0.0:
        return spin
    axis = np.array([rabi_khz * math.cos(phase_rad) / eff,
                     rabi_khz * math.sin(phase_rad) / eff, detuning_khz / eff])
    angle = 2.0 * math.pi * eff * duration_us * 1e-3
    c, s = math.cos(angle), math.sin(angle)
    return (spin * c + np.cross(axis, spin) * s
            + axis * np.sum(axis * spin) * (1.0 - c))


def protocol_outcome_probabilities(protocol, x, bath, mw_rabi_khz, detuning_sigma_khz,
                                   nodes=120):
    """Exact probability of each sweep point's counted outcome under
    ``run_protocol``'s model without drive jitter: rows (1, len(x)), or
    (2, len(x)) for echo's first-pulse phases pi and 0, so the expected
    mean is row 0 (echo: row 0 - row 1).

    t1 is (1 + exp(-t/T1))/2.  A pulse of Rabi frequency O detuned by D
    flips an up spin with probability (O/O_eff)^2 sin^2(pi O_eff t 1e-3),
    O_eff = hypot(O, D): rabi averages it over D ~ N(0, detuning_sigma_khz),
    odmr at the pi time 500/O over the offset mixture.  echo runs its
    sequence with ``rotate_rows`` and a free precession of its own.  Each
    Gaussian is averaged by ``nodes``-point Gauss-Hermite quadrature
    (Golub & Welsch, Math. Comp. 23, 221, 1969)."""
    x = np.asarray(x, dtype=float)
    u, w = np.polynomial.hermite.hermgauss(nodes)
    w = w / math.sqrt(math.pi)              # E f(N(m, s)) = sum w f(m + sqrt(2) s u)

    def flip(rabi, detuning, duration):
        eff = np.hypot(rabi, detuning)
        return (rabi / eff) ** 2 * np.sin(math.pi * eff * duration * 1e-3) ** 2

    if protocol == "t1":
        return 0.5 * (1.0 + np.exp(-x / bath.t1_spin))[None, :]
    if protocol == "rabi":
        detuning = math.sqrt(2.0) * detuning_sigma_khz * u
        return (flip(mw_rabi_khz, detuning, x[:, None]) @ w)[None, :]
    # the offset mixture's quadrature nodes (MHz) and weights
    offsets = np.concatenate([c + math.sqrt(2.0) * bath.odmr_sigma * u
                              for c in bath.odmr_centers])
    weights = np.concatenate([p * w for p in bath.odmr_weights])
    pi_time = 500.0 / mw_rabi_khz
    if protocol == "odmr":
        detuning = (x[:, None] - offsets) * 1e3
        return (flip(mw_rabi_khz, detuning, pi_time) @ weights)[None, :]

    def precess(v, duration):
        angle = 2.0 * np.pi * offsets * 1e3 * duration * 1e-3
        c, s = np.cos(angle), np.sin(angle)
        return np.stack([v[:, 0] * c - v[:, 1] * s, v[:, 0] * s + v[:, 1] * c,
                         v[:, 2]], axis=1)

    rows = np.empty((2, len(x)))
    up = np.tile([0.0, 0.0, 1.0], (len(offsets), 1))
    for j, t in enumerate(x):
        damping = math.exp(-((t / bath.t2_echo) ** bath.echo_exponent))
        for r, phase in enumerate((math.pi, 0.0)):
            v = precess(rotate_rows(up, mw_rabi_khz, 0.0, 0.5 * pi_time, phase), 0.5 * t)
            v = precess(rotate_rows(v, mw_rabi_khz, 0.0, pi_time), 0.5 * t)
            v[:, :2] *= damping
            z = rotate_rows(v, mw_rabi_khz, 0.0, 0.5 * pi_time)[:, 2]
            rows[r, j] = 0.5 * (1.0 - z) @ weights
    return rows


# run_timeline's defaults, read from its signature so that the two cannot drift
_TIMELINE_DEFAULTS = {name: parameter.default for name, parameter
                      in inspect.signature(run_timeline).parameters.items()}


def run_timeline_per_shot(
        timeline, params, bath=None, shots=1000, seed=0,
        emission_lifetime_us=_TIMELINE_DEFAULTS["emission_lifetime_us"],
        mw_rabi_khz=_TIMELINE_DEFAULTS["mw_rabi_khz"],
        spectral_diffusion_fwhm_mhz=_TIMELINE_DEFAULTS["spectral_diffusion_fwhm_mhz"]):
    """Reference timeline executor: one shot at a time, one event at a time.

    Each shot draws from its own Philox stream keyed by (seed, shot).
    Emissions wait in a pending list until a gate covers them (counted
    with probability eta_detect), a gate opens after them (lost), or the
    sequence ends.  Event i reads its parameters from the statement
    table at row[i].  Returns (per-shot totals, (shots, gates) counts,
    records as (shot, gate, time, origin code) rows).
    """
    table = timeline.table
    gate_count = int(np.count_nonzero(table.kind[timeline.row] == DETECT))
    counts = np.zeros((shots, gate_count), dtype=np.int64)
    records = []
    for shot in range(shots):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence((seed, shot))))
        offset_mhz = 0.0
        if bath is not None:
            component = rng.choice(len(bath.odmr_weights), size=1,
                                   p=np.asarray(bath.odmr_weights, dtype=float))
            offset_mhz = float(np.asarray(bath.odmr_centers)[component][0])
            if bath.odmr_sigma > 0.0:
                offset_mhz += float(rng.normal(0.0, bath.odmr_sigma, 1)[0])
        spin = np.array([0.0, 0.0, 1.0])
        pending = []
        gate_idx = 0
        for start, row in zip(timeline.start_us.tolist(), timeline.row.tolist()):
            kind = KINDS[table.kind[row]]
            duration = float(table.duration_us[row])
            end = start + duration
            if kind == "mw":
                detuning = (float(table.frequency_mhz[row]) - offset_mhz) * 1e3
                spin = _rotate_one(spin, mw_rabi_khz, detuning, duration,
                                   math.radians(table.phase_deg[row]))
            elif kind == "optical":
                bright = rng.random() < 0.5 * (1.0 + spin[2])
                code = int(table.label[row])          # index into A-D, or -1
                label = "ABCD"[code] if code >= 0 else None
                p_area = math.sin(float(table.area_pi[row]) * math.pi / 2.0) ** 2
                if label in (None, "A"):
                    offset = 0.0 if label else float(table.offset_mhz[row])
                    if not offset:
                        weight = 1.0
                    elif spectral_diffusion_fwhm_mhz > 0.0:
                        weight = 1.0 / (1.0 + (2.0 * offset /
                                               spectral_diffusion_fwhm_mhz) ** 2)
                    else:
                        weight = 0.0
                    r_flip, r_exc, r_t = rng.random(3)
                    if bright:
                        if r_flip < params.flip_bright:
                            bright = False
                        elif r_exc < params.p_excite * p_area * weight:
                            pending.append(end - emission_lifetime_us *
                                           math.log1p(-r_t))
                    elif r_flip < params.flip_dark:
                        bright = True
                elif label == "C":
                    if bright and rng.random() < p_area:
                        bright = False
                elif label == "D":
                    if not bright and rng.random() < p_area:
                        bright = True
                spin = np.array([0.0, 0.0, 1.0 if bright else -1.0])
            elif kind == "detect":
                kept = []
                for t_emit in pending:
                    if start <= t_emit <= end:
                        if rng.random() < params.eta_detect:
                            counts[shot, gate_idx] += 1
                            records.append((shot, gate_idx, t_emit, 0))
                    elif t_emit > end:
                        kept.append(t_emit)
                pending = kept
                mu = params.dark_rate * duration * 1e-6
                if mu > 0.0:
                    for u in rng.random(rng.poisson(mu)):
                        counts[shot, gate_idx] += 1
                        records.append((shot, gate_idx, start + u * duration, 1))
                gate_idx += 1
    return counts.sum(axis=1), counts, records


def spin_chain_per_pulse(codes, state):
    """Each shot's spin chain, one map at a time: row k is the state (1 =
    bright) after k pulses, from ``state``.  A map is coded f(dark) +
    2 f(bright), so its value at s is bit s of the code."""
    chain = np.empty((len(codes) + 1, len(state)), dtype=np.int8)
    for shot, s in enumerate(state.tolist()):
        chain[0, shot] = s
        for k, code in enumerate(codes[:, shot].tolist(), start=1):
            s = (code >> s) & 1
            chain[k, shot] = s
    return chain


def timeline_segments_per_event(timeline, block_cells):
    """The executor's segments by a walk over the events, one at a time.

    A cell is an optical pulse or a gate.  A block runs block_cells //
    (cells per shot) shots, at least one, and a segment holds budget =
    block_cells // (block shots) cells of the shot: a new segment opens at
    each cell that follows a multiple of budget cells.  A program without
    cells is one empty segment.  Returns ([(optical events, gate events)
    of each segment], {MW event: event of the optical pulse it precedes,
    or None after the last one})."""
    kinds = [KINDS[k] for k in timeline.table.kind.tolist()]
    rows = timeline.row.tolist()
    cells = sum(kinds[row] in ("optical", "detect") for row in rows)
    budget = block_cells // max(1, block_cells // max(cells, 1))
    segments, precedes, pending, seen = [([], [])], {}, [], 0
    for event, row in enumerate(rows):
        if kinds[row] == "mw":
            pending.append(event)
            continue
        if kinds[row] not in ("optical", "detect"):
            continue
        if seen and seen % budget == 0:
            segments.append(([], []))
        seen += 1
        if kinds[row] == "optical":
            segments[-1][0].append(event)
            precedes.update((mw, event) for mw in pending)
            pending = []
        else:
            segments[-1][1].append(event)
    precedes.update((mw, None) for mw in pending)
    return segments, precedes


def chain_full_axis(a, b, d, starts, n_pulses):
    """The count DP before it was trimmed to its live support, kept
    verbatim: every pulse steps all n_pulses + 1 counts."""
    a, b = (np.repeat(np.asarray(x, dtype=float), len(starts))[:, None] for x in (a, b))
    silent, detect, stay_dark = (1.0 - a) * (1.0 - d), (1.0 - a) * d, 1.0 - b
    bright, dark = np.zeros((2, a.size, n_pulses + 1))
    for j, state in enumerate(starts):
        (bright if state == "bright" else dark)[j::len(starts), 0] = 1.0
    for _ in range(n_pulses):
        new_bright = bright * silent + dark * b
        new_bright[:, 1:] += bright[:, :-1] * detect
        bright, dark = new_bright, bright * a + dark * stay_dark
        yield bright, dark


def _best_threshold_full(pmf_bright, pmf_dark, n_pulses):
    """Scan thresholds 1..n_pulses; ties keep the lowest threshold."""
    cum_b = np.cumsum(pmf_bright)
    cum_d = np.cumsum(pmf_dark)
    top = min(n_pulses, len(cum_b) - 1)
    f_bright = 1.0 - cum_b[:top]
    f_dark = cum_d[:top]
    f_min = np.minimum(f_bright, f_dark)
    i = int(np.argmax(f_min))
    return i + 1, float(f_bright[i]), float(f_dark[i]), float(f_min[i])


def optimize_readout_full_scan(params, n_range, poisson_pmf):
    """The (pulse count, threshold) scan before the crossing window, kept
    verbatim: per pulse it convolves and scans both full arms, with a
    Poisson pmf computed per arm.  ``poisson_pmf`` is the package's
    truncated Poisson pmf, which this oracle does not check.  Returns
    (n*, t*, f*) and the five columns n, threshold, F_bright, F_dark,
    F_min."""
    def convolve_dark(pmf, mu):
        if mu <= 0.0:
            return pmf
        return np.convolve(pmf, poisson_pmf(mu))

    n_lo, n_hi = int(n_range[0]), int(n_range[1])
    dark_mean_per_pulse = params.dark_rate * params.gate_window * 1e-6
    chain = chain_full_axis([params.flip_bright], [params.flip_dark],
                            params.detection_probability, ("bright", "dark"), n_hi)

    rows = []
    best = None
    for pulse, (bright, dark) in enumerate(chain, start=1):
        if pulse < n_lo:
            continue
        mu = dark_mean_per_pulse * pulse
        signal = bright[:, :pulse + 1] + dark[:, :pulse + 1]
        pmf_b, pmf_d = (convolve_dark(pmf, mu) for pmf in signal)
        t, fb, fd, fm = _best_threshold_full(pmf_b, pmf_d, pulse)
        rows.append((pulse, t, fb, fd, fm))
        if best is None or fm > best[4]:
            best = (pulse, t, fb, fd, fm)

    columns = tuple(map(np.array, zip(*rows)))
    return (int(best[0]), int(best[1]), float(best[4])), columns


# readout.calibrate_flip_asymmetry before its search passes were capped,
# kept verbatim: the grid and every ITP step run full-support DP passes
# and read both arms as readout_fidelity does
def calibrate_flip_asymmetry_full_passes(params, relaxation_constant: float,
                                         target_f: float, threshold: int):
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
    DP pass per step, to a bracket of 2e-12 in s; the result must reach
    the target within CALIBRATION_TOL.
    """
    if not (math.isfinite(relaxation_constant) and relaxation_constant > 1.0):
        raise ValueError("relaxation_constant must be finite and exceed 1 pulse, "
                         f"got {relaxation_constant}")
    if not (0.0 < target_f < 1.0):
        raise ValueError("target_f must be in (0, 1)")
    arms = {}                       # s -> (F_bright, F_dark)

    def evaluate(s):                # one batched DP for all s
        reports = [readout_fidelity(dist_b, dist_d, threshold)
                   for dist_b, dist_d in _distributions(
                       params, *flip_probabilities(relaxation_constant, s))]
        values = [(report.f_bright, report.f_dark) for report in reports]
        arms.update(zip(s.tolist(), values))
        return np.array(values)

    def f_min(s):
        return min(arms[s])

    grid = np.linspace(0.0, 1.0, 9)
    values = evaluate(grid)
    f_left, f_right = f_min(0.0), f_min(1.0)
    # each root is of a non-decreasing c_bright*F_bright + c_dark*F_dark + c
    roots = [(-1.0, 1.0, 0.0)]                  # peak: F_dark - F_bright
    if target_f >= f_left:                      # rising branch
        roots.append((0.0, 1.0, -target_f))
    elif target_f >= f_right:                   # falling branch
        roots.append((-1.0, 0.0, target_f))
    lo, hi = _increasing_roots(evaluate, grid, values, np.array(roots), 1e-12)
    s_peak = float(max(lo[0], hi[0], key=f_min))
    f_max = f_min(s_peak)
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

    s = float(min(lo[1], hi[1], key=lambda x: abs(f_min(x) - target_f)))
    s = min(s, s_peak) if target_f >= f_left else max(s, s_peak)
    f_s = f_min(s)
    if abs(f_s - target_f) > CALIBRATION_TOL:
        raise CalibrationError(
            f"root search stalled at fidelity {f_s:.6g} for target {target_f:.6g}",
            attainable=attainable)
    return FlipCalibration(*flip_probabilities(relaxation_constant, s),
                           asymmetry=s, achieved_f=f_s, f_max=f_max)


def write_csv_per_cell(path, header, *columns):
    """estimators.write_csv before it formatted by column, kept verbatim:
    one cell() call and one write per value and row."""
    def cell(value):
        if isinstance(value, (float, np.floating)):
            return f"{value:.12g}"
        return str(value)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in zip(*columns, strict=True):
            fh.write(",".join(map(cell, row)) + "\n")


def read_records_per_line(path):
    """PhotonRecords.from_file before it parsed by column, one Python step
    per line, with its two 64-bit range checks; returns the six fields."""
    int64_max = 2**63 - 1
    header = {"shots": None, "pulses": None}
    shot, pulse, ts, code, line_nos = [], [], [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    key, _, value = token.partition("=")
                    if key not in header:
                        continue
                    if not (value.isascii() and value.isdigit()):
                        raise ValueError(
                            f"{path}:{line_no}: header {key}= needs a "
                            f"non-negative integer, got {value!r}")
                    value = value.lstrip("0") or "0"
                    if len(value) > 19 or int(value) > int64_max:
                        raise ValueError(f"{path}:{line_no}: header {key}= "
                                         f"is past the 64-bit range")
                    header[key] = int(value)
                continue
            parts = line.split()
            try:
                if len(parts) != 4 or parts[3] not in ("emitter", "dark"):
                    raise ValueError
                row = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise ValueError(f"{path}:{line_no}: expected 'shot pulse "
                                 f"timestamp origin' row, got {line!r}") from None
            for name, value in zip(("shot_id", "pulse_index"), row):
                if not -int64_max - 1 <= value <= int64_max:
                    raise ValueError(f"{path}:{line_no}: {name} {value} is "
                                     f"past the 64-bit range")
            shot.append(row[0])
            pulse.append(row[1])
            ts.append(row[2])
            code.append(0 if parts[3] == "emitter" else 1)
            line_nos.append(line_no)
    shot = np.array(shot, dtype=np.int64)
    pulse = np.array(pulse, dtype=np.int64)
    shots, pulses = header["shots"], header["pulses"]
    if shots is None:
        shots = int(shot.max()) + 1 if len(shot) else 0
    if pulses is None:
        pulses = int(pulse.max()) + 1 if len(pulse) else 0
    for name, column, size in (("shot_id", shot, shots),
                               ("pulse_index", pulse, pulses)):
        bad = np.flatnonzero((column < 0) | (column >= size))
        if bad.size:
            raise ValueError(f"{path}:{line_nos[bad[0]]}: {name} "
                             f"{column[bad[0]]} outside 0..{size - 1}")
    return (shot, pulse, np.array(ts), np.array(code, dtype=np.int8),
            shots, pulses)


def g2_pulsed_per_lag(records, n_lags=20):
    """estimators.g2_pulsed's pair counts and rates before it counted over
    occupied cells: a dense shots x pulses count matrix and one
    full-matrix product per lag.  Returns (pair_counts, pair_rates)."""
    shot = np.asarray(records.shot_id, dtype=np.int64)
    pulse = np.asarray(records.pulse_index, dtype=np.int64)
    n_shots, n_pulses = int(records.n_shots), int(records.n_pulses)
    counts = np.bincount(shot * n_pulses + pulse, minlength=n_shots * n_pulses)
    counts = counts.reshape(n_shots, n_pulses).astype(np.int64)
    n_lags = min(n_lags, n_pulses - 1)
    pair_counts = np.empty(n_lags + 1, dtype=np.int64)
    pair_slots = np.empty(n_lags + 1, dtype=np.int64)
    pair_counts[0] = int(np.sum(counts * (counts - 1)))
    pair_slots[0] = n_shots * n_pulses
    for lag in range(1, n_lags + 1):
        pair_counts[lag] = int(np.sum(counts[:, :-lag] * counts[:, lag:]))
        pair_slots[lag] = n_shots * (n_pulses - lag)
    return pair_counts, pair_counts / pair_slots


# The sequence layer's three tree walkers before they became one fold,
# kept verbatim, and the duration report built on them.

def _statement_event_count(stmt) -> int:
    if isinstance(stmt, Repeat):
        return stmt.count * sum(_statement_event_count(s) for s in stmt.block)
    return 1


def _statement_duration(stmt) -> float:
    if isinstance(stmt, Repeat):
        return stmt.count * sum(_statement_duration(s) for s in stmt.block)
    if isinstance(stmt, OpticalPulse) or isinstance(stmt, MwPulse):
        return stmt.duration_us
    if isinstance(stmt, Wait):
        return stmt.duration_us
    if isinstance(stmt, Detect):
        return stmt.window_us
    raise TypeError(f"unknown statement {stmt!r}")


def _active_durations(statements):
    """(pulse time, gate time) inside a block, waits excluded."""
    pulse = gate = 0.0
    for stmt in statements:
        if isinstance(stmt, (OpticalPulse, MwPulse)):
            pulse += stmt.duration_us
        elif isinstance(stmt, Detect):
            gate += stmt.window_us
        elif isinstance(stmt, Repeat):
            p, g = _active_durations(stmt.block)
            pulse += stmt.count * p
            gate += stmt.count * g
    return pulse, gate


def event_count_by_walkers(program):
    return sum(_statement_event_count(s) for s in program.statements)


def duration_report_by_walkers(program, max_rate):
    """(total ms, [(period us, block total us)] per top-level statement),
    with DEFAULT_OVERHEAD_US of switching per max-rate period."""
    blocks = []
    total_us = 0.0
    for stmt in program.statements:
        if isinstance(stmt, Repeat):
            period = sum(_statement_duration(s) for s in stmt.block)
            if max_rate:
                pulse, gate = _active_durations(stmt.block)
                if pulse > 0 and gate > 0:
                    period = pulse + gate + DEFAULT_OVERHEAD_US
            block_total = stmt.count * period
            blocks.append((period, block_total))
        else:
            block_total = _statement_duration(stmt)
            blocks.append((block_total, block_total))
        total_us += block_total
    return total_us * 1e-3, blocks


# The sequence DSL's character-walking tokenizer and its per-kind quantity
# readers before they became one regex and one unit-table reader, kept
# verbatim.  The optical target's detuning, parsed inline in _parse_pulse,
# is wrapped as _parse_optical_target.

_TRANSITION_LABELS = ("A", "B", "C", "D")


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    col: int


def _tokenize(text: str, filename: str):
    tokens = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for match in re.finditer(r"\S+", line):
            word, col = match.group(), match.start() + 1
            # braces may be glued to neighbouring tokens
            while word:
                brace = re.match(r"[{}]", word)
                if brace:
                    tokens.append(_Token(word[0], line_no, col))
                    word, col = word[1:], col + 1
                    continue
                head = re.match(r"[^{}]+", word).group()
                tokens.append(_Token(head, line_no, col))
                word, col = word[len(head):], col + len(head)
    return tokens


class _TokenStream:
    def __init__(self, tokens, filename):
        self.tokens = tokens
        self.filename = filename
        self.pos = 0
        self.last = tokens[-1] if tokens else _Token("", 1, 1)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expected: str):
        tok = self.peek()
        if tok is None:
            raise ParseError(self.filename, self.last.line,
                             self.last.col + len(self.last.text),
                             f"unexpected end of input, expected {expected}")
        self.pos += 1
        return tok

    def error(self, tok: _Token, message: str):
        raise ParseError(self.filename, tok.line, tok.col, message)

    def finite(self, tok: _Token, value: float, what: str) -> float:
        if not math.isfinite(value):
            self.error(tok, f"{what} must be finite, got {tok.text!r}")
        return value


_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_DURATION_RE = re.compile(rf"^({_NUMBER})(us|ns)$")
_FREQ_RE = re.compile(rf"^({_NUMBER})(MHz|GHz)$")
_PHASE_RE = re.compile(rf"^({_NUMBER})(deg|pi)$")
_AREA_RE = re.compile(rf"^({_NUMBER})pi$")


def _parse_duration(stream, what):
    tok = stream.next(f"{what} with unit us|ns")
    m = _DURATION_RE.match(tok.text)
    if not m:
        stream.error(tok, f"expected {what} with unit us|ns, got {tok.text!r}")
    value = stream.finite(tok, float(m.group(1)), what)
    if value < 0:
        stream.error(tok, f"{what} must be >= 0")
    return value if m.group(2) == "us" else value * 1e-3


def _parse_frequency_mhz(stream, what):
    tok = stream.next(f"{what} with unit MHz|GHz")
    m = _FREQ_RE.match(tok.text)
    if not m:
        stream.error(tok, f"expected {what} with unit MHz|GHz, got {tok.text!r}")
    value = float(m.group(1))
    return stream.finite(tok, value if m.group(2) == "MHz" else value * 1e3, what)


def _parse_phase_deg(stream):
    tok = stream.next("phase with unit deg|pi")
    m = _PHASE_RE.match(tok.text)
    if not m:
        stream.error(tok, f"expected phase with unit deg|pi, got {tok.text!r}")
    value = float(m.group(1))
    return stream.finite(tok, value if m.group(2) == "deg" else value * 180.0,
                         "phase")


def _parse_area(stream):
    tok = stream.next("pulse area with unit pi")
    m = _AREA_RE.match(tok.text)
    if not m:
        stream.error(tok, f"expected pulse area with unit pi, got {tok.text!r}")
    value = stream.finite(tok, float(m.group(1)), "pulse area")
    if value < 0:
        stream.error(tok, "pulse area must be >= 0")
    return value


def _parse_optical_target(stream):
    """(transition, offset_mhz) of a ``pulse optical`` statement."""
    target = stream.next("transition label A-D or detuning with unit")
    transition = offset = None
    if target.text in _TRANSITION_LABELS:
        transition = target.text
    else:
        m = _FREQ_RE.match(target.text)
        if not m:
            stream.error(target, "expected transition label A-D or "
                                 f"detuning with unit MHz|GHz, got {target.text!r}")
        offset = stream.finite(
            target, float(m.group(1)) * (1.0 if m.group(2) == "MHz" else 1e3),
            "detuning")
    return transition, offset


# ---------------------------------------------------------------------------
# fitter starts and the gaussian_sum model, one list entry and one
# component at a time; the data-driven guesses (_span, _decay_tau_guess,
# _fft_frequency_guess) are the package's own
# ---------------------------------------------------------------------------

def _starts_exp_decay(x, y):
    offset = float(np.min(y)) if y[0] >= y[-1] else float(np.max(y))
    amplitude = float(y[0] - offset)
    if amplitude == 0.0:
        amplitude = float(np.ptp(y)) or 1.0
    tau = _decay_tau_guess(x, y, offset)
    return [
        np.array([amplitude, tau, offset]),
        np.array([amplitude, tau * 3.0, offset]),
        np.array([amplitude, tau / 3.0, offset]),
    ]


def _starts_exp_relax(x, y):
    offset = float(y[0])
    amplitude = float(y[-1] - y[0])
    if amplitude == 0.0:
        amplitude = float(np.ptp(y)) or 1.0
    tau = _span(x) / 3.0
    return [
        np.array([amplitude, tau, offset]),
        np.array([amplitude, tau * 3.0, offset]),
        np.array([amplitude, tau / 3.0, offset]),
    ]


def _starts_gaussian_echo(x, y):
    offset = float(np.min(y))
    amplitude = float(y[0] - offset) or float(np.ptp(y)) or 1.0
    t2 = _decay_tau_guess(x, y, offset)
    return [
        np.array([amplitude, t2, offset]),
        np.array([amplitude, t2 * 2.0, offset]),
        np.array([amplitude, t2 / 2.0, offset]),
    ]


def _starts_damped_sine(x, y):
    offset = float(np.mean(y))
    amplitude = float(np.ptp(y)) / 2.0 or 1.0
    frequency = _fft_frequency_guess(x, y)
    tau = _span(x)
    return [
        np.array([amplitude, frequency, tau, phase, offset])
        for phase in (0.0, math.pi / 2.0, math.pi, -math.pi / 2.0)
    ]


def _starts_lorentzian(x, y):
    offset = float(np.median(y))
    idx = int(np.argmax(np.abs(y - offset)))
    amplitude = float(y[idx] - offset) or 1.0
    center = float(x[idx])
    width = _span(x) / 10.0
    return [
        np.array([amplitude, center, width, offset]),
        np.array([amplitude, center, width * 3.0, offset]),
        np.array([amplitude, center, width / 3.0, offset]),
    ]


def gaussian_sum_predict(x, p, k):
    y = np.full_like(np.asarray(x, dtype=float), p[-1])
    for i in range(k):
        a, mu, sig = p[3 * i], p[3 * i + 1], p[3 * i + 2]
        y = y + a * np.exp(-0.5 * ((x - mu) / sig) ** 2)
    return y


def gaussian_sum_starts(x, y, k):
    offset = float(np.min(y))
    dev = y - offset
    # k tallest well-separated samples as center guesses
    order = np.argsort(dev)[::-1]
    centers, min_gap = [], _span(x) / (3.0 * k)
    for idx in order:
        if all(abs(x[idx] - c) > min_gap for c in centers):
            centers.append(float(x[idx]))
        if len(centers) == k:
            break
    while len(centers) < k:
        centers.append(float(np.min(x)) + _span(x) * (len(centers) + 0.5) / k)
    centers.sort()
    sigma = _span(x) / (5.0 * k)
    base = []
    for c in centers:
        amp = float(np.interp(c, x, dev)) or float(np.max(dev)) or 1.0
        base += [amp, c, sigma]
    base.append(offset)
    base = np.array(base)
    wide = base.copy()
    wide[2::3] *= 2.0
    narrow = base.copy()
    narrow[2::3] *= 0.5
    return [base, wide, narrow]
