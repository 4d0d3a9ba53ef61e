"""Nonlinear least-squares fitting, pulsed autocorrelation, photon
records, and series and CSV I/O.

The fitter is a damped Gauss-Newton (Levenberg-Marquardt) loop with a
finite-difference Jacobian and a deterministic multi-start policy; no
randomness enters anywhere, so identical inputs give identical fits.
Width- and rate-like parameters are kept positive by optimizing their
logarithm internally.
"""
from __future__ import annotations

import io
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericalError",
    "FitError",
    "NormalizationError",
    "FitResult",
    "G2Result",
    "PhotonRecords",
    "MODEL_KINDS",
    "fit_model",
    "model_param_names",
    "g2_pulsed",
    "gaussian_fwhm_to_sigma",
    "read_series_csv",
    "write_csv",
    "format_fit_report",
]

# FWHM conversions are centralized here; all other modules import them.
_GAUSS_K = 2.0 * math.sqrt(2.0 * math.log(2.0))


def gaussian_fwhm_to_sigma(fwhm: float) -> float:
    return fwhm / _GAUSS_K


class InvalidConfigError(ValueError):
    """A config value or argument violates one of its documented invariants."""


def check_range(name, value, low, high, open_low, open_high):
    """``value`` if it is finite and inside the interval from low to high,
    each end open if open_low/open_high; else an InvalidConfigError that
    names it."""
    inside = ((low < value if open_low else low <= value)
              and (value < high if open_high else value <= high))
    try:
        shown = None if inside and math.isfinite(value) else f"{value:g}"
    except OverflowError:               # an int past the float range
        shown = "an int past the float range"
    if shown is not None:
        interval = f"{'(' if open_low else '['}{low:g}, {high:g}{')' if open_high else ']'}"
        raise InvalidConfigError(f"{name} must be finite and in {interval}, got {shown}")
    return value


def check_count(name, value, low=1, high=math.inf):
    """``value`` as an int if it is an integer in low..high (``operator.index``:
    a float never is); else an InvalidConfigError that names it."""
    try:
        count = operator.index(value)
    except TypeError:
        raise InvalidConfigError(f"{name} must be an integer, got {value!r}") from None
    if not low <= count <= high:
        bound = f">= {low}" if count < low else f"<= {high}"
        # worded as check_range's; Python refuses to print an int of 4300+ digits
        shown = count if count.bit_length() <= 1024 else "an int past the float range"
        raise InvalidConfigError(f"{name} must be {bound}, got {shown}")
    return count


class NumericalError(RuntimeError):
    """A computation on valid inputs has no meaningful result (exit 3 in
    the command-line front end)."""


class FitError(NumericalError):
    """No start converged; carries per-start diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class NormalizationError(NumericalError):
    """Autocorrelation normalization is undefined (no cross-lag pairs)."""


@dataclass
class FitResult:
    """One model's fitted parameters, their 1-SD uncertainties and the fit's diagnostics."""
    kind: str
    params: dict[str, float]
    uncertainties: dict[str, float]
    residual_norm: float
    converged: bool
    iterations: int
    degenerate: bool = False
    n_points: int = 0

    def __getitem__(self, name: str) -> float:
        return self.params[name]


# ---------------------------------------------------------------------------
# model registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ModelSpec:
    """A fit model's parameter names, its positive ones, its prediction and its starts."""
    names: tuple
    positive: frozenset
    predict: object        # predict(x, params_vector) -> y
    starts: object         # starts(x, y) -> start vectors, one per row


def _predict_exp_decay(x, p):
    amplitude, tau, offset = p
    return amplitude * np.exp(-x / tau) + offset


def _predict_exp_relax(x, p):
    amplitude, tau, offset = p
    return amplitude * (1.0 - np.exp(-x / tau)) + offset


def _predict_gaussian_echo(x, p):
    amplitude, t2, offset = p
    return amplitude * np.exp(-((x / t2) ** 2)) + offset


def _predict_damped_sine(x, p):
    amplitude, frequency, tau, phase, offset = p
    return amplitude * np.exp(-x / tau) * np.cos(2.0 * np.pi * frequency * x + phase) + offset


def _predict_lorentzian(x, p):
    amplitude, center, fwhm, offset = p
    u = 2.0 * (x - center) / fwhm
    return amplitude / (1.0 + u * u) + offset


def _span(x):
    s = float(np.max(x) - np.min(x))
    return s if s > 0 else 1.0


def _decay_tau_guess(x, y, offset):
    """Crude 1/e crossing of |y - offset|, clipped to the data span."""
    dev = np.abs(y - offset)
    top = dev[0] if dev[0] > 0 else (np.max(dev) or 1.0)
    below = np.nonzero(dev <= top / math.e)[0]
    if below.size and below[0] > 0:
        return max(float(x[below[0]] - x[0]), _span(x) * 1e-3)
    return _span(x) / 3.0


def _spread(base, index, factor):
    """Three starts: ``base``, then ``base`` with its entries at ``index``
    multiplied and divided by ``factor``."""
    starts = np.array([base, base, base], dtype=float)
    starts[1, index] *= factor
    starts[2, index] /= factor
    return starts


def _starts_exp_decay(x, y):
    offset = float(np.min(y)) if y[0] >= y[-1] else float(np.max(y))
    amplitude = float(y[0] - offset)
    if amplitude == 0.0:
        amplitude = float(np.ptp(y)) or 1.0
    return _spread([amplitude, _decay_tau_guess(x, y, offset), offset], 1, 3.0)


def _starts_exp_relax(x, y):
    offset = float(y[0])
    amplitude = float(y[-1] - y[0])
    if amplitude == 0.0:
        amplitude = float(np.ptp(y)) or 1.0
    return _spread([amplitude, _span(x) / 3.0, offset], 1, 3.0)


def _starts_gaussian_echo(x, y):
    offset = float(np.min(y))
    amplitude = float(y[0] - offset) or float(np.ptp(y)) or 1.0
    return _spread([amplitude, _decay_tau_guess(x, y, offset), offset], 1, 2.0)


def _fft_frequency_guess(x, y):
    """Dominant non-DC frequency assuming a roughly uniform grid."""
    n = len(x)
    dx = _span(x) / max(n - 1, 1)
    spec = np.abs(np.fft.rfft(y - np.mean(y)))
    if len(spec) < 2:
        return 1.0 / _span(x)
    k = int(np.argmax(spec[1:])) + 1
    return max(k / (n * dx), 1e-3 / _span(x))


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
    return _spread([amplitude, float(x[idx]), _span(x) / 10.0, offset], 2, 3.0)


_MODELS = {
    "exp_decay": _ModelSpec(
        ("amplitude", "tau", "offset"), frozenset({"tau"}),
        _predict_exp_decay, _starts_exp_decay),
    "exp_relax": _ModelSpec(
        ("amplitude", "tau", "offset"), frozenset({"tau"}),
        _predict_exp_relax, _starts_exp_relax),
    "gaussian_echo": _ModelSpec(
        ("amplitude", "t2", "offset"), frozenset({"t2"}),
        _predict_gaussian_echo, _starts_gaussian_echo),
    "damped_sine": _ModelSpec(
        ("amplitude", "frequency", "tau", "phase", "offset"),
        frozenset({"frequency", "tau"}),
        _predict_damped_sine, _starts_damped_sine),
    "lorentzian": _ModelSpec(
        ("amplitude", "center", "fwhm", "offset"), frozenset({"fwhm"}),
        _predict_lorentzian, _starts_lorentzian),
}
MODEL_KINDS = (*_MODELS, "gaussian_sum")     # fit_model's kinds, as --model lists them


def _gaussian_sum_spec(k: int) -> _ModelSpec:
    names = []
    for i in range(1, k + 1):
        names += [f"amplitude_{i}", f"center_{i}", f"sigma_{i}"]
    names.append("offset")
    positive = frozenset(n for n in names if n.startswith("sigma_"))

    def predict(x, p):
        # a sum over axis 0 adds whole rows in order: offset, then each
        # component, with the bits of a loop over the components
        x = np.asarray(x, dtype=float)
        amplitude, center, sigma = np.reshape(p[:-1], (k, 3)).T[:, :, None]
        terms = amplitude * np.exp(-0.5 * ((x - center) / sigma) ** 2)
        return np.vstack((np.full_like(x, p[-1]), terms)).sum(axis=0)

    def starts(x, y):
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
        return _spread(base + [offset], slice(2, None, 3), 2.0)

    return _ModelSpec(tuple(names), positive, predict, starts)


def _components(n_components) -> int:     # gaussian_sum's; None: 3
    return 3 if n_components is None else check_count("n_components", n_components)


def _resolve_spec(kind: str, n_components) -> _ModelSpec:
    if kind == "gaussian_sum":
        return _gaussian_sum_spec(_components(n_components))
    if kind not in _MODELS:
        raise ValueError(f"unknown model kind {kind!r}; known: {list(MODEL_KINDS)}")
    return _MODELS[kind]


def model_param_names(kind: str, n_components=None) -> tuple:
    return _resolve_spec(kind, n_components).names


# ---------------------------------------------------------------------------
# Levenberg-Marquardt core
# ---------------------------------------------------------------------------

_FD_REL = 1e-6
_FD_ABS = 1e-9
_MAX_ITER = 200         # LM iterations per start


def _to_internal(p, pos_mask):
    q = np.array(p, dtype=float)
    q[pos_mask] = np.log(q[pos_mask])
    return q


def _to_external(q, pos_mask):
    p = np.array(q, dtype=float)
    p[pos_mask] = np.exp(p[pos_mask])
    return p


def _jacobian(resid, theta, r0):
    m, n = len(r0), len(theta)
    jac = np.empty((m, n))
    for j in range(n):
        h = max(_FD_REL * abs(theta[j]), _FD_ABS)
        step = theta.copy()
        step[j] += h
        jac[:, j] = (resid(step) - r0) / h
    return jac


def _lm_minimize(resid, theta0):
    """Damped Gauss-Newton descent; returns (theta, cost, jac, converged, iters)."""
    theta = np.asarray(theta0, dtype=float)
    r = resid(theta)
    cost = float(r @ r)
    lam = 1e-3
    jac = _jacobian(resid, theta, r)
    converged = False
    iters = 0
    for iters in range(1, _MAX_ITER + 1):
        grad = jac.T @ r
        if np.max(np.abs(grad)) <= 1e-12 * (1.0 + cost):
            converged = True
            break
        hess = jac.T @ jac
        diag = np.diag(np.maximum(np.diag(hess), 1e-14))
        accepted = False
        while lam <= 1e12:
            try:
                step = np.linalg.solve(hess + lam * diag, -grad)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(hess + lam * diag, -grad, rcond=None)[0]
            trial = theta + step
            r_trial = resid(trial)
            cost_trial = float(r_trial @ r_trial) if np.all(np.isfinite(r_trial)) else np.inf
            if cost_trial < cost:
                rel_drop = (cost - cost_trial) / (1.0 + cost)
                step_size = float(np.linalg.norm(step))
                theta, r, cost = trial, r_trial, cost_trial
                jac = _jacobian(resid, theta, r)
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                if rel_drop <= 1e-14 or step_size <= 1e-12 * (1.0 + float(np.linalg.norm(theta))):
                    converged = True
                break
            lam *= 5.0
        if not accepted:
            # stalled: treat as converged if the gradient is already tiny
            converged = np.max(np.abs(grad)) <= 1e-6 * (1.0 + cost)
            break
        if converged:
            break
    return theta, cost, jac, converged, iters


_FREQUENCIES = frozenset({"frequency"})
_TIME_CONSTANTS = frozenset({"tau", "t2"})


def _identifiable(names, p, x) -> bool:
    """Whether the sampling grid x can pin the parameters p down: every
    frequency at most the Nyquist rate 1 / (2 min dx), and every time
    constant within [min dx / 10, 1000 * span].  Past 1000 spans a decay
    changes the curve by < 0.1% over the grid; the `protocols` Rabi curve
    itself decays over 77-119 spans (5000 shots, seeds 0-11), so a bound
    of 100 spans would reject its honest fits."""
    # np.unique would import numpy.ma (~15 ms) on its first call
    steps = np.diff(np.sort(x))
    steps = steps[steps > 0]
    dx = float(steps.min()) if steps.size else _span(x)
    for name, value in zip(names, p):
        if name in _FREQUENCIES and value > 0.5 / dx:
            return False
        if name in _TIME_CONSTANTS and not dx / 10.0 <= value <= 1000.0 * _span(x):
            return False
    return True


# float errors stay silent: data near the float range overflows the start
# guesses, the cost and the covariance, and so do trial steps; the checks
# on each start's cost, parameters and curvature decide what converged
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def fit_model(kind, x, y, sigma=None, initial=None,
              n_components=None) -> FitResult:
    """Least-squares fit of a named model to an (x, y[, sigma]) series.

    ``initial`` is None (deterministic data-driven multi-start), or one
    start or a list (or 2-d array) of starts, each a parameter vector in
    the external parameterization and the order given by
    :func:`model_param_names`; a start of the wrong length, or a ragged
    list, is a ValueError.  Each start runs at most _MAX_ITER LM
    iterations.  Raises :class:`FitError` with per-start diagnostics
    when no start converges.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("data must be finite")
    # counted before gaussian_sum's 3k + 1 parameter names are built
    n_par = (3 * _components(n_components) + 1
             if kind == "gaussian_sum" else len(_resolve_spec(kind, None).names))
    if len(x) < n_par + 1:
        raise ValueError(f"need at least {n_par + 1} points to fit {kind}")
    spec = _resolve_spec(kind, n_components)
    weights = None
    if sigma is not None:
        weights = 1.0 / np.asarray(sigma, dtype=float)
        if not np.all(np.isfinite(weights) & (weights > 0)):
            raise ValueError("sigma entries must be finite and > 0, with a finite reciprocal")

    pos_mask = np.array([name in spec.positive for name in spec.names])

    def residuals(theta):
        r = spec.predict(x, _to_external(theta, pos_mask)) - y
        return r * weights if weights is not None else r

    try:
        starts = np.atleast_2d(np.asarray(
            spec.starts(x, y) if initial is None else initial, dtype=float))
    except (TypeError, ValueError):
        starts = None
    if starts is None or starts.ndim != 2 or starts.shape[1] != n_par:
        raise ValueError(f"initial for model {kind!r} must be one start or a list "
                         f"of starts of {n_par} parameters {spec.names}")

    best = None
    diagnostics = []
    for i, p0 in enumerate(starts):
        if np.any(p0[pos_mask] <= 0):
            diagnostics.append((i, "start violates positivity", np.inf))
            continue
        theta, cost, jac, converged, iters = _lm_minimize(
            residuals, _to_internal(p0, pos_mask))
        if converged:
            p_end = _to_external(theta, pos_mask)
            if not (math.isfinite(cost) and np.all(np.isfinite(p_end))
                    and np.all(np.isfinite(jac.T @ jac))):
                converged, status = False, "non-finite cost, parameters or curvature"
            elif not _identifiable(spec.names, p_end, x):
                converged, status = False, "unidentifiable"
            else:
                status = "converged"
        else:
            status = "not converged"
        diagnostics.append((i, status, cost))
        if converged and (best is None or cost < best[1]):
            best = (theta, cost, jac, iters)
    if best is None:
        raise FitError(
            f"no start converged for model {kind!r} ("
            + "; ".join(f"start {i}: {status}" for i, status, _ in diagnostics)
            + ")",
            diagnostics=diagnostics,
        )

    theta, cost, jac, iters = best
    p_ext = _to_external(theta, pos_mask)
    if kind == "damped_sine":
        # (A, phase) and (-A, phase+pi) are the same curve; report the
        # canonical representative with A >= 0 and phase in (-pi, pi]
        amp_i = spec.names.index("amplitude")
        ph_i = spec.names.index("phase")
        if p_ext[amp_i] < 0:
            p_ext[amp_i] = -p_ext[amp_i]
            p_ext[ph_i] += math.pi
        p_ext[ph_i] = math.remainder(p_ext[ph_i], 2 * math.pi)
    dof = max(len(x) - n_par, 1)
    scale = 1.0 if weights is not None else cost / dof
    hess = jac.T @ jac
    degenerate = np.linalg.matrix_rank(jac) < n_par
    cov_int = np.linalg.pinv(hess) * scale
    var_int = np.clip(np.diag(cov_int), 0.0, None)
    # chain rule through the log reparameterization
    deriv = np.where(pos_mask, p_ext, 1.0)
    sd_ext = np.sqrt(var_int) * np.abs(deriv)
    return FitResult(
        kind=kind,
        params=dict(zip(spec.names, p_ext.tolist())),
        uncertainties=dict(zip(spec.names, sd_ext.tolist())),
        residual_norm=math.sqrt(cost),
        converged=True,
        iterations=iters,
        degenerate=bool(degenerate),
        n_points=len(x),
    )


# ---------------------------------------------------------------------------
# photon records and pulsed autocorrelation
# ---------------------------------------------------------------------------

_ORIGINS = ("emitter", "dark")
_INT64_MAX = 2**63 - 1
# the bytes of a records body in to_file's form: digits, signs, points,
# the letters of the origins, nan and inf, and ' ', tab and newline
_BODY_BYTES = b"0123456789+-. \t\nadefikmnrt"
_ROW_DTYPE = np.dtype([("shot", "i8"), ("pulse", "i8"), ("t", "f8"),
                       ("origin", "U8")])    # U8 keeps a longer token unequal


@dataclass(eq=False)
class PhotonRecords:
    """Columnar table of detected photons across shots."""
    shot_id: np.ndarray
    pulse_index: np.ndarray
    timestamp_us: np.ndarray
    origin_code: np.ndarray      # 0 = emitter, 1 = dark
    n_shots: int
    n_pulses: int

    def __len__(self):
        return len(self.shot_id)

    @property
    def origin(self) -> np.ndarray:
        return np.where(self.origin_code == 0, "emitter", "dark")

    def to_file(self, path):
        rows = zip(self.shot_id.tolist(), self.pulse_index.tolist(),
                   self.timestamp_us.tolist(), self.origin_code.tolist())
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# photon records: shot_id pulse_index timestamp_us origin\n")
            fh.write(f"# shots={self.n_shots} pulses={self.n_pulses}\n")
            fh.writelines(f"{s} {p} {t:.12g} {_ORIGINS[c != 0]}\n"
                          for s, p, t, c in rows)

    @classmethod
    def from_file(cls, path) -> "PhotonRecords":
        """Read a records file.  A body in the form ``to_file`` writes is
        parsed a column at a time; any other file, and every error, goes
        through the per-line reader, which names the line at fault."""
        try:
            columns = _read_columns(path)
        except ValueError:          # a row numpy rejects, or a bad header value
            columns = None
        return cls(*(columns or _read_rows(path)))


def _header_line(header, line, path, line_no):
    """Take a '#' line's ``shots=`` and ``pulses=`` values into ``header``."""
    for token in line[1:].split():
        key, _, value = token.partition("=")
        if key in header:
            if not (value.isascii() and value.isdigit()):
                raise ValueError(f"{path}:{line_no}: header {key}= needs a "
                                 f"non-negative integer, got {value!r}")
            value = value.lstrip("0") or "0"    # int() counts leading zeros
            if len(value) > 19 or int(value) > _INT64_MAX:
                raise ValueError(f"{path}:{line_no}: header {key}= is past "
                                 f"the 64-bit range")
            header[key] = int(value)


def _declared_sizes(header, shot, pulse):
    """The header's shot and pulse counts, each defaulting to one past the
    largest id."""
    sizes = []
    for size, ids in ((header["shots"], shot), (header["pulses"], pulse)):
        if size is None:
            size = int(ids.max()) + 1 if ids.size else 0
        sizes.append(size)
    return sizes


def _read_rows(path):
    """The per-line reader: the file's columns and sizes, or an error that
    names the file and line."""
    header = {"shots": None, "pulses": None}
    shot, pulse, ts, code, line_nos = [], [], [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                _header_line(header, line, path, line_no)
                continue
            parts = line.split()
            try:
                if len(parts) != 4 or parts[3] not in _ORIGINS:
                    raise ValueError
                ids = int(parts[0]), int(parts[1])
                ts.append(float(parts[2]))
            except ValueError:
                raise ValueError(f"{path}:{line_no}: expected 'shot pulse "
                                 f"timestamp origin' row, got {line!r}") from None
            for name, value in zip(("shot_id", "pulse_index"), ids):
                if not -_INT64_MAX - 1 <= value <= _INT64_MAX:
                    raise ValueError(f"{path}:{line_no}: {name} {value} is "
                                     f"past the 64-bit range")
            shot.append(ids[0])
            pulse.append(ids[1])
            code.append(_ORIGINS.index(parts[3]))
            line_nos.append(line_no)
    shot = np.array(shot, dtype=np.int64)
    pulse = np.array(pulse, dtype=np.int64)
    shots, pulses = _declared_sizes(header, shot, pulse)
    for name, column, size in (("shot_id", shot, shots),
                               ("pulse_index", pulse, pulses)):
        bad = np.flatnonzero((column < 0) | (column >= size))
        if bad.size:
            raise ValueError(f"{path}:{line_nos[bad[0]]}: {name} "
                             f"{column[bad[0]]} outside 0..{size - 1}")
    return (shot, pulse, np.array(ts), np.array(code, dtype=np.int8),
            shots, pulses)


def _read_columns(path):
    """The columns and sizes of a file whose body is in ``to_file``'s form,
    parsed by numpy in one pass; None where the per-line reader must look.

    Only the leading '#' lines are headers.  The body must be ASCII rows
    of ``_BODY_BYTES``, split at ' ', tab and newline as ``str.split``
    splits them.  Within those bytes numpy's integer parse takes no token
    that ``int`` rejects, and its float parse is ``float``'s own
    ``PyOS_string_to_double``, so every value it takes agrees bit for bit.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if b"\r" in raw:                # the newlines a text-mode read translates
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    header = {"shots": None, "pulses": None}
    start = line_no = 0
    while raw.startswith(b"#", start):
        end = raw.find(b"\n", start) + 1 or len(raw)
        line_no += 1
        _header_line(header, raw[start:end].decode("utf-8").strip(), path,
                     line_no)
        start = end
    body = raw[start:]
    if not body or body.isspace() or body.translate(None, _BODY_BYTES):
        return None
    rows = np.loadtxt(io.StringIO(body.decode("ascii")), dtype=_ROW_DTYPE,
                      comments=None, ndmin=1)
    dark = rows["origin"] == _ORIGINS[1]
    shot, pulse = (np.ascontiguousarray(rows[name]) for name in ("shot", "pulse"))
    shots, pulses = _declared_sizes(header, shot, pulse)
    if not (np.all(dark | (rows["origin"] == _ORIGINS[0]))
            and np.all((shot >= 0) & (shot < shots))
            and np.all((pulse >= 0) & (pulse < pulses))):
        return None
    return (shot, pulse, np.ascontiguousarray(rows["t"]), dark.view(np.int8),
            shots, pulses)


@dataclass(eq=False)
class G2Result:
    """g2(0) and the per-lag pair rates and counts it was taken from."""
    g2_zero: float
    lags: np.ndarray
    pair_rates: np.ndarray    # per-pulse-pair coincidence rates, lag 0..L
    pair_counts: np.ndarray


def g2_pulsed(records, n_lags: int = 20) -> G2Result:
    """Pulse-wise autocorrelation from detected-photon records.

    Same-pulse (ordered) pair rate over the mean of the pair rates at
    lags 1..n_lags (an integer >= 1, capped at the pulse count - 1).  Records
    need ``shot_id``/``pulse_index`` arrays plus ``n_shots``/``n_pulses``.
    Pairs are counted over the occupied (shot, pulse) cells only: in
    (shot, pulse) order, a cell's partner at lag l lies at most l cells on.
    """
    n_lags = check_count("n_lags", n_lags)
    shot = np.asarray(records.shot_id, dtype=np.int64)
    pulse = np.asarray(records.pulse_index, dtype=np.int64)
    if shot.size < 2:
        raise NormalizationError("need at least two detected events")
    n_shots = int(records.n_shots)
    n_pulses = int(records.n_pulses)
    if np.any((pulse < 0) | (pulse >= n_pulses)):
        raise ValueError("pulse indices fall outside the declared pulse grid")
    if np.any((shot < 0) | (shot >= n_shots)):
        raise ValueError("shot ids fall outside the declared shot count")
    if n_pulses < 2:
        raise NormalizationError("need at least two pulses for a cross-lag")
    n_lags = min(n_lags, n_pulses - 1)

    next_shot, next_pulse = np.diff(shot), np.diff(pulse)
    if np.any((next_shot < 0) | ((next_shot == 0) & (next_pulse < 0))):
        order = np.lexsort((pulse, shot))
        shot, pulse = shot[order], pulse[order]
        next_shot, next_pulse = np.diff(shot), np.diff(pulse)
    first = np.flatnonzero(np.concatenate(
        ([True], (next_shot != 0) | (next_pulse != 0))))
    counts = np.diff(np.append(first, shot.size))      # photons per cell
    shot, pulse = shot[first], pulse[first]

    pair_counts = np.zeros(n_lags + 1, dtype=np.int64)
    pair_counts[0] = np.sum(counts * (counts - 1))
    # cells whose partner k cells on may still be in reach; a cell that
    # has none at k has none further on
    left = np.arange(shot.size)
    for k in range(1, n_lags + 1):
        left = left[left < shot.size - k]
        lag = pulse[left + k] - pulse[left]
        near = (shot[left + k] == shot[left]) & (lag <= n_lags)
        left, lag = left[near], lag[near]
        if not left.size:
            break
        np.add.at(pair_counts, lag, counts[left] * counts[left + k])
    # n_shots * (n_pulses - lag) pulse pairs, rounded once as in int64 -> float
    pair_slots = float(n_shots) * (n_pulses - np.arange(n_lags + 1.0))
    pair_rates = pair_counts / pair_slots
    cross = float(np.mean(pair_rates[1:]))
    if cross == 0.0:
        raise NormalizationError("no cross-lag coincidences: g2(0) undefined")
    return G2Result(
        g2_zero=float(pair_rates[0] / cross),
        lags=np.arange(n_lags + 1),
        pair_rates=pair_rates,
        pair_counts=pair_counts,
    )


# ---------------------------------------------------------------------------
# series I/O and report formatting
# ---------------------------------------------------------------------------

def read_series_csv(path):
    """Read an (x, y[, sigma]) series; a non-numeric first line is a header."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                if line_no == 1:
                    continue
                raise ValueError(f"{path}:{line_no}: non-numeric row {line!r}")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(rows[0])
    if width not in (2, 3) or any(len(r) != width for r in rows):
        raise ValueError(f"{path}: expected 2 or 3 columns throughout")
    data = np.array(rows)
    sigma = data[:, 2] if width == 3 else None
    return data[:, 0], data[:, 1], sigma


def write_csv(path, header, *columns):
    """Write equal-length columns under a comma-separated header line.

    Floats are written with ``.12g``, everything else with ``str()``;
    every CSV the package writes goes through here.  A float, integer or
    bool ndarray is formatted a column at a time, any other column value
    by value; the file is written once.
    """
    def cell(value):
        if isinstance(value, (float, np.floating)):
            return f"{value:.12g}"
        return str(value)

    def cells(column):
        if isinstance(column, np.ndarray) and column.dtype.kind in "fiub":
            return map("{:.12g}".format if column.dtype.kind == "f" else str,
                       column.tolist())
        return map(cell, column)

    lines = map(",".join, zip(*map(cells, columns), strict=True))
    text = "\n".join((header, *lines)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def format_fit_report(result: FitResult) -> str:
    lines = [
        f"model: {result.kind}",
        f"converged: {result.converged}   iterations: {result.iterations}"
        f"   points: {result.n_points}",
        f"residual norm: {result.residual_norm:.12g}",
    ]
    if result.degenerate:
        lines.append("warning: degenerate fit (rank-deficient Jacobian)")
    lines.append("parameter            value            1-sd")
    for name, value in result.params.items():
        sd = result.uncertainties[name]
        lines.append(f"{name:<18} {value:>16.8g} {sd:>16.3g}")
    return "\n".join(lines) + "\n"
