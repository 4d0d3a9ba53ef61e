"""Pulse-sequence DSL: parser, pretty printer, compiler, duration report.

Grammar (see docs/sequence_grammar.ebnf):

    pulse optical <A|B|C|D|offset MHz/GHz> <duration us/ns> <area pi>
    pulse mw <frequency MHz/GHz> <duration us/ns> <phase deg|pi>
    wait <duration us/ns>
    detect <window us/ns>
    repeat <count> { <statements> }

`#` starts a comment; units are mandatory.  Compilation unrolls repeat
blocks into a flat, strictly sequential Timeline.  Its StatementTable
holds one row per leaf statement, and each event only its start time
and its row, so event i's parameters are ``table.<column>[row[i]]``.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ParseError",
    "CompileError",
    "TimelineCapacityError",
    "OpticalPulse",
    "MwPulse",
    "Wait",
    "Detect",
    "Repeat",
    "SequenceProgram",
    "StatementTable",
    "Timeline",
    "KINDS",
    "BlockTiming",
    "DurationReport",
    "parse_sequence",
    "format_sequence",
    "compile_sequence",
    "duration_report",
    "MAX_EVENTS",
    "BYTES_PER_EVENT",
    "MAX_NESTING",
    "DEFAULT_OVERHEAD_US",
]

# Rated peak bytes per event of compile_sequence plus one single-shot block
# of run_timeline.  The timeline keeps 12 (start time and statement row),
# compiling adds 8 while it sums the starts, and run_timeline adds 16 per
# gate, 4 per optical pulse, gate and MW pulse, and one segment of at most
# TIMELINE_BLOCK_CELLS cells, about 4.3 MB with MW pulses.  Measured peaks
# (numpy 2.4, x86-64): 27 per event at 200000 MW+optical repeats, 36 at
# 200000 gates, 143 at 20000 MW+optical repeats, where the segment
# dominates.  MAX_EVENTS holds a program near 512 MiB; each further
# executor thread adds a block.
BYTES_PER_EVENT = 240
MAX_EVENTS = (512 << 20) // BYTES_PER_EVENT
MAX_NESTING = 16
# switching overhead between one pulse+gate cycle and the next at max rate
DEFAULT_OVERHEAD_US = 0.08

_TRANSITION_LABELS = ("A", "B", "C", "D")


class ParseError(ValueError):
    def __init__(self, filename, line, col, message):
        super().__init__(f"{filename}:{line}:{col}: {message}")
        self.filename = filename
        self.line = line
        self.col = col


class CompileError(ValueError):
    pass


class TimelineCapacityError(CompileError):
    pass


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

# every statement's ``origin`` is "file:line:col" of its keyword when
# parsed; it takes no part in equality
def _origin():
    return field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class OpticalPulse:
    duration_us: float
    area_pi: float
    transition: str | None = None     # one of A-D
    offset_mhz: float | None = None   # literal detuning instead of a label
    origin: str | None = _origin()


@dataclass(frozen=True)
class MwPulse:
    frequency_mhz: float
    duration_us: float
    phase_deg: float
    origin: str | None = _origin()


@dataclass(frozen=True)
class Wait:
    duration_us: float
    origin: str | None = _origin()


@dataclass(frozen=True)
class Detect:
    window_us: float
    origin: str | None = _origin()


@dataclass(frozen=True)
class Repeat:
    count: int
    block: tuple
    origin: str | None = _origin()


@dataclass(frozen=True)
class SequenceProgram:
    statements: tuple = ()


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(r"[{}]|[^\s{}]+")


def _tokenize(text: str):
    """A brace, or a maximal run of other non-space characters, per
    comment-stripped line."""
    return [_Token(m.group(), line_no, m.start() + 1)
            for line_no, raw in enumerate(text.splitlines(), start=1)
            for m in _TOKEN_RE.finditer(raw.split("#", 1)[0])]


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

    def origin(self, tok: _Token) -> str:
        return f"{self.filename}:{tok.line}:{tok.col}"


_QUANTITY_RE = re.compile(r"([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(.*)")
_COUNT_RE = re.compile(r"^0*[1-9]\d*$")     # an integer >= 1
# unit -> factor to the stored unit
_DURATION_US = {"us": 1, "ns": 1e-3}
_FREQUENCY_MHZ = {"MHz": 1, "GHz": 1e3}
_PHASE_DEG = {"deg": 1, "pi": 180}
_AREA_PI = {"pi": 1}


def _quantity(stream, what, units, nonnegative=False, tok=None, wording=None):
    """A number glued to one of ``units``, converted to the stored unit,
    where it must be finite.  ``tok`` is the token if already consumed;
    ``wording`` replaces ``what`` in the "expected" message."""
    expected = f"{wording or what} with unit {'|'.join(units)}"
    tok = tok or stream.next(expected)
    m = _QUANTITY_RE.fullmatch(tok.text)
    if not m or m.group(2) not in units:
        stream.error(tok, f"expected {expected}, got {tok.text!r}")
    number = float(m.group(1))
    value = number * units[m.group(2)]
    if not math.isfinite(value):
        stream.error(tok, f"{what} must be finite, got {tok.text!r}")
    # the sign as written: "-5e-324ns" converts to -0.0
    if nonnegative and number < 0:
        stream.error(tok, f"{what} must be >= 0")
    return value


def _parse_statements(stream, depth):
    if depth > MAX_NESTING:
        tok = stream.peek() or stream.last
        stream.error(tok, f"nesting depth exceeds {MAX_NESTING}")
    statements = []
    while True:
        tok = stream.peek()
        if tok is None or tok.text == "}":
            return tuple(statements)
        stream.pos += 1
        origin = stream.origin(tok)
        if tok.text == "pulse":
            statements.append(_parse_pulse(stream, origin))
        elif tok.text == "wait":
            statements.append(Wait(_duration(stream, "wait duration"), origin))
        elif tok.text == "detect":
            statements.append(Detect(_duration(stream, "detection window"), origin))
        elif tok.text == "repeat":
            statements.append(_parse_repeat(stream, depth, origin))
        else:
            stream.error(tok, f"unknown keyword {tok.text!r}")


def _duration(stream, what):
    return _quantity(stream, what, _DURATION_US, nonnegative=True)


def _parse_pulse(stream, origin):
    kind = stream.next("channel optical|mw")
    if kind.text == "optical":
        target = stream.next("transition label A-D or detuning with unit")
        transition = offset = None
        if target.text in _TRANSITION_LABELS:
            transition = target.text
        else:
            offset = _quantity(stream, "detuning", _FREQUENCY_MHZ, tok=target,
                               wording="transition label A-D or detuning")
        duration = _duration(stream, "pulse duration")
        area = _quantity(stream, "pulse area", _AREA_PI, nonnegative=True)
        return OpticalPulse(duration_us=duration, area_pi=area,
                            transition=transition, offset_mhz=offset,
                            origin=origin)
    if kind.text == "mw":
        frequency = _quantity(stream, "drive frequency", _FREQUENCY_MHZ)
        duration = _duration(stream, "pulse duration")
        phase = _quantity(stream, "phase", _PHASE_DEG)
        return MwPulse(frequency_mhz=frequency, duration_us=duration,
                       phase_deg=phase, origin=origin)
    stream.error(kind, f"expected channel optical|mw, got {kind.text!r}")


def _parse_repeat(stream, depth, origin):
    count_tok = stream.next("repeat count")
    if not _COUNT_RE.match(count_tok.text):
        stream.error(count_tok, f"expected a repeat count >= 1, got {count_tok.text!r}")
    count = int(count_tok.text)
    brace = stream.next("'{'")
    if brace.text != "{":
        stream.error(brace, f"expected '{{' after repeat count, got {brace.text!r}")
    block = _parse_statements(stream, depth + 1)
    closing = stream.next("'}'")
    if closing.text != "}":
        stream.error(closing, f"expected '}}', got {closing.text!r}")
    return Repeat(count=count, block=block, origin=origin)


def parse_sequence(text: str, filename: str = "<sequence>") -> SequenceProgram:
    """Parse DSL text; raises ParseError pointing at file:line:col."""
    stream = _TokenStream(_tokenize(text), filename)
    # depth counts enclosing repeat blocks: top level is 0, so up to
    # MAX_NESTING nested repeats are accepted
    statements = _parse_statements(stream, depth=0)
    tok = stream.peek()
    if tok is not None:   # can only be a stray '}'
        stream.error(tok, "unbalanced '}'")
    return SequenceProgram(statements=statements)


# ---------------------------------------------------------------------------
# pretty printer (canonical form; parse(format(parse(x))) == parse(x))
# ---------------------------------------------------------------------------

def _format_statement(stmt, indent):
    pad = "  " * indent
    if isinstance(stmt, OpticalPulse):
        target = stmt.transition if stmt.transition else f"{stmt.offset_mhz!s}MHz"
        return [f"{pad}pulse optical {target} {stmt.duration_us!s}us {stmt.area_pi!s}pi"]
    if isinstance(stmt, MwPulse):
        return [f"{pad}pulse mw {stmt.frequency_mhz!s}MHz "
                f"{stmt.duration_us!s}us {stmt.phase_deg!s}deg"]
    if isinstance(stmt, Wait):
        return [f"{pad}wait {stmt.duration_us!s}us"]
    if isinstance(stmt, Detect):
        return [f"{pad}detect {stmt.window_us!s}us"]
    if isinstance(stmt, Repeat):
        lines = [f"{pad}repeat {stmt.count} {{"]
        for inner in stmt.block:
            lines.extend(_format_statement(inner, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    raise TypeError(f"unknown statement {stmt!r}")


def format_sequence(program: SequenceProgram) -> str:
    lines = []
    for stmt in program.statements:
        lines.extend(_format_statement(stmt, 0))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# compiler
# ---------------------------------------------------------------------------

KINDS = ("optical", "mw", "wait", "detect")
OPTICAL, MW, WAIT, DETECT = range(len(KINDS))


# dtype of each StatementTable column, in _event_row order
_DTYPES = (np.float64, np.int8, np.int8, np.float64, np.float64, np.float64,
           np.float64)


@dataclass(frozen=True, eq=False)
class StatementTable:
    """One row per leaf statement of a program, in source order.

    Parameter columns hold 0 (NaN for ``offset_mhz``) where they do not
    apply to a row's kind.
    """
    duration_us: np.ndarray
    kind: np.ndarray            # int8 index into KINDS
    label: np.ndarray           # int8 index into A-D; -1 unless a labelled optical pulse
    area_pi: np.ndarray         # optical pulse area
    offset_mhz: np.ndarray      # literal optical detuning
    frequency_mhz: np.ndarray   # MW drive offset
    phase_deg: np.ndarray       # MW phase


@dataclass(frozen=True, eq=False)
class Timeline:
    """Flat event timeline: per event its start time and the row of the
    statement that emits it in ``table``, 12 bytes an event.

    Each leaf statement's parameters are stored once, in its table row,
    however often a repeat unrolls it; there is no per-event object.
    """
    start_us: np.ndarray        # float64
    row: np.ndarray             # int32 index into table
    table: StatementTable
    total_duration_us: float

    # ``start_us`` under the name the benchmark tracer counts
    events = property(lambda self: self.start_us)


def _event_row(stmt) -> tuple:
    """One statement's values in StatementTable column order."""
    nan = math.nan
    if isinstance(stmt, OpticalPulse):
        label = (_TRANSITION_LABELS.index(stmt.transition) if stmt.transition
                 else -1)
        offset = stmt.offset_mhz if stmt.offset_mhz is not None else nan
        return (stmt.duration_us, OPTICAL, label, stmt.area_pi, offset, 0.0, 0.0)
    if isinstance(stmt, MwPulse):
        return (stmt.duration_us, MW, -1, 0.0, nan, stmt.frequency_mhz,
                stmt.phase_deg)
    if isinstance(stmt, Wait):
        return (stmt.duration_us, WAIT, -1, 0.0, nan, 0.0, 0.0)
    if isinstance(stmt, Detect):
        return (stmt.window_us, DETECT, -1, 0.0, nan, 0.0, 0.0)
    raise TypeError(f"unknown statement {stmt!r}")


def _compile_block(statements, leaves) -> np.ndarray:
    """Statement rows of one pass through ``statements``; each leaf
    statement is appended to ``leaves``, its row the index it lands at,
    and each repeat body is compiled once and tiled."""
    parts = []
    for stmt in statements:
        if isinstance(stmt, Repeat):
            parts.append(np.tile(_compile_block(stmt.block, leaves), stmt.count))
        else:
            parts.append(np.array([len(leaves)], dtype=np.int32))
            leaves.append(stmt)
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts or [np.zeros(0, dtype=np.int32)])


def _measure(statements) -> tuple:
    """(events, duration, pulse time, gate time) of one pass through
    ``statements`` with every repeat unrolled; a wait adds to the
    duration only.  Each sum runs in statement order from zero."""
    totals = [0, 0.0, 0.0, 0.0]
    for stmt in statements:
        if isinstance(stmt, Repeat):
            part = [stmt.count * x for x in _measure(stmt.block)]
        else:
            duration, kind = _event_row(stmt)[:2]
            part = (1, duration, duration if kind in (OPTICAL, MW) else 0.0,
                    duration if kind == DETECT else 0.0)
        totals = [total + x for total, x in zip(totals, part)]
    return tuple(totals)


def compile_sequence(program: SequenceProgram) -> Timeline:
    """Unroll to a flat event timeline with absolute start times.

    Each leaf statement becomes one row of the timeline's statement
    table, and each event stores only its start and its row.  Optical
    labels A-D stay symbolic.  The event count is checked against
    MAX_EVENTS before anything is allocated.  A time that overflows the
    float range is a CompileError naming the statement of the first
    event that ends past it.
    """
    total_events = _measure(program.statements)[0]
    if total_events > MAX_EVENTS:
        raise TimelineCapacityError(
            f"unrolled sequence has {total_events} events, "
            f"exceeding the capacity of {MAX_EVENTS}")
    leaves = []
    row = _compile_block(program.statements, leaves)
    columns = zip(*map(_event_row, leaves)) if leaves else [()] * len(_DTYPES)
    table = StatementTable(*map(np.array, columns, _DTYPES))
    durations = table.duration_us[row]
    # np.cumsum adds in order, so each start has the bits of a running sum
    start = np.zeros(total_events)
    with np.errstate(over="ignore"):
        np.cumsum(durations[:-1], out=start[1:])
        total = float(start[-1] + durations[-1]) if total_events else 0.0
    if not math.isfinite(total):
        with np.errstate(over="ignore"):
            i = int(np.argmin(np.isfinite(start + durations)))
        raise CompileError(
            f"{leaves[row[i]].origin or '<sequence>'}: event {i} starts at "
            f"{start[i]:g} us and ends past the largest finite time")
    for column in (start, row, *vars(table).values()):
        column.flags.writeable = False
    return Timeline(start_us=start, row=row, table=table, total_duration_us=total)


# ---------------------------------------------------------------------------
# duration report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockTiming:
    label: str
    repetitions: int
    period_us: float
    total_us: float


@dataclass(frozen=True)
class DurationReport:
    total_ms: float
    blocks: tuple


def duration_report(program: SequenceProgram,
                    max_rate: bool = False) -> DurationReport:
    """Wall-clock totals per top-level block.

    ``max_rate`` recomputes every repeat block that pairs pulses with
    detection gates at its fastest repetition period, pulse + gate +
    DEFAULT_OVERHEAD_US of switching, dropping the waits.
    """
    blocks = []
    total_us = 0.0
    for i, stmt in enumerate(program.statements):
        if isinstance(stmt, Repeat):
            label = f"block {i}: repeat x{stmt.count}"
            _, period, pulse, gate = _measure(stmt.block)
            if max_rate and pulse > 0 and gate > 0:
                period = pulse + gate + DEFAULT_OVERHEAD_US
            block_total = stmt.count * period
            blocks.append(BlockTiming(label, stmt.count, period, block_total))
        else:
            label = f"block {i}: {type(stmt).__name__.lower()}"
            block_total = _event_row(stmt)[0]
            blocks.append(BlockTiming(label, 1, block_total, block_total))
        total_us += block_total
    return DurationReport(total_ms=total_us * 1e-3, blocks=tuple(blocks))
