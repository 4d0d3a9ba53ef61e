import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import duration_report_by_walkers, event_count_by_walkers
from spinshot.montecarlo import BathParams, run_timeline
from spinshot.readout import ReadoutParams
from spinshot.sequence import (_TRANSITION_LABELS, BYTES_PER_EVENT, DETECT, KINDS,
                               MAX_EVENTS, OPTICAL, CompileError, Detect, MwPulse,
                               OpticalPulse, ParseError, Repeat, SequenceProgram,
                               TimelineCapacityError, Wait, _measure, _tokenize,
                               compile_sequence, duration_report, format_sequence,
                               parse_sequence)

CAPACITY_BODIES = ("pulse mw 0MHz 1us 0deg\n pulse optical A 0.02us 1pi",
                   "pulse optical A 0.02us 1pi\n detect 3us",
                   "pulse optical A 0.02us 1pi",
                   "detect 3us")
# run_timeline's own tracemalloc peak for one shot, less 16 bytes per gate
# for the gate times: measured 5.66 MB at 200000 repeats of the MW+optical
# body (numpy 2.4, x86-64), plus 25%
RUN_PEAK_BYTES = 7_080_000

READOUT_TEXT = ("repeat 500 { pulse optical A 0.02us 0.5pi\n"
                " wait 6.88us\n detect 3us }")


class TestParse:
    def test_readout_block(self):
        prog = parse_sequence(READOUT_TEXT)
        assert len(prog.statements) == 1
        block = prog.statements[0]
        assert isinstance(block, Repeat)
        assert block.count == 500
        assert len(block.block) == 3
        pulse, wait, detect = block.block
        assert pulse == OpticalPulse(duration_us=0.02, area_pi=0.5,
                                     transition="A")
        assert wait == Wait(6.88)
        assert detect == Detect(3.0)

    def test_empty_input(self):
        assert parse_sequence("").statements == ()
        assert parse_sequence("  \n# only a comment\n").statements == ()

    def test_missing_unit_cites_location(self):
        with pytest.raises(ParseError) as exc:
            parse_sequence("pulse optical A 0.02 0.5pi")
        msg = str(exc.value)
        assert msg.startswith("<sequence>:1:")
        assert "unit" in msg

    def test_unknown_keyword(self):
        with pytest.raises(ParseError) as exc:
            parse_sequence("blorp 3us")
        assert ":1:" in str(exc.value)

    def test_unbalanced_braces(self):
        with pytest.raises(ParseError, match="expected '}'"):
            parse_sequence("repeat 2 { wait 1us")
        with pytest.raises(ParseError, match="unbalanced"):
            parse_sequence("wait 1us }")

    def test_filename_in_error(self):
        with pytest.raises(ParseError) as exc:
            parse_sequence("wait 1parsec", filename="exp.seq")
        assert str(exc.value).startswith("exp.seq:1:")

    def test_comments_and_blank_lines(self):
        prog = parse_sequence("# comment\n\nwait 5us  # trailing\n")
        assert prog.statements == (Wait(5.0),)

    def test_mw_pulse_units(self):
        prog = parse_sequence("pulse mw 3598MHz 2.3us 90deg")
        (mw,) = prog.statements
        assert mw == MwPulse(frequency_mhz=3598.0, duration_us=2.3,
                             phase_deg=90.0)
        (mw_pi,) = parse_sequence("pulse mw 3.598GHz 2300ns 0.5pi").statements
        assert mw_pi.frequency_mhz == pytest.approx(3598.0)
        assert mw_pi.duration_us == pytest.approx(2.3)
        assert mw_pi.phase_deg == pytest.approx(90.0)

    def test_optical_offset_form(self):
        (p,) = parse_sequence("pulse optical -120MHz 0.1us 1pi").statements
        assert p.transition is None
        assert p.offset_mhz == pytest.approx(-120.0)

    def test_nesting_depth_limit(self):
        text = "repeat 2 { " * 17 + "wait 1us" + " }" * 17
        with pytest.raises(ParseError, match="nesting"):
            parse_sequence(text)
        ok = "repeat 2 { " * 16 + "wait 1us" + " }" * 16
        assert parse_sequence(ok)  # exactly at the limit parses

    def test_zero_repeat_rejected(self):
        with pytest.raises(ParseError):
            parse_sequence("repeat 0 { wait 1us }")

    @pytest.mark.parametrize("text,col", [
        ("wait 1e309us", 6), ("detect 1e400ns", 8),
        ("pulse optical A 1e309us 1pi", 17), ("pulse optical A 1us 1e309pi", 21),
        ("pulse optical 1e306GHz 1us 1pi", 15),
        ("pulse mw 1e309MHz 1us 0deg", 10), ("pulse mw 1MHz 1us 1e307pi", 19),
    ])
    def test_non_finite_literal(self, text, col):
        with pytest.raises(ParseError, match="must be finite") as err:
            parse_sequence(text, filename="x.seq")
        assert (err.value.line, err.value.col) == (1, col)

    def test_statements_carry_origin_outside_equality(self):
        prog = parse_sequence("wait 1us\nrepeat 2 {\n  detect 3us }",
                              filename="x.seq")
        wait, repeat = prog.statements
        assert (wait.origin, repeat.origin) == ("x.seq:1:1", "x.seq:2:1")
        assert repeat.block[0].origin == "x.seq:3:3"
        assert prog == SequenceProgram((Wait(1.0), Repeat(2, (Detect(3.0),))))


# quantity tokens: numbers of every form and scale, glued to a unit, a
# near-unit or nothing, plus free soups of the characters they use
_numbers = st.builds(
    "{}{}{}{}".format, st.sampled_from(["", "+", "-"]),
    st.sampled_from(["0", "3", "0.0", "2.", ".5", "17.25", "1234567", "٣"]),
    st.sampled_from(["", "e0", "e-3", "E+5", "e306", "e307", "e308", "e999",
                     "e-320", "e-324", "e-400", "e", "e+"]),
    st.sampled_from(["us", "ns", "MHz", "GHz", "deg", "pi", "", "x", "usx",
                     "Us", "mhz", "pipi", "nss", "e"]))
_quantity_tokens = st.one_of(
    _numbers, st.text("0123456789.+-eEusnMHzGdgpiAD٣", min_size=1, max_size=10))
_EDGE_TOKENS = ["-0.0ns", "1e-400us", "1e999us", "1e306GHz", "1e306pi", "3usx",
                "3", "A", "D", "E", "-5e-324ns", "-1e999ns", "1e-320ns"]

# (template with one slot, statement field(s) the slot sets, tokens before
# the slot, parent reader)
_SLOTS = {
    "wait": ("wait {}", ("duration_us",), 1,
             lambda s: oracles._parse_duration(s, "wait duration")),
    "detect": ("detect {}", ("window_us",), 1,
               lambda s: oracles._parse_duration(s, "detection window")),
    "pulse duration": ("pulse mw 1MHz {} 0deg", ("duration_us",), 3,
                       lambda s: oracles._parse_duration(s, "pulse duration")),
    "frequency": ("pulse mw {} 1us 0deg", ("frequency_mhz",), 2,
                  lambda s: oracles._parse_frequency_mhz(s, "drive frequency")),
    "phase": ("pulse mw 1MHz 1us {}", ("phase_deg",), 4,
              oracles._parse_phase_deg),
    "area": ("pulse optical A 1us {}", ("area_pi",), 4, oracles._parse_area),
    "optical target": ("pulse optical {} 1us 1pi", ("transition", "offset_mhz"),
                       2, oracles._parse_optical_target),
}


def _bits(value):
    return value.hex() if isinstance(value, float) else value


class TestReadersMatchParent:
    """The one-regex lexer and the unit-table quantity reader give the
    parent's tokens, values (bit for bit) and ParseError messages."""

    @given(text=st.text(" \t\n\r\x0b\x0c\x85\u2028{}#ab1.u", max_size=40))
    @settings(max_examples=400)
    def test_tokens(self, text):
        old = [(t.text, t.line, t.col) for t in oracles._tokenize(text, "f")]
        assert [(t.text, t.line, t.col) for t in _tokenize(text)] == old

    @pytest.mark.parametrize("text", [
        "repeat 2{wait 1us}", "}{{x}}y{", "\twait\t3us # c {\n\t}",
        "a#b{\n#\n{#}", "x\r\ny\x0bz\u2028{"])
    def test_tokens_glued_braces_tabs_comments(self, text):
        old = [(t.text, t.line, t.col) for t in oracles._tokenize(text, "f")]
        assert [(t.text, t.line, t.col) for t in _tokenize(text)] == old

    @staticmethod
    def _old(template, skip, reader, token):
        text = template.format(token)
        stream = oracles._TokenStream(oracles._tokenize(text, "f.seq"), "f.seq")
        stream.pos = skip
        try:
            result = reader(stream)
        except ParseError as exc:
            return str(exc)
        return tuple(map(_bits, result if isinstance(result, tuple) else (result,)))

    @staticmethod
    def _new(template, fields, token):
        try:
            (stmt,) = parse_sequence(template.format(token), "f.seq").statements
        except ParseError as exc:
            return str(exc)
        return tuple(_bits(getattr(stmt, name)) for name in fields)

    @pytest.mark.parametrize("kind", sorted(_SLOTS))
    @given(token=_quantity_tokens)
    @settings(max_examples=300)
    def test_quantities(self, kind, token):
        template, fields, skip, reader = _SLOTS[kind]
        assert (self._new(template, fields, token)
                == self._old(template, skip, reader, token))

    @pytest.mark.parametrize("kind", sorted(_SLOTS))
    def test_quantity_edge_cases(self, kind):
        template, fields, skip, reader = _SLOTS[kind]
        # an empty last slot ends the input
        for token in _EDGE_TOKENS + [""] * template.endswith("{}"):
            assert (self._new(template, fields, token)
                    == self._old(template, skip, reader, token)), token


# strategies for random programs (idempotence property)
durations = st.floats(min_value=0.001, max_value=500.0,
                      allow_nan=False, allow_infinity=False)
leaf = st.one_of(
    st.builds(Wait, durations),
    st.builds(Detect, durations),
    st.builds(MwPulse, st.floats(min_value=-5000, max_value=5000),
              durations, st.floats(min_value=-360, max_value=360)),
    st.builds(OpticalPulse, durations,
              st.floats(min_value=0.1, max_value=4.0),
              st.sampled_from(["A", "B", "C", "D"])),
    st.builds(lambda d, a, off: OpticalPulse(d, a, offset_mhz=off),
              durations, st.floats(min_value=0.1, max_value=4.0),
              st.floats(min_value=-2000, max_value=2000)),
)
statements = st.recursive(
    leaf,
    lambda inner: st.builds(
        Repeat, st.integers(min_value=1, max_value=5),
        st.lists(inner, min_size=1, max_size=4).map(tuple)),
    max_leaves=12)


class TestPrintRoundTrip:
    @given(stmts=st.lists(statements, max_size=6).map(tuple))
    @settings(max_examples=80)
    def test_parse_print_parse_idempotent(self, stmts):
        prog = SequenceProgram(stmts)
        text = format_sequence(prog)
        reparsed = parse_sequence(text)
        assert reparsed == prog
        assert format_sequence(reparsed) == text

    def test_example_round_trip(self):
        prog = parse_sequence(READOUT_TEXT)
        assert parse_sequence(format_sequence(prog)) == prog


class TestCompile:
    def test_readout_unrolls_to_1500_events(self):
        tl = compile_sequence(parse_sequence(READOUT_TEXT))
        assert len(tl.start_us) == len(tl.row) == 1500
        assert tl.total_duration_us == pytest.approx(500 * 9.9)

    def test_period_padded_to_10us(self):
        text = ("repeat 500 { pulse optical A 0.02us 0.5pi\n"
                " wait 6.98us\n detect 3us }")
        tl = compile_sequence(parse_sequence(text))
        assert tl.total_duration_us == pytest.approx(5000.0)

    def test_pump_probe_event_count(self):
        text = ("repeat 500 { pulse optical C 0.1us 1pi\n wait 1us }\n"
                "pulse optical A 0.2us 1pi\ndetect 3us")
        tl = compile_sequence(parse_sequence(text))
        assert len(tl.start_us) == 1002
        kinds = tl.table.kind[tl.row]
        assert np.count_nonzero(kinds == OPTICAL) == 501
        assert np.count_nonzero(kinds == DETECT) == 1

    def test_single_wait(self):
        tl = compile_sequence(parse_sequence("repeat 1 { wait 5us }"))
        assert len(tl.start_us) == 1
        assert tl.total_duration_us == pytest.approx(5.0)

    def test_label_without_transitions_stays_symbolic(self):
        tl = compile_sequence(parse_sequence("pulse optical A 0.02us 1pi"))
        (row,) = tl.row
        assert tl.table.kind[row] == OPTICAL
        assert _TRANSITION_LABELS[tl.table.label[row]] == "A"
        assert np.isnan(tl.table.offset_mhz[row])

    @given(stmts=st.lists(leaf, min_size=1, max_size=8).map(tuple),
           reps=st.integers(min_value=1, max_value=6))
    @settings(max_examples=60)
    def test_times_sorted_and_durations_sum(self, stmts, reps):
        prog = SequenceProgram((Repeat(reps, stmts),))
        tl = compile_sequence(prog)
        starts = tl.start_us.tolist()
        assert starts == sorted(starts)
        total = sum(tl.table.duration_us[tl.row].tolist())
        assert tl.total_duration_us == pytest.approx(total, rel=1e-12)
        assert len(starts) == reps * len(stmts)

    @pytest.mark.parametrize("text,where", [
        ("pulse optical A 1e308us 1pi\npulse optical A 1e308us 1pi\n"
         "detect 3us\n", "x.seq:2:1: event 1 starts at 1e+308 us"),
        ("repeat 3 {\n wait 1us\n repeat 2 { pulse optical A 8e307us 1pi\n"
         " detect 3us }\n}\n", "x.seq:3:13: event 6 starts at 1.6e+308 us"),
        ("wait 1.7e308us\nrepeat 1000 { wait 1e305us }\n",
         "x.seq:2:15: event 98 starts at 1.797e+308 us"),
    ])
    def test_time_overflow_is_compile_error(self, text, where):
        program = parse_sequence(text, filename="x.seq")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CompileError, match="past the largest finite time") as err:
                compile_sequence(program)
        assert str(err.value).startswith(where)

    def test_large_finite_times_compile(self):
        program = parse_sequence("pulse optical A 8e307us 1pi\n"
                                 "pulse optical A 8e307us 1pi\ndetect 3us\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            timeline = compile_sequence(program)
        assert timeline.total_duration_us == 1.6e308 + 3.0

    def test_capacity_error(self):
        text = "repeat 4000 { repeat 4000 { wait 1us } }"
        with pytest.raises(TimelineCapacityError):
            compile_sequence(parse_sequence(text))

    def test_capacity_checked_before_allocation(self):
        over = parse_sequence(f"repeat {MAX_EVENTS + 1} {{ wait 1us }}")
        huge = parse_sequence("repeat 1000000 { repeat 1000000 { wait 1us } }")
        for program, count in ((over, MAX_EVENTS + 1), (huge, 10 ** 12)):
            tracemalloc.start()
            with pytest.raises(TimelineCapacityError, match=f"{count} events"):
                compile_sequence(program)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 1 << 20

    @pytest.mark.parametrize("body,repeats", [
        # ids as the body alone where the program repeats it 20000 times
        *(pytest.param(body, 20_000, id=body) for body in CAPACITY_BODIES),
        pytest.param(CAPACITY_BODIES[0], 200_000, id="200000 x mw+optical"),
    ])
    def test_capacity_covers_compile_and_one_shot_block(self, body, repeats):
        # MAX_EVENTS is sized from BYTES_PER_EVENT: the peak of compiling
        # and running one shot must stay below it.  run_timeline's own peak,
        # with the timeline compiled, holds one segment and the gate times,
        # whatever the length of the program
        program = parse_sequence(f"repeat {repeats} {{ {body} }}")
        params = ReadoutParams(n_pulses=1, p_excite=0.78, eta_detect=0.1,
                               flip_bright=0.004, flip_dark=0.004,
                               dark_rate=5000.0)
        tracemalloc.start()
        try:
            tl = compile_sequence(program)
            compiled = tracemalloc.get_traced_memory()[0]
            run_timeline(tl, params, BathParams(), shots=1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        gates = int(np.count_nonzero(tl.table.kind[tl.row] == DETECT))
        assert peak <= BYTES_PER_EVENT * len(tl.start_us)
        assert peak - compiled <= RUN_PEAK_BYTES + 16 * gates
        assert MAX_EVENTS * BYTES_PER_EVENT <= 512 << 20

    def test_gates_accessor(self):
        tl = compile_sequence(parse_sequence(READOUT_TEXT))
        gates = tl.start_us[tl.table.kind[tl.row] == DETECT]
        assert len(gates) == 500
        assert gates[:2] == pytest.approx([6.9, 16.8])


def _unroll_by_cursor(statements, out, cursor=0.0):
    """Reference compile: (start, leaf statement) per event, with start
    times from a running `cursor +=` sum."""
    for stmt in statements:
        if isinstance(stmt, Repeat):
            for _ in range(stmt.count):
                cursor = _unroll_by_cursor(stmt.block, out, cursor)
            continue
        out.append((cursor, stmt))
        cursor += stmt.window_us if isinstance(stmt, Detect) else stmt.duration_us
    return cursor


def _statement_columns(stmt):
    """A leaf statement's StatementTable row, read off its fields: kind,
    label, then duration, area, offset, frequency and phase as hex, 0 (NaN
    for the offset) where a field does not apply."""
    nan = float("nan")
    if isinstance(stmt, OpticalPulse):
        offset = nan if stmt.offset_mhz is None else stmt.offset_mhz
        values = ("optical", stmt.transition, stmt.duration_us, stmt.area_pi,
                  offset, 0.0, 0.0)
    elif isinstance(stmt, MwPulse):
        values = ("mw", None, stmt.duration_us, 0.0, nan, stmt.frequency_mhz,
                  stmt.phase_deg)
    elif isinstance(stmt, Wait):
        values = ("wait", None, stmt.duration_us, 0.0, nan, 0.0, 0.0)
    else:
        values = ("detect", None, stmt.window_us, 0.0, nan, 0.0, 0.0)
    return values[:2] + tuple(float(x).hex() for x in values[2:])


def _table_columns(table, row):
    """Row ``row`` of a StatementTable in _statement_columns' form."""
    label = int(table.label[row])
    return (KINDS[table.kind[row]],
            _TRANSITION_LABELS[label] if label >= 0 else None,
            *(float(getattr(table, name)[row]).hex() for name in
              ("duration_us", "area_pi", "offset_mhz", "frequency_mhz", "phase_deg")))


class TestColumnarTimeline:
    @given(stmts=st.lists(statements, min_size=1, max_size=6).map(tuple))
    @settings(max_examples=80)
    def test_matches_cursor_unrolling_bit_for_bit(self, stmts):
        tl = compile_sequence(SequenceProgram(stmts))
        want = []
        total = _unroll_by_cursor(stmts, want)
        assert len(tl.start_us) == len(tl.row) == len(want)
        assert tl.total_duration_us.hex() == total.hex()
        for start, row, (want_start, stmt) in zip(tl.start_us.tolist(),
                                                  tl.row.tolist(), want):
            assert start.hex() == want_start.hex()
            assert _table_columns(tl.table, row) == _statement_columns(stmt)

    def test_one_table_row_per_leaf_statement(self):
        tl = compile_sequence(parse_sequence(READOUT_TEXT))
        assert len(tl.table.kind) == 3
        assert tl.row.tolist() == [0, 1, 2] * 500
        assert [KINDS[k] for k in tl.table.kind] == ["optical", "wait", "detect"]

    def test_columns_are_read_only(self):
        tl = compile_sequence(parse_sequence(READOUT_TEXT))
        for column in (tl.start_us, tl.row, *vars(tl.table).values()):
            with pytest.raises(ValueError):
                column[0] = 1

    def test_empty_program(self):
        tl = compile_sequence(parse_sequence(""))
        assert len(tl.start_us) == 0 and tl.total_duration_us == 0.0


class TestDurationReport:
    @given(stmts=st.lists(statements, min_size=1, max_size=6).map(tuple))
    @settings(max_examples=120)
    def test_fold_matches_tree_walkers_bit_for_bit(self, stmts):
        program = SequenceProgram(stmts)
        count = event_count_by_walkers(program)
        assert _measure(stmts)[0] == len(compile_sequence(program).start_us) == count
        for max_rate in (False, True):
            report = duration_report(program, max_rate=max_rate)
            total_ms, blocks = duration_report_by_walkers(program, max_rate)
            assert report.total_ms.hex() == total_ms.hex()
            assert [(b.period_us.hex(), b.total_us.hex()) for b in report.blocks] \
                == [(period.hex(), total.hex()) for period, total in blocks]

    def test_nominal_readout_duration(self):
        text = ("repeat 71 { pulse optical A 0.02us 1pi\n"
                " detect 3us\n wait 6.98us }")
        rep = duration_report(parse_sequence(text))
        assert rep.total_ms == pytest.approx(0.71, abs=1e-12)

    def test_max_rate_duration(self):
        text = ("repeat 71 { pulse optical A 0.02us 1pi\n"
                " detect 3us\n wait 6.98us }")
        rep = duration_report(parse_sequence(text), max_rate=True)
        # period collapses to pulse + gate + 0.08 us overhead = 3.1 us
        assert rep.total_ms == pytest.approx(71 * 3.1e-3, rel=1e-12)
        assert round(rep.total_ms, 2) == 0.22

    def test_empty_program(self):
        rep = duration_report(parse_sequence(""))
        assert rep.total_ms == 0.0

    def test_max_rate_leaves_gateless_blocks_alone(self):
        text = "repeat 10 { pulse optical A 0.02us 1pi\n wait 1us }"
        assert duration_report(parse_sequence(text), max_rate=True).total_ms \
            == duration_report(parse_sequence(text)).total_ms

    def test_block_breakdown(self):
        text = ("repeat 3 { wait 2us }\nwait 4us\n"
                "repeat 2 { pulse optical A 1us 1pi\n detect 1us }")
        rep = duration_report(parse_sequence(text))
        assert rep.total_ms == pytest.approx((6 + 4 + 4) * 1e-3)
        assert any(b.repetitions == 3 for b in rep.blocks)
