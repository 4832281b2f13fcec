import errno
import io
import json
import math
import os
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from dvfsim import (
    EnergyBreakdown,
    SimReport,
    TaskOutcome,
    TransitionEvent,
    WearLedger,
    simulate,
    write_report,
)
from dvfsim.engine import TracePoint
from dvfsim import reporting
from dvfsim.reporting import TASK_BLOCK, TRACE_HEADER, format_comparison_table, trace_writer
from dvfsim import compare_policies, write_comparison, GovernorPolicy, TransitionPolicy

from helpers import (
    TRACE_ROW,
    load_json,
    make_scenario,
    make_spec,
    make_task,
    make_thermal,
    make_wear,
    report_to_dict,
    trace_probe_scenario,
)
from strategies import specs, workloads


def run_demo():
    sc = make_scenario(tasks=(make_task(cycles=3.6e9, deadline=2.0),), duration=30.0)
    return simulate(sc)


def write_trace_csv(trace, path):
    """Write ``trace`` through ``trace_writer``, each point handed over as a chunk of its own."""
    with trace_writer(path) as write_span:
        for point in trace:
            write_span([point])


def assert_rows_are_the_points(trace, path):
    """Write the trace and check that every row parses back to its point's fields, in order."""
    write_trace_csv(trace, path)
    text = path.read_bytes().decode("utf-8")
    assert text.endswith("\n") and "\r" not in text
    header, *rows = text[:-1].split("\n")
    assert header == TRACE_HEADER
    assert [tuple(map(float, row.split(","))) for row in rows] == [tuple(p) for p in trace]


def trapezoid(xs, ys):
    return sum(0.5 * (ys[i] + ys[i + 1]) * (xs[i + 1] - xs[i]) for i in range(len(xs) - 1))


class TestWriteReport:
    def test_byte_identical_on_rewrite(self, tmp_path):
        report, _ = run_demo()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(report, a)
        write_report(report, b)
        assert a.read_bytes() == b.read_bytes()

    def test_unbounded_lifetime_sentinel(self, tmp_path):
        from dvfsim import WearLedger

        report, _ = run_demo()
        pristine = report._replace(ledger=WearLedger(0.0, 0.0, 30.0), projected_lifetime=math.inf)
        path = tmp_path / "r.json"
        write_report(pristine, path)
        assert load_json(path)["projected_lifetime_s"] == "unbounded"

    def test_energy_round_trips_exactly(self, tmp_path):
        report, _ = run_demo()
        path = tmp_path / "r.json"
        write_report(report, path)
        doc = load_json(path)
        assert doc["energy"]["total_j"] == report.energy.total_j
        assert doc["energy"]["active_j"] == report.energy.active_j
        assert doc["wear"]["shock"] == report.ledger.shock_wear
        assert doc["schema_version"] == 1

    def test_45_92_joules_survives_the_disk(self, tmp_path):
        # the canonical active 41.92 J + idle 4.0 J breakdown
        report, _ = run_demo()
        patched = report.energy.__class__(41.92, 4.0)
        report = report._replace(energy=patched)
        path = tmp_path / "r.json"
        write_report(report, path)
        assert load_json(path)["energy"]["total_j"] == 45.92


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# quotes, backslashes, control characters, non-ASCII and astral characters, lone surrogates
ID_CHARS = st.one_of(
    st.sampled_from('"\\/\x00\x1f\n\t\x7fé€\u2028😀\U0010ffff'), st.characters(exclude_categories=())
)


def make_report(per_task, projected_lifetime=math.inf, values=(1.0,) * 10, log=()) -> SimReport:
    active_j, idle_j, cost, peak, avg, active_s, idle_s, thermal, shock, elapsed = values
    return SimReport(
        energy=EnergyBreakdown(active_j, idle_j),
        cost_usd=cost,
        per_task=tuple(per_task),
        peak_temp=peak,
        avg_temp=avg,
        active_s=active_s,
        idle_s=idle_s,
        ledger=WearLedger(thermal, shock, elapsed),
        projected_lifetime=projected_lifetime,
        transition_log=tuple(log),
    )


@st.composite
def sim_reports(draw):
    """A SimReport with 0-4 task rows, any finite totals, and a bounded or unbounded lifetime."""
    outcome = st.builds(
        TaskOutcome, st.text(ID_CHARS, max_size=8), st.integers(0, 63), FINITE, FINITE, st.booleans(), st.booleans()
    )
    return make_report(
        draw(st.lists(outcome, max_size=4)),
        draw(st.one_of(st.just(math.inf), FINITE)),
        draw(st.tuples(*[FINITE] * 10)),
        draw(st.lists(st.builds(TransitionEvent, FINITE, FINITE, FINITE, FINITE, FINITE), max_size=2)),
    )


class TestReportEncoder:
    @given(sim_reports())
    @example(make_report(()))
    @example(make_report([TaskOutcome('a"\\\x01é😀', 5, 0.0, 1e300, False, True)], 2.5e-300))
    @settings(max_examples=200)
    def test_bytes_match_the_indented_json_encoder(self, tmp_path_factory, report):
        path = tmp_path_factory.mktemp("report") / "r.json"
        write_report(report, path)
        assert path.read_bytes() == (json.dumps(report_to_dict(report), indent=2) + "\n").encode("utf-8")

    @pytest.mark.parametrize("count", [0, 1, TASK_BLOCK - 1, TASK_BLOCK, TASK_BLOCK + 1, 2 * TASK_BLOCK + 1])
    def test_bytes_at_the_block_boundaries(self, tmp_path, count):
        report = make_report(
            TaskOutcome(f'"t\\{i}\x01\u2028é😀', i % 64, i * 0.1, i * 0.1 + 1e-300, i % 3 > 0, i % 5 == 0)
            for i in range(count)
        )
        path = tmp_path / "r.json"
        write_report(report, path)
        assert path.read_bytes() == (json.dumps(report_to_dict(report), indent=2) + "\n").encode("utf-8")


def many_tasks(count):
    return make_report(TaskOutcome(f"task-{i}", i % 6, i * 0.1, i * 0.1 + 0.05, i % 3 > 0, False) for i in range(count))


class TestStreamedReport:
    """write_report renders and writes TASK_BLOCK task rows at a time."""

    def test_memory_for_writing_does_not_grow_with_the_tasks(self, tmp_path):
        report = many_tasks(20_000)  # a 3.8 MB report
        tracemalloc.start()
        try:
            write_report(report, tmp_path / "r.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_an_oserror_after_the_first_block_leaves_no_file(self, tmp_path, monkeypatch):
        class FullAfterOneBlock(io.FileIO):
            def write(self, data):
                if self.tell() > TASK_BLOCK * 100:  # the head and the first block are in the file
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return super().write(data)

        def open_full(file, mode, encoding, newline):
            return io.TextIOWrapper(io.BufferedWriter(FullAfterOneBlock(file, mode)), encoding=encoding, newline=newline)

        monkeypatch.setattr(reporting, "open", open_full, raising=False)
        path = tmp_path / "r.json"
        with pytest.raises(OSError) as failed:
            write_report(many_tasks(3 * TASK_BLOCK), path)
        assert str(failed.value) == f"cannot write {path}: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert not path.exists()

    def test_a_row_that_fails_to_render_removes_the_partial_file(self, tmp_path):
        path = tmp_path / "r.json"
        written = []

        class NotARow:
            def __iter__(self):
                written.append(path.stat().st_size)
                raise ValueError("not a task row")

        report = many_tasks(TASK_BLOCK)
        report = report._replace(per_task=report.per_task + (NotARow(),))
        with pytest.raises(ValueError, match="not a task row"):
            write_report(report, path)
        assert written[0] > TASK_BLOCK * 100  # the head and the first block had reached the file
        assert not path.exists()


class TestWriteTrace:
    def test_empty_trace_is_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace_csv((), path)
        assert path.read_text() == TRACE_HEADER + "\n"

    def test_row_per_point_and_final_newline(self, tmp_path):
        _, trace = run_demo()
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        text = path.read_text()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert len(lines) == len(trace) + 1
        assert lines[0] == "time_s,freq_hz,power_w,temp_c,cum_wear"
        assert "." in lines[1]  # decimal separator

    def test_byte_identical_on_rewrite(self, tmp_path):
        _, trace = run_demo()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(trace, a)
        write_trace_csv(trace, b)
        assert a.read_bytes() == b.read_bytes()

    def test_rows_parse_back_to_the_points(self, tmp_path):
        _, trace = run_demo()
        assert tuple(trace[1]) == (trace[1].time, trace[1].freq, trace[1].power, trace[1].temp, trace[1].cum_wear)
        assert_rows_are_the_points(trace, tmp_path / "t.csv")

    @given(specs(), st.data())
    @settings(max_examples=5, deadline=None)
    def test_rows_parse_back_to_the_points_of_a_workload(self, tmp_path_factory, spec, data):
        tasks = data.draw(workloads(spec, max_tasks=300))
        duration = max(t.deadline for t in tasks)
        _, trace = simulate(make_scenario(spec=spec, tasks=tasks, duration=duration, trace_dt=duration / 1000.0))
        assert_rows_are_the_points(trace, tmp_path_factory.mktemp("trace") / "t.csv")

    def test_trace_power_integral_approximates_report_energy(self):
        sc = trace_probe_scenario()
        report, trace = simulate(sc)
        times = [p.time for p in trace]
        powers = [p.power for p in trace]
        integral = trapezoid(times, powers)
        assert integral == pytest.approx(report.energy.total_j, rel=1e-3)

    def test_trace_integral_converges_as_sampling_shrinks(self):
        import dataclasses

        base = trace_probe_scenario()
        errors = []
        for divisor in (50.0, 200.0):
            sc = dataclasses.replace(base, trace_dt=base.spec.thermal.tau / divisor)
            report, trace = simulate(sc)
            integral = trapezoid([p.time for p in trace], [p.power for p in trace])
            errors.append(abs(integral - report.energy.total_j) / report.energy.total_j)
        assert errors[1] < errors[0]


# any finite float, with both zeros, the extremes and reprs from one character to seventeen digits
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1, -1 / 3, 1e16, 123456789.0]
)


@st.composite
def chunked_traces(draw):
    """TracePoints cut into chunks whose points share one freq and one power, as a run's sink gets them."""
    chunks = []
    for _ in range(draw(st.integers(0, 6))):
        freq, power = draw(finite_floats), draw(finite_floats)
        n = draw(st.integers(1, 12))
        points = [TracePoint(draw(finite_floats), freq, power, draw(finite_floats), draw(finite_floats)) for _ in range(n)]
        cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
        chunks += [points[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    return chunks


class TestTraceWriter:
    @given(chunked_traces())
    # equal freqs that render apart, in adjacent spans: one span's must not be rendered for the other's
    @example([[TracePoint(0.0, 0.0, 1.0, 2.0, 3.0)], [TracePoint(0.5, -0.0, 1.0, 2.0, 3.0)],
              [TracePoint(1.0, 0, 1.0, 2.0, 3.0)]])
    @example([])
    @settings(max_examples=300, deadline=None)
    def test_chunks_give_the_bytes_of_one_row_per_point(self, tmp_path_factory, chunks):
        path = tmp_path_factory.mktemp("trace") / "t.csv"
        with trace_writer(path) as write_span:
            for chunk in chunks:
                write_span(chunk)
        points = [p for chunk in chunks for p in chunk]
        want = (TRACE_HEADER + "\n" + "".join(TRACE_ROW % p for p in points)).encode()
        assert path.read_bytes() == want


class TestComparisonTable:
    def test_lists_policies_and_flags(self):
        sc = make_scenario(tasks=(make_task(cycles=3.24e9, deadline=2.0),), duration=30.0)
        comparison = compare_policies(sc, [TransitionPolicy("direct"), TransitionPolicy("stepped", 0.5)])
        table = format_comparison_table(comparison)
        assert table.splitlines()[0].startswith("policy")
        assert "direct" in table and "stepped:0.5" in table
        assert "newly missed deadlines: t" in table

    def test_a_lifetime_delta_of_minus_infinity_is_minus_unbounded(self, tmp_path):
        # no thermal wear (t_ref far above any temperature) and no shock for a stepped 200 MHz hop (0.2^500
        # underflows): stepped's lifetime is unbounded and direct's, with full-span hops, is not
        spec = make_spec(thermal=make_thermal(t_ref=1e4, l_base=3.6e293), wear=make_wear(alpha=500.0))
        sc = make_scenario(spec=spec, tasks=(make_task(),), governor=GovernorPolicy("fixed", 5))
        for policies, delta, text in (
            (("stepped", "direct"), -math.inf, "-unbounded"),
            (("direct", "stepped"), math.inf, "unbounded"),
        ):
            comparison = compare_policies(sc, [TransitionPolicy(kind) for kind in policies])
            base, other = comparison.runs
            assert math.isinf(base.report.projected_lifetime) == (policies[0] == "stepped")
            assert other.delta_lifetime_s == delta
            header, _, row = format_comparison_table(comparison).splitlines()
            assert header.split()[-1] == "d_lifetime_s"
            assert row.split()[-1] == text
            path = tmp_path / f"{policies[0]}.json"
            write_comparison(comparison, path)
            runs = load_json(path)["policies"]
            assert [r["delta_lifetime_s"] for r in runs] == [0.0, text]
            assert [r["projected_lifetime_s"] == "unbounded" for r in runs] == [delta < 0, delta > 0]
