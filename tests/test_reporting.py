import errno
import io
import json
import math
import os
import resource
import threading
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from dvfsim import (
    DomainError,
    EnergyBreakdown,
    SimReport,
    TaskOutcome,
    TransitionEvent,
    WearLedger,
    load_scenario,
    run_scenario,
    simulate,
    write_report,
)
from dvfsim import engine, reporting
from dvfsim.reporting import TASK_BLOCK, TRACE_HEADER, format_comparison_table, trace_writer
from dvfsim import compare_policies, write_comparison, GovernorPolicy, TransitionPolicy

from helpers import (
    SCENARIO_DIR,
    TRACE_ROW,
    joined_points,
    load_json,
    make_scenario,
    make_spec,
    make_task,
    make_thermal,
    make_wear,
    report_to_dict,
    trace_probe_scenario,
)


def trapezoid(xs, ys):
    return sum(0.5 * (ys[i] + ys[i + 1]) * (xs[i + 1] - xs[i]) for i in range(len(xs) - 1))


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


class TestTracePowerIntegral:
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
    """Spans' trace points cut into chunks of (freq, power, times, temps, wears), as a run's sink gets them."""
    chunks = []
    for _ in range(draw(st.integers(0, 6))):
        freq, power = draw(finite_floats), draw(finite_floats)
        n = draw(st.integers(1, 12))
        columns = [[draw(finite_floats) for _ in range(n)] for _ in range(3)]
        cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
        chunks += [(freq, power, *(column[a:b] for column in columns)) for a, b in zip([0, *cuts], [*cuts, n])]
    return chunks


class TestTraceWriter:
    @given(chunked_traces(), st.sampled_from([1, 5, engine.TRACE_CHUNK]))
    # equal freqs that render apart, in adjacent spans: one span's must not be rendered for the other's; with a
    # switch after one row, the child renders the last two from what the pipe carried
    @example([(0.0, 1.0, [0.0], [2.0], [3.0]), (-0.0, 1.0, [0.5], [2.0], [3.0]), (0, 1.0, [1.0], [2.0], [3.0])], 1)
    @example([], 1)
    @settings(max_examples=300, deadline=None)
    def test_chunks_give_the_bytes_of_one_row_per_point(self, tmp_path_factory, chunks, switch):
        path = tmp_path_factory.mktemp("trace") / "t.csv"
        with mock.patch.object(engine, "TRACE_CHUNK", switch), trace_writer(path) as write_span:
            for chunk in chunks:
                write_span(*chunk)
        want = (TRACE_HEADER + "\n" + "".join(TRACE_ROW % p for p in joined_points(chunks))).encode()
        assert path.read_bytes() == want


LONG = replace(load_scenario(SCENARIO_DIR / "turion6.json"), trace_dt=0.01)  # 12,001 rows, past TRACE_CHUNK


def long_chunks():
    chunks = []
    run_scenario(LONG, lambda *chunk: chunks.append(chunk))
    return chunks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def file_size_limit(limit):
    """A function that limits the files the calling process writes to ``limit`` bytes."""
    hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
    return lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))


@contextmanager
def counted_forks(in_child=None):
    """``os.fork`` counted, as a mock; a child it makes first calls ``in_child``."""
    fork = os.fork

    def forked():
        pid = fork()
        if pid == 0 and in_child is not None:
            try:
                in_child()
            except BaseException:
                os._exit(1)  # the child must never run on into the test
        return pid

    with mock.patch.object(os, "fork", side_effect=forked) as spy:
        yield spy


needs_fork = pytest.mark.skipif(not reporting._may_fork(), reason="needs os.fork and two usable CPUs")


class TestForkedRows:
    """Past TRACE_CHUNK rows one forked child renders the rest: the same bytes and the same errors, and no child is
    left running on any path."""

    @pytest.mark.parametrize("host", ["forked", "no-fork", "one-cpu", "threaded", "fork-fails"])
    def test_every_path_writes_the_bytes_of_the_simulated_trace(self, tmp_path, monkeypatch, host):
        if host in ("forked", "fork-fails") and not reporting._may_fork():
            pytest.skip("needs os.fork and two usable CPUs")
        if host == "one-cpu":
            if not hasattr(os, "sched_setaffinity"):
                pytest.skip("needs os.sched_setaffinity")
            cpus = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {min(cpus)})
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        if host == "threaded":
            other.start()
        path = tmp_path / "t.csv"
        try:
            with counted_forks() as fork:
                if host == "no-fork":
                    monkeypatch.delattr(os, "fork")
                elif host == "fork-fails":
                    fork.side_effect = BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
                with trace_writer(path) as write_span:
                    run_scenario(LONG, write_span)
        finally:
            stop.set()
            if host == "threaded":
                other.join(timeout=10)
            if host == "one-cpu":
                os.sched_setaffinity(0, cpus)
        assert fork.call_count == (host in ("forked", "fork-fails"))
        _, trace = simulate(LONG)
        assert path.read_bytes() == (TRACE_HEADER + "\n" + "".join(TRACE_ROW % p for p in trace)).encode()
        assert_no_child_left()

    @needs_fork
    def test_a_run_failure_after_the_switch_removes_the_file(self, tmp_path):
        path = tmp_path / "t.csv"
        with counted_forks() as fork, pytest.raises(DomainError, match="^late$"):
            with trace_writer(path) as write_span:
                for chunk in long_chunks():
                    write_span(*chunk)
                raise DomainError("late")
        assert fork.call_count == 1
        assert not path.exists()
        assert_no_child_left()

    @needs_fork
    def test_a_write_error_in_the_child_is_the_in_process_error(self, tmp_path):
        path = tmp_path / "t.csv"
        with counted_forks(file_size_limit(1)) as fork, pytest.raises(OSError) as failed:
            with trace_writer(path) as write_span:
                run_scenario(LONG, write_span)
        assert fork.call_count == 1
        assert str(failed.value) == f"cannot write {path}: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"
        assert not path.exists()
        assert_no_child_left()

    @needs_fork
    def test_a_child_that_ends_before_its_rows_fails_the_write(self, tmp_path):
        path = tmp_path / "t.csv"
        with counted_forks(lambda: os._exit(3)), pytest.raises(OSError) as failed:
            with trace_writer(path) as write_span:
                run_scenario(LONG, write_span)
        assert str(failed.value) == f"cannot write {path}: the process rendering the rows ended with status 3"
        assert not path.exists()
        assert_no_child_left()

    @pytest.mark.parametrize("host", ["forked", "in-process"])
    def test_a_write_error_wins_over_a_run_failure(self, tmp_path, host):
        """A row sampled before the run failed that cannot be written makes the writer raise the write error, with
        the run's exception as its context, on both paths: in-process the one row is still buffered when the run
        fails, and closing the file writes it."""
        if host == "forked":
            if not reporting._may_fork():
                pytest.skip("needs os.fork and two usable CPUs")
            path, chunks, code, limit = tmp_path / "t.csv", long_chunks(), errno.EFBIG, file_size_limit(1)
        else:
            if not os.path.exists("/dev/full"):
                pytest.skip("needs the /dev/full device")
            path, chunks, code, limit = "/dev/full", [(8e8, 10.0, [0.0], [25.0], [0.0])], errno.ENOSPC, None
        with counted_forks(limit) as fork, pytest.raises(OSError) as failed:
            with trace_writer(path) as write_span:
                for chunk in chunks:
                    write_span(*chunk)
                raise DomainError("late")
        assert fork.call_count == (host == "forked")
        assert str(failed.value) == f"cannot write {path}: [Errno {code}] {os.strerror(code)}"
        chain, exc = [], failed.value
        while exc is not None:
            chain.append(type(exc))
            exc = exc.__cause__ or exc.__context__
        assert DomainError in chain
        assert not os.path.isfile(path)
        assert_no_child_left()


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
