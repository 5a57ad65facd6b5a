"""Each audit rejects a hand-built bad trace, naming the run and the index."""

import pytest

from gpumux.audits import InvariantViolation, check_all
from gpumux.engine import MetricsTrace


def _record(event, *extras):
    return (0.0, event, 0, 0, 0, extras)


def _overlapping_windows():
    trace = MetricsTrace()
    trace.windows = [(0, 0.0, 1.0), (1, 2.0, 3.0), (1, 0.5, 1.5)]
    return trace, "window 2", "temporal_exclusivity", 2


def _out_of_order_completion():
    trace = MetricsTrace()
    trace.records = [_record("buffer_complete", 2), _record("semaphore", 1, 0),
                     _record("buffer_complete", 1)]
    return trace, "event 2", "fifo_completion", 2


def _semaphore_going_back():
    trace = MetricsTrace()
    trace.records = [_record("semaphore", 2, 0), _record("buffer_complete", 1),
                     _record("semaphore", 2, 0)]
    return trace, "event 2", "semaphores_monotonic", 2


@pytest.mark.parametrize("bad", [_overlapping_windows, _out_of_order_completion,
                                 _semaphore_going_back])
def test_audit_failure_names_run_and_index(bad):
    trace, where, kind, index = bad()
    with pytest.raises(InvariantViolation) as exc:
        check_all(trace, "B32/pipelined")
    assert "run B32/pipelined" in str(exc.value)
    assert where in str(exc.value)
    assert (exc.value.run, exc.value.index, exc.value.kind) == ("B32/pipelined", index, kind)


@pytest.mark.parametrize("bad", [_overlapping_windows, _out_of_order_completion,
                                 _semaphore_going_back])
def test_audit_failure_without_a_run_label(bad):
    trace, where, kind, index = bad()
    with pytest.raises(InvariantViolation) as exc:
        check_all(trace)
    assert str(exc.value).startswith(where)
    assert (exc.value.run, exc.value.index, exc.value.kind) == (None, index, kind)
