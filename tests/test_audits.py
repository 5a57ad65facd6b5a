"""Each audit rejects a hand-built bad trace, naming the run and the index."""

import pytest

from gpumux.audits import InvariantViolation, check_all
from gpumux.engine import MetricsTrace


def _event(event, **extra):
    row = {"time": 0.0, "event": event, "channel": 0, "tsg": 0, "stream": 0}
    row.update(extra)
    return row


def _overlapping_windows():
    trace = MetricsTrace()
    trace.windows = [(0, 0.0, 1.0), (1, 2.0, 3.0), (1, 0.5, 1.5)]
    return trace, "window 2"


def _out_of_order_completion():
    trace = MetricsTrace()
    trace.events = [_event("buffer_complete", seq=2), _event("semaphore", value=1),
                    _event("buffer_complete", seq=1)]
    return trace, "event 2"


def _semaphore_going_back():
    trace = MetricsTrace()
    trace.events = [_event("semaphore", value=2), _event("buffer_complete", seq=1),
                    _event("semaphore", value=2)]
    return trace, "event 2"


@pytest.mark.parametrize("bad", [_overlapping_windows, _out_of_order_completion,
                                 _semaphore_going_back])
def test_audit_failure_names_run_and_index(bad):
    trace, where = bad()
    with pytest.raises(InvariantViolation) as exc:
        check_all(trace, "B32/pipelined")
    assert "run B32/pipelined" in str(exc.value)
    assert where in str(exc.value)
