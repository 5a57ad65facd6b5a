"""Trace audits: structural properties every run must satisfy."""

from __future__ import annotations

from .engine import MetricsTrace


class InvariantViolation(Exception):
    """A failed audit. ``kind`` names the audit; ``index`` is the offending
    position in ``trace.windows`` (``temporal_exclusivity``) or in
    ``trace.records`` (the others); ``run`` is the run label, if known."""

    def __init__(self, message: str, run: str | None = None, index: int | None = None,
                 kind: str | None = None):
        super().__init__(message)
        self.run = run
        self.index = index
        self.kind = kind


def check_temporal_exclusivity(trace: MetricsTrace):
    """At most one timeslice group active at any instant."""
    windows = sorted(enumerate(trace.windows), key=lambda iw: (iw[1][1], iw[1][2]))
    for (_, (tsg_a, _, end_a)), (i, (tsg_b, start_b, _)) in zip(windows, windows[1:]):
        if end_a > start_b:
            raise InvariantViolation(
                f"window {i}: groups {tsg_a} and {tsg_b} overlap: {end_a} > {start_b}",
                index=i, kind="temporal_exclusivity")


def check_fifo_completion(trace: MetricsTrace):
    """Buffers complete in submission order within each channel."""
    last_seq: dict[int, int] = {}
    for i, (_, kind, ch, _, _, extras) in enumerate(trace.records):
        if kind != "buffer_complete":
            continue
        seq = extras[0]
        if ch in last_seq and seq <= last_seq[ch]:
            raise InvariantViolation(
                f"event {i}: channel {ch} completed seq {seq} after {last_seq[ch]}",
                index=i, kind="fifo_completion")
        last_seq[ch] = seq


def check_semaphores_monotonic(trace: MetricsTrace):
    """Per stream, observed semaphore values strictly increase."""
    last: dict[int, int] = {}
    for i, (_, kind, _, _, sid, extras) in enumerate(trace.records):
        if kind != "semaphore" or sid is None:
            continue
        value = extras[0]
        if sid in last and value <= last[sid]:
            raise InvariantViolation(
                f"event {i}: stream {sid} semaphore went {last[sid]} -> {value}",
                index=i, kind="semaphores_monotonic")
        last[sid] = value


def check_all(trace: MetricsTrace, run: str | None = None):
    """Every audit above; a failure is prefixed with the run label, if given."""
    try:
        check_temporal_exclusivity(trace)
        check_fifo_completion(trace)
        check_semaphores_monotonic(trace)
    except InvariantViolation as exc:
        if run is None:
            raise
        raise InvariantViolation(f"run {run}: {exc}", run, exc.index, exc.kind) from None


def interval_inside_windows(trace: MetricsTrace, start: float, end: float,
                            tsg: int) -> bool:
    """True when [start, end] lies inside one active slice of the given group."""
    return any(w_tsg == tsg and w0 <= start and end <= w1
               for w_tsg, w0, w1 in trace.windows)
