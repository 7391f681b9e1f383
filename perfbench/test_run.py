"""Tests of how a run times its passes (run.HostSpeed)."""

import signal
import time

import run


def _busy(seconds: float) -> str:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return "done"


def test_timed_pass_is_sampled_throughout_and_leaves_no_timer():
    before = signal.getsignal(signal.SIGALRM)
    speed = run.HostSpeed()
    result, wall, at_reference = speed.timed(_busy, 0.3)
    assert result == "done"
    assert wall >= 0.3
    assert at_reference > 0
    # one sample per interval and one after the pass, each standing for the
    # stretch since the previous one
    assert len(speed._stretches) >= 0.3 / speed.INTERVAL_S / 2
    covered = sum(stretch + kernel for stretch, kernel in speed._stretches)
    assert abs(covered - wall) < 0.05 * wall
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_timed_counts_from_an_earlier_start():
    start = time.perf_counter()
    _busy(0.05)
    _, wall, _ = run.HostSpeed().timed(_busy, 0.05, start=start)
    assert wall >= 0.1
