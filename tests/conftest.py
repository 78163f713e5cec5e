"""Lets the tests that start `python -m ffrob.cli` import the package
from a source checkout, as the in-process tests do through pytest's
`pythonpath` setting, and caps each test's call at CAP_S seconds, so that
a core that has stopped terminating fails the suite instead of hanging it."""

import os
import signal
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    part for part in (_SRC, os.environ.get("PYTHONPATH")) if part
)

CAP_S = 120  # above every subprocess timeout in the suite (60 s at most)


class TimeCapExceeded(BaseException):
    """A test ran past CAP_S.  Neither an Exception nor a pytest outcome, so
    Hypothesis neither catches it nor shrinks through it; pytest records
    the test as failed and goes on with the next."""


def _expire(signum, frame):
    raise TimeCapExceeded(f"the test ran past {CAP_S} s")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(CAP_S)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
