"""A per-test time limit for every suite under this directory.

A test whose setup, body or teardown runs past TIME_LIMIT_S fails, so a
regression into an endless loop fails the suite instead of hanging it. The
limit is a real-time SIGALRM timer; where the platform has none, tests run
without a limit.
"""

import signal

import pytest

TIME_LIMIT_S = 120  # the slowest test takes about 6 s

HAS_ALARM = hasattr(signal, "SIGALRM")
_PREVIOUS_HANDLER = pytest.StashKey()


def _over_time(signum, frame):
    pytest.fail(f"test ran past the {TIME_LIMIT_S} s per-test time limit", pytrace=False)


def pytest_configure(config):
    if HAS_ALARM:
        config.stash[_PREVIOUS_HANDLER] = signal.signal(signal.SIGALRM, _over_time)


def pytest_unconfigure(config):
    if HAS_ALARM:
        signal.signal(signal.SIGALRM, config.stash[_PREVIOUS_HANDLER])


def _time_limited():
    if not HAS_ALARM:
        yield
        return
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    yield from _time_limited()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    yield from _time_limited()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item):
    yield from _time_limited()
