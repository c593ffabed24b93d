"""Shared test configuration: an opt-in per-test hang guard and an
opt-in seeded shuffle of the test order.

The supervision layer deliberately exercises hung and SIGKILLed
workers; a regression there shows up as a *hang*, not a failure, and
``pytest-timeout`` is not in the minimal container.  So the guard is
hand-rolled: when ``KEDDAH_TEST_TIMEOUT`` is set to a positive number
of seconds, each test body runs under a ``SIGALRM`` interval timer and
is failed with a readable message the moment it exceeds the budget.
``scripts/check.sh`` enables it for the tier-1 gate; plain local
``pytest`` runs are unaffected (debuggers stay usable).

POSIX-only by construction — on platforms without ``SIGALRM`` the
guard silently stands down.

When ``KEDDAH_TEST_SHUFFLE`` is set, the collected tests run in an
order shuffled by ``random.Random(<its value>)``, so a test that only
passes after (or before) some other test fails — and the same seed
reproduces the order.  No shuffle plugin is needed; ``scripts/check.sh``
runs tier-1 a second time with a fixed seed.
"""

import os
import random
import signal

import pytest


class TestHang(Exception):
    """The test exceeded KEDDAH_TEST_TIMEOUT (it would have hung CI)."""


def _budget_seconds() -> float:
    raw = os.environ.get("KEDDAH_TEST_TIMEOUT", "").strip()
    try:
        return float(raw) if raw else 0.0
    except ValueError:
        return 0.0


def pytest_collection_modifyitems(config, items):
    seed = os.environ.get("KEDDAH_TEST_SHUFFLE", "").strip()
    if seed:
        random.Random(seed).shuffle(items)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    budget = _budget_seconds()
    if budget <= 0 or not hasattr(signal, "SIGALRM"):
        yield
        return

    def expired(signum, frame):
        raise TestHang(
            f"{item.nodeid} still running after {budget:g}s "
            f"(KEDDAH_TEST_TIMEOUT) — treating as hung")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
