import tracemalloc

import pytest

ACCEPTANCE_RESULTS: dict[str, str] = {}


def traced_peak(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the tracemalloc peak (bytes) of the memory it allocated."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    label = getattr(item.function, "acceptance_criterion", None)
    if label and report.when == "call":
        ACCEPTANCE_RESULTS[label] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for label in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"{label}: {ACCEPTANCE_RESULTS[label]}")
