"""Shared pytest plumbing: print one line per acceptance criterion."""

import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def pytest_configure(config):
    # the ``pythonpath`` ini setting puts src/ on this process's sys.path;
    # the CLI subprocesses that some tests start need it too
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if _SRC not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([_SRC, *filter(None, paths)])

_acceptance_results = {}


def record_criterion(number: int, description: str, passed: bool, detail: str = ""):
    _acceptance_results[number] = (description, passed, detail)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    name = item.name
    if name.startswith("test_criterion_"):
        try:
            number = int(name.split("_")[2])
        except (IndexError, ValueError):
            return
        if number not in _acceptance_results:
            _acceptance_results[number] = (name, report.passed, "")
        elif not report.passed:
            desc, _, detail = _acceptance_results[number]
            _acceptance_results[number] = (desc, False, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_acceptance_results):
        desc, passed, detail = _acceptance_results[number]
        status = "PASS" if passed else "FAIL"
        line = f"criterion {number:>2}: {status}  {desc}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)
