"""Shared fixtures and the acceptance scorecard summary.

The box catalogs are expensive enough to be worth computing once per
session.  Acceptance tests that need to *time* an enumeration build
their own fresh catalogs and must not use these.
"""

import pytest

from ldptoric import enumerate_ldp

import _scorecard


@pytest.fixture(scope="session")
def box1_catalog():
    return enumerate_ldp(1)


@pytest.fixture(scope="session")
def box2_catalog():
    return enumerate_ldp(2)


@pytest.fixture(scope="session")
def box3_catalog():
    return enumerate_ldp(3)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _scorecard.LINES:
        return
    terminalreporter.write_sep("-", "acceptance scorecard")
    for line in _scorecard.LINES:
        terminalreporter.write_line(line)
