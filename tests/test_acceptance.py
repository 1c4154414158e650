"""Acceptance gate: one test per numbered criterion, exact arithmetic only.

Each test prints a single PASS/FAIL line (visible through pytest's capture)
so a log scan shows the per-criterion verdict.  Criterion 10 reads one
coefficient of a degree-3588 polynomial in about 0.1 s; criterion 9, the
oracle certification, is the slowest at about three seconds.
"""

from __future__ import annotations

import pytest

from ehrpos.verify import CHECKS, run_check

_BY_CRITERION = {criterion: (name, fn) for criterion, name, fn in CHECKS}


@pytest.mark.parametrize(
    "criterion", sorted(_BY_CRITERION), ids=lambda c: f"criterion_{c:02d}"
)
def test_criterion(criterion: int, capsys) -> None:
    name, fn = _BY_CRITERION[criterion]
    result = run_check(criterion, name, fn)
    with capsys.disabled():
        print(f"\n{result.status.upper()} criterion {criterion}: {name} :: {result.detail}")
    assert result.status == "pass", result.detail
