"""Acceptance gate: one test per numbered criterion, exact arithmetic only.

Each test prints a single PASS/FAIL line (visible through pytest's capture)
so a log scan shows the per-criterion verdict.  Criterion 10 reads one
coefficient of a degree-3588 polynomial; criterion 6, rank-2 positivity,
is the slowest.  A cold in-process run took about 0.33 s for criterion 6
and 0.06 s for criterion 10.  Criterion 9, the oracle certification,
counts each atom structure once and took 0.06-0.08 s cold, in fresh
processes on a loaded 2-core machine.
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
    ok, detail = run_check(fn)
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'} criterion {criterion}: {name} :: {detail}")
    assert ok, detail
