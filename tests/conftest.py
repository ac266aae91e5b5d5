"""Fixtures shared by the test modules."""

import pytest

from ancover.suites import suite_oracle_equiv


@pytest.fixture(scope="session")
def oracle_equiv_items():
    """The items of one real run of ``suite_oracle_equiv`` (every triple
    at n = 5..9), made once per session: criterion 6 reports them, and
    the ``verify oracle-equiv`` golden prints them through the CLI."""
    return suite_oracle_equiv()
