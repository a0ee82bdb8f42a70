import pytest

from nilbloch.algebra import _RINGS


@pytest.fixture
def fresh_rings():
    """Empty the process's ring table, so that the Algebra(...) calls of a test that
    inspects cold caches build new rings; returns the clearing function for reuse."""
    _RINGS.clear()
    return _RINGS.clear
