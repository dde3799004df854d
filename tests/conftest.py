import pytest

from eqsing import monodromy


@pytest.fixture
def no_general_path(monkeypatch):
    """Fail the test if generate_group falls back to path (c)."""
    def refuse(generators, cap):
        raise AssertionError("a reflection group fell back to path (c)")
    monkeypatch.setattr(monodromy, "_generate_general", refuse)
