"""Suite-wide fixtures."""

import pytest

from repro import settings


@pytest.fixture(autouse=True)
def _fresh_settings():
    """Drop the settings snapshot around every test, so a test's
    ``monkeypatch.setenv`` takes effect at first use and never leaks."""
    settings.reload()
    yield
    settings.reload()
