"""Suite-wide settings: hypothesis draws derandomized examples and keeps no
example database, so every run of the suite makes the same draws.  The
``calls`` fixture counts the calls of a function or method."""

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def calls(monkeypatch):
    """``calls(owner, name)`` patches ``owner.name`` for the test and returns
    the list of its calls' sizes: ``np.size`` of the first argument, after
    ``self`` where ``owner`` is a class."""
    def record(owner, name):
        fn = getattr(owner, name)
        arg = 1 if isinstance(owner, type) else 0
        sizes = []

        def counted(*args, **kwargs):
            sizes.append(int(np.size(args[arg])))
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return sizes
    return record
