"""Suite-wide settings: hypothesis draws derandomized examples and keeps no
example database, so every run of the suite makes the same draws."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
