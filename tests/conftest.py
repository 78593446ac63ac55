"""Test-session settings shared by every Tier-1 module."""

from hypothesis import settings

# derandomized: the same examples on every run; no example database on disk
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")
