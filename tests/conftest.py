"""Shared pytest set-up: property tests draw the same examples on every run,
so a tier-1 result does not depend on the run."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
