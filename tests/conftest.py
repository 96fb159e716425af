"""Fixtures shared by the test modules."""

import pytest

import eulab.enumerators
import eulab.grammar


@pytest.fixture
def cold_profile_route():
    """Every cache on the profile-table route empty before the test and
    after it, so that neither a table of the real rule sets nor one of a
    patched rule set or filter outlives its test."""
    caches = (eulab.enumerators.profile_counts, eulab.enumerators._derivative,
              eulab.grammar.builtin)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
