"""Fixtures shared by the test modules."""

import pytest

import eulab.checks
import eulab.enumerators
import eulab.grammar


@pytest.fixture
def cold_profile_route():
    """Every cache on the profile-table route, and every value cache that
    reads it, empty before the test and after it, so that neither a table
    or value of the real rule sets nor one of a patched rule set or filter
    outlives its test."""
    caches = (eulab.enumerators.profile_counts, eulab.enumerators._derivative,
              eulab.grammar.builtin, eulab.enumerators._value,
              eulab.enumerators._ascent_rows, eulab.checks._product)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
