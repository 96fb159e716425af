"""Fixtures shared by the test modules."""

import sys

import pytest

import eulab  # noqa: F401  loads every module that holds a cache


@pytest.fixture
def library_caches():
    """Every module-level cache of the package, each once: the objects with
    a ``cache_clear`` in a loaded ``eulab`` module, found as the benchmark
    finds the caches it clears before each cold job, so that a new cache
    cannot be missed."""
    return list({id(obj): obj for name, module in list(sys.modules.items())
                 if name == "eulab" or name.startswith("eulab.")
                 for obj in vars(module).values() if hasattr(obj, "cache_clear")}.values())


@pytest.fixture
def cold_profile_route(library_caches):
    """Every library cache empty before the test and after it, so that
    neither a table or value of the real rule sets nor one of a patched
    rule set or filter outlives its test."""
    for cache in library_caches:
        cache.cache_clear()
    yield
    for cache in library_caches:
        cache.cache_clear()
