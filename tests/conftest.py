import tracemalloc

import pytest

from diffspec.theorem import TheoremParams


@pytest.fixture(scope="session")
def make_params():
    """Session-cached family instances; field tables are expensive to rebuild."""
    cache = {}

    def get(n, modulus=None):
        key = (n, modulus)
        if key not in cache:
            cache[key] = TheoremParams(n, modulus)
        return cache[key]

    return get


@pytest.fixture
def peak_traced_bytes():
    """Peak bytes traced by tracemalloc (numpy buffers included) during fn()."""

    def measure(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure
