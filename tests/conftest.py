import tracemalloc

import pytest

import diffspec.theorem as theorem
from diffspec.gf2m import GF2m
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
def case_trace_calls(monkeypatch):
    """The b of every ``theorem.case_trace`` call made during the test."""
    calls = []
    real = theorem.case_trace

    def counted(params, b):
        calls.append(b)
        return real(params, b)

    monkeypatch.setattr(theorem, "case_trace", counted)
    return calls


@pytest.fixture
def check_calls(monkeypatch):
    """The argument of every ``GF2m.check`` call made during the test."""
    calls = []
    real = GF2m.check

    def counted(self, a):
        calls.append(a)
        return real(self, a)

    monkeypatch.setattr(GF2m, "check", counted)
    return calls


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
