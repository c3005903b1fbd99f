import sys

import pytest

from cstates import compute_weights, make_builtin


@pytest.fixture(scope="session")
def hydrogen():
    return make_builtin("hydrogen_like", 1.0)


@pytest.fixture(scope="session")
def harmonic():
    return make_builtin("harmonic", 1.0)


@pytest.fixture(scope="session")
def w_hydrogen(hydrogen):
    return compute_weights(hydrogen, 40_000)


@pytest.fixture(scope="session")
def w_harmonic(harmonic):
    return compute_weights(harmonic, 2_000)


@pytest.fixture
def series_calls(monkeypatch):
    """(table, J, certified) for every certified series call made during a
    test, each J a batched call answers counting as one call: its own kernel
    call, or one certified row; a call refused with any CStatesError counts
    as not certified."""
    from cstates import CStatesError, weights

    calls = []
    original, original_batch = weights._certified_sums, weights._batch_sums

    def spy(w, J, *args, **kwargs):
        try:
            out = original(w, J, *args, **kwargs)
        except CStatesError:
            calls.append((w, J, False))
            raise
        calls.append((w, J, True))
        return out

    def batch_spy(w, Js, *args, **kwargs):
        start = len(calls)
        out = original_batch(w, Js, *args, **kwargs)
        kernel = [J for _, J, _ in calls[start:]]
        calls.extend((w, J, True) for J in out.at if J not in kernel)
        return out

    monkeypatch.setattr(weights, "_certified_sums", spy)
    for name, module in list(sys.modules.items()):
        if name.startswith("cstates.") and getattr(module, "_batch_sums", None) is original_batch:
            monkeypatch.setattr(module, "_batch_sums", batch_spy)
    return calls


@pytest.fixture
def table_builds(monkeypatch):
    """n_max of every weight table that package code builds during a test."""
    from cstates import weights

    built = []
    original = weights.compute_weights

    def spy(s, n_max=weights.DEFAULT_NMAX):
        built.append(n_max)
        return original(s, n_max)

    for name, module in list(sys.modules.items()):
        if name.startswith("cstates.") and getattr(module, "compute_weights", None) is original:
            monkeypatch.setattr(module, "compute_weights", spy)
    return built
