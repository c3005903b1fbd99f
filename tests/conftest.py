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
    test; a call refused with any CStatesError counts as not certified."""
    from cstates import CStatesError, weights

    calls = []
    original = weights._certified_sums

    def spy(w, J, *args, **kwargs):
        try:
            out = original(w, J, *args, **kwargs)
        except CStatesError:
            calls.append((w, J, False))
            raise
        calls.append((w, J, True))
        return out

    monkeypatch.setattr(weights, "_certified_sums", spy)
    return calls
