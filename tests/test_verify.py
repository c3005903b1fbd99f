import pytest

from cstates import builtin_measure, compute_weights, make_builtin
from cstates.verify import run_suite


@pytest.mark.parametrize("model, cap", [("hydrogen_like", 240), ("harmonic", 225)])
def test_run_suite_series_calls_capped(model, cap, series_calls):
    # same-J states share one certified series (403 and 375 calls when each
    # state summed its own), and variance-bound reuses the agreement points
    s = make_builtin(model, 1.0)
    results = run_suite(s, compute_weights(s), builtin_measure(model))
    assert [r.name for r in results if r.status == "fail"] == []
    assert len(series_calls) <= cap
