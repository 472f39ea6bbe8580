"""Every evaluator gives the same value on every instance the API accepts."""
import pytest

from msproots.groupdet import dedekind_expand, exponent_key, orbit_expand
from msproots.msp import EvalInstance, closed_form_value, msp_value_dp, msp_value_naive

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@st.composite
def instances(draw):
    """Parts in -2n..2n with n <= 7 and kn <= 9, drawn from a small pool so
    that repeated and congruent parts are common."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, 9 // n))
    pool = draw(st.lists(st.integers(-2 * n, 2 * n), min_size=1, max_size=k * n))
    parts = draw(st.lists(st.sampled_from(pool), min_size=k * n, max_size=k * n))
    return EvalInstance(tuple(parts), n, k)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.example(EvalInstance((1, 4, 4), 3, 1))
@hypothesis.example(EvalInstance((1, 3, 2, 2), 2, 2))
@hypothesis.given(instances())
def test_evaluators_agree(inst):
    value = msp_value_naive(inst)
    assert msp_value_dp(inst) == value
    closed = closed_form_value(inst)
    if closed is not None:
        assert closed[0] == value
    n = inst.n
    if all(1 <= p <= n for p in inst.parts):
        key = exponent_key(inst.parts, n)
        assert dedekind_expand(n, inst.k).coefficient(key) == value
        if n <= 6:
            assert orbit_expand(n, inst.k).coefficient(key) == value
