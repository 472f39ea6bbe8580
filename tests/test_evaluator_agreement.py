"""Every evaluator gives the same value on every instance the API accepts."""
import random

import pytest

from msproots.groupdet import dedekind_expand, exponent_key, orbit_expand
from msproots.msp import EvalInstance, closed_form_value, msp_value_dp, msp_value_naive, msp_values_dp

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


# parts 0, negative and above n; one length at three orders; n = 1 at two lengths; a repeat
EDGE_BATCH = [
    EvalInstance((0, 0, 1, 5, -1, 2), 3, 2),
    EvalInstance((0, 1, 2, 3, 4, 5), 6, 1),
    EvalInstance((1, 1, 2, 2, -2, 7), 2, 3),
    EvalInstance((0, -3), 1, 2),
    EvalInstance((4,), 1, 1),
    EvalInstance((1, 4, 4), 3, 1),
    EvalInstance((1, 2, 3), 3, 1),
    EvalInstance((1, 2, 3), 3, 1),
]


def by_shape(batch):
    """The part tuples of the instances grouped by (n, k), in first-seen order."""
    groups = {}
    for inst in batch:
        groups.setdefault((inst.n, inst.k), []).append(inst.parts)
    return groups


def random_batch(rng):
    """Partitions at one (n, k), parts drawn from a small pool in -n..2n, some
    unsorted and some repeated. Naive-sized whenever n <= 6; n = 1 at times."""
    n = rng.randint(1, 8)
    k = rng.randint(1, max(1, (9 if n <= 6 else 16) // n))
    pool = [rng.randint(-n, 2 * n) for _ in range(rng.randint(1, 5))]
    batch = [tuple(rng.choice(pool) for _ in range(k * n)) for _ in range(rng.randint(1, 12))]
    batch += rng.sample(batch, min(2, len(batch)))
    rng.shuffle(batch)
    return batch, n, k


@pytest.mark.parametrize("seed", range(25))
def test_batched_values_agree(seed):
    rng = random.Random(seed)
    for _ in range(3):
        batch, n, k = random_batch(rng)
        values = msp_values_dp(batch, n, k)
        assert list(values) == list(dict.fromkeys(batch))
        for parts, value in values.items():
            inst = EvalInstance(parts, n, k)
            assert msp_value_dp(inst) == value, inst
            if n <= 6:
                assert msp_value_naive(inst) == value, inst


def test_batched_values_edge_batches():
    assert msp_values_dp([], 3, 1) == {}
    for inst in EDGE_BATCH:
        assert msp_values_dp([inst.parts], inst.n, inst.k) == {inst.parts: msp_value_dp(inst)}
    for (n, k), group in by_shape(EDGE_BATCH).items():
        want = {parts: msp_value_naive(EvalInstance(parts, n, k)) for parts in group}
        assert msp_values_dp(group, n, k) == want
    assert msp_values_dp(iter(inst.parts for inst in EDGE_BATCH[-3:]), 3, 1) == \
        {(1, 4, 4): 3, (1, 2, 3): -3}  # any iterable of part tuples


def test_batched_values_keyed_as_given():
    """Unsorted and repeated tuples keep their own keys; equal multisets share one value."""
    values = msp_values_dp([(3, 1, 2), (1, 2, 3), (3, 1, 2), (2, 2, 2), (2, 2, 2)], 3, 1)
    assert list(values) == [(3, 1, 2), (1, 2, 3), (2, 2, 2)]
    assert values == {(3, 1, 2): -3, (1, 2, 3): -3, (2, 2, 2): 1}
    assert values[(2, 2, 2)] == msp_value_dp(EvalInstance((2, 2, 2), 3, 1))


@pytest.mark.parametrize("partitions,n,k,message", [
    ([(1, 2, 3), (1, 2)], 3, 1, r"expected 3 parts for \(n=3, k=1\), got 2"),
    ([(1, 2, 3)], 1, 1, r"expected 1 parts for \(n=1, k=1\), got 3"),
    ([(1, 1, 2, 2, 3, 3)], 3, 1, r"expected 3 parts for \(n=3, k=1\), got 6"),
    ([(1, 2, 3)], 0, 1, "n and k must be positive"),
    ([(1, 2, 3)], 3, 0, "n and k must be positive"),
    ([], -1, 1, "n and k must be positive"),
    ([], 3, -2, "n and k must be positive"),
])
def test_batch_rejects_bad_shapes(partitions, n, k, message):
    with pytest.raises(ValueError, match=message):
        msp_values_dp(partitions, n, k)
