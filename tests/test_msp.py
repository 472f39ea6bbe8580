import random
from collections import Counter
from math import comb, factorial, prod

import pytest

import msproots

from msproots.msp import (
    BudgetExceeded,
    EvalInstance,
    closed_form_two_blocks,
    closed_form_value,
    mansfield_coefficient,
    msp_value_dp,
    msp_value_naive,
    msp_values_dp,
    prime_nonvanishing,
    reduce_two_distinct,
    scale_partition,
)
from msproots.cyclotomic import CyclotomicInt
from msproots.partitions import canonical_residues, enumerate_partitions


def dp(parts, n, k=None):
    if k is None:
        k = len(parts) // n
    return msp_value_dp(EvalInstance(tuple(parts), n, k))


def naive(parts, n, k=None):
    if k is None:
        k = len(parts) // n
    return msp_value_naive(EvalInstance(tuple(parts), n, k))


def test_instance_validation():
    inst = EvalInstance((3, 1, 2), 3, 1)
    assert inst.parts == (1, 2, 3)
    assert EvalInstance(parts=[2, 1, 2, 1], n=2, k=2).parts == (1, 1, 2, 2)
    with pytest.raises(ValueError):
        EvalInstance((1, 2), 3, 1)
    with pytest.raises(ValueError):
        EvalInstance((1, 2, 3, 4), 3, 1)
    with pytest.raises(ValueError):
        EvalInstance((1, 2, 3), 3, 0)
    with pytest.raises(ValueError):
        EvalInstance((), 0, 1)


def test_instance_is_an_immutable_tuple():
    inst = EvalInstance((3, 1, 2), 3, 1)
    assert inst == ((1, 2, 3), 3, 1) and tuple(inst) == (inst.parts, inst.n, inst.k)
    assert len({inst, EvalInstance((2, 3, 1), 3, 1)}) == 1
    assert hash(inst) == hash(((1, 2, 3), 3, 1))
    for name in ("parts", "n", "k", "other"):
        with pytest.raises(AttributeError):
            setattr(inst, name, 1)
    assert inst == EvalInstance((1, 2, 3), 3, 1)


def test_naive_examples():
    assert naive((1, 1, 1), 3) == 1
    assert naive((1, 2, 3), 3) == -3
    for n, k in [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2)]:
        assert naive((n,) * (k * n), n) == 1
    # brute force over the 6 distinct rearrangements at points (1, -1, 1, -1)
    assert naive((1, 1, 2, 2), 2) == -2


def _literal_counts(parts, n):
    """The rearrangement walk as first written: recurse through every position down to the leaf.

    counts[e] is the number of distinct rearrangements with zeta exponent e.
    """
    length = len(parts)
    counts = [0] * n
    values = sorted(set(parts))
    remaining = [parts.count(v) for v in values]

    def walk(pos, exp):
        if pos == length:
            counts[exp] += 1
            return
        for idx, v in enumerate(values):
            if remaining[idx]:
                remaining[idx] -= 1
                walk(pos + 1, (exp + v * pos) % n)
                remaining[idx] += 1

    walk(0, 0)
    return counts


def _literal_naive(parts, n):
    return CyclotomicInt(n, _literal_counts(parts, n)).to_integer()


def _naive_edge_cases():
    rng = random.Random(13)
    for n in range(1, 8):
        for k in range(1, 7 // n + 1):
            kn = k * n
            for v in range(-2, n + 3):  # every part equal: the root's run is forced
                yield (v,) * kn, n, k
            for a, b in [(0, 1), (1, n), (-1, n + 2), (2, 2 * n + 1)]:  # two distinct values
                for i in range(kn + 1):
                    yield (a,) * i + (b,) * (kn - i), n, k
            for _ in range(6):  # parts negative or above n, repeats likely
                yield tuple(rng.randrange(-n - 2, 2 * n + 3) for _ in range(kn)), n, k


def test_naive_edge_cases_match_dp_and_the_literal_walk():
    cases = list(_naive_edge_cases())
    assert ((3,), 1, 1) in cases and ((-2,), 1, 1) in cases  # n = k = 1
    for parts, n, k in cases:
        inst = EvalInstance(parts, n, k)
        value = msp_value_naive(inst)
        assert value == msp_value_dp(inst) == _literal_naive(inst.parts, n), (parts, n, k)


@pytest.fixture
def naive_counts(monkeypatch):
    """msp_value_naive as a function of (parts, n, k) that returns the residue counts it reads out."""
    from msproots import msp

    leaves = []
    monkeypatch.setattr(msp, "CyclotomicInt", lambda order, counts: leaves.append(counts) or CyclotomicInt(order, counts))

    def counts(parts, n, k):
        msp_value_naive(EvalInstance(parts, n, k))
        return leaves.pop()

    return counts


def _every_short_partition():
    """Every partition with parts in 1..n at kn <= 7, divisible sum or not, then the edge cases."""
    for n in range(1, 8):
        for k in range(1, 7 // n + 1):
            for lam in enumerate_partitions(n, k * n):
                yield lam, n, k
    yield from _naive_edge_cases()


def test_naive_counts_match_the_literal_walk(monkeypatch, naive_counts):
    """Rotated or not, the naive walk counts every rearrangement per residue exactly as the literal walk."""
    from msproots import msp

    def refuse(*args, **kwargs):
        raise AssertionError("the naive oracle must not use the DP")

    for module, name in [(msp, "walk_values"), (msp, "msp_values_dp")]:
        monkeypatch.setattr(module, name, refuse)
    cases = list(_every_short_partition())
    assert ((3,), 1, 1) in cases and ((-2,), 1, 1) in cases and ((0,) * 6, 3, 2) in cases
    for parts, n, k in cases:
        assert naive_counts(parts, n, k) == _literal_counts(tuple(sorted(parts)), n), (parts, n, k)


def test_rotation_scaling_faults_are_caught(monkeypatch, naive_counts):
    """Scaling by the length instead of length / copies is seen by the literal comparison; a remainder raises."""
    from msproots import msp

    with pytest.raises(AssertionError, match="do not divide"):
        msp._unrotate([2, 1], 7, 2)
    assert msp._unrotate([2, 0, 4], 6, 4) == [3, 0, 6]
    cases = [(tuple(sorted(lam)), n, k) for lam, n, k in _every_short_partition()]
    # where the value walked first has one copy, length / copies is the length itself
    scaled = {(lam, n, k) for lam, n, k in cases
              if sum(lam) % n == 0 and len(lam) > 1 and min(map(lam.count, lam)) > 1}
    assert ((1, 1, 2, 2), 2, 2) in scaled and ((5,) * 7, 7, 1) in scaled
    monkeypatch.setattr(msp, "_unrotate", lambda first, length, copies: [c * length for c in first])
    assert {case for case in cases if naive_counts(*case) != _literal_counts(*case[:2])} == scaled


@pytest.mark.parametrize("n,k", [(7, 1), (4, 2), (3, 3), (1, 1), (2, 1), (1, 2), (3, 1), (1, 3)])
def test_naive_closes_count_each_rearrangement_once(monkeypatch, n, k):
    """The forced and three-position closes give the literal walk's leaf counts and the batched DP's values."""
    from msproots import msp

    leaves = []
    monkeypatch.setattr(msp, "CyclotomicInt", lambda order, counts: leaves.append(counts) or CyclotomicInt(order, counts))
    lams = [lam for lam in enumerate_partitions(n, k * n) if sum(lam) % n == 0]
    values = msp_values_dp(lams, n, k)
    for lam in lams:
        assert msp_value_naive(EvalInstance(lam, n, k)) == values[lam], (n, k, lam)
        assert leaves.pop() == _literal_counts(lam, n), (n, k, lam)


def test_dp_examples():
    assert dp((2, 2, 2), 3) == 1
    assert dp((1, 2), 2) == 0  # odd part sum forces zero
    assert dp((1, 1), 2) == -1
    assert dp((1, 1, 2, 2), 2) == -2


def test_single_row_orbit_is_a_power_sum():
    """Zero parts pad a one-part partition: the value is p_r at the roots, n if n | r else 0."""
    assert dp((0, 0, 2), 3) == 0
    assert dp((0, 0, 3), 3) == 3
    for n in range(1, 6):
        for r in range(1, 2 * n + 1):
            expected = n if r % n == 0 else 0
            assert dp((0,) * (n - 1) + (r,), n) == expected, (n, r)
            assert naive((0,) * (n - 1) + (r,), n) == expected, (n, r)


def test_dp_matches_naive_exhaustively():
    for n, k in [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (2, 3)]:
        for lam in enumerate_partitions(n, k * n, allow_zero=True):
            inst = EvalInstance(lam, n, k)
            assert msp_value_dp(inst) == msp_value_naive(inst), (n, k, lam)


def test_evaluators_accept_arbitrary_integers():
    # residues 1, 2, 3 without merging distinct parts
    assert dp((-2, 2, 3), 3) == dp((1, 2, 3), 3) == -3
    assert naive((-2, 2, 3), 3) == -3
    # distinct congruent parts merge and scale the value by the stabilizer ratio
    assert dp((-2, 1, 7), 3) == 6 and dp((1, 1, 1), 3) == 1


def test_naive_guard():
    with pytest.raises(BudgetExceeded):
        naive((1,) * 10, 2, 5)


def test_dp_budget_guard():
    inst = EvalInstance((1, 2, 3, 4), 4, 1)
    with pytest.raises(BudgetExceeded):
        msp_value_dp(inst, budget=3)


def test_batch_budget_guard_matches_single():
    inst = EvalInstance((1, 2, 3, 4), 4, 1)
    with pytest.raises(BudgetExceeded) as single:
        msp_value_dp(inst, budget=15)
    assert msp_value_dp(inst, budget=16) == 0
    batch = [(1, 1, 1, 1), inst.parts]  # 16 states below (1,1,1,1) and 5 below (4,0,0,0), sharing 2
    with pytest.raises(BudgetExceeded) as joint:
        msp_values_dp(batch, 4, 1, budget=18)
    assert msp_values_dp(batch, 4, 1, budget=19) == {parts: msp_value_dp(EvalInstance(parts, 4, 1))
                                                     for parts in batch}
    assert str(single.value) == "16 count vectors or map keys exceed the budget of 15; pass a larger budget to override"
    assert str(joint.value) == "19 count vectors or map keys exceed the budget of 18; pass a larger budget to override"


def test_dp_budget_guard_counts_the_parent_box_on_a_divisible_sum():
    inst = EvalInstance((1, 2, 3, 6), 4, 1)  # sum 12: the walk stops at the parent (1, 1, 1, 0)
    with pytest.raises(BudgetExceeded, match="^8 count vectors or map keys exceed the budget of 7;"):
        msp_value_dp(inst, budget=7)
    assert msp_value_dp(inst, budget=8) == msp_value_naive(inst)


def test_dp_memo_never_skips_the_budget():
    inst = EvalInstance((1, 2, 3, 4), 4, 1)
    msproots.clear_caches()
    want = msp_value_dp(inst)
    assert msproots.msp._dp_value.cache_info().currsize == 1  # memoized at the default budget
    with pytest.raises(BudgetExceeded, match="16 count vectors or map keys exceed the budget of 15"):
        msp_value_dp(inst, budget=15)
    assert msp_value_dp(inst, budget=16) == want


@pytest.mark.parametrize("batch,states", [
    ([(1, 1, 2, 2), (3, 3, 4, 4)], 17),  # 9 states each, 17 together
    ([(1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 2), (2, 2, 2, 2)], 15),  # every vector of sum <= 4
])
def test_batch_down_set_guard_raises_before_the_walk(monkeypatch, batch, states):
    from msproots import msp

    walked = []
    walk = msp.walk_values

    class Columns(list):
        """Columns that record each time a row is built from them."""

        def __iter__(self):
            walked.append(len(self))
            return super().__iter__()

    want = {parts: msp_value_dp(EvalInstance(parts, 4, 1)) for parts in batch}
    monkeypatch.setattr(msp, "walk_values", lambda columns, *args: walk(Columns(columns), *args))
    with pytest.raises(BudgetExceeded, match=f"{states} count vectors or map keys exceed the budget of {states - 1};"):
        msp_values_dp(batch, 4, 1, budget=states - 1)
    assert walked == []
    assert msp_values_dp(batch, 4, 1, budget=states) == want
    assert walked == [len(set().union(*batch))] * 4  # one row per part, each over every column


def test_two_block_closed_form_examples():
    assert closed_form_two_blocks(1, 2, 2, 2) == -2
    assert closed_form_two_blocks(1, 1, 3, 1) == 0
    assert closed_form_two_blocks(2, 2, 4, 1) == -2
    assert dp((2, 2, 4, 4), 4) == -2
    with pytest.raises(ValueError):
        closed_form_two_blocks(4, 1, 4, 1)
    with pytest.raises(ValueError):
        closed_form_two_blocks(1, 9, 2, 2)


def test_two_block_closed_form_matches_dp():
    for n in range(2, 5):
        for k in (1, 2):
            for lam1 in range(1, n):
                for a in range(k * n + 1):
                    lam = (lam1,) * a + (n,) * (k * n - a)
                    want = closed_form_two_blocks(lam1, a, n, k)
                    assert dp(lam, n, k) == want, (n, k, lam1, a)
                    if sum(lam) % n == 0:
                        assert want != 0


def test_two_block_closed_form_matches_dp_with_wide_slots():
    # up to binom(80, 40) and binom(75, 37) paths reach one DP state here, so slot counts pass 2^64
    for n, k in ((2, 40), (3, 25)):
        assert comb(k * n, k * n // 2) > 2 ** 64
        for lam1 in range(1, n):
            for a in range(k * n + 1):
                lam = (lam1,) * a + (n,) * (k * n - a)
                assert dp(lam, n, k) == closed_form_two_blocks(lam1, a, n, k), (n, k, lam1, a)


def test_two_block_closed_form_depends_only_on_residue():
    assert closed_form_two_blocks(5, 2, 4, 2) == closed_form_two_blocks(1, 2, 4, 2)
    assert closed_form_two_blocks(-1, 2, 4, 2) == closed_form_two_blocks(3, 2, 4, 2)


def test_reduce_two_distinct_examples():
    sign, reduced = reduce_two_distinct(1, 2, 1, 2, 1)
    assert sign == -1 and reduced.parts == (1, 2)
    sign, reduced = reduce_two_distinct(2, 3, 2, 3, 1)
    assert sign == 1 and reduced.parts == (1, 3, 3)
    assert dp((2, 2, 3), 3) == sign * msp_value_dp(reduced)
    sign, _ = reduce_two_distinct(3, 1, 0, 3, 1)  # lambda1 divisible by n gives sign +1
    assert sign == 1
    with pytest.raises(ValueError):
        reduce_two_distinct(1, 4, 1, 3, 1)


def test_reduce_two_distinct_identity_holds():
    for n in range(2, 5):
        for k in (1, 2):
            for lam1 in range(1, n + 1):
                for lam2 in range(1, n + 1):
                    if (lam2 - lam1) % n == 0:
                        continue
                    for a in range(k * n + 1):
                        sign, reduced = reduce_two_distinct(lam1, lam2, a, n, k)
                        got = dp((lam1,) * a + (lam2,) * (k * n - a), n, k)
                        assert got == sign * msp_value_dp(reduced), (n, k, lam1, lam2, a)


def test_mansfield_base_values_at_k1():
    assert mansfield_coefficient(EvalInstance((1, 2, 3), 3, 1)) == -3
    assert mansfield_coefficient(EvalInstance((1, 1), 2, 1)) == -1
    assert mansfield_coefficient(EvalInstance((1, 1, 1), 3, 1)) == 1
    assert mansfield_coefficient(EvalInstance((1, 1, 2, 4), 4, 1)) == 4
    assert mansfield_coefficient(EvalInstance((1, 2, 3, 6, 6, 6), 6, 1)) == 12


def test_mansfield_values_scale_with_k():
    # the base pattern values hold per determinant factor, so the k-th
    # power multiplies each by k; pinned against independent routes:
    # (x2^2 - x1^2)^2 has coefficient -2 at x1^2 x2^2, and the two-block
    # closed form gives the same
    inst = EvalInstance((1, 1, 2, 2), 2, 2)
    assert mansfield_coefficient(inst) == -2 == msp_value_dp(inst)
    assert closed_form_two_blocks(1, 2, 2, 2) == -2
    # theta(Z/3Z)^2 = (A - 3B)^2 with A = x1^3+x2^3+x3^3, B = x1 x2 x3:
    # coefficient of B * x3^3 is -6, of x1^3 x3^3 is 2
    inst = EvalInstance((1, 2, 3, 3, 3, 3), 3, 2)
    assert mansfield_coefficient(inst) == -6 == msp_value_dp(inst)
    inst = EvalInstance((1, 1, 1, 3, 3, 3), 3, 2)
    assert mansfield_coefficient(inst) == 2 == msp_value_dp(inst)


def test_mansfield_misses():
    assert mansfield_coefficient(EvalInstance((2, 2, 2, 2), 2, 2)) is None
    assert mansfield_coefficient(EvalInstance((1, 1, 1, 1), 2, 2)) is None
    assert mansfield_coefficient(EvalInstance((1, 1, 2), 3, 1)) is None  # 3 does not divide 1+1+2... pattern sum fails
    assert mansfield_coefficient(EvalInstance((3, 3, 3), 3, 1)) is None


def test_mansfield_agrees_with_dp_wherever_it_matches():
    for n in range(2, 7):
        for k in (1, 2):
            for lam in enumerate_partitions(n, k * n):
                inst = EvalInstance(lam, n, k)
                want = mansfield_coefficient(inst)
                if want is not None:
                    assert want == msp_value_dp(inst) != 0, (n, k, lam)


def test_prime_nonvanishing():
    assert prime_nonvanishing((1, 2, 3), 3) and dp((1, 2, 3), 3) == -3
    assert not prime_nonvanishing((1, 1, 2), 3) and dp((1, 1, 2), 3) == 0
    for p in (2, 3, 5):
        assert prime_nonvanishing((p,) * p, p) and dp((p,) * p, p) == 1
    with pytest.raises(ValueError):
        prime_nonvanishing((1, 2, 3, 4), 4)
    with pytest.raises(ValueError):
        prime_nonvanishing((1, 2), 3)


def test_scale_partition():
    assert scale_partition((1, 2, 3), 2, 3) == (1, 2, 3)
    assert scale_partition((1, 1), 1, 2) == (1, 1)
    scaled = scale_partition((1, 1, 2, 2), 3, 4)
    assert scaled == (2, 2, 3, 3)
    assert dp(scaled, 4, 1) == dp((1, 1, 2, 2), 4, 1)
    with pytest.raises(ValueError):
        scale_partition((1, 2), 2, 4)


def stabilizer(parts):
    return prod(factorial(c) for c in Counter(parts).values())


def test_residue_reduction_weighted_identity():
    # replacing parts by their residues preserves the value only when no
    # two distinct parts are congruent; in general the stabilizer-weighted
    # sums agree
    assert dp((1, 1, 4), 3) == 3 and dp((1, 1, 1), 3) == 1
    rng = random.Random(42)
    for _ in range(400):
        n = rng.randrange(2, 6)
        k = rng.randrange(1, 3)
        lam = tuple(rng.randrange(-2 * n, 2 * n + 1) for _ in range(k * n))
        canon = canonical_residues(lam, n)
        a = dp(lam, n, k)
        b = dp(canon, n, k)
        assert stabilizer(lam) * a == stabilizer(canon) * b, (lam, n)
        if len(set(lam)) == len(set(canon)):
            assert a == b, (lam, n)


def test_residue_invariance_on_merge_free_lifts():
    rng = random.Random(43)
    for _ in range(200):
        n = rng.randrange(2, 6)
        k = rng.randrange(1, 3)
        canon = tuple(sorted(rng.randrange(1, n + 1) for _ in range(k * n)))
        # lift each residue class uniformly so distinct parts stay distinct
        offsets = {v: n * rng.randrange(-2, 3) for v in set(canon)}
        lifted = tuple(p + offsets[p] for p in canon)
        assert dp(lifted, n, k) == dp(canon, n, k), (lifted, n)


def test_closed_form_value_dispatch():
    assert closed_form_value(EvalInstance((1, 2, 3), 3, 1)) == (-3, "pattern")
    assert closed_form_value(EvalInstance((3, 3, 3), 3, 1)) == (1, "two-block")
    assert closed_form_value(EvalInstance((1, 1, 1, 2), 2, 2)) == (0, "two-block")
    assert closed_form_value(EvalInstance((1, 1, 2, 2, 3, 4, 4, 4), 4, 2)) is None


@pytest.mark.parametrize("n,low,want", [(105, (1, 104), -105), (30, (1, 2, 27), 60)])
def test_dp_readout_at_orders_with_several_prime_factors(n, low, want):
    """Phi_105 is the first cyclotomic polynomial with a coefficient -2; 30 = 2 * 3 * 5."""
    inst = EvalInstance(low + (n,) * (n - len(low)), n, 1)
    assert msp_value_dp(inst) == closed_form_value(inst)[0] == want
