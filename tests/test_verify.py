import json
import random
from collections import Counter
from math import gcd

import pytest

from msproots import verify
from msproots.msp import BudgetExceeded, msp_values_dp
from msproots.partitions import enumerate_partitions, format_partition
from msproots.verify import (
    TheoremViolation,
    check_branching,
    check_lemma_2_4,
    check_lemma_2_4_sweep,
    check_prop_2_1,
    check_theorems,
    check_thm11,
    check_thm12,
    check_thm32,
    explore_conjecture,
)


def test_lemma_examples_pass():
    for n, lam in [(2, (1, 1)), (3, (1, 2, 3)), (3, (1, 1, 1)), (4, (-1, 0, 2, 3))]:
        rep = check_lemma_2_4(n, lam)
        assert rep.passed and rep.instances_checked == n + 1, (n, lam)


def test_lemma_preconditions():
    with pytest.raises(ValueError):
        check_lemma_2_4(3, (1, 1))
    with pytest.raises(ValueError):
        check_lemma_2_4(3, (1, 1, 2))
    with pytest.raises(BudgetExceeded):
        check_lemma_2_4(8, (8,) * 8)


def test_lemma_failure_reports_both_checks(monkeypatch):
    """A full sum short of one permutation fails one indicator and the root-power weight."""
    from msproots import verify

    honest = verify.permutations

    def drop_first_of_full(items):
        perms = honest(items)
        if len(items) == 3:  # the n! sum; the (n-1)! sum runs over range(1, 3)
            next(perms)
        return perms

    monkeypatch.setattr(verify, "permutations", drop_first_of_full)
    rep = check_lemma_2_4(3, (1, 2, 3))
    assert rep.instances_checked == 4
    assert [f.to_dict() for f in rep.failures] == [
        {"lambda": "lambda=1,2,3 f=1[t=2 mod 3]", "expected": "3", "actual": "2"},
        {"lambda": "lambda=1,2,3 f=zeta^t", "expected": "CyclotomicInt(3, [0, 3, 3])",
         "actual": "CyclotomicInt(3, [0, 3, 2])"},
    ]


def test_lemma_sweep_deterministic():
    a = check_lemma_2_4_sweep(4, samples=10, seed=3)
    b = check_lemma_2_4_sweep(4, samples=10, seed=3)
    assert a.passed and b.passed
    assert a.instances_checked == b.instances_checked == 10 * 5


def test_prop21_small_cases():
    for n, k in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        rep = check_prop_2_1(n, k)
        assert rep.passed, (n, k, rep.failures[:2])


def perturb(monkeypatch, target):
    """Make the value of `target` (sorted parts) off by one wherever verify reads it.

    prop21 reads partitions from msp_values_dp; the theorem and branching
    suites read exponent vectors over their columns 1..n from walk_values.
    """
    from msproots import verify

    batch, walk = verify.msp_values_dp, verify.walk_values

    def batch_off_by_one(partitions, n, k, budget=None):
        values = batch(partitions, n, k, budget)
        if target in values:
            values[target] += 1
        return values

    def walk_off_by_one(columns, targets, n, budget=None):
        values = walk(columns, targets, n, budget)
        key = tuple(map(target.count, columns))
        if sum(key) == len(target) and key in values:
            values[key] += 1
        return values

    monkeypatch.setattr(verify, "msp_values_dp", batch_off_by_one)
    monkeypatch.setattr(verify, "walk_values", walk_off_by_one)


def test_prop21_reports_a_perturbed_value(monkeypatch):
    # one lambda per (n, k) whose part sum is divisible by n
    for n, k, target in [(3, 1, (1, 2, 3)), (3, 2, (0, 0, 1, 1, 2, 2)), (2, 3, (0, 1, 1, 2, 2, 2))]:
        perturb(monkeypatch, target)
        rep = check_prop_2_1(n, k)
        assert not rep.passed, (n, k)
        assert all(f.instance.startswith("monomial exponents=") for f in rep.failures)
        # e_lambda's leading monomial has the conjugate partition as its exponents
        conjugate = [sum(1 for p in target if p > i) for i in range(n)]
        assert f"monomial exponents={','.join(map(str, conjugate))}" in [f.instance for f in rep.failures]
        monkeypatch.undo()


@pytest.mark.parametrize("check,args,target,named", [
    (check_thm11, (3, 1), (1, 1, 2), "thm11_1 lambda=1,1,2"),
    (check_thm12, (4, 1), (1, 4, 4, 4), "thm12_6 lambda=1,4,4,4"),
    (check_thm12, (5, 1), (1, 4, 5, 5, 5), "thm12_pattern lambda=1,4,5,5,5"),
    (check_thm12, (5, 1), (1, 1, 1, 2, 5), "thm12_8 lambda=1,1,1,2,5 l=2"),
    (check_thm32, (3, 1), (1, 2, 3), "thm32_coefficient lambda=1,2,3"),
    (check_branching, (2, 1, 1), (1, 1, 2, 2), "mu=1,1,2,2"),
])
def test_suites_report_a_perturbed_value(monkeypatch, check, args, target, named):
    assert check(*args).passed
    perturb(monkeypatch, target)
    rep = check(*args)
    assert named in [f.instance for f in rep.failures], rep.failures


@pytest.mark.parametrize("n,k,l,target", [
    (2, 1, 1, (2, 2)),  # k = l: both halves are one map, squared
    (3, 1, 2, (1, 2, 3)),  # a value at power k
    (3, 1, 2, (1, 1, 2, 2, 3, 3)),  # a value at power l
])
def test_branching_reports_a_perturbed_half(monkeypatch, n, k, l, target):
    """A bumped half value moves the split sum at exactly the mu = target + rest with a nonzero rest."""
    assert check_branching(n, k, l).passed
    other = l if len(target) == k * n else k
    rests = msp_values_dp(enumerate_partitions(n, other * n), n, other)
    if target in rests:  # k = l: the rest is read from the bumped family too
        rests[target] += 1
    want = {tuple(sorted(target + rest)) for rest, value in rests.items() if value}
    containing = {mu for mu in enumerate_partitions(n, (k + l) * n) if not Counter(target) - Counter(mu)}
    assert want and want < containing  # some mu containing the target keep their split sum
    perturb(monkeypatch, target)
    rep = check_branching(n, k, l)
    assert {f.instance for f in rep.failures} == {f"mu={format_partition(mu)}" for mu in want}
    assert len(rep.failures) == len(want)


def edited(monkeypatch, name, n, k, edit):
    """Make verify.<name> return its honest (n, k) expansion with `edit` applied to a copy of its terms."""
    from msproots import verify
    from msproots.groupdet import MonomialMap

    honest = getattr(verify, name)
    terms = dict(honest(n, k).items())
    edit(terms)
    monkeypatch.setattr(verify, name, lambda *args: MonomialMap(n, k * n, terms))
    return terms


@pytest.mark.parametrize("n,k,edit,named", [
    # x1^2 x2 has weight 4, not divisible by 3; Leibniz and the term count see the extra key too
    (3, 1, lambda t: t.update({(2, 1, 0): 1}),
     ["thm32_key lambda=1,1,2", "thm32_leibniz lambda=1,1,2", "corollary p=3", "thm32_automorphism l=2"]),
    (3, 1, lambda t: t.update({(3, 0, 0): t[(3, 0, 0)] + 1}),
     ["thm32_leibniz lambda=1,1,1", "thm32_coefficient lambda=1,1,1", "thm32_automorphism l=2"]),
    # relabeling by l = 2 fixes x1 x2 x3, so the automorphism check does not see it dropped
    (3, 1, lambda t: t.pop((1, 1, 1)),
     ["thm32_leibniz lambda=1,2,3", "thm32_coefficient lambda=1,2,3", "corollary p=3"]),
    # no Leibniz route or term count at k = 2: the values and the relabel symmetry see x1^6 moved
    (3, 2, lambda t: t.update({(6, 0, 0): t[(6, 0, 0)] - 1}),
     ["thm32_coefficient lambda=1,1,1,1,1,1", "thm32_automorphism l=2"]),
])
def test_thm32_reports_a_perturbed_expansion(monkeypatch, n, k, edit, named):
    assert check_thm32(n, k).passed
    terms = edited(monkeypatch, "orbit_expand", n, k, edit)
    rep = check_thm32(n, k)
    assert [f.instance for f in rep.failures] == named
    if "corollary p=3" in named:  # the term count is read from the edited expansion
        assert rep.failures[named.index("corollary p=3")].to_dict() == {
            "lambda": "corollary p=3", "expected": "nu=4 equal=True",
            "actual": f"nu={len(terms)} lambda_tilde=4 equal=False"}


def test_thm32_counts_prime_terms_from_its_own_expansion(monkeypatch):
    from msproots import groupdet, verify

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return groupdet.orbit_expand(*args, **kwargs)

    monkeypatch.setattr(verify, "orbit_expand", counted)
    rep = check_thm32(5, 1)
    assert rep.passed and rep.sections["prime_term_count"] == 1
    assert calls == [(5, 1, None)]


def orbit_images(key, n):
    """The key's images under the relabelings x_j -> x_(l*j + c) with gcd(l, n) = 1."""
    images = set()
    for l in range(1, n + 1):
        if gcd(l, n) == 1:
            for c in range(n):
                image = [0] * n
                for i, e in enumerate(key):
                    image[(l * (i + 1) + c - 1) % n] = e
                images.add(tuple(image))
    return images


def flip_orbit(terms, n):
    for image in orbit_images(min(terms), n):
        terms[image] = -terms[image]


def drop_key(terms, n):
    terms.pop(min(terms))


def raise_by_one(terms, n):
    terms[max(terms)] += 1


@pytest.mark.parametrize("n,k", [(9, 1), (10, 1), (6, 2)])
@pytest.mark.parametrize("edit", [flip_orbit, drop_key, raise_by_one])
def test_thm32_evaluation_catches_a_mutated_expansion(monkeypatch, n, k, edit):
    """Past the Leibniz route and the coefficient sweep, the seeded points see each mutation."""
    honest = check_thm32(n, k)
    assert honest.passed and honest.sections["evaluation_points"] == 2
    assert "determinant_routes" not in honest.sections and "coefficient_agreement" not in honest.sections
    edited(monkeypatch, "orbit_expand", n, k, lambda t: edit(t, n))
    names = [f.instance for f in check_thm32(n, k).failures]
    assert "thm32_evaluation point=0" in names and "thm32_evaluation point=1" in names
    if edit is flip_orbit:  # the relabelings map the flipped orbit onto itself: only the points see it
        assert names == ["thm32_evaluation point=0", "thm32_evaluation point=1"]


def test_modular_elimination_matches_the_permutation_sum():
    from msproots.groupdet import leibniz_determinant
    from msproots.verify import EVALUATION_PRIME, _det_mod, _evaluate_mod

    rng = random.Random(5)
    for n in range(1, 9):
        det = leibniz_determinant(n)
        for _ in range(3):
            x = [rng.randrange(EVALUATION_PRIME) for _ in range(n)]
            circulant = [[x[(i - s - 1) % n] for s in range(n)] for i in range(n)]
            assert _det_mod(circulant, EVALUATION_PRIME) == _evaluate_mod(det, x, EVALUATION_PRIME), (n, x)


@pytest.mark.parametrize("n,k", [(7, 1), (8, 1), (5, 2), (4, 3)])
def test_check_theorems_walks_once_and_merges_the_three_reports(monkeypatch, n, k):
    from msproots import verify

    perturb(monkeypatch, (1,) * (k * n))  # a two-block value, a scaling base, and a swept coefficient
    separate = [check(n, k) for check in (check_thm11, check_thm12, check_thm32)]
    batches = []
    perturbed = verify.walk_values

    def one_batch(columns, targets, *args):
        batches.append(targets)
        return perturbed(columns, targets, *args)

    monkeypatch.setattr(verify, "walk_values", one_batch)
    rep = check_theorems(n, k)
    assert len(batches) == 1
    assert rep.sections == {f"{r.suite}.{name}": cnt for r in separate for name, cnt in r.sections.items()}
    assert [f.to_dict() for f in rep.failures] == [f.to_dict() for r in separate for f in r.failures]
    assert rep.failures and rep.instances_checked == sum(r.instances_checked for r in separate)


def test_family_keys_are_the_partition_enumeration_in_order():
    from msproots.groupdet import exponent_key
    from msproots.verify import _family

    for n in range(1, 8):
        for length in range(1, 11 - n):
            assert _family(n, length) == [exponent_key(lam, n) for lam in enumerate_partitions(n, length)], (n, length)


@pytest.mark.parametrize("n,k", [(n, 1) for n in range(2, 11)] + [(6, 2), (4, 3), (6, 3), (6, 4), (5, 2), (7, 2)])
def test_explore_conjecture_zeros_match_the_partition_enumeration(n, k):
    """The zeros from the orbit values are the admissible partitions that the expanded power leaves out."""
    from msproots.groupdet import exponent_key, orbit_expand

    expansion = orbit_expand(n, k)
    want = [lam for lam in enumerate_partitions(n, k * n)
            if sum(lam) % n == 0 and expansion.coefficient(exponent_key(lam, n)) == 0]
    assert explore_conjecture(n, k).zero_coefficients == want
    assert len(want) == {(6, 2): 54, (6, 3): 54, (6, 4): 60, (5, 2): 0, (7, 2): 0}.get((n, k), len(want))


def test_explore_conjecture_zeros_at_12_match_the_recorded_digest():
    """sha256 of the 26,220 zero partitions at (12, 1), one per line, recorded from the route that multiplied
    out the determinant and tested every admissible key against it."""
    import hashlib

    rep = explore_conjecture(12, 1)
    text = "".join(format_partition(lam) + "\n" for lam in rep.zero_coefficients)
    assert (rep.total, len(rep.zero_coefficients)) == (112_720, 26_220)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "042e99226a0741353132e44a118d430de45c0fb1fc883706dc4a19f6d2c4a4cb")


@pytest.mark.parametrize("n,k,orbits", [(6, 1, 12), (6, 2, 116)])
def test_explore_conjecture_walks_once_over_the_orbit_representatives(monkeypatch, n, k, orbits):
    from msproots import groupdet, verify

    def boom(*args, **kwargs):
        raise AssertionError("the conjecture multiplied out the power")

    walks, collects = [], []
    walk, leading = groupdet.walk_values, groupdet.leading_keys
    monkeypatch.setattr(groupdet, "orbit_expand", boom)
    monkeypatch.setattr(verify, "orbit_expand", boom)
    monkeypatch.setattr(groupdet, "walk_values", lambda columns, targets, *args: walks.append(len(targets))
                        or walk(columns, targets, *args))
    monkeypatch.setattr(groupdet, "leading_keys", lambda *args: collects.append(args) or leading(*args))
    explore_conjecture(n, k)
    assert walks == [orbits] and collects == [(n, k * n)]


def test_explore_conjecture_raises_on_a_zero_at_a_prime(monkeypatch):
    from msproots import verify

    honest = verify.orbit_values(3, 1)
    assert honest[(1, 1, 1)] != 0
    monkeypatch.setattr(verify, "orbit_values", lambda *args: {**honest, (1, 1, 1): 0})
    with pytest.raises(TheoremViolation, match="zero coefficient at prime n=3, k=1: lambda=1,2,3"):
        explore_conjecture(3, 1)


def test_suites_raise_when_enumeration_and_formula_disagree(monkeypatch):
    from msproots import groupdet, verify

    honest = verify.lambda_tilde_size
    monkeypatch.setattr(verify, "lambda_tilde_size", lambda n, k: honest(n, k) + 1)
    with pytest.raises(TheoremViolation, match="enumeration found 4 partitions, formula says 5"):
        check_thm32(3, 1)
    monkeypatch.setattr(groupdet, "lambda_tilde_size", lambda n, k: honest(n, k) + 1)
    with pytest.raises(AssertionError, match="orbits cover 4 keys, the index-set size is 5"):
        explore_conjecture(3, 1)


def test_suites_keep_no_dp_memo():
    import msproots
    from msproots import msp

    msproots.clear_caches()
    for check, args in [(check_thm11, (5, 1)), (check_thm12, (4, 2)), (check_thm32, (4, 1)),
                        (check_branching, (3, 1, 1)), (check_prop_2_1, (3, 1))]:
        assert check(*args).passed
    assert msp._dp_value.cache_info().currsize == 0


def test_prop21_budget():
    with pytest.raises(BudgetExceeded):
        check_prop_2_1(5, 2)
    assert check_prop_2_1(2, 2).passed


def test_branching_small_cases():
    rep = check_branching(2, 1, 1)
    assert rep.passed and rep.instances_checked == 5
    # the mu = (1,1,2,2) split: (-1)(1) + 0*0 + (1)(-1) = -2 equals the direct value
    from msproots.msp import EvalInstance, msp_value_dp

    def val(parts, k):
        return msp_value_dp(EvalInstance(parts, 2, k))

    direct = val((1, 1, 2, 2), 2)
    split = (val((1, 1), 1) * val((2, 2), 1)
             + val((1, 2), 1) * val((1, 2), 1)
             + val((2, 2), 1) * val((1, 1), 1))
    assert direct == split == -2
    assert val((2, 2, 2, 2), 2) == val((2, 2), 1) * val((2, 2), 1) == 1


def test_branching_report_carries_l():
    rep = check_branching(3, 1, 1)
    assert rep.passed
    d = rep.to_dict()
    assert d["l"] == 1 and d["suite"] == "branching"


def test_branching_budget():
    with pytest.raises(BudgetExceeded):
        check_branching(5, 2, 1)


def test_theorem_suites_pass_small():
    for n, k in [(2, 1), (3, 1), (2, 2), (4, 1)]:
        for fn in (check_thm11, check_thm12, check_thm32):
            rep = fn(n, k)
            assert rep.passed, (fn.__name__, n, k, rep.failures[:3])


def test_check_theorems_merges_sections():
    rep = check_theorems(3, 1)
    assert rep.passed and rep.suite == "theorems"
    assert "thm11.prime_equivalence" in rep.sections
    assert "thm12.near_identity_patterns" in rep.sections
    assert "thm32.coefficient_agreement" in rep.sections
    assert rep.instances_checked == sum(rep.sections.values())


def test_report_json_schema():
    rep = check_thm32(3, 1)
    d = rep.to_dict()
    assert list(d)[:6] == ["suite", "n", "k", "instances_checked", "failures", "elapsed_ms"]
    text = json.dumps(d)
    assert json.loads(text) == d


def test_empty_report_is_skipped():
    rep = check_thm11(1, 1)
    assert rep.instances_checked == 0 and rep.skipped and rep.passed
    assert rep.to_dict()["skipped"] is True
    full = check_thm11(3, 1)
    assert not full.skipped and "skipped" not in full.to_dict()


def test_reports_are_tuples_that_share_no_sections_dict():
    a, b = check_thm12(3, 1), check_thm12(3, 1)
    assert a.sections == b.sections and a.sections is not b.sections
    lemma = check_lemma_2_4(3, (1, 2, 3))
    assert lemma.sections == {} and "sections" not in lemma.to_dict()
    with pytest.raises(TypeError):
        lemma.sections["thm11.prime_equivalence"] = 1
    suite, n, k, checked, failures, _, sections, l = a
    assert (suite, n, k, checked, failures, sections, l) == ("thm12", 3, 1, a.instances_checked, [], a.sections, None)


def test_theorem_batch_builds_one_family(monkeypatch):
    """thm11's prime family, thm12's exhaustive family and thm32's sweep keys share one _family call."""
    calls = []
    family = verify._family
    monkeypatch.setattr(verify, "_family", lambda n, length: calls.append((n, length)) or family(n, length))
    report = check_theorems(7, 1)
    assert calls == [(7, 7)] and report.passed
    assert {name: report.sections[name] for name in ("thm11.prime_equivalence", "thm12.vanishing_off_residue",
                                                      "thm32.coefficient_agreement")} == {
        "thm11.prime_equivalence": 1716, "thm12.vanishing_off_residue": 1470, "thm32.coefficient_agreement": 246}
    check_theorems(8, 1)  # no family sweep at (8, 1)
    assert calls == [(7, 7)]


@pytest.mark.parametrize("n,k,distinct", [(6, 2, 171), (24, 2, 12_996)])
def test_thm11_holds_one_tuple_per_distinct_key(n, k, distinct):
    keys, _ = verify._thm11_plan(n, k, None, None)
    assert len(set(keys)) == len({id(key) for key in keys}) == distinct


def test_reports_deterministic():
    def strip(rep):
        d = rep.to_dict()
        d.pop("elapsed_ms")
        return d

    assert strip(check_thm12(3, 1)) == strip(check_thm12(3, 1))


def test_explore_conjecture_prime_cases():
    from msproots.partitions import lambda_tilde_size

    for p in (2, 3, 5):
        rep = explore_conjecture(p, 1)
        assert rep.zero_coefficients == []
        assert rep.is_prime_power and rep.consistent_with_conjecture
        assert rep.total == lambda_tilde_size(p, 1)


def test_explore_conjecture_prime_power_case():
    rep = explore_conjecture(4, 1)
    assert rep.total == 10
    assert rep.zero_coefficients == [] and rep.consistent_with_conjecture


def test_explore_conjecture_composite_case():
    rep = explore_conjecture(6, 1)
    assert rep.total == 80
    assert len(rep.zero_coefficients) == 12
    assert not rep.is_prime_power and rep.consistent_with_conjecture
    assert all(sum(lam) % 6 == 0 for lam in rep.zero_coefficients)


def test_explore_conjecture_checks_budget_before_enumerating(monkeypatch):
    from msproots import groupdet

    def boom(*args, **kwargs):
        raise AssertionError("keys enumerated before the budget check")

    monkeypatch.setattr(groupdet, "leading_keys", boom)
    with pytest.raises(BudgetExceeded, match="18784170 count vectors or map keys exceed the budget of 10000000"):
        explore_conjecture(16, 1)  # lambda_tilde_size(16, 1) keys, over the default budget
    with pytest.raises(BudgetExceeded):
        explore_conjecture(24, 1)
    with pytest.raises(BudgetExceeded, match="80 count vectors or map keys exceed the budget of 79"):
        explore_conjecture(6, 1, budget=79)  # the 80 keys of (6, 1)
    with pytest.raises(AssertionError, match="keys enumerated"):
        explore_conjecture(6, 1, budget=80)  # the key check passes, and the collect starts


def test_thm11_checks_the_prime_family_budget_before_enumerating(monkeypatch):
    from msproots import verify

    def boom(*args, **kwargs):
        raise AssertionError("partitions enumerated before the budget check")

    monkeypatch.setattr(verify, "_family", boom)
    with pytest.raises(BudgetExceeded, match="10400600 count vectors or map keys exceed the budget of 10000000"):
        check_thm11(13, 1)  # binom(26, 13) count vectors of sum <= 13
    with pytest.raises(AssertionError, match="partitions enumerated"):
        check_thm11(13, 1, budget=10_400_600)  # the check passes, and the family is enumerated


def test_suites_walk_under_the_given_budget():
    # at n = 5 the prime family's down-set is every count vector of sum <= 5 over 5 columns
    with pytest.raises(BudgetExceeded, match="252 count vectors or map keys exceed the budget of 251; pass a larger"):
        check_thm11(5, 1, budget=251)
    assert check_thm11(5, 1, budget=252).passed
    for check, args in [(check_thm12, (4, 1)), (check_thm32, (3, 1)), (check_branching, (3, 1, 1)),
                        (check_prop_2_1, (3, 1)), (check_theorems, (3, 1))]:
        with pytest.raises(BudgetExceeded, match="budget of 5"):
            check(*args, budget=5)
        assert check(*args, budget=10_000).passed


def test_explore_conjecture_rejects_trivial_order():
    with pytest.raises(ValueError):
        explore_conjecture(1, 1)
    with pytest.raises(ValueError):
        explore_conjecture(1, 3)


def test_conjecture_report_dict():
    d = explore_conjecture(3, 1).to_dict()
    assert d["total"] == 4 and d["zero_coefficients"] == []
    assert d["is_prime_power"] is True and d["consistent_with_conjecture"] is True
