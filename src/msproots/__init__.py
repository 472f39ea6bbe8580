"""Exact special values of monomial symmetric polynomials at roots of unity.

Exact cyclotomic-integer readout, bounded-partition enumeration,
three independent evaluators for the orbit-sum values, expansion and
term counting of cyclic-group determinant powers, and machine
verification suites for the identities tying all of it together.
"""

from .cyclotomic import (
    CyclotomicInt,
    IntegralityViolation,
    cyclotomic_poly,
)
from .partitions import (
    binomial,
    canonical_residues,
    enumerate_partitions,
    euler_phi,
    format_partition,
    invariant_dimension,
    lambda_tilde_size,
    parse_partition,
)
from .msp import (
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
from .groupdet import (
    MonomialMap,
    count_terms,
    dedekind_expand,
    exponent_key,
    key_partition,
    leibniz_determinant,
    orbit_expand,
    prime_term_count,
)
from .verify import (
    ConjectureReport,
    TheoremViolation,
    VerificationReport,
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

from . import cyclotomic, groupdet, msp

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every memo the package keeps for the life of the process.

    These are the DP values of single-instance calls (`msp._dp_value`, keyed
    with the budget so that a hit never skips the size guard; `msp_values_dp`
    and the verify suites keep none), the finished expansions
    (`groupdet._expansions`), the cyclotomic polynomials and the readout
    tables built from them; all are unbounded, and a long session can
    call this to give their memory back.
    """
    msp._dp_value.cache_clear()
    groupdet._expansions.clear()
    cyclotomic.cyclotomic_poly.cache_clear()
    cyclotomic._reduction_rows.cache_clear()
