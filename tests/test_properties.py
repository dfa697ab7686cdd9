from renege.properties import (
    des_inclusion_suite,
    end_case_table_mismatches,
    pointwise_inequality_suite,
    step_monotonicity_violations,
)

from oracles import fifo_nonmonotonicity_witness


def test_pointwise_inequalities_zero_violations():
    suite = pointwise_inequality_suite(100_000)
    assert suite == {name: 0 for name in suite}


def test_step_monotonicity():
    assert step_monotonicity_violations(100_000) == 0


def test_end_case_table_exact_agreement():
    assert end_case_table_mismatches(100_000) == 0


def test_fifo_step_is_not_monotone():
    x, y, fx, fy = fifo_nonmonotonicity_witness()
    assert x < y and fx > fy


def test_des_inclusion_suite_clean():
    suite = des_inclusion_suite(customers=1500)
    assert suite == {name: 0 for name in suite}
