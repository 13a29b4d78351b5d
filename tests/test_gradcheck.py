import pytest

from pointvector import gradcheck, nnops


@pytest.mark.parametrize("case", sorted(gradcheck.CASES))
def test_case_within_tolerance(case):
    assert gradcheck.run_case(case, 0) < gradcheck.TOLERANCE


@pytest.mark.parametrize("case", ["aggregation_modes_padded", "sum_all"])
def test_case_runs_in_double_under_single_precision(case):
    with nnops.precision("single"):
        assert gradcheck.run_case(case, 0) < gradcheck.TOLERANCE
