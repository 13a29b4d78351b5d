import pytest

from pointvector import gradcheck


@pytest.mark.parametrize("case", sorted(gradcheck.CASES))
def test_case_within_tolerance(case):
    assert gradcheck.run_case(case, 0) < gradcheck.TOLERANCE
