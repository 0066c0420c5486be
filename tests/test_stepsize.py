"""Power-law stepsizes and the summability verdicts.

The closed-form verdicts are cross-checked against a numerical dyadic
block-sum oracle over ten million terms: the plain sum must diverge and the
coupled sum  sum_k alpha_k * alpha_{floor(k/2)}  must converge.
"""

import numpy as np
import pytest

from dkmsim import PowerLawStepsize, check_stepsize_conditions
from dkmsim.errors import ParameterError

from oracles import dyadic_sum_verdict


def test_reference_schedule_values():
    ss = PowerLawStepsize(1.0, 0.7, 1)
    assert ss.alpha(0) == 1.0
    assert ss.alpha(1) == pytest.approx(2.0**-0.7)
    assert ss.alpha(1) == pytest.approx(0.6155722066724582)


def test_constant_schedule():
    ss = PowerLawStepsize(1.0, 0.0, 1)
    assert all(ss.alpha(k) == 1.0 for k in range(10))


def test_plain_arithmetic_case():
    ss = PowerLawStepsize(0.5, 1.0, 1)
    assert ss.alpha(9) == pytest.approx(0.05)


def test_alpha_half_lag():
    ss = PowerLawStepsize(1.0, 0.7, 1)
    assert ss.alpha_half(0) == ss.alpha(0)
    assert ss.alpha_half(1) == ss.alpha(0)
    assert ss.alpha_half(5) == ss.alpha(2)
    assert ss.alpha_half(7) == pytest.approx(4.0**-0.7)


def test_schedule_is_nonincreasing_and_in_range():
    for gamma in (0.0, 0.5, 0.7, 1.0, 1.5):
        ss = PowerLawStepsize(1.0, gamma, 1)
        vec = np.array([ss.alpha(k) for k in range(1000)])
        assert np.all(vec > 0)
        assert np.all(vec <= 1.0)
        assert np.all(np.diff(vec) <= 0)


def test_construction_guards():
    with pytest.raises(ParameterError):
        PowerLawStepsize(0.0, 0.7, 1)
    with pytest.raises(ParameterError):
        PowerLawStepsize(1.0, -0.1, 1)
    with pytest.raises(ParameterError):
        PowerLawStepsize(1.0, 0.7, 0)
    with pytest.raises(ParameterError):
        PowerLawStepsize(1.0, 0.7, 1.5)
    with pytest.raises(ParameterError):
        # alpha_0 = 2 / 1^0.7 = 2 > 1
        PowerLawStepsize(2.0, 0.7, 1)
    # larger k0 re-admits the same alpha0
    PowerLawStepsize(2.0, 0.7, 3)


def test_negative_round_rejected():
    with pytest.raises(ParameterError):
        PowerLawStepsize().alpha(-1)


def test_overflowing_power_is_a_parameter_error():
    ss = PowerLawStepsize(1.0, 200.0, 1)
    assert ss.alpha(33) > 0.0  # 34^200 is about 1e306
    with pytest.raises(ParameterError, match=r"alpha_34 is out of float range"):
        ss.alpha(34)
    # alpha_0 itself out of range fails at construction, with the same error
    with pytest.raises(ParameterError, match=r"alpha_0 is out of float range"):
        PowerLawStepsize(1.0, 400.0, 10)


def test_condition_verdicts():
    assert check_stepsize_conditions(PowerLawStepsize(1.0, 0.7, 1)).passed
    assert check_stepsize_conditions(PowerLawStepsize(1.0, 1.0, 1)).passed

    slow = check_stepsize_conditions(PowerLawStepsize(1.0, 0.4, 1))
    assert not slow.passed
    assert any("condition (iii)" in v.where for v in slow.violations)

    fast = check_stepsize_conditions(PowerLawStepsize(1.0, 1.1, 1))
    assert not fast.passed
    assert any("condition (ii)" in v.where for v in fast.violations)

    boundary = check_stepsize_conditions(PowerLawStepsize(1.0, 0.5, 1))
    assert not boundary.passed
    assert any("condition (iii)" in v.where for v in boundary.violations)


def coupled_term(ss):
    def term(k):
        return (ss.alpha0 / (k + ss.k0) ** ss.gamma) * (
            ss.alpha0 / (np.floor(k / 2) + ss.k0) ** ss.gamma
        )

    return term


def plain_term(ss):
    return lambda k: ss.alpha0 / (k + ss.k0) ** ss.gamma


@pytest.mark.parametrize(
    "gamma,plain,coupled",
    [
        (0.4, "diverges", "diverges"),
        (0.7, "diverges", "converges"),
        (1.0, "diverges", "converges"),
        (1.1, "converges", "converges"),
    ],
)
def test_verdicts_match_numerical_oracle(gamma, plain, coupled):
    ss = PowerLawStepsize(1.0, gamma, 1)
    assert dyadic_sum_verdict(plain_term(ss)) == plain
    assert dyadic_sum_verdict(coupled_term(ss)) == coupled
    # the analytic checker must agree with the oracle's combined verdict
    report = check_stepsize_conditions(ss)
    assert report.passed == (plain == "diverges" and coupled == "converges")
