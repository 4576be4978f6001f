"""Zeta and multiple zeta numerics against independent partial-sum oracles.

The reference decimals in this file were produced by a separate
brute-force script (direct partial sums in 40-digit decimal arithmetic
with integral-sandwich tail bounds) and then frozen here.  The depth-3
values with a 1 come from mpmath at 50 digits: the outer sum over k_1 of
k_1^-a times the log-free tail sum_{k_1 < k_2 < k_3} k_2^-b k_3^-c,
Richardson-extrapolated in 1/N over N = 50 * 2^j.  They agree to 25
digits with zeta(1,3,2) = (53 zeta(6) - 36 zeta(3)^2) / 24,
zeta(2,1,2) = (9 zeta(5) - 4 zeta(2) zeta(3)) / 2 and
zeta(1,1,3) = 2 zeta(5) - zeta(2) zeta(3).
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feynperiods.mzv import (
    IteratedIntegralWord,
    bernoulli,
    euler_even_zeta,
    iterated_integral_word,
    mzv,
    mzv_with_error,
    p35,
    p35_period,
    stuffle_check,
    zeta,
)

ZETA2 = Decimal("1.64493406684822643647")
ZETA3 = Decimal("1.202056903159594285")
ZETA4 = Decimal("1.08232323371113819152")
ZETA5 = Decimal("1.036927755143369926")
ZETA8 = Decimal("1.004077356197944339")
ZETA35 = Decimal("0.03770767298484754401")
ZETA22 = Decimal("0.81174242528335364364")
ZETA132 = Decimal("0.07922139756520716600")
ZETA212 = Decimal("0.71156619755057243210")
ZETA113 = Decimal("0.09655115998944373447")
P35 = 2.2345650561425603
P35_PERIOD = 71.50608179656193


def brute_mzv(indices, kmax):
    """Plain nested partial sum, float arithmetic, no acceleration."""
    r = len(indices)
    sums = [0.0] * (r + 1)
    sums[0] = 1.0
    # sums[i] after processing k holds the depth-i partial sum with k_i <= k
    for k in range(1, kmax + 1):
        for i in range(r, 0, -1):
            sums[i] += sums[i - 1] / k ** indices[i - 1]
    return sums[r]


def test_bernoulli():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(8) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_euler_even_zeta_exact_coefficients():
    assert euler_even_zeta(2)[0] == Fraction(1, 6)
    assert euler_even_zeta(4)[0] == Fraction(1, 90)
    assert euler_even_zeta(6)[0] == Fraction(1, 945)
    assert euler_even_zeta(8)[0] == Fraction(1, 9450)
    with pytest.raises(ValueError):
        euler_even_zeta(3)


def test_zeta_against_frozen_values():
    for n, ref in ((2, ZETA2), (3, ZETA3), (4, ZETA4), (5, ZETA5), (8, ZETA8)):
        assert abs(zeta(n, 14) - float(ref)) < 5e-14, n


def test_zeta_matches_euler_closed_form():
    for n in (2, 4, 6, 8, 10):
        assert zeta(n, 13) == pytest.approx(euler_even_zeta(n)[1], abs=2e-13)


def test_zeta_error_bound_is_honest():
    for n in (2, 3, 5):
        value, bound = mzv_with_error((n,), 16)
        ref = {2: ZETA2, 3: ZETA3, 5: ZETA5}[n]
        assert abs(value - ref) <= bound + Decimal("1e-18")
        assert bound < Decimal("1e-16")


def test_mzv_35_against_frozen_value():
    value, bound = mzv_with_error((3, 5), 16)
    assert abs(value - ZETA35) <= bound + Decimal("1e-18")
    assert bound < Decimal("1e-16")
    assert mzv((3, 5)) == pytest.approx(float(ZETA35), abs=1e-12)


def test_mzv_against_brute_partial_sums():
    # brute sums are increasing; the tail after kmax is under zeta(2)/kmax^2
    for idx in ((2, 3), (3, 2), (2, 2, 2)):
        ref = mzv(idx, 13)
        low = brute_mzv(idx, 400)
        assert low < ref < low + 1.7 / 400 ** (idx[-1] - 1) + 1e-10, idx


def test_mzv_22_closed_form():
    # zeta(2,2) = (zeta(2)^2 - zeta(4)) / 2 = pi^4 / 120
    value = mzv((2, 2), 14)
    assert value == pytest.approx(float(ZETA22), abs=1e-13)
    assert value == pytest.approx(math.pi ** 4 / 120, abs=1e-13)


def test_mzv_euler_identity():
    # sum over k1 < k2 of 1/(k1 k2^2) equals zeta(3); the inner 1 slows the
    # nested sum to (ln L)/L, but the convolution at 1/2 does not care
    value, bound = mzv_with_error((1, 2), 14)
    assert abs(value - ZETA3) <= bound
    assert bound < Decimal("5e-15")


def test_mzv_with_ones_against_frozen_values():
    for idx, ref in (((1, 3, 2), ZETA132), ((2, 1, 2), ZETA212), ((1, 1, 3), ZETA113)):
        value, bound = mzv_with_error(idx, 14)
        assert abs(value - ref) <= bound + Decimal("1e-20"), idx
        assert bound < Decimal("5e-15"), idx


def _admissible(weight, depth):
    """Every index of the given weight and depth whose last entry is >= 2."""
    if depth == 1:
        return [(weight,)] if weight >= 2 else []
    return [
        (first,) + rest
        for first in range(1, weight - depth + 1)
        for rest in _admissible(weight - first, depth - 1)
    ]


@settings(max_examples=25, deadline=None)
@given(
    shape=st.integers(min_value=3, max_value=8).flatmap(
        lambda w: st.tuples(st.just(w), st.integers(min_value=2, max_value=w - 1))
    ),
    digits=st.integers(min_value=4, max_value=14),
)
def test_sum_theorem(shape, digits):
    # the sum of all admissible values of fixed weight and depth is zeta(weight)
    weight, depth = shape
    total, slack = mzv_with_error((weight,), digits)
    with localcontext() as ctx:
        ctx.prec = 60  # exact sums of the 30-odd-digit terms
        for idx in _admissible(weight, depth):
            value, bound = mzv_with_error(idx, digits)
            total -= value
            slack += bound
        assert abs(total) <= slack
    assert slack < Decimal(len(_admissible(weight, depth)) + 1).scaleb(-digits)


def test_divergent_indices_rejected():
    with pytest.raises(ValueError, match="last entry"):
        mzv((2, 1))
    with pytest.raises(ValueError, match="last entry"):
        mzv((1,))
    with pytest.raises(ValueError):
        mzv((0, 2))
    with pytest.raises(ValueError):
        mzv(())
    # a bare number is not an index sequence
    for call in (lambda: mzv(3), lambda: iterated_integral_word(3)):
        with pytest.raises(ValueError, match="indices must be a sequence of integers, got 3"):
            call()
    # non-integral or boolean indices and digits are refused, not truncated
    for call in (lambda: zeta(2.5), lambda: zeta(True), lambda: mzv((2.9, 3)),
                 lambda: mzv((True, 2)), lambda: mzv_with_error((3,), 5.9),
                 lambda: mzv_with_error((3,), True)):
        with pytest.raises(ValueError, match="must be an integer"):
            call()
    assert mzv((np.int64(3), np.int32(5)), np.int64(12)) == mzv((3, 5), 12)


def test_stuffle_product():
    assert stuffle_check(2, 3)
    assert stuffle_check(2, 2)
    assert stuffle_check(3, 4, tol=1e-9)
    with pytest.raises(ValueError):
        stuffle_check(1, 2)


def test_word_encoding():
    w = iterated_integral_word((2,))
    assert w == IteratedIntegralWord(sign=-1, letters=(1, 0))
    assert w.weight == 2
    w = iterated_integral_word((3, 5))
    assert w.sign == 1
    assert w.letters == (1, 0, 0, 1, 0, 0, 0, 0)
    assert w.weight == 8
    with pytest.raises(ValueError):
        iterated_integral_word((2, 1))


def test_p35_value():
    assert p35(14) == pytest.approx(P35, abs=1e-13)
    assert p35_period(14) == pytest.approx(P35_PERIOD, abs=1e-11)
    assert p35_period(12) == pytest.approx(32 * p35(12), abs=1e-12)
