"""Zeta values, multiple zeta values, and their exact bookkeeping.

Multiple zeta values are the nested sums

    zeta(n_1, ..., n_r) = sum over 0 < k_1 < ... < k_r of
                          1 / (k_1^{n_1} * ... * k_r^{n_r})

convergent when the last index is >= 2.  The weight is n_1 + ... + n_r and
the depth is r.

Numerical evaluation works on the period itself: the iterated integral from
0 to 1 of the index's word (see :func:`iterated_integral_word`), split at
1/2 by the Hoelder convolution of Borwein, Bradley, Broadhurst and
Lisonek (arXiv:math/9910045, section 7).  Both halves are power series
with non-negative coefficients evaluated at 1/2, so every truncation has an
explicit geometric tail bound and every admissible index, including those
containing a 1, is certified to any requested number of digits in
``decimal`` arithmetic.

Exact structures: Bernoulli numbers, the even-zeta evaluation
``zeta(2n) = c * pi^(2n)`` with rational c, the shuffle-free "stuffle"
product check ``zeta(m) zeta(n) = zeta(m,n) + zeta(n,m) + zeta(m+n)``, and
the encoding of an index as an iterated-integral word in the letters 0/1.

The weight-8 combination P35 is evaluated as

    P35 = -(216/5) zeta(3,5) - 81 zeta(5) zeta(3) + (522/5) zeta(8).

(The zeta(8) coefficient is sometimes quoted as 552/5; only 522/5 is
consistent with the coefficient ratio 3024/7308 = 216/522 = 12/29 that the
Galois analysis of the corresponding amplitude pins down, so 522/5 is used
here.)
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from functools import lru_cache

from .polynomials import _as_int

# pi to 50 digits, for float-accurate even zeta values
_PI = Decimal("3.14159265358979323846264338327950288419716939937511")
_LOG2_10 = math.log2(10)


@lru_cache(maxsize=None, typed=True)  # typed: True must not hit the entry for 1
def bernoulli(n):
    """Bernoulli number B_n as an exact Fraction (B_1 = -1/2)."""
    n = _as_int("n", n)
    if n < 0:
        raise ValueError("Bernoulli numbers need n >= 0")
    if n == 0:
        return Fraction(1)
    if n > 1 and n % 2:
        return Fraction(0)
    acc = Fraction(0)
    for k in range(n):
        acc += math.comb(n + 1, k) * bernoulli(k)
    return -acc / (n + 1)


def euler_even_zeta(n):
    """zeta(n) for even n as (rational coefficient of pi^n, floating value).

    The closed form ``zeta(2m) = (-1)^(m+1) B_{2m} 2^(2m-1) / (2m)! * pi^(2m)``
    gives zeta(2) = pi^2/6, zeta(4) = pi^4/90, zeta(6) = pi^6/945, ...
    """
    n = _as_int("n", n)
    if n < 2 or n % 2:
        raise ValueError("euler_even_zeta needs an even index n >= 2")
    m = n // 2
    c = (-1) ** (m + 1) * bernoulli(n) * 2 ** (n - 1) / math.factorial(n)
    with localcontext() as ctx:
        ctx.prec = 40
        value = Decimal(c.numerator) / Decimal(c.denominator) * _PI ** n
    return c, float(value)


def _validate_indices(indices):
    try:
        items = tuple(indices)
    except TypeError:
        raise ValueError(f"indices must be a sequence of integers, got {indices!r}") from None
    idx = tuple(_as_int("index", n) for n in items)
    if not idx:
        raise ValueError("empty index")
    if any(n < 1 for n in idx):
        raise ValueError(f"indices must be positive integers: {idx}")
    if idx[-1] < 2:
        raise ValueError(f"divergent index {idx}: the last entry must be >= 2")
    return idx


def _tail_bound(order, ones):
    """Bound on ``sum_{k > order} c_k 2^-k`` for a word with ``ones`` letters 1.

    The coefficients obey ``0 <= c_k <= C(k-1, ones-1)``, and the ratio
    ``k / (2(k - ones + 1))`` of consecutive majorants decreases in k, so
    the tail is at most the first omitted majorant over ``1 - rho`` with
    ``rho = (order+1) / (2(order+2-ones))``; needs ``order >= 2*ones - 2``.
    """
    if not ones:
        return Decimal(0)  # the empty word: L = 1 exactly
    num = math.comb(order, ones - 1) * (order + 2 - ones)
    return Decimal(num) / Decimal((order + 3 - 2 * ones) << order)


def _truncation(counts, order):
    """Summed tail bounds of series cut at ``order``; ``counts`` maps ones to multiplicity."""
    return sum(m * _tail_bound(order, p) for p, m in counts.items())


def _truncation_order(counts, tol):
    """(K, truncation at K) for the least order K >= ``least`` whose truncation is <= tol / 2.

    ``least = max(1, 2 * max(counts) - 2)`` keeps every tail bound valid.
    With ``S(K) = 2^K * truncation(K)``, the test ``truncation(K) <= tol/2``
    reads ``K >= log2 S(K) - log2(tol/2)``, whose right side grows far slower
    than K; so stepping K up to the ceiling of the right side, from
    ``least``, climbs to the least such K in a few steps.  S is summed in
    exact integers scaled by 2^32 and only its logarithm is a float, so no
    order overflows.  Single steps on the Decimal truncation itself then
    settle the order, so it is the one the certified comparison picks.
    """
    half = tol / 2
    least = max(1, 2 * max(counts) - 2)
    exponent = half.adjusted()  # log2(half) from digits and exponent: no float underflow
    target = math.log2(float(half.scaleb(-exponent))) + exponent * _LOG2_10
    terms = [(p, m) for p, m in counts.items() if p]  # the empty word's bound is 0
    order = least
    while True:
        scaled = 0
        for p, m in terms:
            scaled += (m * math.comb(order, p - 1) * (order + 2 - p) << 32) // (order + 3 - 2 * p)
        need = math.ceil(math.log2(scaled) - 32 - target)
        if need <= order:
            break
        order = need
    bound = _truncation(counts, order)
    while bound > half:
        order += 1
        bound = _truncation(counts, order)
    while order > least:
        below = _truncation(counts, order - 1)
        if below > half:
            break
        order, bound = order - 1, below
    return order, bound


def _prefix_values(letters, order):
    """``I(0; prefix; 1/2)`` for every prefix of ``letters``, series cut at ``order``.

    Works on ``d_k = c_k 2^-k`` for the power series ``sum c_k x^k`` of the
    running iterated integral, starting from the constant 1.  Letter 0
    (dx/x) maps c_k to c_k / k; letter 1 (dx/(1-x)) maps c_k to
    ``sum_{i<k} c_i / k``, whose 2^-k-weighted partial sum obeys
    ``S_{k+1} = (S_k + d_k) / 2``.
    """
    half = Decimal("0.5")
    d = [Decimal(1)] + [Decimal(0)] * order
    values = [Decimal(1)]
    for a in letters:
        if a:
            s = Decimal(0)
            new = [s]
            for k, x in zip(range(1, order + 1), d):
                s = (s + x) * half
                new.append(s / k)
            d = new
        else:
            d = [d[0]] + [d[k] / k for k in range(1, order + 1)]
        values.append(sum(d))
    return values


def _mzv_decimal(indices, tol):
    """(value, error bound) for an admissible index, in the current Decimal context.

    For the word ``w = a_1 ... a_n`` (letter 1 at the 0 end) the path from 0
    to 1 splits at 1/2, and ``t -> 1 - t`` maps the upper piece onto
    ``[0, 1/2]`` with the letters swapped, so

        zeta(w) = sum_{j=0..n} L(a_1 ... a_j) * L(~a_n ... ~a_{j+1})

    with ``L(u) = I(0; u; 1/2)`` and ``~`` swapping 0 and 1.  Every L is a
    series with non-negative coefficients, at most 1, and cut at the same
    order K: the smallest one whose summed tails stay under ``tol / 2``.
    """
    letters = iterated_integral_word(indices).letters
    n = len(letters)
    dual = tuple(1 - a for a in reversed(letters))
    # ones in a_1..a_j, and in ~a_n..~a_{j+1} (the zeros of a_{j+1}..a_n)
    ones = [sum(letters[:j]) for j in range(n + 1)]
    dual_ones = [n - j - (ones[n] - ones[j]) for j in range(n + 1)]
    order, truncation = _truncation_order(Counter(ones + dual_ones), tol)
    left = _prefix_values(letters, order)
    right = _prefix_values(dual, order)
    value = sum(left[j] * right[n - j] for j in range(n + 1))
    # Rounding: every operation errs by at most u = 10^(1 - prec) on values
    # below 10.  One letter adds at most 5u per coefficient to the l1 norm
    # of d (the S recursion halves its errors), later letters never enlarge
    # it, and summing d adds K u; so L after j letters is off by
    # (5j + 1) K u.  The n + 1 products and sums then give at most
    # (n + 1)((5n + 2) K + 2) u <= 6 (n + 1)^2 (K + 1) u, whose remainder
    # also covers the rounding of the tail bounds.
    ulp = Decimal(10) ** (1 - getcontext().prec)
    slack = 6 * (n + 1) ** 2 * (order + 1) * ulp
    return value, truncation + slack


def _target_digits(value):
    """``value`` read by :func:`_as_int`; fewer than one digit is a ValueError."""
    target_digits = _as_int("target_digits", value)
    if target_digits < 1:
        raise ValueError("target_digits must be >= 1")
    return target_digits


def _positive_tol(tol):
    """``tol`` as a positive finite float; it must be a real number or a Decimal, not a bool."""
    value = math.nan
    if isinstance(tol, (numbers.Real, Decimal)) and not isinstance(tol, bool):
        try:
            value = float(tol)
        except (OverflowError, ValueError):  # an int past the float range, a signalling NaN
            pass
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"tol must be a positive finite real number, got {tol!r}")
    return value


def zeta(n, target_digits=12):
    """zeta(n) for integer n >= 2, accurate to ``target_digits`` decimals."""
    n = _as_int("n", n)
    if n < 2:
        raise ValueError("zeta(n) needs n >= 2")
    return mzv((n,), target_digits)


def mzv(indices, target_digits=12):
    """Multiple zeta value of an admissible index tuple, as a float.

    Every admissible index, with or without entries equal to 1, is
    certified to ``target_digits`` decimals.
    """
    value, _ = mzv_with_error(indices, target_digits)
    return float(value)


def mzv_with_error(indices, target_digits=12):
    """(value, certified error bound) as Decimals."""
    target_digits = _target_digits(target_digits)
    tol = Decimal(1).scaleb(-target_digits) / 2
    with localcontext() as ctx:
        ctx.prec = target_digits + 15
        value, bound = _mzv_decimal(indices, tol)
        return +value, +bound


def stuffle_check(m, n, tol=1e-10):
    """Check ``zeta(m) zeta(n) = zeta(m,n) + zeta(n,m) + zeta(m+n)`` numerically.

    The identity is the shuffle of the two defining sums: split the double
    sum over (j, k) into j < k, j > k, and the diagonal j = k.
    """
    m, n, tol = _as_int("m", m), _as_int("n", n), _positive_tol(tol)
    if m < 2 or n < 2:
        raise ValueError("stuffle check needs both indices >= 2")
    digits = max(6, int(-math.log10(tol)) + 3)

    def z(*idx):
        return mzv_with_error(idx, digits)[0]

    with localcontext() as ctx:
        ctx.prec = digits + 15
        lhs = z(m) * z(n)
        rhs = z(m, n) + z(n, m) + z(m + n)
        return abs(lhs - rhs) <= Decimal(str(tol))


@dataclass(frozen=True)
class IteratedIntegralWord:
    """Iterated-integral encoding of an admissible index.

    ``letters`` spells the forms dx/x (letter 0) and dx/(1-x) (letter 1)
    left to right; the word for (n_1, ..., n_r) is
    ``1 0^(n_1 - 1) 1 0^(n_2 - 1) ... 1 0^(n_r - 1)``.  With these forms
    the integral from 0 to 1 is the value itself; ``sign`` = (-1)^r is the
    sign the word carries when letter 1 stands for dx/(x-1) instead.  The
    word length equals the weight.
    """

    sign: int
    letters: tuple[int, ...]

    @property
    def weight(self):
        return len(self.letters)


def iterated_integral_word(indices):
    idx = _validate_indices(indices)
    letters = []
    for n in idx:
        letters.append(1)
        letters.extend([0] * (n - 1))
    return IteratedIntegralWord(sign=(-1) ** len(idx), letters=tuple(letters))


def p35(target_digits=12):
    """The weight-8 combination -(216/5) zeta(3,5) - 81 zeta(5) zeta(3) + (522/5) zeta(8)."""
    target_digits = _target_digits(target_digits)
    z35, z5, z3, z8 = (
        mzv_with_error(idx, target_digits + 2)[0] for idx in ((3, 5), (5,), (3,), (8,))
    )
    with localcontext() as ctx:
        ctx.prec = target_digits + 15
        value = Decimal(-216) / 5 * z35 - 81 * z5 * z3 + Decimal(522) / 5 * z8
    return float(value)


def p35_period(target_digits=12):
    """``32 * P35``: the parametric period this combination multiplies at six loops."""
    return 32 * p35(target_digits)
