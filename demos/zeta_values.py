"""Zeta values and multiple zeta values with certified accuracy.

Run from the repository root: python3 demos/zeta_values.py
"""

from feynperiods import (
    euler_even_zeta,
    iterated_integral_word,
    mzv,
    mzv_with_error,
    p35,
    p35_period,
    stuffle_check,
    zeta,
)

# Even zeta values are rational multiples of powers of pi.
for n in (2, 4, 6, 8):
    coeff, value = euler_even_zeta(n)
    print(f"zeta({n}) = {coeff} * pi^{n} = {value:.15f}")

# Odd values have no such closed form; the evaluator reports a certified
# truncation bound along with the value.
value, bound = mzv_with_error((3,), 16)
print(f"\nzeta(3) = {value}  (error <= {bound:.1E})")

# Euler: the sum over k1 < k2 of 1/(k1 k2^2) is zeta(3) again.  Indices
# containing a 1 are certified like any other.
value, bound = mzv_with_error((1, 2), 16)
print(f"zeta(1,2) = {value}  (error <= {bound:.1E})")

# Nested sums over k1 < k2: zeta(3,5) appears in the six-loop period story.
value, bound = mzv_with_error((3, 5), 16)
print(f"zeta(3,5) = {value}  (error <= {bound:.1E})")

# Multiplying two single sums splits over j < k, j > k, j = k.  The
# library verifies the identity numerically to the requested tolerance.
print("\nstuffle zeta(2)zeta(3) = zeta(2,3)+zeta(3,2)+zeta(5):", stuffle_check(2, 3, tol=1e-10))

# Every admissible index has an iterated-integral encoding: a word in two
# letters whose length is the weight.
word = iterated_integral_word((3, 5))
print("word for zeta(3,5):", "".join(str(b) for b in word.letters), " weight", word.weight)

# The weight-8 combination steering the six-loop amplitude coefficient,
# and the parametric period it multiplies.
print(f"\nP35      = {p35():.12f}")
print(f"32 * P35 = {p35_period():.10f}")

# depth three is no harder, and zeta(2,2,2) has the closed form
# pi^6/5040 to check against
closed = euler_even_zeta(6)[1] * 945 / 5040
print(f"zeta(2,2,2) = {mzv((2, 2, 2), 14):.15f}  (pi^6/5040 = {closed:.15f})")
