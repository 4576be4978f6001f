"""Exact sparse polynomial arithmetic."""

from fractions import Fraction

import pytest

from feynperiods.polynomials import SparsePolynomial, parse_polynomial

a1 = SparsePolynomial.variable(1)
a2 = SparsePolynomial.variable(2)
a3 = SparsePolynomial.variable(3)


def test_constructors():
    assert SparsePolynomial.zero().is_zero()
    assert not SparsePolynomial.one().is_zero()
    assert SparsePolynomial.constant(0).is_zero()
    assert SparsePolynomial.constant(Fraction(2, 2)) == SparsePolynomial.one()
    assert SparsePolynomial.monomial([1, 1, 2], 3) == 3 * a1 * a1 * a2
    with pytest.raises(ValueError):
        SparsePolynomial.variable(0)


def test_ring_axioms_on_samples():
    ps = [a1 + 2 * a2, a3 * a3 - a1, SparsePolynomial.one(), SparsePolynomial.zero(), a1 * a2 * a3 + 5]
    for p in ps:
        for q in ps:
            assert p + q == q + p
            assert p * q == q * p
            for r in ps:
                assert (p + q) + r == p + (q + r)
                assert p * (q + r) == p * q + p * r
        assert p + SparsePolynomial.zero() == p
        assert p * SparsePolynomial.one() == p
        assert p - p == SparsePolynomial.zero()


def test_scalar_and_fraction_coefficients():
    p = Fraction(1, 2) * a1 + Fraction(1, 2) * a1
    assert p == a1  # integral Fractions normalize back to int
    assert isinstance(p.terms[((1, 1),)], int)
    assert (Fraction(1, 3) * a1).terms[((1, 1),)] == Fraction(1, 3)
    assert 2 * a1 == a1 * 2 == a1 + a1
    assert 1 - a1 == -(a1 - 1)
    for scalar in (True, 0.5):  # a bool or a float is not an exact scalar
        for op in (lambda: a1 + scalar, lambda: scalar * a1):
            with pytest.raises(TypeError):
                op()


def test_power():
    p = a1 + a2
    assert p ** 0 == SparsePolynomial.one()
    assert p ** 1 == p
    assert p ** 3 == p * p * p
    with pytest.raises(ValueError):
        p ** -1


def test_homogeneity_and_degrees():
    psi = a1 * a3 + a2 * a3 + a1 * a2
    assert psi.is_homogeneous() == 2
    assert psi.total_degree() == 2
    assert (a1 + a1 * a2).is_homogeneous() is None
    assert SparsePolynomial.zero().is_homogeneous() == 0
    assert psi.degree_in_vars([1]) == (0, 1)
    assert psi.degree_in_vars([1, 2]) == (1, 2)
    with pytest.raises(ValueError):
        SparsePolynomial.zero().degree_in_vars([1])


def test_variables_and_coefficient():
    p = 2 * a1 * a2 + a3
    assert p.variables() == (1, 2, 3)
    assert p.coefficient({1, 2}) == 2
    assert p.coefficient({3}) == 1
    assert p.coefficient({1}) == 0


def test_evaluate():
    p = a1 * a1 + 2 * a2
    assert p.evaluate({1: 0.5, 2: 3.0}) == 6.25
    with pytest.raises(ValueError):
        p.evaluate({1: 1.0})  # a2 missing


def test_immutability():
    p = a1 + a2
    with pytest.raises(AttributeError):
        p.terms = {}
    assert hash(p) == hash(a2 + a1)


def test_render():
    assert SparsePolynomial.zero().render() == "0"
    assert (a1 + a2 + a3).render() == "a1 + a2 + a3"
    assert (a1 * a3 + a1 * a2).render() == "a1*a2 + a1*a3"
    assert (2 * a1 * a1 - a2).render() == "-a2 + 2*a1^2"
    assert (Fraction(-1, 3) * a1).render() == "-1/3*a1"
    # degree-graded order: low-degree terms first
    assert (a1 * a2 + a3).render() == "a3 + a1*a2"


def test_parse_round_trip():
    for text in ("0", "a1 + a2 + a3", "2*a1^2 - a2", "-1/3*a1 + 5", "a3 + a1*a2"):
        assert parse_polynomial(text).render() == parse_polynomial(text).render()
        assert parse_polynomial(parse_polynomial(text).render()) == parse_polynomial(text)
    assert parse_polynomial("a1*a3 + a1*a4 + a2*a3 + a2*a4 + a3*a4").render() == \
        "a1*a3 + a1*a4 + a2*a3 + a2*a4 + a3*a4"


PARSED = [  # text, its rendering
    ("+ a1", "a1"),
    ("a1^0", "1"),
    ("-0", "0"),
    ("2/4*a1", "1/2*a1"),
    ("a3*a1*a3 - 2*a1*a3^2", "-a1*a3^2"),  # factors in any order, repeats add up
    ("a1 - a1 + a1", "a1"),
    ("a1 + -a2", "a1 - a2"),  # a term after "+" may carry its own minus
    # a binary minus and spaces around "*" read the same in every position
    ("a1-a2", "a1 - a2"),
    ("a1 -a2", "a1 - a2"),
    ("a1 + - a2", "a1 - a2"),
    ("2 * a1", "2*a1"),
    ("2 *a1", "2*a1"),
]

REFUSED = [  # text, the ValueError message
    ("", "empty polynomial text"),
    ("   ", "empty polynomial text"),
    ("a1 +", "malformed polynomial text: 'a1 +'"),
    ("a1 -", "malformed polynomial text: 'a1 -'"),
    ("a1 + + a2", "malformed polynomial text: 'a1 + + a2'"),
    ("-", "cannot parse term ''"),
    ("1..2*a1", "cannot parse term '1..2*a1'"),
    ("foo bar", "cannot parse term 'foo bar'"),
    ("1 / 2", "cannot parse term '1 / 2'"),
    ("1/2/3*a1", "cannot parse term '1/2/3*a1'"),
    ("2*", "cannot parse term '2*'"),
    ("1/0*a1", "zero denominator in term '1/0*a1'"),
    ("a0", "bad monomial entry (0, 1)"),
    ("a1 ** 2", "cannot parse factor '' in 'a1 ** 2'"),
    ("a1^", "cannot parse factor 'a1^' in 'a1^'"),
    ("a1*2", "cannot parse factor '2' in 'a1*2'"),
    ("a1 a2", "cannot parse factor 'a1 a2' in 'a1 a2'"),
    ("a1*-a2", "cannot parse factor '-a2' in 'a1*-a2'"),
    ("a1^-1", "cannot parse factor 'a1^-1' in 'a1^-1'"),
    # no term has two minus signs, before a variable or a coefficient
    ("--a1", "cannot parse term '-a1'"),
    ("a1 - -a2", "cannot parse term '-a2'"),
    ("--1", "cannot parse term '-1'"),
    ("a1 - -2*a2", "cannot parse term '-2*a2'"),
]


def test_parse_reads_the_grammar():
    for text, rendered in PARSED:
        assert parse_polynomial(text).render() == rendered, text


def test_parse_rejects_garbage():
    for text, message in REFUSED:
        with pytest.raises(ValueError) as err:
            parse_polynomial(text)
        assert str(err.value) == message, text
