"""The explicit period representations and the group law."""

import random
from fractions import Fraction

import numpy as np
import pytest

from feynperiods.galois import (
    GaloisElement,
    RatioCheck,
    RepMatrix,
    check_ratio_constraint,
    compose,
    galois_conjugate_span,
    identity,
    rep_2pi_i,
    rep_log2,
    rep_zeta35,
    rep_zeta_even,
    rep_zeta_odd,
)


def random_element(rng):
    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    lam = Fraction(0)
    while lam == 0:
        lam = frac()
    return GaloisElement(
        lam=lam,
        nu=frac(),
        sigma={3: frac(), 5: frac(), 7: frac()},
        sigma35=frac(),
    )


def test_element_validation():
    with pytest.raises(ValueError, match="nonzero"):
        GaloisElement(lam=0)
    with pytest.raises(ValueError, match="odd"):
        GaloisElement(sigma={4: 1})
    with pytest.raises(ValueError, match="rational"):
        GaloisElement(lam="x")
    g = GaloisElement(sigma={5: 0, 3: Fraction(1, 2)})
    assert g.sigma == ((3, Fraction(1, 2)),)  # zeros dropped, sorted
    assert g.sigma_odd(5) == 0
    assert g.sigma_odd(3) == Fraction(1, 2)
    # a sigma index must be an integer, not a number that truncates to one
    for n in (3.7, 3.0, True, Fraction(3)):
        with pytest.raises(ValueError, match="sigma index must be an integer"):
            GaloisElement(sigma={n: 2})
    assert GaloisElement(sigma={np.int64(3): 2}).sigma == ((3, 2),)


def test_identity_matrices():
    e = identity()
    assert rep_2pi_i(e).entries == ((1,),)
    assert rep_log2(e).entries == ((1, 0), (0, 1))
    assert rep_zeta_even(e, 8).entries == ((1,),)
    assert rep_zeta_odd(e, 3).entries == ((1, 0), (0, 1))
    assert rep_zeta35(e).entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_rep_matrix_validation():
    with pytest.raises(ValueError, match="lower triangular"):
        RepMatrix(((1, 1), (0, 1)), ("log(2)", "1"))
    with pytest.raises(ValueError, match="unit period"):
        RepMatrix(((1, 0), (0, 2)), ("log(2)", "1"))
    with pytest.raises(ValueError, match="shape"):
        RepMatrix(((1, 0),), ("log(2)", "1"))
    a = rep_log2(GaloisElement(lam=2))
    b = rep_zeta_odd(GaloisElement(lam=2), 3)
    with pytest.raises(ValueError, match="different bases"):
        a @ b


def test_zeta35_matrix_entries():
    g = GaloisElement(lam=2, nu=Fraction(1, 3), sigma={3: 1, 5: -2}, sigma35=4)
    m = rep_zeta35(g)
    assert m.basis == ("zeta(3,5)", "zeta(3)", "1")
    assert m.entries == ((256, 0, 0), (80, 8, 0), (4, 1, 1))
    assert m.row(1) == (80, 8, 0)  # -5 lam^3 sigma_5 = 80 leaks into zeta(3)


def test_even_odd_index_validation():
    g = identity()
    with pytest.raises(ValueError, match="even"):
        rep_zeta_even(g, 3)
    with pytest.raises(ValueError, match="odd"):
        rep_zeta_odd(g, 4)
    for rep, n in ((rep_zeta_even, 4.0), (rep_zeta_odd, 3.0), (rep_zeta_odd, 3.7),
                   (rep_zeta_odd, True)):
        with pytest.raises(ValueError, match="n must be an integer"):
            rep(g, n)
    assert rep_zeta_odd(g, np.int64(3)).basis == ("zeta(3)", "1")
    assert rep_zeta_even(g, np.int32(4)).basis == ("zeta(4)",)


def test_compose_is_a_homomorphism_everywhere():
    rng = random.Random(20240817)
    for _ in range(100):
        g = random_element(rng)
        h = random_element(rng)
        gh = compose(g, h)
        # row convention: the composite acts by R(h) @ R(g)
        assert rep_2pi_i(h) @ rep_2pi_i(g) == rep_2pi_i(gh)
        assert rep_log2(h) @ rep_log2(g) == rep_log2(gh)
        for n in (2, 4, 8):
            assert rep_zeta_even(h, n) @ rep_zeta_even(g, n) == rep_zeta_even(gh, n)
        for n in (3, 5, 7):
            assert rep_zeta_odd(h, n) @ rep_zeta_odd(g, n) == rep_zeta_odd(gh, n)
        assert rep_zeta35(h) @ rep_zeta35(g) == rep_zeta35(gh)


def test_compose_identity_and_units():
    rng = random.Random(7)
    g = random_element(rng)
    e = identity()
    assert compose(g, e) == g
    assert compose(e, g) == g


def test_spans():
    assert galois_conjugate_span("2pii") == ("2*pi*i",)
    assert galois_conjugate_span("log2") == ("log(2)", "1")
    assert galois_conjugate_span("zeta(6)") == ("zeta(6)",)
    assert galois_conjugate_span("zeta(7)") == ("zeta(7)", "1")
    assert galois_conjugate_span("zeta(3,5)") == ("zeta(3,5)", "zeta(3)", "1")
    with pytest.raises(ValueError):
        galois_conjugate_span("zeta(1)")
    with pytest.raises(ValueError):
        galois_conjugate_span("gamma")


def test_ratio_constraint_exact():
    check = check_ratio_constraint(Fraction(3024, 5), Fraction(-7308, 5))
    assert check.passed and bool(check)
    assert check.ratio == Fraction(-12, 29)
    assert check.sign == -1
    assert isinstance(check, RatioCheck)

    same_sign = check_ratio_constraint(Fraction(12), Fraction(29))
    assert same_sign.passed and same_sign.sign == 1


def test_ratio_constraint_rejects_perturbations():
    c1, c2 = Fraction(3024, 5), Fraction(-7308, 5)
    for eps in (Fraction(1, 1000), Fraction(-1, 1000)):
        assert not check_ratio_constraint(c1 * (1 + eps), c2).passed
        assert not check_ratio_constraint(c1, c2 * (1 + eps)).passed
    with pytest.raises(ValueError, match="nonzero"):
        check_ratio_constraint(c1, 0)
