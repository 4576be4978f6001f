"""One SHA-256 over the exact outputs of the number layer.

The dump holds the text of ``mzv_with_error``'s value and bound for every
admissible index of weight at most 9 and depth at most 3 at 1, 6, 14 and 25
digits, and for two requests far past those (zeta(2) at 320 digits and
zeta(3,5) at 100); the ``repr`` of the entries and the basis of every
representation matrix, every product ``R(h) @ R(g)`` and ``R(compose(g, h))``
on 50 seeded element pairs; and a few ``check_ratio_constraint`` results.
A change that keeps every exact output symbol for symbol keeps the digest;
one that moves the last digit of a value, a bound or a truncation order, or
turns a ``Fraction`` entry into an int, does not.  Regenerate the digest only
for a change that alters these outputs on purpose, and say so where the
change is described.
"""

import hashlib
import random
from fractions import Fraction

from feynperiods.galois import (
    GaloisElement,
    check_ratio_constraint,
    compose,
    rep_2pi_i,
    rep_log2,
    rep_zeta35,
    rep_zeta_even,
    rep_zeta_odd,
)
from feynperiods.mzv import mzv_with_error

DIGEST = "beda2d352c21397c234b0112199ac5d2456a59ef9d5111096bf8af6ff29d7875"
DIGITS = (1, 6, 14, 25)
REPS = (
    ("2pi_i", rep_2pi_i),
    ("log2", rep_log2),
    *((f"zeta_even({n})", lambda g, n=n: rep_zeta_even(g, n)) for n in (2, 4, 8)),
    *((f"zeta_odd({n})", lambda g, n=n: rep_zeta_odd(g, n)) for n in (3, 5, 7, 9)),
    ("zeta35", rep_zeta35),
)


def admissible_indices(max_weight, max_depth):
    """Every index of positive entries, last one >= 2, within the weight and depth."""
    found = []

    def extend(prefix, weight):
        if prefix and prefix[-1] >= 2:
            found.append(prefix)
        if len(prefix) < max_depth:
            for n in range(1, max_weight - weight + 1):
                extend(prefix + (n,), weight + n)

    extend((), 0)
    return sorted(found, key=lambda idx: (sum(idx), len(idx), idx))


def element(rng):
    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    lam = Fraction(0)
    while lam == 0:
        lam = frac()
    sigma = {n: frac() for n in rng.sample((3, 5, 7, 9), rng.randint(0, 4))}
    return GaloisElement(lam=lam, nu=frac(), sigma=sigma, sigma35=frac())


def number_lines():
    for idx in admissible_indices(9, 3):
        for digits in DIGITS:
            value, bound = mzv_with_error(idx, digits)
            yield f"{idx} {digits} {value} {bound}"
    for idx, digits in (((2,), 320), ((3, 5), 100)):
        value, bound = mzv_with_error(idx, digits)
        yield f"{idx} {digits} {value} {bound}"


def galois_lines():
    rng = random.Random(20261020)
    for _ in range(50):
        g, h = element(rng), element(rng)
        gh = compose(g, h)
        yield repr(gh)
        for name, rep in REPS:
            product = rep(h) @ rep(g)
            for m in (rep(g), rep(h), product, rep(gh)):
                yield f"{name} {m.entries!r} {m.basis!r}"
    for c1, c2 in ((12, 29), (-12, 29), ("24/7", "-58/7"), (13, 29), (Fraction(1, 3), 5)):
        yield repr(check_ratio_constraint(c1, c2))


def test_number_outputs_match_the_committed_digest():
    text = "\n".join([*number_lines(), *galois_lines()])
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
