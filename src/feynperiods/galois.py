"""Explicit matrices for a Galois action on small spaces of periods.

A group element g is parametrized by a nonzero rational ``lam`` (the scaling
of 2*pi*i), a rational ``nu`` (the additive part acting on log 2), one
rational ``sigma_n`` for each odd n >= 3 (acting on zeta(n)), and a rational
``sigma35`` (acting on the double value zeta(3,5)).

Each period generates a finite-dimensional space spanned by it and its
conjugates; g acts there by an invertible lower-triangular matrix over the
rationals, written in the row convention: the row vector of basis periods
transforms by right multiplication.  The five representations::

    (2*pi*i)            ->  [lam]
    (log 2, 1)          ->  [[lam, 0], [nu, 1]]
    (zeta(n)), n even   ->  [lam^n]
    (zeta(n), 1), n odd ->  [[lam^n, 0], [sigma_n, 1]]
    (zeta(3,5), zeta(3), 1)
        ->  [[lam^8,            0,      0],
             [-5 lam^3 sigma_5, lam^3,  0],
             [sigma35,          sigma_3, 1]]

The -5 lam^3 sigma_5 entry is where zeta(3, 5) leaks into zeta(3): the
double value is not a polynomial in ordinary zetas, and this off-diagonal
coefficient measures exactly that.

``compose`` realizes the group law: for every representation R above,
``R(compose(g, h)) = R(h) @ R(g)`` holds exactly.

Every parameter, and each coefficient given to
:func:`check_ratio_constraint`, is a Fraction, an integer or a rational
string such as ``"3/4"`` (see :func:`polynomials._as_fraction`).  Bools and
floats are refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .polynomials import _as_fraction, _as_int

RATIO_MAGNITUDE = Fraction(216, 522)  # == 12/29


@dataclass(frozen=True)
class GaloisElement:
    """Group element acting on the period spans; all parameters rational."""

    lam: Fraction = Fraction(1)
    nu: Fraction = Fraction(0)
    sigma: tuple = ()  # ((odd n, value), ...) sorted
    sigma35: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "lam", _as_fraction("lam", self.lam))
        if self.lam == 0:
            raise ValueError("lam must be nonzero (the action is invertible)")
        object.__setattr__(self, "nu", _as_fraction("nu", self.nu))
        object.__setattr__(self, "sigma35", _as_fraction("sigma35", self.sigma35))
        pairs = dict(self.sigma) if not isinstance(self.sigma, dict) else self.sigma
        clean = {}
        for n, value in pairs.items():
            n = _as_int("sigma index", n)
            if n < 3 or n % 2 == 0:
                raise ValueError(f"sigma parameters live at odd n >= 3, got {n}")
            value = _as_fraction(f"sigma_{n}", value)
            if value:
                clean[n] = value
        object.__setattr__(self, "sigma", tuple(sorted(clean.items())))

    def sigma_odd(self, n):
        """The sigma parameter at odd n >= 3 (0 when unset)."""
        if n < 3 or n % 2 == 0:
            raise ValueError(f"sigma parameters live at odd n >= 3, got {n}")
        return dict(self.sigma).get(n, Fraction(0))


def identity():
    return GaloisElement()


@dataclass(frozen=True)
class RepMatrix:
    """Lower-triangular rational matrix together with its period basis labels."""

    entries: tuple
    basis: tuple

    def __post_init__(self):
        n = len(self.basis)
        rows = tuple(tuple(Fraction(x) for x in row) for row in self.entries)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("matrix shape must match the basis")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != 0:
                    raise ValueError("representation matrices are lower triangular")
        if self.basis and self.basis[-1] == "1" and rows[-1][-1] != 1:
            raise ValueError("the unit period must be fixed")
        object.__setattr__(self, "entries", rows)

    def __matmul__(self, other):
        if not isinstance(other, RepMatrix):
            return NotImplemented
        if self.basis != other.basis:
            raise ValueError("cannot multiply matrices over different bases")
        n = len(self.basis)
        a, b = self.entries, other.entries
        return RepMatrix(
            tuple(
                tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                for i in range(n)
            ),
            self.basis,
        )

    def row(self, i):
        return self.entries[i]


def rep_2pi_i(g):
    return RepMatrix(((g.lam,),), ("2*pi*i",))


def rep_log2(g):
    return RepMatrix(((g.lam, 0), (g.nu, 1)), ("log(2)", "1"))


def rep_zeta_even(g, n):
    """Action on the 1-dimensional span of zeta(n), n even >= 2."""
    n = _as_int("n", n)
    if n < 2 or n % 2:
        raise ValueError("rep_zeta_even needs an even index n >= 2")
    return RepMatrix(((g.lam**n,),), (f"zeta({n})",))


def rep_zeta_odd(g, n):
    """Action on the span of (zeta(n), 1), n odd >= 3."""
    n = _as_int("n", n)
    if n < 3 or n % 2 == 0:
        raise ValueError("rep_zeta_odd needs an odd index n >= 3")
    return RepMatrix(
        ((g.lam**n, 0), (g.sigma_odd(n), 1)), (f"zeta({n})", "1")
    )


def rep_zeta35(g):
    """Action on the span of (zeta(3,5), zeta(3), 1)."""
    lam = g.lam
    return RepMatrix(
        (
            (lam**8, 0, 0),
            (-5 * lam**3 * g.sigma_odd(5), lam**3, 0),
            (g.sigma35, g.sigma_odd(3), 1),
        ),
        ("zeta(3,5)", "zeta(3)", "1"),
    )


def compose(g, h):
    """The group element with ``R(compose(g, h)) = R(h) @ R(g)`` in every rep.

    Parameters compose as
    ``lam = lam_g lam_h``, ``nu = nu_g + lam_g nu_h``,
    ``sigma_n = sigma_n(g) + lam_g^n sigma_n(h)`` for odd n, and
    ``sigma35 = sigma35(g) + lam_g^8 sigma35(h)
    - 5 lam_g^3 sigma_5(g) sigma_3(h)``;
    the cross term mirrors the off-diagonal entry of the zeta(3,5) matrix.
    """
    keys = {n for n, _ in g.sigma} | {n for n, _ in h.sigma}
    sigma = {n: g.sigma_odd(n) + g.lam**n * h.sigma_odd(n) for n in sorted(keys)}
    return GaloisElement(
        lam=g.lam * h.lam,
        nu=g.nu + g.lam * h.nu,
        sigma=tuple(sorted(sigma.items())),
        sigma35=g.sigma35
        + g.lam**8 * h.sigma35
        - 5 * g.lam**3 * g.sigma_odd(5) * h.sigma_odd(3),
    )


def galois_conjugate_span(period_name):
    """Basis labels of the span of a period and its conjugates.

    Even zetas, and 2*pi*i itself, stay on their own line; odd zetas pick up
    the unit; zeta(3,5) picks up zeta(3) and the unit.
    """
    name = period_name.strip().lower().replace(" ", "").replace("*", "")
    if name in ("2pii", "2pi*i", "2(pi)i", "2ipi"):
        return ("2*pi*i",)
    if name in ("log2", "log(2)"):
        return ("log(2)", "1")
    if name in ("zeta(3,5)", "zeta(3;5)"):
        return ("zeta(3,5)", "zeta(3)", "1")
    if name.startswith("zeta(") and name.endswith(")"):
        inner = name[5:-1]
        if inner.isdigit():
            n = int(inner)
            if n >= 2:
                if n % 2 == 0:
                    return (f"zeta({n})",)
                return (f"zeta({n})", "1")
    raise ValueError(f"unknown period {period_name!r}")


@dataclass(frozen=True)
class RatioCheck:
    """Result of the amplitude coefficient-ratio test; truthy iff it holds."""

    passed: bool
    ratio: Fraction
    sign: int

    def __bool__(self):
        return self.passed


def check_ratio_constraint(c_zeta3_zeta35, c_zeta3_zeta8):
    """Test the rigidity constraint tying two amplitude coefficients together.

    In a weight-11 amplitude the products zeta(3)*zeta(3,5) and
    zeta(3)*zeta(8) can only occur with coefficients in the exact ratio
    216/522 = 12/29 in magnitude: the zeta(3,5) conjugates land on zeta(3)
    (see :func:`rep_zeta35`), and only that ratio cancels the image against
    the zeta(8) term's conjugates.  The sign depends on basis conventions
    and is reported rather than tested.
    """
    c1 = _as_fraction("c_zeta3_zeta35", c_zeta3_zeta35)
    c2 = _as_fraction("c_zeta3_zeta8", c_zeta3_zeta8)
    if c2 == 0:
        raise ValueError("the zeta(3)*zeta(8) coefficient must be nonzero")
    ratio = c1 / c2
    return RatioCheck(
        passed=abs(ratio) == RATIO_MAGNITUDE,
        ratio=ratio,
        sign=(ratio > 0) - (ratio < 0),
    )
