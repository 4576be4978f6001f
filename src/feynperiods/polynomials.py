"""Sparse multivariate polynomials with exact rational coefficients.

Variables are positive integers (edge ids elsewhere in this package); the
variable ``i`` renders as ``a<i>``.  A polynomial is stored as a dict mapping
a monomial key to its nonzero coefficient, where the key is the tuple of
``(variable, exponent)`` pairs sorted by variable.  Coefficients are exact:
plain ints where possible, ``fractions.Fraction`` otherwise.

The text rendering is deterministic (graded order, then lexicographic on the
variable/exponent pairs) and round-trips through :func:`parse_polynomial`.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np

Coeff = int | Fraction
MonomialKey = tuple[tuple[int, int], ...]


def _normalize_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _term_sort_key(key: MonomialKey):
    # graded first, then lexicographic on the (variable, exponent) pairs;
    # this reproduces orderings like a1*a3 < a1*a4 < a2*a3 < a3*a4
    return (sum(e for _, e in key), key)


class SparsePolynomial:
    """Immutable sparse polynomial in variables a1, a2, ... over the rationals."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, coeff in (terms.items() if isinstance(terms, dict) else terms):
                key = tuple(sorted((int(v), int(e)) for v, e in key if e))
                for v, e in key:
                    if v < 1 or e < 0:
                        raise ValueError(f"bad monomial entry ({v}, {e})")
                if any(a == b for (a, _), (b, _) in zip(key, key[1:])):
                    key = _merge_keys(key[:1], key[1:])  # add up a repeated variable
                coeff = _normalize_coeff(clean.get(key, 0) + coeff)
                if coeff:
                    clean[key] = coeff
                elif key in clean:
                    del clean[key]
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("SparsePolynomial is immutable")

    def __reduce__(self):
        return (SparsePolynomial, (self.terms,))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_canonical(cls, terms):
        """Wrap a dict already in canonical form (sorted keys, nonzero normalized coefficients)."""
        out = cls.__new__(cls)
        object.__setattr__(out, "terms", terms)
        object.__setattr__(out, "_hash", None)
        return out

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls.constant(1)

    @classmethod
    def constant(cls, c):
        c = _normalize_coeff(Fraction(c) if not isinstance(c, (int, Fraction)) else c)
        return cls({(): c} if c else {})

    @classmethod
    def variable(cls, v):
        if v < 1:
            raise ValueError(f"variable index must be >= 1, got {v}")
        return cls({((v, 1),): 1})

    @classmethod
    def monomial(cls, variables, coeff=1):
        """Monomial from an iterable of variable ids (repeats raise powers)."""
        key = {}
        for v in variables:
            key[v] = key.get(v, 0) + 1
        return cls({tuple(sorted(key.items())): coeff})

    # -- ring structure ----------------------------------------------------

    def _lift(self, other):
        if isinstance(other, SparsePolynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return SparsePolynomial.constant(other)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for key, c in other.terms.items():
            s = _normalize_coeff(terms.get(key, 0) + c)
            if s:
                terms[key] = s
            elif key in terms:
                del terms[key]
        return SparsePolynomial.from_canonical(terms)

    __radd__ = __add__

    def __neg__(self):
        return SparsePolynomial.from_canonical({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        terms = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = _merge_keys(k1, k2)
                s = terms.get(key, 0) + c1 * c2
                if s:
                    terms[key] = s
                elif key in terms:
                    del terms[key]
        return SparsePolynomial.from_canonical(
            {k: _normalize_coeff(c) for k, c in terms.items() if c}
        )

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        result = SparsePolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(tuple(sorted((k, Fraction(c)) for k, c in self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def variables(self):
        vs = set()
        for key in self.terms:
            for v, _ in key:
                vs.add(v)
        return tuple(sorted(vs))

    def total_degree(self):
        """Max total degree over terms; zero polynomial has degree 0."""
        if not self.terms:
            return 0
        return max(sum(e for _, e in key) for key in self.terms)

    def is_homogeneous(self):
        """The common total degree of all terms, or None.

        The zero polynomial counts as homogeneous of degree 0.
        """
        if not self.terms:
            return 0
        degrees = {sum(e for _, e in key) for key in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def degree_in_vars(self, variables):
        """(min, max) total degree in the given variable subset across terms."""
        if not self.terms:
            raise ValueError("degree_in_vars of the zero polynomial is undefined")
        vs = set(variables)
        degs = [sum(e for v, e in key if v in vs) for key in self.terms]
        return (min(degs), max(degs))

    def coefficient(self, variables):
        """Coefficient of the squarefree monomial over the given variable ids."""
        key = tuple(sorted((v, 1) for v in set(variables)))
        return self.terms.get(key, 0)

    def evaluate(self, values):
        """Evaluate in floating arithmetic, at one point or at many at once.

        ``values`` maps variable id to a number, or to a numpy array (all of
        one shape) to evaluate at many points; the result is a float or an
        array of that shape.  Terms are summed in the canonical rendering
        order (graded, then lexicographic), which fixes the floating result
        across runs, and a point gets the same bits whether it comes alone
        or inside an array.  A variable of the polynomial missing from
        ``values`` is an error.
        """
        cols = {v: np.asarray(x, dtype=float) for v, x in values.items()}
        shape = np.broadcast_shapes(*(c.shape for c in cols.values()))
        total = np.zeros(shape)
        for key in sorted(self.terms, key=_term_sort_key):
            t = np.full(shape, float(self.terms[key]))
            for v, e in key:
                if v not in cols:
                    raise ValueError(f"no value given for variable a{v}")
                t *= cols[v] if e == 1 else cols[v] ** e
            total += t
        return total if shape else float(total)

    # -- rendering ---------------------------------------------------------

    def render(self):
        """Deterministic text form, e.g. ``a1*a3 + a1*a4 + 2*a2^2``."""
        if not self.terms:
            return "0"
        pieces = []
        for key in sorted(self.terms, key=_term_sort_key):
            coeff = self.terms[key]
            mono = "*".join(f"a{v}" if e == 1 else f"a{v}^{e}" for v, e in key)
            c = abs(coeff)
            if not mono:
                body = _render_coeff(c)
            elif c == 1:
                body = mono
            else:
                body = f"{_render_coeff(c)}*{mono}"
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"SparsePolynomial({self.render()})"


def _merge_keys(k1: MonomialKey, k2: MonomialKey) -> MonomialKey:
    if not k1:
        return k2
    if not k2:
        return k1
    merged = dict(k1)
    for v, e in k2:
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items()))


def _render_coeff(c: Coeff) -> str:
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(int(c))


_TERM_RE = re.compile(
    r"^(?:(?P<coeff>-?\d+(?:/\d+)?)(?:\*(?P<tail>.+))?|(?P<mono>a\d+.*))$"
)
_FACTOR_RE = re.compile(r"^a(?P<var>\d+)(?:\^(?P<exp>\d+))?$")


def parse_polynomial(text):
    """Parse the :meth:`SparsePolynomial.render` format back to a polynomial.

    Accepts e.g. ``"a1*a3 + a1*a4 + a3*a4"``, ``"2*a1^2 - 1/3*a2"``, ``"0"``.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    # split into signed terms at top level
    s = s.replace("- ", "+ -").replace("+ ", "+")
    if s.startswith("+"):
        s = s[1:]
    chunks = [c.strip() for c in s.split("+")]
    terms = []
    for chunk in chunks:
        if not chunk:
            raise ValueError(f"malformed polynomial text: {text!r}")
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:].strip()
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"cannot parse term {chunk!r}")
        if m.group("coeff") is not None:
            try:
                coeff = Fraction(m.group("coeff"))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in term {chunk!r}") from None
            mono_text = m.group("tail")
        else:
            coeff = Fraction(1)
            mono_text = m.group("mono")
        key = {}
        if mono_text:
            for factor in mono_text.split("*"):
                fm = _FACTOR_RE.match(factor.strip())
                if not fm:
                    raise ValueError(f"cannot parse factor {factor!r} in {text!r}")
                v = int(fm.group("var"))
                e = int(fm.group("exp") or 1)
                key[v] = key.get(v, 0) + e
        terms.append((tuple(sorted(key.items())), sign * coeff))
    return SparsePolynomial(terms)
