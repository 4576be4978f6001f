"""Sparse multivariate polynomials with exact rational coefficients.

Variables are positive integers (edge ids elsewhere in this package); the
variable ``i`` renders as ``a<i>``.  A polynomial is stored as a dict mapping
a monomial key to its nonzero coefficient, where the key is the tuple of
``(variable, exponent)`` pairs sorted by variable.  Coefficients are exact:
plain ints where possible, ``fractions.Fraction`` otherwise.

The text rendering is deterministic (graded order, then lexicographic on the
variable/exponent pairs) and round-trips through :func:`parse_polynomial`.

This module also holds the package's one policy for exact inputs, which every
public boundary applies: :func:`_as_int` for integers and :func:`_as_fraction`
for rationals.  Bools and floats are refused by both.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction

import numpy as np

Coeff = int | Fraction
MonomialKey = tuple[tuple[int, int], ...]


def _as_int(name, value):
    """``value`` as an int; a bool or a non-integral number is a ValueError naming ``name``.

    Anything with ``__index__`` counts as an integer, so numpy integers pass.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _as_fraction(name, value):
    """``value`` as a Fraction: a Fraction, an integer or a string such as ``"3/4"``.

    Integers are read by :func:`_as_int`.  Anything else (a bool, a float
    including inf and nan, a Decimal, None, or a string that is not a finite
    rational) is a ValueError naming ``name``.
    """
    if type(value) is Fraction:
        return value
    try:
        if isinstance(value, str):
            return Fraction(value)
        return Fraction(_as_int(name, value))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{name} must be an exact rational, got {value!r}") from None


def _normalize_coeff(c):
    # an exact type test: isinstance against Fraction goes through ABCMeta and costs ~10x
    if type(c) is Fraction and c.denominator == 1:
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
                    summed = {}  # add up a repeated variable
                    for v, e in key:
                        summed[v] = summed.get(v, 0) + e
                    key = tuple(summed.items())
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
        return cls({tuple((v, 1) for v in variables): coeff})

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

        Each term is the product ((c*y1)*y2)*... taken left to right.
        Consecutive terms in canonical order often share their coefficient
        and leading factors, so the partial product after each factor is
        kept on a stack and only the factors past the shared prefix are
        multiplied in; a coefficient of 1 starts from the first factor
        itself (1.0*y == y).  Every term gets the same bits as a product
        built from scratch.
        """
        cols = {v: np.asarray(x, dtype=float) for v, x in values.items()}
        shape = np.broadcast_shapes(*(c.shape for c in cols.values()))
        total = np.zeros(shape)
        prev = ()  # (coefficient, *factors) of the previous term
        stack = []  # stack[d]: coefficient times the first d factors of prev
        for key in sorted(self.terms, key=_term_sort_key):
            word = (float(self.terms[key]),) + key
            shared = 0
            for a, b in zip(word, prev):
                if a != b:
                    break
                shared += 1
            del stack[shared:]
            if not stack:
                stack.append(word[0])
            for v, e in word[len(stack):]:
                if v not in cols:
                    raise ValueError(f"no value given for variable a{v}")
                y = cols[v] if e == 1 else cols[v] ** e
                stack.append(y if len(stack) == 1 and word[0] == 1.0 else stack[-1] * y)
            total += stack[-1]
            prev = word
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
    """Product of two canonical monomial keys: merge the sorted pairs, adding shared exponents."""
    if not k1:
        return k2
    if not k2:
        return k1
    out = []
    i = j = 0
    n1, n2 = len(k1), len(k2)
    while i < n1 and j < n2:
        v1, v2 = k1[i][0], k2[j][0]
        if v1 < v2:
            out.append(k1[i])
            i += 1
        elif v2 < v1:
            out.append(k2[j])
            j += 1
        else:
            out.append((v1, k1[i][1] + k2[j][1]))
            i += 1
            j += 1
    return tuple(out) + k1[i:] + k2[j:]


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
        key = []  # a repeated variable is summed by the constructor
        if mono_text:
            for factor in mono_text.split("*"):
                fm = _FACTOR_RE.match(factor.strip())
                if not fm:
                    raise ValueError(f"cannot parse factor {factor!r} in {text!r}")
                key.append((int(fm.group("var")), int(fm.group("exp") or 1)))
        terms.append((key, sign * coeff))
    return SparsePolynomial(terms)
