"""Sparse multivariate polynomials with exact rational coefficients.

Variables are positive integers (edge ids elsewhere in this package); the
variable ``i`` renders as ``a<i>``.  A polynomial is stored as a dict mapping
a monomial key to its nonzero coefficient, where the key is the tuple of
``(variable, exponent)`` pairs sorted by variable.  Coefficients are exact:
plain ints where possible, ``fractions.Fraction`` otherwise.

The text rendering is deterministic (graded order, then lexicographic on the
variable/exponent pairs) and round-trips through :func:`parse_polynomial`,
which reads it in one pass: a coefficient as an int or an int/int Fraction
and each monomial straight into its canonical key (see that function for
the grammar it accepts).

A sum starts from the union of the two term dicts and merges only the
monomials they share.  A product concatenates two keys when the variables
of one all come before those of the other and merges them only when they
interleave; either way terms and coefficient types come out as the
validating constructor would give them from the pairwise products.

This module also holds the package's one policy for exact inputs, which every
public boundary applies: :func:`_as_int` for integers and :func:`_as_fraction`
for rationals.  Bools and floats are refused by both.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction

MonomialKey = tuple[tuple[int, int], ...]


def _as_int(name, value):
    """``value`` as an int; a bool or a non-integral number is a ValueError naming ``name``.

    Anything with ``__index__`` counts as an integer, so numpy integers pass.
    """
    if type(value) is int:  # the common case, and the cheapest test
        return value
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


_exponent = operator.itemgetter(1)


def _term_sort_key(key: MonomialKey):
    # graded first, then lexicographic on the (variable, exponent) pairs;
    # this reproduces orderings like a1*a3 < a1*a4 < a2*a3 < a3*a4
    return (sum(map(_exponent, key)), key)


class SparsePolynomial:
    """Immutable sparse polynomial in variables a1, a2, ... over the rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, coeff in (terms.items() if isinstance(terms, dict) else terms):
                key = [(_as_int("variable", v), _as_int("exponent", e)) for v, e in key]
                key = tuple(sorted(p for p in key if p[1]))
                for v, e in key:
                    if v < 1 or e < 0:
                        raise ValueError(f"bad monomial entry ({v}, {e})")
                key = _sum_repeats(key)
                coeff = coeff if type(coeff) is int else _as_fraction("coefficient", coeff)
                coeff = _normalize_coeff(clean.get(key, 0) + coeff)
                if coeff:
                    clean[key] = coeff
                elif key in clean:
                    del clean[key]
        _store_terms(self, clean)

    def __setattr__(self, name, value):
        raise AttributeError("SparsePolynomial is immutable")

    def __reduce__(self):
        return (SparsePolynomial, (self.terms,))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_canonical(cls, terms):
        """Wrap a dict already in canonical form (sorted keys, nonzero normalized coefficients)."""
        out = object.__new__(cls)
        _store_terms(out, terms)
        return out

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls.constant(1)

    @classmethod
    def constant(cls, c):
        return cls({(): c})

    @classmethod
    def variable(cls, v):
        return cls({((v, 1),): 1})

    @classmethod
    def monomial(cls, variables, coeff=1):
        """Monomial from an iterable of variable ids (repeats raise powers)."""
        return cls({tuple((v, 1) for v in variables): coeff})

    # -- ring structure ----------------------------------------------------

    def _lift(self, other):
        if isinstance(other, SparsePolynomial):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return SparsePolynomial.constant(other)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        terms = {**self.terms, **other.terms}  # a shared key keeps self's position
        for key in self.terms.keys() & other.terms.keys():
            s = _normalize_coeff(self.terms[key] + other.terms[key])
            if s:
                terms[key] = s
            else:
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
        right = other.terms.items()
        for k1, c1 in self.terms.items():
            for k2, c2 in right:
                # sorted keys whose variables do not interleave just concatenate
                if not k1:
                    key = k2
                elif not k2 or k1[-1][0] < k2[0][0]:
                    key = k1 + k2
                elif k2[-1][0] < k1[0][0]:
                    key = k2 + k1
                else:
                    key = _merge_keys(k1, k2)
                c = c1 * c2
                if type(c) is int and key not in terms:  # a nonzero int needs no normalizing
                    terms[key] = c
                    continue
                c = _normalize_coeff(terms.get(key, 0) + c)
                if c:
                    terms[key] = c
                elif key in terms:
                    del terms[key]
        return SparsePolynomial.from_canonical(terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        n = _as_int("power", n)
        if n < 0:
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
        return hash(frozenset(self.terms.items()))

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
        import numpy as np

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
            # signs and text from the ints: Fraction's own comparisons are slow
            if type(coeff) is int:
                negative, c = coeff < 0, str(abs(coeff))
            else:  # a canonical Fraction is never integral
                negative, c = coeff.numerator < 0, f"{abs(coeff.numerator)}/{coeff.denominator}"
            mono = "*".join([f"a{v}" if e == 1 else f"a{v}^{e}" for v, e in key])
            if not mono:
                body = c
            elif c == "1":
                body = mono
            else:
                body = f"{c}*{mono}"
            if not pieces:
                pieces.append(f"-{body}" if negative else body)
            else:
                pieces.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(pieces)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"SparsePolynomial({self.render()})"


# the slot's own setter: past the refusing __setattr__ with no name lookup
_store_terms = SparsePolynomial.terms.__set__


def _merge_keys(k1: MonomialKey, k2: MonomialKey) -> MonomialKey:
    """Product of two nonempty canonical keys: merge the sorted pairs, adding shared exponents."""
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


def _sum_repeats(key):
    """A sorted key with each repeated variable's exponents added up."""
    if any(a == b for (a, _), (b, _) in zip(key, key[1:])):
        summed = {}
        for v, e in key:
            summed[v] = summed.get(v, 0) + e
        key = tuple(summed.items())
    return key


# A "+" always ends a term.  A "-" ends one when it follows a term, that is
# when the last character before it (spaces aside) is none of "+-*/^".
_SEPARATOR = re.compile(r"\s*(\+)\s*|(?<=[^-+*/^\s])\s*(-)\s*")


def parse_polynomial(text):
    """Parse the :meth:`SparsePolynomial.render` format back to a polynomial.

    Accepts e.g. ``"a1*a3 + a1*a4 + a3*a4"``, ``"2*a1^2 - 1/3*a2"``, ``"0"``.
    The grammar: terms joined by ``+`` or ``-``; the first term may carry a
    sign, and a term after ``+`` may carry its own ``-`` (``a1 + -a2``), but
    no term has two minus signs.  A term is a coefficient, a monomial, or a
    coefficient ``*`` a monomial.  A coefficient is ``n`` or ``n/d`` in
    decimal digits, with d nonzero.  A monomial is factors ``a<i>`` or
    ``a<i>^<k>`` joined by ``*`` (i, k decimal; a repeated variable adds its
    exponents, and ``a0`` is refused).  Spaces may stand around every sign
    and ``*``, and at the ends, but nowhere else.  An integral coefficient is
    read as an int and a quotient as an int/int Fraction, so integer text
    never goes through Fraction arithmetic.  Terms with the same monomial
    are added up, in the order the constructor adds them.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    pieces = _SEPARATOR.split(s)  # term, "+" or None, "-" or None, term, ...
    terms = {}
    for i in range(3 if not pieces[0] else 0, len(pieces), 3):  # step past a leading "+"
        body = pieces[i]
        if not body:
            raise ValueError(f"malformed polynomial text: {text!r}")
        negative = i > 0 and pieces[i - 1] is not None
        if body[0] == "-":  # the term's own sign
            if negative:
                raise ValueError(f"cannot parse term {body!r}")
            negative = True
            body = body[1:].lstrip()
        factors = body.split("*")
        head = factors[0].strip()
        num, slash, den = head.partition("/")
        if num.isdecimal() and (den.isdecimal() or not slash):
            if len(factors) == 2 and not factors[1].strip():
                raise ValueError(f"cannot parse term {body!r}")
            coeff = -int(num) if negative else int(num)
            if slash:
                if not int(den):
                    raise ValueError(f"zero denominator in term {body!r}")
                coeff = _normalize_coeff(Fraction(coeff, int(den)))
            del factors[0]
        elif head[:1] == "a" and head[1:2].isdecimal():
            coeff = -1 if negative else 1
        else:
            raise ValueError(f"cannot parse term {body!r}")
        key = []
        last, ordered = 0, True
        for factor in factors:
            f = factor.strip()
            var, hat, exp = f[1:].partition("^")
            if f[:1] != "a" or not var.isdecimal() or (hat and not exp.isdecimal()):
                raise ValueError(f"cannot parse factor {factor!r} in {text!r}")
            e = int(exp) if hat else 1
            if e:
                v = int(var)
                if not v:
                    raise ValueError(f"bad monomial entry (0, {e})")
                key.append((v, e))
                if v <= last:
                    ordered = False
                last = v
        key = tuple(key) if ordered else _sum_repeats(tuple(sorted(key)))
        if key in terms:  # add up as the constructor does
            coeff = _normalize_coeff(terms[key] + coeff)
        if coeff:
            terms[key] = coeff
        elif key in terms:
            del terms[key]
    return SparsePolynomial.from_canonical(terms)
