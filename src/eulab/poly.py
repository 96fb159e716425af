"""Sparse multivariate Laurent polynomials with exact rational coefficients.

A polynomial is a finite map from monomials to nonzero exact coefficients in
one canonical form: an ``int`` when the value is integral, a
``fractions.Fraction`` with denominator above 1 otherwise.  A monomial is a
sorted tuple of ``(variable, exponent)`` pairs with nonzero integer
exponents, so the zero polynomial is the empty map and equal polynomials
compare equal structurally.  Negative exponents are allowed for single-term
polynomials only (inverting a sum has no polynomial meaning), which is all
the calculus here ever needs.

Every polynomial is built by one private accumulator, ``_collect``: it sums
the coefficients of equal monomials, drops zero sums and turns an integral
``Fraction`` back into an ``int``.  When every sum is a nonzero ``int``, as
for every enumerator and rule-set derivative, the accumulated map is
canonical already and is returned as it is; only otherwise is a second map
built.  Either map is fresh: no operation stores or writes an operand's.  A
few places build a canonical term map directly.  ``const``, ``one`` and
``var``, and so the coercion of a scalar operand, build their one-term map
through ``_coef``.  ``__pow__`` raises a one-term polynomial by multiplying
each exponent by k and raising the coefficient to the k (a negative power
through ``Fraction``, demoted by ``_coef``), and squares and multiplies any
other from the base itself.  The tail of ``derivation`` unpacks distinct
packed keys, dropping zeros and demoting through ``_coef`` as it goes, and
within one row of the split ``coefficients`` the split exponents agree, so
the stored terms stay distinct once those are removed.  The public
constructors (``MultiPoly(mapping)``, ``monomial``, ``const``,
``monomial_sum``) accept only ``int`` and ``Fraction`` coefficients, through
``_coef``; ``MultiPoly(mapping)`` and ``monomial`` also store each key in
canonical form and reject an exponent that is not a plain ``int``, while
``monomial_sum``, the hot path of profile sums, trusts its exponents and
names.  ``var``, ``MultiPoly(mapping)``, ``monomial``, ``from_json`` and
``rename`` (through ``var``) check each variable name against ``_NAME``.  So
integer polynomials, such as every rule-set derivative, run on ``int``
arithmetic, and the monomial format and the coefficient type are decided
here alone: other modules combine polynomials only with the operators,
``poly_sum``, ``weighted_sum`` (of ``(weight, polynomial)`` pairs, with no
scaled polynomial built), ``monomial_sum`` (of ``(coef, exponent map)``
pairs) and ``derivation``.
``coefficient``, ``is_symmetric_in`` and ``eulab.gamma.gamma_expand``
(degree, symmetry and coefficients at once) each read one ``coefficients`` split.
``terms`` lists the terms in display order; ``items`` lists them unsorted,
for a reader that needs no order, such as the profile tables of
``eulab.enumerators``.

``substitute(values)`` replaces every variable of one map by its image
simultaneously, so ``{x: y, y: x}`` swaps x and y, in one pass over the
terms: a term with no mapped variable passes through untouched, each mapped
``(variable, exponent)`` power is computed once per call, and a mapped
term's image is the product of its powers merged with its unmapped part by
``_mono_mul``.  ``rename`` is one such call with ``var`` images, and
``eval_at`` is the constant term of one.

``derivation(images, steps)`` computes D^steps for the derivation D that
sends each ruled variable to its image, in one pass over packed monomials:
each monomial is one ``int`` with a bit field per variable, and each term
product is one integer addition.  The field width comes from an exponent
bound that holds for every input, so no field overflows.  With no negative
exponent in the input a field holds the exponent itself; otherwise it holds
the exponent plus a bias.  Each step runs rule by rule over one list of
the step's nonzero terms.  A rule-set derivative is this call.

The text form uses ``+ - * ^``, integer and rational literals (``3``,
``1/2``), and parentheses.  One token table, a regular expression with a
group per token kind, lexes it; its identifiers are ``_NAME`` and
``PRETTY_NAMES`` inverted gives its input aliases, so ``parse_poly(str(p))
== p == parse_poly(p.pretty())``.  One loop parses ``+ - *`` by the levels
of ``_BINDS``, each right operand one level tighter, so chains go left to right.
"""

from __future__ import annotations

import itertools
import operator
import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from .errors import (
    NegativePowerOfNonMonomialError,
    PolySyntaxError,
    UnboundVariableError,
    ValueOutOfRangeError,
    ZeroAtNegativePowerError,
)

Mono = tuple  # tuple[tuple[str, int], ...], sorted by variable, exponents nonzero
Scalar = Union[int, Fraction]

# Display name overrides used by pretty().  "al" is the ASCII spelling of the
# weight variable; the lexer accepts both spellings.
PRETTY_NAMES = {"al": "α"}

# a variable name: an identifier of the text form, so that it prints as it parses
_NAME = re.compile("[A-Za-z][A-Za-z0-9_]*")


def _check_name(v) -> None:
    """The one rule for a variable name given to a public constructor: a
    ``str`` (else a ``TypeError``, as for an exponent) matching ``_NAME``.
    A display alias such as ``α`` is an input spelling, not a name."""
    if not isinstance(v, str):
        raise TypeError(f"variable name must be a str, not {type(v).__name__}")
    if not _NAME.fullmatch(v):
        raise ValueOutOfRangeError(f"variable name {v!r} is not an identifier")


def _mono(exps: Mapping[str, int]) -> Mono:
    """The monomial of an exponent map; zero exponents are dropped."""
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def _renamed(pairs: Iterable[tuple[str, int]]) -> Mono:
    """The monomial of ``(variable, exponent)`` pairs in any order: the
    exponents of a repeated variable are summed and zero sums dropped."""
    exps: dict[str, int] = {}
    for v, e in pairs:
        exps[v] = exps.get(v, 0) + e
    return _mono(exps)


def _mono_mul(a: Mono, b: Mono) -> Mono:
    """The product of two monomials: a merge of their sorted pairs, adding
    the exponents of a shared variable and dropping a zero sum."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        va, ea = a[i]
        vb, eb = b[j]
        if va < vb:
            out.append(a[i])
            i += 1
        elif vb < va:
            out.append(b[j])
            j += 1
        else:
            if ea + eb:
                out.append((va, ea + eb))
            i += 1
            j += 1
    return (*out, *a[i:], *b[j:])


def _check_steps(steps) -> None:
    """The one rule for a count of derivation steps: a plain nonnegative
    ``int`` (a bool, a float or a string is rejected)."""
    if type(steps) is not int:
        raise ValueOutOfRangeError(f"steps must be an int, got {steps!r}")
    if steps < 0:
        raise ValueOutOfRangeError(f"steps must be nonnegative, got {steps}")


def _coef(c) -> Scalar:
    """The canonical form of a coefficient given to a public constructor.
    Inexact or parsed input (a float, a string) is a ``TypeError``, as it is
    for the operators."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):  # bool and other int subclasses
        return int(c)
    raise TypeError(f"coefficient must be an int or a Fraction, not {type(c).__name__}")


def _collect(pairs: Iterable[tuple[Mono, Scalar]]) -> dict:
    """The one accumulator: sum the coefficients of equal monomials, drop
    the zero sums, and store an integral ``Fraction`` as an ``int``.  When
    every sum is a nonzero ``int``, as it is for integer polynomials, the
    accumulated map is already canonical and is returned as it is; it is
    always a fresh map, never an operand's."""
    terms: dict[Mono, Scalar] = {}
    get = terms.get
    for mono, coef in pairs:
        terms[mono] = get(mono, 0) + coef
    for coef in terms.values():
        if type(coef) is not int or not coef:
            return {
                mono: coef.numerator if type(coef) is Fraction and coef.denominator == 1 else coef
                for mono, coef in terms.items()
                if coef
            }
    return terms


class MultiPoly:
    """Immutable sparse polynomial.  Supports ``+ - * **`` with ints,
    Fractions and other polynomials."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Mono, Scalar] | None = None):
        """Each key is stored in canonical form: its pairs sorted, the
        exponents of a repeated variable summed, zero exponents dropped.  An
        exponent that is not a plain ``int`` (a float, a bool, a string) is
        a ``TypeError``, as it is for ``from_json``."""
        terms = terms or {}
        for mono in terms:
            if any(type(e) is not int for _, e in mono):
                raise TypeError(f"exponents must be ints, got monomial {mono!r}")
            for v, _ in mono:
                _check_name(v)
        pairs = ((_renamed(mono), _coef(coef)) for mono, coef in terms.items())
        _set_terms(self, _collect(pairs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return _wrap({})

    @classmethod
    def one(cls) -> "MultiPoly":
        return _wrap({(): 1})

    @classmethod
    def const(cls, c: Scalar) -> "MultiPoly":
        c = _coef(c)
        return _wrap({(): c} if c else {})

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        _check_name(name)
        return _wrap({((name, 1),): 1})

    @classmethod
    def monomial(cls, coef: Scalar, exps: Mapping[str, int]) -> "MultiPoly":
        return cls({tuple(exps.items()): coef})

    # -- basic protocol ----------------------------------------------------

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == MultiPoly.const(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        if self._terms.keys() <= {()}:  # a constant hashes as the value it equals
            return hash(self._terms.get((), 0))
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> Iterator[tuple[Mono, Scalar]]:
        """Terms in the deterministic display order (graded lexicographic,
        highest total degree first)."""
        return iter(self._ordered_terms())

    def items(self) -> Iterable[tuple[Mono, Scalar]]:
        """The ``terms`` in storage order, unsorted: for a reader that needs
        no order, such as a sum over all terms."""
        return self._terms.items()

    def variables(self) -> set[str]:
        return {v for mono in self._terms for v, _ in mono}

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(other)
        return None

    def _images(self, values: Mapping[str, "MultiPoly | Scalar"]) -> dict:
        # each image as a polynomial, checked before any term is touched
        images = {v: self._coerce(q) for v, q in values.items()}
        for v, q in images.items():
            if q is None:
                raise TypeError(f"image of {v!r} is a {type(values[v]).__name__}, not a polynomial")
        return images

    def __add__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return _wrap(_collect(itertools.chain(self._terms.items(), p._terms.items())))

    __radd__ = __add__

    def __neg__(self):
        return _wrap(_collect((m, -c) for m, c in self._terms.items()))

    def __sub__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return self + (-p)

    def __rsub__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return p + (-self)

    def __mul__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return _wrap(_collect(
            (_mono_mul(m1, m2), c1 * c2)
            for m1, c1 in self._terms.items()
            for m2, c2 in p._terms.items()
        ))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return MultiPoly.one()
        if len(self._terms) == 1:  # each exponent times k, the coefficient to the k
            ((mono, coef),) = self._terms.items()
            if k < 0:  # through Fraction: an int at a negative power is a float
                coef = Fraction(coef)
            return _wrap({tuple((v, e * k) for v, e in mono): _coef(coef**k)})
        if k < 0:
            if not self._terms:
                raise ZeroAtNegativePowerError("zero polynomial at a negative power")
            raise NegativePowerOfNonMonomialError(
                "negative power of a polynomial with more than one term"
            )
        # square and multiply, starting from the base itself
        base, result = self, None
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    # -- queries -----------------------------------------------------------

    def coefficients(self, variables: Sequence[str]) -> dict:
        """The coefficient split over ``variables``, in one pass over the
        terms: each exponent tuple of ``variables`` that occurs (0 for an
        absent variable) maps to its coefficient, a polynomial in the other
        variables.  A repeated variable is a ``ValueOutOfRangeError``.

        >>> parse_poly("3*x^2*y + x^2 + y").coefficients(["x"])
        {(2,): parse_poly('3*y + 1'), (0,): parse_poly('y')}
        """
        index = {v: i for i, v in enumerate(variables)}
        if len(index) < len(variables):
            raise ValueOutOfRangeError(f"repeated variable in {list(variables)}")
        rows: dict[tuple, dict] = {}
        for mono, coef in self._terms.items():
            exps, rest = [0] * len(index), []
            for v, e in mono:
                i = index.get(v)
                if i is None:
                    rest.append((v, e))
                else:
                    exps[i] = e
            rows.setdefault(tuple(exps), {})[tuple(rest)] = coef
        return {exps: _wrap(terms) for exps, terms in rows.items()}

    def coefficient(self, pattern: Mapping[str, int]) -> "MultiPoly":
        """Coefficient of the exact exponent pattern, as a polynomial in the
        remaining variables.

        >>> p = parse_poly("3*x^2*y + x^2 + y")
        >>> str(p.coefficient({"x": 2}))
        '3*y + 1'
        """
        return self.coefficients(list(pattern)).get(tuple(pattern.values()), MultiPoly.zero())

    def rename(self, names: Mapping[str, str]) -> "MultiPoly":
        """Simultaneously rename variables, merging exponents if two names
        map to the same target: ``substitute`` with the image ``var(w)``
        for each ``v -> w``, so each new name is checked as ``var`` checks it."""
        return self.substitute({v: MultiPoly.var(w) for v, w in names.items()})

    def is_symmetric_in(self, a: str, b: str) -> bool:
        """Whether the coefficient of ``a^i b^j`` is that of ``a^j b^i``, for all i, j."""
        rows = {} if a == b else self.coefficients([a, b])
        return all(rows.get((j, i)) == row for (i, j), row in rows.items())

    def substitute(self, values: Mapping[str, "MultiPoly | Scalar"]) -> "MultiPoly":
        """Replace every variable of ``values`` by its image, all at once: no
        image is substituted into again.  A negative exponent of a variable
        requires its image to be a nonzero monomial, in every term, whatever
        the images of the term's other variables.  One pass over the terms:
        an unmapped term passes through, each mapped power is computed once
        per call, and a mapped term becomes the product of its powers times
        its unmapped part.

        >>> str(parse_poly("x^2 + x*y").substitute({"x": parse_poly("y+1")}))
        '2*y^2 + 3*y + 1'
        >>> str(parse_poly("x^2*y").substitute({"x": parse_poly("y"), "y": parse_poly("x")}))
        'x*y^2'
        """
        images = self._images(values)
        powers: dict[tuple[str, int], list] = {}  # the terms of each mapped power
        pairs: list[tuple[Mono, Scalar]] = []
        append, image_of = pairs.append, images.get
        for mono, coef in self._terms.items():
            rest, image = [], None
            for ve in mono:
                q = image_of(ve[0])
                if q is None:
                    rest.append(ve)
                    continue
                power = powers.get(ve)
                if power is None:  # checked for every mapped pair, even past a zero image
                    v, e = ve
                    if e < 0 and not q._terms:
                        raise ZeroAtNegativePowerError(f"substituting 0 for {v!r} at exponent {e}")
                    power = powers[ve] = list((q**e)._terms.items())
                image = power if image is None else [
                    (_mono_mul(m, pm), c * pc) for m, c in image for pm, pc in power
                ]
            if image is None:
                append((mono, coef))
            else:
                rest = tuple(rest)
                for m, c in image:
                    append((_mono_mul(rest, m), coef * c))
        return _wrap(_collect(pairs))

    def derivation(self, images: Mapping[str, "MultiPoly | Scalar"], steps: int = 1) -> "MultiPoly":
        """D^steps of this polynomial, for the derivation D with D(v) =
        ``images[v]`` for each variable with an image and D(v) = 0 for every
        other variable, extended by the Leibniz rule, also to negative
        powers: D(c v^e rest) = c e v^(e-1) rest D(v), summed over the
        variables of each term.  ``steps`` is a plain nonnegative ``int``.
        An image is a polynomial, an ``int`` or a ``Fraction``; anything
        else is a ``TypeError``, raised before any step runs.

        All steps run on packed monomials.  Each variable of the sorted
        union of those here and in the images gets one bit field of a
        single ``int`` key.  Each image term is one flat rule entry, its
        head's field and the key delta of its monomial over the head, so a
        term product is one integer addition.  A field holds every exponent
        within a bound, so none overflows into its neighbour.  If no
        exponent here or in an image is negative, none ever becomes so (D
        lowers only an exponent of at least 1, by 1) and one step adds at
        most r = max(image exponent): the field holds the exponent itself,
        up to max(start exponent) + steps * r.  Otherwise one step moves an
        exponent by at most 1 + r, r = max|image exponent|, and the field
        holds the exponent plus a bias, for sizes up to max|start exponent|
        + steps * (1 + r).  Both bounds are attained: ``a*y^s`` under ``a
        -> a*y^r`` reaches ``a*y^(s + steps*r)``, and ``x^-s`` under ``x ->
        x^-r`` reaches ``x^-(s + steps*(1 + r))``.  At the end each key is
        unpacked a few fields at a time: the bits of a chunk name one tuple
        of ``(variable, exponent)`` pairs, shared by every monomial that
        holds them.  A step runs rule by rule, each over one list of the
        step's nonzero terms: a sum that cancelled to 0 stays stored, and is
        skipped where it is read.

        >>> str(parse_poly("x^2*y + y^-1").derivation({"y": parse_poly("x*y")}))
        'x^3*y - x*y^-1'
        >>> str(parse_poly("x").derivation({"x": parse_poly("x^2")}, 3))
        '6*x^4'
        """
        _check_steps(steps)
        images = self._images(images)
        if not steps:
            return self
        names = sorted(self.variables().union(*(p.variables() for p in images.values())))
        exps = [e for m in self._terms for _, e in m]
        reaches = [e for p in images.values() for m in p._terms for _, e in m]
        laurent = min(exps + reaches, default=0) < 0
        reach = max(map(abs, reaches), default=0)
        width = (max(map(abs, exps), default=0) + steps * (laurent + reach)).bit_length() + laurent
        mask, bias = (1 << width) - 1, laurent << width >> 1
        fields = [(v, i * width) for i, v in enumerate(names)]
        shift = dict(fields)
        origin = sum(bias << s for _, s in fields)

        def pack(mono: Mono) -> int:
            return sum(e << shift[v] for v, e in mono)

        # one (field shift, key delta, coefficient) entry per image term
        rules = [
            (shift[v], pack(m) - (1 << shift[v]), c)
            for v, image in images.items() if v in shift
            for m, c in image._terms.items()
        ]
        terms = {origin + pack(m): c for m, c in self._terms.items()}
        for _ in range(steps):
            acc: dict[int, Scalar] = {}
            get = acc.get
            # a sum that cancelled stays stored until the end, but is skipped here
            live = [(key, coef) for key, coef in terms.items() if coef]
            for s, delta, c in rules:
                for key, coef in live:
                    if e := ((key >> s) & mask) - bias:
                        k = key + delta
                        acc[k] = get(k, 0) + e * c * coef
            terms = acc
        per = max(1, 12 // max(width, 1))  # fields per unpack chunk: small tables
        chunks = [
            (fields[i][1], (1 << per * width) - 1, fields[i:i + per], {})
            for i in range(0, len(fields), per)
        ]
        out = {}
        for key, coef in terms.items():
            if coef:
                mono = ()
                for s, m, chunk, table in chunks:
                    pairs = table.get(bits := (key >> s) & m)
                    if pairs is None:
                        pairs = table[bits] = tuple(
                            (v, e) for v, t in chunk if (e := ((key >> t) & mask) - bias)
                        )
                    mono += pairs
                out[mono] = _coef(coef)
        return _wrap(out)

    def eval_at(self, point: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a rational point binding every variable: the
        constant term of one substitution.  Each value is an ``int`` or a
        ``Fraction``; a float or a string is a ``TypeError``, as it is for
        the constructors."""
        values = {}
        for v in sorted(self.variables()):
            if v not in point:
                raise UnboundVariableError(f"no value for variable {v!r}")
            values[v] = _coef(point[v])
        return Fraction(self.substitute(values)._terms.get((), 0))

    # -- rendering ---------------------------------------------------------

    def _ordered_terms(self) -> list[tuple[Mono, Scalar]]:
        """Terms by total degree, then by the exponent vector over the
        sorted variables, both descending.  A term's key is one list: its
        degree, then its exponent of each variable."""
        index = {v: i for i, v in enumerate(sorted(self.variables()), start=1)}
        width = len(index) + 1

        def key(item: tuple[Mono, Scalar]) -> list:
            vec = [0] * width
            for v, e in item[0]:
                vec[index[v]] = e
            vec[0] = sum(vec)
            return vec

        return sorted(self._terms.items(), key=key, reverse=True)

    def text(self, names: Mapping[str, str] | None = None) -> str:
        if not self._terms:
            return "0"
        names = names or {}
        chunks: list[str] = []
        for i, (mono, coef) in enumerate(self._ordered_terms()):
            mag = abs(coef)
            factors: list[str] = []
            if mag != 1 or not mono:
                factors.append(str(mag))
            for v, e in mono:
                shown = names.get(v, v)
                factors.append(shown if e == 1 else f"{shown}^{e}")
            body = "*".join(factors)
            if i == 0:
                chunks.append(body if coef > 0 else "-" + body)
            else:
                chunks.append(f" + {body}" if coef > 0 else f" - {body}")
        return "".join(chunks)

    def __str__(self) -> str:
        return self.text()

    def pretty(self) -> str:
        """Human display form; the weight variable prints as a Greek letter."""
        return self.text(PRETTY_NAMES)

    def __repr__(self) -> str:
        return f"parse_poly({str(self)!r})"

    # -- JSON form ---------------------------------------------------------

    def to_json(self) -> dict:
        """Stable JSON object: terms in display order, coefficients as
        ``"num/den"`` strings."""
        return {"terms": [
            {"exp": dict(mono), "coef": f"{coef.numerator}/{coef.denominator}"}
            for mono, coef in self._ordered_terms()
        ]}

    @classmethod
    def from_json(cls, payload: Mapping) -> "MultiPoly":
        """The inverse of ``to_json``: each coefficient a ``"num/den"``
        string with a nonzero ``den`` or a plain ``int``, each exponent a
        plain ``int``.  Anything else, such as a float or ``"1/0"``, is a
        ``TypeError``, as it is for ``_coef``."""
        terms = [(item["coef"], item["exp"]) for item in payload["terms"]]
        for coef, exps in terms:
            exact = type(coef) is int or type(coef) is str and re.fullmatch("-?[0-9]+/0*[1-9][0-9]*", coef)
            if not exact or any(type(e) is not int for e in exps.values()):
                raise TypeError(f"not a term that to_json writes: coef {coef!r}, exp {exps!r}")
            for v in exps:
                _check_name(v)
        return _wrap(_collect((_mono(exps), Fraction(coef)) for coef, exps in terms))


_set_terms = MultiPoly._terms.__set__


def _wrap(terms: dict) -> MultiPoly:
    """A polynomial over an accumulated term map, without copying it."""
    out = MultiPoly.__new__(MultiPoly)
    _set_terms(out, terms)
    return out


# -- parsing ---------------------------------------------------------------


class Token(NamedTuple):
    kind: str  # NUM IDENT OP EOF
    value: object
    line: int
    column: int


# One group per token kind; ASCII only, as ``\d`` also matches "²" and "٣".
_ALIASES = {shown: name for name, shown in PRETTY_NAMES.items()}
_TOKEN = re.compile(
    r"(?P<NL>\n)|(?P<SKIP>[ \t\r]+|#[^\n]*)|(?P<NUM>[0-9]+(?:/[0-9]+)?)"
    r"|(?P<IDENT>" + "|".join([_NAME.pattern, *map(re.escape, _ALIASES)]) + ")"
    r"|(?P<OP>->|[-+*^();])"
)


def tokenize(text: str) -> list[Token]:
    """Lex a polynomial or rule-set source.  ``#`` starts a comment running
    to end of line.  A display name, such as ``α`` for the weight variable
    ``al``, is accepted as an alias."""
    tokens: list[Token] = []
    pos, line, line_start = 0, 1, 0
    while True:
        column = pos - line_start + 1
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        kind, value, pos = m.lastgroup, m.group(), m.end()
        if kind == "NL":
            line, line_start = line + 1, pos
        elif kind == "NUM":
            num, _, den = value.partition("/")
            den = int(den or 1)
            if not den:
                raise PolySyntaxError("zero denominator", line, column)
            tokens.append(Token(kind, Fraction(int(num), den), line, column))
        elif kind != "SKIP":
            tokens.append(Token(kind, _ALIASES.get(value, value), line, column))
    if pos < len(text):
        raise PolySyntaxError(f"unexpected character {text[pos]!r}", line, column)
    tokens.append(Token("EOF", None, line, column))
    return tokens


# binary operator -> (binding level, combiner); ``operator`` calls a patched ``MultiPoly.__add__``
_BINDS = {"+": (1, operator.add), "-": (1, operator.sub), "*": (2, operator.mul)}


class ExprParser:
    """Recursive-descent parser over a token list; used for standalone
    polynomials and for rule bodies inside rule-set files."""

    def __init__(self, tokens: Sequence[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> Token:
        tok = self.peek()
        if tok.kind == "OP" and tok.value == op:
            return self.take()
        raise PolySyntaxError(f"expected {op!r}, found {self._show(tok)}", tok.line, tok.column)

    @staticmethod
    def _show(tok: Token) -> str:
        return "end of input" if tok.kind == "EOF" else repr(str(tok.value))

    def parse_expr(self, floor: int = 1) -> MultiPoly:
        """Factors joined left to right by the operators binding at ``floor`` or tighter."""
        result = self.parse_factor()
        while True:
            level, combine = _BINDS.get(self.peek().value, (0, None))  # only an OP matches
            if level < floor:
                return result
            self.take()
            result = combine(result, self.parse_expr(level + 1))  # the right operand binds tighter

    def parse_factor(self) -> MultiPoly:
        tok = self.peek()
        if tok.kind == "OP" and tok.value == "-":
            self.take()
            return -self.parse_factor()
        base = self.parse_primary()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.value == "^":
                self.take()
                base = base ** self.parse_exponent()
            else:
                return base

    def parse_exponent(self) -> int:
        tok = self.peek()
        wrapped = tok.kind == "OP" and tok.value == "("
        if wrapped:
            self.take()
            tok = self.peek()
        sign = 1
        if tok.kind == "OP" and tok.value == "-":
            self.take()
            sign = -1
            tok = self.peek()
        if tok.kind != "NUM" or tok.value.denominator != 1:
            raise PolySyntaxError(
                f"expected integer exponent, found {self._show(tok)}", tok.line, tok.column
            )
        self.take()
        if wrapped:
            self.expect_op(")")
        return sign * tok.value.numerator

    def parse_primary(self) -> MultiPoly:
        tok = self.take()
        if tok.kind == "NUM":
            return MultiPoly.const(tok.value)
        if tok.kind == "IDENT":
            return MultiPoly.var(tok.value)
        if tok.kind == "OP" and tok.value == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise PolySyntaxError(f"expected a value, found {self._show(tok)}", tok.line, tok.column)


def parse_poly(text: str) -> MultiPoly:
    """Parse the text form.

    >>> str(parse_poly("(x + y)^2 - 2*x*y"))
    'x^2 + y^2'
    >>> parse_poly("1/2 * t^-1").eval_at({"t": Fraction(1, 4)})
    Fraction(2, 1)
    """
    parser = ExprParser(tokenize(text))
    poly = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise PolySyntaxError(
            f"unexpected trailing input {ExprParser._show(tok)}", tok.line, tok.column
        )
    return poly


def poly_sum(items: Iterable[MultiPoly]) -> MultiPoly:
    """Sum many polynomials without quadratic rebuilding."""
    return _wrap(_collect(pair for p in items for pair in p._terms.items()))


def weighted_sum(items: Iterable[tuple[Scalar, MultiPoly]]) -> MultiPoly:
    """Sum of ``w * p`` over ``(w, p)`` pairs, in one pass over the terms:
    no scaled polynomial is built.  Each weight goes through ``_coef``.

    >>> x, y = MultiPoly.var("x"), MultiPoly.var("y")
    >>> str(weighted_sum([(2, x + y), (Fraction(-1, 2), x)]))
    '3/2*x + 2*y'
    """
    items = [(_coef(w), p._terms) for w, p in items]
    return _wrap(_collect((m, w * c) for w, terms in items for m, c in terms.items()))


def monomial_sum(terms: Iterable[tuple[Scalar, Mapping[str, int]]]) -> MultiPoly:
    """Sum of ``coef * monomial(exps)`` over ``(coef, exps)`` pairs, in one
    pass.  The hot path of profile sums: each coefficient goes through
    ``_coef``, but the exponents and names are not checked, so each must be
    a plain ``int`` and an identifier (``MultiPoly.monomial`` checks them)."""
    return _wrap(_collect((_mono(exps), _coef(coef)) for coef, exps in terms))
