"""Exact exterior algebra on the invariant forms of a 3-Sasakian 7-manifold.

The algebra is generated by three vertical 1-forms e1, e2, e3 (a coframe of
the Reeb foliation) and two horizontal objects: the triple of 4-dimensional
2-forms w1, w2, w3 and the horizontal volume form vol.  A monomial is a
product of distinct vertical generators (indices ascending) with at most one
horizontal generator, giving 8 x 5 = 40 monomials that span every invariant
differential form.  All coefficients are exact rationals.

Structure relations (with (i, j, k) running over cyclic permutations):

    d(e_i) = -2 e_j ^ e_k - 2 w_i
    d(w_i) =  2 e_k ^ w_j - 2 e_j ^ w_k
    d(vol) =  0
    w_i ^ w_j = 2 delta_ij vol,     w_i ^ vol = 0

The derivative of w_i is not independent data: it is the unique invariant
form making d circ d = 0 given d(e_i), and the test suite re-derives it from
that condition.

A geometry is fixed by scales (a, b, q, eps): the metric weights are
|e1| = |e2| = 1/a, |e3| = 1/b on the coframe, <w_i, w_j> = 2 delta_ij / q^2
and <vol, vol> = 1/q^4 horizontally, with q the squared horizontal scale
(q = c^2).  Working with q instead of c keeps every coefficient rational
even where c itself is irrational.  The orientation carries the sign eps:
the Riemannian volume form is vol_eps = eps * a^2 b q^2 * e123 ^ vol.

The structure tables do not depend on (a, b, q, eps).  Each monomial's
hash is its index, 0..39, and _INDEX holds the basis monomial of each
index.  Three tables are built at import, as tuples indexed by it, from
the relations above: _PRODUCT, the product of each pair of monomials
(from wedge_monomials); _D, d of each monomial (the Leibniz rule over the
generator differentials, from _d_monomial); and _LAW, each monomial's
metric law -- its Hodge complement, the sign of its wedge onto the top
monomial, its horizontal weight k and its Laurent exponents (from
_metric_law).  Each entry names its output monomial by index, so a
kernel hashes a monomial only to write its result map or, in
inner_product, to find a term of the other operand.  The kernels hand
out the 40 basis monomials made at import; Monomial.from_key looks a key
up among them.  Only the coefficient arithmetic of a call depends on the
geometry.

algebra_checks splits the same way.  d circ d = 0, the horizontal products
and the star pairings of distinct monomials are facts about the tables, so
they run once per process, on the first call.  The 40 stars, their
involution, the pairing of each monomial with its own star, the star of
the unit and the support of each star (its complement alone) run at every
parameter point, on one-term forms made once at import.  Each pairing of
a monomial with its own star is one integer cross-multiplication of the
wedge's TOP coefficient against <m, m> and eps a^2 b q^2.

An InvariantForm holds each coefficient in _terms as its reduced integer
pair (numerator, positive denominator), made by _pair with one gcd: the
pair a Fraction of it would hold, so comparing pair maps compares the
forms.  Each metric coefficient is a Laurent monomial in (a, b, q), so a
star coefficient costs one _LAW lookup and one _pair, and a weight in
inner_product's sum one lookup and integer products, built from the
integer numerators and denominators that a GeometryParams reads off its
scales once per geometry (_ratios).  The star picks each factor
a^(2-ja), b^(1-jb) and q^(2-jq) by lookup among the integer pairs of its
few values.  The product table holds its structure constants as ints and
each d(m) is kept as (index, int) pairs, so wedge, exterior_derivative
and inner_product keep each output coefficient's sum as one integer
numerator and denominator (the first two keyed by index) and reduce it
once, dropping the sums that cancel to 0.  A sum or difference of two
forms costs one _pair per monomial the two share, and a scalar times a
form one per coefficient.  The kernels and the form arithmetic hand the
pair maps they have just built to InvariantForm._of, which takes them
over without the copy, type and zero scan of the public constructor.
A Fraction is made only where the public contract returns one: the
`coeffs` view (a new dict at each read), coefficient, inner_product,
total_integral, g2_ansatz.tau0 and _exactly.

The hand-coded closed forms of the other modules (the co-flow rates, the
Laplacian's and dphi's coefficients, the tau0 and |tau3|^2 quotients) are
plain arithmetic expressions that serve every scalar type.  On exact data
they are evaluated by _exactly, which hands each closed form its int or
Fraction arguments as _Ratio values: an unreduced integer numerator and
denominator whose every operation is integer arithmetic with no gcd, in
the way the kernels keep a sum.  Each result is reduced once, to one
Fraction, and no _Ratio leaves _exactly.
"""

from __future__ import annotations

import functools
import math
import numbers
import random
import sys
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Union

Scalar = Fraction
ScalarLike = Union[int, Fraction]

NORMALIZED = "normalized_coflow"
MODIFIED = "modified_coflow"
FLAVORS = (NORMALIZED, MODIFIED)

HORIZONTALS = ("1", "w1", "w2", "w3", "vol")
_HORIZ_DEGREE = {"1": 0, "w1": 2, "w2": 2, "w3": 2, "vol": 4}


def _as_scalar(x: ScalarLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact coefficient required, got {type(x).__name__}")


def _as_pair(x: ScalarLike) -> tuple[int, int]:
    """The reduced integer pair of an int or a Fraction; TypeError for anything else."""
    if isinstance(x, (int, Fraction)):
        return x.as_integer_ratio()
    raise TypeError(f"exact coefficient required, got {type(x).__name__}")


def _pair(n: int, d: int) -> tuple[int, int]:
    """n / d as its reduced integer pair, the denominator positive: the pair Fraction(n, d) holds."""
    g = math.gcd(n, d)
    if d < 0:
        g = -g
    return n // g, d // g


def _exact(x) -> Fraction:
    """The one exact reading of a given kappa, gamma or direction component.

    An int, Fraction or numpy integer as itself, over Python ints; a float,
    numpy float or Decimal as its exact as_integer_ratio(); anything else
    as the Fraction of its float.  An infinity or a NaN raises ValueError.
    """
    if isinstance(x, numbers.Rational):
        return Fraction(int(x.numerator), int(x.denominator))
    ratio = getattr(x, "as_integer_ratio", None) or float(x).as_integer_ratio
    try:
        return Fraction(*ratio())
    except (OverflowError, ValueError):  # an infinity or a NaN has no integer ratio
        raise ValueError(f"the value must be finite, got {x!r}") from None


def _above(x, bound) -> bool:
    """x > bound for a given kappa or gamma, False for any NaN: a Decimal NaN signals when ordered."""
    try:
        return x > bound
    except ArithmeticError:  # decimal.InvalidOperation
        return False


def _eps(x) -> int:
    """The one reading of a given eps: the int +1 or -1 it equals, else ValueError."""
    try:
        bad = x not in (+1, -1)
    except ArithmeticError:  # decimal.InvalidOperation: a Decimal sNaN signals when compared
        bad = True
    if bad:
        raise ValueError(f"eps must be +1 or -1, got {x}")
    return 1 if x == 1 else -1


def _constants(flavor, kappa, gamma, eps) -> int:
    """The one reading of a given flavor, kappa, gamma and eps; returns eps as `_eps` reads it.

    ValueError for an unknown flavor, a kappa not positive and finite, or a
    modified flow's gamma that is None or not finite.  Comparisons alone, so
    positive sympy symbols pass; nan fails `_above`, which goes first.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}, expected one of {FLAVORS}")
    if not _above(kappa, 0):
        raise ValueError(f"kappa must be positive, got {kappa}")
    if not kappa < math.inf:
        raise ValueError(f"the value must be finite, got {kappa!r}")
    if flavor == MODIFIED:
        if gamma is None:
            raise ValueError("the modified flow needs gamma, got None")
        if not (_above(gamma, -math.inf) and gamma < math.inf):
            raise ValueError(f"the value must be finite, got {gamma!r}")
    return _eps(eps)


def _reduced(sums: dict[int, tuple[int, int]]) -> dict[Monomial, tuple[int, int]]:
    """One reduced pair per (numerator, denominator) sum, keyed by the monomial at its index; 0 left out."""
    return {_INDEX[i]: _pair(n, d) for i, (n, d) in sums.items() if n}


def _refuse(*_):
    raise TypeError("an unreduced ratio takes ints and ratios only and has no order or truth value")


class _Ratio:
    """An exact n / d kept unreduced, for evaluating a closed form inside _exactly.

    Every operation is integer multiplication and addition only, with no
    gcd: a sum of two ratios over the same denominator keeps it, and an int
    operand is n / 1.  A float, a Fraction or any other operand, a
    comparison, bool() and a negative power raise TypeError, so a closed
    form that leaves the plain arithmetic of its inputs fails instead of
    silently changing type; a zero divisor raises ZeroDivisionError.
    """

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int) -> None:
        self.n = n
        self.d = d

    def __add__(self, o):
        if type(o) is _Ratio:
            if o.d == self.d:
                return _Ratio(self.n + o.n, self.d)
            return _Ratio(self.n * o.d + o.n * self.d, self.d * o.d)
        if type(o) is int:
            return _Ratio(self.n + o * self.d, self.d)
        _refuse()

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is _Ratio:
            if o.d == self.d:
                return _Ratio(self.n - o.n, self.d)
            return _Ratio(self.n * o.d - o.n * self.d, self.d * o.d)
        if type(o) is int:
            return _Ratio(self.n - o * self.d, self.d)
        _refuse()

    def __rsub__(self, o):
        if type(o) is int:
            return _Ratio(o * self.d - self.n, self.d)
        _refuse()

    def __mul__(self, o):
        if type(o) is _Ratio:
            return _Ratio(self.n * o.n, self.d * o.d)
        if type(o) is int:
            return _Ratio(self.n * o, self.d)
        _refuse()

    __rmul__ = __mul__

    def __truediv__(self, o):
        if type(o) is _Ratio:
            if not o.n:
                raise ZeroDivisionError("division by zero")
            return _Ratio(self.n * o.d, self.d * o.n)
        if type(o) is int:
            if not o:
                raise ZeroDivisionError("division by zero")
            return _Ratio(self.n, self.d * o)
        _refuse()

    def __rtruediv__(self, o):
        if type(o) is int:
            if not self.n:
                raise ZeroDivisionError("division by zero")
            return _Ratio(o * self.d, self.n)
        _refuse()

    def __neg__(self):
        return _Ratio(-self.n, self.d)

    def __pow__(self, k):
        if type(k) is int and k >= 0:
            return _Ratio(self.n ** k, self.d ** k)
        _refuse()

    __rpow__ = __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __bool__ = _refuse
    __hash__ = None


def _exactly(fn, *args):
    """fn(*args) evaluated over unreduced ratios, each result reduced once to a Fraction.

    Each int or Fraction argument becomes a _Ratio and any other argument
    (None) is passed as it is.  fn returns one value or a tuple of values,
    each a _Ratio, and each is reduced with a single gcd; no _Ratio leaves
    this function.
    """
    out = fn(*(_Ratio(*x.as_integer_ratio()) if isinstance(x, (int, Fraction)) else x
               for x in args))
    if type(out) is tuple:
        return tuple(Fraction(r.n, r.d) for r in out)
    return Fraction(out.n, out.d)


@dataclass(frozen=True)
class Monomial:
    """One of the 40 basis monomials: ascending vertical indices, one horizontal part.

    The degree and the hash are worked out once, on construction.  The hash
    is the index of the monomial's (vertical bitmask, horizontal part), so
    it is the same in every process and a copied or unpickled monomial still
    finds its dict entries; equality compares (verts, horiz) alone.
    """

    verts: tuple[int, ...]
    horiz: str
    degree: int = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if any(i not in (1, 2, 3) for i in self.verts):
            raise ValueError(f"vertical indices must lie in {{1,2,3}}: {self.verts}")
        if list(self.verts) != sorted(set(self.verts)):
            raise ValueError(f"vertical indices must be strictly ascending: {self.verts}")
        if self.horiz not in HORIZONTALS:
            raise ValueError(f"unknown horizontal part {self.horiz!r}")
        mask = sum(1 << (i - 1) for i in self.verts)
        object.__setattr__(self, "degree", len(self.verts) + _HORIZ_DEGREE[self.horiz])
        object.__setattr__(self, "_hash", mask * len(HORIZONTALS) + HORIZONTALS.index(self.horiz))

    def __hash__(self) -> int:
        return self._hash

    @property
    def key(self) -> str:
        """Serialization key, e.g. 'e23^w1'; the empty product is '1'."""
        ep = "e" + "".join(str(i) for i in self.verts) if self.verts else ""
        hp = self.horiz if self.horiz != "1" else ""
        if ep and hp:
            return ep + "^" + hp
        return ep or hp or "1"

    @staticmethod
    def from_key(key: str) -> "Monomial":
        """The basis monomial with this key; any other string raises ValueError."""
        try:
            return _BY_KEY[key]
        except KeyError:
            raise ValueError(f"unknown monomial key {key!r}") from None

    def __repr__(self) -> str:
        return self.key


def _make_basis() -> tuple[Monomial, ...]:
    subsets = [tuple(i for i in (1, 2, 3) if mask & (1 << (i - 1))) for mask in range(8)]
    basis = [Monomial(s, h) for s in subsets for h in HORIZONTALS]
    return tuple(sorted(basis, key=lambda m: (m.degree, m.key)))


# the 40 monomials, each made once; the tables below hand out these objects
_BASIS = _make_basis()
_BY_KEY = {m.key: m for m in _BASIS}
_BY_PARTS = {(m.verts, m.horiz): m for m in _BASIS}
# position i holds the basis monomial whose hash, its index, is i; the
# structure tables are tuples in this order and name monomials by index
_INDEX = tuple(sorted(_BASIS, key=lambda m: m._hash))


def all_monomials() -> list[Monomial]:
    """The full 40-element basis, ordered by degree then key."""
    return list(_BASIS)


UNIT = Monomial.from_key("1")
TOP = Monomial.from_key("e123^vol")


# bound once for InvariantForm._of, which every kernel result goes through
_new_object = object.__new__
_set_field = object.__setattr__


@dataclass(frozen=True)
class InvariantForm:
    """A formal rational combination of basis monomials.

    Each coefficient is held in _terms as its reduced integer pair
    (numerator, denominator), the denominator positive, the pair a Fraction
    of it holds; the zero form has an empty map and no pair is 0.  A
    rational has one such pair, so equality of forms is equality of the
    maps.  The constructor reads a map of ints and Fractions: it refuses
    any other coefficient (a float 0.0 too) and drops the zeros.  `coeffs`
    gives the coefficients back as a new dict of Fractions at each read.
    """

    coeffs: InitVar[Mapping[Monomial, ScalarLike] | None] = None
    _terms: dict[Monomial, tuple[int, int]] = field(init=False)

    def __post_init__(self, coeffs: Mapping[Monomial, ScalarLike] | None) -> None:
        checked = ((m, _as_pair(c)) for m, c in (coeffs or {}).items())
        object.__setattr__(self, "_terms", {m: t for m, t in checked if t[0]})

    @classmethod
    def _of(cls, terms: dict[Monomial, tuple[int, int]]) -> "InvariantForm":
        """A form that takes over terms, a new map of non-zero reduced pairs, unchecked."""
        f = _new_object(cls)
        _set_field(f, "_terms", terms)
        return f

    @staticmethod
    def zero() -> "InvariantForm":
        return InvariantForm({})

    @staticmethod
    def monomial(m: Monomial, coeff: ScalarLike = 1) -> "InvariantForm":
        return InvariantForm({m: coeff})

    def is_zero(self) -> bool:
        return not self._terms

    def degrees(self) -> set[int]:
        return {m.degree for m in self._terms}

    def degree(self) -> int | None:
        """Degree of a homogeneous form; None for the zero form; error if mixed."""
        if len(self._terms) == 1:
            for m in self._terms:
                return m.degree
        degs = self.degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"form is not homogeneous, degrees {sorted(degs)}")
        return degs.pop()

    def coefficient(self, m: Monomial) -> Fraction:
        return Fraction(*self._terms.get(m, (0, 1)))

    def _plus(self, other: "InvariantForm", sign: int) -> "InvariantForm":
        """self + sign * other; a coefficient in both is one reduced pair of its integer sum."""
        out = dict(self._terms)
        for m, (cn, cd) in other._terms.items():
            s = out.get(m)
            if s is None:
                out[m] = (cn, cd) if sign > 0 else (-cn, cd)
                continue
            sn, sd = s
            if sd == cd:
                n, d = sn + sign * cn, sd
            else:
                n, d = sn * cd + sign * cn * sd, sd * cd
            if n:
                out[m] = _pair(n, d)
            else:
                del out[m]
        return InvariantForm._of(out)

    def __add__(self, other: "InvariantForm") -> "InvariantForm":
        return self._plus(other, 1)

    def __sub__(self, other: "InvariantForm") -> "InvariantForm":
        return self._plus(other, -1)

    def __neg__(self) -> "InvariantForm":
        return InvariantForm._of({m: (-n, d) for m, (n, d) in self._terms.items()})

    def __rmul__(self, scalar: ScalarLike) -> "InvariantForm":
        """scalar * form, each coefficient one reduced pair of the integer products."""
        sn, sd = _as_pair(scalar)
        out: dict[Monomial, tuple[int, int]] = {}
        if sn:
            for m, (cn, cd) in self._terms.items():
                out[m] = _pair(sn * cn, sd * cd)
        return InvariantForm._of(out)

    def __mul__(self, scalar: ScalarLike) -> "InvariantForm":
        return self.__rmul__(scalar)

    def _texts(self) -> list[tuple[str, str]]:
        """(monomial key, coefficient as str(Fraction) writes it) in degree then key order."""
        items = sorted(self._terms.items(), key=lambda t: (t[0].degree, t[0].key))
        return [(m.key, str(n) if d == 1 else f"{n}/{d}") for m, (n, d) in items]

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"{c}*{k}" for k, c in self._texts())

    def to_json_dict(self) -> dict[str, str]:
        """Serialize as {monomial-key: "num/den"} with exact string rationals."""
        return dict(self._texts())

    @staticmethod
    def from_json_dict(data: Mapping[str, str]) -> "InvariantForm":
        return InvariantForm({Monomial.from_key(k): Fraction(v) for k, v in data.items()})


def _fraction_view(f: InvariantForm) -> dict[Monomial, Fraction]:
    """The coefficients as a new dict of Fractions; writing into it leaves the form as it was."""
    return {m: Fraction(n, d) for m, (n, d) in f._terms.items()}


# the constructor's InitVar leaves its default on the class; a form's
# coefficients are read through this view in its place
InvariantForm.coeffs = property(_fraction_view, doc=_fraction_view.__doc__)


def form(terms: Iterable[tuple[str, ScalarLike]]) -> InvariantForm:
    """Build a form from (key, coefficient) pairs."""
    out: dict[Monomial, tuple[int, int]] = {}
    for key, c in terms:
        m = Monomial.from_key(key)
        n, d = _as_pair(c)
        s = out.get(m)
        out[m] = (n, d) if s is None else _pair(s[0] * d + n * s[1], s[1] * d)
    return InvariantForm._of({m: t for m, t in out.items() if t[0]})


# vertical and horizontal generators as forms
E1 = form([("e1", 1)])
E2 = form([("e2", 1)])
E3 = form([("e3", 1)])
W1 = form([("w1", 1)])
W2 = form([("w2", 1)])
W3 = form([("w3", 1)])
VOL = form([("vol", 1)])


@dataclass(frozen=True)
class GeometryParams:
    """Scales (a, b, q) and orientation sign eps of an invariant geometry.

    a scales e1, e2 and b scales e3; q = c^2 is the squared horizontal
    scale.  All three must be positive rationals; eps is +1 or -1, kept
    as the int that _eps reads it as.
    """

    a: Fraction
    b: Fraction
    q: Fraction
    eps: int

    def __post_init__(self) -> None:
        for name in ("a", "b", "q"):
            v = _as_scalar(getattr(self, name))
            object.__setattr__(self, name, v)
            if v <= 0:
                raise ValueError(f"{name} must be positive, got {v}")
        object.__setattr__(self, "eps", _eps(self.eps))

    @functools.cached_property
    def _ratios(self) -> tuple[int, int, int, int, int, int]:
        """(an, ad, bn, bd, qn, qd), the integer ratios of a, b and q, read on first use and kept."""
        return (*self.a.as_integer_ratio(), *self.b.as_integer_ratio(), *self.q.as_integer_ratio())

    def state(self) -> tuple[float, float, float]:
        """Floating (a, b, c) with c = sqrt(q).

        c is float(q) ** 0.5 wherever float(q) is a normal float.  A q
        outside that range is first scaled exactly by 4^-k into it, so that
        c = 2^k sqrt(q / 4^k) neither underflows nor overflows with q.
        """
        try:
            x = float(self.q)
        except OverflowError:
            x = math.inf
        if sys.float_info.min <= x < math.inf:
            c = x ** 0.5
        else:
            qn, qd = self._ratios[4:]
            k = (qn.bit_length() - qd.bit_length()) // 2
            scaled = qn / (qd << 2 * k) if k >= 0 else (qn << -2 * k) / qd
            c = math.ldexp(scaled ** 0.5, k)
        return (float(self.a), float(self.b), c)


def random_params(rng: random.Random, eps: int) -> GeometryParams:
    """Draw scales with numerator and denominator uniform in [1, 97].

    Small heights keep exact arithmetic fast while giving full confidence
    for polynomial identity testing.
    """
    def draw() -> Fraction:
        return Fraction(rng.randint(1, 97), rng.randint(1, 97))

    return GeometryParams(a=draw(), b=draw(), q=draw(), eps=eps)


def _merge_sign(v1: tuple[int, ...], v2: tuple[int, ...]) -> int:
    """Parity sign of sorting the concatenation of two ascending index tuples."""
    inversions = sum(1 for i in v1 for j in v2 if j < i)
    return -1 if inversions % 2 else 1


# horizontal products: (h1, h2) -> (coefficient, horizontal) or None if zero
_HORIZ_MUL: dict[tuple[str, str], tuple[int, str]] = {}
for _h in HORIZONTALS:
    _HORIZ_MUL[("1", _h)] = (1, _h)
    _HORIZ_MUL[(_h, "1")] = (1, _h)
for _i in (1, 2, 3):
    _HORIZ_MUL[(f"w{_i}", f"w{_i}")] = (2, "vol")


def wedge_monomials(m1: Monomial, m2: Monomial) -> tuple[int, Monomial] | None:
    """Product of two monomials as (integer coefficient, monomial), or None when zero.

    Horizontal parts have even degree, so the only sign comes from sorting
    the vertical indices.
    """
    if set(m1.verts) & set(m2.verts):
        return None
    hm = _HORIZ_MUL.get((m1.horiz, m2.horiz))
    if hm is None:
        return None
    hcoeff, horiz = hm
    sign = _merge_sign(m1.verts, m2.verts)
    verts = tuple(sorted(m1.verts + m2.verts))
    return sign * hcoeff, _BY_PARTS[(verts, horiz)]


# _PRODUCT[i][j] is wedge_monomials of the monomials at indices i and j, as
# (integer coefficient, index of the product) or None
_PRODUCT = tuple(tuple(None if w is None else (w[0], w[1]._hash)
                       for w in (wedge_monomials(m1, m2) for m2 in _INDEX))
                 for m1 in _INDEX)


def wedge(alpha: InvariantForm, beta: InvariantForm) -> InvariantForm:
    """Bilinear, associative wedge product; degree overflow gives zero.

    Each output coefficient is summed as one integer numerator and
    denominator, keyed by its monomial's index, and reduced once.
    """
    terms = [(m2._hash, n2, d2) for m2, (n2, d2) in beta._terms.items()]
    sums: dict[int, tuple[int, int]] = {}
    for m1, (n1, d1) in alpha._terms.items():
        row = _PRODUCT[m1._hash]
        for j2, n2, d2 in terms:
            prod = row[j2]
            if prod is not None:
                k, j = prod
                n, d = k * n1 * n2, d1 * d2
                s = sums.get(j)
                if s is None:
                    sums[j] = (n, d)
                elif s[1] == d:
                    sums[j] = (s[0] + n, d)
                else:
                    sums[j] = (s[0] * d + n * s[1], s[1] * d)
    return InvariantForm._of(_reduced(sums))


# differentials of the generators; everything else follows by the Leibniz rule
_D_GEN: dict[str, InvariantForm] = {
    "e1": form([("e23", -2), ("w1", -2)]),
    "e2": form([("e13", 2), ("w2", -2)]),   # -2 e3^e1 - 2 w2
    "e3": form([("e12", -2), ("w3", -2)]),
    "w1": form([("e3^w2", 2), ("e2^w3", -2)]),
    "w2": form([("e1^w3", 2), ("e3^w1", -2)]),
    "w3": form([("e2^w1", 2), ("e1^w2", -2)]),
    "vol": InvariantForm.zero(),
    "1": InvariantForm.zero(),
}


def _d_monomial(m: Monomial) -> InvariantForm:
    """d of one basis monomial by the Leibniz rule."""
    total = InvariantForm.zero()
    factors = [f"e{i}" for i in m.verts] + ([m.horiz] if m.horiz != "1" else [])
    for j, fac in enumerate(factors):
        sign = -1 if j % 2 else 1
        # vertical factors have degree 1; the even-degree horizontal factor
        # sits in the final slot, so it contributes no extra sign beyond j
        if fac.startswith("e"):
            pre = InvariantForm.monomial(Monomial(m.verts[:j], "1"))
            post = InvariantForm.monomial(Monomial(m.verts[j + 1:], m.horiz))
        else:
            pre = InvariantForm.monomial(Monomial(m.verts, "1"))
            post = InvariantForm.monomial(UNIT)
        term = wedge(wedge(pre, _D_GEN[fac]), post)
        total = total + (sign * term)
    return total


# _D[i] is d of the monomial at index i as (index, integer coefficient) pairs;
# the coefficients are whole numbers
_D = tuple(tuple((dm._hash, dn) for dm, (dn, _) in _d_monomial(m)._terms.items())
           for m in _INDEX)


def exterior_derivative(alpha: InvariantForm) -> InvariantForm:
    """Exterior derivative from the structure relations and the Leibniz rule.

    The coefficients of each d(m) are integers, so each output coefficient
    is summed as one integer numerator and denominator, keyed by its
    monomial's index, and reduced once.
    """
    sums: dict[int, tuple[int, int]] = {}
    for m, (n, d) in alpha._terms.items():
        for j, k in _D[m._hash]:
            s = sums.get(j)
            if s is None:
                sums[j] = (k * n, d)
            elif s[1] == d:
                sums[j] = (s[0] + k * n, d)
            else:
                sums[j] = (s[0] * d + k * n * s[1], s[1] * d)
    return InvariantForm._of(_reduced(sums))


# <h, h> = k / q^e for the horizontal part h, as (k, e)
_HORIZ_WEIGHT = {"1": (1, 0), "w1": (2, 2), "w2": (2, 2), "w3": (2, 2), "vol": (1, 4)}

# complementary horizontal parts under the star pairing h ^ h' -> vol
_HORIZ_PARTNER = {"1": "vol", "vol": "1", "w1": "w1", "w2": "w2", "w3": "w3"}


def _star_partner(m: Monomial) -> tuple[Monomial, int]:
    """Complementary monomial of m and the coefficient of m ^ complement on TOP."""
    comp = _BY_PARTS[(tuple(i for i in (1, 2, 3) if i not in m.verts),
                      _HORIZ_PARTNER[m.horiz])]
    pairing = _PRODUCT[m._hash][comp._hash]
    assert pairing is not None and pairing[1] == TOP._hash
    return comp, pairing[0]


def _metric_law(m: Monomial) -> tuple[Monomial, int, int, int, int, int]:
    """(complement, pairing, k, ja, jb, jq) with <m, m> = k / (a^ja b^jb q^jq).

    The complement and the pairing sign come from _star_partner; k / q^jq
    is the weight of the horizontal part from _HORIZ_WEIGHT, ja counts e1
    and e2 in m twice and jb counts e3 twice.
    """
    k, jq = _HORIZ_WEIGHT[m.horiz]
    jb = 2 * (3 in m.verts)
    return (*_star_partner(m), k, 2 * len(m.verts) - jb, jb, jq)


# _LAW[i] is the metric law of the monomial at index i with its complement as
# an index, the one table the metric kernels read
_LAW = tuple((comp._hash, *rest) for comp, *rest in map(_metric_law, _INDEX))


def _top_coeff(p: GeometryParams) -> Fraction:
    """eps a^2 b q^2, the coefficient of e123 ^ vol in the volume form."""
    an, ad, bn, bd, qn, qd = p._ratios
    return Fraction(p.eps * an * an * bn * qn * qn, ad * ad * bd * qd * qd)


def volume_form(p: GeometryParams) -> InvariantForm:
    """Riemannian volume form: eps * a^2 b q^2 * e123 ^ vol."""
    return InvariantForm._of({TOP: _top_coeff(p).as_integer_ratio()})


def hodge_star(alpha: InvariantForm, p: GeometryParams) -> InvariantForm:
    """Hodge star, defined by gamma ^ star(beta) = <gamma, beta> vol_eps.

    Star of a basis monomial m is a multiple of its complement, by
    <m, m> eps a^2 b q^2 over the sign of m ^ complement on the top
    monomial.  With m's law (complement, pairing, k, ja, jb, jq) that is
    k eps a^(2-ja) b^(1-jb) q^(2-jq) / pairing, and each output coefficient
    is one reduced pair of it times the input coefficient.
    """
    alpha.degree()  # homogeneity check
    an, ad, bn, bd, qn, qd = p._ratios
    eps = p.eps
    # a^(2-ja), b^(1-jb) and q^(2-jq) as (numerator, denominator), at ja // 2, jb // 2 and jq // 2
    an2, ad2, qn2, qd2 = an * an, ad * ad, qn * qn, qd * qd
    fa = ((an2, ad2), (1, 1), (ad2, an2))
    fb = ((bn, bd), (bd, bn))
    fq = ((qn2, qd2), (1, 1), (qd2, qn2))
    out: dict[Monomial, tuple[int, int]] = {}
    for m, (num, den) in alpha._terms.items():
        comp, pairing, k, ja, jb, jq = _LAW[m._hash]
        (na, da), (nb, db), (nq, dq) = fa[ja // 2], fb[jb // 2], fq[jq // 2]
        out[_INDEX[comp]] = _pair(eps * k * num * na * nb * nq, pairing * den * da * db * dq)
    return InvariantForm._of(out)


def inner_product(alpha: InvariantForm, beta: InvariantForm, p: GeometryParams) -> Fraction:
    """Pointwise inner product <alpha, beta>; requires equal homogeneous degree.

    The sum of c c' <m, m> is kept as one integer numerator and denominator
    and reduced once, at the end, to the one Fraction returned.
    """
    da, db = alpha.degree(), beta.degree()
    if da is not None and db is not None and da != db:
        raise ValueError(f"degree mismatch: {da} vs {db}")
    an, ad, bn, bd, qn, qd = p._ratios
    other = beta._terms
    num, den = 0, 1
    for m, (cn, cd) in alpha._terms.items():
        cb = other.get(m)
        if cb is not None:
            _, _, k, ja, jb, jq = _LAW[m._hash]
            cbn, cbd = cb
            tn = k * cn * cbn * ad ** ja * bd ** jb * qd ** jq
            td = cd * cbd * an ** ja * bn ** jb * qn ** jq
            num, den = num * td + tn * den, den * td
    return Fraction(num, den)


def dstar_on_4forms(rho: InvariantForm, p: GeometryParams) -> InvariantForm:
    """The operator d(star(.)) on 4-forms; its image is again degree 4."""
    if not rho.is_zero() and rho.degree() != 4:
        raise ValueError("dstar_on_4forms expects a degree-4 form")
    return exterior_derivative(hodge_star(rho, p))


def total_integral(rho: InvariantForm, p: GeometryParams) -> Fraction:
    """Integral of a 7-form, normalized so that e123 ^ vol has total mass 1.

    The normalization fixes the base volume, so integrals are reported per
    unit base volume.  Note the e123 ^ vol orientation: for eps = -1 the
    Riemannian volume form integrates to a negative number under it.
    """
    if not rho.is_zero() and rho.degree() != 7:
        raise ValueError("total_integral expects a degree-7 form")
    return rho.coefficient(TOP)


@functools.cache
def _structure_checks() -> tuple[bool, bool, bool]:
    """The checks of algebra_checks that no geometry enters, run once per process.

    Returns (d circ d = 0 on every monomial, the horizontal products, the
    off-diagonal star pairings).  For distinct monomials m1, m2 of one
    degree, <m1, m2> = 0 and star(m2) is a multiple of the complement of
    m2, so m1 ^ star(m2) = <m1, m2> vol_eps holds exactly when the table
    product of m1 with that complement is zero.  algebra_checks ties this
    to the stars computed at each point by checking their support.
    """
    dd_ok = all(exterior_derivative(exterior_derivative(f)).is_zero() for f in _BASIS_FORMS)
    horiz_ok = (
        wedge(W1, W1) == 2 * VOL and wedge(W2, W2) == 2 * VOL
        and wedge(W3, W3) == 2 * VOL
        and wedge(W1, W2).is_zero() and wedge(W2, W3).is_zero()
        and wedge(W3, W1).is_zero() and wedge(W1, VOL).is_zero()
    )
    off_diagonal_ok = all(_PRODUCT[m1._hash][_LAW[m2._hash][0]] is None
                          for m1 in _BASIS for m2 in _BASIS
                          if m1 != m2 and m1.degree == m2.degree)
    return dd_ok, horiz_ok, off_diagonal_ok


# the 40 basis monomials as forms of coefficient 1, the unit first, each with
# the support its star must have (its complement alone)
_BASIS_FORMS = tuple(InvariantForm._of({m: (1, 1)}) for m in _BASIS)
_STAR_SUPPORTS = tuple(frozenset((_INDEX[_LAW[m._hash][0]],)) for m in _BASIS)
_TOP_SUPPORT = frozenset((TOP,))


def algebra_checks(p: GeometryParams) -> list[tuple[str, bool]]:
    """Named exact consistency checks of the algebra at one parameter point.

    Returns (check id, passed) pairs; everything runs in rational
    arithmetic over the full 40-monomial basis.  The parts that hold for
    every (a, b, q, eps) -- d circ d = 0, the horizontal products and the
    off-diagonal star pairings -- come from _structure_checks, run once per
    process on the first call.  Per point run the 40 stars, their
    involution, the 40 diagonal pairings m ^ star(m) = <m, m> vol_eps, the
    star of the unit, and a support check: each star of a monomial is a
    single multiple of its complement, which is what carries the
    off-diagonal pairings over to the stars computed at this point.

    The 40 one-term forms and their star supports hold no geometry and are
    made once, at import; the unit's is the first of the 40 stars.  vol_eps
    has the one term e123 ^ vol, so a diagonal pairing holds when the
    wedge's support is {TOP} and its coefficient there equals
    <m, m> eps a^2 b q^2, compared by one integer cross-multiplication; the
    star of the unit is compared with {TOP: eps a^2 b q^2}.  hodge_star,
    wedge and inner_product are looked up in this module at every call.
    """
    dd_ok, horiz_ok, off_diagonal_ok = _structure_checks()
    top = _top_coeff(p).as_integer_ratio()
    tn, td = top

    stars = [hodge_star(f, p) for f in _BASIS_FORMS]

    invol_ok = all(hodge_star(s, p) == f for f, s in zip(_BASIS_FORMS, stars))

    support_ok = all(s._terms.keys() == support for s, support in zip(stars, _STAR_SUPPORTS))

    def diagonal(f: InvariantForm, s: InvariantForm) -> bool:
        """m ^ star(m) = <m, m> vol_eps, by one cross-multiplication on TOP's coefficient."""
        w = wedge(f, s)._terms
        if w.keys() != _TOP_SUPPORT:
            return False
        wn, wd = w[TOP]
        gn, gd = inner_product(f, f, p).as_integer_ratio()
        return wn * gd * td == gn * tn * wd

    diagonal_ok = all(diagonal(f, s) for f, s in zip(_BASIS_FORMS, stars))
    pairing_ok = off_diagonal_ok and support_ok and diagonal_ok

    unit_ok = stars[0]._terms == {TOP: top}

    return [
        ("nilpotent-differential", dd_ok),
        ("star-involution", invol_ok),
        ("star-pairing", pairing_ok),
        ("horizontal-products", horiz_ok),
        ("unit-star", unit_ok),
    ]
