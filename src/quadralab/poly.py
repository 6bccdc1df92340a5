"""Sparse multivariate polynomials over Q(i) and their fraction field.

Terms are stored as a dict from exponent tuples to GaussianRational
coefficients with no zero entries.  The canonical order is graded
lexicographic in the ring's declared variable order, which makes string
output, leading terms, and "equal up to scalar" comparisons stable.  A
product accumulates each coefficient as an unreduced (x, y, d) int triple
and settles it with one gcd at the end.

``RationalFunction`` keeps num/den pairs.  Reduction is best effort
(monomial content, a constant denominator, and exact-division probes in
both directions; no gcd), and a unit denominator is already in that form,
so it is left as it is; equality is always decided by
cross-multiplication, which needs no gcd at all, and the hash is the
leading-term ratio lt(num)/lt(den), the same for every representation.

``MultiPoly`` derives ``-`` and ``**`` from ``scalars.RingOps`` and has no
``/``: dividing by a ``RationalFunction`` falls through to its reflected
operator.  ``RationalFunction`` derives ``-``, ``/`` and ``**`` from
``scalars.FieldOps``.  Each supplies ``_lift``, ``+``, unary ``-``, ``*``
and ``_one``; ``RationalFunction`` also ``inverse``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add

from .errors import NotInvertible
from .linalg import SparseEchelon
from .scalars import FieldOps, GaussianRational, QI_ONE, QI_ZERO, QQi, RingOps, _reduced


class PolyRing:
    """A commutative polynomial ring over Q(i) with named variables."""

    def __init__(self, variables):
        vars_ = tuple(variables)
        if len(set(vars_)) != len(vars_):
            raise ValueError(f"duplicate variable names in {vars_}")
        self.variables = vars_
        self.nvars = len(vars_)
        self._index = {v: k for k, v in enumerate(vars_)}

    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {})

    def one(self) -> "MultiPoly":
        return self.constant(QI_ONE)

    def constant(self, c) -> "MultiPoly":
        c = QQi.coerce(c)
        if not c:
            return self.zero()
        return MultiPoly(self, {(0,) * self.nvars: c})

    def gen(self, name: str) -> "MultiPoly":
        k = self._index[name]
        exp = tuple(1 if j == k else 0 for j in range(self.nvars))
        return MultiPoly(self, {exp: QI_ONE})

    def gens(self):
        return tuple(self.gen(v) for v in self.variables)

    def monomial(self, exponents, coeff=QI_ONE) -> "MultiPoly":
        exponents = tuple(exponents)
        if len(exponents) != self.nvars:
            raise ValueError("exponent tuple has wrong length")
        coeff = QQi.coerce(coeff)
        if not coeff:
            return self.zero()
        return MultiPoly(self, {exponents: coeff})

    def coerce(self, value) -> "MultiPoly":
        if isinstance(value, MultiPoly):
            if value.ring is self:
                return value
            if value.ring.variables == self.variables:
                return MultiPoly(self, dict(value.terms))
            raise TypeError(f"polynomial from foreign ring {value.ring!r}")
        return self.constant(value)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and other.variables == self.variables

    def __hash__(self):
        return hash(("PolyRing", self.variables))

    def __repr__(self):
        return f"PolyRing{self.variables}"


def _grlex_key(exp):
    return (sum(exp), exp)


class MultiPoly(RingOps):
    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)

    # -- basic structure --------------------------------------------------

    def _lift(self, other):
        if isinstance(other, MultiPoly):
            if other.ring is not self.ring and other.ring != self.ring:
                return None
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.ring.constant(other)
        return None

    def _one(self):
        return self.ring.one()

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        if self.degree() <= 0:
            return hash(self.constant_term())
        return hash((self.ring, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for exp, c in o.terms.items():
            s = terms.get(exp, QI_ZERO) + c
            if s:
                terms[exp] = s
            else:
                terms.pop(exp, None)
        return MultiPoly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        # a constant operand only scales the other one's coefficients
        for f, g in ((o, self), (self, o)):
            if len(g.terms) == 1:
                (exp, c), = g.terms.items()
                if not any(exp):
                    return f.scale(c)
        # each exponent's coefficient is a (x, y, d) triple, summed over the
        # lcm of the denominators and settled once at the end.  A partial sum
        # that cancels is dropped at once, so the terms keep the order of a
        # product summed term by term, which split() and the slices follow.
        acc = {}
        for e1, c1 in self.terms.items():
            x1, y1, d1 = c1.x, c1.y, c1.d
            for e2, c2 in o.terms.items():
                exp = tuple(map(add, e1, e2))
                x2, y2 = c2.x, c2.y
                px, py, pd = x1 * x2 - y1 * y2, x1 * y2 + y1 * x2, d1 * c2.d
                s = acc.get(exp)
                if s is None:
                    acc[exp] = (px, py, pd)
                    continue
                sx, sy, sd = s
                if sd != pd:
                    m = lcm(sd, pd)
                    u, w = m // sd, m // pd
                    sx, sy, px, py, pd = sx * u, sy * u, px * w, py * w, m
                sx, sy = sx + px, sy + py
                if sx or sy:
                    acc[exp] = (sx, sy, pd)
                else:
                    del acc[exp]
        return MultiPoly(self.ring, {exp: _reduced(*t) for exp, t in acc.items()})

    __rmul__ = __mul__

    def scale(self, c) -> "MultiPoly":
        c = QQi.coerce(c)
        if not c:
            return self.ring.zero()
        if c == QI_ONE:
            return self
        return MultiPoly(self.ring, {e: v * c for e, v in self.terms.items()})

    # -- inspection --------------------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading(self):
        """(exponent, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=_grlex_key)
        return exp, self.terms[exp]

    def constant_term(self) -> GaussianRational:
        return self.terms.get((0,) * self.ring.nvars, QI_ZERO)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, values: dict):
        """Evaluate at scalar values (one per variable used); returns a scalar.

        Values may live in any algebra with + and *.
        """
        if not self.terms:
            return QI_ZERO
        # powers[k][e] = value of variable k to the e, each built once per call
        powers = []
        for k, top in enumerate(map(max, zip(*self.terms))):
            row = [None]
            if top:
                name = self.ring.variables[k]
                if name not in values:
                    raise KeyError(f"no value for variable {name}")
                row.append(values[name])
                for _ in range(1, top):
                    row.append(row[-1] * row[1])
            powers.append(row)
        out = None
        for exp, c in self.terms.items():
            term = c
            for k, e in enumerate(exp):
                if e:
                    term = term * powers[k][e]
            out = term if out is None else out + term
        return out

    def split(self, inner_names) -> dict:
        """Collect by monomials in ``inner_names``.

        Returns {inner exponent tuple -> MultiPoly in the remaining
        variables}, all over the same ring (outer exponents zeroed on the
        inner positions and vice versa).
        """
        inner = [self.ring._index[n] for n in inner_names]
        inner_set = set(inner)
        buckets: dict = {}
        for exp, c in self.terms.items():
            key = tuple(exp[k] for k in inner)
            rest = tuple(0 if k in inner_set else e for k, e in enumerate(exp))
            # (key, rest) determines exp, so no two terms share an entry
            buckets.setdefault(key, {})[rest] = c
        return {k: MultiPoly(self.ring, v) for k, v in buckets.items()}

    # -- division ------------------------------------------------------------

    def divide_exact(self, divisor: "MultiPoly"):
        """Return self/divisor when the division is exact, else None."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self.ring.zero()
        rem = self
        q_terms = {}
        dexp, dc = divisor.leading()
        while rem:
            rexp, rc = rem.leading()
            qexp = tuple(a - b for a, b in zip(rexp, dexp))
            if any(e < 0 for e in qexp):
                return None
            qc = rc / dc
            q_terms[qexp] = qc
            rem = rem - MultiPoly(self.ring, {qexp: qc}) * divisor
        return MultiPoly(self.ring, q_terms)

    # -- rendering -------------------------------------------------------------

    def _term_str(self, exp, coeff):
        factors = []
        for k, e in enumerate(exp):
            if e == 1:
                factors.append(self.ring.variables[k])
            elif e > 1:
                factors.append(f"{self.ring.variables[k]}^{e}")
        mono = "*".join(factors)
        cs = str(coeff)
        if not mono:
            return cs
        if cs == "1":
            return mono
        if cs == "-1":
            return f"-{mono}"
        if coeff.im and coeff.re:
            cs = f"({cs})"
        return f"{cs}*{mono}"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=_grlex_key, reverse=True):
            t = self._term_str(exp, self.terms[exp])
            if parts and not t.startswith("-"):
                parts.append("+" + t)
            else:
                parts.append(t)
        return "".join(parts)

    def __repr__(self):
        return f"MultiPoly({self})"


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class RationalFunction(FieldOps):
    """num/den with MultiPoly parts; den is never zero and is kept monic."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly = None, reduce=True):
        if den is None:
            den = num.ring.one()
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if reduce:
            num, den = _reduce_fraction(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def ring(self):
        return self.num.ring

    def _lift(self, other):
        if isinstance(other, RationalFunction):
            if other.ring is not self.ring and other.ring != self.ring:
                return None
            return other
        if isinstance(other, MultiPoly):
            if other.ring is not self.ring and other.ring != self.ring:
                return None
            return RationalFunction(other, reduce=False)
        if isinstance(other, (int, Fraction, GaussianRational)):
            return RationalFunction(self.ring.constant(other), reduce=False)
        return None

    def _one(self):
        return RationalFunction(self.ring.one(), reduce=False)

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return RationalFunction(self.num + o.num, self.den)
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, reduce=False)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self):
        if self.num.is_zero():
            raise NotInvertible(self, "zero rational function")
        return RationalFunction(self.den, self.num)

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        # cross multiplication: exact regardless of reduction quality
        return self.num * o.den == o.num * self.den

    def __hash__(self):
        # Reduction keeps no canonical form, but lt(num)/lt(den) is the same
        # for every representation of one value: lt is multiplicative.
        if not self.num:
            return 0
        nexp, nc = self.num.leading()
        dexp, dc = self.den.leading()
        shift = tuple(a - b for a, b in zip(nexp, dexp))
        return hash((shift, nc / dc)) if any(shift) else hash(nc / dc)

    def evaluate(self, values: dict):
        den = self.den.evaluate(values)
        if not den:
            raise ZeroDivisionError(f"denominator vanishes at {values}")
        return self.num.evaluate(values) / den

    def __str__(self):
        if self.den == self.ring.one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"


def _reduce_fraction(num: MultiPoly, den: MultiPoly):
    ring = num.ring
    if num.is_zero():
        return num, ring.one()
    if den.terms == {(0,) * ring.nvars: QI_ONE}:
        return num, den
    # shared monomial content: the least exponent of each variable
    common = tuple(map(min, zip(*num.terms, *den.terms)))
    if any(common):
        num, den = (MultiPoly(ring, {tuple(a - b for a, b in zip(e, common)): c
                                     for e, c in p.terms.items()}) for p in (num, den))
    # constant denominator
    if den.degree() == 0:
        return num.scale(den.constant_term().inverse()), ring.one()
    # proportionality probes: these catch the common fill-in cases cheaply
    q = num.divide_exact(den)
    if q is not None:
        return q, ring.one()
    q = den.divide_exact(num)
    if q is not None:
        _, lc = q.leading()
        return ring.constant(lc.inverse()), q.scale(lc.inverse())
    # normalize: monic denominator
    _, lc = den.leading()
    if lc != QI_ONE:
        inv = lc.inverse()
        num, den = num.scale(inv), den.scale(inv)
    return num, den


class FunctionField:
    """Field context for RationalFunction scalars over a given ring."""

    def __init__(self, ring: PolyRing):
        self.ring = ring

    def zero(self):
        return RationalFunction(self.ring.zero(), reduce=False)

    def one(self):
        return RationalFunction(self.ring.one(), reduce=False)

    def gen(self, name):
        return RationalFunction(self.ring.gen(name), reduce=False)

    def gens(self):
        return tuple(self.gen(v) for v in self.ring.variables)

    def coerce(self, value) -> RationalFunction:
        if isinstance(value, RationalFunction):
            if value.ring is not self.ring and value.ring != self.ring:
                raise TypeError("rational function from a foreign ring")
            return value
        if isinstance(value, MultiPoly):
            return RationalFunction(self.ring.coerce(value), reduce=False)
        return RationalFunction(self.ring.constant(value), reduce=False)

    def __eq__(self, other):
        return isinstance(other, FunctionField) and other.ring == self.ring

    def __hash__(self):
        return hash(("FunctionField", self.ring))

    def __repr__(self):
        return f"FunctionField({self.ring!r})"


# ---------------------------------------------------------------------------
# matrix determinant and proportionality
# ---------------------------------------------------------------------------


def det4(rows):
    """Determinant of a 4x4 matrix by cofactor expansion.

    Entries may be any ring elements supporting +, -, *.
    """
    if len(rows) != 4 or any(len(r) != 4 for r in rows):
        raise ValueError("expected a 4x4 matrix")

    def det2(a, b, c, d):
        return a * d - b * c

    def det3(m):
        return (
            m[0][0] * det2(m[1][1], m[1][2], m[2][1], m[2][2])
            - m[0][1] * det2(m[1][0], m[1][2], m[2][0], m[2][2])
            + m[0][2] * det2(m[1][0], m[1][1], m[2][0], m[2][1])
        )

    total = None
    for j in range(4):
        minor = [[rows[r][c] for c in range(4) if c != j] for r in range(1, 4)]
        term = rows[0][j] * det3(minor)
        if j % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return total


def _monomials_of_degree(nvars: int, degree: int):
    """All exponent tuples of the given total degree, lexicographically."""
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in _monomials_of_degree(nvars - 1, degree - first):
            yield (first,) + rest


class MacaulaySlice:
    """One degree of a module over a polynomial ring, as a tracked echelon.

    A generator is a homogeneous vector of polynomials, given as
    {(key, exponent tuple): scalar}: ``key`` names the coordinate (one
    shared key for a plain polynomial) and every exponent has the same
    total degree e; callers check the homogeneity.  The degree-d slice is
    spanned by the rows m * g, m running over the monomials of degree
    d - e (a generator with e > d adds nothing); row (i, m) is tagged by
    the generator's index and m.  Membership is one reduction, and the rows
    that come out dependent give the slice's syzygies, in the same tags.
    """

    def __init__(self, field, generators, degree: int, nvars: int):
        self.columns = {}
        self.one = (0,) * nvars  # the monomial 1
        self.echelon = SparseEchelon(field, track=True)
        self.dependent = []
        for gi, parts in enumerate(generators):
            e = sum(next(iter(parts))[1])
            if e > degree:
                continue
            for mono in _monomials_of_degree(nvars, degree - e):
                row = self._row(parts, mono)
                if self.echelon.insert(row, tag=(gi, mono)) is None:
                    self.dependent.append(((gi, mono), row))

    def _row(self, parts, mono):
        row = {}
        for (key, exp), c in parts.items():
            exp = tuple(a + b for a, b in zip(exp, mono))
            row[self.columns.setdefault((key, exp), len(self.columns))] = c
        return row

    def certificate(self, target):
        """{(generator index, m): coeff} with sum coeff * m * g == target, or None."""
        residual, combo = self.echelon.reduce_with_combo(self._row(target, self.one))
        return None if residual else combo

    def syzygies(self):
        """{tag: coeff} with sum coeff * m * g == 0, one per dependent row."""
        for tag, row in self.dependent:
            combo = self.echelon.reduce_with_combo(row)[1]
            yield {tag: -self.echelon.field.one(), **combo}


def ideal_slice_membership(f: MultiPoly, generators, main_names=None):
    """Decide membership of f in the degree-(deg f) slice of an ideal.

    The slice is the span of {g * m : g a generator, m a monomial,
    deg(g*m) = deg f}, i.e. membership without any division tricks; f must
    be homogeneous in the main variables.

    With ``main_names`` given, degrees and monomials refer to those
    variables only and the remaining variables act as scalar parameters
    (the linear algebra then runs over the corresponding rational function
    field).  Returns the certificate, a list of (generator index, exponent
    tuple, coefficient), once it re-expands to f; or None when f is not in
    the slice.  A certificate that does not re-expand raises AssertionError.
    """
    ring = f.ring
    if main_names is None:
        main_names = ring.variables
    main_names = tuple(main_names)
    param_names = tuple(v for v in ring.variables if v not in main_names)
    field = FunctionField(PolyRing(param_names)) if param_names else None

    def collect(poly):
        # {(None, main exponent): coefficient}: one shared key, a plain polynomial
        buckets = poly.split(main_names)
        if field is None:
            return {(None, k): v.constant_term() for k, v in buckets.items()}
        return {
            (None, k): RationalFunction(_moved(v, field.ring), reduce=False)
            for k, v in buckets.items()
        }

    f_parts = collect(f)
    if not f_parts:
        return []
    degs = {sum(k) for _, k in f_parts}
    if len(degs) > 1:
        raise ValueError(f"f is not homogeneous in {main_names}: degrees {degs}")
    d = degs.pop()

    g_parts = [collect(g) for g in generators]
    for gi, parts in enumerate(g_parts):
        if len({sum(k) for _, k in parts}) != 1:
            raise ValueError(f"generator {gi} is not homogeneous in {main_names}")
    combo = MacaulaySlice(field or QQi, g_parts, d, len(main_names)).certificate(f_parts)
    if combo is None:
        return None
    certificate = [(gi, mono, c) for (gi, mono), c in combo.items()]
    if not verify_slice_certificate(f, generators, certificate, main_names):
        raise AssertionError("a slice certificate does not re-expand to its target")
    return certificate


def verify_slice_certificate(f: MultiPoly, generators, certificate, main_names) -> bool:
    """Re-expand a membership certificate and compare against f.

    Handles rational-function coefficients by accumulating over a common
    denominator, so the final comparison is a polynomial identity.
    """
    ring = f.ring
    main_idx = [ring._index[v] for v in main_names]
    acc_num = ring.zero()
    acc_den = ring.one()
    for gi, mono, coeff in certificate:
        exp = [0] * ring.nvars
        for k, e in zip(main_idx, mono):
            exp[k] = e
        term = generators[gi] * ring.monomial(tuple(exp))
        if not isinstance(coeff, RationalFunction):
            coeff = RationalFunction(ring.constant(coeff), reduce=False)
        num, den = _moved(coeff.num, ring), _moved(coeff.den, ring)
        acc_num = acc_num * den + term * num * acc_den
        acc_den = acc_den * den
    return acc_num == f * acc_den


def _moved(poly: MultiPoly, ring: PolyRing) -> MultiPoly:
    """poly rewritten in ring, which has every variable poly's terms use."""
    pos = [poly.ring._index.get(v) for v in ring.variables]
    return MultiPoly(ring, {tuple(0 if k is None else exp[k] for k in pos): c
                            for exp, c in poly.terms.items()})


def proportionality_scalar(f: MultiPoly, g: MultiPoly, main_names):
    """If f = s*g for a scalar s rational in the non-main variables, return s.

    ``main_names`` are the variables whose monomials are compared (the x's);
    the ratio may depend on the remaining (parameter) variables.  Returns a
    RationalFunction, or None when f and g are not proportional.  Both zero
    counts as proportional with scalar 1.
    """
    if f.is_zero() and g.is_zero():
        return RationalFunction(f.ring.one(), reduce=False)
    if f.is_zero() or g.is_zero():
        return None
    cf = f.split(main_names)
    cg = g.split(main_names)
    if set(cf) != set(cg):
        return None
    key = max(cg, key=_grlex_key)
    fk, gk = cf[key], cg[key]
    # cross-multiplied comparison: f*gk == g*fk <=> f/g == fk/gk everywhere
    if f * gk != g * fk:
        return None
    return RationalFunction(fk, gk)
