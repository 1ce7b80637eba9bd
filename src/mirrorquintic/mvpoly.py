"""Sparse multivariate polynomials with exact coefficients.

A polynomial is a map from exponent tuples to nonzero coefficients, where
coefficients are either Python integers or FieldElements of one shared
field.  Everything is canonicalized on construction (no duplicate
monomials, no zero coefficients), so equality is a dictionary comparison
and the term list in graded-lexicographic order is reproducible.

A polynomial has one evaluator, MPoly.__call__: it takes one value per
variable, of any type with +, -, *, ** and scale (FieldElement, FieldArray,
ffield.Jet or MPoly), and computes each (variable, exponent) power once.
MPoly.eval (a point of FieldElements), eval_batch (index arrays, through
FieldArray) and substitute (polynomials, fully expanded; at degree <= 5 in
at most 6 variables this stays tiny) check their arguments and call it.
A PolySystem is called the same way, so a system is itself an equation
builder.

MPoly is the symbolic reference (derivatives, substitution, identities).
The scans over whole charts do not evaluate expanded term lists: they
call FamilyInstance.evaluate, which runs the family's own equation builder
on index arrays in its compact form (power sums, products, linear forms),
and the singular scans get their derivatives from the same builder run on
jets.  eval_batch is the reference the compact evaluation is tested
against.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, FieldMismatch
from .ffield import FieldArray, FieldDescriptor, FieldElement


def _is_zero_coeff(c) -> bool:
    if isinstance(c, FieldElement):
        return not c
    return c == 0


class MPoly:
    """Sparse polynomial in a fixed number of variables.

    The coefficient domain is the integers when ``field`` is None, else
    the given finite field.  Values are immutable once constructed.
    """

    __slots__ = ("nvars", "field", "_terms")

    def __init__(self, nvars: int, terms=None, field: FieldDescriptor | None = None):
        self.nvars = nvars
        self.field = field
        clean: dict[tuple, object] = {}
        if terms:
            for exps, coeff in terms.items() if isinstance(terms, dict) else terms:
                exps = tuple(int(e) for e in exps)
                if len(exps) != nvars:
                    raise DimensionMismatch(
                        f"monomial {exps} has {len(exps)} exponents, expected {nvars}"
                    )
                if isinstance(coeff, FieldElement):
                    if field is None:
                        raise FieldMismatch("field coefficient in integer polynomial")
                    coeff = field.element(coeff)
                elif field is not None:
                    coeff = field.element(int(coeff))
                prev = clean.get(exps)
                coeff = coeff if prev is None else prev + coeff
                if _is_zero_coeff(coeff):
                    clean.pop(exps, None)
                else:
                    clean[exps] = coeff
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, field=None) -> "MPoly":
        return cls(nvars, {}, field)

    @classmethod
    def constant(cls, nvars: int, c, field=None) -> "MPoly":
        return cls(nvars, {(0,) * nvars: c}, field)

    @classmethod
    def variable(cls, nvars: int, i: int, field=None) -> "MPoly":
        if not 0 <= i < nvars:
            raise DimensionMismatch(f"variable index {i} out of range")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        one = 1 if field is None else field.one
        return cls(nvars, {exps: one}, field)

    # -- views ---------------------------------------------------------------

    def terms(self) -> list[tuple[tuple, object]]:
        """Terms in descending graded-lexicographic order."""
        return sorted(self._terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def degree(self) -> int:
        return max((sum(e) for e in self._terms), default=0)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self._terms}
        return len(degs) <= 1

    def __len__(self):
        return len(self._terms)

    def __repr__(self):
        if not self._terms:
            return "0"
        bits = []
        for exps, c in self.terms():
            mono = "*".join(
                f"x{i}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps)
                if e
            )
            cs = repr(c) if isinstance(c, FieldElement) else str(c)
            bits.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(bits)

    # -- domain handling -----------------------------------------------------

    def _common_field(self, other: "MPoly") -> FieldDescriptor | None:
        if self.field is None:
            return other.field
        if other.field is None or other.field == self.field:
            return self.field
        raise FieldMismatch("polynomials over different fields")

    def to_field(self, F: FieldDescriptor) -> "MPoly":
        """Reduce integer coefficients into F (field coefficients must match)."""
        if self.field is not None:
            if self.field != F:
                raise FieldMismatch(f"polynomial is over {self.field!r}, not {F!r}")
            return self
        return MPoly(self.nvars, {e: F.element(c) for e, c in self._terms.items()}, F)

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other: "MPoly"):
        if self.nvars != other.nvars:
            raise DimensionMismatch(
                f"{self.nvars} and {other.nvars} variables cannot be combined"
            )

    def __add__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        F = self._common_field(other)
        a = self if F is None else self.to_field(F)
        b = other if F is None else other.to_field(F)
        terms = dict(a._terms)
        out = MPoly(self.nvars, terms, F)
        for exps, c in b._terms.items():
            prev = out._terms.get(exps)
            c2 = c if prev is None else prev + c
            if _is_zero_coeff(c2):
                out._terms.pop(exps, None)
            else:
                out._terms[exps] = c2
        return out

    def __neg__(self):
        return MPoly(self.nvars, {e: -c for e, c in self._terms.items()}, self.field)

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "MPoly":
        """Multiply by a scalar (int or FieldElement)."""
        F = self.field
        if isinstance(c, FieldElement):
            if F is None:
                return self.to_field(c.field).scale(c)
            c = F.element(c)
        elif F is not None:
            c = F.element(int(c))
        if _is_zero_coeff(c):
            return MPoly.zero(self.nvars, F)
        return MPoly(self.nvars, {e: v * c for e, v in self._terms.items()}, F)

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.scale(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        F = self._common_field(other)
        a = self if F is None else self.to_field(F)
        b = other if F is None else other.to_field(F)
        acc: dict[tuple, object] = {}
        for e1, c1 in a._terms.items():
            for e2, c2 in b._terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                c = c1 * c2
                prev = acc.get(e)
                c = c if prev is None else prev + c
                if _is_zero_coeff(c):
                    acc.pop(e, None)
                else:
                    acc[e] = c
        return MPoly(self.nvars, acc, F)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        one = 1 if self.field is None else self.field.one
        result = MPoly.constant(self.nvars, one, self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        # the same field (or both integral): poly_equal embeds integers
        if not isinstance(other, MPoly):
            return NotImplemented
        return (self.nvars, self.field, self._terms) == (
            other.nvars, other.field, other._terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self._terms.items())))

    # -- calculus and evaluation -------------------------------------------

    def derivative(self, var: int) -> "MPoly":
        """Formal partial derivative with respect to variable ``var``."""
        if not 0 <= var < self.nvars:
            raise DimensionMismatch(f"variable index {var} out of range")
        F = self.field
        acc: dict[tuple, object] = {}
        for exps, c in self._terms.items():
            e = exps[var]
            if e == 0:
                continue
            factor = e if F is None else F.element(e)
            c2 = c * factor
            if _is_zero_coeff(c2):
                continue
            nexps = exps[:var] + (e - 1,) + exps[var + 1 :]
            prev = acc.get(nexps)
            c2 = c2 if prev is None else prev + c2
            if _is_zero_coeff(c2):
                acc.pop(nexps, None)
            else:
                acc[nexps] = c2
        return MPoly(self.nvars, acc, F)

    def __call__(self, values):
        """The value of the polynomial at one value per variable.

        The values may be of any type with +, -, *, ** and scale:
        FieldElements, FieldArrays, Jets or MPolys.  Each (variable,
        exponent) power is computed once; a constant term is values[0] ** 0
        scaled, and the zero polynomial gives (values[0] ** 0).scale(0).
        """
        powers: dict[tuple[int, int], object] = {}
        total = None
        for exps, c in self._terms.items():
            term = None
            for i, e in enumerate(exps):
                if e:
                    pw = powers.get((i, e))
                    if pw is None:
                        pw = powers[(i, e)] = values[i] ** e
                    term = pw if term is None else term * pw
            term = (values[0] ** 0 if term is None else term).scale(c)
            total = term if total is None else total + term
        return (values[0] ** 0).scale(0) if total is None else total

    def eval(self, point) -> FieldElement:
        """Exact value at a point of FieldElements (int coefficients reduce)."""
        point = tuple(point)
        if len(point) != self.nvars:
            raise DimensionMismatch(
                f"point has {len(point)} coordinates, expected {self.nvars}"
            )
        F = None
        for x in point:
            if not isinstance(x, FieldElement):
                raise TypeError("evaluation points must consist of FieldElements")
            if F is None:
                F = x.field
            elif x.field != F:
                raise FieldMismatch("mixed fields in evaluation point")
        if self.field is not None and self.field != F:
            raise FieldMismatch(
                f"polynomial over {self.field!r} evaluated at a point of {F!r}"
            )
        return self(point)

    def substitute(self, change) -> "MPoly":
        """Fully expanded composite with each variable replaced by a polynomial.

        ``change`` is a sequence of MPoly (one per variable); LinearChange
        and MonomialMap values from the families module are also accepted.
        """
        mapping = _as_substitution(change, self.nvars, self.field)
        if len(mapping) != self.nvars:
            raise DimensionMismatch(
                f"substitution provides {len(mapping)} polynomials for "
                f"{self.nvars} variables"
            )
        tgt_nvars = mapping[0].nvars
        F = self.field
        for g in mapping:
            if g.nvars != tgt_nvars:
                raise DimensionMismatch("substitution polynomials disagree on arity")
            if g.field is not None:
                if F is None:
                    F = g.field
                elif g.field != F:
                    raise FieldMismatch("substitution over a different field")
        return self([g if F is None else g.to_field(F) for g in mapping])


def _as_substitution(change, nvars, field):
    # Accept families.LinearChange / families.MonomialMap without importing
    # them (duck typing keeps the dependency one-way).
    matrix = getattr(change, "matrix", None)
    if matrix is not None:
        polys = []
        for row in matrix:
            row = list(row)
            p = MPoly.zero(len(row), row[0].field)
            for j, c in enumerate(row):
                p = p + MPoly.variable(len(row), j, row[0].field).scale(c)
            polys.append(p)
        return polys
    exponent = getattr(change, "exponent", None)
    if exponent is not None and hasattr(change, "arity"):
        n = change.arity
        return [MPoly.variable(n, i, field) ** exponent for i in range(n)]
    return list(change)


def poly_equal(f: MPoly, g: MPoly) -> bool:
    """Exact equality of canonicalized term lists (integers embed in fields)."""
    if f.nvars != g.nvars:
        raise DimensionMismatch("polynomials in different numbers of variables")
    F = f._common_field(g)
    if F is not None:
        f = f.to_field(F)
        g = g.to_field(F)
    return f._terms == g._terms


def eval_batch(f: MPoly, coords, F: FieldDescriptor) -> np.ndarray:
    """Evaluate f on arrays of element indices, one int64 array per variable.

    Integer coefficients reduce into F; field coefficients must be of F.
    Returns a new array of value indices in the broadcast shape of coords.
    """
    if len(coords) != f.nvars:
        raise DimensionMismatch(
            f"{len(coords)} coordinate arrays for {f.nvars} variables"
        )
    if f.field is not None and f.field != F:
        raise FieldMismatch("polynomial and evaluation field differ")
    shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
    values = f([FieldArray(np.asarray(c, dtype=np.int64), F) for c in coords])
    return np.array(np.broadcast_to(values.a, shape), dtype=np.int64)


class PolySystem:
    """A list of polynomials sharing one variable count and coefficient domain."""

    __slots__ = ("nvars", "polys", "homogeneous")

    def __init__(self, polys: list[MPoly], homogeneous: bool = False):
        if not polys:
            raise ValueError("empty polynomial system")
        nvars = polys[0].nvars
        field = polys[0].field
        for p in polys:
            if p.nvars != nvars:
                raise DimensionMismatch("system members disagree on variable count")
            if (p.field is None) != (field is None) or (
                field is not None and p.field != field
            ):
                raise FieldMismatch("system members over different domains")
            if homogeneous and not p.is_homogeneous():
                raise ValueError("system flagged homogeneous contains a mixed poly")
        self.nvars = nvars
        self.polys = list(polys)
        self.homogeneous = homogeneous

    @property
    def field(self):
        return self.polys[0].field

    def __call__(self, x) -> list:
        """The values of the polynomials at x (see MPoly.__call__), so a
        system is itself an equation builder."""
        return [p(x) for p in self.polys]

    def eval(self, point):
        return [p.eval(point) for p in self.polys]

    def vanishes_at(self, point) -> bool:
        return all(not v for v in self.eval(point))

    def substitute(self, change) -> "PolySystem":
        return PolySystem([p.substitute(change) for p in self.polys])

    def to_field(self, F) -> "PolySystem":
        return PolySystem([p.to_field(F) for p in self.polys], self.homogeneous)
