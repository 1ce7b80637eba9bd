"""Sparse multivariate polynomials over one finite field.

A polynomial is a map from exponent tuples to nonzero FieldElements of its
field.  Everything is canonicalized on construction (no duplicate
monomials, no zero coefficients), so equality is a dictionary comparison
and the term list in graded-lexicographic order is reproducible.  Int
coefficients and scalars reduce into the field; polynomials over different
fields do not combine.

A polynomial has one evaluator, MPoly.__call__: it takes one value per
variable, of any type with +, -, *, ** and scale (FieldElement, FieldArray,
ffield.Jet or MPoly), and computes each (variable, exponent) power once.
MPoly.eval (a point of FieldElements), eval_batch (index arrays, through
FieldArray) and substitute (one polynomial per variable, fully expanded;
at degree <= 5 in at most 6 variables this stays tiny) check their
arguments and call it.

MPoly is the symbolic reference (derivatives, substitution, identities).
The scans over whole charts do not evaluate expanded term lists: they
call FamilyInstance.evaluate, which runs the family's own equation builder
on index arrays in its compact form (power sums, products, linear forms),
and the singular scans get their derivatives from the same builder run on
jets.  eval_batch is the reference the compact evaluation is tested
against.
"""

from __future__ import annotations

from ._lazy import lazy_numpy
from .errors import DimensionMismatch, FieldMismatch
from .ffield import FieldArray, FieldDescriptor, FieldElement

np = lazy_numpy()


def _add_term(terms: dict, exps: tuple, c: FieldElement) -> None:
    # add c to the coefficient of exps in place; a term that cancels goes
    prev = terms.get(exps)
    c = c if prev is None else prev + c
    if c:
        terms[exps] = c
    else:
        terms.pop(exps, None)


class MPoly:
    """Sparse polynomial in a fixed number of variables over the field
    ``field``.  Values are immutable once constructed."""

    __slots__ = ("nvars", "field", "_terms")

    def __init__(self, nvars: int, terms, field: FieldDescriptor):
        self.nvars = nvars
        self.field = field
        clean: dict[tuple, FieldElement] = {}
        for exps, coeff in terms.items() if isinstance(terms, dict) else terms:
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise DimensionMismatch(
                    f"monomial {exps} has {len(exps)} exponents, expected {nvars}"
                )
            _add_term(clean, exps, field.element(coeff))
        self._terms = clean

    def _new(self, terms: dict) -> "MPoly":
        # a polynomial in the same variables and field from canonical terms
        out = MPoly.__new__(MPoly)
        out.nvars, out.field, out._terms = self.nvars, self.field, terms
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, field: FieldDescriptor) -> "MPoly":
        return cls(nvars, {}, field)

    @classmethod
    def constant(cls, nvars: int, c, field: FieldDescriptor) -> "MPoly":
        return cls(nvars, {(0,) * nvars: c}, field)

    @classmethod
    def variable(cls, nvars: int, i: int, field: FieldDescriptor) -> "MPoly":
        if not 0 <= i < nvars:
            raise DimensionMismatch(f"variable index {i} out of range")
        return cls(nvars, {tuple(int(j == i) for j in range(nvars)): 1}, field)

    # -- views ---------------------------------------------------------------

    def terms(self) -> list[tuple[tuple, FieldElement]]:
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
            bits.append(f"{c!r}*{mono}" if mono else repr(c))
        return " + ".join(bits)

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other: "MPoly"):
        if self.nvars != other.nvars:
            raise DimensionMismatch(
                f"{self.nvars} and {other.nvars} variables cannot be combined"
            )
        if other.field is not self.field:
            raise FieldMismatch(
                f"polynomials over {self.field!r} and {other.field!r} cannot be combined"
            )

    def __add__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        terms = dict(self._terms)
        for exps, c in other._terms.items():
            _add_term(terms, exps, c)
        return self._new(terms)

    def __neg__(self):
        return self._new({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "MPoly":
        """Multiply by a scalar (int or FieldElement of the field)."""
        c = self.field.element(c)
        if not c:
            return self._new({})
        return self._new({e: v * c for e, v in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.scale(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        acc: dict[tuple, FieldElement] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                _add_term(acc, tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
        return self._new(acc)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = MPoly.constant(self.nvars, 1, self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
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
        acc: dict[tuple, FieldElement] = {}
        for exps, c in self._terms.items():
            # lowering the exponent of var is one-to-one on the terms it keeps
            e = exps[var]
            c = c * e
            if c:
                acc[exps[:var] + (e - 1,) + exps[var + 1 :]] = c
        return self._new(acc)

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
        """Exact value at a point of FieldElements of the polynomial's field."""
        point = tuple(point)
        if len(point) != self.nvars:
            raise DimensionMismatch(
                f"point has {len(point)} coordinates, expected {self.nvars}"
            )
        for x in point:
            if not isinstance(x, FieldElement):
                raise TypeError("evaluation points must consist of FieldElements")
            if x.field != self.field:
                raise FieldMismatch(
                    f"polynomial over {self.field!r} evaluated at a point of {x.field!r}"
                )
        return self(point)

    def substitute(self, polys) -> "MPoly":
        """Fully expanded composite with variable i replaced by polys[i],
        one MPoly over the same field per variable."""
        polys = list(polys)
        if len(polys) != self.nvars:
            raise DimensionMismatch(
                f"substitution provides {len(polys)} polynomials for "
                f"{self.nvars} variables"
            )
        for g in polys:
            if g.nvars != polys[0].nvars:
                raise DimensionMismatch("substitution polynomials disagree on arity")
            if g.field != self.field:
                raise FieldMismatch("substitution over a different field")
        return self(polys)


def eval_batch(f: MPoly, coords, F: FieldDescriptor) -> np.ndarray:
    """Evaluate f on arrays of element indices, one int64 array per variable.

    F must be the field of f.  Returns a new array of value indices in the
    broadcast shape of coords.
    """
    if len(coords) != f.nvars:
        raise DimensionMismatch(
            f"{len(coords)} coordinate arrays for {f.nvars} variables"
        )
    if f.field != F:
        raise FieldMismatch("polynomial and evaluation field differ")
    shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
    values = f([FieldArray(np.asarray(c, dtype=np.int64), F) for c in coords])
    return np.array(np.broadcast_to(values.a, shape), dtype=np.int64)
