"""Exact arithmetic in prime fields F_p and small extensions F_{p^k}, k <= 4.

An element of F_{p^k} is its canonical integer index in [0, q), q = p^k:
the element with coefficient vector (c_0, ..., c_{k-1}) over F_p has index
sum(c_i * p^i).  Index 0 is zero and index 1 is one in every supported
field.  The arithmetic is defined once, by the index operations of
FieldDescriptor (vadd, vsub, vneg, vmul, vpow), each of which takes Python
ints as well as numpy int64 arrays of indices.  A prime field's index is
its residue, so its scalars need no tables at any p; an extension field
adds digit by digit in base p and multiplies, powers and inverts through
its exp/log tables.  The log table (log_table) gives 0 the code 2 (q - 1),
so a sum of two logs is below 2 (q - 1) exactly when both factors are
units: vmul and counting's table count read products off such sums.
FieldElement gives one index the operators, for exact scalar work;
FieldArray gives an index array the same operators, so that
polynomial expressions written for MPoly also evaluate on arrays.  Over a
prime field a FieldArray defers the reduction mod p: it applies the raw
integer operation, carries the exact interval of the unreduced values,
and reduces once, with the descriptor's _mod_p, when its indices are read
or before they could overflow int64.  Jet carries the first partial
derivatives along with the values (forward mode), and a Jet of Jets the
second ones.  matrix_ranks row-reduces a whole stack of matrices of
indices in one elimination.  power_table(e) maps every element to its
e-th power, so the solutions of u^e = v are the indices where it reads v.
Products of residues that cannot fit in int64, p > 2^31.5, are refused on
arrays with InstanceTooLarge.

A field is one object: make_field returns one FieldDescriptor per (p, k)
and nothing else builds one, so fields compare by identity, and values of
different fields do not combine.

Extension moduli are chosen deterministically: the first monic irreducible
polynomial of degree k in lexicographic order of the coefficient tuple
(constant term first).  Irreducibility is certified by exhaustive root and
quadratic-divisor search, which is complete for k <= 4.  Two runs on any
machine therefore agree on element indexing, which keeps persisted counts
comparable.  Products of coefficient vectors modulo the modulus serve only
to build the tables: to find the generator and to fill the exp table.
"""

from __future__ import annotations

import functools
import itertools
import operator

from ._lazy import lazy_numpy
from .errors import (
    CompositeCharacteristic,
    FieldMismatch,
    InstanceTooLarge,
    InvariantViolated,
    RootOfUnityUnavailable,
    TableTooLarge,
    UnsupportedDegree,
)

np = lazy_numpy()

POWER_TABLE_CAP = 1 << 20

# a prime-field array is reduced before its values could reach _LAZY_LIMIT
# in absolute value; beyond _INT64_MAX they would wrap
_LAZY_LIMIT = 1 << 62
_INT64_MAX = (1 << 63) - 1

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _poly_mul_mod(a, b, modulus, p) -> list[int]:
    # Product of coefficient vectors (ascending degree) modulo the monic
    # modulus and p, padded to the modulus degree.
    k = len(modulus) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    for i in range(len(out) - 1, k - 1, -1):
        lead = out[i]
        if lead:
            for j in range(k):
                out[i - k + j] = (out[i - k + j] - lead * modulus[j]) % p
    return (out + [0] * k)[:k]


def _has_root(coeffs: tuple[int, ...], p: int) -> bool:
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            return True
    return False


def _divisible_by_quadratic(coeffs: tuple[int, ...], p: int) -> bool:
    # Trial division by every monic quadratic; only needed for degree 4.
    for c0 in range(p):
        for c1 in range(p):
            rem = list(coeffs)
            for i in range(len(rem) - 1, 1, -1):
                lead = rem[i]
                if lead:
                    rem[i] = 0
                    rem[i - 1] = (rem[i - 1] - lead * c1) % p
                    rem[i - 2] = (rem[i - 2] - lead * c0) % p
            if rem[0] == 0 and rem[1] == 0:
                return True
    return False


def _is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    k = len(coeffs) - 1
    if _has_root(coeffs, p):
        return False
    if k == 4 and _divisible_by_quadratic(coeffs, p):
        return False
    return True


class FieldElement:
    """An element of F_{p^k}, stored as its index (a Python int).

    Its operators run the FieldDescriptor's index operations, the ones
    FieldArray runs on arrays, so scalars and arrays share one arithmetic.
    Equality and hashing are by field and index; an int is not an element.
    """

    __slots__ = ("field", "index")

    def __init__(self, field: "FieldDescriptor", index: int):
        self.field = field
        self.index = index

    def _other(self, other):
        # the index of the other operand, None when it is not one
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise FieldMismatch(
                    f"elements of {self.field} and {other.field} cannot be combined"
                )
            return other.index
        if hasattr(other, "__index__"):  # read by _integer, so a bool is refused
            return _integer(other, FieldMismatch) % self.field.p
        return None

    def _new(self, index) -> "FieldElement":
        # table lookups give numpy integers; the index stays a Python int
        return FieldElement(self.field, int(index))

    def __add__(self, other):
        o = self._other(other)
        return NotImplemented if o is None else self._new(self.field.vadd(self.index, o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._other(other)
        return NotImplemented if o is None else self._new(self.field.vsub(self.index, o))

    def __rsub__(self, other):
        o = self._other(other)
        return NotImplemented if o is None else self._new(self.field.vsub(o, self.index))

    def __mul__(self, other):
        o = self._other(other)
        return NotImplemented if o is None else self._new(self.field.vmul(self.index, o))

    __rmul__ = __mul__

    def __neg__(self):
        return self._new(self.field.vneg(self.index))

    def __pow__(self, e: int):
        e = _integer(e, FieldMismatch)  # a numpy integer exponent too
        if e < 0 and not self.index:
            raise ZeroDivisionError("inverse of zero")
        return self._new(self.field.vpow(self.index, e))

    def scale(self, c) -> "FieldElement":
        """Multiply by a scalar (int or FieldElement), as MPoly.scale does."""
        return self * c

    def inverse(self) -> "FieldElement":
        return self**-1

    def __truediv__(self, other):
        o = self._other(other)
        return NotImplemented if o is None else self * self._new(o).inverse()

    def __rtruediv__(self, other):
        o = self._other(other)
        return NotImplemented if o is None else self._new(o) * self.inverse()

    def __eq__(self, other):
        # an int is not an element: F7(3) != 3, so equal values hash equally
        if isinstance(other, FieldElement):
            return self.index == other.index and self.field is other.field
        return NotImplemented

    def __hash__(self):
        return hash((self.field.q, self.index))

    def __bool__(self):
        return self.index != 0

    def __repr__(self):
        F = self.field
        if F.k == 1:
            return f"F{F.p}({self.index})"
        return f"F{F.q}({F._digits(self.index)})"

    def canonical_str(self) -> str:
        """Decimal integer for prime fields, comma-separated digits otherwise."""
        if self.field.k == 1:
            return str(self.index)
        return ",".join(map(str, self.field._digits(self.index)))


class FieldDescriptor:
    """Immutable description of F_{p^k} plus lazily built arithmetic tables.

    Built only by make_field, once per field, so the descriptor is the
    field's identity: it has no equality of its own, and elements compare
    their fields with ``is``.  All tables are built once and then only
    read, so a descriptor is safe to share across threads.  The log table
    inverts the generator's powers and gives 0 the code 2 (q - 1).
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus  # ascending coefficients, monic, () when k == 1
        self._generator: FieldElement | None = None
        self._exp: np.ndarray | None = None
        self._log: np.ndarray | None = None
        self._pow_tables: dict[int, np.ndarray] = {}
        self.zero = FieldElement(self, 0)
        self.one = FieldElement(self, 1)

    def __repr__(self):
        return f"GF({self.q})" if self.k > 1 else f"GF({self.p})"

    # -- scalar interface ------------------------------------------------

    def _digits(self, idx: int) -> list[int]:
        # the coefficient vector (c_0, ..., c_{k-1}) of an index
        out = []
        for _ in range(self.k):
            idx, c = divmod(idx, self.p)
            out.append(c)
        return out

    def _index(self, coeffs) -> int:
        idx = 0
        for c in reversed(coeffs):
            idx = idx * self.p + c
        return idx

    def element(self, value) -> FieldElement:
        """Coerce an integer (reduced mod p), integer coefficients or an
        element; FieldMismatch for anything else, a bool or float too."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatch(f"{value!r} is not in {self!r}")
            return value
        try:
            coeffs = [_integer(c, FieldMismatch) % self.p for c in value]
        except TypeError:  # not iterable: a scalar, a 0-d numpy array too
            return FieldElement(self, _integer(value, FieldMismatch) % self.p)
        if len(coeffs) > self.k:
            raise ValueError("coefficient vector longer than extension degree")
        return FieldElement(self, self._index(coeffs))

    def from_index(self, idx: int) -> FieldElement:
        idx = _integer(idx, FieldMismatch)
        if not 0 <= idx < self.q:
            raise ValueError(f"index {idx} out of range for {self!r}")
        return FieldElement(self, idx)

    def elements(self):
        """All field elements in canonical index order."""
        return (FieldElement(self, i) for i in range(self.q))

    def generator(self) -> FieldElement:
        """The smallest-index generator of the multiplicative group.

        The tables are built from it, so the search multiplies residues, or
        coefficient vectors modulo the modulus, instead of using them.
        """
        if self._generator is None:
            p, n = self.p, self.q - 1

            def power(idx: int, e: int) -> int:
                if self.k == 1:
                    return pow(idx, e, p)
                result, base = [1], self._digits(idx)
                while e:
                    if e & 1:
                        result = _poly_mul_mod(result, base, self.modulus, p)
                    base = _poly_mul_mod(base, base, self.modulus, p)
                    e >>= 1
                return self._index(result)

            factors = _prime_factors(n)
            gen = next(
                (g for g in range(2, self.q) if all(power(g, n // f) != 1 for f in factors)),
                1,  # q == 2: one generates the trivial group
            )
            self._generator = FieldElement(self, gen)
        return self._generator

    # -- flat tables ------------------------------------------------------

    def _ensure_tables(self):
        if self._exp is not None:
            return
        if self.q > POWER_TABLE_CAP:
            raise TableTooLarge(
                f"q = {self.q} exceeds the flat-table cap {POWER_TABLE_CAP}"
            )
        n = self.q - 1
        g = self.generator().index
        exp = np.zeros(n, dtype=np.int64)
        if self.k == 1:
            v = 1
            for t in range(n):
                exp[t] = v
                v = v * g % self.p
        else:
            gc, v = self._digits(g), self._digits(1)
            for t in range(n):
                exp[t] = self._index(v)
                v = _poly_mul_mod(v, gc, self.modulus, self.p)
        log = np.full(self.q, 2 * n, dtype=np.int64)
        log[exp] = np.arange(n)
        log.flags.writeable = False
        self._log = log
        self._exp = exp  # last: a set _exp means both tables are ready

    @property
    def log_table(self) -> np.ndarray:
        """The read-only discrete logarithm: log_table[g^t] = t < q - 1 for
        the generator g, and log_table[0] = 2 (q - 1)."""
        self._ensure_tables()
        return self._log

    def power_table(self, e: int) -> np.ndarray:
        """Flat table idx -> index of (element idx) ** e, with 0 ** 0 = 1 and
        0 ** e = 0 otherwise (so power_table(-1) inverts every unit);
        TableTooLarge when q exceeds POWER_TABLE_CAP."""
        tab = self._pow_tables.get(e)
        if tab is None:
            self._ensure_tables()
            tab = self._exp[self._log * e % (self.q - 1)]
            tab[0] = e == 0
            self._pow_tables[e] = tab
        return tab

    # -- index operations ---------------------------------------------------
    # The one definition of the field arithmetic.  Each takes Python ints or
    # numpy int64 arrays (any broadcastable mix); on prime-field arrays each
    # allocates one result and reduces it in place.

    def _mod_p(self, x):
        """x mod p; an array is reduced in place, as x - p * floor(x / p).

        numpy divides int64 by a scalar with a precomputed multiplier, which
        is several times faster than np.remainder.  The product p * floor(x
        / p) lies in [x - (p - 1), x], so it stays in int64 for every array
        this method is given: a FieldArray reduces before its interval
        reaches 2^62 in absolute value, and vadd, vsub and vmul (as well as
        a FieldArray's forced reduction) pass in operations on residues,
        which lie in [-(p - 1), (p - 1)^2] with (p - 1)^2 <= 2^63 - 1.  So
        every x lies in [-2^62, max(2^62, (p - 1)^2)].
        """
        if isinstance(x, np.ndarray):
            floor = np.floor_divide(x, self.p)
            floor *= self.p
            x -= floor
            return x
        return x % self.p

    def _digitwise(self, op, a, b):
        # op (+ or -) applied to each base-p digit, mod p; a prime field has
        # one digit.  Over an extension field op acts on the whole indices,
        # and each digit j that op took out of [0, p) (a carry of + or a
        # borrow of -) gives p^(j + 1) back in place, under a boolean mask:
        # on arrays the result and one mask of its shape are alive.
        if self.k == 1:
            return self._mod_p(op(a, b))
        p, out, scale = self.p, op(a, b), 1
        for _ in range(self.k):
            da, db = a // scale % p, b // scale % p
            if op is operator.add:
                wrapped, step = da >= p - db, -p * scale
            else:
                wrapped, step = da < db, p * scale
            if isinstance(out, np.ndarray):
                np.add(out, step, out=out, where=wrapped)
            else:
                out += step * wrapped
            scale *= p
        return out

    def vadd(self, a, b):
        return self._digitwise(operator.add, a, b)

    def vsub(self, a, b):
        return self._digitwise(operator.sub, a, b)

    def vneg(self, a):
        return self._digitwise(operator.sub, 0, a)

    def vmul(self, a, b):
        if self.k == 1:
            if (self.p - 1) ** 2 > _INT64_MAX and not (
                isinstance(a, int) and isinstance(b, int)
            ):
                raise _products_overflow(self)
            return self._mod_p(a * b)
        self._ensure_tables()
        s = self._log[a] + self._log[b]
        return self._exp[s % (self.q - 1)] * (s < 2 * (self.q - 1))

    def vpow(self, a, e: int):
        """a ** e, with 0 ** 0 = 1; e < 0 inverts and sends 0 to 0.  A prime
        field's ints use the builtin pow, an extension field's ints the
        exp/log tables, arrays the cached power_table(e)."""
        if not isinstance(a, int):
            return self.power_table(e)[a]
        if a == 0:
            return int(e == 0)
        if self.k == 1:
            return pow(a, e, self.p)
        self._ensure_tables()
        return self._exp[int(self._log[a]) * e % (self.q - 1)]


def _products_overflow(F: FieldDescriptor) -> InstanceTooLarge:
    return InstanceTooLarge(
        f"products of residues mod p = {F.p} overflow int64: (p - 1)^2 > 2^63 - 1"
    )


def _mul_bounds(a, b, c, d):
    products = (a * c, a * d, b * c, b * d)
    return min(products), max(products)


# the exact interval of op(x, y) from the intervals [a, b] of x and [c, d] of y
_BOUNDS = {
    operator.add: lambda a, b, c, d: (a + c, b + d),
    operator.sub: lambda a, b, c, d: (a - d, b - c),
    operator.mul: _mul_bounds,
}


class FieldArray:
    """An int64 array of element indices of one field, with the operators
    the equation builders use on MPoly variables (+, -, *, ** and scale).

    A builder written once over MPoly variables therefore also evaluates its
    equations on index arrays, in the compact form it is written in (power
    sums, products, linear forms) rather than as an expanded term list.
    Every operation returns a new array.  Over an extension field it runs
    the FieldDescriptor's vectorized operations.  Over a prime field it runs
    the raw integer operation and carries the exact interval [lo, hi] of the
    unreduced values (negative ones too), so that a chain of operations
    reduces mod p once: when ``a`` is read, or before an interval could
    reach 2^62.  ** reads the field's power table, so above
    POWER_TABLE_CAP it raises TableTooLarge, as vpow does.  Arrays passed
    in are taken as reduced and never written; only arrays a FieldArray
    allocated are reduced in place.
    """

    __slots__ = ("_a", "field", "lo", "hi")

    def __init__(self, a, field: FieldDescriptor, lo: int = 0, hi: int | None = None):
        self._a = a
        self.field = field
        self.lo = lo
        self.hi = field.q - 1 if hi is None else hi

    @property
    def a(self):
        """The index array, reduced into [0, q) on this read if it had left it."""
        self._reduce()
        return self._a

    def _reduce(self):
        # an extension-field array never leaves [0, q - 1]
        F = self.field
        if self.lo < 0 or self.hi >= F.q:
            self._a = F._mod_p(self._a)
            self.lo, self.hi = 0, F.p - 1

    def _lazy(self, op, other: "FieldArray") -> "FieldArray":
        # op on the unreduced values of a prime field, with its exact interval
        bounds = _BOUNDS[op]
        lo, hi = bounds(self.lo, self.hi, other.lo, other.hi)
        if -lo >= _LAZY_LIMIT or hi >= _LAZY_LIMIT:
            self._reduce()
            other._reduce()
            lo, hi = bounds(self.lo, self.hi, other.lo, other.hi)
            if -lo > _INT64_MAX or hi > _INT64_MAX:
                raise _products_overflow(self.field)
        return FieldArray(op(self._a, other._a), self.field, lo, hi)

    def __add__(self, other: "FieldArray") -> "FieldArray":
        F = self.field
        if F.k == 1:
            return self._lazy(operator.add, other)
        return FieldArray(F.vadd(self._a, other._a), F)

    def __sub__(self, other: "FieldArray") -> "FieldArray":
        F = self.field
        if F.k == 1:
            return self._lazy(operator.sub, other)
        return FieldArray(F.vsub(self._a, other._a), F)

    def __mul__(self, other: "FieldArray") -> "FieldArray":
        F = self.field
        if F.k == 1:
            return self._lazy(operator.mul, other)
        return FieldArray(F.vmul(self._a, other._a), F)

    def __pow__(self, e: int) -> "FieldArray":
        return FieldArray(self.field.vpow(self.a, e), self.field)

    def scale(self, c) -> "FieldArray":
        """Multiply by a scalar (int or FieldElement)."""
        F = self.field
        ci = F.element(c).index
        if ci == 1:
            return self
        if F.k == 1:  # ci as a constant operand with its exact interval
            return self._lazy(operator.mul, FieldArray(ci, F, ci, ci))
        return FieldArray(F.vmul(ci, self._a), F)


class Jet:
    """A FieldArray value with its first partial derivatives: forward-mode
    differentiation through the same +, -, *, ** and scale.

    Run through an equation builder, Jet.variables gives each equation's
    value and gradient on index arrays, in the compact form the builder
    writes, without expanding a term list.  A partial known to vanish is
    None.  The value and the partials may themselves be Jets (order 2 in
    Jet.variables), since the operations only use +, -, *, ** and scale.
    The partials leave a Jet only as one index array, by partials().
    """

    __slots__ = ("val", "d")

    def __init__(self, val: FieldArray, d: tuple):
        self.val = val
        self.d = d

    @classmethod
    def variables(cls, coords, field: FieldDescriptor, order: int = 1) -> list["Jet"]:
        """The coordinate functions x_i on index arrays, with dx_i/dx_j = [i == j].

        With order 2 each value and each partial is itself a Jet (forward
        over forward mode): a builder run on these gives every equation as
        a Jet e with value e.val.val, gradient e.val.d and second partials
        e.d[j].d[k].
        """
        n = len(coords)
        one = FieldArray(np.ones(np.shape(coords[0]), dtype=np.int64), field)
        xs = [FieldArray(np.asarray(c, dtype=np.int64), field) for c in coords]
        for _ in range(order):
            xs = [
                cls(x, tuple(one if j == i else None for j in range(n)))
                for i, x in enumerate(xs)
            ]
            one = cls(one, (None,) * n)
        return xs

    def partials(self) -> np.ndarray:
        """The partials as one int64 index array, the variable axis last:
        (..., nvars) for a first-order jet and (..., nvars, nvars) for a
        jet of jets, whose row j holds the partials of df/dx_j.  A partial
        known to vanish (None) reads as zeros."""
        value, level, axes = self.val, [((), self)], 1
        while isinstance(value, Jet):
            value, axes = value.val, axes + 1
        for _ in range(axes):
            level = [(at + (j,), d) for at, e in level for j, d in enumerate(e.d) if d is not None]
        shape = np.broadcast_shapes(np.shape(value._a), *(np.shape(d._a) for _, d in level))
        out = np.zeros(shape + (len(self.d),) * axes, dtype=np.int64)
        for at, d in level:
            out[(..., *at)] = d.a
        return out

    def __add__(self, other: "Jet") -> "Jet":
        d = tuple(
            b if a is None else a if b is None else a + b
            for a, b in zip(self.d, other.d)
        )
        return Jet(self.val + other.val, d)

    def __sub__(self, other: "Jet") -> "Jet":
        d = tuple(
            a if b is None else b.scale(-1) if a is None else a - b
            for a, b in zip(self.d, other.d)
        )
        return Jet(self.val - other.val, d)

    def __mul__(self, other: "Jet") -> "Jet":
        # d(uv) = v du + u dv
        d = []
        for a, b in zip(self.d, other.d):
            left = None if a is None else a * other.val
            right = None if b is None else self.val * b
            d.append(right if left is None else left if right is None else left + right)
        return Jet(self.val * other.val, tuple(d))

    def __pow__(self, e: int) -> "Jet":
        # d(u^e) = e u^(e-1) du
        if e == 0:
            return Jet(self.val**0, (None,) * len(self.d))
        factor = (self.val ** (e - 1)).scale(e)
        d = tuple(None if a is None else factor * a for a in self.d)
        return Jet(self.val**e, d)

    def scale(self, c) -> "Jet":
        """Multiply by a scalar (int or FieldElement)."""
        d = tuple(None if a is None else a.scale(c) for a in self.d)
        return Jet(self.val.scale(c), d)


def matrix_ranks(F: FieldDescriptor, m) -> np.ndarray:
    """Ranks of a stack of matrices over F, given as an index array of shape
    (count, rows, cols), by one Gauss-Jordan elimination run on every
    matrix at once.  The pivots are inverted through power_table(-1), so q
    is bounded by POWER_TABLE_CAP.

    A column that has a pivot in every matrix, the common case, updates
    the whole stack without gathering it; only the matrices whose pivot
    row is not already in place swap rows.  A stack of one-row matrices
    (a hypersurface's Jacobians) needs no elimination: a row has rank 1
    exactly when it has a nonzero entry."""
    m = np.array(m, dtype=np.int64)
    count, nrows, ncols = m.shape
    if nrows == 1:
        return m[:, 0].any(axis=1).astype(np.int64)
    rank = np.zeros(count, dtype=np.int64)
    rows = np.arange(nrows)
    for col in range(ncols):
        # the first nonzero entry of the column at or below row ``rank``
        cand = (m[:, :, col] != 0) & (rows >= rank[:, None])
        has = cand.any(axis=1)
        sel = slice(None) if has.all() else np.flatnonzero(has)
        sub = m[sel]  # a view when every matrix has a pivot
        if len(sub) == 0:
            continue
        top = rank[sel]
        piv = cand[sel].argmax(axis=1)
        at = np.arange(len(sub))
        swap = np.flatnonzero(piv != top)
        if swap.size:
            a, b = top[swap], piv[swap]
            sub[swap, a], sub[swap, b] = sub[swap, b], sub[swap, a]
        row = F.vmul(sub[at, top], F.vpow(sub[at, top, col], -1)[:, None])
        sub[at, top] = row
        f = sub[:, :, col].copy()
        f[at, top] = 0
        m[sel] = F.vsub(sub, F.vmul(f[:, :, None], row[:, None, :]))
        rank[sel] += 1
    return rank


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _integer(value, error) -> int:
    # an integer is what operator.index reads (numpy's, 0-d arrays too) but
    # a bool; any other value is refused with the error class given
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise error(f"{value!r} is not an integer")


def make_field(p: int, k: int = 1) -> FieldDescriptor:
    """F_{p^k} with the deterministic smallest-lexicographic modulus.

    p and k are read as ints (_integer) before the cache, so every spelling
    of the same (p, k), numpy integers too, returns the field's one cached
    descriptor, which is its identity.  Raises CompositeCharacteristic when
    p is not a prime integer, UnsupportedDegree when k is not one in [1, 4].
    """
    return _field(_integer(p, CompositeCharacteristic), _integer(k, UnsupportedDegree))


@functools.lru_cache(maxsize=None)
def _field(p: int, k: int) -> FieldDescriptor:
    # the only constructor of descriptors: each field is validated and
    # built once, keyed on the ints make_field read
    if not is_prime(p):
        raise CompositeCharacteristic(f"{p} is not prime")
    if not 1 <= k <= 4:
        raise UnsupportedDegree(f"extension degree {k} outside [1, 4]")
    if k == 1:
        return FieldDescriptor(p, 1, ())
    for tail in itertools.product(range(p), repeat=k):
        coeffs = tail + (1,)
        if _is_irreducible(coeffs, p):
            return FieldDescriptor(p, k, coeffs)
    raise InvariantViolated(f"no irreducible polynomial of degree {k} over F_{p}")


def primitive_nth_root(F: FieldDescriptor, n: int) -> FieldElement:
    """The distinguished element of exact order n: generator ** ((q-1)/n).

    Deterministic because the generator is.  n is read as an int
    (_integer); raises RootOfUnityUnavailable when it is not one, when it
    is below 1, or when it does not divide q - 1.
    """
    n = _integer(n, RootOfUnityUnavailable)
    if n < 1 or (F.q - 1) % n != 0:
        raise RootOfUnityUnavailable(
            f"{F!r} has no element of exact order {n} (q - 1 = {F.q - 1})"
        )
    return F.generator() ** ((F.q - 1) // n)

