"""Exact arithmetic in prime fields F_p and small extensions F_{p^k}, k <= 4.

Every element of F_{p^k} carries a canonical integer index in [0, q),
q = p^k: the element with coefficient vector (c_0, ..., c_{k-1}) over F_p
has index sum(c_i * p^i).  Index 0 is zero and index 1 is one in every
supported field.  FieldElement gives exact scalar arithmetic with operator
overloads; bulk work goes through the vectorized index operations on
FieldDescriptor (numpy int64 arrays of indices), so hot loops run on flat
tables instead of per-element objects or hash lookups.  FieldArray gives
such an index array the arithmetic operators, so that polynomial
expressions written for MPoly also evaluate on arrays; Jet carries the
first partial derivatives along with the values (forward mode), and a Jet
of Jets the second ones.  matrix_ranks row-reduces a whole stack of
matrices of indices in one elimination.

Extension moduli are chosen deterministically: the first monic irreducible
polynomial of degree k in lexicographic order of the coefficient tuple
(constant term first).  Irreducibility is certified by exhaustive root and
quadratic-divisor search, which is complete for k <= 4.  Two runs on any
machine therefore agree on element indexing, which keeps persisted counts
comparable.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import (
    CompositeCharacteristic,
    FieldMismatch,
    InvariantViolated,
    RootOfUnityUnavailable,
    TableTooLarge,
    UnsupportedDegree,
)

POWER_TABLE_CAP = 1 << 20

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


def _poly_rem(coeffs: list[int], modulus: tuple[int, ...], p: int) -> list[int]:
    # Remainder of coeffs (ascending degree) modulo the monic modulus, mod p.
    k = len(modulus) - 1
    out = [c % p for c in coeffs]
    for i in range(len(out) - 1, k - 1, -1):
        lead = out[i]
        if lead:
            out[i] = 0
            for j in range(k):
                out[i - k + j] = (out[i - k + j] - lead * modulus[j]) % p
    del out[k:]
    while len(out) < k:
        out.append(0)
    return out


def _poly_mul_mod(a, b, modulus, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_rem(prod, modulus, p)


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
    """An element of F_{p^k}, stored as a reduced coefficient tuple."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "FieldDescriptor", coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    @property
    def index(self) -> int:
        p = self.field.p
        idx = 0
        for c in reversed(self.coeffs):
            idx = idx * p + c
        return idx

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch(
                    f"elements of {self.field} and {other.field} cannot be combined"
                )
            return other
        if isinstance(other, int):
            return self.field.element(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return FieldElement(
            self.field, tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return FieldElement(
            self.field, tuple((a - b) % p for a, b in zip(self.coeffs, o.coeffs))
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        F = self.field
        if F.k == 1:
            return FieldElement(F, ((self.coeffs[0] * o.coeffs[0]) % F.p,))
        prod = _poly_mul_mod(list(self.coeffs), list(o.coeffs), F.modulus, F.p)
        return FieldElement(F, tuple(prod))

    __rmul__ = __mul__

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __pow__(self, e: int):
        F = self.field
        if e < 0:
            return self.inverse() ** (-e)
        result = F.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def scale(self, c) -> "FieldElement":
        """Multiply by a scalar (int or FieldElement), as MPoly.scale does."""
        return self * c

    def inverse(self) -> "FieldElement":
        # Exponentiation by q - 2; branch-free and off the hot path.
        if not self:
            raise ZeroDivisionError("inverse of zero")
        return self ** (self.field.q - 2)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other):
        # an int is not an element: F7(3) != 3, so equal values hash equally
        if isinstance(other, FieldElement):
            return self.field == other.field and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        if self.field.k == 1:
            return f"F{self.field.p}({self.coeffs[0]})"
        return f"F{self.field.q}({list(self.coeffs)})"

    def canonical_str(self) -> str:
        """Decimal integer for prime fields, comma-separated digits otherwise."""
        if self.field.k == 1:
            return str(self.coeffs[0])
        return ",".join(str(c) for c in self.coeffs)


class FieldDescriptor:
    """Immutable description of F_{p^k} plus lazily built arithmetic tables.

    All tables are built once and then only read, so a descriptor is safe
    to share across threads.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus  # ascending coefficients, monic, () when k == 1
        self._generator: FieldElement | None = None
        self._exp: np.ndarray | None = None
        self._log: np.ndarray | None = None
        self._inv: np.ndarray | None = None
        self._pow_tables: dict[int, np.ndarray] = {}
        self.zero = FieldElement(self, (0,) * k)
        self.one = FieldElement(self, (1,) + (0,) * (k - 1))

    def __repr__(self):
        return f"GF({self.q})" if self.k > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return (
            isinstance(other, FieldDescriptor)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    # -- scalar interface ------------------------------------------------

    def element(self, value) -> FieldElement:
        """Coerce an int (reduced mod p), coefficient sequence, or element."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatch(f"{value!r} is not in {self!r}")
            return value
        if isinstance(value, int):
            return FieldElement(self, (value % self.p,) + (0,) * (self.k - 1))
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) > self.k:
            raise ValueError("coefficient vector longer than extension degree")
        coeffs = coeffs + (0,) * (self.k - len(coeffs))
        return FieldElement(self, coeffs)

    def from_index(self, idx: int) -> FieldElement:
        if not 0 <= idx < self.q:
            raise ValueError(f"index {idx} out of range for {self!r}")
        coeffs = []
        for _ in range(self.k):
            coeffs.append(idx % self.p)
            idx //= self.p
        return FieldElement(self, tuple(coeffs))

    def elements(self):
        """All field elements in canonical index order."""
        return (self.from_index(i) for i in range(self.q))

    def generator(self) -> FieldElement:
        """The smallest-index generator of the multiplicative group."""
        if self._generator is None:
            n = self.q - 1
            factors = _prime_factors(n)
            for idx in range(2, self.q):
                g = self.from_index(idx)
                if all(g ** (n // f) != self.one for f in factors):
                    self._generator = g
                    break
            else:  # q == 2
                self._generator = self.one
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
        exp = np.zeros(n, dtype=np.int64)
        log = np.zeros(self.q, dtype=np.int64)
        if self.k == 1:
            g = self.generator().coeffs[0]
            v = 1
            for t in range(n):
                exp[t] = v
                log[v] = t
                v = v * g % self.p
        else:
            g = self.generator()
            v = self.one
            for t in range(n):
                iv = v.index
                exp[t] = iv
                log[iv] = t
                v = v * g
        self._exp = exp
        self._log = log

    @property
    def exp_table(self) -> np.ndarray:
        self._ensure_tables()
        return self._exp

    @property
    def log_table(self) -> np.ndarray:
        self._ensure_tables()
        return self._log

    @property
    def inv_table(self) -> np.ndarray:
        if self._inv is None:
            self._ensure_tables()
            n = self.q - 1
            inv = np.zeros(self.q, dtype=np.int64)
            inv[self._exp] = self._exp[(n - np.arange(n)) % n]
            self._inv = inv
        return self._inv

    def power_table(self, e: int) -> np.ndarray:
        """Flat table idx -> index of (element idx) ** e; TableTooLarge when
        q exceeds POWER_TABLE_CAP."""
        tab = self._pow_tables.get(e)
        if tab is None:
            self._ensure_tables()
            n = self.q - 1
            tab = np.zeros(self.q, dtype=np.int64)
            if e == 0:
                tab[:] = 1
            else:
                tab[self._exp] = self._exp[(np.arange(n) * e) % n]
            self._pow_tables[e] = tab
        return tab

    # -- vectorized index operations ---------------------------------------
    # On prime fields each operation allocates one result and reduces it in
    # place.

    def _mod_p(self, x):
        if isinstance(x, np.ndarray):
            return np.remainder(x, self.p, out=x)
        return x % self.p  # 0-d inputs give a numpy scalar

    def vadd(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.k == 1:
            return self._mod_p(a + b)
        p = self.p
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        scale = 1
        for _ in range(self.k):
            out += ((a % p + b % p) % p) * scale
            a = a // p
            b = b // p
            scale *= p
        return out

    def vneg(self, a):
        a = np.asarray(a, dtype=np.int64)
        if self.k == 1:
            return self._mod_p(self.p - a)
        p = self.p
        out = np.zeros(a.shape, dtype=np.int64)
        scale = 1
        for _ in range(self.k):
            out += ((p - a % p) % p) * scale
            a = a // p
            scale *= p
        return out

    def vsub(self, a, b):
        if self.k == 1:
            a = np.asarray(a, dtype=np.int64)
            return self._mod_p(a - np.asarray(b, dtype=np.int64))
        return self.vadd(a, self.vneg(b))

    def vmul(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.k == 1:
            return self._mod_p(a * b)
        self._ensure_tables()
        n = self.q - 1
        out = self._exp[(self._log[a] + self._log[b]) % n]
        return np.where((a == 0) | (b == 0), 0, out)

    def vpow(self, a, e: int):
        return self.power_table(e)[np.asarray(a, dtype=np.int64)]


class FieldArray:
    """An int64 array of element indices of one field, with the operators
    the equation builders use on MPoly variables (+, -, *, ** and scale).

    A builder written once over MPoly variables therefore also evaluates its
    equations on index arrays, in the compact form it is written in (power
    sums, products, linear forms) rather than as an expanded term list.
    Every operation returns a new array, through the FieldDescriptor's
    vectorized operations.
    """

    __slots__ = ("a", "field")

    def __init__(self, a, field: FieldDescriptor):
        self.a = a
        self.field = field

    def __add__(self, other: "FieldArray") -> "FieldArray":
        return FieldArray(self.field.vadd(self.a, other.a), self.field)

    def __sub__(self, other: "FieldArray") -> "FieldArray":
        return FieldArray(self.field.vsub(self.a, other.a), self.field)

    def __mul__(self, other: "FieldArray") -> "FieldArray":
        return FieldArray(self.field.vmul(self.a, other.a), self.field)

    def __pow__(self, e: int) -> "FieldArray":
        return FieldArray(self.field.vpow(self.a, e), self.field)

    def scale(self, c) -> "FieldArray":
        """Multiply by a scalar (int or FieldElement)."""
        F = self.field
        ci = F.element(c).index
        if ci == 1:
            return self
        return FieldArray(F.vmul(np.int64(ci), self.a), F)


class Jet:
    """A FieldArray value with its first partial derivatives: forward-mode
    differentiation through the same +, -, *, ** and scale.

    Run through an equation builder, Jet.variables gives each equation's
    value and gradient on index arrays, in the compact form the builder
    writes, without expanding a term list.  A partial known to vanish is
    None.  The value and the partials may themselves be Jets (order 2 in
    Jet.variables), since the operations only use +, -, *, ** and scale.
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
    matrix at once.  The pivots are inverted through inv_table, so q is
    bounded by POWER_TABLE_CAP."""
    m = np.array(m, dtype=np.int64)
    count, nrows, ncols = m.shape
    rank = np.zeros(count, dtype=np.int64)
    for col in range(ncols):
        # the first nonzero entry of the column at or below row ``rank``
        free = np.arange(nrows) >= rank[:, None]
        cand = (m[:, :, col] != 0) & free
        sel = np.nonzero(cand.any(axis=1))[0]
        if sel.size == 0:
            continue
        piv = cand[sel].argmax(axis=1)
        top = rank[sel]
        m[sel, top], m[sel, piv] = m[sel, piv], m[sel, top]
        row = F.vmul(m[sel, top], F.inv_table[m[sel, top, col]][:, None])
        m[sel, top] = row
        f = m[sel, :, col]
        f[np.arange(sel.size), top] = 0
        m[sel] = F.vsub(m[sel], F.vmul(f[:, :, None], row[:, None, :]))
        rank[sel] += 1
    return rank


def matrix_rank(rows) -> int:
    """Rank of a matrix of FieldElements: the one-matrix case of matrix_ranks."""
    F = rows[0][0].field
    return int(matrix_ranks(F, [[[x.index for x in r] for r in rows]])[0])


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


@functools.lru_cache(maxsize=None)
def make_field(p: int, k: int = 1) -> FieldDescriptor:
    """Build F_{p^k} with the deterministic smallest-lexicographic modulus.

    Raises CompositeCharacteristic when p is not prime and UnsupportedDegree
    when k is outside [1, 4].  Calls with equal (p, k) return the same
    cached descriptor, hence identical moduli and element indexing.
    """
    if not isinstance(p, int) or not is_prime(p):
        raise CompositeCharacteristic(f"{p} is not prime")
    if not isinstance(k, int) or not 1 <= k <= 4:
        raise UnsupportedDegree(f"extension degree {k} outside [1, 4]")
    if k == 1:
        return FieldDescriptor(p, 1, ())
    for tail in itertools.product(range(p), repeat=k):
        coeffs = tail + (1,)
        if _is_irreducible(coeffs, p):
            return FieldDescriptor(p, k, coeffs)
    raise InvariantViolated(f"no irreducible polynomial of degree {k} over F_{p}")


def nth_roots_of_unity(F: FieldDescriptor, n: int) -> list[FieldElement]:
    """All solutions of x**n = 1 in F, sorted by canonical index.

    The list has exactly gcd(n, q - 1) entries.
    """
    if n < 1:
        raise ValueError("n must be positive")
    d = math.gcd(n, F.q - 1)
    g = F.generator()
    r = g ** ((F.q - 1) // d)
    roots = []
    x = F.one
    for _ in range(d):
        roots.append(x)
        x = x * r
    roots.sort(key=lambda e: e.index)
    return roots

def primitive_nth_root(F: FieldDescriptor, n: int) -> FieldElement:
    """The distinguished element of exact order n: generator ** ((q-1)/n).

    Deterministic because the generator is.  Raises RootOfUnityUnavailable
    when n does not divide q - 1.
    """
    if (F.q - 1) % n != 0:
        raise RootOfUnityUnavailable(
            f"{F!r} has no element of exact order {n} (q - 1 = {F.q - 1})"
        )
    return F.generator() ** ((F.q - 1) // n)


def element_roots(F: FieldDescriptor, value: FieldElement, e: int) -> list[FieldElement]:
    """All solutions u of u**e = value, sorted by index (may be empty)."""
    if not value:
        return [F.zero]
    F._ensure_tables()
    n = F.q - 1
    L = int(F.log_table[value.index])
    d = math.gcd(e, n)
    if L % d != 0:
        return []
    m = n // d
    t0 = (L // d) * pow(e // d, -1, m) % m
    roots = [F.from_index(int(F.exp_table[(t0 + j * m) % n])) for j in range(d)]
    roots.sort(key=lambda x: x.index)
    return roots
