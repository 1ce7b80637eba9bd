"""Diagonal symmetry groups, their actions, orbits and the cube-map kernel.

The quintic group G: scalings x_i -> w^(l_i) x_i (i = 1..4, x_0 fixed,
w a primitive 5th root of unity) with l_1 + l_2 + l_3 + l_4 = 0 mod 5;
125 elements, isomorphic to (Z/5)^3.

The cubic group Gtilde: 81 transformations g_(a, b, d, e; m) with
a, b, d, e in Z/3, m in Z/9 and m = a + b = d + e mod 3, acting as

  (x0 : .. : x5) -> (w3^a w9^m x0 : w3^b w9^m x1 : w9^m x2 :
                     w3^-d w9^-m x3 : w3^-e w9^-m x4 : w9^-m x5)

with w3, w9 fixed primitive cube and ninth roots of unity.  The subgroup
acting trivially through the coordinate-cubing map has 27 elements; the
quotient acts on the image by scaling x0, x1, x2 by a cube root of unity.

Both groups are abelian and written additively: an element is its
exponent vector, (l1, l2, l3, l4) with moduli (5, 5, 5, 5) or
(a, b, d, e, m) with moduli (3, 3, 3, 3, 9), and the one composition law
(_compose) adds exponent vectors modulo the moduli; the inverse is the
negated vector.  An element's compose and inverse use it on one pair,
and GroupSpec.verify_axioms and is_abelian on whole arrays: all n^2
products, the identity and the inverses in one broadcast over the (n, r)
array of element vectors, with membership tested by one lookup of each
vector's mixed-radix code.

Group elements act through explicit field scalars, so invariance is an
exact polynomial comparison, not character bookkeeping.  The scalars are
taken in the field of what they act on: an instance's field, or for
orbit(point, group) the field of the point's coordinates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from ._lazy import lazy_numpy
from .errors import InvariantViolated, RootOfUnityUnavailable
from .families import FamilyInstance, normalize_point
from .ffield import FieldDescriptor, FieldElement, primitive_nth_root
from .mvpoly import MPoly

np = lazy_numpy()


def _compose(u, v, moduli):
    """The composition law of both groups: exponent vectors add modulo
    their moduli.  u and v broadcast, so one call composes one pair or all
    pairs of an array of vectors."""
    return (np.asarray(u) + v) % moduli


def _inverse(u, moduli):
    """The inverse under _compose: the negated vector modulo the moduli."""
    return _compose(np.negative(u), 0, moduli)


class _Element:
    """An element given by its exponent vector modulo MODULI: a subclass
    defines MODULI, the vector property and the from_vector constructor."""

    MODULI: tuple[int, ...]

    def compose(self, other):
        return self.from_vector(_compose(self.vector, other.vector, self.MODULI))

    def inverse(self):
        return self.from_vector(_inverse(self.vector, self.MODULI))


@dataclass(frozen=True)
class ScalingElement(_Element):
    """Exponent tuple (l1, l2, l3, l4) mod 5 with sum divisible by 5."""

    exponents: tuple[int, int, int, int]

    MODULI = (5, 5, 5, 5)

    def __post_init__(self):
        if len(self.exponents) != 4 or any(not 0 <= e < 5 for e in self.exponents):
            raise ValueError("exponents must be four residues mod 5")
        if sum(self.exponents) % 5 != 0:
            raise ValueError("exponent sum must be 0 mod 5")

    @property
    def vector(self) -> tuple[int, ...]:
        return self.exponents

    @classmethod
    def from_vector(cls, vector) -> "ScalingElement":
        return cls(tuple(np.asarray(vector).tolist()))

    def order(self) -> int:
        return 1 if not any(self.exponents) else 5


@dataclass(frozen=True)
class GtildeElement(_Element):
    """(alpha, beta, delta, epsilon) mod 3 and mu mod 9 with
    mu = alpha + beta = delta + epsilon mod 3."""

    alpha: int
    beta: int
    delta: int
    epsilon: int
    mu: int

    MODULI = (3, 3, 3, 3, 9)

    def __post_init__(self):
        for v in (self.alpha, self.beta, self.delta, self.epsilon):
            if not 0 <= v < 3:
                raise ValueError("block exponents must be residues mod 3")
        if not 0 <= self.mu < 9:
            raise ValueError("mu must be a residue mod 9")
        if (self.alpha + self.beta) % 3 != self.mu % 3 or (
            self.delta + self.epsilon
        ) % 3 != self.mu % 3:
            raise ValueError("constraint mu = a + b = d + e mod 3 violated")

    @property
    def vector(self) -> tuple[int, ...]:
        return (self.alpha, self.beta, self.delta, self.epsilon, self.mu)

    @classmethod
    def from_vector(cls, vector) -> "GtildeElement":
        return cls(*np.asarray(vector).tolist())

    def ninth_root_exponents(self) -> tuple[int, ...]:
        """Exponent of w9 in each of the six coordinate scalars."""
        a, b, d, e, m = self.alpha, self.beta, self.delta, self.epsilon, self.mu
        return (
            (3 * a + m) % 9,
            (3 * b + m) % 9,
            m % 9,
            (-3 * d - m) % 9,
            (-3 * e - m) % 9,
            (-m) % 9,
        )


class GroupSpec:
    """A finite abelian group given by its element list and identity; the
    elements are of one type and compose by its law (_compose)."""

    def __init__(self, elements, identity):
        self.elements = tuple(elements)
        self.identity = identity
        self._members = frozenset(self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g):
        return g in self._members

    def _vectors(self):
        """The (n, r) array of element vectors and the moduli of the type."""
        moduli = self.identity.MODULI
        vectors = np.array([g.vector for g in self.elements], dtype=np.int64)
        return vectors.reshape(len(self.elements), len(moduli)), moduli

    def verify_axioms(self) -> bool:
        """Exhaustive closure, identity and inverse check in whole-array
        passes: every one of the n^2 products, the identity's product with
        each element and each element's inverse, with membership by one
        lookup of each vector's mixed-radix code."""
        vectors, moduli = self._vectors()
        radix = [math.prod(moduli[j + 1 :]) for j in range(len(moduli))]
        member = np.zeros(math.prod(moduli), dtype=bool)
        member[vectors @ radix] = True
        identity = np.array(self.identity.vector, dtype=np.int64)
        inverses = _inverse(vectors, moduli)
        products = _compose(vectors[:, None, :], vectors[None, :, :], moduli)
        return bool(
            member[identity @ radix]
            and (_compose(vectors, identity, moduli) == vectors).all()
            and member[inverses @ radix].all()
            and (_compose(vectors, inverses, moduli) == identity).all()
            and member[products @ radix].all()
        )

    def is_abelian(self) -> bool:
        vectors, moduli = self._vectors()
        gh = _compose(vectors[:, None, :], vectors[None, :, :], moduli)
        return bool((gh == gh.transpose(1, 0, 2)).all())


def enumerate_G() -> GroupSpec:
    """The 125-element scaling group of the quintic family."""
    elems = [
        ScalingElement((a, b, c, (-(a + b + c)) % 5))
        for a, b, c in itertools.product(range(5), repeat=3)
    ]
    return GroupSpec(elems, ScalingElement((0, 0, 0, 0)))


def enumerate_Gtilde() -> GroupSpec:
    """The 81-element group acting on the cubic complete intersections."""
    elems = []
    for m in range(9):
        for a in range(3):
            b = (m - a) % 3
            for d in range(3):
                e = (m - d) % 3
                elems.append(GtildeElement(a, b, d, e, m))
    return GroupSpec(elems, GtildeElement(0, 0, 0, 0, 0))


def scalars_for(g, F: FieldDescriptor) -> tuple[FieldElement, ...]:
    """The diagonal field scalars through which g acts on coordinates."""
    if isinstance(g, ScalingElement):
        w = primitive_nth_root(F, 5)
        return (F.one,) + tuple(w**e for e in g.exponents)
    if isinstance(g, GtildeElement):
        if (F.q - 1) % 9 != 0:
            raise RootOfUnityUnavailable(
                f"{F!r} lacks a primitive 9th root of unity"
            )
        w9 = primitive_nth_root(F, 9)
        return tuple(w9**e for e in g.ninth_root_exponents())
    raise TypeError(f"unsupported group element {type(g).__name__}")


def apply_scalars(scalars, point):
    return tuple(s * x for s, x in zip(scalars, point))


def diagonal_invariance(scalars, instance: FamilyInstance) -> bool:
    """True iff each defining polynomial, composed with the diagonal scaling,
    is a nonzero scalar multiple of some defining polynomial of the system."""
    system = instance.system
    if len(scalars) != instance.nvars:
        return False
    for f in system:
        terms = []
        for exps, c in f.terms():
            for s, e in zip(scalars, exps):
                if e:
                    c = c * s**e
            terms.append((exps, c))
        g = MPoly(f.nvars, terms, instance.field)
        if not any(_scalar_multiple(g, h) for h in system):
            return False
    return True


def _scalar_multiple(g: MPoly, f: MPoly) -> bool:
    """True iff g = c f for a nonzero scalar c (the zero polynomial is only
    a multiple of itself)."""
    if not g or not f:
        return not g and not f
    (eg, cg), (ef, cf) = g.terms()[0], f.terms()[0]
    return eg == ef and g == f.scale(cg / cf)


def invariance_check(g, instance: FamilyInstance) -> bool:
    """Exact invariance of the instance's system under the group element."""
    return diagonal_invariance(scalars_for(g, instance.field), instance)


def orbit(point, group: GroupSpec) -> set:
    """The orbit of a projective point, over the field of its coordinates,
    as a set of normalized tuples."""
    point = tuple(point)
    F = point[0].field
    out = set()
    for g in group:
        s = scalars_for(g, F)
        out.add(normalize_point(apply_scalars(s, point)))
    return out


def psi_kernel() -> GroupSpec:
    """The subgroup of Gtilde acting trivially through coordinate cubing.

    An element acts on the image through the cubes of its six scalars;
    those agree projectively exactly when mu = 0 mod 3, giving 27 elements.
    """
    kernel = [g for g in enumerate_Gtilde() if _cubes_projectively_trivial(g)]
    return GroupSpec(kernel, GtildeElement(0, 0, 0, 0, 0))


def _cubes_projectively_trivial(g: GtildeElement) -> bool:
    cubes = [(3 * u) % 9 for u in g.ninth_root_exponents()]
    return len(set(cubes)) == 1


def induced_cube_action(g: GtildeElement) -> tuple[int, ...]:
    """Exponents of w3 by which the image coordinates scale, normalized so
    the second block is fixed."""
    cubes = [u % 3 for u in g.ninth_root_exponents()]  # w9^(3u) = w3^(u mod 3)
    shift = (-cubes[5]) % 3
    return tuple((c + shift) % 3 for c in cubes)


def quotient_generator() -> GtildeElement:
    """Deterministic coset representative generating Gtilde mod the kernel,
    chosen so the induced action scales x0, x1, x2 by w3 exactly once."""
    for g in enumerate_Gtilde():
        if induced_cube_action(g) == (1, 1, 1, 0, 0, 0):
            return g
    raise InvariantViolated("no generator with the expected induced action")
