"""Diagonal symmetry groups, their actions, orbits and the cube-map kernel.

A group is plain data, a GroupSpec: its elements are exponent vectors
modulo `moduli`, and one integer matrix `action` says how they act.
Element g scales coordinate x_j by w^(action[j] . g mod order), where w is
the distinguished primitive order-th root of unity of the field acted on
(ffield.primitive_nth_root).  Both groups are abelian, written additively:
the composition of two elements is the sum of their vectors modulo the
moduli, and the inverse is the negated vector.

The quintic group G: vectors (l1, l2, l3, l4) mod 5 with
l1 + l2 + l3 + l4 = 0 mod 5, acting by x -> (x0, w5^l1 x1, .., w5^l4 x4);
125 elements, isomorphic to (Z/5)^3.

The cubic group Gtilde: 81 vectors (a, b, d, e, m) with a, b, d, e in Z/3,
m in Z/9 and m = a + b = d + e mod 3, acting as

  (x0 : .. : x5) -> (w3^a w9^m x0 : w3^b w9^m x1 : w9^m x2 :
                     w3^-d w9^-m x3 : w3^-e w9^-m x4 : w9^-m x5),

that is by w9^(3a+m, 3b+m, m, -3d-m, -3e-m, -m) with w3 = w9^3.  The
subgroup acting trivially through the coordinate-cubing map has 27
elements; the quotient acts on the image by scaling x0, x1, x2 by a cube
root of unity.

verify_axioms checks a GroupSpec in whole-array passes: the zero vector,
every negative and all n^2 sums are members, with membership tested by
one lookup of each vector's mixed-radix code.

Group elements act through explicit field scalars, so invariance is
exact field arithmetic on each equation's monomials, not character
bookkeeping.  The scalars are taken in the field of what they act on: an
instance's field, or for orbit(point, group) the field of the point's
coordinates.
"""

from __future__ import annotations

import itertools
import math

from ._lazy import lazy_numpy
from .errors import DimensionMismatch, InvariantViolated
from .families import FamilyInstance, normalize_point
from .ffield import FieldDescriptor, FieldElement, primitive_nth_root

np = lazy_numpy()

# one row per coordinate x0..x4: x0 is fixed, x_i scales by w5^(l_i)
_G_ACTION = (
    (0, 0, 0, 0),
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
)
# one row per coordinate x0..x5: the exponent of w9 on (a, b, d, e, m)
_GTILDE_ACTION = (
    (3, 0, 0, 0, 1),
    (0, 3, 0, 0, 1),
    (0, 0, 0, 0, 1),
    (0, 0, -3, 0, -1),
    (0, 0, 0, -3, -1),
    (0, 0, 0, 0, -1),
)


class GroupSpec:
    """A finite abelian group of exponent-vector tuples modulo `moduli`,
    acting diagonally through the root order `order` and the integer
    matrix `action`, one row per coordinate."""

    def __init__(self, elements, moduli, order, action):
        self.elements = tuple(elements)
        self.moduli = moduli
        self.order = order
        self.action = action

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def enumerate_G() -> GroupSpec:
    """The 125-element scaling group of the quintic family."""
    elems = [
        (a, b, c, (-(a + b + c)) % 5)
        for a, b, c in itertools.product(range(5), repeat=3)
    ]
    return GroupSpec(elems, (5, 5, 5, 5), 5, _G_ACTION)


def enumerate_Gtilde() -> GroupSpec:
    """The 81-element group acting on the cubic complete intersections."""
    elems = []
    for m in range(9):
        for a in range(3):
            b = (m - a) % 3
            for d in range(3):
                e = (m - d) % 3
                elems.append((a, b, d, e, m))
    return GroupSpec(elems, (3, 3, 3, 3, 9), 9, _GTILDE_ACTION)


def verify_axioms(group: GroupSpec) -> bool:
    """Exhaustive closure, identity and inverse check in whole-array
    passes: the zero vector, every element's negative and every one of the
    n^2 sums are members, with membership by one lookup of each vector's
    mixed-radix code."""
    moduli = group.moduli
    vectors = np.array(group.elements, dtype=np.int64).reshape(len(group), len(moduli))
    radix = [math.prod(moduli[j + 1 :]) for j in range(len(moduli))]
    member = np.zeros(math.prod(moduli), dtype=bool)
    member[vectors @ radix] = True
    negatives = np.negative(vectors) % moduli
    sums = (vectors[:, None, :] + vectors[None, :, :]) % moduli
    return bool(
        member[0] and member[negatives @ radix].all() and member[sums @ radix].all()
    )


def _action_exponents(action, g) -> tuple[int, ...]:
    """action . g: the root exponent on each coordinate, not reduced."""
    return tuple(sum(a * x for a, x in zip(row, g)) for row in action)


def scalars_for(group: GroupSpec, g, F: FieldDescriptor) -> tuple[FieldElement, ...]:
    """The diagonal field scalars through which g acts on coordinates;
    RootOfUnityUnavailable when F lacks a primitive root of the group's
    order."""
    w = primitive_nth_root(F, group.order)
    return tuple(w ** (u % group.order) for u in _action_exponents(group.action, g))


def apply_scalars(scalars, point):
    return tuple(s * x for s, x in zip(scalars, point))


def diagonal_invariance(scalars, instance: FamilyInstance) -> bool:
    """True iff the diagonal scaling multiplies each defining polynomial by
    one nonzero factor: every monomial x^e of the equation gets the same
    factor prod s_j^(e_j).  The scaling keeps each equation's monomial
    support and no two equations of a family share one, so this is the
    same as each scaled equation being a nonzero multiple of some equation
    of the system.  DimensionMismatch when there is not one scalar per
    variable."""
    if len(scalars) != instance.nvars:
        raise DimensionMismatch(
            f"{len(scalars)} scalars for the {instance.nvars} variables of {instance!r}"
        )
    one = instance.field.one
    for f in instance.system:
        factors = {
            math.prod((s**e for s, e in zip(scalars, exps) if e), start=one)
            for exps, _ in f.terms()
        }
        if len(factors) > 1 or not all(factors):
            return False
    return True


def invariance_check(group: GroupSpec, g, instance: FamilyInstance) -> bool:
    """Exact invariance of the instance's system under the group element."""
    return diagonal_invariance(scalars_for(group, g, instance.field), instance)


def orbit(point, group: GroupSpec) -> set:
    """The orbit of a projective point, over the field of its coordinates,
    as a set of normalized tuples."""
    point = tuple(point)
    F = point[0].field
    out = set()
    for g in group:
        s = scalars_for(group, g, F)
        out.add(normalize_point(apply_scalars(s, point)))
    return out


def induced_cube_action(g) -> tuple[int, ...]:
    """Exponents of w3 by which the image coordinates of the Gtilde element
    g scale under coordinate cubing, normalized so the second block is
    fixed: the cube of w9^u is w3^(u mod 3)."""
    cubes = [u % 3 for u in _action_exponents(_GTILDE_ACTION, g)]
    shift = (-cubes[5]) % 3
    return tuple((c + shift) % 3 for c in cubes)


def psi_kernel() -> GroupSpec:
    """The subgroup of Gtilde acting trivially through coordinate cubing.

    An element acts on the image through the cubes of its six scalars;
    those agree projectively exactly when mu = 0 mod 3, giving 27 elements.
    """
    Gt = enumerate_Gtilde()
    kernel = [g for g in Gt if not any(induced_cube_action(g))]
    return GroupSpec(kernel, Gt.moduli, Gt.order, Gt.action)


def quotient_generator() -> tuple[int, ...]:
    """Deterministic coset representative generating Gtilde mod the kernel,
    chosen so the induced action scales x0, x1, x2 by w3 exactly once."""
    for g in enumerate_Gtilde():
        if induced_cube_action(g) == (1, 1, 1, 0, 0, 0):
            return g
    raise InvariantViolated("no generator with the expected induced action")
