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

Group elements act through explicit field scalars, computed for every
element at once: the root exponents are elements @ action.T mod order,
and the powers of w turn them into an (elements, coordinates) index array
(element_scalars).  Invariance is exact field arithmetic on those arrays,
one pass per equation over all the elements (invariance_mask): each
monomial's factor prod s_j^(e_j) is a row of lookups in the field's power
tables (ffield's power_table) and products, not character bookkeeping.
An orbit is one product of the point, an index row checked by
families.point_rows, with every row of scalars and one
families.unique_points pass, so it is a sorted index array like the
points of a singular scan.  The scalars are taken in the field of what
they act on: an instance's field, or the F given to orbit(point, group,
F).
"""

from __future__ import annotations

import functools
import itertools
import math

from ._lazy import lazy_numpy
from .errors import DimensionMismatch, InvariantViolated
from .families import FamilyInstance, point_rows, unique_points
from .ffield import FieldDescriptor, primitive_nth_root

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


def element_scalars(group: GroupSpec, F: FieldDescriptor, elements=None) -> np.ndarray:
    """The diagonal scalars through which the elements (every element of the
    group by default) act, as an (elements, coordinates) index array over
    F: element g scales x_j by w^(action[j] . g mod order), read off the
    powers of w = primitive_nth_root(F, order).  RootOfUnityUnavailable
    when F lacks a primitive root of the group's order."""
    w = primitive_nth_root(F, group.order).index
    powers = np.array([F.vpow(w, u) for u in range(group.order)], dtype=np.int64)
    g = np.array(group.elements if elements is None else elements, dtype=np.int64)
    exponents = g.reshape(-1, len(group.moduli)) @ np.array(group.action, dtype=np.int64).T
    return powers[exponents % group.order]


def invariance_mask(scalars, instance: FamilyInstance) -> np.ndarray:
    """For each row of an (n, nvars) index array of diagonal scalars, True
    iff the scaling multiplies each defining polynomial by one nonzero
    factor: every monomial x^e of the equation gets the same factor
    prod s_j^(e_j).  The scaling keeps each equation's monomial support and
    no two equations of a family share one, so this is the same as each
    scaled equation being a nonzero multiple of some equation of the
    system.

    One pass per equation covers every row: each term's power s_j^(e_j)
    of each column is a lookup in the field's power_table(e_j), which has
    0^0 = 1, and the products over the coordinates give a (terms, n) array
    of factors whose columns must be constant and nonzero.
    DimensionMismatch when there is not one scalar per variable, and
    TableTooLarge above ffield.POWER_TABLE_CAP, as for vpow on arrays.
    """
    F = instance.field
    scalars = np.asarray(scalars, dtype=np.int64)
    if scalars.ndim != 2 or scalars.shape[1] != instance.nvars:
        raise DimensionMismatch(
            f"scalars of shape {scalars.shape} for the {instance.nvars} variables of {instance!r}"
        )
    ok = np.ones(len(scalars), dtype=bool)
    for f in instance.system:
        exps = np.array([e for e, _ in f.terms()], dtype=np.int64)
        if not exps.size:  # the zero polynomial is a multiple of itself
            continue
        factors = functools.reduce(
            F.vmul,
            (
                np.stack([F.power_table(e)[s] for e in col.tolist()])
                for s, col in zip(scalars.T, exps.T)
            ),
        )
        ok &= (factors == factors[0]).all(axis=0) & (factors[0] != 0)
    return ok


def group_invariance(group: GroupSpec, instance: FamilyInstance) -> np.ndarray:
    """invariance_mask on the scalars of every element of the group, in the
    order of group.elements."""
    return invariance_mask(element_scalars(group, instance.field), instance)


def orbit(point, group: GroupSpec, F: FieldDescriptor) -> np.ndarray:
    """The orbit of a projective point, one index row over F checked by
    families.point_rows, as the rows of an index array, normalized and
    sorted: the point times every element's scalars in one product, then
    families.unique_points."""
    idx = point_rows([point], F, len(group.action))
    return unique_points(F.vmul(element_scalars(group, F), idx), F)


def induced_cube_action(g) -> tuple[int, ...]:
    """Exponents of w3 by which the image coordinates of the Gtilde element
    g scale under coordinate cubing, normalized so the second block is
    fixed: the cube of w9^u is w3^(u mod 3)."""
    cubes = [sum(a * x for a, x in zip(row, g)) % 3 for row in _GTILDE_ACTION]
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
