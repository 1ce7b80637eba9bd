"""Constructors for the named projective families, maps and strata.

Families over F_q, all cut out by the systems below (x_i are projective
coordinates, parameters are elements of the field):

  QuinticX      x0^5 + x1^5 + x2^5 + x3^5 + x4^5 - 5 mu x0 x1 x2 x3 x4      in P^4
  QuinticY      (x0 + x1 + x2 + x3 + x4)^5 - (5 mu)^5 x0 x1 x2 x3 x4        in P^4
  QuadricQ      x0 + w x1 + w^2 x2 + w^3 x3 + w^4 x4  and a fixed
                w-weighted quadric (w a primitive 5th root of unity)        in P^4
  CubicsV       x0^3 + x1^3 + x2^3 = 3 lam x3 x4 x5,
                x3^3 + x4^3 + x5^3 = 3 lam x0 x1 x2                         in P^5
  CubicsW       (x0 + x1 + x2)^3 = (3 lam)^3 x3 x4 x5,
                (x3 + x4 + x5)^3 = (3 lam)^3 x0 x1 x2                       in P^5
  CubicsWtilde  (x3 + x4 + x5 - nu x0)^3 = 27 x3 x4 x5,
                (x0 + x1 + x2 - nu x3)^3 = 27 x0 x1 x2                      in P^5

The singular strata of QuinticY, the 10 lines A (x_i = x_j = 0 and the
other three coordinates summing to zero) and their 10 triple points B
(three zero coordinates, the other two opposite), are not families:
points_on_lines_a lists the points of A, and strata_codes classifies an
index array of points against A, B and the extra node, the one definition
of the strata.

Each family's equations are written once, by its builder, the only
definition of them.  The builder evaluates them on index arrays
(FamilyInstance.evaluate) and on jets without expanding them, so building
an instance expands nothing; its symbolic system is the list of MPolys the
builder writes on MPoly variables over the field, on first read.  mvpoly
is imported only for MPoly variables (_variables): for that system, and
for verify_coordinate_change, which writes the cube-root coordinate
change as its six linear forms on them; so a count never loads it.

Each family's row in _FAMILIES also declares, as data, its blocks of
interchangeable coordinates: every permutation inside a block maps each
equation to itself (QuinticX and QuinticY (0..4); CubicsV and CubicsW
(0, 1, 2) and (3, 4, 5); CubicsWtilde (1, 2) and (4, 5); QuadricQ none).
build_family stores them on the instance, and the singular scan visits
one point per orbit of those permutations.

A projective point is a row of field indices, and a set of points an
(n, nvars) int64 array; the field comes from the instance, or from an
explicit F where no instance is given.  point_rows is the one check of
that contract, and every function that takes points (normalize_rows and
so unique_points, apply_map, strata_codes, and singular.hessian_ranks,
singular.fiber_points and symmetry.orbit) runs its input through it:
DimensionMismatch for a row of another width, FieldMismatch for entries
that are not integers and for an index outside [0, q), which is no
element of F, and ValueError for the zero vector.  normalize_rows puts
each row in canonical form (first nonzero coordinate scaled to 1), and
unique_points also sorts the rows and drops repeats.  Every point of an
instance comes from one walk, counting.points, in the chart order of the
naive count.  FieldElements are scalars only: parameters and
coefficients.
"""

from __future__ import annotations

import enum
import functools
import itertools
import operator
from typing import Callable, NamedTuple

from ._lazy import lazy_numpy
from .errors import (
    DimensionMismatch,
    FieldMismatch,
    InvariantViolated,
    MissingParameter,
    ZeroDenominator,
)
from .ffield import (
    FieldArray,
    FieldDescriptor,
    FieldElement,
    primitive_nth_root,
)

np = lazy_numpy()


class FamilyId(enum.Enum):
    QUINTIC_X = "QuinticX"
    QUINTIC_Y = "QuinticY"
    QUADRIC_Q = "QuadricQ"
    CUBICS_V = "CubicsV"
    CUBICS_W = "CubicsW"
    CUBICS_WTILDE = "CubicsWtilde"


class Stratum(enum.IntEnum):  # the codes of strata_codes
    GENERIC = 0
    ON_LINE_A = 1
    IN_POINT_SET_B = 2
    EXTRA_NODE = 3


class _MapShape(NamedTuple):
    exponent: int
    arity: int


class MonomialMap(_MapShape):
    """Coordinate-wise power map x_i -> x_i^e on P^(arity-1).

    An immutable (exponent, arity) tuple; ValueError unless exponent >= 1.
    """

    __slots__ = ()

    def __new__(cls, exponent: int, arity: int):
        if exponent < 1:
            raise ValueError("map exponent must be >= 1")
        return super().__new__(cls, exponent, arity)


class FamilyInstance:
    """A family over one field: its parameters and its equation builder.

    ``equations`` maps one value per coordinate to the list of equation
    values, for any value type with +, -, *, ** and scale (FieldArray, Jet,
    MPoly); it is a family builder bound to its parameter.  The
    evaluations (evaluate, vanishing_mask, and the jets of the singular
    module) run it directly; ``system`` runs it once on MPoly variables,
    on its first read.  ``blocks`` lists disjoint
    tuples of coordinates such that every permutation inside a tuple maps
    each equation to itself; singular.singular_points scans one point per
    orbit of those permutations.  An instance built directly has none.
    """

    def __init__(
        self,
        id: FamilyId,
        field: FieldDescriptor,
        params: dict[str, FieldElement],
        ambient_dim: int,
        equations: Callable[[list], list],
        blocks: tuple[tuple[int, ...], ...] = (),
    ):
        self.id = id
        self.field = field
        self.params = params
        self.ambient_dim = ambient_dim
        self.equations = equations
        self.blocks = blocks

    @functools.cached_property
    def system(self) -> list[MPoly]:
        return _expand(self.equations, self.nvars, self.field)

    @property
    def nvars(self) -> int:
        return self.ambient_dim + 1

    def param_string(self) -> str:
        """Canonical parameter string used as part of the cache key."""
        return ";".join(f"{k}={v.canonical_str()}" for k, v in sorted(self.params.items()))

    def evaluate(self, coords) -> list[np.ndarray]:
        """Values of the defining equations on index arrays, one per
        coordinate; the arrays may be any shapes that broadcast together.

        Equal to eval_batch of each polynomial of the system, evaluated in
        the compact form the builder writes.
        """
        F = self.field
        if len(coords) != self.nvars:
            raise DimensionMismatch(
                f"{len(coords)} coordinate arrays for {self.nvars} variables"
            )
        x = [FieldArray(np.asarray(c, dtype=np.int64), F) for c in coords]
        return [v.a for v in self.equations(x)]

    def vanishing_mask(self, coords) -> np.ndarray:
        """Boolean mask of the coordinate tuples on which every equation
        vanishes, in the broadcast shape of the coordinate arrays."""
        values = self.evaluate(coords)
        mask = values[0] == 0
        for v in values[1:]:
            mask = mask & (v == 0)  # an equation may miss some block axes
        shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
        return mask if np.shape(mask) == shape else np.broadcast_to(mask, shape)

    def __repr__(self):
        ps = self.param_string()
        return f"{self.id.value}({ps}) over {self.field!r}" if ps else (
            f"{self.id.value} over {self.field!r}"
        )


# ---------------------------------------------------------------------------
# equation builders
#
# Each builder takes the parameter and the coordinates x and writes the
# equations once.  Given MPoly variables over the field it returns the
# symbolic system; given FieldArrays or Jets it returns the values on index
# arrays, evaluated in the compact form written here.
# ---------------------------------------------------------------------------


def _quintic_x_polys(mu, x):
    powersum = x[0] ** 5 + x[1] ** 5 + x[2] ** 5 + x[3] ** 5 + x[4] ** 5
    return [powersum - (x[0] * x[1] * x[2] * x[3] * x[4]).scale(mu * 5)]


def _quintic_y_polys(mu, x):
    s = x[0] + x[1] + x[2] + x[3] + x[4]
    return [s**5 - (x[0] * x[1] * x[2] * x[3] * x[4]).scale((mu * 5) ** 5)]


def _cubics_v_polys(lam, x):
    f1 = x[0] ** 3 + x[1] ** 3 + x[2] ** 3 - (x[3] * x[4] * x[5]).scale(lam * 3)
    f2 = x[3] ** 3 + x[4] ** 3 + x[5] ** 3 - (x[0] * x[1] * x[2]).scale(lam * 3)
    return [f1, f2]


def _cubics_w_polys(lam, x):
    c = (lam * 3) ** 3
    f1 = (x[0] + x[1] + x[2]) ** 3 - (x[3] * x[4] * x[5]).scale(c)
    f2 = (x[3] + x[4] + x[5]) ** 3 - (x[0] * x[1] * x[2]).scale(c)
    return [f1, f2]


def _cubics_wtilde_polys(nu, x):
    f1 = (x[3] + x[4] + x[5] - x[0].scale(nu)) ** 3 - (x[3] * x[4] * x[5]).scale(27)
    f2 = (x[0] + x[1] + x[2] - x[3].scale(nu)) ** 3 - (x[0] * x[1] * x[2]).scale(27)
    return [f1, f2]


def _cubics_nu_form_polys(nu, x):
    # CubicsW in the Vandermonde coordinates, nu = 1 / lam^3
    f1 = x[3] ** 3 + x[4] ** 3 + x[5] ** 3 - (x[0] ** 3).scale(nu) - (
        x[3] * x[4] * x[5]
    ).scale(3)
    f2 = x[0] ** 3 + x[1] ** 3 + x[2] ** 3 - (x[3] ** 3).scale(nu) - (
        x[0] * x[1] * x[2]
    ).scale(3)
    return [f1, f2]


_QUADRIC_PAIRS = (
    (0, 1, 0), (0, 2, 1), (0, 3, 2), (0, 4, 3),
    (1, 2, 2), (1, 3, 3), (1, 4, 4),
    (2, 3, 4), (2, 4, 0), (3, 4, 1),
)


def _quadric_q_polys(xi: FieldElement, x):
    lin = x[0] + x[1].scale(xi) + x[2].scale(xi**2) + x[3].scale(xi**3) + x[4].scale(xi**4)
    # a generator: on arrays, one term at a time is alive
    quad = functools.reduce(
        operator.add, ((x[i] * x[j]).scale(xi**e) for i, j, e in _QUADRIC_PAIRS)
    )
    return [lin, quad]


def _variables(nvars: int, F: FieldDescriptor) -> list[MPoly]:
    from .mvpoly import MPoly

    return [MPoly.variable(nvars, i, F) for i in range(nvars)]


class _Family(NamedTuple):
    """One row of _FAMILIES.  The builder takes the one parameter when there
    is one, else xi5 (QuadricQ).  blocks are the coordinates that its
    equations treat alike: each permutation inside a block fixes every
    equation, for every parameter and field."""

    params: tuple[str, ...]
    nvars: int
    builder: Callable
    blocks: tuple[tuple[int, ...], ...]


_FAMILIES = {
    FamilyId.QUINTIC_X: _Family(("mu",), 5, _quintic_x_polys, ((0, 1, 2, 3, 4),)),
    FamilyId.QUINTIC_Y: _Family(("mu",), 5, _quintic_y_polys, ((0, 1, 2, 3, 4),)),
    FamilyId.QUADRIC_Q: _Family((), 5, _quadric_q_polys, ()),
    FamilyId.CUBICS_V: _Family(("lam",), 6, _cubics_v_polys, ((0, 1, 2), (3, 4, 5))),
    FamilyId.CUBICS_W: _Family(("lam",), 6, _cubics_w_polys, ((0, 1, 2), (3, 4, 5))),
    FamilyId.CUBICS_WTILDE: _Family(("nu",), 6, _cubics_wtilde_polys, ((1, 2), (4, 5))),
}


def param_names(fid: FamilyId) -> tuple[str, ...]:
    """The names of the parameters that build_family takes for the family."""
    return _FAMILIES[fid].params


def _expand(equations, nvars: int, F: FieldDescriptor) -> list[MPoly]:
    """The symbolic system of an instance: its builder run on MPoly
    variables over F, every equation homogeneous."""
    polys = equations(_variables(nvars, F))
    if not all(p.is_homogeneous() for p in polys):
        raise InvariantViolated("a projective family has a non-homogeneous equation")
    return polys


def build_family(fid: FamilyId, params: dict | None, F: FieldDescriptor) -> FamilyInstance:
    """Build a family instance over F.

    Integer parameter values reduce into the field.  QuadricQ requires a
    primitive 5th root of unity in F and takes none from the caller; the
    deterministic choice is recorded under params["xi5"].  No polynomial
    is expanded here: the symbolic system is written on its first read.
    The instance carries the family's blocks of interchangeable coordinates.
    """
    params = dict(params or {})
    needed, nvars, builder, blocks = _FAMILIES[fid]
    for name in needed:
        if name not in params:
            raise MissingParameter(f"{fid.value} requires parameter '{name}'")
    for name in list(params):
        if name not in needed:
            raise MissingParameter(f"{fid.value} does not take parameter '{name}'")
    elems = {k: F.element(v) for k, v in params.items()}
    if fid is FamilyId.QUADRIC_Q:
        param = primitive_nth_root(F, 5)
        elems = {"xi5": param}
    else:
        param = elems[needed[0]]
    return FamilyInstance(fid, F, elems, nvars - 1, functools.partial(builder, param), blocks)


def quintic_x(mu, F) -> FamilyInstance:
    return build_family(FamilyId.QUINTIC_X, {"mu": mu}, F)


def quintic_y(mu, F) -> FamilyInstance:
    return build_family(FamilyId.QUINTIC_Y, {"mu": mu}, F)


def quadric_q(F) -> FamilyInstance:
    return build_family(FamilyId.QUADRIC_Q, {}, F)


def cubics_v(lam, F) -> FamilyInstance:
    return build_family(FamilyId.CUBICS_V, {"lam": lam}, F)


def cubics_w(lam, F) -> FamilyInstance:
    return build_family(FamilyId.CUBICS_W, {"lam": lam}, F)


def cubics_wtilde(nu, F) -> FamilyInstance:
    return build_family(FamilyId.CUBICS_WTILDE, {"nu": nu}, F)


def wtilde_from_lambda(lam, F) -> FamilyInstance:
    """Convenience constructor setting nu = 1 / lam^3."""
    lam = F.element(lam)
    if not lam:
        raise ZeroDenominator("nu = 1 / lam^3 requires lam != 0")
    return cubics_wtilde((lam**3).inverse(), F)


# ---------------------------------------------------------------------------
# points and maps
# ---------------------------------------------------------------------------


def point_rows(points, F: FieldDescriptor, nvars: int | None = None) -> np.ndarray:
    """The points as an (n, nvars) int64 array of index rows over F, the one
    check of the point contract; nvars=None takes the width of the rows.

    DimensionMismatch unless the input is 2-D with nvars columns,
    FieldMismatch for entries that are not integers (a float would be
    truncated, and a bool read as index 0 or 1) and for an index outside
    [0, q), which is not an element of F (the arithmetic would read it as
    another element or fail on it), and ValueError for a zero row, which
    is not a projective point.
    """
    idx = np.asarray(points)
    if idx.dtype.kind not in "iu":
        raise FieldMismatch(f"points of dtype {idx.dtype} are not field indices")
    idx = idx.astype(np.int64, copy=False)
    if idx.ndim != 2 or nvars not in (None, idx.shape[1]):
        raise DimensionMismatch(f"points of shape {idx.shape}, not (n, {nvars or 'nvars'})")
    outside = (idx < 0) | (idx >= F.q)
    if outside.any():
        raise FieldMismatch(f"index {idx[outside][0]} is not an element of {F!r}")
    if not idx.any(axis=1).all():
        raise ValueError("the zero vector is not a projective point")
    return idx


def normalize_rows(points, F: FieldDescriptor) -> np.ndarray:
    """The canonical representatives of the rows of an (n, nvars) index
    array (point_rows): each row scaled by the inverse of its first nonzero
    entry."""
    idx = point_rows(points, F)
    pivot = idx[np.arange(len(idx)), np.argmax(idx != 0, axis=1)]
    return F.vmul(idx, F.vpow(pivot, -1)[:, None])


def unique_points(points, F: FieldDescriptor) -> np.ndarray:
    """The distinct projective points among the rows of an index array
    (point_rows), normalized and sorted by index tuple.

    Duplicates are dropped against their sorted neighbours (np.unique would
    import numpy.ma, about 12 ms, on its first call).
    """
    pts = normalize_rows(points, F)
    pts = pts[np.lexsort(pts.T[::-1])]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = (pts[1:] != pts[:-1]).any(axis=1)
    return pts[keep]


def apply_map(m: MonomialMap, points, F: FieldDescriptor) -> np.ndarray:
    """The images of the rows of an (n, arity) index array of points over F
    (point_rows) under a MonomialMap, normalized (normalize_rows), one per
    row."""
    if not isinstance(m, MonomialMap):
        raise TypeError(f"cannot apply {type(m).__name__} to a point")
    return normalize_rows(F.vpow(point_rows(points, F, m.arity), m.exponent), F)


def strata_codes(points, y_instance: FamilyInstance) -> np.ndarray:
    """The stratum of each row of an (n, 5) index array of P^4 points
    (point_rows), as Stratum codes in an int64 array, relative to a
    QuinticY instance; the rows need not be normalized.

    IN_POINT_SET_B: exactly three coordinates vanish and the other two sum
    to zero.  ON_LINE_A: two or more coordinates vanish and all five sum to
    zero (and not IN_POINT_SET_B).  EXTRA_NODE: the point (1:1:1:1:1), all
    coordinates equal and nonzero, when mu^5 = 1.  Everything else is
    GENERIC.  This is the one definition of the strata.
    """
    if y_instance.id is not FamilyId.QUINTIC_Y:
        raise ValueError("strata are defined relative to a QuinticY instance")
    F = y_instance.field
    idx = point_rows(points, F, y_instance.nvars)
    zeros = (idx == 0).sum(axis=1)
    on_a_or_b = (zeros >= 2) & (functools.reduce(F.vadd, idx.T) == 0)
    line_codes = np.where(zeros == 3, Stratum.IN_POINT_SET_B, Stratum.ON_LINE_A)
    codes = np.where(on_a_or_b, line_codes, Stratum.GENERIC)
    if y_instance.params["mu"] ** 5 == F.one:
        codes[(idx == idx[:, :1]).all(axis=1)] = Stratum.EXTRA_NODE
    return codes


def points_on_lines_a(F: FieldDescriptor) -> np.ndarray:
    """All F_q-points of the union of the 10 lines as the rows of an index
    array, normalized, deduplicated and sorted by index tuple.

    Line {x_i = x_j = 0} is (-(u + v), u, v) on the other three coordinates,
    with (u : v) over (1 : 0) and (t : 1); the 10 (q + 1) points are built on
    index arrays and unique_points normalizes, sorts and deduplicates them.
    """
    u = np.concatenate(([1], np.arange(F.q, dtype=np.int64)))
    v = np.concatenate(([0], np.ones(F.q, dtype=np.int64)))
    w = F.vneg(F.vadd(u, v))
    blocks = []
    for i, j in itertools.combinations(range(5), 2):
        block = np.zeros((F.q + 1, 5), dtype=np.int64)
        block[:, [r for r in range(5) if r not in (i, j)]] = np.stack([w, u, v], axis=1)
        blocks.append(block)
    return unique_points(np.concatenate(blocks), F)


# ---------------------------------------------------------------------------
# the cube-root coordinate change and its verification
# ---------------------------------------------------------------------------


def verify_coordinate_change(lam, F: FieldDescriptor) -> bool:
    """Check that the Vandermonde block change rewrites CubicsW as claimed.

    The change sends x_(a+s) to x_a + w^s x_(a+1) + w^(2s) x_(a+2) for the
    blocks a = 0, 3 and s = 0, 1, 2, with w the primitive cube root of
    unity of primitive_nth_root.  After substitution the two cubics must equal, exactly,
      27 * (x0^3 - lam^3 (x3^3 + x4^3 + x5^3 - 3 x3 x4 x5)) and
      27 * (x3^3 - lam^3 (x0^3 + x1^3 + x2^3 - 3 x0 x1 x2)),
    that is, -27 lam^3 times the nu-form (nu = 1 / lam^3): the CubicsW
    builder run on the forms is compared with the builder of
    new_coordinates_w, which refuses lam = 0 and a field without a
    primitive cube root.  Both run on MPoly variables.
    """
    target = new_coordinates_w(lam, F)
    w = primitive_nth_root(F, 3)
    x = _variables(6, F)
    forms = [
        x[a] + x[a + 1].scale(w**s) + x[a + 2].scale(w ** (2 * s))
        for a in (0, 3)
        for s in range(3)
    ]
    rewritten = cubics_w(lam, F).equations(forms)
    return rewritten == [f.scale(-27 * lam**3) for f in target.equations(x)]


def new_coordinates_w(lam, F: FieldDescriptor) -> FamilyInstance:
    """CubicsW rewritten in the Vandermonde coordinates (the nu-form system).

    Points of this instance are points of W_lam in the new coordinates; the
    cube map sends them onto CubicsWtilde with nu = 1 / lam^3.
    """
    lam = F.element(lam)
    if not lam:
        raise ZeroDenominator("the coordinate change needs lam != 0")
    primitive_nth_root(F, 3)
    nu = (lam**3).inverse()
    return FamilyInstance(
        FamilyId.CUBICS_W, F, {"lam": lam}, 5, functools.partial(_cubics_nu_form_polys, nu)
    )
