"""Singular loci, node classification, quotient-map fibers and the quadric
surface's points.

Singularity is detected set-theoretically over F_q by the Jacobian
criterion: a point is singular when the defining equations vanish and the
Jacobian matrix has rank below the number of equations (the codimension),
by the same elimination (ffield.matrix_ranks) that ranks the Hessians.  A
permutation of the coordinates that maps every equation to itself maps
the singular locus to itself, so a scan visits one point per orbit of the
permutations inside the instance's blocks (FamilyInstance.blocks) and
spreads the singular ones over their orbits at the end.  A scan gathers
the zeros among those representatives with counting.points, the walk of
the naive count: grid blocks filled to counting._CHUNK points
(counting.iter_projective_chunks with the instance's blocks) on the
calling thread, the equations evaluated on each whole block through the
instance's own builder, and the points where they vanish kept as the
rows of one index array.  The Jacobian
then runs once on all of them (full_rank), by the same builder run on
forward-mode jets (ffield.Jet), which gives the first partials in the
compact form it writes the equations in, as one stack (Jet.partials).
Every walk here (the singular scan, the fiber sizes, the surface's P^3)
is refused past one scan cap (_check_scan) before its first block.
Points go in and come out as index rows (families): singular_points
returns the sorted index array of the singular points, whose strata, for
the mirror, are families.strata_codes of it, and fiber_points the fiber
of the coordinate-power map over a point, normalized and sorted.  Every
function here that takes points checks them with families.point_rows,
and a fiber takes its field explicitly, since a row of indices does not
carry one.  The fibers read their field facts off ffield: the e-th roots
of a coordinate are the indices where the field's power table reads it,
fiber_size_table's sizes are products of that table's bincount, and a
field without the e-th roots of unity is refused by
ffield.primitive_nth_root.

Nodes are recognized by a full-rank Hessian in the affine chart of the
first nonzero coordinate, whose rank is that of the homogeneous Hessian.
hessian_ranks takes all the points of an instance at once, as the rows of
an index array, and a single point is a batch of one: the builder run on
second-order jets (a Jet of Jets) gives the values, gradients and
Hessians on index arrays (Jet.partials), and one elimination over F_q on
the stack of Hessians gives the ranks.  The rows need no normalization: H(cx) =
c^(d-2) H(x), so every representative of a point has the same rank.
The criterion needs characteristic at least 7 and is refused below that.

Containment statements about the quadric surface are certified by
exhaustive finite-field enumeration over several primes (the quadric
suite of verify), which is strong evidence but not a symbolic proof.
Every point of the surface lies on its hyperplane, the linear equation
of the QuadricQ builder, whose x0 coefficient is 1, so surface_points
runs over (x1 : ... : x4) in P^3, in grid blocks like every scan, and
solves for x0 instead of scanning P^4; each claim is then one whole-array
expression on the surface's points.
"""

from __future__ import annotations

import functools
import itertools
import math

from ._lazy import lazy_numpy
from .counting import iter_projective_chunks, points, projective_size, rows_where
from .errors import BadCharacteristic, InstanceTooLarge, NotSingular
from .families import (
    FamilyId,
    FamilyInstance,
    MonomialMap,
    normalize_rows,
    point_rows,
    unique_points,
)
from .ffield import FieldDescriptor, Jet, matrix_ranks, primitive_nth_root

np = lazy_numpy()


def full_rank(instance: FamilyInstance, rows) -> np.ndarray:
    """Mask of the points (the rows of an index array) at which the Jacobian
    of the instance, its equations' stacked partials, has full rank."""
    eqs = instance.equations(Jet.variables(list(rows.T), instance.field))
    jac = np.stack([eq.partials() for eq in eqs], axis=-2)
    return matrix_ranks(instance.field, jac) == len(eqs)


def _check_scan(F: FieldDescriptor, dim: int):
    """Refuse, with InstanceTooLarge, a walk of P^dim over F past the scan
    cap: q <= 41 up to P^4 (the node census runs up to F_41), q <= 13
    from P^5 on."""
    cap = 41 if dim <= 4 else 13
    if F.q > cap:
        raise InstanceTooLarge(
            f"singular scan capped at q <= {cap} for P^{dim}: over F_{F.q} it "
            f"would scan {projective_size(F.q, dim)} points"
        )


@functools.lru_cache(maxsize=None)
def _block_permutations(blocks: tuple, nvars: int) -> np.ndarray:
    """Every permutation of the coordinates inside the blocks, as the rows
    of a read-only (permutations, nvars) array: row[j] is the coordinate
    that moves to position j.  The identity alone when there are no blocks.
    """
    rows = []
    for images in itertools.product(*(itertools.permutations(b) for b in blocks)):
        row = list(range(nvars))
        for b, image in zip(blocks, images):
            for j, k in zip(b, image):
                row[j] = k
        rows.append(row)
    table = np.array(rows, dtype=np.int64)
    table.flags.writeable = False
    return table


def singular_points(instance: FamilyInstance) -> np.ndarray:
    """All F_q-points where the system vanishes and the Jacobian drops rank,
    as the rows of an (n, nvars) int64 index array, normalized and sorted
    by index tuple.

    The zeros are gathered by counting.points, one point per orbit of the
    instance's block permutations, and the Jacobian runs once on them all.
    Every block permutation is applied to the singular representatives,
    and families.unique_points normalizes, sorts and deduplicates the
    images.  The criterion is invariant under those permutations, so the
    points are exactly those of a scan of every point (an instance without
    blocks), and they are the same for every grid block size.
    """
    F = instance.field
    _check_scan(F, instance.ambient_dim)
    n = instance.nvars
    zeros = points(instance, instance.blocks)
    reps = zeros[~full_rank(instance, zeros)]
    perms = _block_permutations(instance.blocks, n)
    return unique_points(reps[:, perms].reshape(-1, n), F)


def hessian_ranks(instance: FamilyInstance, points) -> np.ndarray:
    """Hessian test at singular points of a hypersurface instance, all in one
    batch: the int64 rank of the Hessian at each row of an (n, nvars) index
    array of points; a point is a node when its rank is nvars - 1.

    Each point is dehomogenized at its first nonzero coordinate, and the
    4x4 Hessian of the affine equation there is the Hessian H of the
    homogeneous equation with the pivot row and column deleted; a node has
    full rank.  Differentiating Euler's identity gives H x = (d - 1) grad f,
    which is 0 at a singular point x, so the pivot row and column are
    combinations of the others in every characteristic, and the whole
    n x n Hessian has the same rank.  H(cx) = c^(d-2) H(x), so the rows
    need not be normalized.  One builder run on second-order jets gives
    every point's value, gradient and Hessian, and one elimination
    (ffield.matrix_ranks) every rank.  Only characteristics p >= 7 are
    accepted: the quadratic-form rank criterion degenerates for small p.
    The points are checked first (families.point_rows); then
    BadCharacteristic, ValueError for an instance of more than one
    equation, and NotSingular at a smooth point.
    """
    F = instance.field
    idx = point_rows(points, F, instance.nvars)
    if F.p < 7:
        raise BadCharacteristic(
            f"node classification requires characteristic >= 7, got {F.p}"
        )
    eqs = instance.equations(Jet.variables(list(idx.T), F, order=2))
    if len(eqs) != 1:
        raise ValueError("node classification applies to hypersurfaces")
    value, grad = eqs[0].val.val.a, eqs[0].val.partials()
    smooth = np.flatnonzero((value != 0) | (grad != 0).any(axis=-1))
    if smooth.size:
        raise NotSingular(f"{idx[smooth[0]].tolist()} is a smooth point")
    return matrix_ranks(F, eqs[0].partials())


def fiber_points(m: MonomialMap, point, F: FieldDescriptor) -> np.ndarray:
    """The fiber of the coordinate-power map over a point, given as one index
    row over F: the rows of an (n, arity) int64 index array, normalized and
    sorted by index tuple, (0, arity) when the fiber is empty.

    Scaled so that its pivot coordinate (the first nonzero one of the
    normalized point) is 1, a fiber point has zeros before the pivot and
    any e-th root of the point's coordinate after it, so the product of the
    root lists lists every fiber point exactly once.  The roots of y are
    the indices u with power_table(e)[u] = y, in increasing order, so the
    product comes sorted.  The point is checked as a row of arity indices
    (families.point_rows).  The geometric fiber over a point with k
    nonzero coordinates has e^(k-1) points; the rational one attains that
    exactly when every nonzero coordinate ratio is an e-th power in F_q.
    RootOfUnityUnavailable, from ffield.primitive_nth_root, when e does
    not divide q - 1.
    """
    [point] = normalize_rows(point_rows([point], F, m.arity), F).tolist()
    e = m.exponent
    primitive_nth_root(F, e)  # RootOfUnityUnavailable when F lacks them
    pivot = next(i for i, x in enumerate(point) if x)
    powers = F.power_table(e)
    roots = [
        np.ones(1, dtype=np.int64) if i == pivot else np.flatnonzero(powers == y)
        for i, y in enumerate(point)
    ]
    # the product of the root lists, coordinate i running along axis i
    rows = np.empty([*map(len, roots), m.arity], dtype=np.int64)
    for i, r in enumerate(roots):
        rows[..., i] = r.reshape((-1,) + (1,) * (m.arity - 1 - i))
    return rows.reshape(-1, m.arity)


def fiber_size_table(m: MonomialMap, F: FieldDescriptor) -> np.ndarray:
    """Vectorized ambient fiber sizes over every point of projective space.

    Returns the array of fiber cardinalities indexed in the deterministic
    chart order of iter_projective_chunks; its sum is the size of P^n(F_q)
    because fibers partition the source.  With counts[v] the number of
    solutions of u^e = v (a bincount of power_table(e)), a size is the
    product of counts[c] over the coordinates after the pivot; a leading
    zero has counts[0] = 1 and the chart's pivot is 1, so it is the
    product over every coordinate divided by counts[1].
    """
    e = m.exponent
    dim = m.arity - 1
    _check_scan(F, dim)
    counts = np.bincount(F.power_table(e), minlength=F.q)
    out = []
    for coords in iter_projective_chunks(F, dim):
        sizes = math.prod(counts[c] for c in coords) // counts[1]
        out.append(np.broadcast_to(sizes, np.broadcast(*coords).shape).ravel())
    return np.concatenate(out)


def surface_points(surface: FamilyInstance) -> np.ndarray:
    """The F_q-points of the QuadricQ surface as the rows of an index array;
    ValueError for any other instance.

    (x1 : ... : x4) runs over P^3 in grid blocks of at most
    counting._CHUNK points, like every scan, and x0 = -(c1 x1 + ... +
    c4 x4) puts it on the hyperplane.  The c_j are read once, from the
    builder's linear equation at x0 = 0 on the four unit vectors; its x0
    coefficient is 1, so this is a bijection onto the hyperplane and every
    surface point comes exactly once.  The builder then runs once per
    block, in vanishing_mask.  Blocks keep the scan's memory to that of
    the other scans (see counting._CHUNK).  The points come in chart order
    whatever the block size, and are not normalized.
    """
    if surface.id is not FamilyId.QUADRIC_Q:
        raise ValueError("the hyperplane scan is defined for the QuadricQ surface")
    F = surface.field
    _check_scan(F, 3)
    unit = np.eye(4, dtype=np.int64)  # index 1 is one
    neg = [F.vneg(int(c)) for c in surface.evaluate([0, *unit])[0]]
    rows = []
    for coords in iter_projective_chunks(F, 3):
        x0 = functools.reduce(F.vadd, map(F.vmul, neg, coords))
        pts = [x0, *coords]
        rows.append(rows_where(pts, surface.vanishing_mask(pts)))
    return np.concatenate(rows)
