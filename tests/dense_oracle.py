"""Dense 4x4 oracles for ``symmetry.LinearAutomorphism`` and the matrix tests.

The library holds each automorphism as a permutation and four scalars and
keeps no dense matrix arithmetic; these are the dense forms the tests
check it against.  ``mat_mul``, ``transpose`` and ``identity_matrix`` are
the plain matrix product, transpose and identity.  ``mat_inverse`` is the
inverse the library took when it held each map as a dense matrix: a
tracked ``SparseEchelon`` of the rows, over any field the kernel takes.
Row j of the inverse is the combination of the rows that gives e_j; over
F_p the entries come back as the kernel holds them, ints in [0, p).
``dual_point`` is the dual action as the inverse-transpose mat-vec.
``from_matrix`` reads a permute-and-scale matrix back into the
permutation and scalars the library's constructor takes.
"""

from quadralab.geometry import ProjectivePoint
from quadralab.linalg import SparseEchelon
from quadralab.symmetry import LinearAutomorphism


def mat_mul(a, b):
    """The product a b, summed from the first term (no zero of the field needed)."""
    return [[sum((row[t] * b[t][j] for t in range(1, len(b))), row[0] * b[0][j])
             for j in range(len(b[0]))] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def identity_matrix(field):
    one, zero = field.one(), field.zero()
    return [[one if i == j else zero for j in range(4)] for i in range(4)]


def mat_inverse(field, a):
    """Inverse from a tracked echelon of the rows; raises ValueError when singular."""
    n = len(a)
    ech = SparseEchelon(field, track=True)
    for i, row in enumerate(a):
        ech.insert({j: v for j, v in enumerate(row) if v}, tag=i)
    if ech.rank < n:
        raise ValueError("matrix is singular")
    one, zero = field.one(), field.zero()
    combos = [ech.reduce_with_combo({j: one})[1] for j in range(n)]
    return [[combo.get(i, zero) for i in range(n)] for combo in combos]


def dual_point(field, matrix, p):
    """The point p moved by the inverse transpose of matrix."""
    mt = transpose(mat_inverse(field, matrix))
    return ProjectivePoint(tuple(sum(c * v for c, v in zip(row, p)) for row in mt))


def from_matrix(field, m, label=""):
    """The ``LinearAutomorphism`` of a permute-and-scale matrix in apply_linear's
    convention: column j holds the one nonzero coefficient of generator j's image."""
    perm = [next(r for r in range(4) if m[r][j]) for j in range(4)]
    return LinearAutomorphism(field, perm, [m[r][j] for j, r in enumerate(perm)], label)
