"""Exact dense linear algebra over Q or F_p.

A linear map X -> Y is stored as a (dim Y) x (dim X) matrix acting on
column vectors.  Every elimination goes through ``_rref(field, rows)``,
which picks a kernel by the characteristic and uses the same pivot rule
(leftmost column first, first nonzero row):

* over Q, Gauss-Jordan on integer rows (Bareiss 1968 style): each row's
  denominators are cleared, a row is updated as (a/g) row - (b/g) pivot
  row with g = gcd(a, b) and divided by the gcd of its entries, and the
  pivot rows are normalised to ``Fraction``s once at the end;
* over F_p, Gauss-Jordan on ``int`` residues, where the pivot row is
  scaled once by the inverse of its pivot and only its nonzero columns
  are updated in the other rows.

Neither calls the field's methods per entry.  Both give the reduced row
echelon form, which is unique for the row space, so echelon forms,
kernel bases and coset representatives are canonical and reproducible
run to run, and equal to those of elimination through the field methods
(the tests keep that elimination as their oracle).

Lead columns.  A ``SubspaceBasis`` may record one lead column per
vector: vector i has a 1 at its own lead column and a 0 at every other
lead column.  ``kernel_basis`` records its free columns, and
``row_space_basis`` and ``column_space_basis`` record the pivots of
their RREF rows.  The coordinates of a vector in such a basis are its
entries at the lead columns; ``coordinates_in_basis`` reads them off and
then checks membership exactly (the combination must give the vector
back), so it needs no elimination.  A basis built without lead columns
is solved against instead.

Constraint systems of the form X |-> A X B on row-major coordinates are
assembled block by block with ``kron_add``, and the other systems from
the images of basis vectors (``Matrix.from_columns``).  Pushing unit
vectors through a closure (``linear_map_matrix``) is kept only for the
dual-number oracle: it must reach its counts by a route that shares no
system assembly with the tangent-pair computations it checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Optional


class Matrix:
    """An immutable-by-convention dense matrix over an exact field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols=None):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            for r in self.rows:
                if len(r) != self.ncols:
                    raise ValueError("ragged rows in matrix")
        else:
            if ncols is None:
                raise ValueError("a 0-row matrix needs an explicit column count")
            self.ncols = ncols

    # -- constructors ------------------------------------------------

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)], n)

    @classmethod
    def from_rows(cls, field, rows, ncols=None) -> "Matrix":
        return cls(field, [[field.of(x) for x in r] for r in rows], ncols)

    @classmethod
    def from_columns(cls, field, nrows: int, cols) -> "Matrix":
        """The nrows x len(cols) matrix whose columns are the given lists."""
        return cls(field, [[c[i] for c in cols] for i in range(nrows)], len(cols))

    @classmethod
    def column(cls, field, vec) -> "Matrix":
        return cls(field, [[x] for x in vec], 1)

    # -- shape and access --------------------------------------------

    def shape(self):
        return (self.nrows, self.ncols)

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def col(self, j: int):
        return [r[j] for r in self.rows]

    def copy(self) -> "Matrix":
        return Matrix(self.field, self.rows, self.ncols)

    def is_zero(self) -> bool:
        f = self.field
        return all(f.is_zero(x) for r in self.rows for x in r)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        f = self.field
        body = "; ".join(" ".join(f.to_str(x) for x in r) for r in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: [{body}])"

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape() != other.shape():
            raise ValueError(f"shape mismatch {self.shape()} + {other.shape()}")
        f = self.field
        return Matrix(
            f,
            [[f.add(a, b) for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)],
            self.ncols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.shape() != other.shape():
            raise ValueError(f"shape mismatch {self.shape()} - {other.shape()}")
        f = self.field
        return Matrix(
            f,
            [[f.sub(a, b) for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)],
            self.ncols,
        )

    def __neg__(self) -> "Matrix":
        f = self.field
        return Matrix(f, [[f.neg(a) for a in r] for r in self.rows], self.ncols)

    def scale(self, c) -> "Matrix":
        f = self.field
        return Matrix(f, [[f.mul(c, a) for a in r] for r in self.rows], self.ncols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape()} @ {other.shape()}")
        f = self.field
        out = []
        orows = other.rows
        for r in self.rows:
            new = [f.zero] * other.ncols
            for k, a in enumerate(r):
                if f.is_zero(a):
                    continue
                ok = orows[k]
                for j in range(other.ncols):
                    new[j] = f.add(new[j], f.mul(a, ok[j]))
            out.append(new)
        return Matrix(f, out, other.ncols)

    def apply(self, vec):
        """Matrix-vector product on a plain list."""
        if len(vec) != self.ncols:
            raise ValueError("vector length does not match column count")
        f = self.field
        out = []
        for r in self.rows:
            s = f.zero
            for a, x in zip(r, vec):
                s = f.add(s, f.mul(a, x))
            out.append(s)
        return out

    def transpose(self) -> "Matrix":
        if self.nrows == 0:
            return Matrix(self.field, [[] for _ in range(self.ncols)], 0)
        return Matrix(self.field, [list(c) for c in zip(*self.rows)], self.nrows)

    def rank(self) -> int:
        return rank(self)

    def inverse(self) -> Optional["Matrix"]:
        """Exact inverse of a square matrix, or None when singular."""
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        f = self.field
        aug = [list(r) + [f.one if i == j else f.zero for j in range(n)]
               for i, r in enumerate(self.rows)]
        rows, pivots = _rref(f, aug)
        if pivots != list(range(n)):
            return None
        return Matrix(f, [r[n:] for r in rows], n)


def hstack(a: Matrix, b: Matrix) -> Matrix:
    if a.nrows != b.nrows:
        raise ValueError("row count mismatch in hstack")
    return Matrix(a.field, [ra + rb for ra, rb in zip(a.rows, b.rows)], a.ncols + b.ncols)


def vstack(a: Matrix, b: Matrix) -> Matrix:
    if a.ncols != b.ncols:
        raise ValueError("column count mismatch in vstack")
    return Matrix(a.field, a.rows + b.rows, a.ncols)


def block_diag(field, blocks) -> Matrix:
    nr = sum(b.nrows for b in blocks)
    nc = sum(b.ncols for b in blocks)
    out = Matrix.zeros(field, nr, nc)
    r0 = c0 = 0
    for b in blocks:
        for i, row in enumerate(b.rows):
            out.rows[r0 + i][c0:c0 + b.ncols] = list(row)
        r0 += b.nrows
        c0 += b.ncols
    return out


# -- elimination ------------------------------------------------------


def _rref(field, rows):
    """Reduced row echelon form; returns (nonzero rows, pivot cols).

    Pivot order is fixed: columns scanned left to right, first row with a
    nonzero entry wins.  Rows are fully reduced (zeros above pivots too),
    so the output is canonical for the row space.  The caller's rows are
    left unchanged.  Over Q the rows are ``Fraction``s, over F_p ``int``
    residues in [0, p).
    """
    if not rows or not rows[0]:
        return [], []
    if field.char == 0:
        return _rref_rational(rows)
    return _rref_residues(field.char, rows)


def _pivot_loop(m, eliminate):
    """Apply the pivot rule to the rows m in place; return the pivot columns.

    For each column, left to right, the first row at or below the next
    pivot position with a nonzero entry is swapped up to it, and
    ``eliminate(m, r, c)`` clears column c in every other row.
    """
    nrows = len(m)
    pivots = []
    for c in range(len(m[0])):
        r = len(pivots)
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        eliminate(m, r, c)
        pivots.append(c)
        if len(pivots) == nrows:
            break
    return pivots


def _rref_rational(rows):
    m = []
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (d // x.denominator) for x in row])

    def eliminate(m, r, c):
        prow = m[r]
        a = prow[c]
        for i, row in enumerate(m):
            b = row[c]
            if i == r or not b:
                continue
            g = gcd(a, b)
            ag, bg = a // g, b // g
            new = [ag * x - bg * y for x, y in zip(row, prow)]
            content = gcd(*new)
            m[i] = [x // content for x in new] if content > 1 else new

    pivots = _pivot_loop(m, eliminate)
    zero = Fraction(0)
    return [[Fraction(x, row[p]) if x else zero for x in row]
            for row, p in zip(m, pivots)], pivots


def _rref_residues(p, rows):
    m = [[x % p for x in row] for row in rows]

    def eliminate(m, r, c):
        inv = pow(m[r][c], p - 2, p)
        prow = m[r] = [x * inv % p for x in m[r]]
        support = [(j, y) for j, y in enumerate(prow) if y]
        for i, row in enumerate(m):
            b = row[c]
            if i == r or not b:
                continue
            for j, y in support:
                row[j] = (row[j] - b * y) % p

    pivots = _pivot_loop(m, eliminate)
    return m[:len(pivots)], pivots


def rank(m: Matrix) -> int:
    return len(_rref(m.field, m.rows)[1])


@dataclass
class SubspaceBasis:
    """A list of independent coordinate vectors spanning a subspace.

    ``leads``, when given, holds one lead column per vector (see the
    module docstring); it is checked on construction.
    """

    field: object
    ambient_dim: int
    vectors: list = dc_field(default_factory=list)
    leads: Optional[list] = dc_field(default=None, compare=False)

    def __post_init__(self):
        for v in self.vectors:
            if len(v) != self.ambient_dim:
                raise ValueError("basis vector has wrong ambient dimension")
        if self.leads is None:
            return
        if len(self.leads) != len(self.vectors):
            raise ValueError("one lead column per basis vector is needed")
        zero, one = self.field.zero, self.field.one
        for i, v in enumerate(self.vectors):
            for k, j in enumerate(self.leads):
                if v[j] != (one if k == i else zero):
                    raise ValueError(f"basis vector {i} breaks the lead-column "
                                     f"pattern at column {j}")

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def combine(self, coeffs) -> list:
        """The vector sum of coeffs[i] * vectors[i]."""
        f = self.field
        out = [f.zero] * self.ambient_dim
        for c, v in zip(coeffs, self.vectors):
            if f.is_zero(c):
                continue
            for k, x in enumerate(v):
                if not f.is_zero(x):
                    out[k] = f.add(out[k], f.mul(c, x))
        return out

    def matrix_of_columns(self) -> Matrix:
        """Matrix whose columns are the basis vectors."""
        return Matrix.from_columns(self.field, self.ambient_dim, self.vectors)


def row_space_basis(m: Matrix) -> SubspaceBasis:
    rows, pivots = _rref(m.field, m.rows)
    return SubspaceBasis(m.field, m.ncols, rows, pivots)


def column_space_basis(m: Matrix) -> SubspaceBasis:
    rows, pivots = _rref(m.field, [m.col(j) for j in range(m.ncols)])
    return SubspaceBasis(m.field, m.nrows, rows, pivots)


def kernel_basis(m: Matrix) -> SubspaceBasis:
    """Canonical basis of the right kernel {x : m @ x = 0}.

    One vector per free column, in ascending column order, each with a 1
    in its free coordinate.
    """
    f = m.field
    rows, pivots = _rref(f, m.rows)
    pivot_set = set(pivots)
    free = [j for j in range(m.ncols) if j not in pivot_set]
    vectors = []
    for j in free:
        v = [f.zero] * m.ncols
        v[j] = f.one
        for r, p in enumerate(pivots):
            v[p] = f.neg(rows[r][j])
        vectors.append(v)
    return SubspaceBasis(f, m.ncols, vectors, free)


def solve(m: Matrix, b) -> Optional[list]:
    """One exact solution of m @ x = b (free variables set to 0), or None."""
    if len(b) != m.nrows:
        raise ValueError("right-hand side has wrong length")
    f = m.field
    aug = [list(r) + [bi] for r, bi in zip(m.rows, b)]
    rows, pivots = _rref(f, aug)
    for r, p in zip(rows, pivots):
        if p == m.ncols:
            return None  # pivot in the augmented column: inconsistent
    x = [f.zero] * m.ncols
    for r, p in zip(rows, pivots):
        x[p] = r[m.ncols]
    return x


class QuotientSpace:
    """A quotient k^n / W with a canonical coset reducer.

    The reducer subtracts the pivot components against the RREF basis of
    W, is linear and idempotent, and vanishes exactly on W, so reduced
    vectors are canonical coset representatives.
    """

    def __init__(self, field, ambient_dim: int, subspace: SubspaceBasis):
        if subspace.ambient_dim != ambient_dim:
            raise ValueError("subspace does not live in the given ambient space")
        self.field = field
        self.ambient_dim = ambient_dim
        self.subspace = subspace
        self._rows, self._pivots = _rref(field, subspace.vectors)
        self.dim = ambient_dim - len(self._rows)

    def reduce(self, vec):
        if len(vec) != self.ambient_dim:
            raise ValueError("vector has wrong ambient dimension")
        f = self.field
        v = list(vec)
        for row, p in zip(self._rows, self._pivots):
            c = v[p]
            if f.is_zero(c):
                continue
            v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
        return v

    def contains(self, vec) -> bool:
        f = self.field
        return all(f.is_zero(x) for x in self.reduce(vec))

    def free_coordinates(self):
        """Indices of the non-pivot coordinates (a transversal basis)."""
        pivot_set = set(self._pivots)
        return [j for j in range(self.ambient_dim) if j not in pivot_set]


def quotient(field, ambient_dim: int, subspace: SubspaceBasis) -> QuotientSpace:
    return QuotientSpace(field, ambient_dim, subspace)


def coordinates_in_basis(basis: SubspaceBasis, vec) -> Optional[list]:
    """Coordinates of vec in the given basis, or None if it lies outside.

    With lead columns the coordinates are read off and the membership is
    checked by recombining; without them the basis is solved against.
    """
    if basis.leads is None:
        return solve(basis.matrix_of_columns(), vec)
    if len(vec) != basis.ambient_dim:
        raise ValueError("vector has wrong ambient dimension")
    f = basis.field
    coords = [vec[j] for j in basis.leads]
    if not all(f.is_zero(f.sub(x, y)) for x, y in zip(basis.combine(coords), vec)):
        return None
    return coords


def kron_add(field, rows, row0: int, col0: int, coeff, A: Matrix, B: Matrix) -> None:
    """Add coeff * (A kron B^T) into the row lists at offset (row0, col0).

    This is the block of X |-> coeff * A X B in row-major coordinates:
    entry (p, q) of X sends coeff * A[i][p] * B[q][j] to entry (i, j) of
    the image, i.e. to row row0 + i * B.ncols + j and column
    col0 + p * B.nrows + q.
    """
    nq, nj = B.nrows, B.ncols
    for i, arow in enumerate(A.rows):
        for p, a in enumerate(arow):
            if field.is_zero(a):
                continue
            ca = field.mul(coeff, a)
            for q, brow in enumerate(B.rows):
                col = col0 + p * nq + q
                for j, b in enumerate(brow):
                    if not field.is_zero(b):
                        row = rows[row0 + i * nj + j]
                        row[col] = field.add(row[col], field.mul(ca, b))


def linear_map_matrix(field, domain_dim: int, codomain_dim: int,
                      apply_fn: Callable) -> Matrix:
    """Matrix of a linear map given as a function on coordinate vectors."""
    cols = []
    for j in range(domain_dim):
        e = [field.zero] * domain_dim
        e[j] = field.one
        image = apply_fn(e)
        if len(image) != codomain_dim:
            raise ValueError("map produced a vector of the wrong length")
        cols.append(image)
    return Matrix.from_columns(field, codomain_dim, cols)


def vec_add(field, u, v):
    return [field.add(a, b) for a, b in zip(u, v)]


def vec_scale(field, c, v):
    return [field.mul(c, x) for x in v]
