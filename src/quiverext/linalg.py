"""Exact dense linear algebra over Q or F_p.

A linear map X -> Y is stored as a (dim Y) x (dim X) matrix acting on
column vectors.  Every elimination goes through one pivot loop,
``_echelon``, which picks an eliminate step by the characteristic and
uses the same pivot rule (leftmost column first, first nonzero row):

* over Q, Gauss-Jordan on integer rows (Bareiss 1968 style): a row of
  ``int``s goes in as it is and the denominators of any other row are
  cleared, a row is updated as (a/g) row - (b/g) pivot row with
  g = gcd(a, b) and divided by the gcd of its entries, and each pivot row
  is divided by its pivot d once at the end, as x // d where d divides x
  and ``Fraction(x, d)`` elsewhere;
* over F_p, Gauss-Jordan on ``int`` residues, where the pivot row is
  scaled once by the inverse of its pivot and only its nonzero columns
  are updated in the other rows.

Neither calls the field's methods per entry.  ``_rref(field, rows)``
clears each pivot column above and below and then divides by the
pivots; ``_forward_pivots``, and so ``rank``, clears only below each
pivot (forward elimination), so it finds the same pivots with no back
substitution, no division by the pivots and no ``Fraction``.  Callers
that read only a dimension or a set of pivot columns use them.  The
reduced row echelon form is unique for the row space, so echelon
forms, kernel bases and coset representatives are canonical and
reproducible run to run, and equal to those of elimination through the
field methods (the tests keep that elimination as their oracle).

Lead columns.  A ``SubspaceBasis`` records one lead column per vector:
vector i has a 1 at its own lead column and a 0 at every other lead
column.  ``kernel_basis`` records its free columns, and
``row_space_basis`` and ``column_space_basis`` record the pivots of
their RREF rows.  The coordinates of a vector in such a basis are its
entries at the lead columns; ``coordinates_in_basis`` reads them off and
then checks membership exactly (the combination must give the vector
back), so it needs no elimination.  The same pattern makes the basis
its own coset reducer: subtracting vec[lead_i] times vector i for each
i leaves the one vector of vec + W that is zero at every lead
(``SubspaceBasis.reduce``).  For an RREF basis the leads are its
pivots, so the representatives are those of reducing against the RREF
of W, with no second elimination.

Canonical entries.  Every entry these kernels emit is in its field's
canonical form: a residue in [0, p) over F_p, and over Q an ``int`` when
it is integral and a ``Fraction`` with denominator > 1 otherwise.  The
field owns that rule: ``field.canon(xs)`` returns a row in canonical
form, and the kernels call it on each row they emit rather than branch
on the characteristic.  They accept any exact input (unreduced
residues, or ``int``s and ``Fraction``s in any form), so integral
rationals stay cheap ``int``s from the parsed module matrices to the
reported bases, and ``Matrix`` equality compares canonical forms.

Products.  Matrix products, matrix-vector products, basis recombination
(``SubspaceBasis.combine``, and through it the lead-column readout) all
go through one private kernel, ``_product(field, a_rows, b_rows,
ncols)``.  It lists the nonzero entries of the right factor once per
call, walks only those, multiplies and adds with Python operators, and
brings each output row to its canonical form once, with ``field.canon``.
``SubspaceBasis.reduce``, the entrywise ``Matrix`` arithmetic and the
vector build of ``kernel_basis`` follow the same rule: operators, then
one ``canon`` per emitted row.  ``kron_add`` adds into rows it does not
own, so it brings each touched entry to canonical form itself.  Over Q the
kernel does not clear denominators: most products here are of 1x1 and
2x2 blocks, and clearing denominators in every product made the Q
workloads slower, not faster.  Matrices built
by these kernels are adopted without the copy and checks of
``Matrix(...)``; the field objects' methods stay for the other modules,
and the tests keep the field-method bodies these kernels replaced as
their oracles.

Constraint systems of the form X |-> A X B on row-major coordinates are
assembled block by block with ``kron_add``.  Both cochain differentials
go through it: the Hom system ``rep.hom_system`` (two blocks per arrow,
f_t M_a and -N_a f_s) and the relation system of the cocycles
(``ext1.relation_boundary_matrix``, whose blocks
``ext2.yoneda_matrices`` reads).  The other systems are built from the
images of basis vectors (``Matrix.from_columns``).  An identity factor,
the identity on the other side of f in the Hom system or an empty arrow
word in the relation system, is handed to ``kron_add`` as its size
instead of a matrix.  Pushing unit vectors
through a closure (``linear_map_matrix``) is kept only for the
dual-number oracle: it must reach its counts by a route that shares no
system assembly with the tangent-pair computations it checks.

Block matrices on the hot paths write each row once, with no zero or
identity block: ``block_diag`` (direct sums, so the projective covers),
the splices [[U, Z], [0, V]] (``ext1._splice``) and the middle terms'
inclusions and projections (``ext1.middle_term``), and the arrows of
every kernel, so of every syzygy, read from one product per arrow
(``rep.kernel_representation``).
The other block matrices (block scalings, the dual-number operator) are
stacked with ``block_diag``, ``hstack`` and ``vstack`` from
``Matrix.zeros`` and ``Matrix.identity``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Callable, Optional

from .fields import canonical


class Matrix:
    """An immutable-by-convention dense matrix over an exact field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols=None):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            if ncols is not None and ncols != self.ncols:
                raise ValueError(f"rows of length {self.ncols} contradict "
                                 f"the column count {ncols}")
            for r in self.rows:
                if len(r) != self.ncols:
                    raise ValueError("ragged rows in matrix")
        else:
            if ncols is None:
                raise ValueError("a 0-row matrix needs an explicit column count")
            self.ncols = ncols

    @classmethod
    def _adopt(cls, field, rows, ncols) -> "Matrix":
        """Take ownership of freshly built rows of length ncols, unchecked."""
        m = object.__new__(cls)
        m.field, m.rows, m.nrows, m.ncols = field, rows, len(rows), ncols
        return m

    # -- constructors ------------------------------------------------

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero
        return cls._adopt(field, [[z] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls._adopt(field, [[o if i == j else z for j in range(n)]
                                  for i in range(n)], n)

    @classmethod
    def from_columns(cls, field, nrows: int, cols) -> "Matrix":
        """The nrows x len(cols) matrix whose columns are the given lists."""
        return cls(field, [[c[i] for c in cols] for i in range(nrows)], len(cols))

    # -- shape and access --------------------------------------------

    def shape(self):
        return (self.nrows, self.ncols)

    def col(self, j: int):
        return [r[j] for r in self.rows]

    def is_zero(self) -> bool:
        return not any(map(any, map(self.field.canon, self.rows)))

    def __eq__(self, other):
        """Equal fields, shapes and entries; rows that differ as Python
        values are compared again in canonical form."""
        if not (isinstance(other, Matrix) and self.field == other.field
                and self.shape() == other.shape()):
            return False
        canon = self.field.canon
        return self.rows == other.rows or all(
            canon(r) == canon(s) for r, s in zip(self.rows, other.rows))

    def __repr__(self):
        f = self.field
        body = "; ".join(" ".join(f.to_str(x) for x in r) for r in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: [{body}])"

    # -- arithmetic ---------------------------------------------------

    def _check_same_shape(self, other, op):
        if self.shape() != other.shape():
            raise ValueError(f"shape mismatch {self.shape()} {op} {other.shape()}")

    def _canon(self, rows) -> "Matrix":
        """Adopt raw rows of this shape, each brought to canonical form."""
        return Matrix._adopt(self.field, list(map(self.field.canon, rows)), self.ncols)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other, "+")
        return self._canon([a + b for a, b in zip(r, s)]
                           for r, s in zip(self.rows, other.rows))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other, "-")
        return self._canon([a - b for a, b in zip(r, s)]
                           for r, s in zip(self.rows, other.rows))

    def __neg__(self) -> "Matrix":
        return self._canon([-a for a in r] for r in self.rows)

    def scale(self, c) -> "Matrix":
        return self._canon([c * a for a in r] for r in self.rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape()} @ {other.shape()}")
        return Matrix._adopt(self.field,
                             _product(self.field, self.rows, other.rows, other.ncols),
                             other.ncols)

    def apply(self, vec):
        """Matrix-vector product on a plain list."""
        if len(vec) != self.ncols:
            raise ValueError("vector length does not match column count")
        return [r[0] for r in _product(self.field, self.rows, [[x] for x in vec], 1)]

    def transpose(self) -> "Matrix":
        if self.nrows == 0:
            return Matrix._adopt(self.field, [[] for _ in range(self.ncols)], 0)
        return Matrix._adopt(self.field, [list(c) for c in zip(*self.rows)], self.nrows)

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


def _support(rows):
    """For each row, the (column, entry) pairs of its nonzero entries."""
    return [[(j, y) for j, y in enumerate(row) if y] for row in rows]


def _product(field, a_rows, b_rows, ncols):
    """The rows of the product of a_rows with b_rows (ncols columns).

    The nonzero entries of b_rows are listed once; each entry of a_rows
    that is nonzero then touches only those of its row of b_rows.
    Entries are multiplied and summed with Python operators, and each
    output row is brought to its canonical form once, at the end, by
    ``field.canon``.  The output rows are new lists.
    """
    support = _support(b_rows)
    zero, canon = field.zero, field.canon
    out = []
    for arow in a_rows:
        acc = [zero] * ncols
        for a, srow in zip(arow, support):
            if a:
                for j, y in srow:
                    acc[j] += a * y
        out.append(canon(acc))
    return out


def hstack(a: Matrix, b: Matrix) -> Matrix:
    if a.nrows != b.nrows:
        raise ValueError("row count mismatch in hstack")
    return Matrix(a.field, [ra + rb for ra, rb in zip(a.rows, b.rows)], a.ncols + b.ncols)


def vstack(a: Matrix, b: Matrix) -> Matrix:
    if a.ncols != b.ncols:
        raise ValueError("column count mismatch in vstack")
    return Matrix(a.field, a.rows + b.rows, a.ncols)


def block_diag(field, blocks) -> Matrix:
    nc = sum(b.ncols for b in blocks)
    zero = field.zero
    rows, c0 = [], 0
    for b in blocks:
        c1 = c0 + b.ncols
        for row in b.rows:
            out = [zero] * nc
            out[c0:c1] = row
            rows.append(out)
        c0 = c1
    return Matrix._adopt(field, rows, nc)


# -- elimination ------------------------------------------------------


def _rref(field, rows):
    """Reduced row echelon form; returns (nonzero rows, pivot cols).

    Pivot order is fixed: columns scanned left to right, first row with a
    nonzero entry wins.  Rows are fully reduced (zeros above pivots too),
    so the output is canonical for the row space.  The caller's rows are
    left unchanged.  Over Q the entries are canonical (``int`` when
    integral, else ``Fraction``), over F_p ``int`` residues in [0, p).
    """
    if not rows or not rows[0]:
        return [], []
    p = field.char
    m, pivots = _echelon(p, rows, full=True)
    if p:
        return m[:len(pivots)], pivots
    out = []
    for row, c in zip(m, pivots):
        d = row[c]
        if d == 1:
            out.append(list(row))
        else:
            out.append([Fraction(x, d) if x % d else x // d for x in row])
    return out, pivots


def _echelon(p, rows, full):
    """Apply the pivot rule to working copies of rows; return (rows, pivots).

    The working rows are ``int``s: residues over F_p (p > 0), and over Q
    (p = 0) each row with its denominators cleared.  For each column, left
    to right, the first row at or below the next pivot position with a
    nonzero entry is swapped up to it, and column c is cleared in the
    rows below it, and with ``full`` in the rows above it too.  Clearing
    only below is forward elimination: it finds the same pivots, and so
    the rank, with no back substitution.
    """
    if p:
        m = [[x % p for x in row] for row in rows]
        eliminate = _eliminate_residues
    else:
        # eliminate replaces rows, it never writes into one
        m = [_integer_row(row) for row in rows]
        eliminate = _eliminate_integers
    nrows = len(m)
    pivots = []
    for c in range(len(m[0])):
        r = len(pivots)
        for pr in range(r, nrows):
            if m[pr][c]:
                break
        else:
            continue
        m[r], m[pr] = m[pr], m[r]
        eliminate(p, m, r, c, 0 if full else r + 1)
        pivots.append(c)
        if len(pivots) == nrows:
            break
    return m, pivots


def _integer_row(row):
    """A row over Q with its denominators cleared: the row itself when
    every entry is an ``int``, else a new row scaled by their lcm."""
    if set(map(type, row)) <= {int}:
        return row
    d = lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row]


def _eliminate_integers(p, m, r, c, start):
    """Clear column c of the rows from start on (not r) against row r.

    A row becomes (a/g) row - (b/g) pivot row, g = gcd(a, b), divided by
    the gcd of its entries; rows are replaced, never written into.
    """
    prow = m[r]
    a = prow[c]
    for i in range(start, len(m)):
        row = m[i]
        b = row[c]
        if i == r or not b:
            continue
        g = gcd(a, b)
        ag, bg = a // g, b // g
        new = [ag * x - bg * y for x, y in zip(row, prow)]
        content = gcd(*new)
        m[i] = [x // content for x in new] if content > 1 else new


def _eliminate_residues(p, m, r, c, start):
    """Scale row r to a leading 1 and clear column c of the rows from
    start on (not r), touching only the pivot row's nonzero columns."""
    inv = pow(m[r][c], p - 2, p)
    prow = m[r] = [x * inv % p for x in m[r]]
    support = [(j, y) for j, y in enumerate(prow) if y]
    for i in range(start, len(m)):
        row = m[i]
        b = row[c]
        if i == r or not b:
            continue
        for j, y in support:
            row[j] = (row[j] - b * y) % p


def _forward_pivots(field, rows) -> list:
    """The pivot columns of rows, by forward elimination under ``_rref``'s
    pivot rule.

    Only the rows below each pivot are cleared: there is no back
    substitution, no division by the pivots, and over Q no ``Fraction``
    is built.  The pivots are those of ``_rref``.
    """
    if not rows or not rows[0]:
        return []
    return _echelon(field.char, rows, full=False)[1]


def rank(m: Matrix) -> int:
    """The rank of m, the number of its ``_forward_pivots``."""
    return len(_forward_pivots(m.field, m.rows))


@dataclass
class SubspaceBasis:
    """A list of independent coordinate vectors spanning a subspace W.

    ``leads`` holds one lead column per vector (see the module
    docstring); it is checked on construction.  The leads make the basis
    its own coset reducer: ``reduce`` returns the representative of
    vec + W that is zero at every lead column.
    """

    field: object
    ambient_dim: int
    vectors: list
    leads: list = dc_field(compare=False)

    def __post_init__(self):
        for v in self.vectors:
            if len(v) != self.ambient_dim:
                raise ValueError("basis vector has wrong ambient dimension")
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
        return _product(self.field, [coeffs], self.vectors, self.ambient_dim)[0]

    def matrix_of_columns(self) -> Matrix:
        """Matrix whose columns are the basis vectors."""
        return Matrix.from_columns(self.field, self.ambient_dim, self.vectors)

    @cached_property
    def _vector_support(self):
        return _support(self.vectors)

    def reduce(self, vec) -> list:
        """The canonical representative of the coset vec + W.

        Vector i is 1 at its own lead and 0 at every other lead, so
        subtracting vec[lead_i] * vector i for each i (all read off vec
        before subtracting) leaves the vector of vec + W that is zero at
        every lead.  The reducer is linear, idempotent and zero exactly
        on W.
        """
        if len(vec) != self.ambient_dim:
            raise ValueError("vector has wrong ambient dimension")
        v = list(vec)
        for c, srow in zip(self.leads, self._vector_support):
            a = vec[c]
            if a:
                for j, y in srow:
                    v[j] -= a * y
        return self.field.canon(v)

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def free_coordinates(self) -> list:
        """Indices of the non-lead coordinates (a basis of a complement of W)."""
        lead_set = set(self.leads)
        return [j for j in range(self.ambient_dim) if j not in lead_set]


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
    return _kernel_of_rref(m.field, m.ncols, *_rref(m.field, m.rows))


def _kernel_of_rref(f, ncols: int, rows, pivots) -> SubspaceBasis:
    """``kernel_basis`` of a matrix with ncols columns, read from the rows
    and pivots ``_rref`` returned for it."""
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    vectors = []
    for j in free:
        v = [f.zero] * ncols
        v[j] = f.one
        for row, c in zip(rows, pivots):
            v[c] = -row[j]
        vectors.append(f.canon(v))
    return SubspaceBasis(f, ncols, vectors, free)


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


def coordinates_in_basis(basis: SubspaceBasis, vec) -> Optional[list]:
    """Coordinates of vec in the given basis, or None if it lies outside.

    The coordinates are the entries at the lead columns, and the
    membership is checked by recombining them.
    """
    if len(vec) != basis.ambient_dim:
        raise ValueError("vector has wrong ambient dimension")
    canon = basis.field.canon
    coords = canon([vec[j] for j in basis.leads])
    if basis.combine(coords) != canon(vec):
        return None
    return coords


def kron_add(field, rows, row0: int, col0: int, coeff, A, B) -> None:
    """Add coeff * (A kron B^T) into the row lists at offset (row0, col0).

    This is the block of X |-> coeff * A X B in row-major coordinates:
    entry (p, q) of X sends coeff * A[i][p] * B[q][j] to entry (i, j) of
    the image, i.e. to row row0 + i * B.ncols + j and column
    col0 + p * B.nrows + q.  Each touched entry gets one term, so over
    F_p it is reduced once.  A or B may be an ``int`` n standing for the
    n x n identity factor, either an empty arrow word (the relation
    system) or the identity on the other side of f (the Hom system): no
    identity matrix is built, and each of its rows contributes its one
    entry.
    """
    one, p = field.one, field.char
    if type(B) is int:
        nq = nj = B
        support = [(j, ((j, one),)) for j in range(B)]
    else:
        nq, nj = B.nrows, B.ncols
        cols = [[(q, brow[j]) for q, brow in enumerate(B.rows) if brow[j]]
                for j in range(nj)]
        support = [(j, cells) for j, cells in enumerate(cols) if cells]
    if not support:
        return
    a_cells = ([((i, one),) for i in range(A)] if type(A) is int else
               [[(k, a) for k, a in enumerate(arow) if a] for arow in A.rows])
    for i, cells_a in enumerate(a_cells):
        base = row0 + i * nj
        for k, a in cells_a:
            ca = coeff * a
            c0 = col0 + k * nq
            for j, cells in support:
                row = rows[base + j]
                if p:
                    for q, b in cells:
                        row[c0 + q] = (row[c0 + q] + ca * b) % p
                else:
                    for q, b in cells:
                        x = row[c0 + q] + ca * b
                        row[c0 + q] = x if type(x) is int else canonical(x)


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
