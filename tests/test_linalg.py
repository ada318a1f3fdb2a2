from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverext.fields import QQ, PrimeField
from quiverext.linalg import (
    Matrix,
    QuotientSpace,
    SubspaceBasis,
    block_diag,
    column_space_basis,
    coordinates_in_basis,
    hstack,
    kernel_basis,
    kron_add,
    linear_map_matrix,
    row_space_basis,
    solve,
    vstack,
)

F101 = PrimeField(101)

small_ints = st.integers(min_value=-6, max_value=6)


@st.composite
def rational_matrices(draw, max_dim=4):
    nrows = draw(st.integers(min_value=0, max_value=max_dim))
    ncols = draw(st.integers(min_value=0, max_value=max_dim))
    rows = [[Fraction(draw(small_ints)) for _ in range(ncols)]
            for _ in range(nrows)]
    return Matrix(QQ, rows, ncols)


@given(rational_matrices())
def test_rank_equals_transpose_rank(m):
    assert m.rank() == m.transpose().rank()


@given(rational_matrices())
def test_kernel_vectors_are_killed(m):
    ker = kernel_basis(m)
    assert ker.dim == m.ncols - m.rank()
    for v in ker.vectors:
        assert all(x == 0 for x in m.apply(v))


@given(rational_matrices(), st.lists(small_ints, min_size=0, max_size=4))
def test_solve_recovers_a_preimage(m, raw):
    x0 = [Fraction(c) for c in raw[:m.ncols]]
    x0 += [Fraction(0)] * (m.ncols - len(x0))
    b = m.apply(x0)
    x = solve(m, b)
    assert x is not None
    assert m.apply(x) == b


@given(rational_matrices())
def test_row_space_basis_is_canonical(m):
    first = row_space_basis(m)
    again = row_space_basis(Matrix(QQ, first.vectors, m.ncols))
    assert first.vectors == again.vectors
    assert first.dim == m.rank()


@given(rational_matrices())
def test_quotient_reduce_is_idempotent_and_kills_the_subspace(m):
    sub = row_space_basis(m)
    quot = QuotientSpace(QQ, m.ncols, sub)
    for v in sub.vectors:
        assert quot.contains(v)
    probe = [Fraction(i + 1) for i in range(m.ncols)]
    once = quot.reduce(probe)
    assert quot.reduce(once) == once
    assert quot.dim == m.ncols - sub.dim


@given(st.integers(min_value=1, max_value=4), st.data())
def test_inverse_of_shear_products(n, data):
    mat = Matrix.identity(QQ, n)
    for _ in range(2 * n):
        i = data.draw(st.integers(min_value=0, max_value=n - 1))
        j = data.draw(st.integers(min_value=0, max_value=n - 1))
        if i == j:
            continue
        c = Fraction(data.draw(small_ints))
        rows = [list(r) for r in mat.rows]
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        mat = Matrix(QQ, rows, n)
    inv = mat.inverse()
    assert mat @ inv == Matrix.identity(QQ, n)
    assert inv @ mat == Matrix.identity(QQ, n)


def test_prime_field_arithmetic_round_trip():
    f = F101
    for a in range(-5, 6):
        x = f.of(a)
        if a % 101:
            assert f.mul(x, f.inv(x)) == f.one
    with pytest.raises(ZeroDivisionError):
        f.of_fraction(Fraction(1, 101))


@st.composite
def tiny_matrices(draw):
    nrows = draw(st.integers(min_value=0, max_value=3))
    ncols = draw(st.integers(min_value=0, max_value=3))
    rows = [[Fraction(draw(st.integers(min_value=-2, max_value=2)))
             for _ in range(ncols)] for _ in range(nrows)]
    return Matrix(QQ, rows, ncols)


@settings(max_examples=60)
@given(tiny_matrices())
def test_rank_agrees_mod_101_for_tiny_integer_matrices(m):
    """Reduction mod p can only drop the rank, and dropping needs a
    nonzero minor divisible by p; every minor here is bounded by the
    Hadamard estimate (2*sqrt(3))**3 < 101, so the ranks must agree."""
    rows = [[F101.of_fraction(x) for x in r] for r in m.rows]
    assert Matrix(F101, rows, m.ncols).rank() == m.rank()


def test_stacking_shapes_and_entries():
    a = Matrix(QQ, [[Fraction(1), Fraction(2)]], 2)
    b = Matrix(QQ, [[Fraction(3), Fraction(4)]], 2)
    assert vstack(a, b).rows == [[1, 2], [3, 4]]
    assert hstack(a, b).rows == [[1, 2, 3, 4]]
    d = block_diag(QQ, [a, b])
    assert d.shape() == (2, 4)
    assert d.entry(0, 0) == 1 and d.entry(1, 2) == 3
    assert d.entry(0, 2) == 0 and d.entry(1, 0) == 0


def test_kernel_basis_free_columns_are_unit_coordinates():
    m = Matrix(QQ, [[Fraction(1), Fraction(2), Fraction(0), Fraction(1)]], 4)
    ker = kernel_basis(m)
    assert ker.dim == 3
    free = QuotientSpace(QQ, 4, row_space_basis(m)).free_coordinates()
    for v, j in zip(ker.vectors, free):
        assert v[j] == 1


def test_coordinates_in_basis_none_outside():
    basis = SubspaceBasis(QQ, 3, [[Fraction(1), Fraction(0), Fraction(0)]])
    assert coordinates_in_basis(basis, [Fraction(2), Fraction(0), Fraction(0)]) == [2]
    assert coordinates_in_basis(basis, [Fraction(0), Fraction(1), Fraction(0)]) is None


def test_linear_map_matrix_columns_are_images():
    fn = lambda v: [v[0] + v[1], v[0] - v[1]]
    m = linear_map_matrix(QQ, 2, 2, fn)
    assert m.rows == [[1, 1], [1, -1]]


def test_column_space_basis_dimension():
    m = Matrix(QQ, [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], 2)
    assert column_space_basis(m).dim == 1


# -- lead-column readout against the solve route -----------------------------


@st.composite
def field_matrices(draw, max_dim=5):
    """A small integer matrix over Q or F101, with its field."""
    field = draw(st.sampled_from([QQ, F101]))
    nrows = draw(st.integers(min_value=0, max_value=max_dim))
    ncols = draw(st.integers(min_value=1, max_value=max_dim))
    rows = [[field.of(draw(st.integers(min_value=-3, max_value=3)))
             for _ in range(ncols)] for _ in range(nrows)]
    return Matrix(field, rows, ncols)


def _lead_bases(m):
    return [kernel_basis(m), row_space_basis(m), column_space_basis(m)]


@given(field_matrices(), st.lists(st.integers(min_value=-4, max_value=4),
                                  min_size=5, max_size=5))
def test_readout_equals_solve_on_canonical_bases(m, raw):
    f = m.field
    for basis in _lead_bases(m):
        assert basis.leads is not None
        coeffs = [f.of(c) for c in raw[:basis.dim]]
        vec = basis.combine(coeffs)
        coords = coordinates_in_basis(basis, vec)
        assert coords == solve(basis.matrix_of_columns(), vec)
        assert coords == coeffs


@given(field_matrices())
def test_readout_rejects_vectors_outside_the_span(m):
    f = m.field
    for basis in _lead_bases(m):
        if basis.dim == basis.ambient_dim:
            continue
        quot = QuotientSpace(f, basis.ambient_dim, basis)
        outside = [f.zero] * basis.ambient_dim
        outside[quot.free_coordinates()[0]] = f.one
        assert solve(basis.matrix_of_columns(), outside) is None
        assert coordinates_in_basis(basis, outside) is None
        # a vector agreeing with a member at every lead column, but not elsewhere
        if basis.dim:
            shifted = basis.combine([f.one] * basis.dim)
            shifted = [f.add(x, y) for x, y in zip(shifted, outside)]
            if all(f.is_zero(outside[j]) for j in basis.leads):
                assert coordinates_in_basis(basis, shifted) is None


def test_hand_built_basis_without_leads_is_solved():
    basis = SubspaceBasis(QQ, 3, [[Fraction(1), Fraction(1), Fraction(0)],
                                  [Fraction(0), Fraction(1), Fraction(1)]])
    assert basis.leads is None
    vec = [Fraction(2), Fraction(5), Fraction(3)]
    assert coordinates_in_basis(basis, vec) == [2, 3]
    assert coordinates_in_basis(basis, [Fraction(1), Fraction(0), Fraction(1)]) is None


def test_lead_columns_are_checked():
    f = F101
    with pytest.raises(ValueError):
        SubspaceBasis(f, 2, [[1, 1], [0, 1]], [0, 1])
    with pytest.raises(ValueError):
        SubspaceBasis(f, 2, [[1, 0]], [0, 1])
    ok = SubspaceBasis(f, 3, [[1, 0, 5], [0, 1, 7]], [0, 1])
    assert coordinates_in_basis(ok, [2, 3, f.add(10, 21)]) == [2, 3]
    assert coordinates_in_basis(ok, [2, 3, 0]) is None


@st.composite
def sandwich_cases(draw):
    """Matrices A, B over one field and a coefficient, for X |-> c A X B."""
    field = draw(st.sampled_from([QQ, F101]))
    dims = [draw(st.integers(min_value=0, max_value=3)) for _ in range(4)]
    entry = st.integers(min_value=-3, max_value=3)

    def matrix(nrows, ncols):
        return Matrix(field, [[field.of(draw(entry)) for _ in range(ncols)]
                              for _ in range(nrows)], ncols)

    return matrix(dims[0], dims[1]), matrix(dims[2], dims[3]), field.of(draw(entry))


@given(sandwich_cases())
def test_kron_add_is_the_block_of_a_sandwich(case):
    """coeff * (A kron B^T) at an offset equals the probed map X |-> c A X B."""
    a, b, coeff = case
    f = a.field
    nx_rows, nx_cols = a.ncols, b.nrows

    def sandwich(vec):
        x = Matrix(f, [vec[i * nx_cols:(i + 1) * nx_cols] for i in range(nx_rows)],
                   nx_cols)
        image = (a @ x @ b).scale(coeff)
        return [e for row in image.rows for e in row]

    probe = linear_map_matrix(f, nx_rows * nx_cols, a.nrows * b.ncols, sandwich)
    rows = [[f.zero] * (nx_rows * nx_cols + 2) for _ in range(a.nrows * b.ncols + 1)]
    kron_add(f, rows, 1, 2, coeff, a, b)
    assert rows[0] == [f.zero] * len(rows[0])
    assert all(r[:2] == [f.zero, f.zero] for r in rows)
    assert [r[2:] for r in rows[1:]] == probe.rows
