import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverext.fields import QQ, PrimeField
from quiverext.linalg import (
    Matrix,
    QuotientSpace,
    SubspaceBasis,
    _rref,
    block_diag,
    column_space_basis,
    coordinates_in_basis,
    hstack,
    kernel_basis,
    kron_add,
    linear_map_matrix,
    rank,
    row_space_basis,
    solve,
    vstack,
)

F101 = PrimeField(101)
F2 = PrimeField(2)

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


def _is_canonical_rational(x):
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def test_rational_field_returns_the_canonical_form():
    f = QQ
    assert type(f.zero) is int and type(f.one) is int
    half = f.div(1, 2)
    assert half == Fraction(1, 2) and type(half) is Fraction
    assert f.div(6, 3) == 2 and type(f.div(6, 3)) is int
    assert f.inv(Fraction(1, 2)) == 2 and type(f.inv(Fraction(1, 2))) is int
    assert f.inv(-3) == Fraction(-1, 3)
    for value in ("6/3", Fraction(4, 2), True, 7, -2):
        assert type(f.of(value)) is int
    assert f.of(True) == 1 and f.of("6/3") == 2
    assert type(f.of_fraction(Fraction(-6, 2))) is int
    assert f.add(Fraction(1, 2), Fraction(1, 2)) == 1
    assert type(f.add(Fraction(1, 2), Fraction(1, 2))) is int
    assert type(f.sub(Fraction(3, 2), Fraction(1, 2))) is int
    assert type(f.mul(Fraction(2, 3), Fraction(3, 2))) is int
    assert type(f.neg(Fraction(4))) is int
    assert f.mul(Fraction(1, 2), 3) == Fraction(3, 2)
    samples = [0, 1, -4, Fraction(0), Fraction(5), Fraction(1, 3), Fraction(-7, 2)]
    for a in samples:
        assert _is_canonical_rational(f.of(a)) and f.of(a) == a
        assert _is_canonical_rational(f.neg(a))
        if a:
            assert _is_canonical_rational(f.inv(a)) and f.mul(a, f.inv(a)) == 1
        for b in samples:
            for op in (f.add, f.sub, f.mul):
                assert _is_canonical_rational(op(a, b))
            if b:
                q = f.div(a, b)
                assert _is_canonical_rational(q) and q * b == a
    with pytest.raises(ZeroDivisionError):
        f.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        f.inv(Fraction(0))
    with pytest.raises(TypeError):
        f.of(0.5)


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


def test_readout_and_solve_agree_on_unreduced_and_non_canonical_input():
    basis = kernel_basis(Matrix(F101, [[1, 1, 0]], 3))
    vec = [201, 1, 207]
    assert solve(basis.matrix_of_columns(), vec) == [1, 5]
    assert coordinates_in_basis(basis, vec) == [1, 5]
    cases = [
        (Matrix(QQ, [[1, 1, 0]], 3), [Fraction(-2), Fraction(2), Fraction(6, 3)]),
        (Matrix(QQ, [[1, 1, 0], [0, 2, 1]], 3),
         [Fraction(3, 2), Fraction(-3, 2), Fraction(3)]),
    ]
    for m, vec in cases:
        basis = kernel_basis(m)
        coords = coordinates_in_basis(basis, vec)
        assert coords == solve(basis.matrix_of_columns(), vec)
        assert all(type(x) is int for x in coords)


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


# -- the field-specialised kernels against the generic elimination -----------


def _oracle_rref(field, rows):
    """Gauss-Jordan through the field methods, with the same pivot rule."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if not field.is_zero(rows[i][c]):
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not field.is_zero(rows[i][c]):
                factor = rows[i][c]
                rows[i] = [field.sub(x, field.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


SHAPES = [(4, 4), (3, 7), (7, 3), (1, 6), (6, 1), (5, 5)]


def _entry(field, rng, kind):
    if kind == "big":
        return field.of(rng.randint(-10**6, 10**6))
    if kind == "fraction" and field.char == 0:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    # sparse small integers, as in the assembled constraint systems
    return field.of(rng.choice((0, 0, 0, 1, -1, 2, -3)))


def _random_rows(field, rng, nrows, ncols, kind):
    if kind == "zero":
        return [[field.zero] * ncols for _ in range(nrows)]
    rows = [[_entry(field, rng, kind) for _ in range(ncols)] for _ in range(nrows)]
    if kind == "deficient" and nrows >= 3:
        # replace one row by a combination of two others
        i, j, k = rng.sample(range(nrows), 3)
        a, b = field.of(rng.randint(-4, 4)), field.of(rng.randint(-4, 4))
        rows[k] = [field.add(field.mul(a, x), field.mul(b, y))
                   for x, y in zip(rows[i], rows[j])]
    return rows


@pytest.mark.parametrize("field", [QQ, F101, F2], ids=["Q", "F101", "F2"])
@pytest.mark.parametrize("kind", ["sparse", "big", "fraction", "zero", "deficient"])
def test_rref_kernels_equal_the_generic_elimination(field, kind):
    rng = random.Random(f"{field.name}:{kind}")
    for _ in range(25):
        for nrows, ncols in SHAPES:
            rows = _random_rows(field, rng, nrows, ncols, kind)
            before = [list(r) for r in rows]
            got_rows, got_pivots = _rref(field, rows)
            assert rows == before, "the kernel changed its input"
            assert (got_rows, got_pivots) == _oracle_rref(field, rows)
            _assert_field_entries(field, got_rows)
            if kind == "zero":
                assert got_pivots == []
            if kind == "deficient" and nrows >= 3:
                assert len(got_pivots) < nrows


@pytest.mark.parametrize("field", [QQ, F101, F2], ids=["Q", "F101", "F2"])
@pytest.mark.parametrize("kind", ["sparse", "big", "fraction", "zero", "deficient",
                                  "unreduced"])
def test_rank_equals_the_rref_pivot_count(field, kind):
    """Forward elimination finds as many pivots as the full RREF, on every
    shape (no rows, no columns too) and on unreduced residues."""
    rng = random.Random(f"rank:{field.name}:{kind}")
    for _ in range(25):
        for nrows, ncols in SHAPES + [(0, 3), (3, 0), (2, 9), (9, 2)]:
            if kind == "unreduced":
                # residues outside [0, p); over Q, integral Fractions
                shift = (lambda x: x + rng.choice((0, field.char, -3 * field.char))
                         ) if field.char else (lambda x: rng.choice((x, Fraction(x))))
                rows = [[shift(x) for x in row]
                        for row in _random_rows(field, rng, nrows, ncols, "sparse")]
            else:
                rows = _random_rows(field, rng, nrows, ncols, kind)
            m = Matrix(field, rows, ncols)
            before = [list(r) for r in rows]
            assert rank(m) == m.rank() == len(_rref(field, rows)[1])
            assert m.rows == before, "rank changed its input"
            assert rank(m.transpose()) == rank(m)


@pytest.mark.parametrize("field", [QQ, F101, F2], ids=["Q", "F101", "F2"])
def test_rref_of_no_rows(field):
    assert _rref(field, []) == ([], [])
    assert _rref(field, [[], []]) == ([], [])


# -- the product kernels against the field-method bodies they replaced --------


def _oracle_matmul(field, a_rows, b_rows, ncols):
    out = []
    for r in a_rows:
        new = [field.zero] * ncols
        for k, a in enumerate(r):
            if field.is_zero(a):
                continue
            ok = b_rows[k]
            for j in range(ncols):
                new[j] = field.add(new[j], field.mul(a, ok[j]))
        out.append(new)
    return out


def _oracle_apply(field, rows, vec):
    out = []
    for r in rows:
        s = field.zero
        for a, x in zip(r, vec):
            s = field.add(s, field.mul(a, x))
        out.append(s)
    return out


def _oracle_combine(field, ambient_dim, vectors, coeffs):
    out = [field.zero] * ambient_dim
    for c, v in zip(coeffs, vectors):
        if field.is_zero(c):
            continue
        for k, x in enumerate(v):
            if not field.is_zero(x):
                out[k] = field.add(out[k], field.mul(c, x))
    return out


def _oracle_kron_add(field, rows, row0, col0, coeff, A, B):
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


def _oracle_reduce(field, rref_rows, pivots, vec):
    v = list(vec)
    for row, p in zip(rref_rows, pivots):
        c = v[p]
        if field.is_zero(c):
            continue
        v = [field.sub(x, field.mul(c, y)) for x, y in zip(v, row)]
    return v


def _oracle_entrywise(field, op, a_rows, b_rows=None, c=None):
    if op == "add":
        return [[field.add(x, y) for x, y in zip(r, s)] for r, s in zip(a_rows, b_rows)]
    if op == "sub":
        return [[field.sub(x, y) for x, y in zip(r, s)] for r, s in zip(a_rows, b_rows)]
    if op == "neg":
        return [[field.neg(x) for x in r] for r in a_rows]
    return [[field.mul(c, x) for x in r] for r in a_rows]  # scale


def _oracle_is_zero(field, rows):
    return all(field.is_zero(x) for r in rows for x in r)


PRODUCT_KINDS = ["sparse", "dense", "zero", "unreduced"]
PRODUCT_SHAPES = [(0, 3), (3, 0), (0, 0), (1, 1), (2, 5), (5, 2), (4, 4)]


def _kernel_entry(field, rng, kind):
    if kind == "unreduced" and field.char:
        return rng.choice((0, 1, field.char, -1, 10**6, 2 * field.char + 1))
    if kind == "dense":
        if field.char == 0:
            return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))
        return rng.randrange(1, field.char)
    return field.of(rng.choice((0, 0, 0, 0, 1, -1, 2, -3)))


def _kernel_rows(field, rng, nrows, ncols, kind):
    if kind == "zero":
        return [[field.zero] * ncols for _ in range(nrows)]
    return [[_kernel_entry(field, rng, kind) for _ in range(ncols)] for _ in range(nrows)]


def _snapshot(*row_lists):
    return [[list(r) for r in rows] for rows in row_lists]


def _assert_field_entries(field, rows):
    for row in rows:
        if field.char == 0:
            assert all(_is_canonical_rational(x) for x in row)
        else:
            assert all(type(x) is int and 0 <= x < field.char for x in row)


def _kernel_cases():
    for field in (QQ, F101, F2):
        for kind in PRODUCT_KINDS:
            if kind == "unreduced" and field.char == 0:
                continue
            yield pytest.param(field, kind, id=f"{field.name}-{kind}")


@pytest.mark.parametrize("field, kind", _kernel_cases())
def test_matmul_and_apply_equal_the_field_method_bodies(field, kind):
    rng = random.Random(f"product:{field.name}:{kind}")
    for _ in range(15):
        for n, k in PRODUCT_SHAPES:
            for m in (0, 1, 3):
                a_rows = _kernel_rows(field, rng, n, k, kind)
                b_rows = _kernel_rows(field, rng, k, m, kind)
                vec = _kernel_rows(field, rng, 1, k, kind)[0]
                a, b = Matrix(field, a_rows, k), Matrix(field, b_rows, m)
                before = _snapshot(a_rows, b_rows, [vec])
                got = a @ b
                assert got.shape() == (n, m)
                assert got.rows == _oracle_matmul(field, a_rows, b_rows, m)
                _assert_field_entries(field, got.rows)
                image = a.apply(vec)
                assert image == _oracle_apply(field, a_rows, vec)
                _assert_field_entries(field, [image])
                for row in got.rows:
                    row.append(field.one)
                image.append(field.one)
                assert _snapshot(a.rows, b.rows, [vec]) == before


@pytest.mark.parametrize("field, kind", _kernel_cases())
def test_combine_and_reduce_equal_the_field_method_bodies(field, kind):
    rng = random.Random(f"combine:{field.name}:{kind}")
    for _ in range(15):
        for dim, n in PRODUCT_SHAPES:
            vectors = _kernel_rows(field, rng, dim, n, kind)
            coeffs = _kernel_rows(field, rng, 1, dim, kind)[0]
            vec = _kernel_rows(field, rng, 1, n, kind)[0]
            before = _snapshot(vectors, [coeffs], [vec])
            basis = SubspaceBasis(field, n, vectors)
            got = basis.combine(coeffs)
            assert got == _oracle_combine(field, n, vectors, coeffs)
            _assert_field_entries(field, [got])
            quot = QuotientSpace(field, n, basis)
            reduced = quot.reduce(vec)
            # the old reducer passed entries through unreduced when no
            # pivot component was nonzero; the kernel always returns residues
            expected = [field.of(x) for x in
                        _oracle_reduce(field, quot._rows, quot._pivots, vec)]
            assert reduced == expected
            _assert_field_entries(field, [reduced])
            assert quot.contains(vec) == _oracle_is_zero(field, [expected])
            got.append(field.one)
            reduced.append(field.one)
            assert _snapshot(vectors, [coeffs], [vec]) == before


@pytest.mark.parametrize("field, kind", _kernel_cases())
def test_kron_add_equals_the_field_method_body(field, kind):
    rng = random.Random(f"kron:{field.name}:{kind}")
    for _ in range(15):
        for (ar, ac), (br, bc) in zip(PRODUCT_SHAPES, reversed(PRODUCT_SHAPES)):
            A = Matrix(field, _kernel_rows(field, rng, ar, ac, kind), ac)
            B = Matrix(field, _kernel_rows(field, rng, br, bc, kind), bc)
            coeff = _kernel_entry(field, rng, kind)
            before = _snapshot(A.rows, B.rows)
            start = _kernel_rows(field, rng, ar * bc + 2, ac * br + 1, "sparse")
            got, expected = _snapshot(start, start)
            kron_add(field, got, 1, 1, coeff, A, B)
            _oracle_kron_add(field, expected, 1, 1, coeff, A, B)
            assert got == expected
            _assert_field_entries(field, got)
            assert _snapshot(A.rows, B.rows) == before


@pytest.mark.parametrize("field, kind", _kernel_cases())
def test_kron_add_takes_an_int_for_the_identity(field, kind):
    """An int n in place of A or B is the n x n identity, entry for entry."""
    rng = random.Random(f"kron-identity:{field.name}:{kind}")
    for _ in range(5):
        for (ar, ac), (br, bc) in zip(PRODUCT_SHAPES, reversed(PRODUCT_SHAPES)):
            A = Matrix(field, _kernel_rows(field, rng, ar, ac, kind), ac)
            B = Matrix(field, _kernel_rows(field, rng, br, bc, kind), bc)
            coeff = _kernel_entry(field, rng, kind)
            for left, right in ((ar, B), (A, bc), (ar, bc)):
                eye_l, eye_r = (Matrix.identity(field, m) if type(m) is int else m
                                for m in (left, right))
                start = _kernel_rows(field, rng, eye_l.nrows * eye_r.ncols + 2,
                                     eye_l.ncols * eye_r.nrows + 1, "sparse")
                got, expected = _snapshot(start, start)
                kron_add(field, got, 1, 1, coeff, left, right)
                _oracle_kron_add(field, expected, 1, 1, coeff, eye_l, eye_r)
                assert got == expected
                _assert_field_entries(field, got)


@pytest.mark.parametrize("field, kind", _kernel_cases())
def test_entrywise_arithmetic_equals_the_field_method_bodies(field, kind):
    rng = random.Random(f"entrywise:{field.name}:{kind}")
    for _ in range(15):
        for n, m in PRODUCT_SHAPES:
            a_rows = _kernel_rows(field, rng, n, m, kind)
            b_rows = _kernel_rows(field, rng, n, m, kind)
            c = _kernel_entry(field, rng, kind)
            a, b = Matrix(field, a_rows, m), Matrix(field, b_rows, m)
            before = _snapshot(a_rows, b_rows)
            results = {"add": a + b, "sub": a - b, "neg": -a, "scale": a.scale(c)}
            for op, got in results.items():
                assert got.shape() == (n, m)
                assert got.rows == _oracle_entrywise(field, op, a_rows, b_rows, c)
                _assert_field_entries(field, got.rows)
                for row in got.rows:
                    row.append(field.one)
            assert a.is_zero() == _oracle_is_zero(field, a_rows)
            assert _snapshot(a.rows, b.rows) == before
    with pytest.raises(ValueError, match="shape mismatch"):
        Matrix.zeros(field, 1, 2) + Matrix.zeros(field, 2, 1)
    with pytest.raises(ValueError, match="shape mismatch"):
        Matrix.zeros(field, 1, 2) - Matrix.zeros(field, 2, 1)


def test_an_explicit_column_count_must_match_the_rows():
    rows = [[Fraction(1), Fraction(2)]]
    assert Matrix(QQ, rows, 2).shape() == (1, 2)
    assert Matrix(QQ, rows).shape() == (1, 2)
    with pytest.raises(ValueError, match="contradict the column count 3"):
        Matrix(QQ, rows, 3)
    with pytest.raises(ValueError, match="contradict the column count 0"):
        Matrix(F101, [[1]], 0)
    assert Matrix(F101, [], 4).shape() == (0, 4)
