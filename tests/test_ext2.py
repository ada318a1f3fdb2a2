import importlib
import itertools

import pytest

from quiverext.algebra import AlgebraBasis
from quiverext.ext1 import (
    ArrowCochain,
    RelationCochain,
    b_space,
    ext1,
    z_path,
)
from quiverext.ext2 import (
    HypothesisError,
    _cover,
    _top,
    compose_cocycles,
    ext2_small_model,
    ext2_via_omega,
    gldim_le2_check,
    indecomposable_projective,
    is_projective,
    syzygy,
    yoneda_left_omega,
)
from quiverext.cli import main
from quiverext.fields import QQ
from quiverext.fixtures import FIXTURE_NAMES, fixture_source, load_fixture
from quiverext.geometry import (
    degeneration_witness_search,
    opposite_rep,
    pd_le1,
    regularity_certificate,
)
from quiverext.iso import iso_test
from quiverext.linalg import Matrix
from quiverext.quiver import QuiverError, is_acyclic, validate_bound_quiver
from quiverext.rep import (
    Representation,
    VertexCochain,
    direct_sum,
    kernel_representation,
    simple,
    zero_rep,
)

from cases import (
    F2,
    F101,
    case_modules,
    position_pair_compose,
    standard_cover,
    standard_syzygy,
    typed,
    with_rational_conjugates,
)


@pytest.mark.parametrize("name, p_dims, omega_name", [
    ("P2", {"1": 2, "2": 1, "3": 0}, "S1"),
    ("P3", {"1": 1, "2": 2, "3": 1}, "P2"),
    ("S3", {"1": 0, "2": 1, "3": 1}, "S2"),
])
def test_presentation_shapes(f2, name, p_dims, omega_name):
    """The standard cover, on every coordinate of N, and its kernel: the
    non-minimal syzygy that the tests keep as an oracle."""
    cover = standard_cover(f2.modules[name])
    omega, incl = kernel_representation(cover)
    assert cover.source.dim_vector() == p_dims
    assert iso_test(omega, f2.modules[omega_name]).verdict == "yes"
    assert incl.is_morphism() and cover.is_morphism()


def test_presentation_of_the_square_corner(f3):
    S4 = f3.modules["S4"]
    assert iso_test(standard_cover(S4).source, f3.modules["P4"]).verdict == "yes"
    assert iso_test(standard_syzygy(S4), f3.modules["R4"]).verdict == "yes"


def test_second_extension_spot_values(f2, f3):
    m = f2.modules
    assert ext2_via_omega(m["S3"], m["S1"]).dim == 1
    assert ext2_via_omega(m["S3"], m["S2"]).dim == 0
    assert ext2_via_omega(m["P3"], m["S1"]).dim == 0
    assert ext2_via_omega(f3.modules["S4"], f3.modules["S1"]).dim == 1


def test_the_two_models_agree(f2, f3):
    pairs = [("S3", "S1"), ("S3", "S2"), ("P3", "S1"), ("M", "M"), ("N", "N")]
    for n_name, m_name in pairs:
        N, M = f2.modules[n_name], f2.modules[m_name]
        assert ext2_small_model(N, M).dim == ext2_via_omega(N, M).dim
    N, M = f3.modules["S4"], f3.modules["S1"]
    assert ext2_small_model(N, M).dim == ext2_via_omega(N, M).dim == 1


def test_relation_cochain_spaces(f2):
    m = f2.modules
    assert RelationCochain.space_dim(m["S3"], m["S1"]) == 1
    assert ext2_small_model(m["S3"], m["S1"]).bprime.dim == 0
    # for (P3, S1) the boundaries fill the whole ambient space
    full = RelationCochain.space_dim(m["P3"], m["S1"])
    assert ext2_small_model(m["P3"], m["S1"]).bprime.dim == full == 1


def counting(calls, name, real):
    """real, wrapped to append name to calls on every call."""
    def wrapped(*args):
        calls.append(name)
        return real(*args)
    return wrapped


def fresh_copy(M):
    """A new representation with M's matrices: nothing is memoised on it."""
    return Representation(M.bq, M.field, M.dims, M.mats)


def test_presentations_check_each_property_once(f3, monkeypatch):
    """The first syzygy of a module builds one cover, makes one morphism
    check, the cover's, and takes no rank: the readout shows that the
    inclusion is an injective morphism, and the kernel's dimensions show
    that the cover is onto, so neither is checked again.  A repeat call
    on the same module reads the memo: no cover, no check and no rank."""
    ext2_module = importlib.import_module("quiverext.ext2")
    linalg_module = importlib.import_module("quiverext.linalg")
    calls = []
    for N in f3.modules.values():
        syzygy(N)  # the P(y) and the algebra basis are memoised
        fresh = fresh_copy(N)
        monkeypatch.setattr(ext2_module, "_cover",
                            counting(calls, "cover", ext2_module._cover))
        monkeypatch.setattr(VertexCochain, "is_morphism",
                            counting(calls, "is_morphism", VertexCochain.is_morphism))
        monkeypatch.setattr(Matrix, "rank", counting(calls, "rank", Matrix.rank))
        for module in (linalg_module, ext2_module):
            monkeypatch.setattr(module, "rank", counting(calls, "rank", module.rank))
        built = syzygy(fresh)
        assert calls == ["cover", "is_morphism"]
        calls.clear()
        assert syzygy(fresh) is built
        assert calls == []
        monkeypatch.undo()


def test_presentations_are_exact():
    """The facts the constructions imply, checked for the minimal cover of
    ``syzygy`` and the standard one on every module of f1-f3 over Q, F101
    and F2: the cover is onto, the composite of the inclusion of its
    kernel and the cover is zero, and the dimensions add up."""
    for field in (QQ, F101, F2):
        for name in FIXTURE_NAMES:
            for N in load_fixture(name, field=field).modules.values():
                for cover in (_cover(N, _top(N))[1], standard_cover(N)):
                    omega, incl = kernel_representation(cover)
                    for x in N.bq.quiver.vertices:
                        assert cover.mats[x].rank() == N.dims[x]
                        assert (cover.mats[x] @ incl.mats[x]).is_zero()
                        assert omega.dims[x] + N.dims[x] == cover.source.dims[x]


def test_yoneda_product_of_the_simple_chain(f2):
    m = f2.modules
    Zxi = ext1(m["S2"], m["S1"]).basis_cocycles()[0]
    eta_space = ext1(m["S3"], m["S2"])
    cls = eta_space.class_of(eta_space.basis_cocycles()[0])
    model = ext2_small_model(m["S3"], m["S1"])
    product = model.class_of(compose_cocycles(Zxi, cls.representative()))
    assert not product.is_zero
    assert not yoneda_left_omega(Zxi, cls).is_zero


def test_yoneda_product_ignores_boundary_shifts(f3):
    m = f3.modules
    space = ext1(m["R4"], m["S1"])
    assert space.dim == 1
    Zxi = next(Z for Z in space.basis_cocycles()
               if not space.class_of(Z).is_zero)
    boundary = ArrowCochain.from_vector(
        m["R4"], m["S1"], b_space(m["R4"], m["S1"]).vectors[0])
    xi3 = ext1(m["S4"], m["R4"])
    rep = xi3.class_of(xi3.basis_cocycles()[0]).representative()
    model = ext2_small_model(m["S4"], m["S1"])
    plain = model.class_of(compose_cocycles(Zxi, rep))
    shifted = model.class_of(compose_cocycles(Zxi.add(boundary), rep))
    assert not plain.is_zero
    assert plain == shifted
    assert model.class_of(compose_cocycles(boundary, rep)).is_zero


def test_the_syzygy_route_product_vanishes_with_the_small_model_one():
    """yoneda_left_omega on the minimal syzygy against the small-model
    class of compose_cocycles, for every pair of basis cocycles W -> V
    and V -> M over every triple of f1-f3 modules with nonzero Ext^1(W, V)
    and Ext^1(V, M), over Q, F101 and F2.  The counts are pinned, so the
    comparison cannot pass on an empty or all-zero enumeration."""
    cases = nonzero = 0
    for field in (QQ, F101, F2):
        for name in FIXTURE_NAMES:
            mods = list(load_fixture(name, field=field).modules.values())
            for W, V in itertools.product(mods, repeat=2):
                eta = ext1(W, V)
                if not eta.dim:
                    continue
                for M in mods:
                    xi = ext1(V, M)
                    if not xi.dim:
                        continue
                    model = ext2_small_model(W, M)
                    for Z, Zeta in itertools.product(xi.basis_cocycles(),
                                                     eta.basis_cocycles()):
                        cls = eta.class_of(Zeta)
                        small = model.class_of(compose_cocycles(Z, cls.representative()))
                        assert yoneda_left_omega(Z, cls).is_zero == small.is_zero
                        cases += 1
                        nonzero += not small.is_zero
    assert (cases, nonzero) == (225, 39)


def composable_basis_pairs(mods, limit=None):
    """Every pair (Z, Zeta) of basis cocycles V -> M and W -> V over the
    triples (W, V, M) of mods with nonzero Ext^1(W, V) and Ext^1(V, M),
    at most ``limit`` of each kind per triple."""
    n = range(len(mods))
    bases = {}
    for i, j in itertools.product(n, repeat=2):
        space = ext1(mods[i], mods[j])
        bases[i, j] = space.basis_cocycles()[:limit] if space.dim else []
    for w, v, m in itertools.product(n, repeat=3):
        yield from itertools.product(bases[v, m], bases[w, v])


@pytest.mark.parametrize("field, counts", [
    (QQ, (75, 21, 459, 249)), (F101, (75, 21, 136, 59)), (F2, (75, 21, 216, 120))],
    ids=str)
def test_compose_cocycles_equals_the_position_pair_body(field, counts):
    """The splice route against the position-pair sums it replaced, entry
    for entry and type for type: on every pair of basis cocycles over the
    f1-f3 triples with nonzero Ext^1 on both sides, and on the loops
    algebra, which no gate keeps from composition (one basis cocycle a
    side there, and non-integral entries over Q).  The case counts and
    the nonzero products among them are pinned, so the comparison cannot
    pass on an empty or all-zero enumeration."""
    loops = with_rational_conjugates(case_modules("loops", field, seed=0))
    fixtures = [list(load_fixture(name, field=field).modules.values())
                for name in FIXTURE_NAMES]
    tally = []
    for pairs in (itertools.chain(*map(composable_basis_pairs, fixtures)),
                  composable_basis_pairs(loops, limit=1)):
        cases = nonzero = 0
        for Z, Zeta in pairs:
            got, want = compose_cocycles(Z, Zeta), position_pair_compose(Z, Zeta)
            assert list(got.mats) == list(want.mats)
            for key, m in want.mats.items():
                assert got.mats[key].shape() == m.shape()
                assert typed(got.mats[key].rows) == typed(m.rows)
            cases += 1
            nonzero += not want.is_zero()
        tally += [cases, nonzero]
    assert tuple(tally) == counts


def product_on_the_standard_syzygy(Z, cls):
    """The Yoneda product of ``yoneda_left_omega`` built on the standard
    cover of V, with its labels (y, j, sigma) enumerated here."""
    V, U, M = cls.space.source, Z.source, Z.target
    omega, incl = kernel_representation(standard_cover(V))
    Zp, ab = cls.representative(), V.bq.algebra_basis(V.field)
    vertices = V.bq.quiver.vertices
    h = {}
    for x in vertices:
        labels = [(y, j, sigma) for y in vertices for j in range(V.dims[y])
                  for sigma in ab.basis.get((x, y), ())]
        cols = [z_path(Zp, sigma).col(j) for (y, j, sigma) in labels]
        h[x] = Matrix.from_columns(V.field, U.dims[x], cols) @ incl.mats[x]
    image = {a.name: Z.mats[a.name] @ h[a.source] for a in V.bq.quiver.arrows}
    return ext1(omega, M).class_of(ArrowCochain(omega, M, image))


@pytest.mark.parametrize("field", [QQ, F101, F2], ids=str)
def test_the_syzygy_route_product_is_the_same_on_the_standard_cover(field):
    """On the loops algebra, where the small model is gated, the product
    on the minimal syzygy vanishes exactly when the one on the standard
    syzygy does.  The seeded modules have two top generators and several
    normal paths, so a wrong label order shows here, as on no fixture."""
    mods = case_modules("loops", field, seed=0)
    cases = nonzero = 0
    for W, V, M in itertools.product(mods[4:6], mods[:4], mods[:4]):
        eta, xi = ext1(W, V), ext1(V, M)
        for Z, Zeta in itertools.product(xi.basis_cocycles()[:2], eta.basis_cocycles()[:2]):
            cls = eta.class_of(Zeta)
            minimal = yoneda_left_omega(Z, cls).is_zero
            assert minimal == product_on_the_standard_syzygy(Z, cls).is_zero
            cases += 1
            nonzero += not minimal
    assert cases > nonzero > 0


def test_projectivity_detector(f2):
    m = f2.modules
    for name in ("S1", "P2", "P3", "M"):
        assert is_projective(m[name])
    for name in ("S2", "S3", "N", "V"):
        assert not is_projective(m[name])


def test_syzygies_of_the_deep_simple(f2):
    m = f2.modules
    first, incl = syzygy(m["S3"])
    assert incl.is_morphism()
    assert iso_test(first, m["S2"]).verdict == "yes"
    second, _ = syzygy(first)
    assert iso_test(second, m["S1"]).verdict == "yes"
    assert is_projective(second)


def test_syzygies_over_the_commutative_square(f3):
    m = f3.modules
    first, _ = syzygy(m["S4"])
    assert iso_test(first, m["R4"]).verdict == "yes"
    second, _ = syzygy(first)
    assert iso_test(second, m["S1"]).verdict == "yes"
    assert is_projective(second)


def test_global_dimension_gate(f2, f3):
    assert gldim_le2_check(f2.bound_quiver, QQ)
    assert gldim_le2_check(f3.bound_quiver, QQ)


def deep_algebra():
    return validate_bound_quiver(
        "deep", ["1", "2", "3", "4"],
        [("a", "2", "1"), ("b", "3", "2"), ("c", "4", "3")],
        [("r", [(1, ["a", "b"])]), ("s", [(1, ["b", "c"])])])


def test_projectivity_and_gldim_run_no_isomorphism_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("isomorphism search run")

    monkeypatch.setattr(importlib.import_module("quiverext.ext2"), "iso_test",
                        no_search, raising=False)
    # fresh workspaces, so no global-dimension verdict is cached yet
    f2, f3 = load_fixture("f2"), load_fixture("f3")
    m = f2.modules
    names = ("S1", "P2", "P3", "M", "S2", "S3", "N", "V")
    assert [is_projective(m[n]) for n in names] == [True] * 4 + [False] * 4
    assert gldim_le2_check(f2.bound_quiver, QQ)
    assert gldim_le2_check(f3.bound_quiver, QQ)
    assert not gldim_le2_check(deep_algebra(), QQ)


def projective_by_cover(M):
    """The cover route to projectivity: build the cover on the top, check
    that it is a morphism and onto, and compare dimension vectors."""
    P, cover = _cover(M, _top(M))
    assert cover.is_morphism()
    assert all(cover.mats[z].rank() == M.dims[z] for z in M.bq.quiver.vertices)
    return P.dim_vector() == M.dim_vector()


@pytest.mark.parametrize("field", [QQ, F101, F2], ids=str)
@pytest.mark.parametrize("name", ["f1", "f2", "f3", "loops"])
def test_is_projective_equals_the_cover_route(name, field):
    """The count against the cover on every case module, its first and
    second syzygies and the zero module; both verdicts occur."""
    mods = with_rational_conjugates(case_modules(name, field, seed=61))
    cases = []
    for M in mods:
        first = syzygy(M)[0]
        cases += [M, first, syzygy(first)[0]]
    verdicts = [is_projective(M) for M in cases]
    assert verdicts == [projective_by_cover(M) for M in cases]
    assert True in verdicts and False in verdicts
    zero = zero_rep(mods[0].bq, field)
    assert is_projective(zero) and projective_by_cover(zero)


def test_one_cover_per_syzygy_and_none_per_projectivity_check(monkeypatch):
    """is_projective builds no cover, checks no morphism and takes no rank;
    pd_le1 builds the one cover of its syzygy, and the global-dimension
    gate two per simple, those of its two syzygies."""
    ext2_module = importlib.import_module("quiverext.ext2")
    linalg_module = importlib.import_module("quiverext.linalg")
    calls = []
    # fresh workspaces, so no global-dimension verdict is cached yet
    f2, f3 = load_fixture("f2"), load_fixture("f3")
    mods = list(f2.modules.values()) + list(f3.modules.values())
    for M in mods:  # the P(y) and the algebra bases are memoised
        is_projective(M)
    monkeypatch.setattr(ext2_module, "_cover", counting(calls, "cover", ext2_module._cover))
    monkeypatch.setattr(VertexCochain, "is_morphism",
                        counting(calls, "is_morphism", VertexCochain.is_morphism))
    for module in (linalg_module, ext2_module):
        monkeypatch.setattr(module, "rank", counting(calls, "rank", module.rank))
    for M in mods:
        is_projective(M)
        assert calls == []
        pd_le1(M)
        assert calls.count("cover") == 1
        calls.clear()
    for ws in (f2, f3):
        assert gldim_le2_check(ws.bound_quiver, QQ)
        assert calls.count("cover") == 2 * len(ws.bound_quiver.quiver.vertices)
        calls.clear()


@pytest.mark.parametrize("field", [QQ, F101, F2], ids=str)
@pytest.mark.parametrize("name", ["f1", "f2", "f3", "loops"])
def test_the_memoised_syzygy_equals_a_fresh_build(name, field):
    """After the syzygies of all modules are built and Ext^2 is asked
    against every named module of the workspace, each module's syzygy is
    still the pair its first call returned, and equals a build on a fresh
    copy entry for entry and type for type; Ext^2 equals Ext^1 on the
    standard syzygy."""
    mods = with_rational_conjugates(case_modules(name, field, seed=29))
    first = [syzygy(N) for N in mods]
    for N in mods:
        omega = standard_syzygy(N)
        for M in (M for M in mods if M.name):
            assert ext2_via_omega(N, M).dim == ext1(omega, M).dim
    for N, (omega, incl) in zip(mods, first):
        again = syzygy(N)
        assert again[0] is omega and again[1] is incl
        fresh_omega, fresh_incl = syzygy(fresh_copy(N))
        assert omega.dims == fresh_omega.dims
        for got, want in ((omega, fresh_omega), (incl, fresh_incl)):
            assert list(got.mats) == list(want.mats)
            for key, m in want.mats.items():
                assert got.mats[key].shape() == m.shape()
                assert typed(got.mats[key].rows) == typed(m.rows)


@pytest.mark.parametrize("field", [QQ, F101, F2], ids=str)
@pytest.mark.parametrize("name", ["f1", "f2", "f3", "loops"])
def test_queries_on_one_module_build_one_cover(name, field, monkeypatch):
    """Ext^2 against every partner, pd <= 1 and the syzygy-route Yoneda
    product, each asked twice of one module V, build one cover."""
    mods = case_modules(name, field, seed=0)
    V, U, M = next((V, U, M) for V, U, M in itertools.product(mods, repeat=3)
                   if ext1(V, U).dim and ext1(U, M).dim)
    V = fresh_copy(V)
    space = ext1(V, U)
    cls = space.class_of(space.basis_cocycles()[0])
    Z = ext1(U, M).basis_cocycles()[0]
    ext2_module, calls = importlib.import_module("quiverext.ext2"), []
    monkeypatch.setattr(ext2_module, "_cover", counting(calls, "cover", ext2_module._cover))
    answers = [([ext2_via_omega(V, X).dim for X in mods], pd_le1(V),
                yoneda_left_omega(Z, cls).is_zero) for _ in range(2)]
    assert answers[0] == answers[1]
    assert calls == ["cover"]


@pytest.mark.parametrize("field", [QQ, F101, F2], ids=str)
def test_a_failed_syzygy_is_not_memoised(field, monkeypatch):
    """A module built unchecked that breaks the square's relation fails
    the cover's morphism check on every call, building a cover each time."""
    f3 = load_fixture("f3", field=field)
    one, zero = Matrix(field, [[1]]), Matrix(field, [[0]])
    bad = Representation(f3.bound_quiver, field, dict.fromkeys("1234", 1),
                         {"a": one, "b": one, "c": one, "d": zero}, check=False)
    ext2_module, calls = importlib.import_module("quiverext.ext2"), []
    monkeypatch.setattr(ext2_module, "_cover", counting(calls, "cover", ext2_module._cover))
    for covers in (1, 2):
        with pytest.raises(QuiverError, match="failed to be a morphism"):
            syzygy(bad)
        assert calls == ["cover"] * covers


def test_small_model_refuses_a_deep_algebra():
    bq = deep_algebra()
    assert not gldim_le2_check(bq, QQ)
    N, M = simple(bq, QQ, "4"), simple(bq, QQ, "1")
    with pytest.raises(HypothesisError, match="dimension"):
        ext2_small_model(N, M)
    # the syzygy route stays available regardless
    assert ext2_via_omega(N, M).dim >= 0


def test_small_model_refuses_an_oriented_cycle():
    bq = validate_bound_quiver(
        "cycle", ["1", "2"],
        [("a", "1", "2"), ("b", "2", "1")],
        [("r", [(1, ["a", "b"])]), ("s", [(1, ["b", "a"])])])
    with pytest.raises(HypothesisError, match="cycle"):
        ext2_small_model(simple(bq, QQ, "1"), simple(bq, QQ, "2"))


def pd_le1_by_presentation(M):
    """The projective-dimension test on the standard syzygy."""
    omega = standard_syzygy(M)
    return all(ext1(omega, simple(M.bq, M.field, x)).dim == 0
               for x in M.bq.quiver.vertices)


@pytest.mark.parametrize("field", [QQ, F101, F2], ids=str)
@pytest.mark.parametrize("name", ["f1", "f2", "f3", "loops"])
def test_minimal_syzygy_route_agrees_with_the_other_models(name, field):
    """Ext^2 on the minimal syzygy against the standard one and the small model.

    Over Q on the loops modules most of the time is the elimination inside
    ext1(Omega, M) on their large syzygies, the route under test."""
    mods = case_modules(name, field, seed=23)
    bq = mods[0].bq
    gated = not is_acyclic(bq) or not gldim_le2_check(bq, field)
    zero = zero_rep(bq, field)
    projectives = [indecomposable_projective(bq, field, x) for x in bq.quiver.vertices]
    for N in mods:
        omega = standard_syzygy(N)
        for M in mods:
            dim = ext2_via_omega(N, M).dim
            assert dim == ext1(omega, M).dim
            if not gated:
                assert dim == ext2_small_model(N, M).dim
        assert ext2_via_omega(zero, N).dim == ext2_via_omega(N, zero).dim == 0
        assert all(ext2_via_omega(P, N).dim == 0 for P in projectives)
        assert pd_le1(N) == pd_le1_by_presentation(N)
        assert pd_le1(opposite_rep(N)) == pd_le1_by_presentation(opposite_rep(N))


def test_projectives_are_built_once_per_vertex(monkeypatch):
    """P(x) reduces a*sigma once for each arrow a and normal path sigma out
    of x, and is then memoised: nothing else reduces a path, so the
    reductions count the builds."""
    real_reduce = AlgebraBasis.reduce_path
    reduced = []

    def counting_reduce(self, path):
        reduced.append((path.source, path.arrows))
        return real_reduce(self, path)

    monkeypatch.setattr(AlgebraBasis, "reduce_path", counting_reduce)
    f3 = load_fixture("f3")  # a fresh bound quiver, so nothing is memoised yet
    bq, m = f3.bound_quiver, f3.modules
    ab = bq.algebra_basis(QQ)
    M = direct_sum(m["P4"], m["S4"], m["S1"])  # two top generators at vertex 4
    P, _ = _cover(M, _top(M))
    again, _ = _cover(M, _top(M))
    assert P.dim_vector() == again.dim_vector() == {"1": 3, "2": 2, "3": 2, "4": 2}
    assert gldim_le2_check(bq, QQ)
    built = {x for x, _ in reduced}
    assert built <= set(bq.quiver.vertices) and "4" in built
    assert len(reduced) == len(set(reduced)) == sum(
        ab.dim(a.source, x) for x in built for a in bq.quiver.arrows)
    reduced.clear()
    assert ext2_via_omega(m["S4"], m["S1"]).dim == 1
    standard_syzygy(M)
    assert reduced == []


def _pd_le1_on(M, K):
    """pd M <= 1 by the Ext route on a minimal syzygy K of M: Ext^1(K, S) = 0
    for every simple S."""
    return all(ext1(K, simple(M.bq, M.field, x)).dim == 0
               for x in M.bq.quiver.vertices)


@pytest.mark.parametrize("field", [QQ, F101, F2], ids=str)
@pytest.mark.parametrize("name", ["f1", "f2", "f3", "loops"])
def test_pd_le1_and_the_certificate_flag_equal_the_ext_route(name, field):
    """is_projective of the minimal syzygy against Ext^2 into every simple.

    The flag is read from the certificate of the split sequence
    0 -> M -> M, where the small model is available."""
    mods = with_rational_conjugates(case_modules(name, field, seed=53))
    bq = mods[0].bq
    gated = not is_acyclic(bq) or not gldim_le2_check(bq, field)
    zero = zero_rep(bq, field)
    for M in mods:
        want = _pd_le1_on(M, syzygy(M)[0])
        assert pd_le1(M) == want
        assert pd_le1(opposite_rep(M)) == _pd_le1_on(opposite_rep(M),
                                                     syzygy(opposite_rep(M))[0])
        if not gated:
            witness = degeneration_witness_search(M, zero, M)
            report = regularity_certificate(M, zero, M, witness)
            assert report.flags["pd_m_le1"] == want


def test_certify_reads_pd_without_first_extensions(tmp_path, monkeypatch, capsys):
    """certify f3.qv XI3 builds three Ext^1 spaces, (M, M), (V, U) and
    (U, V): its Ext^2 dimensions come from the small model.  The Ext
    route of pd M <= 1 would add one per vertex of the square, four."""
    ext1_module = importlib.import_module("quiverext.ext1")
    real_init = ext1_module.ExtSpace1.__init__
    built = []

    def counting_init(self, V, U):
        built.append((V, U))
        real_init(self, V, U)

    path = tmp_path / "f3.qv"
    path.write_text(fixture_source("f3"), encoding="utf-8")
    monkeypatch.setattr(ext1_module.ExtSpace1, "__init__", counting_init)
    assert main(["certify", str(path), "XI3"]) == 0
    assert "regular-tangent" in capsys.readouterr().out
    assert len(built) == 3
    built.clear()
    f3 = load_fixture("f3")
    M = f3.module(f3.sequence("XI3").middle)
    assert _pd_le1_on(M, syzygy(M)[0])
    assert len(built) == 4
