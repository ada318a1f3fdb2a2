import pytest

from quiverext.algebra import AdmissibilityError, minimality_check
from quiverext.fields import QQ
from quiverext.quiver import (
    QuiverError,
    a_of_d,
    chi,
    euler_form,
    gl_dim,
    is_acyclic,
    validate_bound_quiver,
)


def _f2_quiver(relations=(("r", [(1, ["a", "b"])]),)):
    return validate_bound_quiver(
        "F2", ["1", "2", "3"],
        [("a", "2", "1"), ("b", "3", "2")], relations)


def test_algebra_basis_of_the_bound_line(f2):
    ab = f2.bound_quiver.algebra_basis(QQ)
    assert ab.total_dim == 5  # three idempotents plus the two arrows
    assert ab.dim("1", "1") == 1
    assert ab.dim("1", "2") == 1
    assert ab.dim("1", "3") == 0  # the only path 3 -> 1 is the killed one
    assert ab.dim("2", "3") == 1
    assert [p.arrows for p in ab.basis[("1", "2")]] == [("a",)]


def test_algebra_basis_without_relations_keeps_the_long_path():
    bq = _f2_quiver(relations=())
    ab = bq.algebra_basis(QQ)
    assert ab.total_dim == 6
    assert [p.arrows for p in ab.basis[("1", "3")]] == [("a", "b")]


def test_commutative_square_identifies_the_two_paths(f3):
    ab = f3.bound_quiver.algebra_basis(QQ)
    # paths 4 -> 1: a*b and c*d are identified, leaving one basis class
    assert ab.dim("1", "4") == 1
    assert ab.total_dim == 4 + 4 + 1


def test_relations_must_be_admissible():
    with pytest.raises(QuiverError):
        # a length-one term is not allowed in a relation
        validate_bound_quiver("Q", ["1", "2"], [("a", "2", "1")],
                              [("r", [(1, ["a"])])])


def test_relations_must_share_endpoints():
    with pytest.raises(QuiverError):
        validate_bound_quiver(
            "Q", ["1", "2", "3", "4"],
            [("a", "2", "1"), ("b", "3", "2"), ("c", "4", "3")],
            [("r", [(1, ["a", "b"]), (1, ["b", "c"])])])


def test_minimality_check_flags_redundant_generators(f2):
    bq = f2.bound_quiver
    assert minimality_check(bq, QQ) == ()
    # each generator is a multiple of the other, so both are redundant
    doubled = _f2_quiver(relations=(("r", [(1, ["a", "b"])]),
                                    ("s", [(2, ["a", "b"])])))
    assert minimality_check(doubled, QQ) == ("r", "s")


def test_paths_compose_right_to_left(f2):
    q = f2.bound_quiver.quiver
    p = q.path(["a", "b"])  # b acts first: starts at 3, ends at 1
    assert p.source == "3"
    assert p.target == "1"
    with pytest.raises(QuiverError):
        q.path(["b", "a"])


def test_euler_form_values(f2):
    bq = f2.bound_quiver
    d = {"1": 1, "2": 2, "3": 1}
    s1 = {"1": 1, "2": 0, "3": 0}
    s2 = {"1": 0, "2": 1, "3": 0}
    assert euler_form(bq, s2, s1) == -1
    assert euler_form(bq, s1, s2) == 0
    assert chi(bq, d) == 3
    assert gl_dim(bq, d) == 6
    assert a_of_d(bq, d) == 3
    assert a_of_d(bq, s1) == 0
    assert a_of_d(bq, {"1": 0, "2": 2, "3": 1}) == 2


def test_mixed_form_is_the_polarization(f2):
    bq = f2.bound_quiver
    d1 = {"1": 1, "2": 0, "3": 0}
    d2 = {"1": 0, "2": 2, "3": 1}

    def cross(e1, e2):  # arrows cross-term minus relations cross-term
        return (sum(e1[a.source] * e2[a.target] for a in bq.quiver.arrows)
                - sum(e1[r.source] * e2[r.target] for r in bq.relations))

    assert cross(d1, d2) == 0
    assert cross(d2, d1) == 1
    total = {x: d1[x] + d2[x] for x in d1}
    assert (a_of_d(bq, total)
            == a_of_d(bq, d1) + a_of_d(bq, d2) + cross(d1, d2) + cross(d2, d1))


def test_acyclicity(f2):
    assert is_acyclic(f2.bound_quiver)
    loop = validate_bound_quiver("L", ["1", "2"],
                                 [("a", "1", "2"), ("b", "2", "1")])
    assert not is_acyclic(loop)


def test_opposite_swaps_sources_and_targets(f2):
    opp = f2.bound_quiver.opposite()
    a = opp.quiver.arrow_map["a"]
    assert (a.source, a.target) == ("1", "2")
    ab = opp.algebra_basis(QQ)
    assert ab.total_dim == 5
    assert ab.dim("3", "1") == 0


def test_truncation_window_must_cover_the_relations():
    bq = validate_bound_quiver(
        "F2", ["1", "2", "3"],
        [("a", "2", "1"), ("b", "3", "2")],
        [("r", [(1, ["a", "b"])])], truncation_cap=1)
    with pytest.raises(AdmissibilityError):
        bq.algebra_basis(QQ)


def test_a_huge_cap_lists_paths_only_up_to_the_first_empty_length():
    """The completion and the level stop where the algebra does, so a huge
    cap lists no path past the longest one and gives the default cap's basis."""
    huge = 10**6
    bq = validate_bound_quiver("F2", ["1", "2", "3"], [("a", "2", "1"), ("b", "3", "2")],
                               [("r", [(1, ["a", "b"])])], truncation_cap=huge)
    ab = bq.algebra_basis(QQ)
    assert ab.basis == _f2_quiver().algebra_basis(QQ).basis
    assert ab.level == 2


@pytest.mark.parametrize("cap", [0, -3])
def test_a_truncation_cap_below_one_is_refused(cap):
    with pytest.raises(QuiverError, match=f"truncation cap must be at least 1, got {cap}"):
        validate_bound_quiver("F2", ["1", "2", "3"], [("a", "2", "1"), ("b", "3", "2")],
                              [], truncation_cap=cap)
