"""Isomorphism testing with certificates.

Two representations are isomorphic exactly when some morphism between
them is invertible at every vertex.  The test runs in this order: the
dimension vectors; the sum of the Hom(M, N) basis, which proves
isomorphism when it is invertible; the first sample of a seeded
randomized search for an invertible morphism; the hom-space
fingerprints (dim End M, dim Hom(M, N), dim End N, dim Hom(N, M)),
which refute isomorphism when they differ and which an invertible
candidate before them makes unnecessary; the rest of the seeded
samples; and -- on small inputs -- a symbolic determinant that can
refute conclusively.  The samples are drawn from one
``random.Random(seed)`` in one sequence, so drawing the first before
the fingerprints changes no verdict, reason or witness.  The verdict is
always one of "yes" (with an invertible witness), "no" (with the
reason), or "unknown".
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import sympy

from .fields import RationalField
from .linalg import SubspaceBasis
from .rep import Representation, VertexCochain, hom_basis, hom_dim

_SYMBOLIC_DIM_LIMIT = 12


@dataclass
class IsoCertificate:
    verdict: str  # "yes" | "no" | "unknown"
    reason: str
    witness: VertexCochain | None = None

    def __bool__(self):
        return self.verdict == "yes"


def _vertexwise_invertible(f: VertexCochain) -> bool:
    for x in f.source.bq.quiver.vertices:
        m = f.mats[x]
        if m.nrows != m.ncols:
            return False
        if m.nrows and m.rank() != m.nrows:
            return False
    return True


def _symbolic_det_is_zero(M, N, cochains) -> bool | None:
    """Decide whether every morphism combination is singular somewhere.

    Returns True when the product of vertex determinants vanishes
    identically (so no isomorphism exists), False when it is a nonzero
    polynomial, or None when the input is too large to attempt.
    """
    if M.total_dim > _SYMBOLIC_DIM_LIMIT:
        return None
    ts = sympy.symbols(f"t0:{len(cochains)}")
    field = M.field
    rational = isinstance(field, RationalField)

    def to_sympy(val):
        if rational:
            return sympy.Rational(val.numerator, val.denominator)
        return sympy.Integer(val)

    det_product = sympy.Integer(1)
    for x in M.bq.quiver.vertices:
        d = M.dims[x]
        if d == 0:
            continue
        entries = [[sympy.Integer(0)] * d for _ in range(d)]
        for t, f in zip(ts, cochains):
            block = f.mats[x]
            for i in range(d):
                for j in range(d):
                    entries[i][j] += t * to_sympy(block.rows[i][j])
        det_product *= sympy.Matrix(entries).det()
    poly = sympy.expand(det_product)
    if rational:
        return poly == 0
    # prime field: the determinant was computed over the integers, so
    # reduce each coefficient modulo the characteristic
    if poly == 0:
        return True
    p = field.char
    return all(int(c) % p == 0 for c in sympy.Poly(poly, *ts).coeffs())


def _sample(M, N, homs: SubspaceBasis, rng) -> VertexCochain:
    """A seeded random combination of the Hom(M, N) basis."""
    field = M.field
    coeffs = [field.of(rng.randint(-10**6, 10**6)) for _ in homs.vectors]
    return VertexCochain.from_vector(M, N, homs.combine(coeffs))


def iso_test(M: Representation, N: Representation,
             seed: int = 0, trials: int = 20) -> IsoCertificate:
    """Certified isomorphism test; see the module docstring for strategy."""
    if M.dim_vector() != N.dim_vector():
        return IsoCertificate("no", "dimension vectors differ")
    if M.total_dim == 0:
        return IsoCertificate("yes", "both representations are zero",
                              VertexCochain(M, N, {}))
    cochains = hom_basis(M, N)
    field = M.field
    homs = SubspaceBasis(field, VertexCochain.space_dim(M, N),
                         [f.to_vector() for f in cochains])
    rng = random.Random(seed)
    samples = trials
    if cochains:
        # an invertible candidate proves M and N isomorphic, so the
        # fingerprints below would agree: try the all-ones sum and the
        # first seeded sample first
        ones = [field.one] * len(cochains)
        candidate = VertexCochain.from_vector(M, N, homs.combine(ones))
        if _vertexwise_invertible(candidate):
            return IsoCertificate("yes", "invertible morphism found", candidate)
        if samples > 0:
            samples -= 1
            candidate = _sample(M, N, homs, rng)
            if _vertexwise_invertible(candidate):
                return IsoCertificate("yes", "invertible morphism found", candidate)
    fp_m = (hom_dim(M, M), len(cochains))
    fp_n = (hom_dim(N, N), hom_dim(N, M))
    if fp_m != fp_n:
        return IsoCertificate(
            "no",
            "hom-space fingerprints differ: "
            f"(end M, hom M->N) = {fp_m} but (end N, hom N->M) = {fp_n}",
        )
    if not cochains:
        return IsoCertificate("no", "no nonzero morphism exists")

    for _ in range(samples):
        candidate = _sample(M, N, homs, rng)
        if _vertexwise_invertible(candidate):
            return IsoCertificate("yes", "invertible morphism found", candidate)

    symbolic = _symbolic_det_is_zero(M, N, cochains)
    if symbolic is True:
        return IsoCertificate("no", "every morphism is singular at some vertex")
    if symbolic is False:
        # the determinant polynomial is nonzero, so invertible points are
        # dense; keep sampling until one lands
        for _ in range(200):
            candidate = _sample(M, N, homs, rng)
            if _vertexwise_invertible(candidate):
                return IsoCertificate("yes", "invertible morphism found", candidate)
    return IsoCertificate("unknown", "randomized and symbolic checks were inconclusive")
