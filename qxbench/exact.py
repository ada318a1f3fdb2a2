"""The benchmark's own exact arithmetic, used only to check answers.

Nothing here calls quiverext: ranks, products and the bilinear forms are
recomputed from raw entries, so a fault in the program's linear algebra
cannot also hide in its check.  Entries are Fractions (over Q) or ints
taken modulo p (over F_p, p given).
"""

from __future__ import annotations

from fractions import Fraction


def differs(what, got, want):
    """[] when got == want, else one line saying what differs."""
    return [] if got == want else [f"{what}: got {got!r}, expected {want!r}"]


def _norm(x, p):
    return x % p if p else Fraction(x)


def rank(rows, p=None) -> int:
    """Rank by plain Gaussian elimination over Q (p None) or F_p."""
    m = [[_norm(x, p) for x in r] for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p) if p else 1 / m[r][c]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [_norm(x - f * y, p) for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def matmul(a, b, ncols, p=None):
    """Product of an (n x k) and a (k x ncols) matrix given as row lists."""
    out = []
    for row in a:
        new = [0] * ncols
        for k, x in enumerate(row):
            if x:
                bk = b[k]
                for j in range(ncols):
                    new[j] += x * bk[j]
        out.append([_norm(v, p) for v in new])
    return out


def same(a, b, p=None) -> bool:
    return len(a) == len(b) and all(
        len(r) == len(s) and all(_norm(x - y, p) == 0 for x, y in zip(r, s))
        for r, s in zip(a, b))


def euler_form(quiver, dv, du) -> int:
    """<dim V, dim U>: vertices minus arrows plus relations, from the lists."""
    total = sum(dv[x] * du[x] for x in quiver["vertices"])
    total -= sum(dv[s] * du[t] for _, s, t in quiver["arrows"])
    total += sum(dv[s] * du[t] for _, s, t, _ in quiver["relations"])
    return total


def a_of_d(quiver, d) -> int:
    """Arrow minus relation count of the module variety at dimension d."""
    return (sum(d[s] * d[t] for _, s, t in quiver["arrows"])
            - sum(d[s] * d[t] for _, s, t, _ in quiver["relations"]))


def square_relation_vanishes(mats, dims, p=None) -> bool:
    """a*b - c*d = 0 on the commutative square, from raw matrices."""
    ab = matmul(mats["a"], mats["b"], dims["4"], p)
    cd = matmul(mats["c"], mats["d"], dims["4"], p)
    return same(ab, cd, p)
