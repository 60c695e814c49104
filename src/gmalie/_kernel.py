"""The mod-p elimination kernel: Gauss-Jordan row reduction over GF(p).

Every GF(p) elimination in the package goes through :func:`rref_mod_p`:
leftmost pivot column, first nonzero row, pivots normalized to 1, full
clearing above and below.  It is plain Python on ints, so it holds for any
modulus the field accepts.
"""

from __future__ import annotations


def backend() -> str:
    """Name of the elimination kernel, always ``"pure"``.

    Kept as a stable identity: benchmark results record this value in their
    environment fingerprint and refuse to compare runs whose fingerprints
    differ.
    """
    return "pure"


def rref_mod_p(data, p):
    """Reduced row echelon form over GF(p).

    ``data`` is a sequence of equal-length rows of ints in ``[0, p)``.
    Returns ``(rows, pivot_cols)`` where ``rows`` is a fresh list of lists.
    """
    rows = [list(r) for r in data]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        pr = -1
        for i in range(r, nr):
            if rows[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        pv = prow[c]
        if pv != 1:
            inv = pow(pv, -1, p)
            for j in range(c, nc):
                if prow[j]:
                    prow[j] = prow[j] * inv % p
        for i in range(nr):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                ri = rows[i]
                for j in range(c, nc):
                    pj = prow[j]
                    if pj:
                        ri[j] = (ri[j] - f * pj) % p
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows, pivots
