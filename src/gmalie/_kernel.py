"""The elimination kernel: Gauss-Jordan row reduction over GF(p) and QQ.

Every elimination in the package is leftmost pivot column, first nonzero
row, pivots normalized to 1, full clearing above and below.  Every GF(p)
elimination goes through :func:`rref_mod_p`; the reduced row echelon form
is unique, so its two paths below return the same rows and pivots, bit for
bit.  Input rows must be canonical, every entry in ``[0, p)``: the packed
path relies on it for its slot bound.

**Support-list loop** (:func:`_rref_support`).  Rows are lists of scalars;
a pivot row's nonzeros are listed once, and each row it clears is updated
on that list only.  Cheap when rows stay sparse, and it holds for any
modulus the field accepts.  It is also the elimination over the rationals,
called with p = 0: entries are canonical rationals (ints when integral,
else Fractions in lowest terms), a pivot is inverted exactly, as a
Fraction (``1 / pv`` would give a float on an int pivot), every entry the
loop writes goes back through the field's normalizer, so integral values
stay ints, and nothing is reduced mod p.
The packed path is GF(p) only.

**Packed path** (:func:`_rref_packed`).  Each row is one Python int with
b-bit slots, column c in bits ``[b*c, b*(c+1))``, after Dumas, Fousse and
Salvy, *Simultaneous modular reduction and Kronecker substitution for small
finite fields*, J. Symbolic Comput. 46 (2011).  Clearing column c of a row
with entry f is one bigint addition, ``row + (p - f) * pivot_row``: no
borrow and no per-entry loop.  Each multiple of the pivot row is made when
its factor first occurs and shared by the later rows, at most
``min(rows, p - 1)`` per pivot.  Slots are reduced mod p only when a row
becomes the pivot row (and is normalized) and once at the end, so a slot
holds at most ``(p - 1) + nc * (p - 1)**2``: its entry, plus one product
per pivot.  The narrowest b in {16, 32, 64} above that bound is used, so
packing and unpacking run in C through ``struct`` and ``int.from_bytes``;
when no width fits (p = 2**31 - 1 beyond four columns, say) the loop runs.

**Dispatch** (:func:`_packed_width`).  The packed path pays a shift and a
reduction per row for every pivot, whatever the row holds, and a bigint
update per row it clears; the loop pays per nonzero of the pivot row.  So
the packed path wins once rows fill in, and loses on small systems, on
sparse ones that stay sparse, and on wide ones, where each column without
a pivot costs a shift of every remaining row.  It runs when a system has at
least ``_PACKED_MIN_CELLS`` cells, at most ``_PACKED_MAX_COLS_PER_ROW``
columns per row, at least ``_PACKED_MIN_PERCENT`` percent nonzeros and at
least ``_PACKED_MIN_ROW_NONZEROS`` nonzeros per row on average.  The
thresholds come from a sweep of rows x columns x density x p on random
systems, and from every system the three benchmark workloads eliminate,
timed on both paths (``BENCH_packed_kernel.json``):
- the rule sends 359 of 1176 random systems (up to 512 x 256) to the
  packed path, a median 3.9x faster; 12 of them, mostly 16-row systems at
  10-15% nonzeros, ran up to 2.2x slower;
- random systems at 6-10% nonzeros fill in and ran faster packed, but
  the sparse systems the oracle builds at such densities (1500 x 225 at
  4.0%, 352 x 64 at 8.1%) do not, and the loop won 2.2-2.4x on them:
  hence the density floors;
- rank-deficient systems of more than 16 columns per row lost on the
  packed path in 16 of 20 cases, up to 9.0x (4 x 4096);
- in one `oracle` cycle 19 of 3470 systems take the packed path, and the
  kernel time goes 1850 -> 467 ms; no `fuzz` or `cli` system of seeds
  1-3 reaches 1500 cells (the largest has 1088), so all stay on the loop.
"""

from __future__ import annotations

import struct
from fractions import Fraction

from .fields import _rational

# slot widths of the packed path, with the struct codes that pack them
_WIDTHS = ((16, "H"), (32, "I"), (64, "Q"))

# measured dispatch thresholds; see the module docstring.  Cell floors from
# 1100 to 2000 scored the same on the sweep and the workload systems
_PACKED_MIN_CELLS = 1500
_PACKED_MAX_COLS_PER_ROW = 16
_PACKED_MIN_PERCENT = 10
_PACKED_MIN_ROW_NONZEROS = 8


def backend() -> str:
    """Name of the elimination kernel, always ``"pure"``.

    Both paths are plain Python.  Kept as a stable identity: benchmark
    results record this value in their environment fingerprint and refuse
    to compare runs whose fingerprints differ.
    """
    return "pure"


def rref_mod_p(data, p):
    """Reduced row echelon form over GF(p).

    ``data`` is a sequence of equal-length rows of ints in ``[0, p)``.
    Returns ``(rows, pivot_cols)`` where ``rows`` is a fresh list of lists,
    the nonzero rows only: one per pivot.
    """
    width = _packed_width(data, p)
    if width is None:
        return _rref_support(data, p)
    return _rref_packed(data, p, *width)


def _slot_width(p, nc):
    """``(bits, struct code)`` of the narrowest slot that holds
    ``(p - 1) + nc * (p - 1)**2``, or None when 64 bits do not."""
    top = (p - 1) + nc * (p - 1) ** 2
    for bits, code in _WIDTHS:
        if top < 1 << bits:
            return bits, code
    return None


def _packed_width(data, p):
    """The slot width the packed path would use on ``data``, or None when
    the support-list loop runs."""
    nr = len(data)
    nc = len(data[0]) if nr else 0
    cells = nr * nc
    if cells < _PACKED_MIN_CELLS or nc > _PACKED_MAX_COLS_PER_ROW * nr:
        return None
    width = _slot_width(p, nc)
    if width is None:
        return None
    nonzero = cells - sum(row.count(0) for row in data)
    if 100 * nonzero < _PACKED_MIN_PERCENT * cells or nonzero < _PACKED_MIN_ROW_NONZEROS * nr:
        return None
    return width


def _rref_support(data, p):
    """Gauss-Jordan on lists, each row updated on the pivot row's support;
    ``p = 0`` means the rationals.  The field is branched on once per pivot
    row and once per cleared row, never per entry."""
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
            if p:
                inv = pow(pv, -1, p)
                for j in range(c, nc):
                    if prow[j]:
                        prow[j] = prow[j] * inv % p
            else:
                inv = _rational(Fraction(pv.denominator, pv.numerator))
                for j in range(c, nc):
                    if prow[j]:
                        prow[j] = _rational(prow[j] * inv)
        # the pivot row's nonzeros, found once and reused for every row
        support = [(j, pj) for j in range(c, nc) if (pj := prow[j])]
        for i in range(nr):
            if i == r:
                continue
            ri = rows[i]
            f = ri[c]
            if f:
                if p:
                    for j, pj in support:
                        ri[j] = (ri[j] - f * pj) % p
                else:
                    for j, pj in support:
                        ri[j] = _rational(ri[j] - f * pj)
        pivots.append(c)
        r += 1
        if r == nr:
            break
    del rows[r:]
    return rows, pivots


def _rref_packed(data, p, bits, code):
    """Gauss-Jordan on rows packed into ints of ``bits``-bit slots."""
    nr, nc = len(data), len(data[0])
    layout = struct.Struct(f"<{nc}{code}")
    size, pack, unpack = layout.size, layout.pack, layout.unpack
    rows = [int.from_bytes(pack(*row), "little") for row in data]
    mask = (1 << bits) - 1
    pivots = []
    r = 0
    for c in range(nc):
        shift = bits * c
        for pr in range(r, nr):
            if (rows[pr] >> shift & mask) % p:
                break
        else:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        # earlier columns of the pivot row are multiples of p, so reducing
        # leaves it zero below slot c: clearing touches slots c and up only
        vals = unpack(rows[r].to_bytes(size, "little"))
        inv = pow(vals[c] % p, -1, p)
        prow = int.from_bytes(pack(*[v * inv % p for v in vals]), "little")
        # rows are updated in place: a second list of packed rows would
        # raise the peak memory by their size.  Each multiple (p - f) * prow
        # is made when f first occurs and shared by the rows that follow, so
        # a pivot makes at most min(nr, p - 1) of them
        negs = {}
        for i, x in enumerate(rows):
            if f := (x >> shift & mask) % p:
                m = negs.get(f)
                if m is None:
                    m = negs[f] = (p - f) * prow
                rows[i] = x + m
        rows[r] = prow
        pivots.append(c)
        r += 1
        if r == nr:
            break
    # rows past the rank are zero mod p; only the pivot rows are returned
    del rows[r:]
    return [[v % p for v in unpack(x.to_bytes(size, "little"))] for x in rows], pivots
