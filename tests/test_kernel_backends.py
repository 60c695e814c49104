"""The mod-p kernel checked against independent facts, not against itself.

The agreement tests compare its output with properties any correct reduced
row echelon form has: the echelon shape, reconstruction of every input row
from the reduced rows, and the rank from the fraction-free elimination in
``helpers``.  The kernel has two paths, the support-list loop and the
packed-integer path; every system below that reaches the packed path is
checked bit for bit against ``helpers.reference_rref_mod_p``, and the path
each system takes is asserted, so neither path goes untested silently.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gmalie import _kernel, kernel_backend

from helpers import modp_rank, random_int_matrix, reference_rref_mod_p

PRIMES = [2, 3, 5, 97, 32749, 2**31 - 1]
SHAPES = [(1, 1), (3, 3), (4, 7), (7, 4), (12, 5), (20, 20)]


def _assert_reduced_echelon(reduced, pivots):
    assert pivots == sorted(set(pivots))
    for r, c in enumerate(pivots):
        assert all(x == 0 for x in reduced[r][:c])
        assert reduced[r][c] == 1
        for other in range(len(reduced)):
            if other != r:
                assert reduced[other][c] == 0
    # only the rank rows are returned
    assert len(reduced) == len(pivots)


def _assert_reconstructs(data, reduced, pivots, p):
    # in a reduced form the coefficient of reduced row r is the entry at its
    # pivot column, so each input row is sum_r row[c_r] * reduced[r] mod p
    for row in data:
        combo = [0] * len(row)
        for r, c in enumerate(pivots):
            f = row[c]
            combo = [(x + f * y) % p for x, y in zip(combo, reduced[r])]
        assert combo == [x % p for x in row]


def test_backend_reports_a_known_name():
    assert _kernel.backend() == "pure"
    assert kernel_backend() == "pure"


@pytest.mark.parametrize("p", PRIMES)
def test_backends_agree_on_random_matrices(p):
    rng = random.Random(p)
    for rows, cols in SHAPES:
        data = random_int_matrix(rng, rows, cols, p)
        reduced, pivots = _kernel.rref_mod_p(data, p)
        assert len(reduced) == len(pivots) and all(len(r) == cols for r in reduced)
        _assert_reduced_echelon(reduced, pivots)
        _assert_reconstructs(data, reduced, pivots, p)
        assert len(pivots) == modp_rank(data, p)


@pytest.mark.parametrize("p", PRIMES)
def test_pivot_count_matches_independent_rank(p):
    rng = random.Random(p + 1)
    for _ in range(15):
        rows, cols = rng.randint(1, 10), rng.randint(1, 10)
        # low-rank products exercise dependent rows and skipped columns
        k = rng.randint(1, min(rows, cols))
        left = random_int_matrix(rng, rows, k, p)
        right = random_int_matrix(rng, k, cols, p)
        data = [
            [sum(left[i][t] * right[t][j] for t in range(k)) % p for j in range(cols)]
            for i in range(rows)
        ]
        reduced, pivots = _kernel.rref_mod_p(data, p)
        assert len(pivots) == modp_rank(data, p)
        _assert_reconstructs(data, reduced, pivots, p)


def test_reduced_form_properties():
    p = 5
    rng = random.Random(42)
    data = random_int_matrix(rng, 8, 6, p)
    reduced, pivots = _kernel.rref_mod_p(data, p)
    _assert_reduced_echelon(reduced, pivots)
    assert data == random_int_matrix(random.Random(42), 8, 6, p)  # input untouched


def test_empty_inputs():
    assert _kernel.rref_mod_p([], 3) == ([], [])
    assert _kernel.rref_mod_p([[], []], 3) == ([], [])


def _sparse_rows(rng, rows, cols, p, density):
    return [
        [rng.randrange(1, p) if rng.random() < density else 0 for _ in range(cols)]
        for _ in range(rows)
    ]


@pytest.mark.parametrize("p", PRIMES)
def test_support_loop_matches_the_dense_loop(p):
    # rows far outnumber columns, as in the Leibniz systems, and the pivot
    # rows are sparse; dependent rows come from combinations of a few
    rng = random.Random(p + 2)
    for rows, cols, density in ((60, 6, 0.3), (200, 12, 0.15), (120, 20, 0.05), (30, 30, 0.5)):
        data = _sparse_rows(rng, rows, cols, p, density)
        assert _kernel.rref_mod_p(data, p) == reference_rref_mod_p(data, p)
        few = _sparse_rows(rng, 3, cols, p, density)
        mixed = [
            [sum(rng.randrange(p) * r[j] for r in few) % p for j in range(cols)]
            for _ in range(rows)
        ]
        assert _kernel.rref_mod_p(mixed, p) == reference_rref_mod_p(mixed, p)


# -- the two paths -----------------------------------------------------------------


@pytest.fixture
def paths(monkeypatch):
    """The paths ``rref_mod_p`` took since the test began, in call order."""
    taken = []
    for name, label in (("_rref_support", "loop"), ("_rref_packed", "packed")):
        real = getattr(_kernel, name)

        def spy(*args, real=real, label=label):
            taken.append(label)
            return real(*args)

        monkeypatch.setattr(_kernel, name, spy)
    return taken


def _check(paths, data, p, path):
    """rref_mod_p on ``data`` takes ``path`` and equals the reference."""
    del paths[:]
    assert _kernel.rref_mod_p(data, p) == reference_rref_mod_p(data, p)
    assert paths == [path]


def _with_nonzeros(rng, rows, cols, p, count):
    """A rows x cols system with exactly ``count`` nonzero entries."""
    flat = [0] * (rows * cols)
    for at in rng.sample(range(rows * cols), count):
        flat[at] = rng.randrange(1, p)
    return [flat[r * cols : (r + 1) * cols] for r in range(rows)]


def _min_nonzeros(rows, cols):
    """The fewest nonzeros a rows x cols system needs for the packed path."""
    by_percent = -(-_kernel._PACKED_MIN_PERCENT * rows * cols // 100)
    return max(by_percent, _kernel._PACKED_MIN_ROW_NONZEROS * rows)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_cell_threshold_edge(paths, monkeypatch, offset):
    # one dense column, with the per-row floor lowered to the one nonzero a
    # row has: the cell count is then the only floor in play, on every side
    # of it (one below may be a prime count, which fits no other shape)
    monkeypatch.setattr(_kernel, "_PACKED_MIN_ROW_NONZEROS", 1)
    rng = random.Random(offset)
    cells = _kernel._PACKED_MIN_CELLS + offset
    data = [[rng.randrange(1, 5)] for _ in range(cells)]
    _check(paths, data, 5, "loop" if offset < 0 else "packed")


@pytest.mark.parametrize("rows, cols, path", [(14, 107, "loop"), (50, 30, "packed"), (19, 79, "packed")])
def test_cell_threshold_with_every_floor_in_force(paths, rows, cols, path):
    # dense systems of 1498, 1500 and 1501 cells under the committed floors
    assert _kernel._PACKED_MIN_CELLS == 1500
    rng = random.Random(rows)
    data = [[rng.randrange(1, 5) for _ in range(cols)] for _ in range(rows)]
    _check(paths, data, 5, path)


@pytest.mark.parametrize("rows, cols", [(52, 30), (40, 225), (200, 100)])
def test_density_edge(paths, rows, cols):
    # exactly the fewest nonzeros the packed path takes, then one fewer; the
    # first shape is bound by nonzeros per row, the others by percent
    rng = random.Random(rows)
    need = _min_nonzeros(rows, cols)
    _check(paths, _with_nonzeros(rng, rows, cols, 3, need), 3, "packed")
    _check(paths, _with_nonzeros(rng, rows, cols, 3, need - 1), 3, "loop")


def test_slot_width_edges():
    # (p - 1) + cols * (p - 1)**2 is 2**16 - 1 at 65534 columns over GF(2),
    # and 2**16 at 65535
    assert _kernel._slot_width(2, 65534) == (16, "H")
    assert _kernel._slot_width(2, 65535) == (32, "I")
    assert _kernel._slot_width(97, 7) == (16, "H")
    assert _kernel._slot_width(97, 8) == (32, "I")
    assert _kernel._slot_width(32749, 4) == (32, "I")
    assert _kernel._slot_width(32749, 5) == (64, "Q")
    assert _kernel._slot_width(2**31 - 1, 4) == (64, "Q")
    assert _kernel._slot_width(2**31 - 1, 5) is None


@pytest.mark.parametrize("cols, bits", [(65534, 16), (65535, 32)])
def test_wide_rows_at_the_slot_width_edge(cols, bits):
    # too wide for the dispatch, so through the packed function directly;
    # the leading identity block makes the rank 3 and ends the scan early
    rng = random.Random(cols)
    data = [
        [int(i == j) for j in range(3)] + [rng.randrange(2) for _ in range(cols - 3)]
        for i in range(3)
    ]
    width = _kernel._slot_width(2, cols)
    assert width[0] == bits
    assert _kernel._packed_width(data, 2) is None
    assert _kernel._rref_packed(data, 2, *width) == reference_rref_mod_p(data, 2)


@pytest.mark.parametrize("extra, path", [(0, "packed"), (1, "loop")])
def test_width_ratio_edge(paths, extra, path):
    rows = 10
    cols = _kernel._PACKED_MAX_COLS_PER_ROW * rows + extra
    rng = random.Random(extra)
    data = [[rng.randrange(1, 3) for _ in range(cols)] for _ in range(rows - 1)]
    data.append(list(data[0]))  # a dependent row keeps the scan going
    _check(paths, data, 3, path)


@pytest.mark.parametrize("p", PRIMES)
def test_paths_agree_above_the_threshold(paths, p):
    # 2**31 - 1 leaves no slot width at 60 columns: the loop runs instead
    rng = random.Random(p + 3)
    path = "loop" if _kernel._slot_width(p, 60) is None else "packed"
    dense = random_int_matrix(rng, 90, 60, p)
    _check(paths, dense, p, path)
    sparse = _sparse_rows(rng, 120, 60, p, 0.2)
    _check(paths, sparse, p, path)
    k = 12  # rank at most 12: most rows clear to zero
    left = random_int_matrix(rng, 90, k, p)
    right = random_int_matrix(rng, k, 60, p)
    low_rank = [
        [sum(left[i][t] * right[t][j] for t in range(k)) % p for j in range(60)]
        for i in range(90)
    ]
    _check(paths, low_rank, p, path)


@pytest.mark.parametrize("p", [2, 3, 97])
def test_degenerate_systems_on_the_packed_path(paths, p):
    rng = random.Random(p + 4)
    base = random_int_matrix(rng, 8, 200, p)
    duplicates = [list(row) for row in base for _ in range(3)]
    _check(paths, duplicates, p, "packed")
    # the dispatch keeps these on the loop (too wide, too few nonzeros per
    # row, no nonzeros): through the packed function directly
    cells = _kernel._PACKED_MIN_CELLS
    one_row = [[rng.randrange(1, p) for _ in range(cells)]]
    one_column = [[rng.randrange(1, p)] for _ in range(cells)]
    zero = [[0] * 60 for _ in range(40)]
    for data in (one_row, one_column, zero):
        width = _kernel._slot_width(p, len(data[0]))
        assert _kernel._packed_width(data, p) is None
        assert _kernel._rref_packed(data, p, *width) == reference_rref_mod_p(data, p)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 40),
    cols=st.integers(1, 40),
    density=st.sampled_from([0.05, 0.2, 0.5, 1.0]),
    p=st.sampled_from(PRIMES),
    seed=st.integers(0, 2**16),
)
def test_packed_matches_the_loop(rows, cols, density, p, seed):
    width = _kernel._slot_width(p, cols)
    if width is None:  # only 2**31 - 1 past four columns
        cols = 4
        width = _kernel._slot_width(p, cols)
    data = _sparse_rows(random.Random(seed), rows, cols, p, density)
    assert _kernel._rref_packed(data, p, *width) == _kernel._rref_support(data, p)
