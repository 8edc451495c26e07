"""Every aggregate path against the dense-W oracle, and its memory bound.

The kernel sums over a table of the stored entries of a sparse A and over
row blocks of a dense one (partition._TABLE_DENSITY picks); the `kernel`
fixture forces one form or the other by patching that threshold, and the
sparse cases below compare the two forms with each other.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import equitile as eq
from equitile import partition

from helpers import dense_aggregates, random_partition, random_weights

DTYPES = ("int", "bool", "real", "complex")
PARTITIONS = ("random", "singletons", "one-cell")
WEIGHTS = ("unit", "complex")


def _case(rng, dtype, partition, weights):
    n = int(rng.integers(2, 11))
    if dtype == "int":
        A = rng.integers(-4, 5, size=(n, n))
    elif dtype == "bool":
        A = rng.integers(0, 2, size=(n, n)).astype(bool)
    elif dtype == "real":
        A = rng.normal(size=(n, n))
    else:
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if partition == "singletons":
        p = eq.Partition.from_cells([[v] for v in rng.permutation(n)])
    elif partition == "one-cell":
        p = eq.Partition.single_cell(n)
    else:
        # cells in random order: neither contiguous nor canonical
        p = random_partition(rng, n, int(rng.integers(2, n + 1)))
        p = eq.Partition.from_cells([p.cells[i] for i in rng.permutation(p.k)])
    w = np.ones(n) if weights == "unit" else random_weights(rng, p)
    return A, eq.WeightedIndicator(p, w)


@pytest.fixture(params=["blocked", "table"])
def kernel(request, monkeypatch):
    """Every aggregate of the test through one form of the kernel."""
    _force(monkeypatch, request.param)
    return request.param


def _force(monkeypatch, kernel):
    density = {"blocked": -1.0, "table": 1.0}[kernel]
    monkeypatch.setattr(partition, "_TABLE_DENSITY", density)


def _source(A, kernel):
    """What the forced kernel sums: A itself or its entry table."""
    return partition._entries(A) if kernel == "table" else A


@pytest.mark.parametrize("weights", WEIGHTS)
@pytest.mark.parametrize("partition", PARTITIONS)
@pytest.mark.parametrize("dtype", DTYPES)
def test_kernel_paths_match_dense_oracle(rng, kernel, dtype, partition, weights):
    for _ in range(5):
        A, wi = _case(rng, dtype, partition, weights)
        p = wi.partition
        Theta = rng.normal(size=(p.k, p.k)) + 1j * rng.normal(size=(p.k, p.k))
        ref = dense_aggregates(A, wi, Theta)
        atol = 1e-12 * max(1.0, float(np.abs(A).max())) * p.n

        front = eq.check_equitable(A, wi, "front")
        rear = eq.check_equitable(A, wi, "rear")
        assert np.allclose(front.per_block_residuals, ref["front_residuals"], atol=atol)
        assert np.allclose(rear.per_block_residuals, ref["rear_residuals"], atol=atol)
        assert eq.epsilon_equitability(A, p) == pytest.approx(ref["epsilon"], abs=atol)
        assert eq.check_regular_equivalence(A, p) == ref["regular"]
        for alpha, E in ref["quotients"].items():
            got = eq.generalized_quotient(A, wi, alpha).entries
            assert np.allclose(got, E, atol=atol)

        T_front, T_rear = eq.deviation_matrices(A, wi)
        assert np.allclose(T_front.assembled, ref["T_front"], atol=atol)
        assert np.allclose(T_rear.assembled, ref["T_rear"], atol=atol)
        for i, ci in enumerate(p.cells):
            for j, cj in enumerate(p.cells):
                assert np.allclose(T_front.blocks[i][j], ref["T_front"][list(ci), j], atol=atol)
                assert np.allclose(T_rear.blocks[i][j], ref["T_rear"][list(cj), i], atol=atol)
        assert np.allclose(eq.deviation_report(T_front).per_block_norms,
                           ref["front_residuals"], atol=atol)
        assert np.allclose(eq.deviation_report(T_rear).per_block_norms,
                           ref["rear_residuals"], atol=atol)

        assert eq.theta_residual(A, wi, Theta, "front") == \
            pytest.approx(ref["theta_front"], abs=atol)
        assert eq.theta_residual(A, wi, Theta, "rear") == \
            pytest.approx(ref["theta_rear"], abs=atol)


@pytest.mark.parametrize("block_entries", [None, 5])
@pytest.mark.parametrize("dtype", DTYPES)
def test_column_sets_sum_bit_for_bit(rng, monkeypatch, kernel, dtype, block_entries):
    # a column set sums exactly what the all-cells pass sums into the same
    # cells, and similar forms (A_uv w_v) / w_u entrywise as a scaled copy would
    if block_entries:
        monkeypatch.setattr(partition, "_BLOCK_ENTRIES", block_entries)
    for _ in range(10):
        A, wi = _case(rng, dtype, "random", "complex")
        w = wi.weights
        M = _source(A, kernel)
        lay = partition._layout(wi.partition)
        pick = rng.permutation(wi.partition.k)[:int(rng.integers(1, wi.partition.k + 1))]
        cols = _column_set(wi.partition, pick)
        got = partition._aggregate(M, lay, cols=cols)
        assert _same_bits(got, partition._aggregate(M, lay)[:, pick])
        similar = partition._aggregate(M, lay, w, cols=cols, similar=True)
        scaled = _source((A * w) / w[:, None], kernel)
        assert _same_bits(similar, partition._aggregate(scaled, lay, cols=cols))


def _column_set(p, pick):
    """The (corder, cstarts) column set of the cells pick of p, in that order."""
    cells = [p.cells[i] for i in pick]
    sizes = np.array([len(c) for c in cells])
    return np.concatenate(cells), np.cumsum(sizes) - sizes


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_check_equitable_makes_no_dense_copy(rng):
    # an N-by-N float64 cast of the integer matrix alone would reach N^2 * 8
    n, k = 600, 300
    A = rng.integers(0, 5, size=(n, n))
    p = random_partition(rng, n, k)
    wi = eq.WeightedIndicator.unit(p)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        eq.check_equitable(A, wi, "front")
        eq.check_equitable(A, wi, "rear")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


# ------------------------------------------------ the two kernels on sparse input

SPARSE = ("int64-graph", "uint8-graph", "bool-graph", "empty-rows-cols", "all-zero",
          "negative-zero", "complex-zero-part", "float")
EXACT = set(SPARSE) - {"float"}  # every sum of these is exact in float64


def _sparse(rng, kind):
    """An n-by-n matrix of kind: a graph's adjacency, with entries 1 or 2, or
    at most three stored entries in each row and in each column."""
    n = int(rng.integers(2, 25))
    mask = np.zeros((n, n), dtype=bool)
    for _ in range(3):
        mask[np.arange(n), rng.permutation(n)] |= rng.random(n) < 0.7
    if kind.endswith("graph"):
        A = (mask | mask.T) * rng.integers(1, 3, (n, n))
        return A.astype(kind.split("-")[0])
    A = rng.integers(-3, 4, (n, n)) * mask
    if kind == "empty-rows-cols":
        A[rng.random(n) < 0.4] = 0
        A[:, rng.random(n) < 0.4] = 0
    elif kind == "all-zero":
        A[:] = 0
    elif kind == "negative-zero":
        A = np.where(mask & (A == 0), -0.0, A.astype(float))
        A[rng.random((n, n)) < 0.3] = -0.0
    elif kind == "complex-zero-part":
        part = rng.integers(-3, 4, (n, n)) * mask
        real = rng.random((n, n)) < 0.5
        A = np.where(real, A, 0) + 1j * np.where(real, 0, part)
    elif kind == "float":
        A = rng.normal(size=(n, n)) * mask
    return A


def _weights(rng, n, kind):
    """None, signed powers of two, or complex weights of modulus 0.5 to 2."""
    if kind == "unit":
        return None
    if kind == "dyadic":
        return np.exp2(rng.integers(-2, 3, n)) * rng.choice([-1.0, 1.0], n)
    return rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))


def _same_sums(a, b):
    """Bit for bit, up to the sign of a zero: a cell with no stored entry sums to
    +0.0 on the table and to whatever sign the blocked pass's zero products carry."""
    return _same_bits(a + 0.0, b + 0.0)


@pytest.mark.parametrize("weights", ["unit", "dyadic", "complex"])
@pytest.mark.parametrize("kind", SPARSE)
def test_table_matches_blocked_kernel(rng, monkeypatch, kind, weights):
    # exact inputs give the blocked kernel's sums bit for bit; float sums are
    # added in another order, within 4 ulps of the sum of the terms' moduli
    # (at most three terms a sum, each rounded sum within 2 u of that sum)
    _force(monkeypatch, "table")
    for _ in range(20):
        A = _sparse(rng, kind)
        n = A.shape[0]
        p = random_partition(rng, n)
        p = eq.Partition.from_cells([p.cells[i] for i in rng.permutation(p.k)])
        lay = partition._layout(p)
        w = _weights(rng, n, weights)
        T = partition._entries(A)
        assert T is not None and T.vals.dtype == A.dtype
        assert T.rows.size == np.count_nonzero(A)
        pick = rng.permutation(p.k)[:int(rng.integers(1, p.k + 1))]
        for side, cols, similar in (("front", None, False), ("rear", None, False),
                                    ("front", _column_set(p, pick), False),
                                    ("rear", _column_set(p, pick), False),
                                    ("front", None, True), ("front", _column_set(p, pick), True)):
            if similar and w is None:
                continue
            got = partition._aggregate(T, lay, w, side, cols, similar)
            want = partition._aggregate(A, lay, w, side, cols, similar)
            assert got.dtype == want.dtype and got.shape == want.shape
            if kind in EXACT and weights != "complex":
                assert _same_sums(got, want)
                continue
            moduli = np.abs(A) if side == "front" else np.abs(A).T
            if similar:
                moduli = moduli / np.abs(w)[:, None]
            bound = partition._aggregate(moduli, lay, None if w is None else np.abs(w),
                                         "front", cols)
            assert np.all(np.abs(got - want) <= 4 * np.spacing(bound))


@pytest.mark.parametrize("kind", sorted(EXACT))
def test_contexts_agree_across_kernels(rng, monkeypatch, kind):
    # identical sums make every aggregate identical, also for cells whose
    # weights lie outside 2^+-400 (scaled by _cell_weights before the pass)
    for _ in range(10):
        A = _sparse(rng, kind)
        n = A.shape[0]
        p = random_partition(rng, n)
        w = np.exp2(rng.integers(-2, 3, n)) * rng.choice([-1.0, 1.0], n)
        far = np.isin(p.labels(), rng.permutation(p.k)[:2])
        w[far] *= np.exp2(rng.choice([-500.0, 500.0], p.k))[p.labels()][far]
        wi = eq.WeightedIndicator(p, w)
        Theta = rng.integers(-2, 3, (p.k, p.k)).astype(float)
        runs = []
        for kernel in ("blocked", "table"):
            _force(monkeypatch, kernel)
            sums = partition._Sums(A, wi, keep=True)
            assert isinstance(sums.A, partition._Entries) == (kernel == "table")
            runs.append([sums.verdict("front", 0.0).per_block_residuals,
                         sums.verdict("rear", 0.0).per_block_residuals,
                         *(sums.quotient(a) for a in (-1.0, 0.0, 1.0)),
                         *(T for _, T in sums.deviations()),
                         eq.theta_residual(A, wi, Theta, "front"),
                         eq.theta_residual(A, wi, Theta, "rear"),
                         eq.epsilon_equitability(A, p),
                         eq.check_regular_equivalence(A, p)])
        for got, want in zip(*runs):
            assert _same_sums(np.asarray(got), np.asarray(want))


@pytest.mark.parametrize("s", [2.0**600, 2.0**-600])
def test_table_scales_exactly_by_powers_of_two(rng, monkeypatch, s):
    # the README's rule: residuals, quotients, per-block norms and epsilon on
    # s A are exactly s times those on A, on the table path too
    _force(monkeypatch, "table")
    for _ in range(10):
        A = _sparse(rng, "float")
        A = A + 1j * rng.normal(size=A.shape) * (A != 0)
        n = A.shape[0]
        p = random_partition(rng, n)
        wi = eq.WeightedIndicator(p, random_weights(rng, p))
        for side in ("front", "rear"):
            base, big = (eq.check_equitable(M, wi, side) for M in (A, s * A))
            assert np.array_equal(big.per_block_residuals, s * base.per_block_residuals)
            assert big.max_residual == s * base.max_residual
        for alpha in (-1.0, 0.0, 1.0):
            assert np.array_equal(eq.generalized_quotient(s * A, wi, alpha).entries,
                                  s * eq.generalized_quotient(A, wi, alpha).entries)
        for T, sT in zip(eq.deviation_matrices(A, wi), eq.deviation_matrices(s * A, wi)):
            assert np.array_equal(eq.deviation_report(sT).per_block_norms,
                                  s * eq.deviation_report(T).per_block_norms)
        assert eq.epsilon_equitability(s * A, p) == s * eq.epsilon_equitability(A, p)


# ------------------------------- the verdict's segment routes on both kernels

ENTRIES = ("int", "dyadic", "complex-dyadic", "real", "complex")
WEIGHT_KINDS = ("unit", "dyadic", "complex-dyadic", "real", "complex")
EXACT_KINDS = {"unit", "int", "dyadic", "complex-dyadic"}  # every sum exact in float64


def _dyadic(rng, shape):
    """Signed small integers times powers of two: products and short sums are exact."""
    return rng.integers(-3, 4, shape) * np.exp2(rng.integers(-3, 4, shape))


def _agreement_case(rng, entries, weights, coarsest, moved, far, cancel):
    """A sparse n-by-n A (at most three stored entries per row and column) and
    a weighted indicator: the coarsest equitable partition or a random one,
    cells in random order, `moved` indices moved to another cell, the weights
    of up to two cells scaled by 2^+-450 when far, and with cancel rows whose
    two stored entries in a cell sum to exactly zero."""
    n = int(rng.integers(2, 17))
    mask = np.zeros((n, n), dtype=bool)
    for _ in range(3):
        mask[np.arange(n), rng.permutation(n)] |= rng.random(n) < 0.7
    make = {"int": lambda: rng.integers(-3, 4, (n, n)),
            "dyadic": lambda: _dyadic(rng, (n, n)),
            "complex-dyadic": lambda: _dyadic(rng, (n, n)) + 1j * _dyadic(rng, (n, n)),
            "real": lambda: rng.normal(size=(n, n)),
            "complex": lambda: rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))}
    A = make[entries]() * mask
    p = eq.coarsest_front_equitable_refinement(A) if coarsest else random_partition(rng, n)
    labels = p.labels()
    pick = rng.permutation(n)[:moved]
    labels[pick] = rng.integers(0, p.k, pick.size)
    p = eq.Partition.from_labels(labels)
    p = eq.Partition.from_cells([p.cells[i] for i in rng.permutation(p.k)])
    w = {"unit": lambda: np.ones(n),
         "dyadic": lambda: np.exp2(rng.integers(-2, 3, n)) * rng.choice([-1.0, 1.0], n),
         "complex-dyadic": lambda: _dyadic(rng, n) + 1j * np.exp2(rng.integers(-2, 3, n)),
         "real": lambda: random_weights(rng, p, complex_weights=False),
         "complex": lambda: random_weights(rng, p)}[weights]()
    if far:
        scale = np.ones(p.k)
        scale[rng.permutation(p.k)[:2]] = np.exp2(rng.choice([-450.0, 450.0], 2))[:min(2, p.k)]
        w = w * scale[p.labels()]
    if cancel:
        for cell in (c for c in p.cells if len(c) > 1):
            u, (v1, v2) = rng.integers(n), rng.choice(cell, 2, replace=False)
            A[u, list(cell)] = 0
            A[u, v1], A[u, v2] = A.dtype.type(1 + u % 3), -A.dtype.type(1 + u % 3)
            w[v2] = w[v1]
    return A, eq.WeightedIndicator(p, w)


def _segment_outputs(A, wi, Theta):
    """Everything _Sums computes through the segment routine, by name."""
    sums = partition._Sums(A, wi)
    out = {f"{side} verdict": sums.verdict(side, 0.0).per_block_residuals
           for side in ("front", "rear")}
    out.update({f"quotient {alpha}": sums.quotient(alpha) for alpha in (-1.0, 0.0, 1.0)})
    for side in ("front", "rear"):
        out[f"{side} residual"] = sums.residual(side)
        out[f"{side} theta residual"] = sums.residual(side, Theta)
    return out


def _term_moduli(A, wi, Theta):
    """Each output of _segment_outputs computed from the moduli of its terms
    (of A, the weights and Theta) with dense products: a float output may
    differ between the kernels by 4 ulps of these."""
    p, lay = wi.partition, partition._layout(wi.partition)
    Wa, B = np.abs(wi.matrix()), eq.indicator_matrix(p)
    nrm = np.sqrt((Wa**2).sum(axis=0))
    out = {}
    for side, M, Th in (("front", np.abs(A), np.abs(Theta)), ("rear", np.abs(A).T, np.abs(Theta).T)):
        R = M @ Wa
        D = R + Wa @ (Wa.T @ R / nrm[:, None]**2)
        res = np.sqrt(B.T @ D**2) / nrm
        out[f"{side} verdict"] = res if side == "front" else res.T
        out[f"{side} residual"] = (D / nrm)[lay.order]
        out[f"{side} theta residual"] = ((R + Wa @ Th) / nrm)[lay.order]
    Q = Wa.T @ np.abs(A) @ Wa
    for alpha in (-1.0, 0.0, 1.0):
        out[f"quotient {alpha}"] = (nrm**(alpha - 1))[:, None] * Q * (nrm**(-alpha - 1))[None, :]
    return out


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), entries=st.sampled_from(ENTRIES),
       weights=st.sampled_from(WEIGHT_KINDS), coarsest=st.booleans(),
       moved=st.integers(0, 3), far=st.booleans(), cancel=st.booleans())
def test_segment_routes_agree_with_the_blocked_kernel(monkeypatch, kernel, seed, entries,
                                                      weights, coarsest, moved, far, cancel):
    # the verdict, quotients and residuals on the kernel under test (the table
    # reads only the nonzero blocks, the blocked kernel columns a few at a time)
    # against the blocked kernel's, which reads all columns at once: exact
    # inputs agree bit for bit up to the sign of a zero, others within 4 ulps
    # of the moduli of the terms
    rng = np.random.default_rng(seed)
    A, wi = _agreement_case(rng, entries, weights, coarsest, moved, far, cancel)
    k = wi.partition.k
    Theta = rng.integers(-2, 3, (k, k)) + (1j * rng.integers(-2, 3, (k, k))
                                           if np.iscomplexobj(A) else 0)
    _force(monkeypatch, "blocked")
    want = _segment_outputs(A, wi, Theta)
    _force(monkeypatch, kernel)
    monkeypatch.setattr(partition, "_BLOCK_ENTRIES", 2 * A.shape[0])
    got = _segment_outputs(A, wi, Theta)
    exact = entries in EXACT_KINDS and weights in EXACT_KINDS
    bounds = None if exact else _term_moduli(A, wi, Theta)
    for name, value in got.items():
        if exact:
            assert _same_sums(value, want[name]), name
        else:
            assert np.all(np.abs(value - want[name]) <= 4 * np.spacing(bounds[name])), name
