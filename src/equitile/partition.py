"""Partitions of matrix index sets, weighted indicators, and equitability tests.

A partition is an ordered sequence of disjoint cells covering {0..N-1}.
Cell order is significant (it fixes the block layout of every downstream
transform); indices inside a cell are kept sorted. A Partition is stored
as its block-contiguous layout, built once in O(N log N): read-only int
arrays order (the members of each cell, ascending, cell after cell) and
starts (where each cell begins); its cells, as tuples, are derived on
demand. A weighted indicator attaches a complex weight to every index;
the induced N-by-k matrix W has w[v] in column i exactly when v belongs
to cell i.

Equitability of a matrix A with respect to W means A W = W E (front, i.e.
constant weighted block row aggregates) or W' A = E W' (rear). Deviation
from it is measured blockwise by the normalized residual vectors.

Every cell aggregate (equitability residuals, quotients, deviations,
epsilon and regular-equivalence tests, refinement signatures) comes from
one kernel, _aggregate, over the block-contiguous layout, in one of two
forms chosen by the density of A. When at most _TABLE_DENSITY of A is
nonzero, a table of its stored entries (row, column, value) is built once
and every pass adds each stored entry into its row's cell with np.bincount:
O(nnz + N s) for the s indices of the cells summed into. Otherwise
contiguous row slices of A are gathered a bounded block at a time at the
columns of those cells, in layout order, and np.add.reduceat sums each row
over every cell: O(N s), so O(N^2) whatever the number of cells k. Both
use O(N k) extra memory and no N-by-N temporary, and give the same layout
rows and dtype; float sums can differ in the last bits, as the two add in
different orders. The dense N-by-k indicator W is never formed;
WeightedIndicator.matrix and indicator_matrix remain as oracles.

A _Sums context holds the layout, weights and cell norms of one (A, W),
the entry table of a sparse A, and its front (A W) and rear (A' W) sums,
each summed on first use. Each public reader of aggregates builds its own;
a CLI run builds one, so it makes one pass per side. A refinement builds
its table once, before its first round. Only this module calls either form
of the kernel. Every residual R - W E is _deviation's, and every block
norm of one is _block_norms's, both over row segments of the sums.

A refinement (_refine) keeps its state across its rounds: the table, with
the entries of diag(w)^-1 A diag(w) of a weighted refinement formed once,
the layout's position map and the cell map of the cells a round sums into
(_Columns), each updated, not rebuilt. At color_tol 0 a round sorts its
signatures by cell and one linear key per row, whose ties are checked
exactly (_color_groups); a round in which unequal rows share a key, or a
key is not finite, and every round above 0, sorts lexicographically.

The verdict and the quotient read the sums as blocks (_Sums.blocks), one
row segment per block (i, j). For a dense A these are the N-by-k sums in
column blocks of _BLOCK_ENTRIES entries, every block present: O(N k).
For an entry table with fewer stored entries than N k they are only the
blocks that hold a stored entry, each laid out as the n_i rows of its
cell, zero rows included (_table_blocks): O(nnz log nnz + sum of n_i over
the nonzero blocks + k^2), with no N-by-k array, since a block with no
stored entry has a zero residual and quotient entry; a table with at
least N k entries (few cells) uses the N-by-k sums, at O(nnz). The
residual and the deviations are N-by-k by contract and come from the
N-by-k sums on either form.

_matrix and _vector are the package's checks of a matrix or vector
argument: shape, finiteness, and the working precision. float16, float32
and complex64 input is promoted to float64 or complex128, as a copy;
float64, complex128, integer and bool matrices are used as given.
"""
from __future__ import annotations

import contextlib
import operator
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import AdmissibilityError, InputError

#: entries of A the aggregate kernel gathers per row block (128 KiB of
#: float64); bounds its temporaries, and those of the column-blocked
#: residual passes, independently of N and k
_BLOCK_ENTRIES = 1 << 14

#: largest fraction of nonzero entries at which the aggregates of A are
#: summed over a table of its stored entries (_entries) rather than over all
#: of A: where one pass on the table, its build included, costs about one
#: blocked pass into 10 cells or fewer (N = 400 and 1000, random sparsity);
#: into N/4 cells the table is the faster up to 1/8
_TABLE_DENSITY = 1 / 32


def _matrix(A, shape: tuple[int, int] | None = None) -> np.ndarray:
    """A as a finite 2-d array in the working precision, of the given shape if any.

    float16, float32 and complex64 become float64 and complex128, as a copy:
    an eigensolver or a norm in single precision overflows, or loses the
    digits a bound is checked against. Every other dtype is kept uncopied,
    integer and bool too: the aggregate kernel casts one row block at a time.
    """
    A = np.asarray(A)
    if A.ndim != 2:
        raise InputError(f"2-d matrix required, got shape {A.shape}")
    if shape is not None and A.shape != shape:
        raise InputError(f"matrix of shape {shape} required, got {A.shape}")
    if A.dtype.kind in "fc":
        A = A.astype(np.result_type(A, np.float64), copy=False)
    if A.dtype.kind not in "iub" and not np.isfinite(A).all():
        raise InputError("matrix entries must be finite")
    return A


def _vector(x, n: int | None = None, what: str = "vector") -> np.ndarray:
    """x as a finite non-empty 1-d array in the working precision of _matrix,
    of length n if given; integer and bool entries become float64 as well,
    since vectors are scaled in place. InputError names what x is."""
    x = np.asarray(x)
    if x.ndim != 1 or not x.size or (n is not None and x.size != n):
        size = "a non-empty" if n is None else f"a length-{n}"
        raise InputError(f"{what} must be {size} vector, got shape {x.shape}")
    x = x.astype(np.result_type(x, np.float64), copy=False)
    if not np.isfinite(x).all():
        raise InputError(f"{what} entries must be finite")
    return x


def _finite(x, what: str, minimum: float = -np.inf) -> float:
    """x as a float that is finite and at least minimum, else InputError naming what."""
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        if np.isfinite(v := float(x)) and v >= minimum:
            return v
    rule = "" if minimum == -np.inf else f" >= {minimum:g}"
    raise InputError(f"{what} must be a finite number{rule}, got {x!r}")


def _tolerance(tol) -> float:
    """The tolerance of a verdict (check_equitable, spectrum_split, --tol) is a finite
    number >= 0: below 0 no residual, not even 0, could pass; NaN or inf decides nothing."""
    return _finite(tol, "tolerance", 0)


def _square(A, n: int | None = None) -> np.ndarray:
    """A checked by _matrix to be square, non-empty and, when n is given, n-by-n."""
    A = _matrix(A)
    if A.shape[0] != A.shape[1]:
        raise InputError(f"square matrix required, got shape {A.shape}")
    if not A.size:
        raise InputError(f"square matrix must be non-empty, got shape {A.shape}")
    if n is not None and A.shape[0] != n:
        raise InputError(f"matrix size {A.shape[0]} != partition size {n}")
    return A


class Partition:
    """Ordered disjoint cells covering {0..N-1}; indices sorted within cells.

    Entries must be integers by the rule of _index: Python or numpy integers,
    or objects with __index__; floats and bools are refused. Stored as its
    _Layout, built in O(N log N): every method reads the arrays order and
    starts, cells (tuples of Python ints) is built on demand, and equality
    and hashing compare the arrays.
    """

    __slots__ = ("_lay",)

    def __init__(self, cells: Iterable[Iterable[int]]):
        cells = [c.tolist() if isinstance(c, np.ndarray) else tuple(c) for c in cells]
        sizes = _sizes(cells)
        try:
            flat = _int64(list(chain.from_iterable(cells)), "cell entries must be integers")
        except OverflowError:  # beyond int64, so outside 0..N-1
            raise InputError("cells must disjointly cover 0..N-1") from None
        self._lay = Partition._covering(flat, sizes)._lay

    @classmethod
    def _covering(cls, flat: np.ndarray, sizes: np.ndarray) -> "Partition":
        """The partition of cells of sizes whose int64 entries, one cell after
        another, are flat; InputError unless they disjointly cover 0..N-1."""
        n = flat.size
        # n entries in 0..n-1 that hit every index hit each once
        if not (flat.min() >= 0 and flat.max() < n and np.bincount(flat, minlength=n).all()):
            raise InputError("cells must disjointly cover 0..N-1")
        # the cells arrive grouped, which a stable (run-merging) argsort of
        # label n + index exploits; a key is below n**2
        key = np.repeat(np.arange(sizes.size, dtype=np.int64) * n, sizes) + flat
        return cls._of(flat[np.argsort(key, kind="stable")], np.cumsum(sizes) - sizes)

    @classmethod
    def _of(cls, order: np.ndarray, starts: np.ndarray) -> "Partition":
        """The partition of a layout, members ascending within cells: trusted, not copied."""
        p = object.__new__(cls)
        sizes = np.diff(starts, append=order.size)
        p._lay = _Layout(order, starts, np.repeat(np.arange(starts.size), sizes))
        for a in (order, starts, p._lay.labels):
            a.setflags(write=False)
        return p

    def __reduce__(self):
        return Partition._of, (self.order, self.starts)

    def __eq__(self, other):
        return isinstance(other, Partition) and np.array_equal(self.starts, other.starts) \
            and np.array_equal(self.order, other.order)

    def __hash__(self):
        return hash((self.order.tobytes(), self.starts.tobytes()))

    def __repr__(self):
        return f"Partition(cells={self.cells!r})"

    @classmethod
    def from_cells(cls, cells: Iterable[Iterable[int]]) -> "Partition":
        return cls(cells)

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "Partition":
        """Cells grouped by label value, ordered by smallest member: one stable
        argsort. Labels follow the rule of _index and must fit in int64."""
        lab = labels
        if not (isinstance(lab, np.ndarray) and lab.dtype.kind in "iu"):
            try:
                lab = _int64(list(lab), "labels must be integers")
            except OverflowError as exc:
                raise InputError(f"labels must be integers within int64: {exc}") from None
        if lab.ndim != 1 or not lab.size:
            raise InputError(f"labels must be a non-empty vector, got shape {lab.shape}")
        order = np.argsort(lab, kind="stable")
        starts = np.r_[0, np.flatnonzero(np.diff(lab[order])) + 1]
        return cls._of(order, starts).canonical()

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls.from_labels(np.arange(n))

    @classmethod
    def single_cell(cls, n: int) -> "Partition":
        return cls.from_labels(np.zeros(n, dtype=np.intp))

    order = property(lambda self: self._lay.order)
    starts = property(lambda self: self._lay.starts)
    n = property(lambda self: self.order.size)
    k = property(lambda self: self.starts.size)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(np.diff(self.starts, append=self.n).tolist())

    @property
    def cells(self) -> tuple[tuple[int, ...], ...]:
        members, bounds = self.order.tolist(), [*self.starts.tolist(), self.n]
        return tuple(tuple(members[a:b]) for a, b in zip(bounds, bounds[1:]))

    def canonical(self) -> "Partition":
        """Same cells, reordered so cells appear by their smallest element."""
        rank = np.argsort(self.order[self.starts])
        sizes = np.diff(self.starts, append=self.n)[rank]
        starts = np.cumsum(sizes) - sizes
        shift = np.repeat(self.starts[rank] - starts, sizes)
        return Partition._of(self.order[shift + np.arange(self.n)], starts)

    def labels(self) -> np.ndarray:
        """Array mapping each index to its cell number."""
        lab = np.empty(self.n, dtype=int)
        lab[self.order] = self._lay.labels
        return lab

    def refines(self, other: "Partition") -> bool:
        """True if every cell of self lies inside a cell of other."""
        if self.n != other.n:
            return False
        lab = other.labels()[self.order]
        return np.array_equal(np.maximum.reduceat(lab, self.starts),
                              np.minimum.reduceat(lab, self.starts))

    def to_dict(self) -> dict:
        """JSON form with 1-based indices."""
        return {"n": self.n, "cells": [[v + 1 for v in c] for c in self.cells]}

    @classmethod
    def from_dict(cls, d: dict) -> "Partition":
        """Inverse of to_dict; n and every index must be integers, not bools.
        The entries are checked and converted once, flat (_int64)."""
        try:
            cells = [tuple(c) for c in d["cells"]]
            flat = _int64(list(chain.from_iterable(cells)), "bad partition object") - 1
            n = _index(d["n"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad partition object: {exc}") from exc
        except OverflowError:  # beyond int64, so outside 1..N
            raise InputError("cells must disjointly cover 0..N-1") from None
        p = cls._covering(flat, _sizes(cells))
        if p.n != n:
            raise InputError(f"partition covers {p.n} indices but n = {n}")
        return p


def _index(v) -> int:
    """v as an int if it is an integer (Python or numpy) other than a bool."""
    if isinstance(v, (bool, np.bool_)):
        raise TypeError(f"{v!r} is not an index")
    return operator.index(v)


def _int64(values: list, what: str) -> np.ndarray:
    """values as int64, each an integer by the rule of _index (applied to one
    entry of each type), else InputError "what: ..." naming the first entry
    that is not; OverflowError beyond int64."""
    try:
        for v in dict(zip(map(type, values), values)).values():
            _index(v)
    except TypeError:
        try:
            for v in values:
                _index(v)
        except TypeError as exc:
            raise InputError(f"{what}: {exc}") from None
    return np.fromiter(values, dtype=np.int64, count=len(values))


def _sizes(cells: list) -> np.ndarray:
    sizes = np.fromiter(map(len, cells), dtype=np.intp, count=len(cells))
    if not cells or not sizes.all():
        raise InputError("cells must be non-empty")
    return sizes


@dataclass(frozen=True, eq=False)
class WeightedIndicator:
    """Partition plus a complex weight per index."""

    partition: Partition
    weights: np.ndarray

    def __post_init__(self):
        w = _vector(self.weights, self.partition.n, "weights").copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def unit(cls, partition: Partition) -> "WeightedIndicator":
        return cls(partition, np.ones(partition.n))

    def cell_norms2(self) -> np.ndarray:
        """Exact squared norms per cell (integer-valued for unit weights); 0
        or inf where they are too small or too large for a float64."""
        _, e, norms2 = _cell_weights(self)
        with np.errstate(over="ignore", under="ignore"):
            return np.ldexp(norms2, -2 * e)

    def cell_norms(self) -> np.ndarray:
        return np.sqrt(self.cell_norms2())

    def matrix(self) -> np.ndarray:
        """Dense N-by-k weighted indicator."""
        lay = self.partition._lay
        W = np.zeros((self.partition.n, self.partition.k), dtype=self.weights.dtype)
        W[lay.order, lay.labels] = self.weights[lay.order]
        return W


def is_admissible(wi: WeightedIndicator) -> bool:
    """Every cell's weight block must have strictly positive norm."""
    return bool(np.all(_cell_weights(wi)[2] > 0))


def require_admissible(wi: WeightedIndicator) -> None:
    bad = np.flatnonzero(_cell_weights(wi)[2] == 0).tolist()
    if bad:
        raise AdmissibilityError(f"cells {bad} have zero-norm weight blocks")


def indicator_matrix(p: Partition) -> np.ndarray:
    """Dense N-by-k 0/1 matrix; column i marks the members of cell i."""
    return WeightedIndicator.unit(p).matrix()


def suitable_indexing_permutation(p: Partition) -> np.ndarray:
    """Forward relabeling map making cells occupy contiguous ranges in order.

    Returns sigma with new_index = sigma[old_index]. Indices already inside
    their cell's target range keep their position; the remaining members
    fill the free slots in ascending order. Relabeling A as A[inv, inv]
    with inv = argsort(sigma) yields the block-contiguous layout.
    """
    # index v stays when its cell's range holds it; the others, in layout
    # order, fill the free slots, which are ascending and grouped by the cell
    # whose range holds them
    stay = p.labels() == p._lay.labels
    perm = np.arange(p.n)
    perm[p.order[~stay[p.order]]] = np.flatnonzero(~stay)
    perm.setflags(write=False)
    return perm


class _Layout(NamedTuple):
    """Block-contiguous layout of a partition.

    Position p holds index order[p]: the cells in order, members ascending.
    Cell i occupies positions starts[i] up to starts[i + 1], and labels[p]
    is the cell of position p. pos, the inverse of order (index v sits at
    position pos[v]), is held only by a refinement's layouts, which keep and
    update one array across their rounds; see _positions.
    """

    order: np.ndarray
    starts: np.ndarray
    labels: np.ndarray
    pos: np.ndarray | None = None


def _layout(p: Partition) -> _Layout:
    """The layout p is stored as, members ascending within cells."""
    return p._lay


def _positions(lay: _Layout) -> np.ndarray:
    """pos[v], the layout position of index v: lay.pos, else built in O(N)."""
    if lay.pos is not None:
        return lay.pos
    pos = np.empty(lay.order.size, dtype=np.intp)
    pos[lay.order] = np.arange(lay.order.size)
    return pos


def _abs2(X: np.ndarray) -> np.ndarray:
    """Entrywise squared modulus."""
    if np.iscomplexobj(X):
        return X.real**2 + X.imag**2
    return X * X


def _pow2_scale(X: np.ndarray, starts: np.ndarray | None = None) -> np.ndarray:
    """Scale X in place by powers of two and return their exponents e.

    X is multiplied by the 2^e that brings its largest |Re| or |Im| into
    [0.5, 1), or with starts each segment of rows starts[i] up to
    starts[i + 1] of each column by its own; an all-zero part keeps e = 0.
    Squares of the scaled entries cannot overflow, nor all underflow to
    zero, as in LAPACK's dznrm2, and the scaling is exact: a norm of the
    scaled entries times 2^-e is the plain norm wherever that one neither
    overflows nor underflows.
    """
    parts = (X.real, X.imag) if np.iscomplexobj(X) else (X,)
    if starts is None:
        e = rows = -np.frexp(_largest(X))[1]
    else:
        mag = np.maximum(*map(np.abs, parts)) if len(parts) == 2 else np.abs(X)
        e = -np.frexp(np.maximum.reduceat(mag, starts, axis=0))[1]
        rows = np.repeat(e, np.diff(starts, append=len(X)), axis=0)
    for part in parts:
        np.ldexp(part, rows, out=part)
    return e


def _cell_weights(wi: WeightedIndicator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(wl, e, norms2): the weights in layout order, cell i's times 2^e[i],
    and the squared norms of the cells so scaled.

    A cell whose largest |Re| or |Im| lies outside 2^+-400, where its squared
    norm could overflow or underflow, is scaled by _pow2_scale into [0.5, 1);
    every other cell keeps e = 0, and its weights and all results from them
    are the plain ones, bit for bit.
    """
    lay = wi.partition._lay
    wl = wi.weights[lay.order]
    scaled = wl.copy()
    e = _pow2_scale(scaled, lay.starts)
    e[np.abs(e) <= 400] = 0
    rows = e[lay.labels] != 0
    wl[rows] = scaled[rows]
    return wl, e, np.add.reduceat(_abs2(wl), lay.starts)


def _largest(X: np.ndarray) -> float:
    """The largest |Re| or |Im| of X, from maxima and minima: no temporary.

    A Python float, so that comparing it with a double bound never casts the
    bound to the dtype of X (2^400 overflows float32)."""
    parts = (X.real, X.imag) if np.iscomplexobj(X) else (X,)
    return float(max(max(part.max(initial=0.0), -part.min(initial=0.0)) for part in parts))


def _scaled(X: np.ndarray) -> tuple[np.ndarray, int]:
    """(X, 0) when the largest |Re| or |Im| of X is 0 or within 2^+-400, where
    sums of the squares of X neither overflow nor underflow to zero; else
    (Y, e) with Y = X 2^e a copy scaled by _pow2_scale. A norm of Y times
    2^-e is then the norm of X at any magnitude, and in the normal range the
    plain one, bit for bit and with no copy."""
    top = _largest(X)
    if top == 0 or 2.0**-400 <= top <= 2.0**400:
        return X, 0
    Y = np.array(X, dtype=np.result_type(X, np.float64))
    return Y, int(_pow2_scale(Y))


def _frobenius(X) -> float:
    """np.linalg.norm(X) at any magnitude of X (see _scaled)."""
    Y, e = _scaled(np.asarray(X))
    return float(np.ldexp(np.linalg.norm(Y), -e))


class _Entries(NamedTuple):
    """The stored entries of a square A, row after row: A[rows[t], cols[t]]
    is vals[t], of A's dtype, and every other entry of A is zero."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


def _entries(A: np.ndarray) -> _Entries | None:
    """The entry table of A when at most _TABLE_DENSITY of its entries are
    nonzero, else None.

    The nonzeros are found in blocks of rows of just over _TABLE_DENSITY N^2
    entries each, one bool mask at a time, and the count stops at the first
    block that passes the threshold, so a dense A pays one block. The table
    holds 16 bytes of indices per stored entry besides its value.
    """
    n = A.shape[0]
    limit = _TABLE_DENSITY * n * n
    step = max(1, int(limit) // n + 1)
    found, vals, count = [], [], 0
    for a in range(0, n, step):
        blk = A[a:a + step]
        idx = np.flatnonzero(blk != 0)
        count += idx.size
        if count > limit:
            return None
        vals.append(blk.reshape(-1).take(idx))
        idx += a * n
        found.append(idx)
    cols = np.concatenate(found)
    del found
    rows = cols // n
    cols -= rows * n
    return _Entries(rows, cols, np.concatenate(vals))


class _Columns(NamedTuple):
    """A column set: its cell j holds order[starts[j]] up to order[starts[j + 1]],
    and cell[v] is the cell of index v, -1 for an index in no cell of the set."""

    order: np.ndarray
    starts: np.ndarray
    cell: np.ndarray


def _columns(cols: _Columns | tuple[np.ndarray, np.ndarray], n: int) -> _Columns:
    """cols as a _Columns of the indices 0..n-1: as given, or the column set
    (corder, cstarts) with its cell map built in O(n)."""
    if isinstance(cols, _Columns):
        return cols
    corder, cstarts = cols
    marks = np.zeros(corder.size, dtype=np.intp)
    marks[cstarts[1:]] = 1
    cell = np.full(n, -1, dtype=np.intp)
    cell[corder] = np.cumsum(marks, out=marks)
    return _Columns(corder, cstarts, cell)


def _aggregate(A: np.ndarray | _Entries, lay: _Layout, w: np.ndarray | None = None,
               side: str = "front",
               cols: _Columns | tuple[np.ndarray, np.ndarray] | None = None,
               similar: bool = False) -> np.ndarray:
    """R[p, j] = sum over v in cell j of M[order[p], v] * w[v], rows in layout order.

    M is A for side "front" and A' (conjugate transpose) for "rear"; w
    defaults to all ones. The cells summed into are those of the layout, or
    the column set cols = (corder, cstarts), or a _Columns that also holds
    its cell map: cell j holds corder[cstarts[j]] up to corder[cstarts[j + 1]].
    With similar (front, w given) M is diag(w)^-1 A diag(w), each entry
    formed as (A[u, v] w[v]) / w[u]. Real w scales both parts of complex
    entries: unit w sums bit for bit as no w.

    A is the matrix or its entry table (_entries); both give the same rows
    and dtype. On the table every stored entry in a column of the set is
    cast and scaled (_stored) and added to its row's cell with np.bincount:
    O(nnz + N s) for the s indices of the column set. On the matrix
    contiguous slices of _BLOCK_ENTRIES entries' worth of rows of M are
    gathered at the set's columns in their order, cast, scaled and summed
    per cell with np.add.reduceat: O(N s) (O(N^2) for all cells) whatever
    the number of cells, with temporaries of the block size only. The two
    add in different orders, so float sums can differ in the last bits;
    sums exact in float64 (integer, bool and dyadic entries and weights)
    agree bit for bit, up to the sign of a zero.
    """
    order = lay.order
    corder, cstarts = (order, lay.starts) if cols is None else cols[:2]
    n, m = order.size, cstarts.size
    if isinstance(A, _Entries):
        p, cell, v = _stored(A, lay, w, side, cols, similar)
        p *= m
        p += cell
        return _bincount(p, v, n * m).reshape(n, m)
    dtype, conj = _sum_dtype(A.dtype, w, side)
    pos = _positions(lay)
    M = A if side == "front" else A.T
    parts = w is not None and w.dtype.kind != "c" and dtype.kind == "c"
    wc = None if w is None else w[corder]
    if parts:  # scale both parts: a product with w + 0j can flip a zero's sign
        wc = np.repeat(wc, 2)
    out = np.empty((n, m), dtype=dtype)
    step = max(1, _BLOCK_ENTRIES // corder.size)
    for a in range(0, n, step):
        blk = M[a:a + step].take(corder, axis=1).astype(dtype, copy=False)
        if conj:
            np.conjugate(blk, out=blk)
        if wc is not None:
            scaled = blk.view(blk.real.dtype) if parts else blk
            scaled *= wc
            if similar:
                blk /= w[a:a + step, None]
        out[pos[a:a + step]] = np.add.reduceat(blk, cstarts, axis=1)
    return out


def _sum_dtype(adtype: np.dtype, w: np.ndarray | None, side: str) -> tuple[np.dtype, bool]:
    """The dtype _aggregate sums A's entries in, and whether it conjugates them."""
    dtype = np.result_type(adtype, np.float64 if w is None else w.dtype)
    return dtype, side == "rear" and adtype.kind == "c"


def _stored(T: _Entries, lay: _Layout, w: np.ndarray | None, side: str,
            cols: _Columns | tuple[np.ndarray, np.ndarray] | None = None,
            similar: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, cell, v) for each stored entry M[u, x] of the table T whose column x
    lies in a cell of the column set (cols, or the cells of lay; M and the
    arguments as in _aggregate): the layout row p of u, that cell, and the
    entry cast and scaled as the blocked pass scales it (_values)."""
    rows, xs = (T.cols, T.rows) if side == "rear" else (T.rows, T.cols)
    n = lay.order.size
    pos = _positions(lay)
    vals = T.vals
    if cols is None:
        cell = lay.labels[pos[xs]]
    else:
        cols = _columns(cols, n)
        cell = cols.cell[xs]
        if cols.order.size < n:  # only the entries in the set's columns
            keep = (cell >= 0).nonzero()[0]
            rows, xs, cell, vals = rows[keep], xs[keep], cell[keep], vals[keep]
    return pos[rows], cell, _values(vals, rows, xs, w, side, similar)


def _values(vals: np.ndarray, rows: np.ndarray, xs: np.ndarray, w: np.ndarray | None,
            side: str, similar: bool = False) -> np.ndarray:
    """The stored entries vals of M at (rows, xs) (M and the arguments as in
    _aggregate) cast to the sum dtype, conjugated for a complex rear side and
    scaled by w[x], then with similar divided by w[u]; uncopied when nothing
    is to be done. Real w may scale complex entries as w + 0j: every sum of
    these starts from +0.0, so no zero's sign survives a product."""
    dtype, conj = _sum_dtype(vals.dtype, w, side)
    v = vals.astype(dtype, copy=conj or w is not None)
    if conj:
        np.conjugate(v, out=v)
    if w is not None:
        v *= w[xs]
        if similar:
            v /= w[rows]
    return v


def _bincount(key: np.ndarray, v: np.ndarray, size: int) -> np.ndarray:
    """out[key[t]] += v[t] in the order of t, into size zeros of v's dtype."""
    if v.dtype.kind != "c":
        # with no weights np.bincount would sum to int64 zeros
        return np.bincount(key, v, size) if v.size else np.zeros(size, dtype=v.dtype)
    out = np.empty(size, dtype=v.dtype)
    out.real = np.bincount(key, v.real, size)
    out.imag = np.bincount(key, v.imag, size)
    return out


def _cell_sums(X: np.ndarray, starts: np.ndarray, wl: np.ndarray | None = None) -> np.ndarray:
    """S[i, j] = sum over the rows p of segment i of conj(wl[p]) X[p, j];
    segment i is rows starts[i] up to starts[i + 1].

    With X an aggregate R in layout rows and the cells' starts, this is W'R:
    the (unnormalized) quotient.
    """
    if wl is not None:
        X = wl.conj()[:, None] * X
    return np.add.reduceat(X, starts, axis=0)


def _deviation(R: np.ndarray, starts: np.ndarray, wl: np.ndarray, norms2: np.ndarray,
               E: np.ndarray | None = None) -> np.ndarray:
    """R - W E over the row segments starts of R: row p of segment i minus
    E[i] * wl[p], E by default the quotient W'R / ||w_i||^2 of R's own columns
    (norms2[i] holds ||w_i||^2 of segment i's weights)."""
    if E is None:
        E = _cell_sums(R, starts, wl) / norms2[:, None]
    D = np.repeat(E, np.diff(starts, append=len(R)), axis=0)
    D = D.astype(np.result_type(R, E, wl), copy=False)
    D *= wl[:, None]
    np.subtract(R, D, out=D)
    return D


def _block_norms(D: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Norm of each row segment (starts) of D in each column, at any magnitude (_scaled)."""
    S, e = _scaled(D)
    return np.ldexp(np.sqrt(_cell_sums(_abs2(S), starts)), -e)


class _Blocks(NamedTuple):
    """Blocks (i, j) of one side's sums R, as row segments of X: segment b is
    rows starts[b] up to starts[b + 1], the n_i layout rows of cell i, zero
    rows included, in column j of X; wl holds the weights of X's rows and
    norms2[b] is ||w_i||^2. Indexing a k-by-k array with at selects the blocks
    in the shape of a per-segment result (_cell_sums, _block_norms).

    The N-by-k sums give the column blocks of R in layout rows, every block
    present; an entry table gives only the blocks that hold a stored entry,
    in one column (_table_blocks)."""

    X: np.ndarray
    starts: np.ndarray
    wl: np.ndarray
    norms2: np.ndarray
    at: tuple


def _table_blocks(T: _Entries, lay: _Layout, w: np.ndarray, wl: np.ndarray,
                  norms2: np.ndarray, side: str) -> _Blocks:
    """The nonzero blocks of R = A W (front) or A' W (rear) from the table T.

    One np.unique of the (cell, layout row) keys of the stored entries
    (_stored) and one np.bincount collapse them into triples, the sums R[p, j]
    that hold a stored entry, added in the order of the table as _aggregate
    adds them; sorted by cell j, then row, the triples of a block (i, j) are
    contiguous. Each block is laid out as one segment of the n_i rows of cell
    i: O(nnz log nnz + sum of n_i over the nonzero blocks), with no N-by-k
    array. Every other block of R is zero.
    """
    n, starts = lay.order.size, lay.starts
    p, cell, v = _stored(T, lay, w, side)
    cell *= n
    cell += p
    key, inv = np.unique(cell, return_inverse=True)
    v = _bincount(inv, v, key.size)
    j, p = np.divmod(key, n)
    i = lay.labels[p]
    new = np.empty(key.size, dtype=bool)
    new[:1] = True
    np.not_equal(j[1:], j[:-1], out=new[1:])
    new[1:] |= i[1:] != i[:-1]
    first = np.flatnonzero(new)
    bi, bj = i[first], j[first]
    sizes = np.diff(starts, append=n)[bi]
    seg = np.cumsum(sizes) - sizes
    X = np.zeros((sizes.sum(), 1), dtype=v.dtype)
    X[seg[np.cumsum(new) - 1] + p - starts[i], 0] = v
    rows = np.repeat(starts[bi] - seg, sizes)
    rows += np.arange(rows.size)
    return _Blocks(X, seg, wl[rows], norms2[bi], (bi[:, None], bj[:, None]))


def _side(side: str) -> str:
    if side not in ("front", "rear"):
        raise InputError(f"side must be 'front' or 'rear', got {side!r}")
    return side


class _Sums:
    """The cell aggregates of one (A, wi), each summed on first use.

    With keep (a CLI run, which reads them more than once) each is held until
    deviations releases it; a single library call keeps none, so each is freed
    once read. A is not copied, and a sparse A is held as its entry table
    (_entries): a context lives only as long as its call or run.
    """

    def __init__(self, A, wi: WeightedIndicator, keep: bool = False):
        self.partition = p = wi.partition
        self.keep = keep
        A, self.lay, self.w = _square(A, p.n), _layout(p), wi.weights
        table = _entries(A)
        self.A = A if table is None else table
        # cells of far-off weights are scaled by 2^e (_cell_weights): W S for
        # S = diag(2^e) leaves the deviations as they are and turns E^alpha into
        # S^alpha E^alpha S^-alpha, which quotient undoes and residual applies
        self.wl, self.e, self.norms2 = _cell_weights(wi)
        if not np.all(self.norms2 > 0):
            require_admissible(wi)
        if self.e.any():
            self.w = np.empty_like(self.wl)
            self.w[self.lay.order] = self.wl
        self._unit = self.w.dtype == np.float64 and bool(np.all(self.w == 1))
        self._memo: dict[tuple[str, bool | str], np.ndarray | list[_Blocks]] = {}

    def sums(self, side: str = "front", weighted: bool = True) -> np.ndarray:
        """A W (front) or A' W (rear) in layout rows; unit weights serve both requests."""
        key = (_side(side), weighted or self._unit)
        R = self._memo.get(key)
        if R is None:
            R = _aggregate(self.A, self.lay, self.w if key[1] else None, side)
            if self.keep:
                self._memo[key] = R
        return R

    def blocks(self, side: str) -> list[_Blocks]:
        """The blocks of A W (front) or A' W (rear): the nonzero blocks of a
        sparse A's entry table (_table_blocks), with no N-by-k array, when the
        N-by-k sums would hold more entries than the table; else the N-by-k
        sums in column blocks of _BLOCK_ENTRIES entries, which then cost no
        more than the table and need no sort."""
        wl, norms2 = self.wl, self.norms2
        if isinstance(self.A, _Entries) and self.A.vals.size < wl.size * norms2.size:
            key = (_side(side), "blocks")
            blocks = self._memo.get(key)
            if blocks is None:
                blocks = [_table_blocks(self.A, self.lay, self.w, wl, norms2, side)]
                if self.keep:
                    self._memo[key] = blocks
            return blocks
        R, starts, step = self.sums(side), self.lay.starts, max(1, _BLOCK_ENTRIES // wl.size)
        return [_Blocks(R[:, c:c + step], starts, wl, norms2, (slice(None), slice(c, c + step)))
                for c in range(0, norms2.size, step)]

    def residual(self, side: str, theta=None) -> np.ndarray:
        """(R - W E) (W'W)^{-1/2} in layout rows for R the side's sums. E is their
        quotient, or a checked k-by-k theta (Theta' for rear, whose residual
        W'A - Theta W' this transposes) taken to the scaled cells as S^-1 Theta S."""
        if theta is not None:
            theta = theta.conj().T if side == "rear" else theta
            if self.e.any():
                theta = theta * np.exp2(self.e[None, :] - self.e[:, None])
        D = _deviation(self.sums(side), self.lay.starts, self.wl, self.norms2, theta)
        return np.divide(D, np.sqrt(self.norms2)[None, :], out=D)

    def verdict(self, side: str, tol: float) -> EquitabilityVerdict:
        tol = _tolerance(tol)
        res = np.zeros((self.norms2.size, self.norms2.size))
        for b in self.blocks(side):
            res[b.at] = _block_norms(_deviation(b.X, b.starts, b.wl, b.norms2), b.starts)
        res /= np.sqrt(self.norms2)[None, :]
        # rows of res follow the aggregated side's cells: transpose for rear
        if side == "rear":
            res = res.T
        mx = float(res.max())
        res.setflags(write=False)
        return EquitabilityVerdict(side, mx <= tol, mx, res, tol)

    def epsilon(self) -> float:
        lay, R = self.lay, self.sums(weighted=False)
        if not np.iscomplexobj(R):
            spread = np.maximum.reduceat(R, lay.starts, axis=0) - \
                np.minimum.reduceat(R, lay.starts, axis=0)
            return float(spread.max())
        worst = 0.0
        bounds = np.append(lay.starts, R.shape[0])
        for a, b in zip(bounds[:-1], bounds[1:]):
            X = R[a:b]
            step = max(1, _BLOCK_ENTRIES // X.size)
            for c in range(0, b - a, step):
                worst = max(worst, float(np.abs(X[c:c + step, None] - X[None]).max()))
        return worst

    def regular(self) -> bool:
        zero = self.sums(weighted=False) == 0
        counts = np.add.reduceat(zero, self.lay.starts, axis=0, dtype=np.intp)
        return not np.any((counts > 0) & (counts < np.asarray(self.partition.sizes)[:, None]))

    def quotient(self, alpha: float) -> np.ndarray:
        """E^alpha (see generalized_quotient) from W'AW, the cell sums of the blocks of A W."""
        norms2, blocks = self.norms2, self.blocks("front")
        M = np.zeros((norms2.size, norms2.size), dtype=np.result_type(blocks[0].X, self.wl))
        for b in blocks:
            M[b.at] = _cell_sums(b.X, b.starts, b.wl)
        # divide by the exact squared norms for the two standard quotients so
        # integer-exact inputs produce integer-exact entries
        if alpha == -1.0:
            entries = M / norms2[:, None]
        elif alpha == 1.0:
            entries = M / norms2[None, :]
        else:
            norms = np.sqrt(norms2)
            entries = (norms ** (alpha - 1.0))[:, None] * M * (norms ** (-alpha - 1.0))[None, :]
        if self.e.any():
            entries *= np.exp2(alpha * (self.e[None, :] - self.e[:, None]))
        entries.setflags(write=False)
        return entries

    def deviations(self) -> list[tuple[str, np.ndarray]]:
        """(side, T) for T_front = (A W - W E_front) (W'W)^{-1/2} and T_rear =
        (A' W - W E_rear') (W'W)^{-1/2}, rows in index order. Their last reader,
        it releases each side's sums once its residual is formed."""
        pos, out = _positions(self.lay), []
        for side in ("front", "rear"):
            T = self.residual(side)
            self._memo.pop((side, True), None)
            T = T[pos]
            T.setflags(write=False)
            out.append((side, T))
        return out


@dataclass(frozen=True, eq=False)
class EquitabilityVerdict:
    side: str
    is_equitable: bool
    max_residual: float
    per_block_residuals: np.ndarray
    tol: float


def check_equitable(A, wi: WeightedIndicator, side: str = "front", tol: float = 1e-10
                    ) -> EquitabilityVerdict:
    """Blockwise equitability residuals of A with respect to wi.

    The (i, j) residual is the norm of the deviation vector of block (i, j):
    front uses (A_ij w_j - e_ij w_i)/||w_j|| with e_ij the weighted row
    aggregate; rear is the column analogue. Normalization by the weight
    norms makes the tolerance scale-free in the weights; tol must be a
    finite number >= 0.

    The residual of R = A W (front) or A' W (rear) (_deviation, two-pass)
    and its block norms (_block_norms, at any float64 magnitude of A) are
    taken per block (_Sums.blocks), before the division by ||w_j||. A dense
    A costs one O(N^2) aggregate pass and O(N k) for the residual, in column
    blocks of _BLOCK_ENTRIES entries. A sparse A (its entry table) costs
    O(nnz log nnz + sum of n_i over the blocks (i, j) that hold a stored
    entry + k^2) and forms no N-by-k array: every other block's residual is
    0. With nnz >= N k it uses the N-by-k sums, at O(nnz).
    """
    return _Sums(A, wi).verdict(side, tol)


def epsilon_equitability(A, p: Partition) -> float:
    """Smallest eps such that all block row sums spread at most eps.

    The spread of a block is the largest modulus of a difference of two of
    its row sums; the result is the maximum over all blocks. The row sums
    come from one aggregate pass; real spreads are max - min per cell,
    complex ones a pairwise pass per cell over all k columns at once.
    """
    return _Sums(A, WeightedIndicator.unit(p)).epsilon()


def check_regular_equivalence(A, p: Partition) -> bool:
    """True if every block's row-sum vector is entrywise nonzero or all zero.

    Counts the zero row sums of every block from one aggregate pass.
    """
    return _Sums(A, WeightedIndicator.unit(p)).regular()


def _key_weights(m: int) -> np.ndarray:
    """The weights of the signature key (_signature_key): m constants in
    [1, 2), the same on every call, from the splitmix64 mix of 1..m (not
    numpy.random, whose import would add about 13 ms to a CLI run). Like
    independent draws, they give unequal rows one key only by a coincidence
    of rounding, which the check of _color_groups catches."""
    x = np.arange(1, m + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        x ^= x >> np.uint64(shift)
        x *= np.uint64(factor)
    x ^= x >> np.uint64(31)
    return 1.0 + (x >> np.uint64(11)) * 2.0**-53


def _color_groups(R: np.ndarray, labels: np.ndarray, color_tol: float,
                  weights: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """One refinement round: layout rows in sorted order, and where groups start.

    The signatures are the rows of R, one column per summed cell, and labels[p]
    (nondecreasing) is the current cell of layout row p. At color_tol 0 one
    stable lexsort orders the rows by cell, then by one key per row, and a
    group starts where the cell or the key changes. A real R of one column
    is its own key, exact. Otherwise the key is h = X weights for X, R with
    each complex component as its (real, imag) pair (_signature_key), and
    one exact comparison of each row with the one before it, in row blocks
    of _BLOCK_ENTRIES, finds a key shared by unequal rows; that collision,
    or a key that is not finite, sends the round to _lexsort_groups, as
    does any color_tol above 0.
    """
    if color_tol > 0:
        return _lexsort_groups(R, labels, color_tol)
    exact = R.shape[1] == 1 and not np.iscomplexobj(R)
    key = R[:, 0] if exact else _signature_key(R, weights)
    if not (exact or np.isfinite(key).all()):
        return _lexsort_groups(R, labels, 0.0)
    srt = np.lexsort((key, labels))
    key = key.take(srt)
    new = _cell_changes(labels)  # lexsort keeps labels in place
    new[1:] |= key[1:] != key[:-1]
    if exact:
        return srt, new
    step = max(1, _BLOCK_ENTRIES // R.shape[1])
    for a in range(0, srt.size - 1, step):
        rows = R.take(srt[a:a + step + 1], axis=0)
        if ((rows[1:] != rows[:-1]) > new[a + 1:a + step + 1, None]).any():
            return _lexsort_groups(R, labels, 0.0)
    return srt, new


def _signature_key(R: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """h = X weights for X the rows of R, each complex component as its
    (real, imag) pair. An einsum adds every row's products in one order
    wherever the row lies, so equal rows get bit-equal keys; BLAS (@) need
    not, as its blocking and threads depend on the row's place."""
    X = R.view(R.real.dtype) if np.iscomplexobj(R) else R
    return np.einsum("ij,j->i", X, weights[:X.shape[1]])


def _cell_changes(labels: np.ndarray) -> np.ndarray:
    """new[p]: whether layout row p starts a cell (labels nondecreasing)."""
    new = np.empty(labels.size, dtype=bool)
    new[0] = True
    np.not_equal(labels[1:], labels[:-1], out=new[1:])
    return new


def _lexsort_groups(R: np.ndarray, labels: np.ndarray, color_tol: float
                    ) -> tuple[np.ndarray, np.ndarray]:
    """_color_groups by one lexsort of the rows by cell, then lexicographically
    ((real, imag) per complex component); new marks a change of cell, or
    consecutive rows that differ in some column: at color_tol 0 where they
    are not equal, above it by more than color_tol, equal components (the
    same infinity too) counting as within it. Compared in row blocks of
    _BLOCK_ENTRIES."""
    keys = R.T[::-1]
    if np.iscomplexobj(R):
        keys = [part for col in keys for part in (col.imag, col.real)]
    srt = np.lexsort((*keys, labels))
    new = _cell_changes(labels)
    step = max(1, _BLOCK_ENTRIES // R.shape[1])
    for a in range(0, srt.size - 1, step):
        rows = R.take(srt[a:a + step + 1], axis=0)
        near = rows[1:] == rows[:-1]
        if color_tol > 0:
            near |= np.abs(rows[1:] - rows[:-1]) <= color_tol
        new[a + 1:a + step + 1] |= ~near.all(axis=1)
    return srt, new


def _split_off(lay: _Layout, prev: _Layout, kept: _Columns | None) -> _Columns:
    """Column set of every cell of lay but the largest of the cells of the same parent.

    lay refines prev position for position: cell i of lay lies in cell
    prev.labels[lay.starts[i]], its parent. Of equal largest pieces the first
    is left out. A parent that did not split is its own largest piece, so
    only split-off cells remain. The cell map is kept's (the previous round's
    set), cleared and reused, so that it costs O(s) for the s indices of the
    two sets; without kept a new one.
    """
    order, starts, k = lay.order, lay.starts, lay.starts.size
    sizes = np.empty(k, dtype=np.intp)
    np.subtract(starts[1:], starts[:-1], out=sizes[:-1])
    sizes[-1] = order.size - starts[-1]
    # distinct scores ordered by size, then by the earlier cell; the largest
    # of each parent's pieces, which begin at the parent's start
    score = sizes * k - np.arange(k)
    top = np.maximum.reduceat(score, lay.labels[prev.starts])
    keep = score != top[prev.labels[starts]]
    corder = order[keep[lay.labels]]
    sizes = sizes[keep]
    if kept is None:
        cell = np.full(order.size, -1, dtype=np.intp)
    else:
        cell = kept.cell
        cell[kept.order] = -1
    cell[corder] = np.repeat(np.arange(sizes.size), sizes)
    return _Columns(corder, sizes.cumsum() - sizes, cell)


def coarsest_front_equitable_refinement(A, initial: Partition | None = None,
                                        color_tol: float = 0.0) -> Partition:
    """Coarsest refinement of `initial` against which A is front equitable.

    Color refinement: the signature of index u is its vector of row sums
    into cells. Each round splits every cell into groups of members whose
    signatures agree, until no cell splits. At color_tol 0 they agree when
    equal: a round sorts all N members by cell and by one linear key of
    their signatures, and checks that members with equal keys have equal
    signatures, going over to the lexicographic sort below for a round in
    which they do not (see _color_groups). Above 0 a round sorts every
    cell's members lexicographically by signature and splits the cell
    between consecutive members whose signatures differ by more than
    color_tol in the modulus of some component (single linkage).

    At color_tol 0 the first round sums into every cell of `initial` and
    each later round only into the cells the previous round split off, less
    the largest piece of each split cell (Hopcroft's "process the smaller
    half"). Members of a cell already agree on their sums into its parent's
    cells, so the sums into the skipped pieces follow from the others
    (exactly for integer, bool and dyadic entries). A round sums in O(N s)
    for the s indices of the cells it sums into, or in O(nnz + N s) on the
    entry table of a sparse A, built once before the first round (see
    _aggregate), and sorts in O(N log N) plus O(N m) for the key and its
    check over the m cells summed into; each index is summed into at most
    log2(N) times after the first round. The result is the unique coarsest
    refinement. Above 0 agreement is not transitive, so every round sums
    into every current cell, O(N^2) (O(nnz + N k) on the table) plus a
    sort of the N-by-k signatures. The result need be neither equitable nor
    coarsest, but the groups of a cell take its place in the cell order, so
    it depends on A, on the cells of `initial` in their order and on
    color_tol, never on how the indices are labelled. Output is in
    canonical form.

    A sum beyond the float64 range is the infinity IEEE arithmetic gives,
    without a warning, and agrees with the same infinity; a sum of both
    infinities is NaN and agrees with nothing, so its member is split off.
    """
    return _refine(_square(A), None, initial, color_tol)


def weighted_refinement(A, w, initial: Partition | None = None,
                        color_tol: float = 0.0) -> Partition:
    """Color refinement in the weighted sense for an entrywise nonzero w.

    Equivalent to refining diag(w)^-1 A diag(w): pairing the result with w
    gives a front equitable weighted indicator. Its entries are formed
    inside the aggregate kernel, block by block or from each stored entry
    of a sparse A, never as an N-by-N array.
    """
    A = _square(A)
    w = _vector(w, A.shape[0], "weights")
    if np.any(w == 0):
        raise InputError("weighted refinement requires entrywise nonzero weights")
    return _refine(A, w, initial, color_tol)


def _refine(A: np.ndarray, w: np.ndarray | None, initial: Partition | None,
            color_tol: float) -> Partition:
    """Color refinement of diag(w)^-1 A diag(w) (of A when w is None).

    The rounds share one state: the entry table of a sparse A, whose entries
    of diag(w)^-1 A diag(w) are formed once, before the first round; the
    layout's position map, updated in place each round; and at color_tol 0
    the cell map of the summed cells (_split_off). A sum beyond float64 is
    the infinity (or NaN) IEEE arithmetic gives, without a warning.
    """
    if initial is None:
        initial = Partition.single_cell(A.shape[0])
    n = A.shape[0]
    if n != initial.n:
        raise InputError(f"matrix size {n} != partition size {initial.n}")
    color_tol = _finite(color_tol, "color_tol", 0)
    lay = _layout(initial)
    lay = lay._replace(pos=_positions(lay))
    weights = _key_weights(2 * n) if color_tol == 0 else None
    at, cols, similar = np.arange(n), None, w is not None
    with np.errstate(over="ignore", invalid="ignore"):
        table = _entries(A)  # one table serves every round
        if table is not None:
            if similar:
                vals = _values(table.vals, table.rows, table.cols, w, "front", similar)
                table, w, similar = table._replace(vals=vals), None, False
            A = table
        while True:
            R = _aggregate(A, lay, w, cols=cols, similar=similar)
            srt, new = _color_groups(R, lay.labels, color_tol, weights)
            del R  # not held while the next round's signatures are summed
            if np.count_nonzero(new) == lay.starts.size:
                order = lay.order[np.lexsort((lay.order, lay.labels))]
                return Partition._of(order, lay.starts).canonical()
            prev, order = lay, lay.order[srt]
            lay.pos[order] = at
            lay = _Layout(order, new.nonzero()[0], new.cumsum() - 1, lay.pos)
            if color_tol == 0:
                cols = _split_off(lay, prev, cols)
