"""Partitions of matrix index sets, weighted indicators, and equitability tests.

A partition is an ordered sequence of disjoint cells covering {0..N-1}.
Cell order is significant (it fixes the block layout of every downstream
transform); indices inside a cell are kept sorted. A weighted indicator
attaches a complex weight to every index; the induced N-by-k matrix W has
w[v] in column i exactly when v belongs to cell i.

Equitability of a matrix A with respect to W means A W = W E (front, i.e.
constant weighted block row aggregates) or W' A = E W' (rear). Deviation
from it is measured blockwise by the normalized residual vectors.

Every cell aggregate (equitability residuals, quotients, deviations,
epsilon and regular-equivalence tests, refinement signatures) comes from
one kernel over the block-contiguous layout: contiguous row slices of A
are gathered a bounded block at a time at the columns of the cells summed
into, in layout order, and np.add.reduceat sums each row over every such
cell. That is O(N^2) time whatever the number of cells k (O(N s) when
refinement sums into cells of s indices), O(N k) extra memory, and no
N-by-N temporary. The dense N-by-k indicator W is never formed;
WeightedIndicator.matrix and indicator_matrix remain as oracles.

A _Sums context holds the layout, weights and cell norms of one (A, W)
and its front (A W) and rear (A' W) sums, each summed on first use. Each
public reader of aggregates builds its own; a CLI run builds one, so it
makes one pass per side. Only this module calls the kernel.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import AdmissibilityError, InputError

#: entries of A the aggregate kernel gathers per row block (128 KiB of
#: float64); bounds its temporaries, and those of the column-blocked
#: residual passes, independently of N and k
_BLOCK_ENTRIES = 1 << 14


def _square(A, n: int | None = None) -> np.ndarray:
    """A as an array, checked to be square and, when n is given, n-by-n.

    The dtype is kept: aggregate paths cast one row block at a time.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError(f"square matrix required, got shape {A.shape}")
    if n is not None and A.shape[0] != n:
        raise InputError(f"matrix size {A.shape[0]} != partition size {n}")
    return A


@dataclass(frozen=True)
class Partition:
    """Ordered disjoint cells covering {0..N-1}; indices sorted within cells.

    Entries must be integers by the rule of _index: Python or numpy integers,
    or objects with __index__; floats and bools are refused.
    """

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        cells = [c.tolist() if isinstance(c, np.ndarray) else tuple(c) for c in self.cells]
        sizes = [len(c) for c in cells]
        if not cells or not all(sizes):
            raise InputError("cells must be non-empty")
        entries = list(chain.from_iterable(cells))
        try:  # _index's rule, applied to one entry of each type
            for v in dict(zip(map(type, entries), entries)).values():
                _index(v)
        except TypeError as exc:
            raise InputError(f"cell entries must be integers: {exc}") from None
        n = len(entries)
        try:
            flat = np.fromiter(entries, dtype=np.int64, count=n)
        except OverflowError:  # beyond int64, so outside 0..N-1
            raise InputError("cells must disjointly cover 0..N-1") from None
        # n entries in 0..n-1 that hit every index hit each once
        if not (flat.min() >= 0 and flat.max() < n and np.bincount(flat, minlength=n).all()):
            raise InputError("cells must disjointly cover 0..N-1")
        members, ends = flat.tolist(), list(accumulate(sizes))
        object.__setattr__(self, "cells", tuple(
            tuple(sorted(members[a:b])) for a, b in zip([0, *ends], ends)))

    @classmethod
    def from_cells(cls, cells: Iterable[Iterable[int]]) -> "Partition":
        return cls(tuple(tuple(c) for c in cells))

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "Partition":
        """Cells grouped by label value, ordered by smallest member."""
        groups: dict[int, list[int]] = {}
        for v, lab in enumerate(labels):
            groups.setdefault(int(lab), []).append(v)
        return cls(tuple(tuple(c) for c in sorted(groups.values())))

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(tuple((i,) for i in range(n)))

    @classmethod
    def single_cell(cls, n: int) -> "Partition":
        return cls((tuple(range(n)),))

    @property
    def n(self) -> int:
        return sum(len(c) for c in self.cells)

    @property
    def k(self) -> int:
        return len(self.cells)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cells)

    def canonical(self) -> "Partition":
        """Same cells, reordered so cells appear by their smallest element."""
        return Partition(tuple(sorted(self.cells)))

    def labels(self) -> np.ndarray:
        """Array mapping each index to its cell number."""
        lay = _layout(self)
        lab = np.empty(self.n, dtype=int)
        lab[lay.order] = lay.labels
        return lab

    def refines(self, other: "Partition") -> bool:
        """True if every cell of self lies inside a cell of other."""
        if self.n != other.n:
            return False
        lab = other.labels()
        return all(len({lab[v] for v in c}) == 1 for c in self.cells)

    def to_dict(self) -> dict:
        """JSON form with 1-based indices."""
        return {"n": self.n, "cells": [[v + 1 for v in c] for c in self.cells]}

    @classmethod
    def from_dict(cls, d: dict) -> "Partition":
        """Inverse of to_dict; n and every index must be integers, not bools."""
        try:
            cells = tuple(tuple(_index(v) - 1 for v in c) for c in d["cells"])
            n = _index(d["n"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad partition object: {exc}") from exc
        p = cls(cells)
        if p.n != n:
            raise InputError(f"partition covers {p.n} indices but n = {n}")
        return p


def _index(v) -> int:
    """v as an int if it is an integer (Python or numpy) other than a bool."""
    if isinstance(v, (bool, np.bool_)):
        raise TypeError(f"{v!r} is not an index")
    return operator.index(v)


@dataclass(frozen=True, eq=False)
class WeightedIndicator:
    """Partition plus a complex weight per index."""

    partition: Partition
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights)
        if w.ndim != 1 or w.size != self.partition.n:
            raise InputError(
                f"weights must be a vector of length {self.partition.n}, got {w.shape}"
            )
        if w.dtype.kind in "iub":
            w = w.astype(np.float64)
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def unit(cls, partition: Partition) -> "WeightedIndicator":
        return cls(partition, np.ones(partition.n))

    def cell_norms2(self) -> np.ndarray:
        """Exact squared norms per cell (integer-valued for unit weights)."""
        lay = _layout(self.partition)
        return np.add.reduceat(_abs2(self.weights[lay.order]), lay.starts)

    def cell_norms(self) -> np.ndarray:
        return np.sqrt(self.cell_norms2())

    def cell_weights(self, i: int) -> np.ndarray:
        return self.weights[list(self.partition.cells[i])]

    def matrix(self) -> np.ndarray:
        """Dense N-by-k weighted indicator."""
        W = np.zeros((self.partition.n, self.partition.k), dtype=self.weights.dtype)
        for i, c in enumerate(self.partition.cells):
            W[list(c), i] = self.weights[list(c)]
        return W


def is_admissible(wi: WeightedIndicator) -> bool:
    """Every cell's weight block must have strictly positive norm."""
    return bool(np.all(wi.cell_norms() > 0))


def require_admissible(wi: WeightedIndicator) -> None:
    if not is_admissible(wi):
        bad = [i for i, nrm in enumerate(wi.cell_norms()) if nrm == 0]
        raise AdmissibilityError(f"cells {bad} have zero-norm weight blocks")


def indicator_matrix(p: Partition) -> np.ndarray:
    """Dense N-by-k 0/1 matrix; column i marks the members of cell i."""
    B = np.zeros((p.n, p.k))
    for i, c in enumerate(p.cells):
        B[list(c), i] = 1.0
    return B


def suitable_indexing_permutation(p: Partition) -> np.ndarray:
    """Forward relabeling map making cells occupy contiguous ranges in order.

    Returns sigma with new_index = sigma[old_index]. Indices already inside
    their cell's target range keep their position; the remaining members
    fill the free slots in ascending order. Relabeling A as A[inv, inv]
    with inv = argsort(sigma) yields the block-contiguous layout.
    """
    order, starts, labels = _layout(p)
    ends = np.append(starts[1:], p.n)
    keep = (order >= starts[labels]) & (order < ends[labels])
    taken = np.zeros(p.n, dtype=bool)
    taken[order[keep]] = True
    perm = np.empty(p.n, dtype=int)
    perm[order[keep]] = order[keep]
    # movers in layout order fill the free slots, which are ascending and
    # grouped by the cell whose range holds them
    perm[order[~keep]] = np.flatnonzero(~taken)
    perm.setflags(write=False)
    return perm


class _Layout(NamedTuple):
    """Block-contiguous layout of a partition.

    Position p holds index order[p]: the cells in order, members ascending
    (in signature order between refinement rounds). Cell i occupies positions
    starts[i] up to starts[i + 1], and labels[p] is the cell of position p.
    """

    order: np.ndarray
    starts: np.ndarray
    labels: np.ndarray


def _layout(p: Partition) -> _Layout:
    sizes = np.fromiter(map(len, p.cells), dtype=np.intp, count=p.k)
    order = np.fromiter(chain.from_iterable(p.cells), dtype=np.intp, count=p.n)
    starts = np.zeros(p.k, dtype=np.intp)
    np.cumsum(sizes[:-1], out=starts[1:])
    return _Layout(order, starts, np.repeat(np.arange(p.k), sizes))


def _abs2(X: np.ndarray) -> np.ndarray:
    """Entrywise squared modulus."""
    if np.iscomplexobj(X):
        return X.real**2 + X.imag**2
    return X * X


def _aggregate(A: np.ndarray, lay: _Layout, w: np.ndarray | None = None,
               side: str = "front", cols: tuple[np.ndarray, np.ndarray] | None = None,
               similar: bool = False) -> np.ndarray:
    """R[p, j] = sum over v in cell j of M[order[p], v] * w[v], rows in layout order.

    M is A for side "front" and A' (conjugate transpose) for "rear"; w
    defaults to all ones. The cells summed into are those of the layout, or
    the column set cols = (corder, cstarts): cell j holds corder[cstarts[j]]
    up to corder[cstarts[j + 1]]. With similar (front, w given) M is
    diag(w)^-1 A diag(w), each entry formed as (A[u, v] w[v]) / w[u]. Real w
    scales both parts of complex entries: unit w sums bit for bit as no w.

    Contiguous slices of _BLOCK_ENTRIES entries' worth of rows of M are
    gathered at the set's columns in their order, cast, scaled and summed per
    cell with np.add.reduceat, and the sums are written to the slice's layout
    rows. Costs O(N s) for the s indices of the column set (O(N^2) for all
    cells) whatever the number of cells, and the only temporaries beyond the
    result are of the block size.
    """
    order = lay.order
    corder, cstarts = (order, lay.starts) if cols is None else cols
    n = order.size
    M = A if side == "front" else A.T
    conj = side == "rear" and np.iscomplexobj(A)
    wc = None if w is None else w[corder]
    dtype = np.result_type(A.dtype, np.float64 if w is None else w.dtype)
    parts = wc is not None and wc.dtype.kind != "c" and dtype.kind == "c"
    if parts:  # scale both parts: a product with w + 0j can flip a zero's sign
        wc = np.repeat(wc, 2)
    out = np.empty((n, cstarts.size), dtype=dtype)
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
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


def _cell_sums(X: np.ndarray, lay: _Layout, wl: np.ndarray | None = None) -> np.ndarray:
    """S[i, j] = sum over the layout rows p of cell i of conj(wl[p]) X[p, j].

    With X an aggregate R, this is W'R: the (unnormalized) quotient.
    """
    if wl is not None:
        X = wl.conj()[:, None] * X
    return np.add.reduceat(X, lay.starts, axis=0)


def _deviation(R: np.ndarray, lay: _Layout, wl: np.ndarray, E: np.ndarray) -> np.ndarray:
    """R - W E in layout rows: row p minus E[labels[p]] * wl[p]."""
    D = E[lay.labels].astype(np.result_type(R, E, wl), copy=False)
    D *= wl[:, None]
    np.subtract(R, D, out=D)
    return D


def _check_side(side: str) -> None:
    if side not in ("front", "rear"):
        raise InputError(f"side must be 'front' or 'rear', got {side!r}")


class _Sums:
    """The cell aggregates of one (A, wi), each summed on first use.

    With keep (a CLI run, which reads them more than once) each is held until
    deviations releases it; a single library call keeps none, so each is freed
    once read. A is not copied: a context lives only as long as its call or run.
    """

    def __init__(self, A, wi: WeightedIndicator, keep: bool = False):
        self.partition = p = wi.partition
        self.keep = keep
        self.A, self.lay, self.w = _square(A, p.n), _layout(p), wi.weights
        self.wl = self.w[self.lay.order]
        self.norms2 = np.add.reduceat(_abs2(self.wl), self.lay.starts)
        if not np.all(self.norms2 > 0):
            require_admissible(wi)
        self._unit = self.w.dtype == np.float64 and bool(np.all(self.w == 1))
        self._memo: dict[tuple[str, bool], np.ndarray] = {}

    def sums(self, side: str = "front", weighted: bool = True) -> np.ndarray:
        """A W (front) or A' W (rear) in layout rows; unit weights serve both requests."""
        key = (side, weighted or self._unit)
        R = self._memo.get(key)
        if R is None:
            R = _aggregate(self.A, self.lay, self.w if key[1] else None, side)
            if self.keep:
                self._memo[key] = R
        return R

    def verdict(self, side: str, tol: float) -> EquitabilityVerdict:
        lay, wl, norms2, R = self.lay, self.wl, self.norms2, self.sums(side)
        res = np.empty((norms2.size, norms2.size))
        step = max(1, _BLOCK_ENTRIES // wl.size)
        for c in range(0, norms2.size, step):
            Rc = R[:, c:c + step]
            E = _cell_sums(Rc, lay, wl)
            E /= norms2[:, None]
            res[:, c:c + step] = _cell_sums(_abs2(_deviation(Rc, lay, wl, E)), lay)
        np.sqrt(res, out=res)
        res /= np.sqrt(norms2)[None, :]
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

    def regular(self, zero_tol: float = 0.0) -> bool:
        zero = np.abs(self.sums(weighted=False)) <= zero_tol
        counts = np.add.reduceat(zero, self.lay.starts, axis=0, dtype=np.intp)
        return not np.any((counts > 0) & (counts < np.asarray(self.partition.sizes)[:, None]))

    def quotient(self, alpha: float) -> np.ndarray:
        """E^alpha (see generalized_quotient) from W'AW, the cell sums of A W."""
        norms2, M = self.norms2, _cell_sums(self.sums(), self.lay, self.wl)
        # divide by the exact squared norms for the two standard quotients so
        # integer-exact inputs produce integer-exact entries
        if alpha == -1.0:
            entries = M / norms2[:, None]
        elif alpha == 1.0:
            entries = M / norms2[None, :]
        else:
            norms = np.sqrt(norms2)
            entries = (norms ** (alpha - 1.0))[:, None] * M * (norms ** (-alpha - 1.0))[None, :]
        entries.setflags(write=False)
        return entries

    def deviations(self) -> list[tuple[str, np.ndarray]]:
        """(side, T) for T_front = (A W - W E_front) (W'W)^{-1/2} and T_rear =
        (A' W - W E_rear') (W'W)^{-1/2}, rows in index order. Their last reader,
        it releases the sums: the front ones once the rear ones are summed."""
        lay, wl, norms2, out = self.lay, self.wl, self.norms2, []
        for side in ("front", "rear"):
            R = self.sums(side)
            self._memo.pop((side, True), None)
            D = _deviation(R, lay, wl, _cell_sums(R, lay, wl) / norms2[:, None])
            D /= np.sqrt(norms2)[None, :]
            T = np.empty_like(D)
            T[lay.order] = D
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
    norms makes the tolerance scale-free in the weights.

    One aggregate pass gives R = A W (front) or A' W (rear) in layout rows;
    E = W'R / ||w_i||^2 and the residual R - W E are then formed in column
    blocks, two-pass, so small residuals keep their digits and no second
    N-by-k array is needed.
    """
    _check_side(side)
    return _Sums(A, wi).verdict(side, tol)


def epsilon_equitability(A, p: Partition) -> float:
    """Smallest eps such that all block row sums spread at most eps.

    The spread of a block is the largest modulus of a difference of two of
    its row sums; the result is the maximum over all blocks. The row sums
    come from one aggregate pass; real spreads are max - min per cell,
    complex ones a pairwise pass per cell over all k columns at once.
    """
    return _Sums(A, WeightedIndicator.unit(p)).epsilon()


def check_regular_equivalence(A, p: Partition, zero_tol: float = 0.0) -> bool:
    """True if every block's row-sum vector is entrywise nonzero or all zero.

    Counts the zero row sums of every block from one aggregate pass.
    """
    return _Sums(A, WeightedIndicator.unit(p)).regular(zero_tol)


def _color_groups(R: np.ndarray, labels: np.ndarray, color_tol: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """One refinement round: layout rows in sorted order, and where groups start.

    The signatures are the rows of R, one column per summed cell, and
    labels[p] is the current cell of layout row p. One lexsort orders the
    rows by cell, then lexicographically ((real, imag) per complex
    component); new marks a change of cell, or consecutive rows that differ
    by more than color_tol in some column, compared in row blocks of
    _BLOCK_ENTRIES.
    """
    keys = R.T[::-1]
    if np.iscomplexobj(R):
        keys = [part for col in keys for part in (col.imag, col.real)]
    srt = np.lexsort((*keys, labels))
    cells = labels[srt]
    new = np.empty(srt.size, dtype=bool)
    new[0] = True
    np.not_equal(cells[1:], cells[:-1], out=new[1:])
    step = max(1, _BLOCK_ENTRIES // R.shape[1])
    for a in range(0, srt.size - 1, step):
        rows = R[srt[a:a + step + 1]]
        new[a + 1:a + step + 1] |= ~(np.abs(rows[1:] - rows[:-1]) <= color_tol).all(axis=1)
    return srt, new


def _split_off(lay: _Layout, parent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column set of every cell but the largest of the cells of the same parent.

    parent[i] (nondecreasing) is the previous round's cell that cell i of lay
    came from; of equal largest pieces the first is left out. A parent that
    did not split is its own largest piece, so only split-off cells remain.
    """
    starts, k = lay.starts, lay.starts.size
    sizes = np.empty(k, dtype=np.intp)
    np.subtract(starts[1:], starts[:-1], out=sizes[:-1])
    sizes[-1] = lay.order.size - starts[-1]
    head = np.empty(k, dtype=bool)
    head[0] = True
    np.not_equal(parent[1:], parent[:-1], out=head[1:])
    # distinct scores ordered by size, then by the earlier cell
    score = sizes * k - np.arange(k)
    top = np.maximum.reduceat(score, np.flatnonzero(head))
    keep = score != top[np.cumsum(head) - 1]
    ends = np.cumsum(sizes[keep])
    return lay.order[keep[lay.labels]], ends - sizes[keep]


def coarsest_front_equitable_refinement(A, initial: Partition | None = None,
                                        color_tol: float = 0.0) -> Partition:
    """Coarsest refinement of `initial` against which A is front equitable.

    Color refinement: the signature of index u is its vector of row sums
    into cells. Each round sorts every cell's members lexicographically by
    signature and splits the cell between consecutive members whose
    signatures differ by more than color_tol in the modulus of some
    component (single linkage), until no cell splits.

    At color_tol 0 the first round sums into every cell of `initial` and
    each later round only into the cells the previous round split off, less
    the largest piece of each split cell (Hopcroft's "process the smaller
    half"). Members of a cell already agree on their sums into its parent's
    cells, so the sums into the skipped pieces follow from the others
    (exactly for integer, bool and dyadic entries); a round costs O(N s) for the s indices of the cells it sums into, and each
    index is summed into at most log2(N) times after the first round. The
    result is the unique coarsest refinement. Above 0 agreement is not
    transitive, so every round sums into every current cell, O(N^2) plus a
    sort of the N-by-k signatures. The result need be neither equitable nor
    coarsest, but the groups of a cell take its place in the cell order, so
    it depends on A, on the cells of `initial` in their order and on
    color_tol, never on how the indices are labelled. Output is in
    canonical form.
    """
    return _refine(_square(A), None, initial, color_tol)


def weighted_refinement(A, w, initial: Partition | None = None,
                        color_tol: float = 0.0) -> Partition:
    """Color refinement in the weighted sense for an entrywise nonzero w.

    Equivalent to refining diag(w)^-1 A diag(w): pairing the result with w
    gives a front equitable weighted indicator. Its entries are formed
    block by block inside the aggregate kernel, never as an N-by-N array.
    """
    A = _square(A)
    w = np.asarray(w)
    if w.ndim != 1 or w.size != A.shape[0]:
        raise InputError(f"weight vector of length {A.shape[0]} required, got {w.shape}")
    if np.any(w == 0):
        raise InputError("weighted refinement requires entrywise nonzero weights")
    # at least float64: the kernel scales and divides its blocks in place
    return _refine(A, w.astype(np.result_type(w, np.float64), copy=False), initial,
                   color_tol)


def _refine(A: np.ndarray, w: np.ndarray | None, initial: Partition | None,
            color_tol: float) -> Partition:
    """Color refinement of diag(w)^-1 A diag(w) (of A when w is None)."""
    if initial is None:
        initial = Partition.single_cell(A.shape[0])
    if A.shape[0] != initial.n:
        raise InputError(f"matrix size {A.shape[0]} != partition size {initial.n}")
    if not color_tol >= 0:
        raise InputError(f"color_tol must be a non-negative number, got {color_tol}")
    lay = _layout(initial)
    cols = None
    while True:
        R = _aggregate(A, lay, w, cols=cols, similar=w is not None)
        srt, new = _color_groups(R, lay.labels, color_tol)
        del R  # not held while the next round's signatures are summed
        if np.count_nonzero(new) == lay.starts.size:
            return Partition(tuple(np.split(lay.order, lay.starts[1:]))).canonical()
        parent = lay.labels[srt[new]]
        lay = _Layout(lay.order[srt], np.flatnonzero(new), np.cumsum(new) - 1)
        if color_tol == 0:
            cols = _split_off(lay, parent)
