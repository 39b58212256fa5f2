"""Regression trees over EIP vectors (paper Section 4).

The tree recursively splits the EIPV space with axis-aligned walls of the
form ``count(EIP_i) <= threshold``, choosing at every step the (EIP,
threshold) pair that minimizes the weighted intra-chamber CPI variance —
exactly the construction of Section 4.1.  The example of Table 1/Figure 1
is reproduced verbatim by the unit tests.

Design notes:

* **Best-first growth.** The paper asks for "the optimal tree T_k" for
  each ``k <= 50``.  We grow one tree best-first (always splitting the leaf
  whose best split removes the most CPI variance) and record each split's
  rank; the first ``k - 1`` splits then *are* the tree ``T_k``, giving the
  whole nested family in one build.  This is the standard greedy CART
  construction (exact at each step), matching rpart's behaviour that the
  paper relied on.

* **Sparsity.** An EIPV holds at most ``samples_per_interval`` non-zero
  counts out of N unique EIPs, so columns are overwhelmingly zero.  The
  split search keeps per-feature non-zero lists and treats the zero block
  in closed form; the store ingests dense or CSR matrices identically.

* **Sort once, grow in lockstep.** :class:`FeatureStore` sorts the
  dataset's triplets once; any row subset's triplets are then the store
  entries whose row is in the subset, already in per-subset sort order
  (ties in value break by row, and a subset keeps row order).  So every
  cross-validation fold grows from one shared store, and
  :func:`grow_lockstep` grows all folds' trees together: each step, every
  unfinished tree applies its best frontier split, then the new children
  of *all* trees are scored by one batched split search.  Batches are
  capped at :data:`BATCH_TRIPLETS` so a large node is scored alone and
  its working set stays cache-resident.  ``fit`` is the same grower with
  one root.

* **Exactness.** The batched search reproduces the per-node search float
  for float: node totals are per-node ``ndarray.sum()`` (pairwise), prefix
  sums per-node ``np.add.accumulate`` (sequential), segment totals one flat
  ``np.add.reduceat`` (each segment is ``a[s] + pairwise(a[s+1:e])``
  whatever its neighbours), candidate scores elementwise and each node's
  pick the first minimum.  Trees are byte-identical to the per-node
  oracle kept in the test suite.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.obs import span
from repro.sparse import is_sparse

#: A split's CPI-variance reduction must exceed this to be applied
#: (guards against floating-point noise producing spurious splits).
MIN_GAIN = 1e-12

#: Triplets scored per batched split search.  Small nodes share a batch
#: (amortizing numpy call overhead); a node above the cap runs alone, so
#: a shared batch's float64 temporaries stay at most 128 kB each and the
#: batch's working set stays in cache.
BATCH_TRIPLETS = 16_384


@dataclass(eq=False)  # identity comparison: nodes hold numpy arrays
class TreeNode:
    """One node of the regression tree.

    Leaves have ``feature is None``.  ``value`` is the mean CPI of the
    node's training points (the prediction for any EIPV landing here);
    ``sse`` is their sum of squared deviations.  ``split_rank`` is the
    order in which this node was split during best-first growth (0 for the
    root); ``None`` while the node is a leaf.  ``store_idx`` (the node's
    triplet indices) and ``y_sums`` (its CPI sum and sum of squares) are
    growth state, released as soon as the node can no longer split.
    """

    rows: np.ndarray
    value: float
    sse: float
    depth: int
    feature: int | None = None
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    split_rank: int | None = None
    best_split: tuple | None = field(default=None, repr=False)
    store_idx: np.ndarray | None = field(default=None, repr=False)
    y_sums: tuple | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def _release(self) -> None:
        self.store_idx = None
        self.y_sums = None


class FeatureStore:
    """Sparse (feature, row, value) triplets sorted by (feature, value).

    One lexicographic sort lets every node's exact split search run as a
    handful of segmented-prefix-sum numpy operations over just the node's
    non-zero entries.  Accepts a dense matrix or a
    :class:`~repro.sparse.CSRMatrix`; CSR triplets export in row-major
    order — the same order ``np.nonzero`` yields — so the stable sort (and
    hence the fitted tree) is identical either way.
    """

    def __init__(self, matrix) -> None:
        if is_sparse(matrix):
            self.n_rows, self.n_features = matrix.shape
            rows, features, values = matrix.triplets()
            values = values.astype(np.float64)
        else:
            matrix = np.asarray(matrix)
            if matrix.ndim != 2:
                raise ValueError("feature matrix must be 2-D")
            self.n_rows, self.n_features = matrix.shape
            rows, features = np.nonzero(matrix)
            values = matrix[rows, features].astype(np.float64)
        order = np.lexsort((values, features))
        self.feat = features[order].astype(np.int64)
        self.row = rows[order].astype(np.int64)
        self.val = values[order]

    def triplets_of(self, rows: np.ndarray) -> np.ndarray:
        """Store indices of the given rows' triplets, in store order.

        Equal to the order a store built from just those rows would have:
        the lexsort is stable, so value ties keep row order, and a subset
        of rows keeps its relative order.
        """
        member = np.zeros(self.n_rows, dtype=bool)
        member[rows] = True
        return np.flatnonzero(member[self.row])


class ColumnAccessor:
    """Per-feature column reads for prediction routing, dense or CSR.

    For CSR input the triplets are re-sorted by column once; a reusable
    scratch array then turns each node visit into two scatter/gather
    passes over just that column's non-zeros.
    """

    def __init__(self, matrix) -> None:
        if is_sparse(matrix):
            self._dense = None
            rows, cols, vals = matrix.triplets()
            order = np.lexsort((rows, cols))
            self._rows = rows[order]
            self._vals = vals[order].astype(np.float64)
            self._offsets = np.searchsorted(cols[order],
                                            np.arange(matrix.shape[1] + 1))
            self._scratch = np.zeros(matrix.shape[0])
        else:
            self._dense = np.asarray(matrix)

    def get(self, feature: int, rows: np.ndarray) -> np.ndarray:
        """Values of ``matrix[rows, feature]`` (zeros where absent)."""
        if self._dense is not None:
            return self._dense[rows, feature]
        lo, hi = self._offsets[feature], self._offsets[feature + 1]
        col_rows = self._rows[lo:hi]
        self._scratch[col_rows] = self._vals[lo:hi]
        values = self._scratch[rows]
        self._scratch[col_rows] = 0.0
        return values


# -- lockstep growth ----------------------------------------------------


def _bounds(counts) -> np.ndarray:
    """Run boundaries ``[0, c0, c0 + c1, ...]`` of concatenated runs."""
    bounds = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return bounds


def _lengths(starts: np.ndarray, total: int) -> np.ndarray:
    """Lengths of the runs starting at ``starts`` in an array of ``total``."""
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1:] = total
    return ends - starts


def _run_starts(owner: np.ndarray) -> np.ndarray:
    """Indices where a non-decreasing ``owner`` array changes value."""
    first = np.empty(len(owner), dtype=bool)
    first[:1] = True
    np.not_equal(owner[1:], owner[:-1], out=first[1:])
    return np.flatnonzero(first)


def _first_argmin(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per run ``values[starts[i]:starts[i + 1]]``, the flat index of its
    first minimum — ``np.argmin`` of each (non-empty) run, NaN included."""
    minima = np.minimum.reduceat(values, starts)
    hit = values == np.repeat(minima, _lengths(starts, len(values)))
    if np.isnan(minima).any():
        hit |= np.isnan(values)
    where = np.flatnonzero(hit)
    # Every run holds a hit, so the first hit at or after a run's start
    # lies inside that run.
    return where[np.searchsorted(where, starts)]


class _Grower:
    """Node construction, batched split search and batched split
    application over one shared :class:`FeatureStore`.

    Trees are told apart by *slot* (position in a step's chosen list):
    the split scratch arrays are indexed by ``slot * n_rows + row``, so
    two folds' nodes holding the same dataset row never collide.
    """

    def __init__(self, store: FeatureStore, y: np.ndarray, min_leaf: int,
                 slots: int) -> None:
        self.store, self.y, self.min_leaf = store, y, min_leaf
        #: CPI of each store triplet's row, in store order.
        self.y_store = y[store.row]
        self._value = np.zeros(slots * store.n_rows)
        self._flag = np.zeros(slots * store.n_rows, dtype=bool)

    def nodes(self, rows: np.ndarray, counts, depths) -> list[TreeNode]:
        """Nodes over consecutive runs of ``rows`` (``counts`` rows each).

        ``value``/``sse`` and the growth-time ``y_sums`` come from per-node
        ``ndarray.sum()`` calls over contiguous slices — the reduction (and
        hence every bit) a node built on its own would get.
        """
        ys = self.y[rows]
        bounds = _bounds(counts).tolist()
        runs = list(zip(bounds[:-1], bounds[1:]))
        # np.add.reduce is the reduction ndarray.sum() runs, minus the
        # Python-level wrapper.
        add = np.add.reduce
        totals = [float(add(ys[s:e])) for s, e in runs]
        values = [total / (e - s) for total, (s, e) in zip(totals, runs)]
        # Row 0: squared deviations from the node mean; row 1: squared CPIs.
        squares = np.empty((2, len(ys)))
        np.subtract(ys, np.repeat(values, counts), out=squares[0])
        np.square(squares[0], out=squares[0])
        np.multiply(ys, ys, out=squares[1])
        nodes = []
        for total, value, depth, (s, e) in zip(totals, values, depths, runs):
            sse, sumsq = add(squares[:, s:e], axis=1).tolist()
            nodes.append(TreeNode(rows=rows[s:e], value=value, sse=sse,
                                  depth=depth, y_sums=(total, sumsq)))
        return nodes

    def score(self, nodes: list[TreeNode]) -> None:
        """Cache each node's best (sse, feature, threshold) in
        ``best_split``; release the nodes that cannot split.

        Nodes are scored in batches of up to :data:`BATCH_TRIPLETS`
        triplets.
        """
        batch: list[TreeNode] = []
        size = 0
        for node in nodes:
            count = len(node.store_idx)
            if (node.n < 2 * self.min_leaf or node.sse <= MIN_GAIN
                    or count == 0):
                node.best_split = None
                node._release()
                continue
            if batch and size + count > BATCH_TRIPLETS:
                self._score_batch(batch)
                batch, size = [], 0
            batch.append(node)
            size += count
        if batch:
            self._score_batch(batch)

    def _score_batch(self, nodes: list[TreeNode]) -> None:
        """One vectorized split search over several nodes' triplets.

        Segmented prefix sums over each node's non-zero triplets (sorted
        by feature, then value) score every candidate ``count(EIP) <= t``
        wall of every feature at once; each feature's zero block
        (intervals where the EIP was never sampled) is handled in closed
        form.  A segment is one (node, feature) run.
        """
        store, min_leaf = self.store, self.min_leaf
        counts = [len(node.store_idx) for node in nodes]
        idx = (nodes[0].store_idx if len(nodes) == 1
               else np.concatenate([node.store_idx for node in nodes]))
        total = len(idx)
        bounds = _bounds(counts)
        node_start = bounds[:-1]
        n_rows = np.array([node.n for node in nodes])
        total_sum, total_sumsq = np.array([node.y_sums for node in nodes]).T

        feat = store.feat[idx]
        val = store.val[idx]
        # Row 0: CPI of each triplet's row; row 1: its square.
        ys = np.empty((2, total))
        np.take(self.y_store, idx, out=ys[0])
        np.multiply(ys[0], ys[0], out=ys[1])

        new_seg = np.empty(total, dtype=bool)
        new_seg[0] = True
        np.not_equal(feat[1:], feat[:-1], out=new_seg[1:])
        new_seg[node_start] = True
        seg_start = np.flatnonzero(new_seg)
        seg_len = _lengths(seg_start, total)
        # Each node's first segment.
        node_seg = np.searchsorted(seg_start, node_start)
        seg_node = np.repeat(np.arange(len(nodes)),
                             _lengths(node_seg, len(seg_start)))

        # Per-node prefix sums (sequential, restarting at each node), and
        # each segment's offset into them (0 for a node's first segment).
        prefix = np.empty((2, total))
        for s, e in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            np.add.accumulate(ys[0, s:e], out=prefix[0, s:e])
            np.add.accumulate(ys[1, s:e], out=prefix[1, s:e])
        offset = prefix[:, seg_start - 1]
        offset[:, node_seg] = 0.0

        # Per-segment totals and zero-block summaries.
        seg_sum = np.add.reduceat(ys[0], seg_start)
        seg_sq = np.add.reduceat(ys[1], seg_start)
        n0_rows = n_rows[seg_node] - seg_len
        n0 = n0_rows.astype(np.float64)
        sum0 = total_sum[seg_node] - seg_sum
        sq0 = total_sumsq[seg_node] - seg_sq

        # Candidate splits "x <= val" after each non-zero entry whose next
        # entry in the same segment holds a larger value, with min_leaf
        # rows on both sides.  (The last entry of a segment would put the
        # whole node left.)
        is_wall = np.zeros(total, dtype=bool)
        np.not_equal(val[:-1], val[1:], out=is_wall[:-1])
        is_wall[:-1] &= ~new_seg[1:]
        cand = np.flatnonzero(is_wall)
        seg_c = np.searchsorted(seg_start, cand, side="right") - 1
        cnt = cand + 1 - seg_start[seg_c]  # non-zeros left of the wall
        if min_leaf > 1:
            keep = ((n0_rows[seg_c] + cnt >= min_leaf)
                    & (seg_len[seg_c] - cnt >= min_leaf))
            cand, seg_c, cnt = cand[keep], seg_c[keep], cnt[keep]
        node_c = seg_node[seg_c]
        n_left = n0[seg_c] + cnt
        sum_left = sum0[seg_c] + (prefix[0, cand] - offset[0, seg_c])
        sq_left = sq0[seg_c] + (prefix[1, cand] - offset[1, seg_c])
        n_right = n_rows[node_c] - n_left
        sum_right = total_sum[node_c] - sum_left
        sq_right = total_sumsq[node_c] - sq_left
        sse = ((sq_left - sum_left * sum_left / n_left)
               + (sq_right - sum_right * sum_right / n_right))

        best_sse = np.full(len(nodes), np.inf)
        feature = np.full(len(nodes), -1)
        threshold = np.zeros(len(nodes))
        if len(cand):
            runs = _run_starts(node_c)
            best = _first_argmin(sse, runs)
            present = node_c[runs]
            best_sse[present] = sse[best]
            feature[present] = feat[cand[best]]
            threshold[present] = val[cand[best]]

        # Candidate "x <= 0" splits: zero block left, non-zeros right.
        zero_ok = (n0 >= min_leaf) & (seg_len >= min_leaf)
        with np.errstate(divide="ignore", invalid="ignore"):
            sse0 = ((sq0 - sum0 * sum0 / np.maximum(n0, 1))
                    + (seg_sq - seg_sum * seg_sum / seg_len))
        sse0[~zero_ok] = np.inf
        best0 = _first_argmin(sse0, node_seg)
        use_zero = (np.logical_or.reduceat(zero_ok, node_seg)
                    & (sse0[best0] < best_sse))
        best_sse[use_zero] = sse0[best0[use_zero]]
        feature[use_zero] = feat[seg_start[best0[use_zero]]]
        threshold[use_zero] = 0.0

        for node, child_sse, j, t in zip(nodes, best_sse.tolist(),
                                         feature.tolist(),
                                         threshold.tolist()):
            if j < 0 or node.sse - child_sse <= MIN_GAIN:
                node.best_split = None
                node._release()
            else:
                node.best_split = (child_sse, j, t)

    def split(self, chosen: list[TreeNode]) -> None:
        """Execute each node's cached best split and attach its children.

        Row and triplet partitions are boolean-mask selections, so every
        child keeps its rows and triplets in parent (store) order — exactly
        the subsequence a node-by-node split would produce.
        """
        store, n_rows = self.store, self.store.n_rows
        slots = np.arange(len(chosen))
        row_counts = [node.n for node in chosen]
        trip_counts = [len(node.store_idx) for node in chosen]
        rows = np.concatenate([node.rows for node in chosen])
        idx = np.concatenate([node.store_idx for node in chosen])
        slot_r = np.repeat(slots, row_counts)
        slot_t = np.repeat(slots, trip_counts)
        row_key = slot_r * n_rows + rows
        idx_key = slot_t * n_rows + store.row[idx]
        feature = np.array([node.best_split[1] for node in chosen])
        threshold = np.array([node.best_split[2] for node in chosen])

        # Each node's split-feature value per row (zero where absent).
        column = store.feat[idx] == feature[slot_t]
        column_key = idx_key[column]
        self._value[column_key] = store.val[idx[column]]
        go_left = self._value[row_key] <= threshold[slot_r]
        self._value[column_key] = 0.0

        left_key = row_key[go_left]
        self._flag[left_key] = True
        to_left = self._flag[idx_key]
        self._flag[left_key] = False

        n_left = np.bincount(slot_r[go_left], minlength=len(chosen))
        n_right = np.asarray(row_counts) - n_left
        if (n_left == 0).any() or (n_right == 0).any():
            raise AssertionError("degenerate split should have been skipped")
        t_left = np.bincount(slot_t[to_left], minlength=len(chosen))
        t_right = _bounds(np.asarray(trip_counts) - t_left).tolist()
        t_left = _bounds(t_left).tolist()
        depths = [node.depth + 1 for node in chosen]
        children = self.nodes(
            np.concatenate([rows[go_left], rows[~go_left]]),
            np.concatenate([n_left, n_right]), depths + depths)
        left_idx, right_idx = idx[to_left], idx[~to_left]
        for i, (node, j, t, left, right) in enumerate(zip(
                chosen, feature.tolist(), threshold.tolist(),
                children[:len(chosen)], children[len(chosen):])):
            node.feature, node.threshold = j, t
            node.left, node.right = left, right
            left.store_idx = left_idx[t_left[i]:t_left[i + 1]]
            right.store_idx = right_idx[t_right[i]:t_right[i + 1]]
            node._release()  # parent triplets are no longer needed


def grow_lockstep(store: FeatureStore, y: np.ndarray, row_sets,
                  k_max: int = 50, min_leaf: int = 1,
                  ) -> list["RegressionTreeSequence"]:
    """Grow one tree family per row subset, all in lockstep.

    ``row_sets`` are ascending row-id arrays into the store's dataset
    (one per cross-validation fold, or one ``arange`` for a plain fit);
    node ``rows`` are those dataset row ids.  Each tree grows exactly as
    it would alone — best-first, splitting the first frontier leaf (in
    frontier order) with the largest gain — but one step of all trees
    shares a single split application and a batched split search.
    """
    y = np.asarray(y, dtype=np.float64)
    row_sets = [np.asarray(rows, dtype=np.int64) for rows in row_sets]
    trees = [RegressionTreeSequence(k_max=k_max, min_leaf=min_leaf)
             for _ in row_sets]
    if store.n_rows != len(y):
        raise ValueError("matrix rows must match y length")
    if any(len(rows) == 0 for rows in row_sets):
        raise ValueError("cannot fit on an empty dataset")
    grower = _Grower(store, y, min_leaf, len(row_sets))
    roots = grower.nodes(np.concatenate(row_sets),
                         [len(rows) for rows in row_sets],
                         [0] * len(row_sets))
    for root, rows in zip(roots, row_sets):
        root.store_idx = store.triplets_of(rows)
    grower.score(roots)

    # Per tree, a heap of splittable frontier leaves keyed by
    # (-gain, insertion order): the pop is the first leaf in frontier
    # order with the largest gain.
    order = 0
    frontiers: list[list] = []
    for tree, root in zip(trees, roots):
        tree.root = root
        frontier: list = []
        if root.best_split is not None:
            frontier.append((-(root.sse - root.best_split[0]), order, root))
        order += 1
        frontiers.append(frontier)

    growing = [i for i in range(len(trees)) if k_max > 1 and frontiers[i]]
    while growing:
        chosen = []
        for i in growing:
            node = heapq.heappop(frontiers[i])[2]
            node.split_rank = trees[i].n_splits
            chosen.append(node)
        grower.split(chosen)
        grower.score([child for node in chosen
                      for child in (node.left, node.right)])
        still = []
        for i, node in zip(growing, chosen):
            trees[i].n_splits += 1
            for child in (node.left, node.right):
                if child.best_split is not None:
                    heapq.heappush(frontiers[i], (
                        -(child.sse - child.best_split[0]), order, child))
                order += 1
            if trees[i].n_splits < k_max - 1 and frontiers[i]:
                still.append(i)
        growing = still
    for frontier in frontiers:
        for entry in frontier:
            entry[2]._release()  # growth over: release frontier triplets
    return trees


class RegressionTreeSequence:
    """The nested family of trees T_1 .. T_k_max over one dataset.

    Build once with :meth:`fit`; then :meth:`predict` evaluates any member
    T_k by treating splits of rank >= k - 1 as un-applied.
    """

    def __init__(self, k_max: int = 50, min_leaf: int = 1) -> None:
        if k_max < 1:
            raise ValueError("k_max must be at least 1")
        if min_leaf < 1:
            raise ValueError("min_leaf must be at least 1")
        self.k_max = k_max
        self.min_leaf = min_leaf
        self.root: TreeNode | None = None
        self.n_splits = 0

    # -- construction ---------------------------------------------------

    def fit(self, matrix, y: np.ndarray) -> "RegressionTreeSequence":
        """Grow the tree family on (EIPV matrix, CPI vector)."""
        with span("fit.tree") as fit_span:
            y = np.asarray(y, dtype=np.float64)
            (grown,) = grow_lockstep(FeatureStore(matrix), y,
                                     [np.arange(len(y))], self.k_max,
                                     self.min_leaf)
            self.root, self.n_splits = grown.root, grown.n_splits
            fit_span.inc("splits", self.n_splits)
            fit_span.inc("points", len(y))
        return self

    # -- evaluation -----------------------------------------------------

    def max_k(self) -> int:
        """Largest chamber count this sequence actually reached."""
        return self.n_splits + 1

    def leaf_for(self, x: np.ndarray, k: int) -> TreeNode:
        """The chamber of T_k that the vector ``x`` falls into."""
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        if k < 1:
            raise ValueError("k must be at least 1")
        node = self.root
        while (node.split_rank is not None and node.split_rank <= k - 2):
            if x[node.feature] <= node.threshold:
                node = node.left
            else:
                node = node.right
        return node

    def predict(self, matrix, k: int | None = None) -> np.ndarray:
        """Predicted CPI (chamber mean) of each row of ``matrix`` under T_k."""
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        if k is None:
            k = self.max_k()
        if k < 1:
            raise ValueError("k must be at least 1")
        if not is_sparse(matrix):
            matrix = np.asarray(matrix)
        columns = ColumnAccessor(matrix)
        out = np.empty(matrix.shape[0])
        stack = [(self.root, np.arange(matrix.shape[0], dtype=np.int64))]
        while stack:
            node, rows = stack.pop()
            if node.split_rank is not None and node.split_rank <= k - 2:
                go_left = columns.get(node.feature, rows) <= node.threshold
                stack.append((node.right, rows[~go_left]))
                stack.append((node.left, rows[go_left]))
            else:
                out[rows] = node.value
        return out

    def predict_all_k(self, matrix) -> np.ndarray:
        """Predictions under every member tree at once.

        Returns an array of shape ``(len(matrix), max_k)`` whose column
        ``k - 1`` equals ``predict(matrix, k)``.  Rows are batch-routed
        level by level: a node entered after ancestor splits of rank
        ``< low`` predicts columns ``low .. split_rank`` (all remaining
        columns at a leaf), because T_k applies exactly the splits of rank
        ``<= k - 2`` and ranks increase along any root-to-leaf path.
        """
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        if not is_sparse(matrix):
            matrix = np.asarray(matrix)
        return self.predict_rows_all_k(ColumnAccessor(matrix),
                                       np.arange(matrix.shape[0]))

    def predict_rows_all_k(self, columns: ColumnAccessor,
                           rows: np.ndarray) -> np.ndarray:
        """:meth:`predict_all_k` for the given rows of an accessor's matrix.

        Output row ``i`` is the prediction for matrix row ``rows[i]``, so
        cross-validation routes each fold's held-out rows through one
        accessor built over the whole dataset.
        """
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        rows = np.asarray(rows, dtype=np.int64)
        out = np.empty((len(rows), self.max_k()))
        stack = [(self.root, np.arange(len(rows)), rows, 0)]
        while stack:
            node, at, ids, low = stack.pop()
            if node.split_rank is None:
                out[at, low:] = node.value
                continue
            rank = node.split_rank
            out[at, low:rank + 1] = node.value
            go_left = columns.get(node.feature, ids) <= node.threshold
            stack.append((node.right, at[~go_left], ids[~go_left], rank + 1))
            stack.append((node.left, at[go_left], ids[go_left], rank + 1))
        return out

    def leaves(self, k: int | None = None) -> list[TreeNode]:
        """The chambers of T_k, left-to-right."""
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        if k is None:
            k = self.max_k()
        result: list[TreeNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.split_rank is not None and node.split_rank <= k - 2:
                stack.append(node.right)
                stack.append(node.left)
            else:
                result.append(node)
        return result

    def training_sse(self, k: int | None = None) -> float:
        """Total within-chamber SSE of T_k on the training data."""
        return sum(leaf.sse for leaf in self.leaves(k))

    def describe(self, k: int | None = None, eip_index=None,
                 max_depth: int = 6) -> str:
        """ASCII rendering of T_k (for reports and debugging)."""
        lines: list[str] = []

        def label(feature: int) -> str:
            if eip_index is None:
                return f"EIP[{feature}]"
            entry = eip_index[feature]
            if isinstance(entry, str):
                return entry
            return f"EIP 0x{int(entry):x}"

        if k is None:
            k = self.max_k()

        def walk(node: TreeNode, prefix: str) -> None:
            internal = node.split_rank is not None and node.split_rank <= k - 2
            if not internal or node.depth >= max_depth:
                lines.append(f"{prefix}leaf: n={node.n} "
                             f"mean CPI={node.value:.3f}")
                return
            lines.append(f"{prefix}{label(node.feature)} <= "
                         f"{node.threshold:g}?")
            walk(node.left, prefix + "  ")
            walk(node.right, prefix + "  ")

        walk(self.root, "")
        return "\n".join(lines)
