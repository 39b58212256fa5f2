"""Per-node CART split search: the bit-identity oracle for the tree grower.

This is the regression-tree implementation the lockstep grower in
``repro.core.regression_tree`` replaced, kept verbatim (minus tracing)
so tests and benchmarks can demand *byte-identical* trees and
cross-validated SSE vectors from the batched search.  Each node runs its
own ``_find_best_split`` — per-node ``np.cumsum`` prefix sums, per-node
``ndarray.sum()`` totals, per-node ``np.add.reduceat`` segment totals and
a first-minimum ``np.argmin`` — and ``_apply_split`` partitions one node
at a time.  ``split_search="full"`` is the seed-era whole-store scan;
``"node"`` the node-local partitioning.  Both yield the same trees.

:func:`oracle_cross_validated_sse` is the matching serial CV loop: one
independent store (and lexsort) per fold, folds fitted one after another.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sparse import is_sparse

#: A split's CPI-variance reduction must exceed this to be applied
#: (guards against floating-point noise producing spurious splits).
MIN_GAIN = 1e-12


@dataclass(eq=False)  # identity comparison: nodes hold numpy arrays
class TreeNode:
    """One node of the regression tree.

    Leaves have ``feature is None``.  ``value`` is the mean CPI of the
    node's training points (the prediction for any EIPV landing here);
    ``sse`` is their sum of squared deviations.  ``split_rank`` is the
    order in which this node was split during best-first growth (0 for the
    root); ``None`` while the node is a leaf.  ``store_idx`` holds the
    node's triplet indices during node-local growth; it is released as
    soon as the node can no longer split.
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

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class _FeatureStore:
    """Sparse (feature, row, value) triplets sorted by (feature, value).

    One lexicographic sort at fit time lets every node's exact split search
    run as a handful of segmented-prefix-sum numpy operations over just the
    node's non-zero entries.  Accepts a dense matrix or a
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
        # Column j's triplets live in feat_offsets[j]:feat_offsets[j + 1].
        self.feat_offsets = np.searchsorted(
            self.feat, np.arange(self.n_features + 1))

    @property
    def nnz(self) -> int:
        return len(self.feat)

    def column(self, feature: int) -> tuple[np.ndarray, np.ndarray]:
        """(rows, values) of one feature's non-zero entries."""
        start, end = self.feat_offsets[feature], self.feat_offsets[feature + 1]
        return self.row[start:end], self.val[start:end]


class _ColumnAccessor:
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


class OracleTreeSequence:
    """The nested family of trees T_1 .. T_k_max over one dataset.

    Build once with :meth:`fit`; then :meth:`predict_all_k` evaluates
    every member T_k (splits of rank >= k - 1 treated as un-applied).
    ``split_search`` selects the node-local search (default) or the legacy
    whole-store scan (``"full"``) — both produce identical trees.
    """

    def __init__(self, k_max: int = 50, min_leaf: int = 1,
                 split_search: str = "node") -> None:
        if k_max < 1:
            raise ValueError("k_max must be at least 1")
        if min_leaf < 1:
            raise ValueError("min_leaf must be at least 1")
        if split_search not in ("node", "full"):
            raise ValueError("split_search must be 'node' or 'full'")
        self.k_max = k_max
        self.min_leaf = min_leaf
        self.split_search = split_search
        self.root: TreeNode | None = None
        self.n_splits = 0
        self._store: _FeatureStore | None = None

    # -- construction ---------------------------------------------------

    def fit(self, matrix, y: np.ndarray) -> "OracleTreeSequence":
        """Grow the tree family on (EIPV matrix, CPI vector)."""
        self._fit(matrix, y)
        return self

    def _fit(self, matrix, y: np.ndarray) -> None:
        if not is_sparse(matrix):
            matrix = np.asarray(matrix)
        y = np.asarray(y, dtype=np.float64)
        if matrix.shape[0] != len(y):
            raise ValueError("matrix rows must match y length")
        if len(y) == 0:
            raise ValueError("cannot fit on an empty dataset")
        store = _FeatureStore(matrix)
        self._store = store
        self._y = y
        # Reusable scratch, indexed by dataset row (reset after each use).
        self._scratch_val = np.zeros(store.n_rows)
        self._scratch_flag = np.zeros(store.n_rows, dtype=bool)

        rows = np.arange(len(y), dtype=np.int32)
        self.root = self._make_node(rows, depth=0)
        if self.split_search == "node":
            self.root.store_idx = np.arange(store.nnz, dtype=np.int64)
        self._find_best_split(self.root)

        # Best-first growth: repeatedly split the leaf with the largest
        # variance reduction.
        frontier = [self.root]
        self.n_splits = 0
        while self.n_splits < self.k_max - 1:
            best_node = None
            best_gain = MIN_GAIN
            for node in frontier:
                if node.best_split is None:
                    continue
                gain = node.sse - node.best_split[0]
                if gain > best_gain:
                    best_gain = gain
                    best_node = node
            if best_node is None:
                break
            self._apply_split(best_node)
            frontier.remove(best_node)
            frontier.extend([best_node.left, best_node.right])
            self.n_splits += 1
        for node in frontier:
            node.store_idx = None  # growth over: release frontier triplets

    def _make_node(self, rows: np.ndarray, depth: int) -> TreeNode:
        y = self._y[rows]
        total = float(y.sum())
        value = total / len(rows)
        sse = float(((y - value) ** 2).sum())
        return TreeNode(rows=rows, value=value, sse=sse, depth=depth)

    def _node_triplets(self, node: TreeNode):
        """The node's (feature, value, cpi) triplets in store order.

        Node-local mode reads them straight from the node's own index
        array; full mode rebuilds them by masking the whole store (the
        legacy behaviour, kept as the equality/benchmark reference).  Both
        yield the same arrays in the same order.
        """
        store = self._store
        if self.split_search == "node":
            idx = node.store_idx
            return store.feat[idx], store.val[idx], self._y[store.row[idx]]
        in_node = np.zeros(store.n_rows, dtype=bool)
        in_node[node.rows] = True
        select = in_node[store.row]
        return (store.feat[select], store.val[select],
                self._y[store.row[select]])

    def _find_best_split(self, node: TreeNode) -> None:
        """Compute and cache the node's best (feature, threshold).

        Fully vectorized: segmented prefix sums over the node's non-zero
        triplets (already sorted by feature then value) score every
        candidate ``count(EIP) <= t`` wall of every feature in one pass.
        The per-feature zero block (intervals where the EIP was never
        sampled) is handled in closed form.
        """
        rows = node.rows
        n = len(rows)
        if n < 2 * self.min_leaf or node.sse <= MIN_GAIN:
            node.best_split = None
            node.store_idx = None
            return
        y_node = self._y[rows]
        total_sum = float(y_node.sum())
        total_sumsq = float((y_node * y_node).sum())

        feat, val, y_nz = self._node_triplets(node)
        count = len(feat)
        if count == 0:
            node.best_split = None
            node.store_idx = None
            return
        y_sq = y_nz * y_nz

        # Segment bookkeeping: one segment per feature present in the node,
        # entries within a segment already sorted by value.
        new_seg = np.empty(count, dtype=bool)
        new_seg[0] = True
        np.not_equal(feat[1:], feat[:-1], out=new_seg[1:])
        seg_start = np.nonzero(new_seg)[0]
        seg_id = np.cumsum(new_seg) - 1
        seg_end = np.append(seg_start[1:], count)
        seg_len = seg_end - seg_start

        # Per-entry prefix sums within each segment.
        cs = np.cumsum(y_nz)
        cq = np.cumsum(y_sq)
        offset_s = np.concatenate(([0.0], cs[seg_start[1:] - 1]))
        offset_q = np.concatenate(([0.0], cq[seg_start[1:] - 1]))
        positions = np.arange(1, count + 1)
        cnt_nz_left = positions - seg_start[seg_id]
        sum_nz_left = cs - offset_s[seg_id]
        sq_nz_left = cq - offset_q[seg_id]

        # Per-segment totals and zero-block summaries.
        seg_sum = np.add.reduceat(y_nz, seg_start)
        seg_sq = np.add.reduceat(y_sq, seg_start)
        n0 = (n - seg_len).astype(np.float64)
        sum0 = total_sum - seg_sum
        sq0 = total_sumsq - seg_sq

        # Candidate splits after each non-zero entry ("x <= val").
        n_left = n0[seg_id] + cnt_nz_left
        sum_left = sum0[seg_id] + sum_nz_left
        sq_left = sq0[seg_id] + sq_nz_left
        n_right = n - n_left
        last_in_seg = np.zeros(count, dtype=bool)
        last_in_seg[seg_end - 1] = True
        same_as_next = np.zeros(count, dtype=bool)
        if count > 1:
            same_as_next[:-1] = (val[:-1] == val[1:]) & ~last_in_seg[:-1]
        valid = ~last_in_seg & ~same_as_next & (n_right > 0)
        # When the zero block is empty the last candidate would put
        # everything left; excluded via n_right above.  A candidate is
        # also only a real wall when both sides meet min_leaf.
        valid &= (n_left >= self.min_leaf) & (n_right >= self.min_leaf)

        best_sse = np.inf
        best_feature = -1
        best_threshold = 0.0
        if valid.any():
            sum_right = total_sum - sum_left
            sq_right = total_sumsq - sq_left
            with np.errstate(divide="ignore", invalid="ignore"):
                sse = ((sq_left - sum_left * sum_left / n_left)
                       + (sq_right - sum_right * sum_right
                          / np.maximum(n_right, 1)))
            sse[~valid] = np.inf
            index = int(np.argmin(sse))
            best_sse = float(sse[index])
            best_feature = int(feat[index])
            best_threshold = float(val[index])

        # Candidate "x <= 0" splits: zero block left, non-zeros right.
        zero_ok = ((n0 >= self.min_leaf) & (seg_len >= self.min_leaf))
        if zero_ok.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                sse0 = ((sq0 - sum0 * sum0 / np.maximum(n0, 1))
                        + (seg_sq - seg_sum * seg_sum / seg_len))
            sse0[~zero_ok] = np.inf
            index0 = int(np.argmin(sse0))
            if sse0[index0] < best_sse:
                best_sse = float(sse0[index0])
                best_feature = int(feat[seg_start[index0]])
                best_threshold = 0.0

        if best_feature < 0 or node.sse - best_sse <= MIN_GAIN:
            node.best_split = None
            node.store_idx = None
        else:
            node.best_split = (best_sse, best_feature, best_threshold)

    def _apply_split(self, node: TreeNode) -> None:
        """Execute the node's cached best split and prepare the children."""
        sse_children, feature, threshold = node.best_split
        rows = node.rows
        store = self._store
        node_local = self.split_search == "node"
        if node_local:
            idx = node.store_idx
            feat_sub = store.feat[idx]
            lo = np.searchsorted(feat_sub, feature, side="left")
            hi = np.searchsorted(feat_sub, feature, side="right")
            rows_j = store.row[idx[lo:hi]]
            values_j = store.val[idx[lo:hi]]
        else:
            rows_j, values_j = store.column(feature)
        # Feature value per node row (zeros by default).
        scratch = self._scratch_val
        scratch[rows_j] = values_j
        go_left = scratch[rows] <= threshold
        scratch[rows_j] = 0.0
        left_rows = rows[go_left]
        right_rows = rows[~go_left]
        if len(left_rows) == 0 or len(right_rows) == 0:
            raise AssertionError("degenerate split should have been skipped")
        node.feature = feature
        node.threshold = threshold
        node.split_rank = self.n_splits
        node.left = self._make_node(left_rows, node.depth + 1)
        node.right = self._make_node(right_rows, node.depth + 1)
        if node_local:
            # Partition the triplets: a boolean-mask split preserves the
            # (feature, value, row-major) order, so each child searches
            # exactly the subsequence the full scan would have produced.
            flag = self._scratch_flag
            flag[left_rows] = True
            mask = flag[store.row[idx]]
            flag[left_rows] = False
            node.left.store_idx = idx[mask]
            node.right.store_idx = idx[~mask]
            node.store_idx = None  # parent triplets are no longer needed
        self._find_best_split(node.left)
        self._find_best_split(node.right)

    # -- evaluation -----------------------------------------------------

    def max_k(self) -> int:
        """Largest chamber count this sequence actually reached."""
        return self.n_splits + 1

    def predict_all_k(self, matrix) -> np.ndarray:
        """Predictions under every member tree at once.

        Returns an array of shape ``(len(matrix), max_k)`` whose column
        ``k - 1`` is T_k's prediction.  Rows are batch-routed
        level by level: a node entered after ancestor splits of rank
        ``< low`` predicts columns ``low .. split_rank`` (all remaining
        columns at a leaf), because T_k applies exactly the splits of rank
        ``<= k - 2`` and ranks increase along any root-to-leaf path.
        """
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        if not is_sparse(matrix):
            matrix = np.asarray(matrix)
        k_max = self.max_k()
        columns = _ColumnAccessor(matrix)
        out = np.empty((matrix.shape[0], k_max))
        stack = [(self.root, np.arange(matrix.shape[0], dtype=np.int64), 0)]
        while stack:
            node, rows, low = stack.pop()
            if node.split_rank is None:
                out[rows, low:] = node.value
                continue
            rank = node.split_rank
            out[rows, low:rank + 1] = node.value
            go_left = columns.get(node.feature, rows) <= node.threshold
            stack.append((node.right, rows[~go_left], rank + 1))
            stack.append((node.left, rows[go_left], rank + 1))
        return out


def oracle_cross_validated_sse(matrix, y, k_max=50, folds=10, seed=0,
                               min_leaf=1, split_search="node",
                               predict=None) -> np.ndarray:
    """The per-fold serial CV loop (Section 4.4) over the oracle trees.

    ``predict(tree, held_out_matrix)`` defaults to the tree's own
    ``predict_all_k``; the benchmarks inject the seed-era per-row walk.
    """
    from repro.core.cross_validation import fold_indices

    if not is_sparse(matrix):
        matrix = np.asarray(matrix)
    y = np.asarray(y, dtype=np.float64)
    if predict is None:
        def predict(tree, rows):
            return tree.predict_all_k(rows)
    rng = np.random.default_rng(seed)
    sse = np.zeros(k_max)
    for held_out in fold_indices(len(y), folds, rng):
        train = np.ones(len(y), dtype=bool)
        train[held_out] = False
        tree = OracleTreeSequence(k_max=k_max, min_leaf=min_leaf,
                                  split_search=split_search)
        tree.fit(matrix[train], y[train])
        errors = ((predict(tree, matrix[held_out])
                   - y[held_out][:, None]) ** 2).sum(axis=0)
        reached = tree.max_k()
        sse[:reached] += errors
        if reached < k_max:
            sse[reached:] += errors[-1]
    return sse
