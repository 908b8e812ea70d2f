"""Base supervised learners: OLS, logistic regression, boosted regression trees.

Every fit is deterministic given its inputs and spec; there is no internal
randomness.  Fitted models match prediction features to training features
by name, so column order never matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, SingleClassError

_SPLIT_TOL = 1e-12  # relative gain below this is numerical noise, not signal


@dataclass(frozen=True)
class LearnerSpec:
    """Learner family plus hyperparameters.

    Args:
        kind: "linear", "logistic", or "gbt".
        max_iterations: Boosting rounds (gbt) or IRLS iteration cap (logistic).
            The cap is honored silently; hitting it is not an error.
        learning_rate: Shrinkage per boosting round (gbt only).
        max_depth: Maximum tree depth (gbt only).
        tolerance: Coefficient-change convergence threshold (logistic only).
        ridge: L2 penalty on non-intercept coefficients (linear only).
        leaf_penalty: L2 penalty on tree leaf values (gbt only).
        min_leaf: Minimum samples per tree leaf (gbt only).

    The gbt defaults (100 rounds, rate 0.2, depth 6, leaf penalty 1, 20
    samples per leaf) are calibrated on the synthetic-validation suite:
    shallower or less-regularized settings recover the true average effect
    noticeably worse there and are reproduced by reference boosted-tree
    implementations, so this is a property of the configuration, not of
    this implementation.
    """

    kind: str
    max_iterations: int = 100
    learning_rate: float = 0.2
    max_depth: int = 6
    tolerance: float = 1e-6
    ridge: float = 1e-8
    leaf_penalty: float = 1.0
    min_leaf: int = 20

    def __post_init__(self):
        if self.kind not in ("linear", "logistic", "gbt"):
            raise ValueError(f"unknown learner kind {self.kind!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")
        if self.ridge < 0:
            raise ValueError("ridge must be >= 0")
        if self.leaf_penalty < 0:
            raise ValueError("leaf_penalty must be >= 0")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")


class _Tree:
    """Flat-array regression tree; feature < 0 marks a leaf.

    Nodes are numbered parents first (both growers number them in
    preorder).  The children live in one table, built once per tree:
    ``child[2 * i + 1]`` is node i's left child and ``child[2 * i]`` its
    right one, and a leaf points to itself on both sides.  ``left`` and
    ``right`` are views of it.  ``depth`` is the number of edges on the
    tree's longest root-to-leaf path.
    """

    __slots__ = ("feature", "threshold", "value", "child", "depth")

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=float)
        self.value = np.asarray(value, dtype=float)
        internal = self.feature >= 0
        self.child = np.repeat(np.arange(len(self.feature), dtype=np.int64), 2)
        self.child[1::2][internal] = np.asarray(left, dtype=np.int64)[internal]
        self.child[0::2][internal] = np.asarray(right, dtype=np.int64)[internal]
        child, depth = self.child.tolist(), [0] * len(self.feature)
        for i in np.flatnonzero(internal).tolist():
            depth[child[2 * i]] = depth[child[2 * i + 1]] = depth[i] + 1
        self.depth = max(depth)

    @property
    def left(self) -> np.ndarray:
        return self.child[1::2]

    @property
    def right(self) -> np.ndarray:
        return self.child[0::2]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf value of every row of ``X``, in exactly ``depth`` steps.

        Each step reads every row's split value from the C-contiguous flat
        X and moves to ``child[2 * node + (x <= threshold)]``; a row that
        has reached its leaf stays there, whatever its read gives (a leaf's
        feature -1 reads an in-bounds cell).  ``x <= threshold`` is false
        for a NaN, so a NaN goes right, as in growth.
        """
        n, p = X.shape
        flat = np.ascontiguousarray(X, dtype=float).reshape(-1)
        offsets = np.arange(n, dtype=np.int64) * p
        node = np.zeros(n, dtype=np.int64)
        for _ in range(self.depth):
            x = flat.take(offsets + self.feature.take(node))
            node = self.child.take(2 * node + (x <= self.threshold.take(node)))
        return self.value.take(node)


def _best_split(
    XT: np.ndarray,
    w: np.ndarray,
    wt: np.ndarray,
    node_orders: np.ndarray,
    wsum: float,
    wysum: float,
    lam: float,
    min_leaf: int,
    buf: np.ndarray,
    flags: np.ndarray,
    tied: Sequence[int],
    unit_denom: np.ndarray | None = None,
) -> tuple[float, int, float]:
    """Best ``(gain, feature, threshold)`` of one node, all features at once.

    ``node_orders`` stacks the node's per-feature sort orders, shape
    ``(p, n_node)``.  Only the split positions that leave ``min_leaf`` rows
    on each side, ``[min_leaf - 1, n_node - min_leaf)``, are scored: the
    weight prefix sums run along axis 1 and the gains are computed for the
    whole ``(p, window)`` block in the caller's scratch buffers (five float
    and two bool rows of at least ``p * n_node``), so a node allocates
    nothing large.  Within a feature the first best position wins; across
    features a later feature must be strictly better, so ties go to the
    lowest feature.  Feature -1 means no split has positive gain.

    A position between two equal sorted values (or before a NaN, which
    sorts last) is no split.  ``tied`` lists the features whose sorted
    column over the whole fit is not strictly increasing (see
    :func:`_tied_features`); only those can hold such a position in a node,
    so only their sorted values are gathered and masked.  A tie-free
    feature's gains are all valid, and its threshold reads the two cells at
    its best position straight from ``XT``.

    ``unit_denom`` is ``np.arange(1, n + 1) + lam`` when every weight is
    exactly 1, else None.  With unit weights the prefix sums ``cw`` of every
    feature are the exact integers ``lo + 1 .. hi``, the same bits a cumsum
    of ones gives, and the window is symmetric, so ``rw = wsum - cw`` is the
    same row reversed.  Both denominators are then views of that one ramp,
    shared by all features: no weight is gathered or summed, and the
    ``cw > 0`` and ``rw > 0`` masks, always true, are skipped.  The gain is
    evaluated in the same order on both paths, so it has the same bits.
    """
    p, n_node = node_orders.shape
    lo, hi = min_leaf - 1, n_node - min_leaf
    m = hi - lo

    def block(rows: np.ndarray, k: int, width: int) -> np.ndarray:
        return rows[k, : p * width].reshape(p, width)

    head = node_orders[:, :hi]
    cwy = block(buf, 2, hi)
    np.take(wt, head, out=cwy, mode="wrap")
    np.cumsum(cwy, axis=1, out=cwy)
    cwy = cwy[:, lo:]

    # gain = cwy^2 / (cw + lam) + (wysum - cwy)^2 / (rw + lam) - parent_score,
    # with rw = wsum - cw, evaluated in that order so every bit is the same.
    if unit_denom is None:
        cw = block(buf, 1, hi)
        np.take(w, head, out=cw, mode="wrap")
        np.cumsum(cw, axis=1, out=cw)
        cw = cw[:, lo:]
        valid = block(flags, 0, m)
        np.greater(cw, 0, out=valid)
        ok = block(flags, 1, m)
        denom = block(buf, 4, m)
        np.add(cw, lam, out=denom)
        rw = np.subtract(wsum, cw, out=cw)
        np.greater(rw, 0, out=ok)
        valid &= ok
        rdenom = np.add(rw, lam, out=rw)
    else:
        denom = unit_denom[lo:hi]
        rdenom = denom[::-1]
    gain = block(buf, 3, m)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.subtract(wysum, cwy, out=gain)
        np.square(gain, out=gain)
        np.square(cwy, out=cwy)
        np.divide(cwy, denom, out=cwy)
        np.divide(gain, rdenom, out=gain)
        np.add(cwy, gain, out=gain)
        np.subtract(gain, wysum**2 / (wsum + lam), out=gain)
    v = block(buf, 0, m + 1)
    tie = flags[1, :m]
    for j in tied:
        np.take(XT[j], node_orders[j, lo : hi + 1], out=v[j], mode="wrap")
        np.less(v[j, :-1], v[j, 1:], out=tie)
        np.logical_not(tie, out=tie)
        np.copyto(gain[j], -np.inf, where=tie)
    if unit_denom is None:
        np.logical_not(valid, out=valid)
        np.copyto(gain, -np.inf, where=valid)

    pos = gain.argmax(axis=1)
    best_gain, best_feat, best_thr = 0.0, -1, 0.0
    for j, (i, g) in enumerate(zip(pos.tolist(), gain[np.arange(p), pos].tolist())):
        if g > best_gain:
            best_gain, best_feat, best_pos = g, j, i
    if best_feat >= 0:
        a, b = XT[best_feat].take(node_orders[best_feat, lo + best_pos : lo + best_pos + 2])
        best_thr = float((a + b) / 2.0)
    return best_gain, best_feat, best_thr


def _tied_features(XT: np.ndarray, orders: np.ndarray) -> list[int]:
    """The features whose sorted column is not strictly increasing.

    Such a column holds two equal values, a NaN (which sorts last and
    compares false), or ``-0.0`` next to ``0.0`` (which compare equal).  A
    feature not listed is tie-free: its sorted values are strictly
    increasing over these rows, and so over any subset of them.
    """
    tied = []
    for j in range(XT.shape[0]):
        s = XT[j].take(orders[j])
        if not (s[:-1] < s[1:]).all():
            tied.append(j)
    return tied


def _grow_tree(
    XT: np.ndarray,
    target: np.ndarray,
    w: np.ndarray,
    max_depth: int,
    orders: np.ndarray,
    leaf_penalty: float = 0.0,
    min_leaf: int = 1,
    tied: Sequence[int] | None = None,
) -> tuple[_Tree, np.ndarray]:
    """Exact greedy penalized-squared-error tree, and its value on every row.

    ``XT`` is the feature matrix transposed to ``(p, n)`` and ``orders`` the
    stable per-feature sort orders of its rows, one ``(p, n)`` int64 array.
    Splits are searched at midpoints of sorted unique feature values.  Leaf
    values minimize sum w (r - v)^2 + leaf_penalty * v^2, i.e. they are
    shrunken weighted means; the split gain uses the same penalized
    objective.  Both children must hold at least ``min_leaf`` samples.

    Each node runs one stacked search over all features (:func:`_best_split`)
    in scratch buffers allocated once per tree, then splits its ``(p,
    n_node)`` orders into the children's with one boolean mask and a
    reshape; the orders are never re-sorted.  A node costs O(n_node * p)
    time, and only the orders of nodes still to be grown (at most one per
    level, plus the current node's children) outlive it.  Nodes are grown
    depth first, left child first, from an explicit stack, so they are
    numbered in preorder and growth leaves no reference cycle behind.

    Work that no split and no output reads is skipped; the tree is the same
    bit for bit.  ``tied`` lists the features that may hold ties (computed
    from ``XT`` and ``orders`` by :func:`_tied_features` when None); the
    split search masks equal neighbours on those alone.  A node's squared
    error is computed only when the node can be searched, though its mean
    always is, so a node with no weight raises ``ZeroDivisionError``.  A
    child that cannot be searched (at ``max_depth``, or with fewer than
    ``2 * min_leaf`` rows) gets only its feature-0 row order, the one order
    a leaf reads.

    When every weight is exactly 1 (``(w == 1.0).all()``), a node's weight
    sum is its row count, its squared error is unweighted, and the split
    search gets the one ramp ``arange(1, n + 1) + leaf_penalty`` in place of
    per-node weight prefix sums (see :func:`_best_split`); the result is the
    same bit for bit.

    Growth sends row i left exactly when ``X[i, f] <= threshold``, which is
    the route :meth:`_Tree.predict` takes for every X (a NaN goes right in
    both), and each leaf writes its value into the returned per-row array.
    That array therefore equals ``tree.predict(X)`` bit for bit without a
    second pass over the tree.
    """
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    wt = w * target
    lam = leaf_penalty
    p, n = orders.shape
    if tied is None:
        tied = _tied_features(XT, orders)
    unit = bool((w == 1.0).all())
    unit_denom = np.arange(1.0, n + 1) + lam if unit else None
    fitted = np.empty(n)
    scratch = np.zeros(n, dtype=bool)
    buf = np.empty((5, p * n))
    flags = np.empty((2, p * n), dtype=bool)

    def searchable(depth: int, n_node: int) -> bool:
        return depth < max_depth and n_node >= 2 * min_leaf

    # (orders, depth, parent's child-link list, parent); the left child is
    # pushed last, so it is popped first.
    stack = [(orders, 0, None, -1)]
    while stack:
        node_orders, depth, link, parent = stack.pop()
        node = len(feature)
        if link is not None:
            link[parent] = node
        rows = node_orders[0] if p else np.arange(n)
        n_node = rows.size
        wsum = float(n_node) if unit else float(w[rows].sum())
        wysum = float(wt[rows].sum())
        leaf = wysum / (wsum + lam)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(leaf)
        mean = wysum / wsum
        best_feat = -1
        if searchable(depth, n_node):
            sq = (target[rows] - mean) ** 2
            sse = float((sq if unit else w[rows] * sq).sum())
            if sse > 0.0:
                best_gain, best_feat, best_thr = _best_split(
                    XT, w, wt, node_orders, wsum, wysum, lam, min_leaf, buf, flags, tied,
                    unit_denom,
                )
                if best_gain <= _SPLIT_TOL * sse:
                    best_feat = -1
        if best_feat < 0:
            fitted[rows] = leaf
            continue

        feature[node] = best_feat
        threshold[node] = best_thr
        left0 = XT[best_feat].take(rows) <= best_thr
        scratch[rows] = left0
        n_left = int(np.count_nonzero(left0))
        # A child to be searched gets all p orders from one mask over the
        # flattened (p, n_node) orders; np.compress keeps each feature's
        # order and is several times faster than a boolean index here.  A
        # leaf child gets its feature-0 order alone.
        grow_left = searchable(depth + 1, n_left)
        grow_right = searchable(depth + 1, n_node - n_left)
        if grow_left or grow_right:
            goes_left = scratch.take(node_orders).ravel()
            flat = node_orders.ravel()
        right_orders = (np.compress(~goes_left, flat).reshape(p, -1) if grow_right
                        else np.compress(~left0, rows)[None])
        left_orders = (np.compress(goes_left, flat).reshape(p, -1) if grow_left
                       else np.compress(left0, rows)[None])
        stack.append((right_orders, depth + 1, right, node))
        stack.append((left_orders, depth + 1, left, node))
    return _Tree(feature, threshold, left, right, value), fitted


class FittedModel:
    """A fitted learner bound to its training feature names.

    ``predict`` accepts exactly the training feature set; when
    ``feature_names`` is passed, columns are matched by name so any column
    order works.  Logistic models predict probabilities.

    A gbt fit keeps ``fitted``, a read-only array of its predictions on its
    own training X, equal to ``predict`` of that X bit for bit.  Linear and
    logistic fits keep None: a product over a subset of the rows may round
    differently under BLAS, so their training predictions come from
    ``predict`` on the matrix the caller holds.
    """

    def __init__(
        self,
        spec: LearnerSpec,
        feature_names: tuple[str, ...],
        intercept: float | None = None,
        coef: np.ndarray | None = None,
        base_value: float | None = None,
        trees: tuple[_Tree, ...] = (),
        fitted: np.ndarray | None = None,
    ):
        self.spec = spec
        self.feature_names = tuple(feature_names)
        self._intercept = intercept
        self._coef = None if coef is None else np.array(coef, dtype=float)
        if self._coef is not None:
            self._coef.setflags(write=False)
        self._base_value = base_value
        self._trees = trees
        self.fitted = fitted
        if fitted is not None:
            fitted.setflags(write=False)

    def _align(self, X: np.ndarray, feature_names: Sequence[str] | None) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        if X.ndim != 2:
            raise DimensionMismatchError("X must be a 2-d matrix")
        k = len(self.feature_names)
        if feature_names is None:
            if X.shape[1] != k:
                raise DimensionMismatchError(
                    f"model has {k} features, X has {X.shape[1]} columns"
                )
            return X
        names = list(feature_names)
        if sorted(names) != sorted(self.feature_names):
            raise DimensionMismatchError(
                f"feature set {names} does not match training features "
                f"{list(self.feature_names)}"
            )
        if X.shape[1] != len(names):
            raise DimensionMismatchError("feature_names length differs from X width")
        perm = [names.index(f) for f in self.feature_names]
        return X[:, perm]

    @property
    def intercept(self) -> float:
        if self.spec.kind == "gbt":
            raise ValueError("gbt models have no intercept")
        return self._intercept

    def coefficient(self, name: str) -> float:
        """Fitted coefficient of the named feature (linear/logistic only)."""
        if self.spec.kind == "gbt":
            raise ValueError("gbt models have no coefficients")
        try:
            return float(self._coef[self.feature_names.index(name)])
        except ValueError:
            raise DimensionMismatchError(f"model has no feature {name!r}") from None

    def predict(self, X: np.ndarray, feature_names: Sequence[str] | None = None) -> np.ndarray:
        X = self._align(X, feature_names)
        if self.spec.kind == "linear":
            return self._intercept + X @ self._coef
        if self.spec.kind == "logistic":
            eta = self._intercept + X @ self._coef
            return _sigmoid(eta)
        X = np.ascontiguousarray(X)  # once, not once per tree
        out = np.full(X.shape[0], self._base_value)
        for tree in self._trees:
            out = out + self.spec.learning_rate * tree.predict(X)
        return out

    def staged_predictions(self, X: np.ndarray, feature_names: Sequence[str] | None = None) -> np.ndarray:
        """(rounds+1, n) matrix of boosted predictions after 0..m trees (gbt only)."""
        if self.spec.kind != "gbt":
            raise ValueError("staged_predictions is only defined for gbt models")
        X = np.ascontiguousarray(self._align(X, feature_names))
        out = np.empty((len(self._trees) + 1, X.shape[0]))
        cur = np.full(X.shape[0], self._base_value)
        out[0] = cur
        for m, tree in enumerate(self._trees, start=1):
            cur = cur + self.spec.learning_rate * tree.predict(X)
            out[m] = cur
        return out

    def describe(self) -> str:
        """Structured text rendering of the model (kind, hyperparameters, parameters)."""
        lines = [f"kind: {self.spec.kind}"]
        s = self.spec
        if s.kind == "linear":
            lines.append(f"ridge: {s.ridge!r}")
        elif s.kind == "logistic":
            lines.append(f"max_iterations: {s.max_iterations}")
            lines.append(f"tolerance: {s.tolerance!r}")
        else:
            lines.append(f"max_iterations: {s.max_iterations}")
            lines.append(f"learning_rate: {s.learning_rate!r}")
            lines.append(f"max_depth: {s.max_depth}")
            lines.append(f"leaf_penalty: {s.leaf_penalty!r}")
            lines.append(f"min_leaf: {s.min_leaf}")
        lines.append("features: " + ", ".join(self.feature_names))
        if self.spec.kind in ("linear", "logistic"):
            lines.append(f"intercept: {self._intercept!r}")
            for name, b in zip(self.feature_names, self._coef):
                lines.append(f"coef {name}: {b!r}")
        else:
            lines.append(f"base_value: {self._base_value!r}")
            lines.append(f"trees: {len(self._trees)}")
            for ti, tree in enumerate(self._trees):
                for i in range(len(tree.feature)):
                    if tree.feature[i] < 0:
                        lines.append(f"tree {ti} node {i}: leaf {tree.value[i]!r}")
                    else:
                        fname = self.feature_names[tree.feature[i]]
                        lines.append(
                            f"tree {ti} node {i}: {fname} <= {tree.threshold[i]!r}"
                            f" -> {tree.left[i]} else {tree.right[i]}"
                        )
        return "\n".join(lines) + "\n"


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    """The logistic function of ``eta`` clipped to [-35, 35], without overflow.

    ``exp`` only ever sees ``-|eta|``: ``1 / (1 + ex)`` for a non-negative
    logit and ``ex / (1 + ex)`` for a negative one.  The numerator is picked
    by ``maximum(ex, eta >= 0)``, a select that does not branch per element:
    ``0 < ex <= 1``, so it is 1 for a non-negative logit and ``ex`` otherwise.
    """
    eta = np.clip(eta, -35.0, 35.0)
    ex = np.exp(-np.abs(eta))
    return np.maximum(ex, eta >= 0) / (1.0 + ex)


def _check_xy(X, y, w=None, feature_names=None):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise DimensionMismatchError("X must be a 2-d matrix")
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise DimensionMismatchError(
            f"X has {X.shape[0]} rows but y has {np.atleast_1d(y).shape[0]}"
        )
    if X.shape[0] < 1:
        raise DimensionMismatchError("need at least one row")
    if w is None:
        w = np.ones(X.shape[0])
    else:
        w = np.asarray(w, dtype=float)
        if w.shape != y.shape:
            raise DimensionMismatchError("weights must match y in length")
        if (w < 0).any():
            raise ValueError("weights must be non-negative")
    if feature_names is None:
        feature_names = tuple(f"x{i}" for i in range(X.shape[1]))
    else:
        feature_names = tuple(feature_names)
        if len(feature_names) != X.shape[1]:
            raise DimensionMismatchError("feature_names length differs from X width")
    return X, y, w, feature_names


def fit_linear(
    X: np.ndarray,
    y: np.ndarray,
    w: np.ndarray | None = None,
    feature_names: Sequence[str] | None = None,
    spec: LearnerSpec | None = None,
) -> FittedModel:
    """Weighted least squares with intercept and a small ridge on coefficients.

    Minimizes sum_i w_i (y_i - b0 - b.x_i)^2 + ridge * |b|^2 via a QR/SVD
    solve on the sqrt-weight-scaled, ridge-augmented design.  Deterministic.

    The design ``[1, X]`` scaled by ``sqrt(w)``, with the ridge rows
    ``[0, sqrt(ridge) I]`` below it, and the right-hand side ``[y sqrt(w),
    0]`` are each written into one array.
    """
    spec = spec or LearnerSpec("linear")
    if spec.kind != "linear":
        raise ValueError(f"spec kind {spec.kind!r} is not linear")
    X, y, w, names = _check_xy(X, y, w, feature_names)
    n, k = X.shape
    ridge_rows = k if spec.ridge > 0 and k > 0 else 0
    design = np.zeros((n + ridge_rows, k + 1))
    rhs = np.zeros(n + ridge_rows)
    sw = np.sqrt(w)
    design[:n, 0] = sw
    np.multiply(X, sw[:, None], out=design[:n, 1:])
    np.multiply(y, sw, out=rhs[:n])
    if ridge_rows:
        design[n:, 1:] = np.sqrt(spec.ridge) * np.eye(k)
    beta, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    return FittedModel(spec, names, intercept=float(beta[0]), coef=beta[1:])


def fit_logistic(
    X: np.ndarray,
    y: np.ndarray,
    feature_names: Sequence[str] | None = None,
    spec: LearnerSpec | None = None,
) -> FittedModel:
    """Logistic regression with intercept via iteratively reweighted least squares.

    Stops when the largest coefficient change drops below ``tolerance`` or at
    ``max_iterations``; hitting the cap (e.g. on separable data) is not an
    error.  Raises :class:`SingleClassError` unless both classes are present.

    The design ``[1, X]`` is filled in place once, and the weighted design
    ``W X`` of every iteration is written column by column into one
    C-contiguous buffer of the same shape (a broadcast multiply would walk
    rows of only k + 1 values and take about twice as long).
    """
    spec = spec or LearnerSpec("logistic")
    if spec.kind != "logistic":
        raise ValueError(f"spec kind {spec.kind!r} is not logistic")
    X, y, _, names = _check_xy(X, y, None, feature_names)
    ones = y == 1.0
    if not np.all(ones | (y == 0.0)):
        raise ValueError("y must be a 0/1 vector")
    n_ones = np.count_nonzero(ones)
    if n_ones == 0 or n_ones == len(y):
        raise SingleClassError("logistic fit needs both classes present")

    n, k = X.shape
    design = np.empty((n, k + 1))
    design[:, 0] = 1.0
    design[:, 1:] = X
    weighted = np.empty_like(design)
    beta = np.zeros(k + 1)
    jitter = 1e-10 * np.eye(k + 1)
    for _ in range(spec.max_iterations):
        eta = design @ beta
        p = _sigmoid(eta)
        wirls = p * (1.0 - p)
        weighted[:, 0] = wirls  # the intercept column: 1 * w is w
        for j in range(1, k + 1):
            np.multiply(design[:, j], wirls, out=weighted[:, j])
        # Solve X'WX b = X'(W eta + (y - p)) -- no division by the weights.
        lhs = design.T @ weighted + jitter
        rhs = design.T @ (wirls * eta + (y - p))
        new_beta = np.linalg.solve(lhs, rhs)
        delta = np.max(np.abs(new_beta - beta))
        beta = new_beta
        if delta < spec.tolerance:
            break
    return FittedModel(spec, names, intercept=float(beta[0]), coef=beta[1:])


def fit_gbt(
    X: np.ndarray,
    y: np.ndarray,
    w: np.ndarray | None = None,
    feature_names: Sequence[str] | None = None,
    spec: LearnerSpec | None = None,
) -> FittedModel:
    """Gradient-boosted squared-error regression trees.

    Prediction is mean(y) + sum_m learning_rate * tree_m(x).  Each tree is
    grown by exact greedy search over midpoints of sorted unique feature
    values (at least ``min_leaf`` samples per leaf) on the current
    residuals.  Boosting stops at ``max_iterations`` rounds, or earlier once
    residuals hit zero.

    ``X.T`` and the stable sort order of every feature are made once per
    fit, as two ``(p, n)`` arrays that every tree reuses, and so is the
    list of tied features: a feature whose sorted column is strictly
    increasing (no equal neighbours, no NaN, no ``-0.0`` next to ``0.0``)
    has no tie in any node, so the split search neither gathers nor masks
    its sorted values.  The training predictions advance by the per-row leaf
    values that growth returns, so a round costs one tree's growth and no
    prediction pass; the model keeps the final ones as ``fitted``.  With
    unit weights (every call without ``w``) the split search skips the
    weight prefix sums.  Prediction walks each tree's child table a fixed
    ``depth`` steps over the C-contiguous X (see :class:`_Tree`).  Time is
    O(rounds * depth * n * p) after the O(p * n log n) sort.  Memory is
    O(n * p): the transposed matrix and sort orders, the orders of the nodes
    waiting to be grown, and one tree's scratch buffers (see
    :func:`_grow_tree`); all of it is freed when the fit returns, and the
    model keeps only its trees and one training prediction per row.
    """
    spec = spec or LearnerSpec("gbt")
    if spec.kind != "gbt":
        raise ValueError(f"spec kind {spec.kind!r} is not gbt")
    X, y, w, names = _check_xy(X, y, w, feature_names)
    wsum = w.sum()
    if wsum <= 0:
        raise ValueError("weights sum to zero")
    base = float((w * y).sum() / wsum)
    current = np.full(X.shape[0], base)
    XT = np.ascontiguousarray(X.T)
    orders = np.argsort(XT, axis=1, kind="stable")
    tied = _tied_features(XT, orders)
    trees = []
    for _ in range(spec.max_iterations):
        residual = y - current
        if float((w * residual**2).sum()) == 0.0:
            break
        tree, fitted = _grow_tree(
            XT, residual, w, spec.max_depth, orders, spec.leaf_penalty, spec.min_leaf, tied
        )
        current = current + spec.learning_rate * fitted
        trees.append(tree)
    return FittedModel(spec, names, base_value=base, trees=tuple(trees), fitted=current)


def fit_learner(
    spec: LearnerSpec,
    X: np.ndarray,
    y: np.ndarray,
    w: np.ndarray | None = None,
    feature_names: Sequence[str] | None = None,
) -> FittedModel:
    """Dispatch to the fit function matching ``spec.kind``."""
    if spec.kind == "linear":
        return fit_linear(X, y, w, feature_names, spec)
    if spec.kind == "logistic":
        if w is not None:
            raise ValueError("logistic fits do not take weights")
        return fit_logistic(X, y, feature_names, spec)
    return fit_gbt(X, y, w, feature_names, spec)
