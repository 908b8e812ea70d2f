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
    """Flat-array regression tree; feature < 0 marks a leaf."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=float)

    def predict(self, X: np.ndarray) -> np.ndarray:
        n = X.shape[0]
        node = np.zeros(n, dtype=np.int64)
        while True:
            feat = self.feature[node]
            internal = feat >= 0
            if not internal.any():
                break
            xv = X[np.arange(n), np.where(internal, feat, 0)]
            # ~(x <= thr), not x > thr: a NaN goes right, as in growth.
            go_right = internal & ~(xv <= self.threshold[node])
            nxt = np.where(go_right, self.right[node], np.where(internal, self.left[node], node))
            node = nxt
        return self.value[node]

    def n_nodes(self) -> int:
        return len(self.feature)


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
    """
    p, n_node = node_orders.shape
    lo, hi = min_leaf - 1, n_node - min_leaf
    m = hi - lo

    def block(rows: np.ndarray, k: int, width: int) -> np.ndarray:
        return rows[k, : p * width].reshape(p, width)

    v = block(buf, 0, m + 1)
    for j in range(p):
        np.take(XT[j], node_orders[j, lo : hi + 1], out=v[j], mode="wrap")
    head = node_orders[:, :hi]
    cw = block(buf, 1, hi)
    np.take(w, head, out=cw, mode="wrap")
    np.cumsum(cw, axis=1, out=cw)
    cwy = block(buf, 2, hi)
    np.take(wt, head, out=cwy, mode="wrap")
    np.cumsum(cwy, axis=1, out=cwy)
    cw, cwy = cw[:, lo:], cwy[:, lo:]

    # gain = cwy^2 / (cw + lam) + (wysum - cwy)^2 / (rw + lam) - parent_score,
    # with rw = wsum - cw, evaluated in that order so every bit is the same.
    valid, ok = block(flags, 0, m), block(flags, 1, m)
    np.less(v[:, :-1], v[:, 1:], out=valid)
    np.greater(cw, 0, out=ok)
    valid &= ok
    gain, denom = block(buf, 3, m), block(buf, 4, m)
    np.add(cw, lam, out=denom)
    rw = np.subtract(wsum, cw, out=cw)
    np.greater(rw, 0, out=ok)
    valid &= ok
    with np.errstate(divide="ignore", invalid="ignore"):
        np.subtract(wysum, cwy, out=gain)
        np.square(gain, out=gain)
        np.square(cwy, out=cwy)
        np.divide(cwy, denom, out=cwy)
        np.add(rw, lam, out=rw)
        np.divide(gain, rw, out=gain)
        np.add(cwy, gain, out=gain)
        np.subtract(gain, wysum**2 / (wsum + lam), out=gain)
    np.logical_not(valid, out=valid)
    np.copyto(gain, -np.inf, where=valid)

    pos = gain.argmax(axis=1)
    best_gain, best_feat, best_thr = 0.0, -1, 0.0
    for j, (i, g) in enumerate(zip(pos.tolist(), gain[np.arange(p), pos].tolist())):
        if g > best_gain:
            best_gain, best_feat = g, j
            best_thr = float((v[j, i] + v[j, i + 1]) / 2.0)
    return best_gain, best_feat, best_thr


def _grow_tree(
    XT: np.ndarray,
    target: np.ndarray,
    w: np.ndarray,
    max_depth: int,
    orders: np.ndarray,
    leaf_penalty: float = 0.0,
    min_leaf: int = 1,
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
    fitted = np.empty(n)
    scratch = np.zeros(n, dtype=bool)
    buf = np.empty((5, p * n))
    flags = np.empty((2, p * n), dtype=bool)
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
        w_node = w[rows]
        wsum = float(w_node.sum())
        wysum = float(wt[rows].sum())
        leaf = wysum / (wsum + lam)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(leaf)
        mean = wysum / wsum
        sse = float((w_node * (target[rows] - mean) ** 2).sum())
        best_gain, best_feat, best_thr = 0.0, -1, 0.0
        if depth < max_depth and n_node >= 2 * min_leaf and sse > 0.0:
            best_gain, best_feat, best_thr = _best_split(
                XT, w, wt, node_orders, wsum, wysum, lam, min_leaf, buf, flags
            )
        if best_feat < 0 or best_gain <= _SPLIT_TOL * sse:
            fitted[rows] = leaf
            continue

        # One mask over the flattened (p, n_node) orders; np.compress keeps
        # each feature's order and is several times faster than a boolean
        # index here.
        scratch[rows] = XT[best_feat, rows] <= best_thr
        goes_left = scratch.take(node_orders).ravel()
        flat = node_orders.ravel()
        feature[node] = best_feat
        threshold[node] = best_thr
        stack.append((np.compress(~goes_left, flat).reshape(p, -1), depth + 1, right, node))
        stack.append((np.compress(goes_left, flat).reshape(p, -1), depth + 1, left, node))
    return _Tree(feature, threshold, left, right, value), fitted


class FittedModel:
    """A fitted learner bound to its training feature names.

    ``predict`` accepts exactly the training feature set; when
    ``feature_names`` is passed, columns are matched by name so any column
    order works.  Logistic models predict probabilities.
    """

    def __init__(
        self,
        spec: LearnerSpec,
        feature_names: tuple[str, ...],
        intercept: float | None = None,
        coef: np.ndarray | None = None,
        base_value: float | None = None,
        trees: tuple[_Tree, ...] = (),
    ):
        self.spec = spec
        self.feature_names = tuple(feature_names)
        self._intercept = intercept
        self._coef = None if coef is None else np.array(coef, dtype=float)
        if self._coef is not None:
            self._coef.setflags(write=False)
        self._base_value = base_value
        self._trees = trees

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
        out = np.full(X.shape[0], self._base_value)
        for tree in self._trees:
            out = out + self.spec.learning_rate * tree.predict(X)
        return out

    def staged_predictions(self, X: np.ndarray, feature_names: Sequence[str] | None = None) -> np.ndarray:
        """(rounds+1, n) matrix of boosted predictions after 0..m trees (gbt only)."""
        if self.spec.kind != "gbt":
            raise ValueError("staged_predictions is only defined for gbt models")
        X = self._align(X, feature_names)
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
                for i in range(tree.n_nodes()):
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
    eta = np.clip(eta, -35.0, 35.0)
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ex = np.exp(eta[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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
    """
    spec = spec or LearnerSpec("linear")
    if spec.kind != "linear":
        raise ValueError(f"spec kind {spec.kind!r} is not linear")
    X, y, w, names = _check_xy(X, y, w, feature_names)
    n, k = X.shape
    sw = np.sqrt(w)
    design = np.column_stack([np.ones(n), X]) * sw[:, None]
    rhs = y * sw
    if spec.ridge > 0 and k > 0:
        penalty = np.zeros((k, k + 1))
        penalty[:, 1:] = np.sqrt(spec.ridge) * np.eye(k)
        design = np.vstack([design, penalty])
        rhs = np.concatenate([rhs, np.zeros(k)])
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
    """
    spec = spec or LearnerSpec("logistic")
    if spec.kind != "logistic":
        raise ValueError(f"spec kind {spec.kind!r} is not logistic")
    X, y, _, names = _check_xy(X, y, None, feature_names)
    classes = np.unique(y)
    if not np.all(np.isin(classes, (0.0, 1.0))):
        raise ValueError("y must be a 0/1 vector")
    if len(classes) < 2:
        raise SingleClassError("logistic fit needs both classes present")

    n, k = X.shape
    design = np.column_stack([np.ones(n), X])
    beta = np.zeros(k + 1)
    jitter = 1e-10 * np.eye(k + 1)
    for _ in range(spec.max_iterations):
        eta = design @ beta
        p = _sigmoid(eta)
        wirls = p * (1.0 - p)
        # Solve X'WX b = X'(W eta + (y - p)) -- no division by the weights.
        lhs = design.T @ (design * wirls[:, None]) + jitter
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
    fit, as two ``(p, n)`` arrays that every tree reuses.  The training
    predictions advance by the per-row leaf values that growth returns, so a
    round costs one tree's growth and no prediction pass.  Time is
    O(rounds * depth * n * p) after the O(p * n log n) sort.  Memory is
    O(n * p): the transposed matrix and sort orders, the orders of the nodes
    waiting to be grown, and one tree's scratch buffers (see
    :func:`_grow_tree`); all of it is freed when the fit returns, and the
    model keeps only its trees.
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
    trees = []
    for _ in range(spec.max_iterations):
        residual = y - current
        if float((w * residual**2).sum()) == 0.0:
            break
        tree, fitted = _grow_tree(
            XT, residual, w, spec.max_depth, orders, spec.leaf_penalty, spec.min_leaf
        )
        current = current + spec.learning_rate * fitted
        trees.append(tree)
    return FittedModel(spec, names, base_value=base, trees=tuple(trees))


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
