"""Independent brute-force oracles the implementation is checked against.

These deliberately use different algorithms from the library: path
enumeration instead of moralization, explicit normal equations instead of
least-squares solves, naive loops instead of vectorized prefix sums.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np

from causet.errors import IoError, KindError, ParseError, RaggedRowError, TypeConflictError
from causet.frame import KINDS, Column, Frame, _blocks, _kind_of
from causet.estimators import PropensityModel, fit_propensity, ipw_ate, psm_att, stratified_ate
from causet.graph import CausalGraph
from causet.learners import _SPLIT_TOL, _Tree, _sigmoid
from causet.refutation import EstimationTask


# -- d-separation by exhaustive path enumeration -------------------------------


def _undirected_paths(g: CausalGraph, a: str, b: str):
    """All simple paths a..b over the skeleton, with per-edge directions.

    Yields (nodes, dirs) where dirs[i] is ">" when the DAG edge points from
    nodes[i] to nodes[i+1] and "<" otherwise.
    """
    neighbors: dict[str, list[tuple[str, str]]] = {n: [] for n in g.nodes}
    for u, v in sorted(g.edges):
        neighbors[u].append((v, ">"))
        neighbors[v].append((u, "<"))

    stack = [(a, [a], [])]
    while stack:
        node, nodes, dirs = stack.pop()
        for nxt, d in neighbors[node]:
            if nxt == b:
                yield nodes + [nxt], dirs + [d]
            elif nxt not in nodes:
                stack.append((nxt, nodes + [nxt], dirs + [d]))


def _path_blocked(g: CausalGraph, nodes, dirs, z: frozenset[str]) -> bool:
    for i in range(1, len(nodes) - 1):
        mid = nodes[i]
        is_collider = dirs[i - 1] == ">" and dirs[i] == "<"
        if is_collider:
            if not ({mid} | set(g.descendants(mid))) & z:
                return True
        elif mid in z:
            return True
    return False


def dsep_bruteforce(g: CausalGraph, a: str, b: str, z) -> bool:
    """d-separation by checking the blocking rules on every single path."""
    zset = frozenset(z)
    for nodes, dirs in _undirected_paths(g, a, b):
        if not _path_blocked(g, nodes, dirs, zset):
            return False
    return True


def backdoor_bruteforce(g: CausalGraph, t: str, y: str):
    """Minimal valid adjustment sets by brute force over all subsets."""
    trimmed = g.without_outgoing(t)
    forbidden = g.descendants(t) | {t, y} | g.unobserved
    candidates = sorted(set(g.nodes) - forbidden)
    valid = []
    for size in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            if dsep_bruteforce(trimmed, t, y, combo):
                valid.append(combo)
    minimal = [
        s for s in valid
        if not any(set(o) < set(s) for o in valid)
    ]
    return sorted(minimal, key=lambda s: (len(s), s))


def reach_bruteforce(nodes, edges) -> dict[str, set[str]]:
    """``reach[a]``: every node at the end of a directed path from ``a``
    (Warshall's transitive closure of the edge list)."""
    reach = {a: {b for x, b in edges if x == a} for a in nodes}
    for k in nodes:
        for a in nodes:
            if k in reach[a]:
                reach[a] |= reach[k]
    return reach


def enumerate_dags(n: int):
    """Every DAG on nodes n0..n{n-1} whose labels follow a topological order.

    Each labeled DAG is a relabeling of exactly one of these, so checking a
    label-independent property on them covers all DAGs of that size.
    """
    names = [f"n{i}" for i in range(n)]
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
        yield names, edges


def enumerate_labeled_dags(n: int):
    """Every labeled DAG on n nodes (all acyclic orientations of all graphs)."""
    names = [f"n{i}" for i in range(n)]
    arcs = [(a, b) for a in names for b in names if a != b]
    for mask in range(1 << len(arcs)):
        edges = [p for k, p in enumerate(arcs) if mask >> k & 1]
        try:
            yield names, CausalGraph({m: "covariate" for m in names}, edges)
        except Exception:
            continue


# -- identification and estimation together ------------------------------------


def linear_sem(seed: int, k: int, n: int) -> tuple[Frame, str, float]:
    """A seeded random linear SEM with a binary treatment, and its true effect.

    Nodes v0..v{k-1} take a random order, and each pair in that order is an
    edge with probability 0.4, weighted by a random sign times a size in
    [0.3, 1].  The treatment and the outcome are two random nodes, the
    treatment first in the order; every other node is unobserved with
    probability 0.25.  Each node but the treatment is the weighted sum of
    its parents plus N(0, 1) noise.  The treatment is 1 where the weighted
    sum of its parents exceeds a standard logistic draw.  Every equation
    downstream of the treatment is linear, so setting it from 0 to 1 moves
    the outcome by the sum of path products, ``inv(I - B)[t, y]``.

    Returns the frame of the observed nodes (the treatment a binary
    column), the graph text (every edge, both roles, the unobserved nodes)
    and that true effect.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(k)
    B = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            if rng.uniform() < 0.4:
                B[order[i], order[j]] = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.0)
    ti, yi = sorted(rng.choice(k, 2, replace=False))
    t, y = int(order[ti]), int(order[yi])
    unobserved = [v for v in range(k) if v not in (t, y) and rng.uniform() < 0.25]
    values = np.zeros((k, n))
    for v in order:
        drive = B[:, v] @ values
        if v == t:
            values[v] = (rng.logistic(size=n) < drive).astype(float)
        else:
            values[v] = drive + rng.standard_normal(n)
    truth = float(np.linalg.inv(np.eye(k) - B)[t, y])
    lines = [f"v{a} -> v{b}" for a, b in zip(*np.nonzero(B))]
    lines += [f"@treatment v{t}", f"@outcome v{y}", *(f"@unobserved v{u}" for u in unobserved)]
    frame = Frame.from_dict({f"v{v}": values[v] for v in range(k) if v not in unobserved},
                            {f"v{t}": "binary"})
    return frame, "\n".join(lines) + "\n", truth


# -- CSV loading ----------------------------------------------------------------


def _infer_kind(cells: list[str]) -> str:
    present = [c for c in cells if c != ""]
    if not present:
        return "numeric"
    parsed = []
    for c in present:
        try:
            parsed.append(float(c))
        except ValueError:
            return "categorical"
    finite = [v for v in parsed if math.isfinite(v)]
    if finite and all(v in (0.0, 1.0) for v in finite):
        return "binary"
    return "numeric"


def _parse_cells(name: str, kind: str, cells: list[str]) -> Column:
    if kind == "categorical":
        return Column(name, "categorical", np.array(cells, dtype=object))
    values = np.empty(len(cells))
    for i, c in enumerate(cells):
        if c == "":
            values[i] = np.nan
            continue
        try:
            v = float(c)
        except ValueError:
            raise TypeConflictError(
                f"column {name!r} declared {kind} but cell {c!r} is not numeric"
            ) from None
        if not math.isfinite(v):
            values[i] = np.nan
            continue
        if kind == "binary" and v not in (0.0, 1.0):
            raise TypeConflictError(
                f"column {name!r} declared binary but cell {c!r} is not 0/1"
            )
        values[i] = v
    return Column(name, kind, values)


def load_csv_two_pass(path, schema=None) -> Frame:
    """Load a CSV file into a frame: the former library loader, verbatim,
    which infers a column's kind from its cells and then parses them again.

    Column kinds come from ``schema`` where given and are inferred otherwise:
    all-numeric columns become numeric, {0, 1} columns binary, anything else
    categorical.  Empty cells are missing.
    """
    if schema:
        for name, kind in schema.items():
            if kind not in KINDS:
                raise KindError(f"schema kind {kind!r} for column {name!r} is unknown")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise IoError(f"{path}: empty file, header row required")
    header, body = rows[0], rows[1:]
    for i, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise RaggedRowError(
                f"{path}: row {i} has {len(row)} fields, header has {len(header)}"
            )
    columns = []
    for j, name in enumerate(header):
        cells = [row[j] for row in body]
        kind = schema.get(name) if schema else None
        if kind is None:
            kind = _infer_kind(cells)
        columns.append(_parse_cells(name, kind, cells))
    return Frame(columns)


def load_csv_blocks(path) -> Frame:
    """Load a CSV file into a frame: the former library loader, which parses
    every block through ``csv.reader`` and one ``float()`` per cell,
    ``frame._BLOCK`` rows at a time.

    Column kinds are inferred: all-numeric columns become numeric, {0, 1}
    columns binary, anything else categorical.  Empty cells are missing, and
    so are non-finite numbers.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise IoError(f"{path}: empty file, header row required")
            # Parsed chunks per column; None once a cell does not parse.
            chunks = [[np.empty(0)] for _ in header]
            row_no = 2
            for block in _blocks(reader):
                for i, r in enumerate(block, start=row_no):
                    if len(r) != len(header):
                        raise RaggedRowError(
                            f"{path}: row {i} has {len(r)} fields, header has {len(header)}"
                        )
                row_no += len(block)
                for j, cells in enumerate(zip(*block)):
                    if chunks[j] is None:
                        continue
                    if "" in cells:
                        cells = [c or "nan" for c in cells]
                    try:
                        chunks[j].append(np.fromiter(map(float, cells), float, count=len(cells)))
                    except ValueError:
                        chunks[j] = None
            # Each column's parsed values, or None where its text is needed.
            values = []
            for j in range(len(chunks)):
                values.append(None if chunks[j] is None else np.concatenate(chunks[j]))
                chunks[j] = None
            texts = {j: [] for j, v in enumerate(values) if v is None}
            if texts:
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)
                for block in _blocks(reader):
                    for j, cells in texts.items():
                        cells.extend(r[j] for r in block)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: cannot parse as a UTF-8 CSV file: {exc}") from exc
    columns = []
    for j, (name, v) in enumerate(zip(header, values)):
        if v is not None:
            columns.append(Column(name, _kind_of(v), v))
        else:
            columns.append(Column(name, "categorical", np.array(texts.pop(j), dtype=object)))
    return Frame(columns)


def write_csv_rowwise(f: Frame, path) -> None:
    """Write a frame to CSV one row at a time: the former library writer,
    verbatim, which formats each cell on its own.

    Floats are written with shortest round-trip formatting so that
    ``load_csv(write_csv(f))`` reproduces values and missing-masks exactly.
    """
    def fmt(col: Column, i: int) -> str:
        if col.missing[i]:
            return ""
        if col.kind == "categorical":
            return str(col.values[i])
        if col.kind == "binary":
            return str(int(col.values[i]))
        return repr(float(col.values[i]))

    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(f.names)
            for i in range(f.n_rows):
                writer.writerow([fmt(c, i) for c in f.columns])
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_ite_csv_rowwise(ite, path) -> None:
    """``CateModel.write_ite_csv``'s former body, verbatim, with ``self.ite``
    passed in: one f-string per row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("row,ite\n")
        for i, v in enumerate(ite):
            fh.write(f"{i},{float(v)!r}\n")


def write_table_dictwriter(path, fields, rows) -> None:
    """``pipeline._write_table``'s former body, verbatim: ``csv.DictWriter``
    over the row dicts."""
    with open(path, "w", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fields, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


# -- numerics -------------------------------------------------------------------


def normal_equations_fit(X, y, w=None, ridge=1e-8):
    """OLS/ridge coefficients straight from the normal equations."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, k = X.shape
    w = np.ones(n) if w is None else np.asarray(w, dtype=float)
    design = np.column_stack([np.ones(n), X])
    penalty = ridge * np.diag([0.0] + [1.0] * k)
    lhs = design.T @ (design * w[:, None]) + penalty
    rhs = design.T @ (w * y)
    return np.linalg.pinv(lhs) @ rhs


def fit_linear_stacked(X, y, w=None, ridge=1e-8):
    """(intercept, coef) of the former ``fit_linear``, verbatim: the design
    ``[1, X]`` built by ``column_stack`` and scaled by ``sqrt(w)`` (ones when
    unweighted), the ridge rows joined by ``vstack``, then one ``lstsq``."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, k = X.shape
    w = np.ones(n) if w is None else np.asarray(w, dtype=float)
    sw = np.sqrt(w)
    design = np.column_stack([np.ones(n), X]) * sw[:, None]
    rhs = y * sw
    if ridge > 0 and k > 0:
        penalty = np.zeros((k, k + 1))
        penalty[:, 1:] = np.sqrt(ridge) * np.eye(k)
        design = np.vstack([design, penalty])
        rhs = np.concatenate([rhs, np.zeros(k)])
    beta, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    return float(beta[0]), beta[1:]


def logistic_loglik(X, y, intercept, coef):
    eta = intercept + np.asarray(X, dtype=float) @ np.asarray(coef, dtype=float)
    # log L = sum y*eta - log(1 + e^eta), computed stably
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def mse_loop(a, b):
    total = 0.0
    for x, t in zip(a, b):
        total += (x - t) ** 2
    return total / len(a)


def psm_match_bruteforce(e, tv):
    """Matched control row per treated row by scanning every control.

    The smallest computed distance is found first; the match is then the
    lowest row index among the controls at that distance.
    """
    e = np.asarray(e, dtype=float).tolist()
    tv = np.asarray(tv, dtype=float).tolist()
    controls = [j for j, w in enumerate(tv) if w == 0.0]
    matched = []
    for i, w in enumerate(tv):
        if w != 1.0:
            continue
        dist = {j: abs(e[i] - e[j]) for j in controls}
        best = min(dist.values())
        matched.append(min(j for j, d in dist.items() if d == best))
    return np.array(matched, dtype=np.int64)


def psm_match_chunked(e, tv):
    """Matched control row per treated row from a chunked |e_t - e_c| matrix.

    This is the former library matcher: ``argmin`` over all controls, which
    returns the first (lowest-row) control among equal distances.
    """
    e = np.asarray(e, dtype=float)
    tv = np.asarray(tv, dtype=float)
    treated = np.flatnonzero(tv == 1.0)
    control = np.flatnonzero(tv == 0.0)
    e_c = e[control]
    matched = np.empty(len(treated), dtype=np.int64)
    for start in range(0, len(treated), 256):
        block = treated[start : start + 256]
        d = np.abs(e[block][:, None] - e_c[None, :])
        matched[start : start + len(block)] = control[np.argmin(d, axis=1)]
    return matched


# -- gbt ----------------------------------------------------------------------


def grow_tree_per_feature(
    X: np.ndarray,
    target: np.ndarray,
    w: np.ndarray,
    max_depth: int,
    orders: list[np.ndarray],
    leaf_penalty: float = 0.0,
    min_leaf: int = 1,
) -> _Tree:
    """Exact greedy penalized-squared-error tree, one split search per feature.

    This is the former library grower, kept verbatim: ``X`` is (n, p),
    ``orders`` a list of per-feature sort orders, and ``build`` recurses.

    Splits are searched at midpoints of sorted unique feature values.  Leaf
    values minimize sum w (r - v)^2 + leaf_penalty * v^2, i.e. they are
    shrunken weighted means; the split gain uses the same penalized
    objective.  Both children must hold at least ``min_leaf`` samples.

    The per-feature sort orders are partitioned down the tree (never
    re-sorted), so growing a node costs O(rows-in-node * features).
    """
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    wt = w * target
    lam = leaf_penalty
    scratch = np.zeros(X.shape[0], dtype=bool)

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    def build(node_orders: list[np.ndarray], depth: int) -> int:
        node = new_node()
        rows = node_orders[0] if node_orders else np.arange(X.shape[0])
        n_node = rows.size
        wsum = float(w[rows].sum())
        wysum = float(wt[rows].sum())
        value[node] = wysum / (wsum + lam)
        mean = wysum / wsum
        sse = float((w[rows] * (target[rows] - mean) ** 2).sum())
        if depth >= max_depth or n_node < 2 * min_leaf or sse <= 0.0:
            return node

        best_gain = 0.0
        best_feat = -1
        best_thr = 0.0
        parent_score = wysum**2 / (wsum + lam)
        counts = np.arange(1, n_node)
        for j, idx in enumerate(node_orders):
            v = X[idx, j]
            cw = np.cumsum(w[idx])[:-1]
            cwy = np.cumsum(wt[idx])[:-1]
            rw = wsum - cw
            valid = (v[:-1] < v[1:]) & (cw > 0) & (rw > 0)
            if min_leaf > 1:
                valid &= (counts >= min_leaf) & (n_node - counts >= min_leaf)
            if not valid.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = cwy**2 / (cw + lam) + (wysum - cwy) ** 2 / (rw + lam) - parent_score
            gain = np.where(valid, gain, -np.inf)
            i = int(np.argmax(gain))
            if gain[i] > best_gain:
                best_gain = float(gain[i])
                best_feat = j
                best_thr = float((v[i] + v[i + 1]) / 2.0)

        if best_feat < 0 or best_gain <= _SPLIT_TOL * sse:
            return node

        scratch[rows] = X[rows, best_feat] <= best_thr
        left_orders = [idx[scratch[idx]] for idx in node_orders]
        right_orders = [idx[~scratch[idx]] for idx in node_orders]
        feature[node] = best_feat
        threshold[node] = best_thr
        left[node] = build(left_orders, depth + 1)
        right[node] = build(right_orders, depth + 1)
        return node

    build(list(orders), 0)
    return _Tree(feature, threshold, left, right, value)


def tree_predict_levelwise(tree: _Tree, X: np.ndarray) -> np.ndarray:
    """Leaf value of every row of ``X``, walked level by level with masks.

    This is the former ``_Tree.predict``, kept verbatim: it masks out the
    rows already at a leaf at every level, reads ``left`` and ``right``
    only for internal nodes, and stops when no row is at an internal node.
    """
    self = tree
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


def sigmoid_two_branch(eta: np.ndarray) -> np.ndarray:
    """The logistic function as two masked branches, one ``exp`` each."""
    eta = np.clip(eta, -35.0, 35.0)
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ex = np.exp(eta[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# -- refutation ------------------------------------------------------------------


def simulate_confounder_all_rows(rng, tv: np.ndarray, strength_t: float, base_p: float) -> np.ndarray:
    """The confounder sampler that evaluates every row in every round.

    This is the former library sampler: each round computes the acceptance
    probability of all ``n`` rows and masks out those already accepted.
    """
    n = tv.shape[0]
    logit_base = math.log(base_p / (1.0 - base_p))
    u = np.zeros(n)
    pending = np.ones(n, dtype=bool)
    for _ in range(64):
        proposal = rng.standard_normal(n)
        u[pending] = proposal[pending]
        p_treat = _sigmoid(logit_base + strength_t * proposal)
        accept_p = np.where(tv == 1.0, p_treat, 1.0 - p_treat)
        pending &= ~(rng.uniform(size=n) < accept_p)
        if not pending.any():
            break
    return u


def fresh_propensity_task(method: str, spec, z: tuple[str, ...]) -> EstimationTask:
    """The refuted task of ``method`` (psm, ipw or stratification) with nothing kept.

    Every run fits a propensity model on its own frame, then scores and
    matches through a copy of that model which holds no frame, so no kept
    fit, score or matching can answer any run.
    """
    t, y = spec.treatment, spec.outcome

    def run(frame: Frame, adjustment: tuple[str, ...]) -> float:
        fit = fit_propensity(frame, t, adjustment, clip=spec.propensity_clip)
        pm = PropensityModel(fit.model, fit.adjustment, fit.clip)
        if method == "psm":
            return psm_att(frame, t, y, pm).value
        if method == "ipw":
            return ipw_ate(frame, t, y, pm).value
        return stratified_ate(frame, t, y, pm, k=spec.strata).value

    return EstimationTask(estimate=run, treatment=t, outcome=y, adjustment=tuple(z))
