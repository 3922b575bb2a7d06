"""From-scratch binary classifiers: Gaussian NB, KNN, random forest and
L2-regularized logistic regression.

All four share fit(spec, X, y) / predict(model, X) with deterministic
behaviour for a fixed seed.  KNN and LR standardize features internally
(sample std, stored in the model); NB and RF consume raw features.  Tie
conventions all resolve to class 0.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
from array import array
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ValidationError

logger = logging.getLogger(__name__)

KINDS = ("NB", "KNN", "RF", "LR")

MODEL_FORMAT_VERSION = 3


@dataclass(frozen=True)
class ModelSpec:
    """Classifier kind plus hyperparameters (unused groups are ignored)."""

    kind: str
    seed: int = 0
    # NB
    var_smoothing: float = 1e-9
    # KNN
    k: int = 5
    # RF
    n_trees: int = 100
    max_features: int | None = None  # None -> ceil(sqrt(d))
    min_samples_split: int = 2
    bootstrap: bool = True
    # LR
    l2_lambda: float = 1.0
    max_iters: int = 1000  # safety cap on Newton steps

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown classifier kind {self.kind!r}")
        # Types first, so that a config value such as "5" is named here
        # instead of failing in a comparison below or deep inside a fit.
        for name in ("k", "n_trees", "min_samples_split", "max_iters", "max_features"):
            value = getattr(self, name)
            if name == "max_features" and value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        for name in ("var_smoothing", "l2_lambda"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValidationError(f"{name} must be a real number, got {value!r}")
        if not isinstance(self.bootstrap, bool):
            raise ValidationError(
                f"bootstrap must be true or false, got {self.bootstrap!r}")
        if self.k < 1:
            raise ValidationError("k must be >= 1")
        if self.n_trees < 1:
            raise ValidationError("n_trees must be >= 1")
        if self.max_features is not None and self.max_features < 1:
            raise ValidationError("max_features must be >= 1")
        # lambda > 0 makes the LR objective strictly convex, so every fit
        # has one finite optimum, even on separable data.
        if not self.l2_lambda > 0:
            raise ValidationError("l2_lambda must be > 0")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        if self.var_smoothing < 0:
            raise ValidationError("var_smoothing must be >= 0")


def _validate_training_input(X, y):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2:
        raise ValidationError("X must be a 2-D matrix")
    if len(y) != len(X):
        raise ValidationError("X and y lengths differ")
    bad = np.argwhere(~np.isfinite(X))
    if len(bad):
        r, c = bad[0]
        raise ValidationError(f"non-finite value at row {r}, column {c}")
    classes = np.unique(y)
    if not np.array_equal(classes, [0, 1]):
        raise ValidationError(
            f"need both classes 0 and 1 in y (got {classes.tolist()})")
    return X, y


def _validate_predict_input(X, width):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != width:
        raise ValidationError(
            f"query width {X.shape} does not match training width {width}")
    if not np.isfinite(X).all():
        r, c = np.argwhere(~np.isfinite(X))[0]
        raise ValidationError(f"non-finite query value at row {r}, column {c}")
    return X


def _standardize_fit(X):
    """Per-column mean and sample std; constant columns get std 1 so they
    map to zeros instead of dividing by zero."""
    mu = X.mean(axis=0)
    sigma = X.std(axis=0, ddof=1) if len(X) > 1 else np.zeros(X.shape[1])
    sigma = np.where(sigma == 0.0, 1.0, sigma)
    return mu, sigma


# --- Gaussian Naive Bayes ---------------------------------------------------

@dataclass
class NBModel:
    spec: ModelSpec
    log_priors: np.ndarray   # (2,)
    means: np.ndarray        # (2, d)
    variances: np.ndarray    # (2, d), smoothing floor already added

    def joint_log_likelihood(self, X) -> np.ndarray:
        X = _validate_predict_input(X, self.means.shape[1])
        scores = np.empty((len(X), 2))
        for cls in (0, 1):
            var = self.variances[cls]
            scores[:, cls] = self.log_priors[cls] - 0.5 * np.sum(
                np.log(2 * np.pi * var) + (X - self.means[cls]) ** 2 / var,
                axis=1)
        return scores

    def predict_proba(self, X) -> np.ndarray:
        scores = self.joint_log_likelihood(X)
        shifted = scores - scores.max(axis=1, keepdims=True)
        expd = np.exp(shifted)
        return expd / expd.sum(axis=1, keepdims=True)

    def predict(self, X) -> np.ndarray:
        scores = self.joint_log_likelihood(X)
        return (scores[:, 1] > scores[:, 0]).astype(np.int64)  # tie -> 0


def _fit_nb(spec: ModelSpec, X, y) -> NBModel:
    priors = np.array([(y == 0).mean(), (y == 1).mean()])
    pooled_var = X.var(axis=0)
    max_var = float(pooled_var.max()) if X.size else 0.0
    eps = spec.var_smoothing * max_var if max_var > 0 else spec.var_smoothing
    means = np.vstack([X[y == cls].mean(axis=0) for cls in (0, 1)])
    variances = np.vstack([X[y == cls].var(axis=0) + eps for cls in (0, 1)])
    return NBModel(spec, np.log(priors), means, variances)


# --- K nearest neighbours ---------------------------------------------------

_KNN_BLOCK_BYTES = 1 << 20  # query × training Gram block in predict

@dataclass
class KNNModel:
    spec: ModelSpec
    mu: np.ndarray
    sigma: np.ndarray
    train_x: np.ndarray  # standardized
    train_y: np.ndarray

    def predict(self, X) -> np.ndarray:
        """Majority vote of the k training rows nearest by squared distance
        ``((q - x) ** 2).sum()``; equal distances go to the lower training
        index and a tied vote to class 0.

        Candidates come from the Gram form ``|q|^2 - 2 q.x + |x|^2``, one
        block of queries at a time.  Its rounding error against the exact
        distance is below ``tol = 16 (d + 2) eps (|q|^2 + max |x|^2)``, so
        every row that can be among the k nearest lies within ``2 tol`` of
        the k-th smallest Gram value; the exact distances of those rows
        then decide.
        """
        X = _validate_predict_input(X, self.train_x.shape[1])
        Xs = (X - self.mu) / self.sigma
        train = self.train_x
        n, d = train.shape
        k = min(self.spec.k, n)
        sq_train = (train ** 2).sum(axis=1)
        slack = 16 * (d + 2) * np.finfo(np.float64).eps
        sq_max = sq_train.max()
        out = np.empty(len(Xs), dtype=np.int64)
        step = max(1, _KNN_BLOCK_BYTES // (8 * n))
        for start in range(0, len(Xs), step):
            chunk = Xs[start:start + step]
            sq = (chunk ** 2).sum(axis=1)
            with np.errstate(over="ignore", invalid="ignore"):
                gram = chunk @ train.T
                gram *= -2.0
                gram += sq[:, None]
                gram += sq_train
                kth = np.partition(gram, k - 1, axis=1)[:, k - 1]
                limit = kth + 2 * slack * (sq + sq_max)
            candidate = gram <= limit[:, None]
            # An overflowing query: every row is a candidate.
            candidate[~np.isfinite(limit)] = True
            rows, cols = np.nonzero(candidate)
            exact = ((chunk[rows] - train[cols]) ** 2).sum(axis=1)
            # Stable: equal distances keep the lower training index first.
            order = np.lexsort((exact, rows))
            rank = np.arange(len(rows)) - np.searchsorted(rows, rows)
            nearest = order[rank < k]
            votes = np.bincount(rows[nearest], weights=self.train_y[cols[nearest]],
                                minlength=len(chunk))
            out[start:start + step] = votes * 2 > k  # tie -> 0
        return out


def _fit_knn(spec: ModelSpec, X, y) -> KNNModel:
    mu, sigma = _standardize_fit(X)
    return KNNModel(spec, mu, sigma, (X - mu) / sigma, y.copy())


# --- Logistic regression ----------------------------------------------------

def lr_loss_and_grad(w, b, X, y, l2_lambda):
    """Mean regularized log-loss and its analytic gradient.

    loss = mean(log(1 + exp(-margin))) + l2_lambda/(2n) * ||w||^2, bias
    unpenalized.  Used by both the trainer and the finite-difference check.
    """
    n = len(X)
    z = X @ w + b
    # log(1 + exp(-t)) evaluated stably for both signs of t.
    margins = np.where(y == 1, z, -z)
    loss = float(np.mean(np.logaddexp(0.0, -margins)))
    loss += l2_lambda / (2 * n) * float(w @ w)
    p = _sigmoid(z)
    residual = p - y
    grad_w = X.T @ residual / n + (l2_lambda / n) * w
    grad_b = float(residual.mean())
    return loss, grad_w, grad_b


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class LRModel:
    spec: ModelSpec
    mu: np.ndarray
    sigma: np.ndarray
    weights: np.ndarray
    bias: float
    n_iters: int = 0            # Newton steps taken
    grad_norm: float = math.nan  # norm of the final gradient (w and b)

    def decision_function(self, X) -> np.ndarray:
        X = _validate_predict_input(X, len(self.weights))
        return ((X - self.mu) / self.sigma) @ self.weights + self.bias

    def predict_proba(self, X) -> np.ndarray:
        return _sigmoid(self.decision_function(X))

    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(np.int64)


# Newton stops once the norm of the full gradient (w and b) is at most this.
LR_GRAD_TOL = 1e-12
_ARMIJO_C = 1e-4
_MAX_HALVINGS = 50
# Loss changes this small relative to the loss are rounding, not progress.
_LOSS_ROUNDING = 64 * np.finfo(np.float64).eps


def _fit_lr(spec: ModelSpec, X, y) -> LRModel:
    """Minimize ``lr_loss_and_grad``'s objective by Newton's method (IRLS)
    with a backtracking line search.

    Each step solves ``H s = -g`` for the Hessian ``H = [Xs 1]' D [Xs 1] / n
    + diag(lambda/n, ..., lambda/n, 0)``, ``D = diag(p (1 - p))``, which is
    positive definite for lambda > 0, then halves ``t`` from 1 until the
    loss falls by the Armijo fraction of ``t g's``.  Where the change in
    loss is within rounding of the loss itself, a step that shrinks the
    gradient norm is taken instead.  The fit starts from zero and stops at
    a gradient norm of at most ``LR_GRAD_TOL``, after ``spec.max_iters``
    steps, or when no step size makes progress.
    """
    mu, sigma = _standardize_fit(X)
    Xs = (X - mu) / sigma
    n, d = Xs.shape
    design = np.hstack([Xs, np.ones((n, 1))])
    ridge = np.full(d + 1, spec.l2_lambda / n)
    ridge[d] = 0.0  # bias unpenalized

    def evaluate(theta):
        loss, grad_w, grad_b = lr_loss_and_grad(theta[:d], theta[d], Xs, y,
                                                spec.l2_lambda)
        grad = np.append(grad_w, grad_b)
        return loss, grad, float(np.linalg.norm(grad))

    theta = np.zeros(d + 1)
    loss, grad, grad_norm = evaluate(theta)
    iters = 0
    while grad_norm > LR_GRAD_TOL and iters < spec.max_iters:
        # p (1 - p) from exp(-|z|), without cancellation at large |z|.
        e = np.exp(-np.abs(design @ theta))
        hessian = (design.T * (e / (1.0 + e) ** 2)) @ design / n
        hessian[np.diag_indices(d + 1)] += ridge
        step = np.linalg.solve(hessian, -grad)
        slope = float(grad @ step)
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = theta + t * step
            trial_loss, trial_grad, trial_norm = evaluate(trial)
            if trial_loss <= loss + _ARMIJO_C * t * slope:
                break
            if (abs(trial_loss - loss) <= _LOSS_ROUNDING * loss
                    and trial_norm < grad_norm):
                break
            t /= 2.0
        else:
            break  # no step size makes progress: rounding limits the fit
        theta, loss, grad, grad_norm = trial, trial_loss, trial_grad, trial_norm
        iters += 1
    return LRModel(spec, mu, sigma, theta[:d].copy(), float(theta[d]), iters,
                   grad_norm)


def log_lr_fit(model: LRModel, what: str) -> None:
    """Log an LR fit's Newton steps and final gradient norm, as a warning
    when the fit stopped short of ``LR_GRAD_TOL``."""
    if model.grad_norm <= LR_GRAD_TOL:
        logger.info("%s: LR converged in %d iterations (gradient norm %.3g)",
                    what, model.n_iters, model.grad_norm)
    else:
        logger.warning("%s: LR stopped after %d iterations (max_iters %d) "
                       "with gradient norm %.3g above %g", what,
                       model.n_iters, model.spec.max_iters, model.grad_norm,
                       LR_GRAD_TOL)


# --- Random forest ----------------------------------------------------------

_RF_PAIRS_PER_STEP = 1 << 20  # (tree, row) pairs routed together in predict
_RF_SEARCH_ELEMENTS = 1 << 13  # (sample, column) pairs per batched split search


@dataclass
class RFModel:
    """A forest stored as one node table.

    Node ``i`` is a leaf when ``feature[i] == -1``; otherwise a row goes to
    ``left[i]`` when ``row[feature[i]] <= threshold[i]`` and to ``right[i]``
    when not.  ``counts[i]`` holds the class-0 and class-1 training samples
    that reached node ``i``.  Trees follow one another in the table; each
    starts at ``roots[t]`` and numbers its nodes in preorder (node, left
    subtree, right subtree).  Leaves carry threshold 0.0 and children -1.
    """

    spec: ModelSpec
    n_features: int
    feature: np.ndarray    # (n_nodes,) int64
    threshold: np.ndarray  # (n_nodes,) float64
    left: np.ndarray       # (n_nodes,) int64
    right: np.ndarray      # (n_nodes,) int64
    counts: np.ndarray     # (n_nodes, 2) int64
    roots: np.ndarray      # (n_trees,) int64

    def predict(self, X) -> np.ndarray:
        X = _validate_predict_input(X, self.n_features)
        n_trees = len(self.roots)
        leaf_class = self.counts[:, 1] > self.counts[:, 0]  # tie -> 0
        votes = np.empty(len(X), dtype=np.int64)
        step = max(1, _RF_PAIRS_PER_STEP // n_trees)  # bounds the index arrays
        for start in range(0, len(X), step):
            leaves = self._leaves(X[start:start + step])
            votes[start:start + step] = leaf_class[leaves].sum(axis=0)
        return (votes * 2 > n_trees).astype(np.int64)  # tie -> 0

    def _leaves(self, X) -> np.ndarray:
        """(n_trees, len(X)) index of the leaf each row reaches in each tree."""
        n = len(X)
        # Every (tree, row) pair moves down one level per step.
        node = np.repeat(self.roots, n)
        row = np.tile(np.arange(n), len(self.roots))
        live = np.flatnonzero(self.feature[node] >= 0)
        while len(live):
            cur = node[live]
            go_left = X[row[live], self.feature[cur]] <= self.threshold[cur]
            cur = np.where(go_left, self.left[cur], self.right[cur])
            node[live] = cur
            live = live[self.feature[cur] >= 0]
        return node.reshape(len(self.roots), n)


def _best_splits(keys, levels, rows, sizes, columns, ones):
    """Lowest weighted Gini split of every node of a batch.

    Node ``i`` owns the next ``sizes[i]`` entries of ``rows`` (training rows,
    repeats allowed), holds ``ones[i]`` class-1 samples and examines the
    columns ``columns[i]`` in order.  ``keys[r, c]`` is twice the position
    of ``X[r, c]`` in ``levels`` (the sorted distinct values of every
    column, one column after another) plus the label of row ``r``.

    Returns per node (feature, threshold, cut, ones left of the cut): the
    ``cut`` samples with value <= threshold go left.  Ties keep the first
    boundary within a column and then the first column in ``columns``
    order.  A node whose examined columns are all constant gets feature -1,
    threshold -inf and cut 0.
    """
    n_nodes, m = columns.shape
    n_levels = len(levels)
    # One segment per (node, column), node-major.  Tagging each key with
    # its segment lets one sort order every segment by value.  Keys stay
    # below 2 * len(rows) * m * n_levels: within int64 up to about 10^7
    # training rows of 100 features.
    seg_len = np.repeat(sizes, m)
    seg_end = np.cumsum(seg_len)
    seg_start = seg_end - seg_len
    node_start = np.repeat(np.cumsum(sizes) - sizes, m)
    at_row = np.arange(seg_end[-1]) + np.repeat(node_start - seg_start, seg_len)
    key = keys[rows[at_row], np.repeat(columns.ravel(), seg_len)]
    key += np.repeat(np.arange(len(seg_len)) * (2 * n_levels), seg_len)
    key.sort()
    label = key & 1
    value = key >> 1  # segment * n_levels + position in levels
    ones_upto = np.cumsum(label)
    # Candidate cuts fall after a sample whose successor in the same
    # segment has a greater value.
    is_cut = value[1:] != value[:-1]
    is_cut[seg_end[:-1] - 1] = False
    last = np.flatnonzero(is_cut)
    seg = value[last] // n_levels
    start = seg_start[seg]
    # The Gini arithmetic of the recursive grower, elementwise.
    n = seg_len[seg]
    n_left = last - start + 1
    n_right = n - n_left
    ones_left = ones_upto[last] - (ones_upto[start] - label[start])
    ones_right = np.repeat(ones, m)[seg] - ones_left
    p1l = ones_left / n_left
    p1r = ones_right / n_right
    gini_l = 1.0 - p1l ** 2 - (1.0 - p1l) ** 2
    gini_r = 1.0 - p1r ** 2 - (1.0 - p1r) ** 2
    weighted = (n_left * gini_l + n_right * gini_r) / n
    # First occurrence of each node's minimum; candidates come in node order.
    node = seg // m
    first = np.searchsorted(node, np.arange(n_nodes))
    count = np.searchsorted(node, np.arange(n_nodes), side="right") - first
    found = count > 0
    first = first[found]
    best = np.minimum.reduceat(weighted, first)
    hits = np.flatnonzero(weighted == np.repeat(best, count[found]))
    at = hits[np.searchsorted(hits, first)]
    feature = np.full(n_nodes, -1)
    feature[found] = columns[found, seg[at] % m]
    below = levels[value[last[at]] % n_levels]
    above = levels[value[last[at] + 1] % n_levels]
    with np.errstate(over="ignore"):
        midpoint = (below + above) / 2.0
    # A midpoint that rounded onto ``above`` (adjacent floats) or overflowed
    # cuts at ``below`` instead, so that both children are non-empty.
    threshold = np.full(n_nodes, -np.inf)
    threshold[found] = np.where((below <= midpoint) & (midpoint < above),
                                midpoint, below)
    cut = np.zeros(n_nodes, dtype=np.int64)
    cut[found] = n_left[at]
    left_ones = np.zeros(n_nodes, dtype=np.int64)
    left_ones[found] = ones_left[at]
    return feature, threshold, cut, left_ones


class _TreeGrowth:
    """One tree of a forest being grown: its index, its rng, its stack of
    pending nodes (rows, zeros, ones, offset of the parent's record if a
    right child else -1) and its node count so far."""

    __slots__ = ("t", "rng", "stack", "size")

    def __init__(self, t, rng, rows, y):
        self.t, self.rng, self.size = t, rng, 0
        ones = int(y[rows].sum())
        self.stack = [(rows, len(rows) - ones, ones, -1)]

    def pop_splittable(self, records, min_samples_split):
        """Record popped nodes until one is worth a split search; return
        (tree, record offset, node, rows, ones) for it, or None once the
        stack is empty."""
        stack = self.stack
        while stack:
            rows, zeros, ones, parent = stack.pop()
            if parent >= 0:
                records[parent + 4] = self.size
            at = len(records)
            records.extend((self.t, -1, 0.0, -1, -1, zeros, ones))
            self.size += 1
            if zeros and ones and zeros + ones >= min_samples_split:
                return self, at, self.size - 1, rows, ones
        return None


def _fit_rf(spec: ModelSpec, X, y) -> RFModel:
    """Grow every tree at once.  Each step pops the next splittable node of
    every unfinished tree, in that tree's preorder, and draws its
    ``rng.permutation`` as a tree grown alone would; the nodes' split
    searches then run in batches of at most ``_RF_SEARCH_ELEMENTS``
    (sample, column) pairs, a lone node above that in a batch of its own.
    """
    n, d = X.shape
    max_features = spec.max_features or math.ceil(math.sqrt(d))
    max_features = min(max_features, d)
    levels, keys = [], np.empty((n, d), dtype=np.int64)
    for c in range(d):
        distinct, rank = np.unique(X[:, c], return_inverse=True)
        keys[:, c] = (rank + sum(map(len, levels))) * 2 + y
        levels.append(distinct)
    levels = np.concatenate(levels)
    # One record per node, in the order nodes pop: tree, feature,
    # threshold, left, right (node numbers local to the tree), zeros, ones.
    # Every value is exact in float64.
    records = array("d")
    growing = []
    for t in range(spec.n_trees):
        rng = np.random.default_rng([spec.seed, t])
        rows = rng.integers(0, n, n) if spec.bootstrap else np.arange(n)
        growing.append(_TreeGrowth(t, rng, rows, y))
    while growing:
        popped = [tree.pop_splittable(records, spec.min_samples_split)
                  for tree in growing]
        popped = [item for item in popped if item is not None]
        growing = [item[0] for item in popped]
        batch, elements = [], 0
        for item in popped:
            size = len(item[3]) * max_features
            if batch and elements + size > _RF_SEARCH_ELEMENTS:
                _split_batch(batch, X, keys, levels, records, max_features)
                batch, elements = [], 0
            batch.append(item + (item[0].rng.permutation(d),))
            elements += size
        if batch:
            _split_batch(batch, X, keys, levels, records, max_features)
    # Each tree's records popped in its preorder: a stable sort by tree
    # gives the per-tree tables one after another.
    table = np.frombuffer(records).reshape(-1, 7)
    table = table[np.argsort(table[:, 0], kind="stable")]
    del records
    tree, feature, left, right, counts = (
        table[:, cols].astype(np.int64) for cols in (0, 1, 3, 4, slice(5, 7)))
    roots = np.searchsorted(tree, np.arange(spec.n_trees))
    offset = roots[tree]
    left = np.where(left >= 0, left + offset, -1)
    right = np.where(right >= 0, right + offset, -1)
    return RFModel(spec, d, feature, table[:, 2].copy(), left, right, counts,
                   roots)


def _split_batch(batch, X, keys, levels, records, max_features) -> None:
    """Search and apply the splits of ``batch``, a list of (tree, record
    offset, node, rows, ones, permuted columns) from distinct trees."""
    rows = np.concatenate([item[3] for item in batch])
    sizes = np.array([len(item[3]) for item in batch])
    ones = np.array([item[4] for item in batch])
    permuted = np.array([item[5] for item in batch])
    feature, threshold, cut, ones_left = _best_splits(
        keys, levels, rows, sizes, permuted[:, :max_features], ones)
    # Scan past the examined subset, one column at a time, only while no
    # examined column admits a split.
    for i in np.flatnonzero(feature < 0):
        for j in range(max_features, permuted.shape[1]):
            split = _best_splits(keys, levels, batch[i][3], sizes[i:i + 1],
                                 permuted[i:i + 1, j:j + 1], ones[i:i + 1])
            if split[0][0] >= 0:
                feature[i], threshold[i], cut[i], ones_left[i] = (
                    part[0] for part in split)
                break
    # An unsplit node's threshold is -inf: all of its rows go right.
    go_left = X[rows, np.repeat(feature, sizes)] <= np.repeat(threshold, sizes)
    left_rows, right_rows = rows[go_left], rows[~go_left]
    lo = ro = 0
    for (tree, at, node, _, node_ones, _), f, th, size, n_left, ones_l in zip(
            batch, feature.tolist(), threshold.tolist(), sizes.tolist(),
            cut.tolist(), ones_left.tolist()):
        n_right, ones_r = size - n_left, node_ones - ones_l
        if f >= 0:
            records[at + 1], records[at + 2], records[at + 3] = f, th, node + 1
            # The left child pops next.  The right child waits for the
            # whole left subtree: copy its rows so that they do not keep
            # this batch's arrays alive.
            tree.stack.append((right_rows[ro:ro + n_right].copy(),
                               n_right - ones_r, ones_r, at))
            tree.stack.append((left_rows[lo:lo + n_left],
                               n_left - ones_l, ones_l, -1))
        lo += n_left
        ro += n_right


# --- Uniform interface ------------------------------------------------------

Model = NBModel | KNNModel | LRModel | RFModel

_MODEL_CLASSES = {"NB": NBModel, "KNN": KNNModel, "LR": LRModel, "RF": RFModel}

_FITTERS = {"NB": _fit_nb, "KNN": _fit_knn, "LR": _fit_lr, "RF": _fit_rf}


def fit(spec: ModelSpec, X, y) -> Model:
    """Train a classifier; X rows are flows, y is the binary attack label."""
    X, y = _validate_training_input(X, y)
    return _FITTERS[spec.kind](spec, X, y)


def predict(model: Model, X) -> np.ndarray:
    return model.predict(X)


# --- Serialization ----------------------------------------------------------

def save_model(model: Model, path) -> None:
    """Versioned JSON dump; floats round-trip exactly via repr.  The state
    holds every model field after ``spec``, in field order, with arrays as
    (nested) lists."""
    if not isinstance(model, Model):
        raise ValidationError(f"cannot serialize {type(model).__name__}")
    state = {}
    for f in fields(model)[1:]:
        value = getattr(model, f.name)
        state[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    spec = asdict(model.spec)
    # A fitting cap, not a property of the model: a converged fit is the
    # same under any cap it stays below.
    del spec["max_iters"]
    doc = {"format_version": MODEL_FORMAT_VERSION,
           "kind": model.spec.kind,
           "spec": spec,
           "state": state}
    with open(path, "w", encoding="utf-8") as fh:
        _write_json(fh, doc)


def _write_json(fh, obj) -> None:
    """Write the bytes of ``json.dumps(obj)``, encoding one dict value at a
    time.  The C encoder is several times faster than ``json.dump``, but it
    can hold every token of a call as its own string (Python 3.11 does), a
    few MB for a whole forest; one node-table column at a time holds less.
    """
    if not isinstance(obj, dict):
        fh.write(json.dumps(obj))
        return
    fh.write("{")
    for i, (key, value) in enumerate(obj.items()):
        fh.write((", " if i else "") + json.dumps(key) + ": ")
        _write_json(fh, value)
    fh.write("}")


def load_model(path) -> Model:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValidationError(f"unsupported model format version {version!r}")
    spec = ModelSpec(**doc["spec"])
    cls = _MODEL_CLASSES[spec.kind]
    names = [f.name for f in fields(cls)[1:]]
    state = doc["state"]
    if not isinstance(state, dict):
        raise ValidationError("model state must be an object")
    missing = [key for key in names if key not in state]
    unknown = [key for key in state if key not in names]
    if missing or unknown:
        raise ValidationError(f"{spec.kind} model state: missing key(s) {missing}, "
                              f"unknown key(s) {unknown}")
    return cls(spec, **{key: np.asarray(value) if isinstance(value, list) else value
                        for key, value in state.items()})
