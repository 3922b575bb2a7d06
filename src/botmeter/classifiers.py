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
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ValidationError

logger = logging.getLogger(__name__)

KINDS = ("NB", "KNN", "RF", "LR")

MODEL_FORMAT_VERSION = 5


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
        if self.min_samples_split < 2:
            raise ValidationError("min_samples_split must be >= 2")
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
    y = np.asarray(y)
    if X.ndim != 2:
        raise ValidationError("X must be a 2-D matrix")
    if X.shape[1] == 0:
        raise ValidationError("X has no feature columns")
    if len(y) != len(X):
        raise ValidationError("X and y lengths differ")
    bad = np.argwhere(~np.isfinite(X))
    if len(bad):
        r, c = bad[0]
        raise ValidationError(f"non-finite value at row {r}, column {c}")
    # The labels as given, before the int cast: 0.5 is not class 0.
    zero, one = y == 0, y == 1
    if not ((zero | one).all() and zero.any() and one.any()):
        # Only here: np.unique imports numpy.ma (about 1.3 MB).
        raise ValidationError(
            f"need both classes 0 and 1 in y (got {np.unique(y).tolist()})")
    return X, y.astype(np.int64, copy=False)


def _validate_predict_input(X, width):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != width:
        raise ValidationError(
            f"query width {X.shape} does not match training width {width}")
    if not np.isfinite(X).all():
        r, c = np.argwhere(~np.isfinite(X))[0]
        raise ValidationError(f"non-finite query value at row {r}, column {c}")
    return X


def constant_columns(X) -> np.ndarray:
    """Which columns of a matrix with rows hold one value only (max == min).
    A sample std can come out a rounding error above 0 for such a column,
    so it is not the test."""
    return X.max(axis=0) == X.min(axis=0)


def _standardize_fit(X):
    """Per-column mean and sample std.  A constant column gets its value as
    mean and std 1, so it standardizes to exact zeros."""
    constant = constant_columns(X)
    mu = np.where(constant, X[0], X.mean(axis=0))
    sigma = X.std(axis=0, ddof=1)
    # Values less than about 1e-154 apart have squared deviations that
    # underflow, so such a column's std can be 0; it is left unscaled.
    sigma = np.where(constant | (sigma == 0.0), 1.0, sigma)
    return mu, sigma


# --- Random numbers -----------------------------------------------------------

# The purpose of a draw: the second key of each counter_hash call.
SPLIT, BOOTSTRAP, PERMUTATION = range(3)


def counter_hash(*keys) -> np.ndarray:
    """Uniform 64-bit words from integer keys, broadcast together: from 0,
    each key in turn is XORed in and mixed by one SplitMix64 round (Steele,
    Lea & Flood, OOPSLA 2014).  A round is a bijection, so distinct last
    keys give distinct words.  Python ints are taken modulo 2**64; a key
    that is not an integer is a ValidationError."""
    h = np.uint64(0)
    with np.errstate(over="ignore"):  # 0-d uint64 arithmetic warns on wraparound
        for key in keys:
            key = np.asarray(key % 2**64 if isinstance(key, int) else key)
            if key.dtype.kind not in "iu":  # a seed of another type
                raise ValidationError(f"random keys must be integers, got {key.dtype}")
            h = _hash_round(h, key.astype(np.uint64))
    return h


def _hash_round(h, key):
    """One SplitMix64 round of ``counter_hash``: the uint64 ``key`` XORed
    into the uint64 words ``h``, broadcast, and mixed.  The XOR makes a new
    array, which the rest of the round mixes in place."""
    z = h ^ key
    z += np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> 30
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> 27
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> 31
    return z


# --- Gaussian Naive Bayes ---------------------------------------------------

@dataclass
class NBModel:
    spec: ModelSpec
    log_priors: np.ndarray   # (2,)
    means: np.ndarray        # (2, d)
    variances: np.ndarray    # (2, d), smoothing floor already added

    def predict(self, X) -> np.ndarray:
        """The class of greater joint log-likelihood; a tie goes to 0."""
        X = _validate_predict_input(X, self.means.shape[1])
        scores = np.empty((len(X), 2))
        for cls in (0, 1):
            var = self.variances[cls]
            scores[:, cls] = self.log_priors[cls] - 0.5 * np.sum(
                np.log(2 * np.pi * var) + (X - self.means[cls]) ** 2 / var,
                axis=1)
        return (scores[:, 1] > scores[:, 0]).astype(np.int64)


def _fit_nb(spec: ModelSpec, X, y) -> NBModel:
    priors = np.array([(y == 0).mean(), (y == 1).mean()])
    pooled_var = X.var(axis=0)
    max_var = float(pooled_var.max())
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

    def predict(self, X) -> np.ndarray:
        # sigma(z) >= 0.5, not z >= 0: sigma rounds to 0.5 for tiny negative z.
        X = _validate_predict_input(X, len(self.weights))
        z = ((X - self.mu) / self.sigma) @ self.weights + self.bias
        return (_sigmoid(z) >= 0.5).astype(np.int64)


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
    """A forest stored as one node table, in level order.

    Node ``i`` is a leaf when ``feature[i] == -1``, and ``threshold[i]``
    then holds its class, 0.0 or 1.0.  Otherwise a row goes left when
    ``row[feature[i]] <= threshold[i]``.  Tree ``t`` starts at node ``t``.
    The children of every split follow in one run, two by two, in the
    order of their parents, so the left child of split ``i`` is
    ``n_trees + 2 * (splits before i)`` and its right child the next node.
    """

    spec: ModelSpec
    n_features: int
    feature: np.ndarray    # (n_nodes,) int64
    threshold: np.ndarray  # (n_nodes,) float64

    def predict(self, X) -> np.ndarray:
        X = _validate_predict_input(X, self.n_features)
        n_trees = self.spec.n_trees
        votes = np.empty(len(X), dtype=np.int64)
        step = max(1, _RF_PAIRS_PER_STEP // n_trees)  # bounds the index arrays
        for start in range(0, len(X), step):
            leaves = self._leaves(X[start:start + step])
            votes[start:start + step] = self.threshold[leaves].sum(axis=0)
        return (votes * 2 > n_trees).astype(np.int64)  # tie -> 0

    def _leaves(self, X) -> np.ndarray:
        """(n_trees, len(X)) index of the leaf each row reaches in each tree."""
        n, n_trees = len(X), self.spec.n_trees
        left = n_trees - 2 + 2 * np.cumsum(self.feature >= 0)
        # Every (tree, row) pair moves down one level per step.
        node = np.repeat(np.arange(n_trees), n)
        row = np.tile(np.arange(n), n_trees)
        live = np.flatnonzero(self.feature[node] >= 0)
        while len(live):
            cur = node[live]
            go_left = X[row[live], self.feature[cur]] <= self.threshold[cur]
            cur = left[cur] + ~go_left
            node[live] = cur
            live = live[self.feature[cur] >= 0]
        return node.reshape(n_trees, n)


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


def _fit_rf(spec: ModelSpec, X, y) -> RFModel:
    """Grow every tree at once, one level at a time.

    Each step splits every pending node of every tree.  Node ``i`` of tree
    ``t`` examines the columns by ascending ``counter_hash(seed,
    PERMUTATION, t, i, column)``, where ``i`` is its heap index: a root is
    1, and the children of ``i`` are ``2i`` and ``2i + 1``, modulo 2**64,
    so past depth 63 two nodes of one tree can share a draw.  ``t``'s
    bootstrap row ``j`` is ``counter_hash(seed, BOOTSTRAP, t, j) % n``.  A
    node's split depends only on its rows and its heap index, so a tree
    grown alone, in any order, is the same.  Each step draws the column
    orders of all its pending nodes at once, from ``(seed, PERMUTATION)``
    hashed once per fit, and runs their split searches in batches of at
    most ``_RF_SEARCH_ELEMENTS`` (sample, column) pairs, a lone node above
    that in a batch of its own.

    Nodes are numbered in level order: the roots in tree order, then each
    step's children in the order of their parents' numbers, left then
    right, which is the numbering ``RFModel`` derives the children from.
    """
    n, d = X.shape
    n_trees = spec.n_trees
    max_features = spec.max_features or math.ceil(math.sqrt(d))
    max_features = min(max_features, d)
    levels, keys = [], np.empty((n, d), dtype=np.int64)
    for c in range(d):
        distinct, rank = np.unique(X[:, c], return_inverse=True)
        keys[:, c] = (rank + sum(map(len, levels))) * 2 + y
        levels.append(distinct)
    levels = np.concatenate(levels)

    def splittable(size, ones):
        return (ones > 0) & (ones < size) & (size >= spec.min_samples_split)

    prefix = counter_hash(spec.seed, PERMUTATION)  # the first two keys of every draw
    if spec.bootstrap:
        rows = counter_hash(spec.seed, BOOTSTRAP, np.arange(n_trees)[:, None],
                            np.arange(n))
        rows %= np.uint64(n)
        rows = rows.view(np.int64)
    else:
        rows = np.broadcast_to(np.arange(n), (n_trees, n))
    sizes, ones = np.full(n_trees, n), y[rows].sum(axis=1)
    # Writes to the node table, in order: (numbers, feature, threshold).
    # Each node is made a leaf of its majority class (a tie to 0), and a
    # node that splits is then overwritten with its split.
    table = [(np.arange(n_trees), -1, ones * 2 > sizes)]
    # The pending nodes: number, tree, heap index, samples, class-1 samples.
    # Their training rows sit in ``rows``, node after node.
    pending = splittable(sizes, ones)
    ids = np.flatnonzero(pending)
    trees = ids.astype(np.uint64)
    heap = np.ones(len(ids), dtype=np.uint64)
    sizes, ones = sizes[pending], ones[pending]
    rows = rows[pending].ravel()
    columns = np.arange(d, dtype=np.uint64)
    side = np.arange(2)[:, None]  # row 0 for left children, row 1 for right
    made = n_trees
    while len(ids):
        # Every pending node's columns, in the order it examines them.
        node_keys = _hash_round(_hash_round(prefix, trees), heap)
        order = np.argsort(_hash_round(node_keys[:, None], columns), axis=1,
                           kind="stable")
        ends = np.cumsum(sizes)
        found = [_split_batch(order[lo:hi], rows[ends[lo] - sizes[lo]:ends[hi - 1]],
                              sizes[lo:hi], ones[lo:hi], keys, levels, max_features)
                 for lo, hi in _batches(sizes * max_features)]
        feature, threshold, cut, ones_left = map(np.concatenate, zip(*found))
        split = feature >= 0
        parents = ids[split]
        table.append((parents, feature[split], threshold[split]))
        # Children go in the order of their parents' numbers.
        child_ids = made + 2 * np.searchsorted(np.sort(parents), parents) + side
        child_size = np.stack((cut, sizes - cut))[:, split]
        child_ones = np.stack((ones_left, ones - ones_left))[:, split]
        table.append((child_ids, -1, child_ones * 2 > child_size))
        grow = splittable(child_size, child_ones)
        # The pending children's rows, the left children's first.  An
        # unsplit node has no children: its rows are dropped.
        pending = np.zeros((2, len(ids)), dtype=bool)
        pending[:, split] = grow
        go_left = (X[rows, np.repeat(feature, sizes)]
                   <= np.repeat(threshold, sizes))
        rows = np.concatenate((rows[go_left & np.repeat(pending[0], sizes)],
                               rows[~go_left & np.repeat(pending[1], sizes)]))
        ids = child_ids[grow]
        trees = np.broadcast_to(trees[split], grow.shape)[grow]
        heap = ((heap[split] << np.uint64(1)) | side.astype(np.uint64))[grow]
        sizes, ones = child_size[grow], child_ones[grow]
        made += 2 * len(parents)
    feature, threshold = np.full(made, -1), np.empty(made)
    for ids, *values in table:
        feature[ids], threshold[ids] = values
    return RFModel(spec, d, feature, threshold)


def _ranges(starts, lengths):
    """The concatenation of ``arange(s, s + k)`` for each start ``s`` and
    length ``k``."""
    ends = np.cumsum(lengths)
    total = ends[-1] if len(ends) else 0
    return np.arange(total) + np.repeat(starts - ends + lengths, lengths)


def _batches(elements):
    """``(lo, hi)`` bounds of consecutive batches of nodes, each holding as
    many nodes as fit in ``_RF_SEARCH_ELEMENTS`` and at least one."""
    total = np.cumsum(elements)
    lo = 0
    while lo < len(total):
        before = total[lo - 1] if lo else 0
        hi = np.searchsorted(total, before + _RF_SEARCH_ELEMENTS, "right")
        hi = max(lo + 1, int(hi))
        yield lo, hi
        lo = hi


def _split_batch(columns, rows, sizes, ones, keys, levels, max_features):
    """The splits, as ``_best_splits`` returns them, of a batch of nodes:
    node ``i`` owns the next ``sizes[i]`` entries of ``rows``, holds
    ``ones[i]`` class-1 samples and examines the first ``max_features``
    columns of its permutation ``columns[i]`` (see ``_fit_rf``), then the
    rest one at a time while none admits a split."""
    split = _best_splits(keys, levels, rows, sizes, columns[:, :max_features], ones)
    starts = np.cumsum(sizes) - sizes
    unsplit = np.flatnonzero(split[0] < 0)
    for j in range(max_features, columns.shape[1]):
        if not len(unsplit):
            break
        scan = _best_splits(keys, levels,
                            rows[_ranges(starts[unsplit], sizes[unsplit])],
                            sizes[unsplit], columns[unsplit, j:j + 1], ones[unsplit])
        found = scan[0] >= 0
        for part, value in zip(split, scan):
            part[unsplit[found]] = value[found]
        unsplit = unsplit[~found]
    return split


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
    (nested) lists.  A state array with a non-finite value is refused before
    the file is opened: ``load_model`` would refuse it."""
    if not isinstance(model, Model):
        raise ValidationError(f"cannot serialize {type(model).__name__}")
    state = {f.name: getattr(model, f.name) for f in fields(model)[1:]}
    for key, value in state.items():
        if isinstance(value, np.ndarray) and not np.isfinite(value).all():
            raise ValidationError(f"cannot save {model.spec.kind} model: state "
                                  f"{key!r} holds a non-finite value")
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


# Leading rows of an array that _write_json formats at a time.
_JSON_SLICE = 1024


def _write_json(fh, obj) -> None:
    """Write the bytes of ``json.dumps(obj)``, with each array as its
    ``tolist()``.  A dict is written one value at a time, and every array,
    whatever its length or shape, in slices of ``_JSON_SLICE`` leading rows.
    A slice is one ``%`` format over its flat ``tolist()``, with one ``%r``
    per cell inside the brackets of its shape: for ints and finite floats,
    ``repr`` is the text ``json`` writes, and no nested list is built.
    Writing any whole column of a 7,000-node forest this way peaks at
    0.08 MB or less (``tracemalloc``; ``threshold`` the largest).
    """
    if isinstance(obj, np.ndarray):
        row = "%r"
        for width in reversed(obj.shape[1:]):
            row = "[" + ", ".join([row] * width) + "]"
        fh.write("[")
        for a in range(0, len(obj), _JSON_SLICE):
            part = obj[a:a + _JSON_SLICE]
            cells = tuple(part.ravel().tolist())
            fh.write((", " if a else "") + ", ".join([row] * len(part)) % cells)
        fh.write("]")
    elif isinstance(obj, dict):
        fh.write("{")
        for i, (key, value) in enumerate(obj.items()):
            fh.write((", " if i else "") + json.dumps(key) + ": ")
            _write_json(fh, value)
        fh.write("}")
    else:
        fh.write(json.dumps(obj))


_SPEC_KEYS = frozenset(f.name for f in fields(ModelSpec))


def load_model(path) -> Model:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValidationError(f"{path}: not a JSON model: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: model file must hold a JSON object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValidationError(f"{path}: unsupported model format version {version!r}")
    spec_doc = doc.get("spec")
    if not isinstance(spec_doc, dict):
        raise ValidationError(f"{path}: model spec must be an object")
    missing = [] if "kind" in spec_doc else ["kind"]
    unknown = [key for key in spec_doc if key not in _SPEC_KEYS]
    if missing or unknown:
        raise ValidationError(f"{path}: model spec: missing key(s) {missing}, "
                              f"unknown key(s) {unknown}")
    try:
        spec = ModelSpec(**spec_doc)
    except ValidationError as exc:
        raise ValidationError(f"{path}: model spec: {exc}") from None
    cls = _MODEL_CLASSES[spec.kind]
    names = [f.name for f in fields(cls)[1:]]
    state = doc.get("state")
    if not isinstance(state, dict):
        raise ValidationError(f"{path}: model state must be an object")
    missing = [key for key in names if key not in state]
    unknown = [key for key in state if key not in names]
    if missing or unknown:
        raise ValidationError(f"{path}: {spec.kind} model state: missing key(s) "
                              f"{missing}, unknown key(s) {unknown}")
    return cls(spec, **_checked_state(path, spec, state))


# Each kind's state arrays: "i" for integers or "f" for finite reals, and
# the shape, whose named sizes must agree across the file: d features, n
# training rows or forest nodes.
_STATE_ARRAYS = {
    "NB": {"log_priors": ("f", (2,)), "means": ("f", (2, "d")),
           "variances": ("f", (2, "d"))},
    "KNN": {"mu": ("f", ("d",)), "sigma": ("f", ("d",)),
            "train_x": ("f", ("n", "d")), "train_y": ("i", ("n",))},
    "LR": {"mu": ("f", ("d",)), "sigma": ("f", ("d",)), "weights": ("f", ("d",))},
    "RF": {"feature": ("i", ("n",)), "threshold": ("f", ("n",))},
}


def _is_number(value, integer=False) -> bool:
    return isinstance(value, int if integer else (int, float)) \
        and not isinstance(value, bool)


def _checked_state(path, spec, state) -> dict:
    """A model file's state with its arrays as numpy arrays, once every
    value has the type, shape and range that ``predict`` relies on.  A
    forest must hold ``n_trees`` nodes plus two per split: then the k-th
    split's children, from ``n_trees + 2(k - 1)``, are nodes after every
    root and after the children of the splits before it, so every descent
    moves to ever greater numbers and ends at a leaf."""
    kind = spec.kind

    def fail(key, what):
        raise ValidationError(f"{path}: {kind} model state {key!r}: {what}")

    out = dict(state)
    sizes = {}
    for key, (of, shape) in _STATE_ARRAYS[kind].items():
        try:
            array = np.asarray(state[key]) if isinstance(state[key], list) else None
        except ValueError:  # ragged nested lists
            array = None
        if array is None or array.ndim != len(shape):
            fail(key, f"expected a {len(shape)}-D array")
        if not array.size:
            fail(key, "expected a non-empty array")
        expected = tuple(sizes.setdefault(dim, got) if isinstance(dim, str) else dim
                         for dim, got in zip(shape, array.shape))
        if array.shape != expected:
            fail(key, f"expected shape {expected}, got {array.shape}")
        if array.dtype.kind not in ("i" if of == "i" else "if"):
            fail(key, f"expected {'integers' if of == 'i' else 'numbers'}, "
                      f"got {array.dtype}")
        if of == "f" and not np.isfinite(array).all():
            fail(key, "expected finite numbers")
        out[key] = array.astype(np.int64 if of == "i" else np.float64, copy=False)

    if kind == "NB" and not (out["variances"] > 0).all():
        fail("variances", "expected values > 0")
    if kind in ("KNN", "LR") and not (out["sigma"] > 0).all():
        fail("sigma", "expected values > 0")
    if kind == "KNN" and not np.isin(out["train_y"], (0, 1)).all():
        fail("train_y", "expected classes 0 and 1 only")
    if kind == "LR":
        bias, n_iters, grad_norm = out["bias"], out["n_iters"], out["grad_norm"]
        if not (_is_number(bias) and math.isfinite(bias)):
            fail("bias", f"expected a finite number, got {bias!r}")
        if not (_is_number(n_iters, integer=True) and n_iters >= 0):
            fail("n_iters", f"expected an integer >= 0, got {n_iters!r}")
        if not (_is_number(grad_norm) and math.isfinite(grad_norm) and grad_norm >= 0):
            fail("grad_norm", f"expected a finite number >= 0, got {grad_norm!r}")
    if kind == "RF":
        d, feature, n = out["n_features"], out["feature"], len(out["feature"])
        if not (_is_number(d, integer=True) and d >= 1):
            fail("n_features", f"expected an integer >= 1, got {d!r}")
        if ((feature < -1) | (feature >= d)).any():
            fail("feature", f"expected -1 (a leaf) or a column in 0..{d - 1}")
        split = feature >= 0
        if n != spec.n_trees + 2 * np.count_nonzero(split):
            fail("feature", f"{n} nodes, expected {spec.n_trees} trees plus "
                            f"two nodes per split")
        if not np.isin(out["threshold"][~split], (0.0, 1.0)).all():
            fail("threshold", "expected class 0.0 or 1.0 at every leaf")
    return out
