"""From-scratch binary classifiers: Gaussian NB, KNN, random forest and
L2-regularized logistic regression.

All four share fit(spec, X, y) / predict(model, X) with deterministic
behaviour for a fixed seed.  KNN and LR standardize features internally
(sample std, stored in the model); NB and RF consume raw features.  Tie
conventions all resolve to class 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError

KINDS = ("NB", "KNN", "RF", "LR")

MODEL_FORMAT_VERSION = 2


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
    learning_rate: float = 0.1
    max_iters: int = 1000
    tol: float = 1e-6

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown classifier kind {self.kind!r}")
        if self.k < 1:
            raise ValidationError("k must be >= 1")
        if self.n_trees < 1:
            raise ValidationError("n_trees must be >= 1")
        if self.max_features is not None and self.max_features < 1:
            raise ValidationError("max_features must be >= 1")
        if self.l2_lambda < 0:
            raise ValidationError("l2_lambda must be >= 0")
        if self.var_smoothing < 0:
            raise ValidationError("var_smoothing must be >= 0")


def default_specs(seed: int = 0) -> list[ModelSpec]:
    """The four classifiers in report order."""
    return [ModelSpec(kind=k, seed=seed) for k in KINDS]


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

@dataclass
class KNNModel:
    spec: ModelSpec
    mu: np.ndarray
    sigma: np.ndarray
    train_x: np.ndarray  # standardized
    train_y: np.ndarray

    def predict(self, X) -> np.ndarray:
        X = _validate_predict_input(X, self.train_x.shape[1])
        Xs = (X - self.mu) / self.sigma
        k = min(self.spec.k, len(self.train_x))
        out = np.empty(len(Xs), dtype=np.int64)
        for start in range(0, len(Xs), 256):
            chunk = Xs[start:start + 256]
            d2 = ((chunk[:, None, :] - self.train_x[None, :, :]) ** 2).sum(axis=2)
            # Stable sort: equal distances resolve to the lower train index.
            nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
            votes = self.train_y[nearest].sum(axis=1)
            out[start:start + 256] = (votes * 2 > k).astype(np.int64)  # tie -> 0
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
    n_iters: int = 0

    def decision_function(self, X) -> np.ndarray:
        X = _validate_predict_input(X, len(self.weights))
        return ((X - self.mu) / self.sigma) @ self.weights + self.bias

    def predict_proba(self, X) -> np.ndarray:
        return _sigmoid(self.decision_function(X))

    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(np.int64)


def _fit_lr(spec: ModelSpec, X, y) -> LRModel:
    mu, sigma = _standardize_fit(X)
    Xs = (X - mu) / sigma
    w = np.zeros(X.shape[1])
    b = 0.0
    iters = 0
    for iters in range(1, spec.max_iters + 1):
        _, grad_w, grad_b = lr_loss_and_grad(w, b, Xs, y, spec.l2_lambda)
        step_w = spec.learning_rate * grad_w
        w -= step_w
        b -= spec.learning_rate * grad_b
        if np.max(np.abs(step_w)) < spec.tol:
            break
    return LRModel(spec, mu, sigma, w, b, iters)


# --- Random forest ----------------------------------------------------------

_RF_PAIRS_PER_STEP = 1 << 20  # (tree, row) pairs routed together in predict


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


def _best_split(XbT, labels, pos, columns, ones_total):
    """Lowest weighted Gini over ``columns`` at a node whose sample
    positions are ``pos`` (one row per feature, sorted by that feature).

    Returns (feature, cut, ones left of the cut, threshold): the ``cut``
    lowest samples of the feature go left.  Ties keep the first boundary
    within a column and then the first column in ``columns`` order.  None
    when every column is constant.
    """
    rows = pos[columns]
    sv = XbT[columns[:, None], rows]
    n = rows.shape[1]
    ones_left = labels[rows].cumsum(axis=1)[:, :-1]
    n_left = np.arange(1, n, dtype=np.float64)
    n_right = n - n_left
    ones_right = ones_total - ones_left
    p1l = ones_left / n_left
    p1r = ones_right / n_right
    gini_l = 1.0 - p1l ** 2 - (1.0 - p1l) ** 2
    gini_r = 1.0 - p1r ** 2 - (1.0 - p1r) ** 2
    weighted = (n_left * gini_l + n_right * gini_r) / n
    weighted[sv[:, 1:] == sv[:, :-1]] = np.inf  # no boundary between equals
    best = int(weighted.argmin())
    if weighted.flat[best] == np.inf:
        return None
    j, k = divmod(best, n - 1)
    below, above = sv[j, k], sv[j, k + 1]
    threshold = float((below + above) / 2.0)
    if not below <= threshold < above:
        # The midpoint rounded onto ``above`` (adjacent floats) or overflowed:
        # cut at ``below`` so that both children are non-empty.
        threshold = float(below)
    return int(columns[j]), k + 1, int(ones_left[j, k]), threshold


def _grow(Xb, yb, max_features, min_samples_split, rng, nodes) -> int:
    """Grow one tree on the sample (Xb, yb) into ``nodes``; returns its root.

    Nodes pop from an explicit stack left subtree first, so they are
    numbered in preorder and each node's ``rng.permutation`` draw comes in
    preorder too.  A node carries a (d, n_node) matrix of sample positions,
    each row sorted by its feature; children take theirs by partitioning
    that matrix, so each feature is sorted once per tree.
    """
    feature, threshold, left, right, counts = nodes
    n, d = Xb.shape
    XbT = np.ascontiguousarray(Xb.T)
    # Float labels keep the split arithmetic in one dtype; counts stay exact.
    yf = yb.astype(np.float64)
    goes_left = np.zeros(n, dtype=bool)
    root = len(feature)
    ones = int(yb.sum())
    order = np.ascontiguousarray(np.argsort(Xb, axis=0, kind="stable").T)
    # (positions, zeros, ones, parent if a right child else -1)
    stack = [(order, n - ones, ones, -1)]
    while stack:
        pos, zeros, ones, parent = stack.pop()
        node = len(feature)
        if parent >= 0:
            right[parent] = node
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts.append((zeros, ones))
        size = zeros + ones
        if zeros == 0 or ones == 0 or size < min_samples_split:
            continue
        # Examine a random feature subset; keep scanning past it, one
        # feature at a time, only while no examined feature admits a split.
        permuted = rng.permutation(d)
        split = _best_split(XbT, yf, pos, permuted[:max_features], ones)
        examined = max_features
        while split is None and examined < d:
            split = _best_split(XbT, yf, pos, permuted[examined:examined + 1], ones)
            examined += 1
        if split is None:
            continue
        f, cut, ones_left, threshold[node] = split
        feature[node] = f
        left[node] = node + 1  # the left child pops next
        goes_left[pos[f, :cut]] = True
        mask = goes_left[pos]
        goes_left[pos[f, :cut]] = False
        ones_right = ones - ones_left
        stack.append((pos[~mask].reshape(d, size - cut),
                      size - cut - ones_right, ones_right, node))
        stack.append((pos[mask].reshape(d, cut),
                      cut - ones_left, ones_left, -1))
    return root


def _fit_rf(spec: ModelSpec, X, y) -> RFModel:
    d = X.shape[1]
    max_features = spec.max_features or math.ceil(math.sqrt(d))
    max_features = min(max_features, d)
    nodes = ([], [], [], [], [])
    roots = []
    for t in range(spec.n_trees):
        rng = np.random.default_rng([spec.seed, t])
        if spec.bootstrap:
            indices = rng.integers(0, len(X), len(X))
        else:
            indices = np.arange(len(X))
        roots.append(_grow(X[indices], y[indices], max_features,
                           spec.min_samples_split, rng, nodes))
    feature, threshold, left, right, counts = nodes
    ints = lambda v: np.array(v, dtype=np.int64)
    return RFModel(spec, d, ints(feature), np.array(threshold, dtype=np.float64),
                   ints(left), ints(right), ints(counts).reshape(-1, 2),
                   ints(roots))


# --- Uniform interface ------------------------------------------------------

Model = NBModel | KNNModel | LRModel | RFModel

_FITTERS = {"NB": _fit_nb, "KNN": _fit_knn, "LR": _fit_lr, "RF": _fit_rf}


def fit(spec: ModelSpec, X, y) -> Model:
    """Train a classifier; X rows are flows, y is the binary attack label."""
    X, y = _validate_training_input(X, y)
    return _FITTERS[spec.kind](spec, X, y)


def predict(model: Model, X) -> np.ndarray:
    return model.predict(X)


# --- Serialization ----------------------------------------------------------

def save_model(model: Model, path) -> None:
    """Versioned JSON dump; floats round-trip exactly via repr."""
    state: dict = {}
    if isinstance(model, NBModel):
        state = {"log_priors": model.log_priors.tolist(),
                 "means": model.means.tolist(),
                 "variances": model.variances.tolist()}
    elif isinstance(model, KNNModel):
        state = {"mu": model.mu.tolist(), "sigma": model.sigma.tolist(),
                 "train_x": model.train_x.tolist(),
                 "train_y": model.train_y.tolist()}
    elif isinstance(model, LRModel):
        state = {"mu": model.mu.tolist(), "sigma": model.sigma.tolist(),
                 "weights": model.weights.tolist(), "bias": model.bias,
                 "n_iters": model.n_iters}
    elif isinstance(model, RFModel):
        state = {"n_features": model.n_features,
                 "feature": model.feature.tolist(),
                 "threshold": model.threshold.tolist(),
                 "left": model.left.tolist(), "right": model.right.tolist(),
                 "counts": model.counts.tolist(),
                 "roots": model.roots.tolist()}
    else:
        raise ValidationError(f"cannot serialize {type(model).__name__}")
    doc = {"format_version": MODEL_FORMAT_VERSION,
           "kind": model.spec.kind,
           "spec": asdict(model.spec),
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
    state = doc["state"]
    arr = lambda v: np.asarray(v, dtype=np.float64)
    if spec.kind == "NB":
        return NBModel(spec, arr(state["log_priors"]), arr(state["means"]),
                       arr(state["variances"]))
    if spec.kind == "KNN":
        return KNNModel(spec, arr(state["mu"]), arr(state["sigma"]),
                        arr(state["train_x"]),
                        np.asarray(state["train_y"], dtype=np.int64))
    if spec.kind == "LR":
        return LRModel(spec, arr(state["mu"]), arr(state["sigma"]),
                       arr(state["weights"]), state["bias"], state["n_iters"])
    ints = lambda v: np.asarray(v, dtype=np.int64)
    return RFModel(spec, state["n_features"], ints(state["feature"]),
                   arr(state["threshold"]), ints(state["left"]),
                   ints(state["right"]), ints(state["counts"]).reshape(-1, 2),
                   ints(state["roots"]))
