"""Recursive random-forest oracle.

The grower the array-backed forest replaced: each tree is a nested dict
built by recursion, every node re-sorts each candidate feature, and
prediction walks one row at a time.  It shares nothing with
``botmeter.classifiers`` beyond ``counter_hash``, from which it draws each
tree's bootstrap rows and, at each node it splits, the column permutation
keyed by the tree and the node's heap index (the root 1, the children of
``i`` ``2i`` and ``2i + 1`` modulo 2**64), so the forest there must match
it node for node.
"""

from __future__ import annotations

import math

import numpy as np

from botmeter.classifiers import BOOTSTRAP, PERMUTATION, counter_hash


def tree_predict(tree, X) -> np.ndarray:
    out = np.empty(len(X), dtype=np.int64)
    for i, row in enumerate(X):
        node = tree
        while "feature" in node:
            node = node["left"] if row[node["feature"]] <= node["threshold"] \
                else node["right"]
        counts = node["counts"]
        out[i] = int(counts[1] > counts[0])  # tie -> 0
    return out


def gini_best_split(values, ones_total, labels):
    """Best (impurity, threshold) along one feature column, or None if the
    column is constant.  Ties keep the first candidate (ascending order)."""
    order = np.argsort(values, kind="stable")
    sv = values[order]
    sy = labels[order]
    boundaries = np.flatnonzero(sv[1:] != sv[:-1]) + 1
    if len(boundaries) == 0:
        return None
    n = len(sv)
    ones_left = np.cumsum(sy)[boundaries - 1]
    n_left = boundaries.astype(np.float64)
    n_right = n - n_left
    ones_right = ones_total - ones_left
    p1l = ones_left / n_left
    p1r = ones_right / n_right
    gini_l = 1.0 - p1l ** 2 - (1.0 - p1l) ** 2
    gini_r = 1.0 - p1r ** 2 - (1.0 - p1r) ** 2
    weighted = (n_left * gini_l + n_right * gini_r) / n
    best = int(np.argmin(weighted))
    cut = boundaries[best]
    threshold = float((sv[cut - 1] + sv[cut]) / 2.0)
    return float(weighted[best]), threshold


def grow_tree(X, y, indices, max_features, min_samples_split, draw, heap=1):
    sub_y = y[indices]
    ones = int(sub_y.sum())
    counts = [len(indices) - ones, ones]
    if ones in (0, len(indices)) or len(indices) < min_samples_split:
        return {"counts": counts}
    # Examine a random feature subset; keep scanning past it only while no
    # examined feature admitted a split.
    permuted = draw(heap)
    best = None
    examined = 0
    for f in permuted:
        examined += 1
        result = gini_best_split(X[indices, f], ones, sub_y)
        if result is not None:
            impurity, threshold = result
            if best is None or impurity < best[0]:
                best = (impurity, int(f), threshold)
        if examined >= max_features and best is not None:
            break
    if best is None:
        return {"counts": counts}
    _, feature, threshold = best
    mask = X[indices, feature] <= threshold
    left = grow_tree(X, y, indices[mask], max_features, min_samples_split, draw,
                     2 * heap % 2**64)
    right = grow_tree(X, y, indices[~mask], max_features, min_samples_split, draw,
                      (2 * heap + 1) % 2**64)
    return {"feature": feature, "threshold": threshold,
            "left": left, "right": right}


def fit_forest(spec, X, y) -> list:
    """The nested-dict trees for ``spec`` (a ``ModelSpec`` of kind RF)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    d = X.shape[1]
    max_features = spec.max_features or math.ceil(math.sqrt(d))
    max_features = min(max_features, d)
    n = len(X)
    trees = []
    for t in range(spec.n_trees):
        if spec.bootstrap:
            indices = np.array([int(counter_hash(spec.seed, BOOTSTRAP, t, i)) % n
                                for i in range(n)])
        else:
            indices = np.arange(n)

        def draw(heap, t=t):
            """The permutation of tree t's node ``heap``: the columns by
            their words."""
            words = [int(counter_hash(spec.seed, PERMUTATION, t, heap, c))
                     for c in range(d)]
            return np.array(sorted(range(d), key=words.__getitem__))

        trees.append(grow_tree(X, y, indices, max_features,
                               spec.min_samples_split, draw))
    return trees


def forest_predict(trees, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    votes = np.zeros(len(X), dtype=np.int64)
    for tree in trees:
        votes += tree_predict(tree, X)
    return (votes * 2 > len(trees)).astype(np.int64)  # tie -> 0
