"""Brute-force KNN oracle.

The prediction loop that the Gram-form ``KNNModel.predict`` replaced, kept
verbatim: every chunk of 256 queries builds its full query × training ×
feature difference block and stable-argsorts every distance row, so equal
distances resolve to the lower training index.  ``botmeter.classifiers``
must give the same predictions for every input.
"""

from __future__ import annotations

import numpy as np


def predict(model, X) -> np.ndarray:
    """Predictions of a fitted ``KNNModel`` for the rows of ``X``."""
    X = np.asarray(X, dtype=np.float64)
    Xs = (X - model.mu) / model.sigma
    k = min(model.spec.k, len(model.train_x))
    out = np.empty(len(Xs), dtype=np.int64)
    for start in range(0, len(Xs), 256):
        chunk = Xs[start:start + 256]
        d2 = ((chunk[:, None, :] - model.train_x[None, :, :]) ** 2).sum(axis=2)
        # Stable sort: equal distances resolve to the lower train index.
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
        votes = model.train_y[nearest].sum(axis=1)
        out[start:start + 256] = (votes * 2 > k).astype(np.int64)  # tie -> 0
    return out
