from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knn_oracle
import rf_oracle
from botmeter import classifiers
from botmeter.classifiers import (KINDS, KNNModel, LRModel, ModelSpec, fit,
                                  load_model, lr_loss_and_grad, predict,
                                  save_model)
from botmeter.errors import ValidationError


def separable_1d(n_per_class=100):
    X = np.array([[-1.0]] * n_per_class + [[1.0]] * n_per_class)
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return X, y


def blobs(rng, n=400, d=4, gap=4.0):
    y = rng.integers(0, 2, n)
    X = rng.normal(size=(n, d)) + gap * y[:, None]
    return X, y


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            ModelSpec(kind="SVM")

    def test_bad_hyperparameters(self):
        with pytest.raises(ValidationError):
            ModelSpec(kind="KNN", k=0)
        with pytest.raises(ValidationError):
            ModelSpec(kind="RF", n_trees=0)
        with pytest.raises(ValidationError):
            ModelSpec(kind="RF", max_features=0)
        with pytest.raises(ValidationError):
            ModelSpec(kind="LR", l2_lambda=-1)

    def test_single_class_rejected(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValidationError):
            fit(ModelSpec(kind="NB"), X, [1, 1, 1, 1])

    def test_non_finite_named(self):
        X = np.zeros((3, 2))
        X[1, 1] = np.nan
        with pytest.raises(ValidationError, match="row 1, column 1"):
            fit(ModelSpec(kind="NB"), X, [0, 1, 0])

    def test_width_mismatch_on_predict(self):
        X, y = separable_1d(10)
        model = fit(ModelSpec(kind="NB"), X, y)
        with pytest.raises(ValidationError):
            predict(model, np.zeros((2, 3)))


class TestLR:
    def test_separable_sign_and_accuracy(self):
        X, y = separable_1d(100)
        model = fit(ModelSpec(kind="LR"), X, y)
        assert model.weights[0] > 0
        assert (predict(model, X) == y).mean() == 1.0

    def test_boundary_probability_goes_to_class_one(self):
        model = LRModel(ModelSpec(kind="LR"), mu=np.zeros(1), sigma=np.ones(1),
                        weights=np.array([1.0]), bias=0.0)
        assert predict(model, [[0.0]])[0] == 1  # sigma(0) = 0.5 >= 0.5

    def test_duplicated_column_shares_weight(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=200)
        y = (x > 0).astype(int)
        X = np.column_stack([x, x, rng.normal(size=200)])
        model = fit(ModelSpec(kind="LR"), X, y)
        assert abs(model.weights[0] - model.weights[1]) < 1e-3
        assert abs(model.weights[0]) > abs(model.weights[2])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n, d = rng.integers(4, 20), rng.integers(1, 6)
            X = rng.normal(size=(n, d))
            y = rng.integers(0, 2, n).astype(np.int64)
            w = rng.normal(size=d)
            b = float(rng.normal())
            lam = float(rng.uniform(0, 2))
            _, grad_w, grad_b = lr_loss_and_grad(w, b, X, y, lam)
            eps = 1e-6
            for j in range(d):
                delta = np.zeros(d)
                delta[j] = eps
                hi, _, _ = lr_loss_and_grad(w + delta, b, X, y, lam)
                lo, _, _ = lr_loss_and_grad(w - delta, b, X, y, lam)
                fd = (hi - lo) / (2 * eps)
                assert grad_w[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)
            hi, _, _ = lr_loss_and_grad(w, b + eps, X, y, lam)
            lo, _, _ = lr_loss_and_grad(w, b - eps, X, y, lam)
            assert grad_b == pytest.approx((hi - lo) / (2 * eps), rel=1e-5, abs=1e-8)

    def test_deterministic_refit(self):
        rng = np.random.default_rng(1)
        X, y = blobs(rng)
        a = fit(ModelSpec(kind="LR"), X, y)
        b = fit(ModelSpec(kind="LR"), X, y)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.bias == b.bias


class TestNB:
    def test_zero_variance_hits_smoothing_floor(self):
        X = np.array([[1.0], [1.0], [2.0], [4.0]])
        y = np.array([0, 0, 1, 1])
        spec = ModelSpec(kind="NB")
        model = fit(spec, X, y)
        assert model.means[0, 0] == 1.0
        floor = spec.var_smoothing * X.var(axis=0).max()
        assert model.variances[0, 0] == pytest.approx(floor)

    def test_posterior_sums_to_one(self):
        rng = np.random.default_rng(3)
        X, y = blobs(rng, n=100)
        model = fit(ModelSpec(kind="NB"), X, y)
        proba = model.predict_proba(rng.normal(size=(50, X.shape[1])))
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-12)

    def test_tie_goes_to_class_zero(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        model = fit(ModelSpec(kind="NB"), X, y)
        assert predict(model, [[0.0]])[0] == 0  # symmetric -> equal scores


# Values one ulp apart: their distances tie exactly or differ far below the
# rounding error of the Gram form.
NEAR = (0.0, 1.0, 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53, 2.0, -1.0,
        -1.0 - 2.0 ** -52)


@st.composite
def knn_problems(draw):
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 4))

    def rows(count):
        return np.array(draw(st.lists(
            st.lists(st.sampled_from(NEAR), min_size=d, max_size=d),
            min_size=count, max_size=count)))

    scale = draw(st.sampled_from([2.0 ** -30, 1.0, 2.0 ** 40]))
    train = rows(n) * scale
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    y[0], y[1] = 0, 1
    spec = ModelSpec(kind="KNN", k=draw(st.integers(1, 9)))
    if draw(st.booleans()):
        model = fit(spec, train, y)
    else:  # unstandardized, so the grid reaches the distances unrounded
        model = KNNModel(spec, np.zeros(d), np.ones(d), train, y)
    return model, rows(draw(st.integers(1, 20))) * scale


class TestKNN:
    @settings(max_examples=150, deadline=None)
    @given(knn_problems())
    def test_matches_brute_force_oracle(self, problem):
        model, queries = problem
        np.testing.assert_array_equal(predict(model, queries),
                                      knn_oracle.predict(model, queries))

    def test_tied_grid_matches_oracle_in_several_block_sizes(self, monkeypatch):
        # Features on a coarse grid: many exact distance ties at the k-th
        # neighbour, across 1,500 training rows.
        rng = np.random.default_rng(31)
        X = np.round(rng.normal(size=(1500, 6)), 1)
        y = (X[:, 0] + rng.normal(size=1500) > 0).astype(int)
        queries = np.round(rng.normal(size=(300, 6)), 1)
        model = fit(ModelSpec(kind="KNN", k=5), X, y)
        expected = knn_oracle.predict(model, queries)
        np.testing.assert_array_equal(predict(model, queries), expected)
        for block in (1, 8 * 1500 * 7):  # one query per block; seven
            monkeypatch.setattr(classifiers, "_KNN_BLOCK_BYTES", block)
            np.testing.assert_array_equal(predict(model, queries), expected)

    def test_large_offsets_match_oracle(self):
        # Rows near 2**28: the Gram form loses the small differences to
        # cancellation, so only the exact recomputation separates them.
        rng = np.random.default_rng(37)
        train = 2.0 ** 28 + rng.integers(-3, 4, size=(300, 3))
        queries = 2.0 ** 28 + rng.integers(-3, 4, size=(500, 3))
        y = rng.integers(0, 2, 300)
        for k in (1, 4, 7):
            model = KNNModel(ModelSpec(kind="KNN", k=k), np.zeros(3),
                             np.ones(3), train, y)
            np.testing.assert_array_equal(predict(model, queries),
                                          knn_oracle.predict(model, queries))

    def test_non_finite_and_overflowing_queries_match_oracle(self):
        rng = np.random.default_rng(29)
        X, y = blobs(rng, n=50, d=3)
        model = fit(ModelSpec(kind="KNN", k=3), X, y)
        queries = np.array([[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0],
                            [-np.inf, np.inf, 0.0], [1e200, 0.0, 0.0],
                            [1e155, -1e155, 0.0], [0.5, 0.5, 0.5]])
        with np.errstate(over="ignore", invalid="ignore"):
            np.testing.assert_array_equal(predict(model, queries),
                                          knn_oracle.predict(model, queries))

    def test_nearest_neighbor(self):
        model = fit(ModelSpec(kind="KNN", k=1),
                    [[0.0, 0.0], [10.0, 10.0]], [0, 1])
        assert predict(model, [[1.0, 1.0]])[0] == 0

    def test_distance_tie_prefers_lower_train_index(self):
        model = fit(ModelSpec(kind="KNN", k=1),
                    [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                    [1, 0, 1, 0])
        # Query equidistant from all four; stable order keeps index 0.
        assert predict(model, [[0.0, 0.0]])[0] == 1

    def test_even_k_vote_tie_is_class_zero(self):
        model = fit(ModelSpec(kind="KNN", k=2),
                    [[0.0], [1.0], [10.0], [11.0]], [0, 0, 1, 1])
        # Around 5.0 the two nearest split 1-1 for k=2 at 4.0 -> tie -> 0.
        model2 = fit(ModelSpec(kind="KNN", k=4),
                     [[0.0], [1.0], [10.0], [11.0]], [0, 0, 1, 1])
        assert predict(model2, [[5.5]])[0] == 0

    def test_blob_accuracy(self):
        rng = np.random.default_rng(5)
        X, y = blobs(rng, n=600)
        model = fit(ModelSpec(kind="KNN"), X, y)
        assert (predict(model, X) == y).mean() > 0.98

    def test_training_row_permutation_invariance_without_ties(self):
        # Continuous features make exact distance ties measure-zero, so the
        # prediction must not depend on training-row order.
        rng = np.random.default_rng(19)
        X, y = blobs(rng, n=200, gap=1.0)
        queries = rng.normal(size=(80, X.shape[1])) + 0.5
        base = predict(fit(ModelSpec(kind="KNN"), X, y), queries)
        perm = rng.permutation(len(X))
        shuffled = predict(fit(ModelSpec(kind="KNN"), X[perm], y[perm]), queries)
        np.testing.assert_array_equal(base, shuffled)


def forest_table(model):
    """The node table of an RF model, as lists."""
    return {name: getattr(model, name).tolist() for name in
            ("feature", "threshold", "left", "right", "counts", "roots")}


def oracle_table(trees):
    """The oracle's nested trees as a node table in preorder."""
    table = {name: [] for name in
             ("feature", "threshold", "left", "right", "counts", "roots")}

    def add(node):
        i = len(table["feature"])
        for name in ("feature", "threshold", "left", "right", "counts"):
            table[name].append(None)
        if "counts" in node:
            table["feature"][i], table["threshold"][i] = -1, 0.0
            table["left"][i] = table["right"][i] = -1
            table["counts"][i] = list(node["counts"])
            return i
        table["feature"][i] = node["feature"]
        table["threshold"][i] = node["threshold"]
        left, right = add(node["left"]), add(node["right"])
        table["left"][i], table["right"][i] = left, right
        table["counts"][i] = [a + b for a, b in
                              zip(table["counts"][left], table["counts"][right])]
        return i

    table["roots"] = [add(tree) for tree in trees]
    return table


GRID = (-1.0, 0.0, 0.5, 2.0, 3.0)


@st.composite
def rf_problems(draw, max_trees=4):
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 5))
    cells = st.sampled_from(GRID)  # few distinct values: many duplicates
    X = np.array(draw(st.lists(st.lists(cells, min_size=d, max_size=d),
                               min_size=n, max_size=n)))
    for col in draw(st.sets(st.integers(0, d - 1), max_size=d)):
        X[:, col] = GRID[col % len(GRID)]  # constant columns
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    y[0], y[1] = 0, 1
    spec = ModelSpec(kind="RF", seed=draw(st.integers(0, 2**16)),
                     n_trees=draw(st.integers(1, max_trees)),
                     max_features=draw(st.sampled_from([None, 1, d])),
                     min_samples_split=draw(st.integers(2, 6)),
                     bootstrap=draw(st.booleans()))
    queries = np.array(draw(st.lists(
        st.lists(st.sampled_from(GRID + (-2.0, 0.25, 1.0, 2.5, 4.0)),
                 min_size=d, max_size=d), min_size=1, max_size=20)))
    return spec, X, y, queries


class TestRF:
    def test_single_stump_on_one_informative_feature(self):
        X = np.array([[-2.0, 7.0], [-1.0, 7.0], [1.0, 7.0], [2.0, 7.0]])
        y = np.array([0, 0, 1, 1])
        model = fit(ModelSpec(kind="RF", n_trees=1, bootstrap=False), X, y)
        root = model.roots[0]
        assert model.feature[root] == 0
        assert -1.0 <= model.threshold[root] <= 1.0
        assert model.feature[model.left[root]] == -1
        assert model.feature[model.right[root]] == -1
        assert (predict(model, X) == y).all()

    def test_leaf_counts_sum_to_samples(self):
        rng = np.random.default_rng(7)
        X, y = blobs(rng, n=80, gap=1.0)
        model = fit(ModelSpec(kind="RF", n_trees=5), X, y)

        def leaf_total(node):
            if model.feature[node] == -1:
                return int(model.counts[node].sum())
            return leaf_total(model.left[node]) + leaf_total(model.right[node])

        for root in model.roots:
            assert leaf_total(root) == len(X)

    def test_majority_vote(self):
        from botmeter.classifiers import RFModel
        # Three single-leaf trees voting 1, 1, 0.
        model = RFModel(ModelSpec(kind="RF", n_trees=3), 1,
                        feature=np.array([-1, -1, -1]),
                        threshold=np.zeros(3),
                        left=np.array([-1, -1, -1]),
                        right=np.array([-1, -1, -1]),
                        counts=np.array([[0, 1], [0, 1], [1, 0]]),
                        roots=np.array([0, 1, 2]))
        assert predict(model, [[0.0]])[0] == 1

    def test_same_seed_identical_forest(self):
        rng = np.random.default_rng(11)
        X, y = blobs(rng, n=120, gap=1.5)
        a = fit(ModelSpec(kind="RF", n_trees=12, seed=5), X, y)
        b = fit(ModelSpec(kind="RF", n_trees=12, seed=5), X, y)
        assert forest_table(a) == forest_table(b)
        c = fit(ModelSpec(kind="RF", n_trees=12, seed=6), X, y)
        assert forest_table(c) != forest_table(a)

    @settings(max_examples=80, deadline=None)
    @given(rf_problems())
    def test_matches_recursive_oracle(self, problem):
        spec, X, y, queries = problem
        model = fit(spec, X, y)
        trees = rf_oracle.fit_forest(spec, X, y)
        assert forest_table(model) == oracle_table(trees)
        for rows in (X, queries):
            np.testing.assert_array_equal(predict(model, rows),
                                          rf_oracle.forest_predict(trees, rows))

    @settings(max_examples=60, deadline=None)
    @given(rf_problems(max_trees=12), st.sampled_from([1, 8, 24]))
    def test_matches_recursive_oracle_in_small_search_batches(self, problem, cap):
        # A cap this small splits every step into several batched searches
        # and leaves many nodes above it, each searched alone.
        spec, X, y, queries = problem
        search = classifiers._best_splits

        def capped(keys, levels, rows, sizes, columns, ones):
            assert len(sizes) == 1 or sizes.sum() * columns.shape[1] <= cap
            return search(keys, levels, rows, sizes, columns, ones)

        with mock.patch.object(classifiers, "_RF_SEARCH_ELEMENTS", cap), \
                mock.patch.object(classifiers, "_best_splits", capped):
            model = fit(spec, X, y)
        trees = rf_oracle.fit_forest(spec, X, y)
        assert forest_table(model) == oracle_table(trees)
        np.testing.assert_array_equal(predict(model, queries),
                                      rf_oracle.forest_predict(trees, queries))

    def test_search_batches_follow_the_element_cap(self):
        rng = np.random.default_rng(23)
        X, y = blobs(rng, n=60, gap=1.0)  # 4 columns, 2 examined per node
        spec = ModelSpec(kind="RF", n_trees=12, seed=4)
        whole = fit(spec, X, y)
        batches = []
        split_batch = classifiers._split_batch

        def spy(batch, *args):
            batches.append([(item[0].t, len(item[3]) * 2) for item in batch])
            return split_batch(batch, *args)

        with mock.patch.object(classifiers, "_RF_SEARCH_ELEMENTS", 64), \
                mock.patch.object(classifiers, "_split_batch", spy):
            capped = fit(spec, X, y)
        assert forest_table(capped) == forest_table(whole)
        # Each root (60 samples x 2 columns) is over the cap: the first step
        # runs as one batch per tree, in tree order.
        assert batches[:12] == [[(t, 120)] for t in range(12)]
        assert all(len(batch) == 1 or sum(e for _, e in batch) <= 64
                   for batch in batches)
        assert any(len(batch) > 1 for batch in batches)
        for batch in batches:
            assert len({t for t, _ in batch}) == len(batch)

    def test_predict_in_steps_matches_one_step(self, monkeypatch):
        rng = np.random.default_rng(3)
        X, y = blobs(rng, n=60, gap=1.0)
        model = fit(ModelSpec(kind="RF", n_trees=7, seed=2), X, y)
        queries = rng.normal(size=(23, X.shape[1])) + 2.0
        whole = predict(model, queries)
        # 7 trees and 15 pairs per step: two rows per step, the last alone.
        monkeypatch.setattr(classifiers, "_RF_PAIRS_PER_STEP", 15)
        np.testing.assert_array_equal(predict(model, queries), whole)
        np.testing.assert_array_equal(
            predict(model, queries), rf_oracle.forest_predict(
                rf_oracle.fit_forest(model.spec, X, y), queries))

    def test_alternating_labels_grow_deep_without_recursion(self, tmp_path):
        # One feature, alternating labels: a 4,000-level chain of splits,
        # beyond the interpreter's recursion limit.
        X = np.arange(4000.0)[:, None]
        y = np.arange(4000) % 2
        model = fit(ModelSpec(kind="RF", n_trees=1, bootstrap=False), X, y)
        assert len(model.feature) == 2 * len(X) - 1
        path = tmp_path / "deep.json"
        save_model(model, path)
        loaded = load_model(path)
        assert forest_table(loaded) == forest_table(model)
        np.testing.assert_array_equal(predict(loaded, X), y)

    def test_midpoint_rounding_onto_upper_value_still_splits(self):
        # The midpoint of two adjacent floats can round onto the upper one;
        # the cut then falls on the lower value so both children are
        # non-empty.
        below = 1.0 + 2.0 ** -52
        above = np.nextafter(below, 2.0)
        assert (below + above) / 2.0 == above
        X = np.array([[below], [above]])
        model = fit(ModelSpec(kind="RF", n_trees=1, bootstrap=False),
                    X, [0, 1])
        assert model.threshold[0] == below
        assert model.counts.tolist() == [[1, 1], [1, 0], [0, 1]]
        np.testing.assert_array_equal(predict(model, X), [0, 1])

    def test_rf_beats_nb_on_correlated_features(self):
        # XOR-style classes with duplicated informative columns: the
        # independence assumption breaks NB while trees cope.
        rng = np.random.default_rng(13)
        n = 800
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        y = ((a > 0) ^ (b > 0)).astype(int)
        X = np.column_stack([a, b, a + rng.normal(scale=0.05, size=n),
                             b + rng.normal(scale=0.05, size=n)])
        cut = 600
        rf = fit(ModelSpec(kind="RF", seed=1), X[:cut], y[:cut])
        nb = fit(ModelSpec(kind="NB"), X[:cut], y[:cut])
        rf_acc = (predict(rf, X[cut:]) == y[cut:]).mean()
        nb_acc = (predict(nb, X[cut:]) == y[cut:]).mean()
        assert rf_acc >= nb_acc
        assert rf_acc > 0.9


class TestSerialization:
    @pytest.mark.parametrize("kind", KINDS)
    def test_roundtrip_reproduces_predictions(self, kind, tmp_path):
        rng = np.random.default_rng(17)
        X, y = blobs(rng, n=150, d=3, gap=2.0)
        spec = ModelSpec(kind=kind, n_trees=10, seed=2)
        model = fit(spec, X, y)
        path = tmp_path / f"{kind}.json"
        save_model(model, path)
        loaded = load_model(path)
        queries = rng.normal(size=(60, 3)) + 1.0
        np.testing.assert_array_equal(predict(model, queries),
                                      predict(loaded, queries))
        assert loaded.spec == spec

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99, "kind": "NB", "spec": {}, "state": {}}')
        with pytest.raises(ValidationError):
            load_model(path)
