import dataclasses
import io
import itertools
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knn_oracle
import rf_oracle
from botmeter import classifiers, cli
from botmeter.classifiers import (KINDS, KNNModel, LR_GRAD_TOL, LRModel,
                                  ModelSpec, fit, load_model, lr_loss_and_grad,
                                  predict, save_model)
from botmeter.dataset import FeatureTable, read_feature_csv, train_test_split
from botmeter.demo import make_demo_corpus
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
        for bad in (0.0, np.nan):
            with pytest.raises(ValidationError, match="l2_lambda must be > 0"):
                ModelSpec(kind="LR", l2_lambda=bad)
        with pytest.raises(ValidationError, match="max_iters must be >= 1"):
            ModelSpec(kind="LR", max_iters=0)
        # A node of at most one sample is pure, so 0, 1 and 2 would grow the
        # same forest under different spec bytes.
        for bad in (-5, 0, 1):
            with pytest.raises(ValidationError, match="min_samples_split must be >= 2"):
                ModelSpec(kind="RF", min_samples_split=bad)
        for name in ("k", "n_trees", "min_samples_split", "max_iters", "max_features"):
            for bad in ("5", 5.0, True, np.int64(5), None):
                if name == "max_features" and bad is None:
                    continue
                with pytest.raises(ValidationError, match=f"{name} must be an integer"):
                    ModelSpec(kind="RF", **{name: bad})
        for name in ("var_smoothing", "l2_lambda"):
            for bad in ("1", None, True, [1.0]):
                with pytest.raises(ValidationError, match=f"{name} must be a real number"):
                    ModelSpec(kind="NB", **{name: bad})
        for bad in (1, "true", None, np.bool_(True)):
            with pytest.raises(ValidationError, match="bootstrap must be true or false"):
                ModelSpec(kind="RF", bootstrap=bad)
        # Accepted as they are: ints, None for max_features, any real number.
        ModelSpec(kind="RF", max_features=None, l2_lambda=2, var_smoothing=np.float64(0.5))

    def test_single_class_rejected(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValidationError):
            fit(ModelSpec(kind="NB"), X, [1, 1, 1, 1])

    @pytest.mark.parametrize("y, got", [([0, 0.5, 1], "[0.0, 0.5, 1.0]"),
                                        ([0, 1.9, 1], "[0.0, 1.0, 1.9]"),
                                        ([0, 2, 1], "[0, 1, 2]")])
    def test_labels_other_than_0_and_1_rejected(self, y, got):
        # Checked as given: a cast to int would train 0.5 as 0 and 1.9 as 1.
        with pytest.raises(ValidationError,
                           match=re.escape(f"need both classes 0 and 1 in y (got {got})")):
            fit(ModelSpec(kind="NB"), np.zeros((3, 2)), y)

    def test_bool_and_float_labels_train_as_ints(self):
        X, y = separable_1d(10)
        want = fit(ModelSpec(kind="NB"), X, y)
        for labels in (y.astype(bool), y.astype(np.float64)):
            got = fit(ModelSpec(kind="NB"), X, labels)
            assert_same_state(got, want)

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

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_named(self, kind, bad):
        rng = np.random.default_rng(29)
        X, y = blobs(rng, n=50, d=3)
        model = fit(ModelSpec(kind=kind, n_trees=3), X, y)
        queries = np.zeros((4, 3))
        queries[2, 1] = bad
        with pytest.raises(ValidationError, match="row 2, column 1"):
            predict(model, queries)


@pytest.fixture(scope="module")
def demo_tables(tmp_path_factory):
    """The labeled tables of the demo corpus, whose captures come from
    ``botmeter.synth``."""
    root = tmp_path_factory.mktemp("demo")
    config = cli.load_pipeline_config(make_demo_corpus(root, seed=0))
    tables = []
    for manifest in config.manifests:
        path = root / f"labeled_{manifest.name}.csv"
        cli.extract_and_label(manifest, config.meter, path)
        tables.append(read_feature_csv(path))
    return tables


def lr_gradient_norm(model, X, y):
    """Norm of the objective's full gradient (w and b) at a model's weights."""
    Xs = (np.asarray(X, dtype=float) - model.mu) / model.sigma
    _, grad_w, grad_b = lr_loss_and_grad(model.weights, model.bias, Xs,
                                         np.asarray(y), model.spec.l2_lambda)
    return float(np.linalg.norm(np.append(grad_w, grad_b)))


@st.composite
def lr_problems(draw):
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 6))
    cells = st.one_of(st.sampled_from(GRID),  # duplicates and ties
                      st.floats(-1e3, 1e3, allow_nan=False))
    X = np.array(draw(st.lists(st.lists(cells, min_size=d, max_size=d),
                               min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    y[0], y[1] = 0, 1
    return X, y, draw(st.floats(1e-2, 10.0))


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
        # sigma(-1e-20) rounds to 0.5, so a margin test z >= 0 differs here.
        assert predict(model, [[-1e-20], [-1e-15]]).tolist() == [1, 0]

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

    def test_converges_on_demo_tables(self, demo_tables):
        for table in demo_tables:
            for X in (table.rows, table.rows[:, ::7]):
                model = fit(ModelSpec(kind="LR"), X, table.labels)
                assert 0 < model.n_iters <= 20
                assert model.grad_norm <= LR_GRAD_TOL
                assert model.grad_norm == lr_gradient_norm(model, X, table.labels)

    @settings(max_examples=60, deadline=None)
    @given(lr_problems())
    def test_converges_on_random_problems(self, problem):
        X, y, lam = problem
        model = fit(ModelSpec(kind="LR", l2_lambda=lam), X, y)
        assert model.n_iters < model.spec.max_iters
        assert model.grad_norm <= LR_GRAD_TOL
        assert model.grad_norm == lr_gradient_norm(model, X, y)

    @pytest.mark.parametrize("lam", [0.05, 1.0, 20.0])
    def test_matches_scipy_minimizer(self, demo_tables, lam):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(8)
        X, y = blobs(rng, n=300, d=5, gap=1.0)
        X = np.column_stack([X, X[:, 0]])  # a duplicated column
        problems = [(X, y), (demo_tables[0].rows, demo_tables[0].labels)]
        for X, y in problems:
            model = fit(ModelSpec(kind="LR", l2_lambda=lam), X, y)
            Xs = (X - model.mu) / model.sigma
            d = X.shape[1]

            def objective(theta):
                loss, grad_w, grad_b = lr_loss_and_grad(theta[:d], theta[d],
                                                        Xs, y, lam)
                return loss, np.append(grad_w, grad_b)

            result = optimize.minimize(
                objective, np.zeros(d + 1), jac=True, method="L-BFGS-B",
                options={"maxiter": 100_000, "maxcor": 50, "ftol": 0.0,
                         "gtol": 1e-13})
            np.testing.assert_allclose(model.weights, result.x[:d], rtol=0,
                                       atol=1e-6)
            assert model.bias == pytest.approx(result.x[d], rel=0, abs=1e-6)

    def test_doubling_max_iters_keeps_the_model_file(self, demo_tables, tmp_path):
        rng = np.random.default_rng(9)
        problems = [blobs(rng, gap=1.0)] + [(t.rows, t.labels) for t in demo_tables]
        for i, (X, y) in enumerate(problems):
            files = []
            for cap in (1000, 2000):
                path = tmp_path / f"lr{i}_{cap}.json"
                save_model(fit(ModelSpec(kind="LR", max_iters=cap), X, y), path)
                files.append(path.read_bytes())
            assert files[0] == files[1]

    def test_backtracking_reaches_the_optimum_a_full_step_misses(self,
                                                                monkeypatch):
        # Separable rows and a tiny penalty: one full Newton step raises
        # the loss, so only a shorter step makes progress.
        X = np.array([[5.0, -9.0], [-7.0, 6.0], [-8.0, 1.0], [-9.0, 8.0],
                      [-4.0, -6.0]])
        y = np.array([0, 0, 1, 1, 0])
        spec = ModelSpec(kind="LR", l2_lambda=1e-6)
        model = fit(spec, X, y)
        assert model.grad_norm <= LR_GRAD_TOL
        assert model.n_iters < 30
        # Allowed only t = 1, the fit stalls short of the tolerance.
        monkeypatch.setattr(classifiers, "_MAX_HALVINGS", 1)
        stalled = fit(spec, X, y)
        assert stalled.n_iters < model.n_iters
        assert stalled.grad_norm > 1e-6

    def test_cap_stops_the_fit_and_is_recorded(self, caplog):
        rng = np.random.default_rng(10)
        X, y = blobs(rng, gap=1.0)
        model = fit(ModelSpec(kind="LR", max_iters=1), X, y)
        assert model.n_iters == 1
        assert model.grad_norm > LR_GRAD_TOL
        with caplog.at_level("INFO", logger="botmeter.classifiers"):
            classifiers.log_lr_fit(model, "capped")
            classifiers.log_lr_fit(fit(ModelSpec(kind="LR"), X, y), "full")
        [capped, full] = caplog.records
        assert capped.levelname == "WARNING"
        assert "capped: LR stopped after 1 iterations (max_iters 1)" in capped.message
        assert full.levelname == "INFO"
        assert "full: LR converged in" in full.message


class TestNB:
    def test_zero_variance_hits_smoothing_floor(self):
        X = np.array([[1.0], [1.0], [2.0], [4.0]])
        y = np.array([0, 0, 1, 1])
        spec = ModelSpec(kind="NB")
        model = fit(spec, X, y)
        assert model.means[0, 0] == 1.0
        floor = spec.var_smoothing * X.var(axis=0).max()
        assert model.variances[0, 0] == pytest.approx(floor)

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

    def test_overflowing_queries_match_oracle(self):
        # Finite queries whose squared distances overflow to inf.
        rng = np.random.default_rng(29)
        X, y = blobs(rng, n=50, d=3)
        model = fit(ModelSpec(kind="KNN", k=3), X, y)
        queries = np.array([[1e200, 0.0, 0.0], [-1e300, 1e300, 0.0],
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


def left_children(model):
    """Each node's left child, as ``RFModel`` derives it: ``n_trees`` plus
    twice the splits before the node (meaningful at splits only)."""
    return model.spec.n_trees - 2 + 2 * np.cumsum(model.feature >= 0)


def forest_trees(model):
    """The trees of an RF model, walked from nodes ``0..n_trees - 1``: a
    leaf as (-1, class), and a split as (feature, threshold, left subtree,
    right subtree).  Every node of the table is on exactly one tree."""
    left = left_children(model)
    walked = []

    def walk(i):
        walked.append(i)
        node = (int(model.feature[i]), float(model.threshold[i]))
        if node[0] == -1:
            assert node[1] in (0.0, 1.0)
            return node
        return node + (walk(left[i]), walk(left[i] + 1))

    trees = [walk(root) for root in range(model.spec.n_trees)]
    assert sorted(walked) == list(range(len(model.feature)))
    return trees


def oracle_trees(trees):
    """The oracle's nested trees in ``forest_trees``' form: a leaf's class
    is the majority of its counts, a tie to 0."""
    def convert(node):
        if "counts" in node:
            zeros, ones = node["counts"]
            return (-1, float(ones > zeros))
        return (node["feature"], node["threshold"],
                convert(node["left"]), convert(node["right"]))

    return [convert(tree) for tree in trees]


def assert_same_state(got, want):
    """Every model field after ``spec`` equal, arrays in dtype and shape too."""
    for field in dataclasses.fields(want)[1:]:
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            np.testing.assert_array_equal(a, b)
        else:
            assert a == b, field.name


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


NODE_VALUES = (-1.0, 0.0, 0.5, 1.0, 2.0)


@st.composite
def node_tables(draw):
    """A forest's ``n_trees``, ``n_features``, ``feature`` and ``threshold``
    lists of any length.  Half of them are made to meet the node count
    that loading requires: leaves are appended, or ``n_trees`` set, so that
    there are ``n_trees`` nodes plus two per split."""
    d = draw(st.integers(1, 3))
    n_trees = draw(st.integers(1, 4))
    feature = draw(st.lists(st.integers(-1, d - 1), max_size=24))
    if draw(st.booleans()):
        fill = n_trees + 2 * sum(f >= 0 for f in feature) - len(feature)
        if fill >= 0:
            feature += [-1] * fill
        else:
            n_trees -= fill
    # Half the tables hold only 0.0 and 1.0, which suit leaves and splits alike.
    value = st.sampled_from((0.0, 1.0) if draw(st.booleans()) else NODE_VALUES)
    threshold = draw(st.lists(value, min_size=len(feature), max_size=len(feature)))
    return n_trees, d, feature, threshold


def chi_square_bound(dof):
    """The 99.9% point of the chi-square law with ``dof`` degrees of freedom,
    by the Wilson-Hilferty cube approximation (z = 3.09)."""
    a = 2.0 / (9.0 * dof)
    return dof * (1.0 - a + 3.09 * a ** 0.5) ** 3


def chi_square(counts):
    expected = counts.sum() / counts.size
    return float(((counts - expected) ** 2).sum() / expected)


class TestCounterHash:
    def test_permutation_draws_are_permutations(self):
        # Distinct last keys give distinct words, so the stable argsort of a
        # draw's words never meets a tie.
        for d in range(1, 71):
            for seed, t, k in ((0, 0, 0), (17, 3, 5), (2**63 + 1, 99, 1000)):
                words = classifiers.counter_hash(
                    seed, classifiers.PERMUTATION, t, k, np.arange(d))
                assert len(np.unique(words)) == d
                order = np.argsort(words, kind="stable")
                np.testing.assert_array_equal(np.sort(order), np.arange(d))

    def test_broadcast_equals_one_key_tuple_at_a_time(self):
        grid = classifiers.counter_hash(5, classifiers.BOOTSTRAP,
                                        np.arange(3)[:, None], np.arange(4))
        for t in range(3):
            for i in range(4):
                assert grid[t, i] == classifiers.counter_hash(
                    5, classifiers.BOOTSTRAP, t, i)

    def test_a_level_draw_continues_the_prefix_one_round_per_key(self):
        # How _fit_rf draws a level: (seed, PERMUTATION) hashed once, then
        # one round per key over the pending nodes' (tree, heap index)
        # pairs, broadcast against the columns.  Heap indices at and above
        # 2**63 are the ones a signed cast would break.
        trees = np.array([0, 0, 3, 99, 7, 1], dtype=np.uint64)
        heap = np.array([1, 2**63, 2**63 + 5, 2**64 - 1, 2**63 - 1, 6],
                        dtype=np.uint64)
        columns = np.arange(6, dtype=np.uint64)
        for seed in (0, 11, 2**64 - 1):
            prefix = classifiers.counter_hash(seed, classifiers.PERMUTATION)
            round_ = classifiers._hash_round
            words = round_(round_(round_(prefix, trees), heap)[:, None], columns)
            assert words.shape == (6, 6) and words.dtype == np.uint64
            for i, (t, h) in enumerate(zip(trees.tolist(), heap.tolist())):
                for c in range(6):
                    assert words[i, c] == classifiers.counter_hash(
                        seed, classifiers.PERMUTATION, t, h, c)

    def test_hashing_leaves_the_keys_unchanged(self):
        trees = np.arange(5, dtype=np.uint64) * np.uint64(7)
        heap = np.array([1, 3, 2**63, 2**64 - 1, 12], dtype=np.uint64)
        signed = np.arange(5)
        words = classifiers.counter_hash(1, classifiers.PERMUTATION, signed)
        keys = (trees, heap, signed, words)
        before = [key.copy() for key in keys]
        classifiers.counter_hash(3, classifiers.PERMUTATION, trees, heap, signed)
        classifiers.counter_hash(words, trees[:, None], heap)
        # Same shapes, where a round run in place on an argument could
        # write through to it.
        classifiers._hash_round(words, trees)
        classifiers._hash_round(trees, heap)
        for key, copy in zip(keys, before):
            np.testing.assert_array_equal(key, copy)

    def test_python_ints_are_taken_modulo_2_to_the_64(self):
        assert classifiers.counter_hash(-1, 2) == classifiers.counter_hash(2**64 - 1, 2)
        assert classifiers.counter_hash(2**64 + 3) == classifiers.counter_hash(3)

    @pytest.mark.parametrize("seed", [1.5, "5", None])
    def test_a_seed_that_is_not_an_integer_is_refused(self, seed):
        X, y = separable_1d(5)
        with pytest.raises(ValidationError, match="random keys must be integers"):
            fit(ModelSpec(kind="RF", n_trees=2, seed=seed), X, y)
        table = FeatureTable(["x"], X, y)
        with pytest.raises(ValidationError, match="random keys must be integers"):
            train_test_split(table, 0.8, seed)

    @pytest.mark.parametrize("n", [2, 7, 50, 400])
    def test_bootstrap_rows_are_near_uniform(self, n):
        # About 40,000 draws, n per tree: the row counts must pass a
        # chi-square test at the 99.9% point.
        trees = np.arange(100 * max(1, 400 // n))[:, None]
        rows = classifiers.counter_hash(11, classifiers.BOOTSTRAP, trees,
                                        np.arange(n)) % np.uint64(n)
        counts = np.bincount(rows.ravel().astype(np.int64), minlength=n)
        assert chi_square(counts) < chi_square_bound(n - 1)

    @pytest.mark.parametrize("d", [2, 3, 7, 12])
    def test_permutation_positions_are_near_uniform(self, d):
        # Column c at position j, counted over 300 trees x 20 steps.  For
        # uniform permutations, Pearson's statistic of that d x d table is
        # d / (d - 1) times a chi-square with (d - 1)^2 degrees of freedom.
        words = classifiers.counter_hash(
            3, classifiers.PERMUTATION, np.arange(300)[:, None, None],
            np.arange(20)[None, :, None], np.arange(d))
        order = np.argsort(words, axis=-1, kind="stable").reshape(-1, d)
        counts = np.zeros((d, d), dtype=np.int64)
        np.add.at(counts, (np.broadcast_to(np.arange(d), order.shape), order), 1)
        assert chi_square(counts) * (d - 1) / d < chi_square_bound((d - 1) ** 2)


class TestRF:
    def test_single_stump_on_one_informative_feature(self):
        X = np.array([[-2.0, 7.0], [-1.0, 7.0], [1.0, 7.0], [2.0, 7.0]])
        y = np.array([0, 0, 1, 1])
        model = fit(ModelSpec(kind="RF", n_trees=1, bootstrap=False), X, y)
        # The root, then its left and right leaves.
        assert model.feature.tolist() == [0, -1, -1]
        assert -1.0 <= model.threshold[0] <= 1.0
        assert model.threshold[1:].tolist() == [0.0, 1.0]
        assert (predict(model, X) == y).all()

    def test_majority_vote(self):
        from botmeter.classifiers import RFModel
        # Three single-leaf trees voting 1, 1, 0.
        model = RFModel(ModelSpec(kind="RF", n_trees=3), 1,
                        feature=np.array([-1, -1, -1]),
                        threshold=np.array([1.0, 1.0, 0.0]))
        assert predict(model, [[0.0]])[0] == 1

    def test_same_seed_identical_forest(self):
        rng = np.random.default_rng(11)
        X, y = blobs(rng, n=120, gap=1.5)
        a = fit(ModelSpec(kind="RF", n_trees=12, seed=5), X, y)
        b = fit(ModelSpec(kind="RF", n_trees=12, seed=5), X, y)
        assert forest_trees(a) == forest_trees(b)
        c = fit(ModelSpec(kind="RF", n_trees=12, seed=6), X, y)
        assert forest_trees(c) != forest_trees(a)

    @settings(max_examples=80, deadline=None)
    @given(rf_problems())
    def test_matches_recursive_oracle(self, problem):
        spec, X, y, queries = problem
        model = fit(spec, X, y)
        trees = rf_oracle.fit_forest(spec, X, y)
        assert forest_trees(model) == oracle_trees(trees)
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
        assert forest_trees(model) == oracle_trees(trees)
        np.testing.assert_array_equal(predict(model, queries),
                                      rf_oracle.forest_predict(trees, queries))

    def test_search_batches_follow_the_element_cap(self):
        rng = np.random.default_rng(23)
        X, y = blobs(rng, n=60, gap=1.0)  # 4 columns, 2 examined per node
        spec = ModelSpec(kind="RF", n_trees=12, seed=4)
        whole = fit(spec, X, y)
        batches = []
        split_batch = classifiers._split_batch

        def spy(columns, rows, sizes, *args):
            batches.append((columns.tolist(), rows.tolist(), (sizes * 2).tolist()))
            return split_batch(columns, rows, sizes, *args)

        with mock.patch.object(classifiers, "_RF_SEARCH_ELEMENTS", 64), \
                mock.patch.object(classifiers, "_split_batch", spy):
            capped = fit(spec, X, y)
        assert forest_trees(capped) == forest_trees(whole)
        # Each root (60 samples x 2 columns) is over the cap: the first step
        # runs as one batch per tree, in tree order, each with its tree's
        # bootstrap rows and the column order of heap index 1.
        roots = [([np.argsort(classifiers.counter_hash(
                      4, classifiers.PERMUTATION, t, 1, np.arange(4)),
                      kind="stable").tolist()],
                  (classifiers.counter_hash(4, classifiers.BOOTSTRAP, t,
                                            np.arange(60)) % np.uint64(60)).tolist(),
                  [120])
                 for t in range(12)]
        assert batches[:12] == roots
        assert all(len(elements) == 1 or sum(elements) <= 64
                   for _, _, elements in batches)
        assert any(len(elements) > 1 for _, _, elements in batches)

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
        assert_same_state(loaded, model)
        np.testing.assert_array_equal(predict(loaded, X), y)

    def test_heap_index_wraps_past_depth_63_as_in_the_oracle(self):
        # Alternating labels along x, and the columns x and -x: every split
        # peels one row off an end, so each tree is a chain about 149
        # levels deep, and each node's draw picks the column it cuts.
        # From depth 64 on, the heap indices wrap modulo 2**64.
        x = np.arange(150.0)
        X, y = np.column_stack((x, -x)), np.arange(150) % 2
        spec = ModelSpec(kind="RF", n_trees=3, seed=9, max_features=1,
                         bootstrap=False)
        model = fit(spec, X, y)
        trees = rf_oracle.fit_forest(spec, X, y)
        assert forest_trees(model) == oracle_trees(trees)

        def deep_features(node, depth=0):
            if "feature" not in node:
                return []
            return ([node["feature"]] if depth >= 64 else []) + [
                f for child in (node["left"], node["right"])
                for f in deep_features(child, depth + 1)]

        for tree in trees:
            assert set(deep_features(tree)) == {0, 1}
        np.testing.assert_array_equal(predict(model, X), y)

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
        assert model.feature.tolist() == [0, -1, -1]
        assert model.threshold.tolist() == [below, 0.0, 1.0]
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


_SLICE = classifiers._JSON_SLICE
VERSION = classifiers.MODEL_FORMAT_VERSION


class TestSerialization:
    @pytest.mark.parametrize("n", [0, 1, _SLICE - 1, _SLICE, _SLICE + 1, 2 * _SLICE + 1])
    def test_arrays_in_slices_write_the_bytes_of_one_dumps(self, n):
        rng = np.random.default_rng(n)
        # Floats whose shortest text is easy to get wrong: a signed zero,
        # the least subnormal, the greatest float, the first power of ten
        # written with an exponent, and two that do not end.
        edge_floats = [-0.0, 5e-324, 1.7976931348623157e308, 1e16, 0.1, 1 / 3]
        doc = {"n": n, "state": {
            "floats": rng.normal(size=n),
            "ints": rng.integers(-9, 9, n),
            "pairs": rng.integers(0, 99, (n, 2)),
            "edge_floats": np.resize(edge_floats, n + len(edge_floats)),
            "edge_ints": np.resize([2**63 - 1, -(2**63 - 1)], n + 2),
            "triples": rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-30, 30, (n, 3)),
            "empty": np.zeros(0),
            "empty_pairs": np.zeros((0, 2), dtype=np.int64)}}
        fh = io.StringIO()
        classifiers._write_json(fh, doc)
        assert fh.getvalue() == json.dumps(
            {"n": n, "state": {k: v.tolist() for k, v in doc["state"].items()}})

    def test_a_non_finite_state_array_is_refused_before_the_file_opens(self,
                                                                       tmp_path):
        # The variance of +-1e300 overflows to inf.
        X = np.array([[1e300], [-1e300]] * 4)
        y = np.array([0, 0, 1, 1] * 2)
        with np.errstate(over="ignore"):
            model = fit(ModelSpec(kind="NB"), X, y)
        assert np.isinf(model.variances).all()
        path = tmp_path / "nb.json"
        with pytest.raises(ValidationError, match=re.escape(
                "cannot save NB model: state 'variances' holds a non-finite value")):
            save_model(model, path)
        assert not path.exists()

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

    @pytest.mark.parametrize("kind", KINDS)
    def test_state_is_every_field_after_spec(self, kind, tmp_path):
        rng = np.random.default_rng(19)
        X, y = blobs(rng, n=80, d=3, gap=2.0)
        model = fit(ModelSpec(kind=kind, n_trees=3), X, y)
        path = tmp_path / f"{kind}.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        names = [f.name for f in dataclasses.fields(model)[1:]]
        assert list(doc["state"]) == names
        assert_same_state(load_model(path), model)

    @settings(max_examples=60, deadline=None)
    @given(rf_problems())
    def test_forest_round_trips(self, tmp_path_factory, problem):
        # Forests of single-leaf trees and tables that end in a split's
        # right child both load.
        spec, X, y, queries = problem
        model = fit(spec, X, y)
        path = tmp_path_factory.mktemp("rf") / "rf.json"
        save_model(model, path)
        loaded = load_model(path)
        assert_same_state(loaded, model)
        np.testing.assert_array_equal(predict(loaded, queries),
                                      predict(model, queries))

    @settings(max_examples=300, deadline=None)
    @given(node_tables())
    def test_any_node_table_is_refused_or_predicts_in_bounded_steps(
            self, tmp_path_factory, table):
        n_trees, d, feature, threshold = table
        splits = sum(f >= 0 for f in feature)
        leaves_ok = all(t in (0.0, 1.0) for f, t in zip(feature, threshold) if f < 0)
        valid = len(feature) == n_trees + 2 * splits and leaves_ok
        path = tmp_path_factory.mktemp("rf") / "rf.json"
        path.write_text(json.dumps({
            "format_version": VERSION, "kind": "RF",
            "spec": {"kind": "RF", "n_trees": n_trees},
            "state": {"n_features": d, "feature": feature, "threshold": threshold}}))
        if not valid:
            with pytest.raises(ValidationError) as caught:
                load_model(path)
            assert str(caught.value).startswith(f"{path}: RF model state ")
            return
        model = load_model(path)
        queries = np.array(list(itertools.product(NODE_VALUES, repeat=d)))
        # Each tree's descent, node by node, before predict runs it.
        left = left_children(model)
        votes = np.zeros(len(queries))
        for q, row in enumerate(queries):
            for i in range(n_trees):
                for _ in range(len(feature)):
                    if feature[i] < 0:
                        break
                    i = left[i] + (row[feature[i]] > threshold[i])
                    assert 0 <= i < len(feature)
                assert feature[i] < 0, "no leaf within n_nodes steps"
                votes[q] += threshold[i]
        np.testing.assert_array_equal(predict(model, queries), votes * 2 > n_trees)

    @pytest.mark.parametrize("kind", KINDS)
    def test_missing_or_unknown_state_key_is_refused(self, kind, tmp_path):
        rng = np.random.default_rng(20)
        X, y = blobs(rng, n=80, d=3, gap=2.0)
        path = tmp_path / f"{kind}.json"
        save_model(fit(ModelSpec(kind=kind, n_trees=3), X, y), path)
        doc = json.loads(path.read_text())
        last = list(doc["state"])[-1]
        value = doc["state"].pop(last)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=rf"missing key\(s\) \['{last}'\]"):
            load_model(path)
        doc["state"][last] = value
        doc["state"]["extra"] = [1.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=r"unknown key\(s\) \['extra'\]"):
            load_model(path)

    @pytest.mark.parametrize("kind, edit, key, message", [
        ("NB", {"means": 1, "variances": None}, "means", "expected a 2-D array"),
        ("NB", {"variances": [[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]}, "variances",
         "expected values > 0"),
        ("NB", {"variances": [[1.0, 1.0], [1.0, 1.0]]}, "variances",
         r"expected shape \(2, 3\), got \(2, 2\)"),
        ("NB", {"log_priors": [0.0, float("nan")]}, "log_priors",
         "expected finite numbers"),
        ("KNN", lambda s: s["train_y"].__setitem__(0, 2), "train_y",
         "expected classes 0 and 1 only"),
        ("KNN", lambda s: s["train_x"][0].pop(), "train_x", "expected a 2-D array"),
        ("KNN", {"sigma": ["1", "1", "1"]}, "sigma", "expected numbers, got <U1"),
        ("KNN", {"train_y": [0, 1]}, "train_y", r"expected shape \(80,\), got \(2,\)"),
        ("LR", {"sigma": [1.0, 0.0, 1.0]}, "sigma", "expected values > 0"),
        ("LR", {"weights": []}, "weights", "expected a non-empty array"),
        ("LR", {"bias": "0.5"}, "bias", "expected a finite number"),
        ("LR", {"n_iters": True}, "n_iters", "expected an integer >= 0"),
        ("LR", {"grad_norm": -1.0}, "grad_norm", "expected a finite number >= 0"),
        ("LR", {"grad_norm": float("nan")}, "grad_norm",
         "expected a finite number >= 0"),
        ("LR", {"grad_norm": float("inf")}, "grad_norm",
         "expected a finite number >= 0"),
        # The last node is always a leaf; as a split, its children would be
        # past the end of the table.
        ("RF", lambda s: s["feature"].__setitem__(-1, 0), "feature",
         "expected 2 trees plus two nodes per split"),
        ("RF", lambda s: s.update(feature=[-1] * len(s["feature"])), "feature",
         "expected 2 trees plus two nodes per split"),
        ("RF", lambda s: s["feature"].__setitem__(0, 3), "feature",
         r"expected -1 \(a leaf\) or a column in 0..2"),
        ("RF", lambda s: s["threshold"].__setitem__(-1, 0.5), "threshold",
         "expected class 0.0 or 1.0 at every leaf"),
        ("RF", {"threshold": [True]}, "threshold", "expected shape"),
        ("RF", {"n_features": 0}, "n_features", "expected an integer >= 1"),
    ])
    def test_bad_state_value_is_refused_at_load(self, tmp_path, kind, edit, key,
                                                message):
        rng = np.random.default_rng(21)
        X, y = blobs(rng, n=80, d=3, gap=2.0)
        path = tmp_path / f"{kind}.json"
        save_model(fit(ModelSpec(kind=kind, n_trees=2), X, y), path)
        doc = json.loads(path.read_text())
        load_model(path)
        if callable(edit):
            edit(doc["state"])
        else:
            doc["state"].update(edit)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=message) as caught:
            load_model(path)
        assert str(caught.value).startswith(f"{path}: {kind} model state {key!r}: ")

    def test_bad_spec_value_names_the_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": VERSION, "spec": {"kind": "XX"},
                                    "state": {}}))
        with pytest.raises(ValidationError) as caught:
            load_model(path)
        assert str(caught.value) == f"{path}: model spec: unknown classifier kind 'XX'"

    def test_lr_fit_record_round_trips(self, tmp_path):
        rng = np.random.default_rng(18)
        X, y = blobs(rng, gap=1.0)
        model = fit(ModelSpec(kind="LR"), X, y)
        path = tmp_path / "lr.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == VERSION
        assert "max_iters" not in doc["spec"]
        loaded = load_model(path)
        assert (loaded.n_iters, loaded.grad_norm) == (model.n_iters, model.grad_norm)
        assert 0 < loaded.n_iters and loaded.grad_norm <= LR_GRAD_TOL
        # The previous format, without the gradient norm, is refused.
        doc["format_version"] = 2
        del doc["state"]["grad_norm"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="version 2"):
            load_model(path)

    @pytest.mark.parametrize("version", [3, 4])
    def test_older_forest_formats_are_refused(self, tmp_path, version):
        # Version 4 numbered the nodes as they were made and stored the
        # ``left``, ``counts`` and ``roots`` columns; version 3 numbered
        # each tree in preorder and also stored ``right``.  Their node
        # numbers mean other nodes now.
        rng = np.random.default_rng(22)
        X, y = blobs(rng, n=80, d=3, gap=2.0)
        path = tmp_path / "rf.json"
        model = fit(ModelSpec(kind="RF", n_trees=2), X, y)
        save_model(model, path)
        doc = json.loads(path.read_text())
        leaf = model.feature < 0
        left = np.where(leaf, -1, left_children(model))
        doc["format_version"] = version
        doc["state"].update(left=left.tolist(), counts=[[0, 0]] * len(left),
                            roots=[0, 1])
        if version == 3:
            doc["state"]["right"] = np.where(leaf, -1, left + 1).tolist()
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError,
                           match=rf": unsupported model format version {version}$"):
            load_model(path)

    @pytest.mark.parametrize("text, message", [
        (f'{{"format_version": {VERSION}, "spec": {{"kind": "NB", "bogus": 1}}, '
         '"state": {}}',
         r"model spec: missing key\(s\) \[\], unknown key\(s\) \['bogus'\]"),
        (f'{{"format_version": {VERSION}, "spec": {{"seed": 0}}, "state": {{}}}}',
         r"missing key\(s\) \['kind'\]"),
        (f'{{"format_version": {VERSION}, "state": {{}}}}',
         "model spec must be an object"),
        (f'{{"format_version": {VERSION}, "spec": {{"kind": "NB"}}}}',
         "model state must be an object"),
        (f'[{{"format_version": {VERSION}}}]', "must hold a JSON object"),
        ("not json", "not a JSON model: Expecting value"),
        (b'{"format_version": %d, "spec": "\xff"}' % VERSION,
         "not a JSON model: 'utf-8' codec"),
    ])
    def test_malformed_model_file_is_a_validation_error(self, tmp_path, text,
                                                        message):
        path = tmp_path / "bad.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(ValidationError, match=message) as caught:
            load_model(path)
        assert str(caught.value).startswith(f"{path}: ")

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99, "kind": "NB", "spec": {}, "state": {}}')
        with pytest.raises(ValidationError):
            load_model(path)
