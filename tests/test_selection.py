import numpy as np
import pytest


from botmeter.classifiers import ModelSpec, fit, predict
from botmeter.dataset import FeatureTable
from botmeter.errors import ValidationError
from botmeter.selection import (RankedFeatureList, derive_universal_set,
                                rank_features_lr)

from name_corpus import REFERENCE_TOP10, UNIVERSAL_SIX


class TestStandardize:
    """KNN and LR standardize internally; ranking passes raw features and
    relies on LR's standardization."""

    def fitted(self, kind, rows, labels):
        return fit(ModelSpec(kind=kind), np.asarray(rows, dtype=float), labels)

    def test_three_value_column(self):
        knn = self.fitted("KNN", [[1.0], [2.0], [3.0]], [0, 1, 1])
        np.testing.assert_allclose(knn.train_x[:, 0], [-1.0, 0.0, 1.0])
        assert knn.mu[0] == 2.0 and knn.sigma[0] == 1.0
        lr = self.fitted("LR", [[1.0], [2.0], [3.0]], [0, 1, 1])
        assert lr.mu[0] == 2.0 and lr.sigma[0] == 1.0

    def test_constant_column_zeroed_and_flagged(self):
        knn = self.fitted("KNN", [[5.0], [5.0], [5.0]], [0, 1, 0])
        np.testing.assert_array_equal(knn.train_x[:, 0], [0.0, 0.0, 0.0])
        assert knn.sigma[0] == 1.0
        table = FeatureTable(["x"], [[5.0], [5.0], [5.0]], labels=[0, 1, 0])
        with pytest.raises(ValidationError, match="0 non-constant"):
            rank_features_lr(table, k=1)

    def constant_tenths(self):
        """(signal, noise, 0.1) rows, the same rows with the constant at 0.0,
        labels, and queries whose constant column holds 0.2."""
        rng = np.random.default_rng(7)
        signal, noise = rng.normal(size=40), rng.normal(size=40)
        rows = np.column_stack([signal, noise, np.full(40, 0.1)])
        zero = rows.copy()
        zero[:, 2] = 0.0
        queries = np.column_stack([rng.normal(size=50), rng.normal(size=50),
                                   np.full(50, 0.2)])
        return rows, zero, (signal > 0).astype(int), queries

    def test_column_of_tenths_is_constant(self):
        # Its sample std is a rounding error above 0, not 0.
        rows, _, labels, _ = self.constant_tenths()
        assert rows.std(axis=0, ddof=1)[2] > 0
        table = FeatureTable(["signal", "noise", "const"], rows, labels=labels)
        assert rank_features_lr(table, k=2).names() == ["signal", "noise"]
        with pytest.raises(ValidationError, match="k=3 must be within the 2 "
                                                  "non-constant features"):
            rank_features_lr(table, k=3)

    @pytest.mark.parametrize("kind", ["KNN", "LR"])
    def test_constant_column_standardizes_to_zeros(self, kind):
        # Where the constant sits does not matter, so a query off it moves
        # no prediction.
        rows, zero, labels, queries = self.constant_tenths()
        model = self.fitted(kind, rows, labels)
        assert (model.mu[2], model.sigma[2]) == (0.1, 1.0)
        if kind == "KNN":
            np.testing.assert_array_equal(model.train_x[:, 2], 0.0)
        else:
            assert model.weights[2] == 0.0
        np.testing.assert_array_equal(
            predict(model, queries),
            predict(self.fitted(kind, zero, labels), queries))

    @pytest.mark.parametrize("kind", ["KNN", "LR"])
    def test_column_whose_std_underflows_is_left_unscaled(self, kind):
        # Two values, but their squared deviations underflow to 0.
        model = self.fitted(kind, [[-1.0, 0.0], [-1.0, 1.75583285e-302]], [0, 1])
        assert model.sigma.tolist() == [1.0, 1.0]

    def test_idempotent_on_standardized_input(self):
        rng = np.random.default_rng(0)
        labels = [0, 1] * 20
        once = self.fitted("KNN", rng.normal(size=(40, 2)), labels).train_x
        again = self.fitted("KNN", once, labels).train_x
        np.testing.assert_allclose(again, once, atol=1e-9)
        assert abs(again.mean(axis=0)).max() < 1e-9
        np.testing.assert_allclose(again.std(axis=0, ddof=1), 1.0, atol=1e-9)

    def test_empty_table_rejected(self):
        with pytest.raises(ValidationError):
            rank_features_lr(FeatureTable(["x"], np.empty((0, 1)),
                                          labels=np.empty(0)), k=1)
        with pytest.raises(ValidationError):
            fit(ModelSpec(kind="LR"), np.empty((0, 1)), np.empty(0))


def labeled_table(rng, informative, noise, n=300):
    """y depends on the sign of each informative column; noise columns are
    pure Gaussian."""
    signal = rng.normal(size=(n, len(informative)))
    y = (signal.sum(axis=1) > 0).astype(int)
    cols = list(informative) + list(noise)
    X = np.hstack([signal, rng.normal(size=(n, len(noise)))])
    return FeatureTable(cols, X, labels=y)


class TestRankFeatures:
    def test_informative_feature_dominates(self):
        rng = np.random.default_rng(1)
        table = labeled_table(rng, ["A"], ["B", "C"])
        ranked = rank_features_lr(table, k=1)
        assert ranked.names() == ["A"]
        model_weights = dict(ranked.ranked)
        assert model_weights["A"] > 0

    def test_k_equal_to_feature_count_returns_permutation(self):
        rng = np.random.default_rng(2)
        table = labeled_table(rng, ["A"], ["B", "C", "D"])
        ranked = rank_features_lr(table, k=4)
        assert sorted(ranked.names()) == ["A", "B", "C", "D"]
        scores = [s for _, s in ranked.ranked]
        assert scores == sorted(scores, reverse=True)

    def test_duplicated_column_splits_weight_under_l2(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=400)
        y = (x > 0).astype(int)
        table = FeatureTable(["A", "A2", "N"],
                             np.column_stack([x, x, rng.normal(size=400)]),
                             labels=y)
        ranked = rank_features_lr(table, k=2)
        assert set(ranked.names()) == {"A", "A2"}
        scores = dict(ranked.ranked)
        assert abs(scores["A"] - scores["A2"]) < 1e-3

    def test_constant_features_never_ranked(self):
        rng = np.random.default_rng(4)
        table = labeled_table(rng, ["A"], ["B"])
        with_const = FeatureTable(table.columns + ["CONST"],
                                  np.hstack([table.rows, np.ones((table.n_rows, 1))]),
                                  labels=table.labels)
        ranked = rank_features_lr(with_const, k=2)
        assert "CONST" not in ranked.names()
        with pytest.raises(ValidationError):
            rank_features_lr(with_const, k=3)  # only 2 non-constant features

    def test_single_class_rejected(self):
        table = FeatureTable(["A"], [[1.0], [2.0]], labels=[1, 1])
        with pytest.raises(ValidationError):
            rank_features_lr(table, k=1)

    def test_row_permutation_invariance(self):
        # Full-batch training makes rank order independent of row order up
        # to float summation jitter; separated ranks must not move.
        rng = np.random.default_rng(5)
        table = labeled_table(rng, ["A", "B"], ["C", "D"])
        perm = rng.permutation(table.n_rows)
        shuffled = FeatureTable(table.columns, table.rows[perm],
                                table.labels[perm])
        base = rank_features_lr(table, k=4)
        moved = rank_features_lr(shuffled, k=4)
        assert base.names()[:2] == moved.names()[:2]
        assert set(base.names()) == set(moved.names())
        for (_, a), (_, b) in zip(base.ranked, moved.ranked):
            assert a == pytest.approx(b, abs=1e-9)

    def test_affine_rescaling_keeps_rank_names(self):
        rng = np.random.default_rng(6)
        table = labeled_table(rng, ["A", "B"], ["C", "D"])
        rescaled_rows = table.rows.copy()
        rescaled_rows[:, 0] = rescaled_rows[:, 0] * 37.5 - 12.0
        rescaled = FeatureTable(table.columns, rescaled_rows, table.labels)
        base_names = rank_features_lr(table, k=4).names()
        new_names = rank_features_lr(rescaled, k=4).names()
        assert base_names == new_names


class TestUniversalSet:
    def ranked(self, name, names):
        return RankedFeatureList(name, tuple((n, 1.0) for n in names))

    def test_reference_lists_give_the_six_features(self):
        lists = [self.ranked(ds, names) for ds, names in REFERENCE_TOP10.items()]
        result = derive_universal_set(lists, threshold=2)
        assert dict(result.counts) == UNIVERSAL_SIX
        assert len(result.features) == 6
        assert result.features[0] == "Average Packet Size"  # count 3, name asc
        assert result.features[1] == "Packet Length Mean"

    def test_threshold_three_keeps_only_two(self):
        lists = [self.ranked(ds, names) for ds, names in REFERENCE_TOP10.items()]
        result = derive_universal_set(lists, threshold=3)
        assert set(result.features) == {"Packet Length Mean", "Average Packet Size"}

    def test_identical_lists_count_everywhere(self):
        names = REFERENCE_TOP10["CICIDS-17"]
        result = derive_universal_set([self.ranked(str(i), names) for i in range(3)],
                                      threshold=2)
        assert len(result.features) == 10
        assert all(count == 3 for _, count in result.counts)

    def test_disjoint_lists_empty(self):
        lists = [self.ranked("a", ["Flow Duration"]),
                 self.ranked("b", ["Flow IAT Mean"])]
        assert derive_universal_set(lists, threshold=2).features == ()

    def test_list_order_and_alias_respelling_invariance(self):
        lists = [self.ranked(ds, names) for ds, names in REFERENCE_TOP10.items()]
        respelled = [self.ranked("x", ["Packet Length Mean" if n == "Pkt Len Mean"
                                       else n for n in REFERENCE_TOP10["IoT-23"]]),
                     lists[1], lists[2]]
        a = derive_universal_set(lists, threshold=2)
        b = derive_universal_set(list(reversed(lists)), threshold=2)
        c = derive_universal_set(respelled, threshold=2)
        assert a.counts == b.counts == c.counts

    def test_bad_threshold(self):
        with pytest.raises(ValidationError):
            derive_universal_set([self.ranked("a", ["x"])], threshold=0)
        # A threshold above the number of lists is one no feature can reach.
        lists = [self.ranked("a", ["x"]), self.ranked("b", ["x"])]
        assert derive_universal_set(lists, threshold=2).features == ("x",)
        with pytest.raises(ValidationError, match=r"^threshold must be within "
                           r"1\.\.2 \(the number of ranked lists\), got 3$"):
            derive_universal_set(lists, threshold=3)
