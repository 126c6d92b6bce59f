"""Boosted-tree learner: fit fixtures, numeric oracles, splits, metrics, I/O."""

import hashlib
import json
import math
import os
import random
import signal
import subprocess
import sys
import warnings
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import fit_per_feature, no_child_left, random_store, whole
from srltrace import learner
from srltrace.features import Dataset
from srltrace.learner import (
    GbdtModel,
    TreeNode,
    confusion_counts,
    evaluate,
    fit,
    gain_importance,
    grouped_split,
    load_model,
    model_from_dict,
    model_to_dict,
    permutation_importance,
    predict_logits,
    predict_proba_matrix,
    run_comparison,
    save_model,
    split_students,
)
from srltrace.trace_model import DataError, GbdtParams, InvalidConfig, PipelineConfig


def make_ds(X, y, names=None):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if names is None:
        names = tuple(f"f{j}" for j in range(X.shape[1]))
    keys = tuple((f"s{i:03d}", "q1", 1) for i in range(len(y)))
    return Dataset(keys=keys, feature_names=tuple(names), X=X, y=np.asarray(y, dtype=float))


def random_ds(rng: np.random.Generator, n_rows: int, n_cols: int):
    X = np.round(rng.uniform(0.0, 10.0, size=(n_rows, n_cols)), 2)
    # Inject repeated values so ties and single-value columns get exercised.
    if n_rows >= 4:
        X[0] = X[1]
    y = (rng.uniform(size=n_rows) < 0.5).astype(float)
    return make_ds(X, y)


# ---------------------------------------------------------------------------
# Independent exhaustive split oracle (plain Python loops, same tie-breaks).
# ---------------------------------------------------------------------------

def oracle_best_split(X, g, h, idx, params):
    if len(idx) < 2:
        return None
    lam = params.lambda_l2
    best = None
    for j in range(X.shape[1]):
        vals = [float(X[i, j]) for i in idx]
        order = sorted(range(len(vals)), key=lambda k: (vals[k], k))
        v = [vals[k] for k in order]
        gs = [float(g[idx[k]]) for k in order]
        hs = [float(h[idx[k]]) for k in order]
        total_g = 0.0
        total_h = 0.0
        for a, b in zip(gs, hs):
            total_g += a
            total_h += b
        gl = 0.0
        hl = 0.0
        for i in range(len(v) - 1):
            gl += gs[i]
            hl += hs[i]
            if not v[i] < v[i + 1]:
                continue
            gr = total_g - gl
            hr = total_h - hl
            if hl < params.min_child_weight or hr < params.min_child_weight:
                continue
            gain = 0.5 * (
                gl * gl / (hl + lam) + gr * gr / (hr + lam) - total_g * total_g / (total_h + lam)
            )
            if best is None or gain > best[0]:
                best = (gain, j, (v[i] + v[i + 1]) / 2.0)
    return best


def check_fit_against_oracle(ds, params):
    """Re-derive every fitted split with the exhaustive oracle, bit-exactly."""
    model = fit(ds, params)
    X = np.asarray(ds.X, dtype=float)
    y = np.asarray(ds.y, dtype=float)
    logits = np.full(len(y), model.base_score_logit)
    oracle_gains = {name: 0.0 for name in ds.feature_names}
    for tree in model.trees:
        p = 1.0 / (1.0 + np.exp(-logits))
        g = p - y
        h = p * (1.0 - p)
        stack = [(tree, np.arange(len(y)), 0)]
        while stack:
            node, idx, depth = stack.pop()
            best = oracle_best_split(X, g, h, idx, params) if depth < params.max_depth else None
            if node.is_leaf:
                assert best is None or best[0] <= 0.0
                gsum = float(np.sum(g[idx]))
                hsum = float(np.sum(h[idx]))
                expected = -gsum / (hsum + params.lambda_l2) * params.learning_rate
                assert node.value == pytest.approx(expected, rel=1e-12, abs=1e-15)
            else:
                assert best is not None and best[0] > 0.0
                assert node.feature_index == best[1]
                assert node.threshold == best[2]
                oracle_gains[ds.feature_names[best[1]]] += best[0]
                mask = X[idx, node.feature_index] < node.threshold
                stack.append((node.left, idx[mask], depth + 1))
                stack.append((node.right, idx[~mask], depth + 1))
        # Apply this round's tree before computing the next round's gradients.
        leaf_vals = np.empty(len(y))
        walk = [(tree, np.arange(len(y)))]
        while walk:
            nd, rows = walk.pop()
            if len(rows) == 0:
                continue
            if nd.is_leaf:
                leaf_vals[rows] = nd.value
            else:
                m = X[rows, nd.feature_index] < nd.threshold
                walk.append((nd.left, rows[m]))
                walk.append((nd.right, rows[~m]))
        logits = logits + leaf_vals
    return model, oracle_gains


class TestFit:
    def test_one_class_saturates(self):
        ds = make_ds(np.arange(10.0), np.ones(10))
        model = fit(ds, GbdtParams())
        assert np.all(predict_proba_matrix(model, ds.X) >= 0.99)

    def test_one_dim_threshold_matches_oracle(self):
        X = np.array([0.0] * 5 + [1.0] * 5)
        y = X.copy()
        ds = make_ds(X, y)
        model = fit(ds, GbdtParams())
        pred = (predict_proba_matrix(model, ds.X) >= 0.5).astype(float)
        assert np.array_equal(pred, y)
        root = model.trees[0]
        assert root.feature_index == 0
        assert root.threshold == 0.5

    def test_xor_at_depth_two(self):
        # Slightly unequal corner counts: a perfectly balanced XOR gives every
        # root split exactly zero gain, which the gain<=0 rule refuses.
        corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        X = np.repeat(corners, [25, 25, 25, 24], axis=0)
        y = (X[:, 0] != X[:, 1]).astype(float)
        model = fit(make_ds(X, y), GbdtParams(max_depth=2))
        pred = (predict_proba_matrix(model, X) >= 0.5).astype(float)
        assert np.array_equal(pred, y)

    def test_base_score_is_clamped_logit_of_mean(self):
        ds = make_ds(np.arange(4.0), np.array([0.0, 0.0, 0.0, 1.0]))
        model = fit(ds, GbdtParams(n_rounds=1))
        assert model.base_score_logit == pytest.approx(math.log(0.25 / 0.75))

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError, match="^dataset is empty$"):
            fit(make_ds(np.empty((0, 1)), np.empty(0)), GbdtParams())

    def test_nonbinary_labels_rejected(self):
        with pytest.raises(DataError, match="^labels must be binary 0/1$"):
            fit(make_ds(np.arange(3.0), np.array([0.0, 0.5, 1.0])), GbdtParams())

    def test_nonfinite_features_rejected(self):
        with pytest.raises(DataError, match="^dataset contains non-finite feature values$"):
            fit(make_ds(np.array([0.0, np.nan, 1.0]), np.array([0.0, 1.0, 1.0])), GbdtParams())

    def test_zero_hessian_leaf_without_l2_names_round_and_lambda(self):
        ds = make_ds(np.arange(6.0), np.ones(6))
        params = GbdtParams(n_rounds=50, learning_rate=1.0, lambda_l2=0.0, min_child_weight=0.0)
        with pytest.raises(DataError, match=r"^round 24: .*lambda_l2 = 0\.0,"):
            fit(ds, params)

    def test_rising_training_loss_names_round_losses_and_params(self):
        # A full Newton step without L2 overshoots: the one positive row shares its value with a negative row.
        ds = make_ds([2.0, 3.0, 2.0, 1.0, 0.0, 3.0, 0.0, 1.0, 3.0, 3.0, 2.0], [0.0] * 7 + [1.0] + [0.0] * 3)
        params = GbdtParams(n_rounds=30, learning_rate=1.0, lambda_l2=0.0, min_child_weight=0.0)
        with pytest.raises(DataError, match=(
            r"^round 2: training loss rose from 0\.27990876671790793 to 0\.4097171627484867"
            r" with learning_rate = 1\.0, lambda_l2 = 0\.0, min_child_weight = 0\.0;"
        )):
            fit(ds, params)

    def test_undefined_gains_skipped_without_warnings(self):
        # lambda_l2 = 0 and min_child_weight = 0 let a child's hessian sum be 0, so some gains are 0 / 0;
        # the split search skips them, and the fit warns about none of them.
        ds = make_ds([0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0])
        params = GbdtParams(n_rounds=50, learning_rate=1.0, lambda_l2=0.0, min_child_weight=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit(ds, params)
        model_bytes = (json.dumps(model_to_dict(model)) + "\n").encode()
        assert hashlib.sha256(model_bytes).hexdigest() == (
            "1a3369ae3a689ac9027033dddfe4c6fd0f540925c44ea2e950e3d01de5816788"
        )

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        ds = random_ds(rng, 30, 3)
        a = fit(ds, GbdtParams(n_rounds=20))
        b = fit(ds, GbdtParams(n_rounds=20))
        assert a == b


class TestLossMonotonicity:
    def test_training_loss_never_increases(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            ds = random_ds(rng, int(rng.integers(5, 60)), int(rng.integers(1, 5)))
            model = fit(ds, GbdtParams(n_rounds=30))
            diffs = np.diff(model.train_losses)
            assert np.all(diffs <= 1e-12)


class TestGradientHessianFiniteDifference:
    @staticmethod
    def _loss(z, y):
        p = 1.0 / (1.0 + math.exp(-z))
        return -(y * math.log(p) + (1.0 - y) * math.log(1.0 - p))

    def test_matches_central_differences(self):
        rng = np.random.default_rng(99)
        eps = 1e-3
        for _ in range(100):
            z = float(rng.uniform(-3.0, 3.0))
            y = float(rng.integers(0, 2))
            p = 1.0 / (1.0 + math.exp(-z))
            g = p - y
            h = p * (1.0 - p)
            g_fd = (self._loss(z + eps, y) - self._loss(z - eps, y)) / (2.0 * eps)
            h_fd = (
                self._loss(z + eps, y) - 2.0 * self._loss(z, y) + self._loss(z - eps, y)
            ) / (eps * eps)
            assert g == pytest.approx(g_fd, rel=1e-6, abs=1e-9)
            assert h == pytest.approx(h_fd, rel=1e-6, abs=1e-9)


class TestSplitOracle:
    def test_every_fitted_split_matches_exhaustive_search(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            ds = random_ds(rng, int(rng.integers(4, 31)), int(rng.integers(1, 4)))
            params = GbdtParams(n_rounds=4, max_depth=int(rng.integers(1, 4)))
            model, oracle_gains = check_fit_against_oracle(ds, params)
            got = gain_importance(model)
            for name in ds.feature_names:
                assert got[name] == pytest.approx(oracle_gains[name], rel=1e-12, abs=1e-15)

    def test_heavy_ties_match_exhaustive_search(self):
        # Integer columns with 2-3 distinct values and a single-value column:
        # most rows tie, so the order the presorted lists keep decides the sums.
        rng = np.random.default_rng(17)
        for _ in range(12):
            n = int(rng.integers(4, 41))
            X = np.column_stack([
                rng.integers(0, 2, n), rng.integers(0, 3, n), np.full(n, 4), rng.integers(5, 8, n),
            ]).astype(float)
            y = (rng.uniform(size=n) < 0.3 + 0.2 * X[:, 1]).astype(float)
            ds = make_ds(X, y)
            params = GbdtParams(n_rounds=4, max_depth=int(rng.integers(1, 4)), min_child_weight=0.0)
            model, oracle_gains = check_fit_against_oracle(ds, params)
            got = gain_importance(model)
            assert got["f2"] == 0.0
            for name in ds.feature_names:
                assert got[name] == pytest.approx(oracle_gains[name], rel=1e-12, abs=1e-15)

    def test_tie_breaks_prefer_lowest_feature_then_threshold(self):
        # Two identical columns: identical gains, so feature 0 must win.
        x = np.array([0.0] * 5 + [1.0] * 5)
        ds = make_ds(np.column_stack([x, x]), x)
        model = fit(ds, GbdtParams(n_rounds=1))
        assert model.trees[0].feature_index == 0


# Labels separated by column 0, which shares a block of two with column 1: after enough
# rounds column 0's gains are NaN while column 1's stay finite.
_X_NAN_BESIDE_FINITE = np.zeros((26, 3))
_X_NAN_BESIDE_FINITE[25, 0] = _X_NAN_BESIDE_FINITE[24, 1] = 1.0
_NO_SHRINKAGE = dict(learning_rate=1.0, lambda_l2=0.0, min_child_weight=0.0)


def _fit_outcome(fit_fn, X, y, params):
    """A fit's model file and training losses as text (NaN included), or its error."""
    with np.errstate(divide="ignore", invalid="ignore"):
        try:
            model = fit_fn(make_ds(X, y), params)
        except DataError as exc:
            return str(exc)
    return json.dumps(model_to_dict(model)), repr(model.train_losses)


def check_block_search(X, y, params, block_values):
    """`fit` with blocks of `block_values` values gives what the per-feature reference gives."""
    with mock.patch.object(learner, "BLOCK_VALUES", block_values):
        got = _fit_outcome(fit, X, y, params)
    assert got == _fit_outcome(fit_per_feature, X, y, params)


@st.composite
def _columns(draw, n: int, n_cols: int):
    """Columns of n values: few distinct (heavy ties), one value, a repeat of an earlier column, or spread out."""
    columns = []
    for _ in range(n_cols):
        kind = draw(st.sampled_from(["ties", "constant", "repeat", "spread"]))
        if kind == "repeat" and columns:
            columns.append(columns[draw(st.integers(0, len(columns) - 1))])
        elif kind == "constant":
            columns.append([draw(st.sampled_from([0.0, 2.5]))] * n)
        else:
            value = st.sampled_from([0.0, 1.0, 2.0]) if kind == "ties" else st.integers(-60, 60).map(lambda v: v / 4)
            columns.append(draw(st.lists(value, min_size=n, max_size=n)))
    return np.array(columns, dtype=float).T


@st.composite
def _fit_cases(draw):
    """(X, y, params, BLOCK_VALUES): any shape from 2 rows and 1 feature up, depths 1-5, blocks of any width."""
    n = draw(st.integers(2, 40))
    X = draw(_columns(n, draw(st.integers(1, 6))))
    y = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))
    params = GbdtParams(
        n_rounds=draw(st.integers(1, 6)),
        max_depth=draw(st.integers(1, 5)),
        learning_rate=draw(st.sampled_from([0.1, 0.5, 1.0])),
        lambda_l2=draw(st.sampled_from([0.0, 1.0])),
        min_child_weight=draw(st.sampled_from([0.0, 0.1, 1.0])),
    )
    return X, y, params, draw(st.sampled_from([1, 2 * n, 3 * n, learner.BLOCK_VALUES]))


@st.composite
def _separable_cases(draw):
    """Labels that one column separates, fit with no shrinkage and no regularization, so
    hessians reach exactly 0 and split gains turn NaN or infinite."""
    n = draw(st.integers(4, 30))
    X = draw(_columns(n, draw(st.integers(1, 4))))
    x = X[:, draw(st.integers(0, X.shape[1] - 1))]
    y = (x > np.median(x)).astype(float)
    params = GbdtParams(n_rounds=draw(st.integers(40, 90)), max_depth=draw(st.integers(1, 5)), **_NO_SHRINKAGE)
    return X, y, params, draw(st.sampled_from([1, 2 * n, learner.BLOCK_VALUES]))


class TestBlockSearch:
    """`fit` searches splits a block of features at a time; `helpers.fit_per_feature`,
    one feature at a time, is the reference, and the models must be equal to the bit."""

    @settings(max_examples=200, deadline=None)
    @given(case=_fit_cases())
    @example(case=(np.array([[1.0], [2.0]]), [0.0, 1.0], GbdtParams(n_rounds=2, max_depth=1), 1 << 15))
    @example(case=(np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]), [0.0, 1.0, 1.0], GbdtParams(n_rounds=2), 1))
    def test_equals_per_feature_search(self, case):
        check_block_search(*case)

    @settings(max_examples=40, deadline=None)
    @given(case=_separable_cases())
    @example(case=(np.array([[0.0], [0.0], [0.0], [1.0]]), [0.0, 0.0, 0.0, 1.0],
                   GbdtParams(n_rounds=40, max_depth=1, **_NO_SHRINKAGE), 1))
    @example(case=(_X_NAN_BESIDE_FINITE, _X_NAN_BESIDE_FINITE[:, 0],
                   GbdtParams(n_rounds=44, max_depth=1, **_NO_SHRINKAGE), 52))
    def test_non_finite_gains_skip_the_feature_as_per_feature_search_does(self, case):
        check_block_search(*case)

    def test_wide_dataset_spans_several_blocks(self):
        rng = np.random.default_rng(12)
        n, n_cols = 2400, 16
        assert learner.BLOCK_VALUES // n < n_cols  # the root is at least two blocks
        X = rng.integers(0, 40, size=(n, n_cols)).astype(float)
        X[:, 5] = X[:, 2]
        y = (rng.uniform(size=n) < 0.2 + 0.015 * X[:, 3]).astype(float)
        params = GbdtParams(n_rounds=5, max_depth=4)
        check_block_search(X, y, params, learner.BLOCK_VALUES)


class TestPredict:
    def test_no_trees_base_zero(self):
        model = GbdtModel(0.0, [], ("f0",), GbdtParams())
        assert predict_proba_matrix(model, [[1.0]])[0] == 0.5

    def test_single_leaf_sigmoid(self):
        model = GbdtModel(0.0, [TreeNode(value=2.0)], ("f0",), GbdtParams())
        assert predict_proba_matrix(model, [[0.0]])[0] == pytest.approx(0.8808, abs=1e-4)

    def test_zero_tree_is_identity(self):
        rng = np.random.default_rng(1)
        ds = random_ds(rng, 20, 2)
        model = fit(ds, GbdtParams(n_rounds=5))
        before = predict_logits(model, ds.X).copy()
        model.trees.append(TreeNode(value=0.0))
        assert np.array_equal(predict_logits(model, ds.X), before)

    def test_arity_mismatch(self):
        model = GbdtModel(0.0, [], ("f0", "f1"), GbdtParams())
        with pytest.raises(DataError, match="^expected 2 features, got 1$"):
            predict_proba_matrix(model, [[1.0]])


class TestGroupedSplit:
    def test_ten_students_fraction_point_two(self):
        students = [f"s{i}" for i in range(10)]
        train, test = split_students(students, 0.2, 1)
        assert len(test) == 2 and len(train) == 8
        assert set(train).isdisjoint(test)
        assert set(train) | set(test) == set(students)

    def test_single_student_rejected(self):
        with pytest.raises(DataError, match="^need >= 2 distinct students, got 1$"):
            split_students(["s1", "s1"], 0.2, 1)

    def test_fraction_leaving_no_training_student_rejected(self):
        # ceil(0.6 * 2) == 2 would put both students on the test side.
        with pytest.raises(DataError, match=r"^test_fraction 0\.6 leaves none of 2 students to train on$"):
            split_students(["s1", "s2"], 0.6, 1)

    def test_deterministic(self):
        students = [f"s{i}" for i in range(25)]
        assert split_students(students, 0.3, 42) == split_students(students, 0.3, 42)

    def test_rows_follow_students(self):
        rng = np.random.default_rng(8)
        ds = random_ds(rng, 30, 2)
        train, test = grouped_split(ds, 0.25, 3)
        assert set(train.student_ids).isdisjoint(test.student_ids)
        assert train.n_rows + test.n_rows == ds.n_rows


def _threshold_model():
    """Predicts pass iff feature 0 > 0.5."""
    tree = TreeNode(feature_index=0, threshold=0.5,
                    left=TreeNode(value=-5.0), right=TreeNode(value=5.0))
    return GbdtModel(0.0, [tree], ("f0",), GbdtParams())


class TestEvaluate:
    def test_perfect_predictions(self):
        y = np.array([0.0, 1.0] * 10)
        ds = make_ds(y.copy(), y)
        report = evaluate(_threshold_model(), ds)
        assert report.accuracy == 1.0
        assert report.confusion["fp"] == 0
        assert report.confusion["fn"] == 0

    def test_always_pass_predictor(self):
        y = np.array([1.0] * 12 + [0.0] * 8)
        ds = make_ds(np.zeros(20), y)
        model = GbdtModel(3.0, [], ("f0",), GbdtParams())
        report = evaluate(model, ds)
        assert report.accuracy == pytest.approx(0.6)
        assert report.recall == 1.0
        assert report.precision == pytest.approx(0.6)

    def test_hand_counted_confusion(self):
        # x=1 rows: 8 true passes, 1 true fail; x=0 rows: 9 true fails, 2 passes.
        X = np.array([1.0] * 9 + [0.0] * 11)
        y = np.array([1.0] * 8 + [0.0] * 1 + [0.0] * 9 + [1.0] * 2)
        report = evaluate(_threshold_model(), make_ds(X, y))
        assert report.confusion == {"tp": 8, "fp": 1, "tn": 9, "fn": 2}
        assert report.accuracy == pytest.approx(0.85)
        assert report.precision == pytest.approx(8 / 9)
        assert report.recall == pytest.approx(0.8)

    def test_confusion_sums_to_n(self):
        rng = np.random.default_rng(10)
        ds = random_ds(rng, 40, 2)
        model = fit(ds, GbdtParams(n_rounds=5))
        report = evaluate(model, ds)
        assert sum(report.confusion.values()) == report.n_rows == 40

    def test_confusion_counts_helper(self):
        y_true = np.array([1.0, 0.0, 1.0, 0.0])
        y_pred = np.array([1.0, 1.0, 0.0, 0.0])
        assert confusion_counts(y_true, y_pred) == {"tp": 1, "fp": 1, "tn": 1, "fn": 1}


class TestImportance:
    def test_gain_zero_for_constant_feature(self):
        rng = np.random.default_rng(2)
        X = np.column_stack([rng.uniform(size=30), np.full(30, 7.0)])
        y = (X[:, 0] > 0.5).astype(float)
        model = fit(make_ds(X, y), GbdtParams(n_rounds=10))
        assert gain_importance(model)["f1"] == 0.0

    def test_permutation_zero_for_constant_feature(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([rng.uniform(size=30), np.full(30, 7.0)])
        y = (X[:, 0] > 0.5).astype(float)
        ds = make_ds(X, y)
        model = fit(ds, GbdtParams(n_rounds=10))
        imp = permutation_importance(model, ds, repeats=20, seed=7)
        assert imp["f1"] == 0.0

    def test_perfect_binary_feature_drops_to_chance(self):
        y = np.array([0.0, 1.0] * 20)
        ds = make_ds(y.copy(), y)
        model = fit(ds, GbdtParams(n_rounds=10))
        imp = permutation_importance(model, ds, repeats=20, seed=7)
        assert imp["f0"] == pytest.approx(0.5, abs=0.1)

    def test_permutation_deterministic(self):
        rng = np.random.default_rng(4)
        ds = random_ds(rng, 40, 3)
        model = fit(ds, GbdtParams(n_rounds=10))
        a = permutation_importance(model, ds, repeats=10, seed=5)
        b = permutation_importance(model, ds, repeats=10, seed=5)
        assert a == b

    def test_permutation_rejects_zero_repeats(self):
        ds = random_ds(np.random.default_rng(5), 30, 3)
        model = fit(ds, GbdtParams(n_rounds=5))
        with pytest.raises(InvalidConfig, match="repeats"):
            permutation_importance(model, ds, repeats=0)

    @pytest.mark.parametrize("edit, message", [
        ("label_two", "labels must be binary 0/1"),
        ("nan_feature", "dataset contains non-finite feature values"),
    ], ids=["label_two", "nan_feature"])
    def test_permutation_checks_the_dataset_as_evaluate_does(self, edit, message):
        ds = random_ds(np.random.default_rng(5), 30, 3)
        model = fit(ds, GbdtParams(n_rounds=5))
        X, y = ds.X.copy(), ds.y.copy()
        if edit == "label_two":
            y[y == 1.0] = 2.0
        else:
            X[3, 1] = np.nan
        bad = make_ds(X, y)
        with pytest.raises(DataError, match=whole(message)):
            evaluate(model, bad)
        with pytest.raises(DataError, match=whole(message)):
            permutation_importance(model, bad)

    @pytest.mark.parametrize("edit, columns", [
        ("fewer_columns", ["f0", "f1"]),
        ("renamed_column", ["f0", "f1", "other"]),
    ], ids=["fewer_columns", "renamed_column"])
    def test_permutation_checks_column_names_as_evaluate_does(self, edit, columns):
        ds = random_ds(np.random.default_rng(6), 30, 3)
        model = fit(ds, GbdtParams(n_rounds=5))
        if edit == "fewer_columns":
            bad = make_ds(ds.X[:, :2], ds.y)
        else:
            bad = make_ds(ds.X, ds.y, names=("f0", "f1", "other"))
        message = f"feature columns {columns} differ from the model's ['f0', 'f1', 'f2']"
        for score in (evaluate, permutation_importance):
            with pytest.raises(DataError, match=whole(message)):
                score(model, bad)


def reference_permutation_importance(model, ds, repeats, seed, threshold):
    """The definition: one full predict per shuffled copy of X, same RNG order."""
    X = np.asarray(ds.X, dtype=float)
    y = np.asarray(ds.y, dtype=float)

    def accuracy(M):
        return float(np.mean((predict_proba_matrix(model, M) >= threshold).astype(float) == y))

    base = accuracy(X)
    rng = np.random.default_rng(seed)
    out = {}
    for j, name in enumerate(model.feature_names):
        drops = []
        for _ in range(repeats):
            perm = rng.permutation(len(y))
            Xp = X.copy()
            Xp[:, j] = X[perm, j]
            drops.append(base - accuracy(Xp))
        out[name] = float(np.mean(drops))
    return out


def split_features(tree):
    obj = tree.to_dict()
    stack, used = [obj], set()
    while stack:
        nd = stack.pop()
        if "f" in nd:
            used.add(nd["f"])
            stack += (nd["l"], nd["r"])
    return used


class TestPermutationMatchesDefinition:
    """The batched permutation importance equals the per-repeat definition exactly."""

    @pytest.mark.parametrize("repeats", [1, 20])
    @pytest.mark.parametrize("threshold", [0.3, 0.5])
    def test_random_datasets(self, repeats, threshold):
        rng = np.random.default_rng(31)
        for _ in range(4):
            n = int(rng.integers(5, 80))
            ds = random_ds(rng, n, int(rng.integers(1, 5)))
            # A constant last column: no tree can split on it.
            X = np.column_stack([ds.X, np.full(n, 3.0)])
            ds = make_ds(X, ds.y)
            model = fit(ds, GbdtParams(n_rounds=int(rng.integers(1, 25)), max_depth=int(rng.integers(1, 4))))
            assert all(X.shape[1] - 1 not in split_features(t) for t in model.trees)
            seed = int(rng.integers(0, 1000))
            got = permutation_importance(model, ds, repeats=repeats, seed=seed, threshold=threshold)
            assert got == reference_permutation_importance(model, ds, repeats, seed, threshold)

    @pytest.mark.parametrize("threshold", [0.3, 0.5])
    def test_feature_every_tree_uses(self, threshold):
        rng = np.random.default_rng(32)
        X = np.round(rng.uniform(0.0, 10.0, size=(60, 3)), 1)
        y = ((X[:, 0] > 5.0) ^ (rng.uniform(size=60) < 0.1)).astype(float)
        ds = make_ds(X, y)
        model = fit(ds, GbdtParams(n_rounds=15))
        assert all(0 in split_features(t) for t in model.trees)
        for repeats in (1, 20):
            got = permutation_importance(model, ds, repeats=repeats, seed=3, threshold=threshold)
            assert got == reference_permutation_importance(model, ds, repeats, 3, threshold)

    @pytest.mark.parametrize("repeats", [1, 20])
    def test_two_rows(self, repeats):
        ds = make_ds(np.array([[0.0, 1.0], [1.0, 1.0]]), np.array([0.0, 1.0]))
        model = fit(ds, GbdtParams(n_rounds=5, min_child_weight=0.0))
        assert all(split_features(t) == {0} for t in model.trees)
        for threshold in (0.3, 0.5):
            got = permutation_importance(model, ds, repeats=repeats, seed=9, threshold=threshold)
            assert got == reference_permutation_importance(model, ds, repeats, 9, threshold)

    def test_values_on_thresholds_and_repeated_thresholds(self):
        # Data values equal to thresholds (x < t is False at x == t), and one
        # tree testing the same feature at the same threshold twice.
        leaf = lambda v: TreeNode(value=v)  # noqa: E731
        t1 = TreeNode(feature_index=0, threshold=1.0,
                      left=TreeNode(feature_index=1, threshold=0.5, left=leaf(-2.0), right=leaf(1.0)),
                      right=TreeNode(feature_index=0, threshold=2.0,
                                     left=TreeNode(feature_index=0, threshold=1.0, left=leaf(9.0), right=leaf(0.5)),
                                     right=leaf(-1.5)))
        t2 = TreeNode(feature_index=1, threshold=0.5, left=leaf(0.25), right=leaf(-0.75))
        model = GbdtModel(0.1, [t1, t2], ("f0", "f1"), GbdtParams())
        rng = np.random.default_rng(5)
        X = np.column_stack([rng.integers(0, 4, 50), rng.integers(0, 2, 50)]).astype(float)
        ds = make_ds(X, (rng.uniform(size=50) < 0.5).astype(float))
        for repeats, threshold in ((1, 0.5), (20, 0.3), (20, 0.5)):
            got = permutation_importance(model, ds, repeats=repeats, seed=11, threshold=threshold)
            assert got == reference_permutation_importance(model, ds, repeats, 11, threshold)

    def test_logits_summed_in_tree_order(self):
        # (1 + 1e16) - 1e16 == 0 but 1 + (1e16 - 1e16) == 1: any other order
        # of the three trees moves the logit across the 0.6 threshold.
        split = TreeNode(feature_index=0, threshold=0.5, left=TreeNode(value=1.0), right=TreeNode(value=0.0))
        model = GbdtModel(0.0, [split, TreeNode(value=1e16), TreeNode(value=-1e16)], ("f0",), GbdtParams())
        x = np.array([0.0, 1.0] * 4)
        ds = make_ds(x, 1.0 - x)
        # In tree order every logit is 0, so shuffling f0 changes no prediction.
        assert np.array_equal(predict_logits(model, ds.X), np.zeros(8))
        got = permutation_importance(model, ds, repeats=5, seed=1, threshold=0.6)
        assert got == reference_permutation_importance(model, ds, 5, 1, 0.6) == {"f0": 0.0}

    def test_permuted_leaf_values_match_a_walk_of_the_shuffled_copy(self):
        rng = np.random.default_rng(34)
        for _ in range(5):
            ds = random_ds(rng, int(rng.integers(2, 60)), 3)
            X = np.floor(ds.X)  # few distinct values, so many rows sit in one interval
            model = fit(make_ds(X, ds.y), GbdtParams(n_rounds=8, min_child_weight=0.0))
            perms = np.array([rng.permutation(len(X)) for _ in range(3)])
            for tree in model.trees:
                for j in split_features(tree):
                    got = learner._permuted_values(tree, X, j, perms)
                    for r, perm in enumerate(perms):
                        Xp = X.copy()
                        Xp[:, j] = X[perm, j]
                        assert np.array_equal(got[r], learner._tree_values(tree, Xp))

    def test_walks_each_tree_once_plus_once_per_tested_feature(self, monkeypatch):
        rng = np.random.default_rng(33)
        ds = random_ds(rng, 50, 4)
        model = fit(ds, GbdtParams(n_rounds=12))
        calls = []
        real = learner._tree_values

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(learner, "_tree_values", counting)
        permutation_importance(model, ds, repeats=5, seed=1)
        expected = len(model.trees) + sum(len(split_features(t)) for t in model.trees)
        # One full predict per repeat and feature would be (4 * 5 + 1) * 12 = 252.
        assert expected < (4 * 5 + 1) * len(model.trees)
        assert len(calls) == expected


class TestArgmaxInvariance:
    @pytest.mark.parametrize("scale", [0.25, 2.0, 1024.0, 3.0])
    def test_column_scaling_preserves_predictions(self, scale):
        rng = np.random.default_rng(55)
        ds = random_ds(rng, 40, 3)
        params = GbdtParams(n_rounds=15)
        base_pred = predict_proba_matrix(fit(ds, params), ds.X)
        X2 = ds.X.copy()
        X2[:, 1] *= scale
        ds2 = make_ds(X2, ds.y)
        scaled_pred = predict_proba_matrix(fit(ds2, params), X2)
        assert np.array_equal(base_pred, scaled_pred)


class TestModelSerialization:
    def test_save_load_identity(self, tmp_path):
        rng = np.random.default_rng(6)
        ds = random_ds(rng, 30, 3)
        model = fit(ds, GbdtParams(n_rounds=10))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded == model
        assert np.array_equal(
            predict_proba_matrix(loaded, ds.X), predict_proba_matrix(model, ds.X)
        )

    def test_changed_split_gain_makes_models_differ(self, tmp_path):
        model = fit(random_ds(np.random.default_rng(6), 30, 3), GbdtParams(n_rounds=10))
        obj = model_to_dict(model)
        split = next(t for t in obj["trees"] if "g" in t)
        split["g"] += 1.0
        assert model_from_dict(obj) != model
        assert model_from_dict(model_to_dict(model)) == model

    def test_saved_bytes_stable_after_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        model = fit(random_ds(rng, 20, 2), GbdtParams(n_rounds=5))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_repeated_feature_names_rejected(self):
        obj = model_to_dict(GbdtModel(0.0, [], ("f0", "f1"), GbdtParams()))
        obj["feature_names"] = ["f0", "f0"]
        with pytest.raises(DataError, match="^feature_names repeat 'f0'$"):
            model_from_dict(obj)

    def test_unknown_format_version_rejected(self):
        obj = model_to_dict(GbdtModel(0.0, [], ("f0",), GbdtParams()))
        obj["format_version"] = 999
        with pytest.raises(ValueError):
            model_from_dict(obj)


class TestRunComparison:
    CFG = PipelineConfig(gbdt=GbdtParams(n_rounds=3), importance_repeats=1)

    def _store(self):
        return random_store(random.Random(11), n_students=8)

    def test_one_pass_per_student(self, stream_passes):
        store = self._store()
        run_comparison(store, self.CFG)
        students = {a.student_id for a in store.all_attempts()}
        assert len(stream_passes) == len(students)
        assert sum(stream_passes) == sum(len(store.events_for(s)) for s in students)


def _raise(exc):
    raise exc


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")


@pytest.mark.usefixtures("time_limit")
class TestSideBySide:
    """`run_comparison` runs its baseline branch in a forked child beside the SRL branch."""

    @pytest.fixture(params=["forked", "in turn"])
    def mode(self, request, monkeypatch):
        if request.param == "in turn":
            monkeypatch.delattr(os, "fork", raising=False)
        return request.param

    def test_returns_both_results_in_order(self, mode):
        assert learner._side_by_side(lambda: {"first": 1}, lambda: [2]) == ({"first": 1}, [2])
        assert no_child_left()

    def test_first_error_wins_when_both_fail(self, mode):
        with pytest.raises(DataError, match="^first$"):
            learner._side_by_side(lambda: _raise(DataError("first")), lambda: _raise(DataError("second")))
        assert no_child_left()

    @pytest.mark.parametrize("failing", ["first", "second"])
    def test_one_error_is_raised_as_it_is(self, mode, failing):
        ok = lambda: 1  # noqa: E731
        bad = lambda: _raise(LookupError(failing))  # noqa: E731
        with pytest.raises(LookupError, match=f"^{failing}$"):
            learner._side_by_side(*((bad, ok) if failing == "first" else (ok, bad)))
        assert no_child_left()

    @needs_fork
    def test_child_traceback_is_the_cause(self):
        with pytest.raises(KeyError) as info:
            learner._side_by_side(lambda: {}["missing"], lambda: 1)
        cause = str(info.value.__cause__)
        assert cause.startswith("in the forked child:\nTraceback") and "KeyError: 'missing'" in cause

    @needs_fork
    def test_child_that_dies_names_its_exit_status(self):
        with pytest.raises(ChildProcessError, match="^the forked child ended with exit status 7 before it sent its result$"):
            learner._side_by_side(lambda: os._exit(7), lambda: 1)
        assert no_child_left()

    @needs_fork
    def test_child_killed_by_a_signal_names_it(self):
        with pytest.raises(ChildProcessError, match="ended with signal 9 before"):
            learner._side_by_side(lambda: os.kill(os.getpid(), signal.SIGKILL), lambda: 1)
        assert no_child_left()

    @needs_fork
    def test_child_leaves_the_parents_output_buffers_alone(self):
        script = "from srltrace import learner; print('buffered'); learner._side_by_side(lambda: 1, lambda: 2)"
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "buffered\n")

    @needs_fork
    def test_child_runs_in_another_process(self):
        child_pid, parent_pid = learner._side_by_side(os.getpid, os.getpid)
        assert parent_pid == os.getpid() != child_pid
        assert no_child_left()

    def test_comparison_reports_match_in_turn(self, monkeypatch):
        store, cfg = random_store(random.Random(11), n_students=8), TestRunComparison.CFG
        forked = asdict(run_comparison(store, cfg))
        monkeypatch.delattr(os, "fork", raising=False)
        assert asdict(run_comparison(store, cfg)) == forked
