"""Second-order gradient-boosted trees for binary pass/fail prediction.

Exact greedy split search over midpoints of consecutive distinct sorted
feature values, L2-regularized leaf weights, logistic loss. Everything is
deterministic: ties break toward the lowest feature index, then the lowest
threshold, and all randomness (grouped splits, permutation importance) comes
from NumPy's PCG64 generator seeded explicitly.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import traceback
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .features import BASELINE_FEATURES, Dataset, InvalidDataset, assemble_dataset, feature_columns
from .ingest import TraceStore
from .trace_model import DataError, GbdtParams, InvalidConfig, PipelineConfig, first_repeat, is_finite_number

MODEL_FORMAT_VERSION = 1
BLOCK_VALUES = 1 << 15  # per presorted block of the split search (256 KiB of int64 rows): bounds its scratch arrays


class ArityMismatch(DataError):
    pass


class InsufficientGroups(DataError):
    pass


class InvalidModel(DataError):
    pass


def _finite_float(value, what: str) -> float:
    if not isinstance(value, float) or not is_finite_number(value):
        raise InvalidModel(f"{what} must be a finite float, got {value!r}")
    return value


@dataclass
class TreeNode:
    """Internal node (feature_index/threshold/left/right) or leaf (value)."""

    feature_index: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float | None = None
    gain: float = field(default=0.0, compare=False)  # split gain; training metadata, not serialized

    @property
    def is_leaf(self) -> bool:
        return self.value is not None

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"v": self.value}
        return {
            "f": self.feature_index,
            "t": self.threshold,
            "l": self.left.to_dict(),
            "r": self.right.to_dict(),
        }

    @staticmethod
    def from_dict(obj) -> "TreeNode":
        if isinstance(obj, dict) and obj.keys() == {"v"}:
            return TreeNode(value=_finite_float(obj["v"], "leaf value"))
        if not isinstance(obj, dict) or obj.keys() != {"f", "t", "l", "r"}:
            raise InvalidModel(f"tree node {str(obj)[:60]} has neither the keys {{v}} nor {{f, t, l, r}}")
        if type(obj["f"]) is not int:
            raise InvalidModel(f"feature_index must be an integer, got {obj['f']!r}")
        return TreeNode(
            feature_index=obj["f"],
            threshold=_finite_float(obj["t"], "threshold"),
            left=TreeNode.from_dict(obj["l"]),
            right=TreeNode.from_dict(obj["r"]),
        )


@dataclass
class GbdtModel:
    """Trained ensemble: base logit plus additive per-tree leaf contributions."""

    base_score_logit: float
    trees: list[TreeNode]
    feature_names: tuple[str, ...]
    params: GbdtParams
    train_losses: list[float] = field(default_factory=list, compare=False)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))


def _logloss(y: np.ndarray, p: np.ndarray) -> float:
    p = np.clip(p, 1e-15, 1.0 - 1e-15)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


def _best_split(
    g: np.ndarray, h: np.ndarray, blocks: list[tuple[int, np.ndarray, np.ndarray]], params: GbdtParams
) -> tuple[float, int, float] | None:
    """Best (gain, feature_index, threshold) at this node, or None.

    A block `(j0, rows, vals)` covers features j0, j0 + 1, ...: row f of `rows`
    lists the node's rows in ascending (feature j0 + f, row) order, the order a
    stable argsort gives, and row f of `vals` their values, so each cumulative
    g/h sum is the same fold as a search one feature at a time.
    """
    lam = params.lambda_l2
    best: tuple[float, int, float] | None = None
    for j0, rows, vals in blocks:
        at = np.flatnonzero(vals[:, :-1] < vals[:, 1:])  # every value boundary, in (feature, position) order
        if len(at) == 0:
            continue
        f = at // (rows.shape[1] - 1)
        at += f  # now a flat index into the block
        cg = g.take(rows).cumsum(axis=1)
        ch = h.take(rows).cumsum(axis=1)
        total_g = cg[:, -1].take(f)
        total_h = ch[:, -1].take(f)
        gl = cg.take(at)
        hl = ch.take(at)
        gr = total_g - gl
        hr = total_h - hl
        gains = 0.5 * (
            gl * gl / (hl + lam)
            + gr * gr / (hr + lam)
            - total_g * total_g / (total_h + lam)
        )
        gains = np.where(
            (hl >= params.min_child_weight) & (hr >= params.min_child_weight),
            gains,
            -np.inf,
        )
        k = int(np.argmax(gains))  # first max -> lowest feature, then lowest threshold, on ties
        if not gains[k] < np.inf:
            # NaN or +inf (a zero hessian with lambda_l2 = 0): that feature offers no split.
            for i in range(len(vals)):
                if not gains[f == i].max(initial=0.0) < np.inf:
                    gains[f == i] = -np.inf
            k = int(np.argmax(gains))
        if best is None or gains[k] > best[0]:  # strict -> lowest feature wins; a gain of -inf makes a leaf
            thr = (vals.item(at[k]) + vals.item(at[k] + 1)) / 2.0
            best = (float(gains[k]), j0 + int(f[k]), thr)
    return best


def _leaf_value(g_sum: float, h_sum: float, params: GbdtParams) -> float:
    return -g_sum / (h_sum + params.lambda_l2) * params.learning_rate


def _build_node(
    cols: np.ndarray, g: np.ndarray, h: np.ndarray, idx: np.ndarray,
    blocks: list[tuple[int, np.ndarray, np.ndarray]], depth: int, params: GbdtParams,
) -> TreeNode:
    """Grow the subtree over rows `idx` (ascending); see `_best_split` for `blocks`."""
    if depth < params.max_depth and len(idx) >= 2:
        best = _best_split(g, h, blocks, params)
    else:
        best = None
    if best is None or best[0] <= 0.0:
        return TreeNode(value=_leaf_value(float(np.sum(g[idx])), float(np.sum(h[idx])), params))
    gain, j, thr = best
    goes_left = cols[j] < thr
    children = []
    for side in (goes_left, ~goes_left):
        # compress keeps order and every row of a block holds the same rows, so the
        # child's blocks stay sorted; a child at max_depth is a leaf and needs only its rows.
        child_blocks = []
        for j0, rows, vals in blocks if depth + 1 < params.max_depth else []:
            keep = side.take(rows).ravel()
            child_blocks.append((j0, *(a.compress(keep).reshape(len(rows), -1) for a in (rows, vals))))
        children.append(_build_node(cols, g, h, idx.compress(side[idx]), child_blocks, depth + 1, params))
    left, right = children
    return TreeNode(feature_index=j, threshold=thr, left=left, right=right, gain=gain)


def _tree_values(
    node: TreeNode, X: np.ndarray, j: int | None = None, xj: np.ndarray | None = None
) -> np.ndarray:
    """Each row's leaf value.

    Given `j` and `xj`, the rows are len(xj) // len(X) stacked copies of X
    whose column j reads from `xj` instead.
    """
    out = np.empty(len(X) if xj is None else len(xj), dtype=float)
    stack = [(node, np.arange(len(out)))]
    while stack:
        nd, rows = stack.pop()
        if len(rows) == 0:
            continue
        if nd.is_leaf:
            out[rows] = nd.value
            continue
        # take/compress: 3-5x faster than fancy and boolean indexing on these arrays
        if xj is None:
            vals = X[:, nd.feature_index].take(rows)
        elif nd.feature_index == j:
            vals = xj.take(rows)
        else:
            vals = X[:, nd.feature_index].take(rows % len(X))
        mask = vals < nd.threshold
        stack.append((nd.left, rows.compress(mask)))
        stack.append((nd.right, rows.compress(~mask)))
    return out


def _checked_arrays(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(dataset.X, dtype=float)
    y = np.asarray(dataset.y, dtype=float)
    if len(y) == 0:
        raise InvalidDataset("dataset is empty")
    if not np.all(np.isfinite(X)):
        raise InvalidDataset("dataset contains non-finite feature values")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise InvalidDataset("labels must be binary 0/1")
    return X, y


def _scored_arrays(model: GbdtModel, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """`_checked_arrays` of a dataset whose feature columns are the model's, by name and order."""
    if tuple(dataset.feature_names) != tuple(model.feature_names):
        raise ArityMismatch(
            f"feature columns {list(dataset.feature_names)} differ from the model's {list(model.feature_names)}"
        )
    return _checked_arrays(dataset)


def fit(dataset: Dataset, params: GbdtParams) -> GbdtModel:
    """Train the boosted ensemble; training loss must not increase per round."""
    X, y = _checked_arrays(dataset)
    p0 = min(max(float(np.mean(y)), 1e-6), 1.0 - 1e-6)
    base = math.log(p0 / (1.0 - p0))
    logits = np.full(len(y), base)
    losses = [_logloss(y, _sigmoid(logits))]
    trees: list[TreeNode] = []
    all_rows = np.arange(len(y))
    # Sort each column once; _build_node partitions these blocks down the tree.
    cols = np.ascontiguousarray(X.T)
    order = np.argsort(cols, axis=1, kind="stable")
    values = np.take_along_axis(cols, order, axis=1)
    width = max(1, BLOCK_VALUES // len(y))
    presorted = [(j0, order[j0:j0 + width], values[j0:j0 + width]) for j0 in range(0, len(cols), width)]
    # With lambda_l2 = 0 a child's hessian sum can be 0, so some gains are 0 / 0; _best_split skips them.
    with np.errstate(divide="ignore", invalid="ignore"):
        for round_number in range(1, params.n_rounds + 1):
            p = _sigmoid(logits)
            g = p - y
            h = p * (1.0 - p)
            try:
                root = _build_node(cols, g, h, all_rows, presorted, 0, params)
            except ZeroDivisionError:  # only lambda_l2 = 0 lets a leaf's h_sum + lambda_l2 be 0
                raise DataError(
                    f"round {round_number}: a leaf's rows all have zero hessian and lambda_l2 = {params.lambda_l2},"
                    " so its value is undefined; use lambda_l2 > 0"
                ) from None
            trees.append(root)
            logits = logits + _tree_values(root, X)
            loss = _logloss(y, _sigmoid(logits))
            if loss > losses[-1] + 1e-12:
                raise DataError(
                    f"round {round_number}: training loss rose from {losses[-1]!r} to {loss!r} with learning_rate ="
                    f" {params.learning_rate}, lambda_l2 = {params.lambda_l2}, min_child_weight = {params.min_child_weight};"
                    " the step overshot, so lower learning_rate or raise lambda_l2"
                )
            losses.append(loss)
    return GbdtModel(
        base_score_logit=base,
        trees=trees,
        feature_names=tuple(dataset.feature_names),
        params=params,
        train_losses=losses,
    )


def predict_logits(model: GbdtModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(model.feature_names):
        raise ArityMismatch(
            f"expected {len(model.feature_names)} features, got {X.shape[1] if X.ndim == 2 else 'non-matrix'}"
        )
    logits = np.full(len(X), model.base_score_logit)
    for tree in model.trees:
        logits += _tree_values(tree, X)
    return logits


def predict_proba_matrix(model: GbdtModel, X: np.ndarray) -> np.ndarray:
    return _sigmoid(predict_logits(model, X))


def split_students(
    student_ids, test_fraction: float, seed: int
) -> tuple[list[str], list[str]]:
    """Seeded student-level partition; test side gets ceil(fraction * n), which must leave one to train on."""
    students = sorted(set(student_ids))
    if len(students) < 2:
        raise InsufficientGroups(f"need >= 2 distinct students, got {len(students)}")
    n_test = math.ceil(test_fraction * len(students))
    if n_test >= len(students):
        raise InsufficientGroups(f"test_fraction {test_fraction} leaves none of {len(students)} students to train on")
    rng = np.random.default_rng(seed)  # PCG64
    perm = rng.permutation(len(students))
    test = sorted(students[i] for i in perm[:n_test])
    train = sorted(students[i] for i in perm[n_test:])
    return train, test


def grouped_split(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Split rows by student so no student appears on both sides."""
    train_students, test_students = split_students(dataset.student_ids, test_fraction, seed)
    return dataset.subset_by_students(set(train_students)), dataset.subset_by_students(set(test_students))


@dataclass
class EvalReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    confusion: dict[str, int]
    n_rows: int
    gain_importance: dict[str, float]
    permutation_importance: dict[str, float]
    config: dict | None = None

    def to_dict(self) -> dict:
        out = {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "confusion": self.confusion,
            "n_rows": self.n_rows,
            "feature_importance": {
                "gain": self.gain_importance,
                "permutation": self.permutation_importance,
            },
        }
        if self.config is not None:
            out["config"] = self.config
        return out


def confusion_counts(y_true: np.ndarray, y_pred: np.ndarray) -> dict[str, int]:
    return {
        "tp": int(np.sum((y_pred == 1) & (y_true == 1))),
        "fp": int(np.sum((y_pred == 1) & (y_true == 0))),
        "tn": int(np.sum((y_pred == 0) & (y_true == 0))),
        "fn": int(np.sum((y_pred == 0) & (y_true == 1))),
    }


def _metrics(conf: dict[str, int]) -> tuple[float, float, float, float]:
    tp, fp, tn, fn = conf["tp"], conf["fp"], conf["tn"], conf["fn"]
    n = tp + fp + tn + fn
    accuracy = (tp + tn) / n if n else 0.0
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return accuracy, precision, recall, f1


def _split_nodes(trees: list[TreeNode]):
    """Every internal node of the trees, depth first."""
    stack = list(trees)
    while stack:
        nd = stack.pop()
        if not nd.is_leaf:
            yield nd
            stack += (nd.left, nd.right)


def gain_importance(model: GbdtModel) -> dict[str, float]:
    """Total split gain per feature across all trees (0 for unused features)."""
    totals = {name: 0.0 for name in model.feature_names}
    for nd in _split_nodes(model.trees):
        totals[model.feature_names[nd.feature_index]] += nd.gain
    return totals


def _permuted_values(tree: TreeNode, X: np.ndarray, j: int, perms: np.ndarray) -> np.ndarray:
    """Leaf values of `tree` on X with column j read from rows `perms[r]`, one output row per r.

    Only the thresholds the tree tests feature j against matter, so the tree
    is walked once per interval between them, with column j set to -inf or
    to the interval's lower threshold, and every shuffled row looks its leaf up.
    """
    n = len(X)
    # sorted() rather than np.unique, whose first call imports numpy.ma (about 1 MB of RSS)
    thresholds = np.array(sorted({nd.threshold for nd in _split_nodes([tree]) if nd.feature_index == j}))
    table = _tree_values(tree, X, j, np.repeat(np.concatenate(([-np.inf], thresholds)), n))
    interval = np.searchsorted(thresholds, X[:, j], side="right")
    return table.take((interval * n).take(perms) + np.arange(n))


def permutation_importance(
    model: GbdtModel,
    dataset: Dataset,
    repeats: int = 20,
    seed: int = 7,
    threshold: float = 0.5,
) -> dict[str, float]:
    """Mean accuracy drop from shuffling each feature column, seeded.

    Each tree's leaf values on the unshuffled rows are computed once. For
    feature j the `repeats` shuffles form one batch, and only the trees that
    split on j are walked again (`_permuted_values`); the others add their
    cached values. Logits are summed in tree order, so every row equals what
    `predict_logits` gives for that shuffle.
    """
    if repeats < 1:
        raise InvalidConfig(f"repeats must be >= 1, got {repeats}")
    X, y = _scored_arrays(model, dataset)
    n = len(y)
    cached = [_tree_values(tree, X) for tree in model.trees]
    split_features = [{nd.feature_index for nd in _split_nodes([tree])} for tree in model.trees]

    def accuracy(tree_values, shape) -> np.ndarray:
        logits = np.full(shape, model.base_score_logit)
        for values in tree_values:
            logits += values
        return np.mean((_sigmoid(logits) >= threshold) == y, axis=-1)

    base_acc = accuracy(cached, n)
    rng = np.random.default_rng(seed)
    out: dict[str, float] = {}
    for j, name in enumerate(model.feature_names):
        perms = np.array([rng.permutation(n) for _ in range(repeats)], dtype=np.intp)
        acc = accuracy(
            (
                _permuted_values(tree, X, j, perms) if j in used else values
                for tree, used, values in zip(model.trees, split_features, cached)
            ),
            (repeats, n),
        )
        out[name] = float(np.mean(base_acc - acc))
    return out


def evaluate(
    model: GbdtModel,
    dataset: Dataset,
    decision_threshold: float = 0.5,
    importance_repeats: int = 20,
    importance_seed: int | None = None,
) -> EvalReport:
    """Threshold predictions, compute the confusion matrix and importances."""
    X, y = _scored_arrays(model, dataset)
    pred = (predict_proba_matrix(model, X) >= decision_threshold).astype(float)
    conf = confusion_counts(y, pred)
    accuracy, precision, recall, f1 = _metrics(conf)
    seed = model.params.seed if importance_seed is None else importance_seed
    return EvalReport(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        confusion=conf,
        n_rows=len(y),
        gain_importance=gain_importance(model),
        permutation_importance=permutation_importance(
            model, dataset, repeats=importance_repeats, seed=seed, threshold=decision_threshold
        ),
    )


@dataclass
class ComparisonReport:
    baseline: EvalReport
    srl: EvalReport
    accuracy_delta: float
    split_seed: int
    test_fraction: float
    train_students: list[str]
    test_students: list[str]
    config: dict

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline.to_dict(),
            "srl": self.srl.to_dict(),
            "accuracy_delta": self.accuracy_delta,
            "split": {
                "seed": self.split_seed,
                "test_fraction": self.test_fraction,
                "train_students": self.train_students,
                "test_students": self.test_students,
            },
            "config": self.config,
        }


def _side_by_side(first, second) -> tuple:
    """Return `(first(), second())`, running `first` in a forked child while this process runs `second`.

    The child sends its result, or the exception it raised, back pickled through a pipe and
    leaves through `os._exit`, so it never returns into the caller or flushes its stdio buffers.
    If both raise, `first`'s exception is the one raised, as when they run in turn, which they
    do where `os.fork` does not exist. The child is reaped on every path.
    """
    if not hasattr(os, "fork"):
        return first(), second()
    read_fd, write_fd = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12 warns here when NumPy's BLAS pool makes the process multi-threaded; the
        # child only computes and exits. Raised under -W error, the warning would leave it unreaped.
        warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                outcome = (True, first(), None)
            except Exception as exc:
                outcome = (False, exc, traceback.format_exc())
            with open(write_fd, "wb") as pipe:
                pickle.dump(outcome, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            try:
                mine = (True, second())
            except Exception as exc:
                mine = (False, exc)
            data = pipe.read()
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        how = f"exit status {code}" if code > 0 else f"signal {-code}"
        raise ChildProcessError(f"the forked child ended with {how} before it sent its result")
    ok, theirs, child_traceback = pickle.loads(data)
    if not ok:
        raise theirs from RuntimeError(f"in the forked child:\n{child_traceback}")
    if not mine[0]:
        raise mine[1]
    return theirs, mine[1]


def _fit_and_evaluate(ds: Dataset, train_set: set, test_set: set, cfg: PipelineConfig) -> EvalReport:
    model = fit(ds.subset_by_students(train_set), cfg.gbdt)
    return evaluate(
        model,
        ds.subset_by_students(test_set),
        decision_threshold=cfg.decision_threshold,
        importance_repeats=cfg.importance_repeats,
        importance_seed=cfg.split_seed,
    )


def run_comparison(store: TraceStore, cfg: PipelineConfig) -> ComparisonReport:
    """Train/evaluate baseline and SRL feature sets on one shared student split.

    The branches share nothing after the split, so the baseline's fit and evaluate run in a
    forked child while this process runs the SRL set's (see `_side_by_side`).
    """
    full = assemble_dataset(store, "srl", replace(cfg, srl_only=False))
    base_ds, srl_ds = full.select(BASELINE_FEATURES), full.select(feature_columns("srl", cfg.srl_only))
    train_students, test_students = split_students(
        base_ds.student_ids, cfg.test_fraction, cfg.split_seed
    )
    train_set = set(train_students)
    test_set = set(test_students)

    baseline, srl = _side_by_side(
        lambda: _fit_and_evaluate(base_ds, train_set, test_set, cfg),
        lambda: _fit_and_evaluate(srl_ds, train_set, test_set, cfg),
    )
    return ComparisonReport(
        baseline=baseline,
        srl=srl,
        accuracy_delta=srl.accuracy - baseline.accuracy,
        split_seed=cfg.split_seed,
        test_fraction=cfg.test_fraction,
        train_students=train_students,
        test_students=test_students,
        config=asdict(cfg),
    )


def model_to_dict(model: GbdtModel) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "feature_names": list(model.feature_names),
        "base_score_logit": model.base_score_logit,
        "params": asdict(model.params),
        "trees": [t.to_dict() for t in model.trees],
    }


def model_from_dict(obj) -> GbdtModel:
    """Rebuild a model, rejecting anything `model_to_dict` does not write."""
    expected = {"format_version", "feature_names", "base_score_logit", "params", "trees"}
    if not isinstance(obj, dict) or obj.keys() != expected or obj["format_version"] != MODEL_FORMAT_VERSION:
        raise InvalidModel(f"expected a JSON object with the keys {sorted(expected)} and format_version 1")
    names, params, trees = obj["feature_names"], obj["params"], obj["trees"]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise InvalidModel("feature_names must be a list of strings")
    repeated = first_repeat(names)
    if repeated is not None:
        raise InvalidModel(f"feature_names repeat {repeated!r}")
    if not isinstance(params, dict) or params.keys() != {f.name for f in fields(GbdtParams)}:
        raise InvalidModel(f"params keys must be {[f.name for f in fields(GbdtParams)]}")
    if not isinstance(trees, list):
        raise InvalidModel("trees must be a list")
    try:
        params = GbdtParams(**params)
    except InvalidConfig as exc:
        raise InvalidModel(f"params: {exc}") from None
    trees = [TreeNode.from_dict(t) for t in trees]
    for nd in _split_nodes(trees):
        if not 0 <= nd.feature_index < len(names):
            raise InvalidModel(f"feature_index {nd.feature_index} is out of range for {len(names)} features")
    return GbdtModel(
        base_score_logit=_finite_float(obj["base_score_logit"], "base_score_logit"),
        trees=trees,
        feature_names=tuple(names),
        params=params,
    )


def save_model(model: GbdtModel, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh)
        fh.write("\n")


def load_model(path: str | Path) -> GbdtModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
