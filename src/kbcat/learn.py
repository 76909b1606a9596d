"""Linear SVM with hinge loss and an unregularized bias, plus one-vs-rest
multi-label training and prediction.

The trainer minimizes

    P(w, b) = 0.5 * ||w||^2 + C * sum_i max(0, 1 - y_i (w . x_i + b))

by exact pairwise coordinate steps on the dual (maximal-violating-pair
selection), keeping the equality constraint from the unregularized bias.
The bias is recovered by exact one-dimensional minimization of the hinge
sum, and the duality gap certifies how far the incumbent is from the
optimum. The procedure is deterministic: no randomness is consumed.
Every category trains on the fold's one CSR matrix from ``vectorize``.

Past ``_GRAM_LIMIT`` training points a model computes its Gram rows on
demand, with one CSR matvec each, and keeps the most recently used ones in
an LRU cache of up to ``_GRAM_LIMIT**2`` floats, the dense Gram's own
budget. A cached row is the array the matvec returned, so the rows, and the
model, are the same floats as without the cache. The cache belongs to one
``train_binary_svm`` call: it lives in the worker process that trains the
model when the pool below runs, and in the calling process otherwise.

The categories are independent binary problems. Past ``_GRAM_LIMIT``
training points a model costs far more than a pool's start-up, so on Linux
with more than one CPU in the process's affinity set ``train_one_vs_rest``
trains two or more categories in forked worker processes, one model a task.
The workers inherit the matrix through the fork and run the same
``train_binary_svm``, so the models, and every output made from them, are
byte-identical to the serial loop. The workers are joined before
``train_one_vs_rest`` returns; an exception in one reaches the caller, and
a worker's warnings go to the stderr handler it inherited. Smaller training
sets keep the serial loop, where a pool's start-up would cost more than the
models.
"""

from __future__ import annotations

import logging
import math
import os
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

logger = logging.getLogger(__name__)

_KKT_EPS = 1e-8
# precompute the Gram matrix up to this many points; past it each row is
# computed when needed and each model keeps its recently used rows. Both are
# bounded by _GRAM_LIMIT**2 floats (about 33.5 MB of float64 at 2,048)
_GRAM_LIMIT = 2048


@dataclass
class TrainConfig:
    c: float = 1.0
    tolerance: float = 1e-4  # relative duality-gap threshold
    max_epochs: int = 1000


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float
    objective: float | None = None
    objective_history: list[float] = field(default_factory=list)
    # the trainer's certificate: whether the relative duality gap met the
    # tolerance, and that gap (NaN when unknown, as for a hand-built model)
    certified: bool = False
    rel_gap: float = math.nan


def _best_bias(f: np.ndarray, ya: np.ndarray) -> float:
    # hinge sum over b is piecewise linear with breakpoints y_i - f_i and
    # slope rising by one hinge per breakpoint; the minimum sits at the
    # (number of positives)-th smallest breakpoint
    bps = np.sort(ya - f)
    n_pos = int(np.sum(ya > 0))
    return float(bps[n_pos - 1])


def _primal(f: np.ndarray, ya: np.ndarray, b: float, wsq: float, c: float) -> float:
    margins = ya * (f + b)
    return 0.5 * wsq + c * float(np.maximum(0.0, 1.0 - margins).sum())


def train_binary_svm(
    X: sp.csr_matrix,
    y: list[int],
    cfg: TrainConfig | None = None,
) -> LinearModel:
    """Train one binary classifier on the rows of ``X``; labels must be +1
    or -1.

    Single-class input degenerates to a zero weight vector with the class
    sign as bias (and a warning). Otherwise the returned model's primal
    objective is duality-gap certified to within ``cfg.tolerance``
    relative of the optimum, or a warning gives the final gap when the
    trainer stops short of that (``cfg.max_epochs`` or a zero step). The
    model's ``certified`` and ``rel_gap`` record which of the two happened.
    """
    cfg = cfg or TrainConfig()
    n, dim = X.shape
    if n == 0 or n != len(y):
        raise ValueError("X and y must be non-empty and the same length")
    if any(label not in (-1, 1) for label in y):
        raise ValueError("labels must be +1 or -1")

    classes = set(y)
    if len(classes) == 1:
        sole = y[0]
        logger.warning("single-class training set; returning constant model %+d", sole)
        return LinearModel(weights=np.zeros(dim), bias=float(sole),
                           objective=0.0, objective_history=[0.0],
                           certified=True, rel_gap=0.0)

    c = float(cfg.c)
    ya = np.asarray(y, dtype=np.float64)

    diag = np.asarray(X.multiply(X).sum(axis=1)).ravel()
    snap = 1e-12 * max(1.0, c)

    def snap_bound(value: float) -> float:
        # clear float residue so boxed pairs cannot freeze the loop
        if value < snap:
            return 0.0
        return c if value > c - snap else value

    if n <= _GRAM_LIMIT:
        gram = (X @ X.T).toarray()

        def gram_row(i: int) -> np.ndarray:
            return gram[i]
    else:
        # scatter x_i into a dense work vector and take one CSR matvec: like
        # the sparse product behind the precomputed Gram, it sums each
        # output over that row's stored columns in ascending order, so the
        # rows are bit-identical to the Gram's. The LRU cache holds at least
        # a step's pair of rows, and a hit returns the array the matvec made
        work = np.zeros(dim)
        cache: OrderedDict[int, np.ndarray] = OrderedDict()
        cap = max(2, _GRAM_LIMIT**2 // n)

        def gram_row(i: int) -> np.ndarray:
            row = cache.get(i)
            if row is not None:
                cache.move_to_end(i)
                return row
            start, end = X.indptr[i], X.indptr[i + 1]
            cols = X.indices[start:end]
            work[cols] = X.data[start:end]
            row = X @ work
            work[cols] = 0.0
            if len(cache) >= cap:
                cache.popitem(last=False)
            cache[i] = row
            return row

    alpha = np.zeros(n)
    f = np.zeros(n)  # f_i = w . x_i, maintained incrementally

    pos_mask = ya > 0
    neg_mask = ~pos_mask

    best = {"P": math.inf, "alpha": alpha.copy(), "b": 0.0}
    history: list[float] = []
    converged = False
    certified = False
    rel_gap = math.inf

    for _epoch in range(cfg.max_epochs):
        moved = False
        for _ in range(n):
            F = ya - f
            up = (pos_mask & (alpha < c)) | (neg_mask & (alpha > 0))
            low = (pos_mask & (alpha > 0)) | (neg_mask & (alpha < c))
            if not up.any() or not low.any():
                converged = True
                break
            i = int(np.where(up, F, -np.inf).argmax())
            m_low = float(np.where(low, F, np.inf).min())
            if F[i] - m_low <= _KKT_EPS:
                converged = True
                break

            # second-order working-set selection: among lower candidates
            # pick the one with the largest quadratic gain for the pair
            row_i = gram_row(i)
            diff = F[i] - F
            eta_vec = np.maximum(diag[i] + diag - 2.0 * row_i, 1e-12)
            gain = np.where(low & (diff > 0), diff * diff / eta_vec, -np.inf)
            j = int(gain.argmax())

            eta = float(eta_vec[j])
            if ya[i] != ya[j]:
                lo = max(0.0, alpha[j] - alpha[i])
                hi = min(c, c + alpha[j] - alpha[i])
            else:
                lo = max(0.0, alpha[i] + alpha[j] - c)
                hi = min(c, alpha[i] + alpha[j])

            step = (F[j] - F[i]) * ya[j] / eta  # = y_j (E_i - E_j) / eta
            a_j_new = snap_bound(min(max(alpha[j] + step, lo), hi))
            a_i_new = snap_bound(alpha[i] + ya[i] * ya[j] * (alpha[j] - a_j_new))
            d_i = (a_i_new - alpha[i]) * ya[i]
            d_j = (a_j_new - alpha[j]) * ya[j]
            if d_i == 0.0 and d_j == 0.0:
                break
            alpha[i], alpha[j] = a_i_new, a_j_new
            f += d_i * row_i + d_j * gram_row(j)
            moved = True

        wsq = float((alpha * ya) @ f)
        b = _best_bias(f, ya)
        p_now = _primal(f, ya, b, wsq, c)
        if p_now < best["P"]:
            best = {"P": p_now, "alpha": alpha.copy(), "b": b}
        history.append(best["P"])

        dual = float(alpha.sum()) - 0.5 * wsq
        rel_gap = (p_now - dual) / max(1.0, abs(p_now))
        certified = converged or rel_gap <= cfg.tolerance
        if certified or not moved:
            break

    if not certified:
        logger.warning(
            "SVM stopped uncertified after %d epochs: relative duality gap "
            "%.3g above tolerance %g", len(history), rel_gap, cfg.tolerance)
    w = np.asarray(X.T @ (best["alpha"] * ya)).ravel()
    return LinearModel(weights=w, bias=best["b"],
                       objective=best["P"], objective_history=history,
                       certified=certified, rel_gap=rel_gap)


# the fold's training matrix in a worker process, set by the pool's
# initializer from the matrix the fork copied
_worker_X: sp.csr_matrix | None = None


def _set_worker_matrix(X: sp.csr_matrix) -> None:
    global _worker_X
    _worker_X = X


def _train_in_worker(y: list[int], cfg: TrainConfig | None) -> LinearModel:
    return train_binary_svm(_worker_X, y, cfg)


def train_one_vs_rest(
    X: sp.csr_matrix,
    labels: np.ndarray,
    categories: list[str] | tuple[str, ...],
    cfg: TrainConfig | None = None,
) -> dict[str, LinearModel]:
    """One binary model per category, trained independently on the same
    matrix and returned in category order. ``labels`` is a bool matrix with
    a row per row of ``X`` and a column per category; column j gives
    category j's +1 rows. Categories with no positive example are skipped
    with a warning and have no model.

    Past ``_GRAM_LIMIT`` rows, with two or more categories to train and
    more than one CPU in the affinity set, the models are trained in
    forked worker processes (see the module docstring); they are the same
    bits as the serial loop's.
    """
    if X.shape[0] != labels.shape[0]:
        raise ValueError("X and labels must have the same number of rows")
    names, targets = [], []
    for category, column in zip(categories, labels.T, strict=True):
        if not column.any():
            logger.warning("category %r has no positive examples; skipped", category)
            continue
        names.append(category)
        targets.append(np.where(column, 1, -1).tolist())
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if X.shape[0] > _GRAM_LIMIT and cpus > 1 and len(targets) > 1:
        # imported here so that runs on the serial path do not pay the
        # memory of loading them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork hands X to the workers without pickling it; a task carries
        # only its labels and the config
        with ProcessPoolExecutor(min(len(targets), cpus),
                                 mp_context=multiprocessing.get_context("fork"),
                                 initializer=_set_worker_matrix,
                                 initargs=(X,)) as pool:
            trained = list(pool.map(_train_in_worker, targets, [cfg] * len(targets)))
    else:
        trained = [train_binary_svm(X, y, cfg) for y in targets]
    return dict(zip(names, trained))


def decision_values(models: dict[str, LinearModel], X: sp.csr_matrix) -> np.ndarray:
    """``bias + w . x`` for every row of ``X`` (rows) and model (columns,
    in category order).

    Each value starts from the bias and adds ``w[i] * x[i]`` in ascending
    column order: a leading column of ones on ``X`` meets the biases in
    front of the weights, and the CSR product adds a row's terms in column
    order. ``X @ W.T + b`` would round differently, and a value near 0 can
    flip a label.
    """
    coef = np.column_stack([np.concatenate(([m.bias], m.weights)) for m in models.values()])
    return sp.hstack([np.ones((X.shape[0], 1)), X], format="csr") @ coef


def predict(
    models: dict[str, LinearModel],
    X: sp.csr_matrix,
    mode: str,
    categories: list[str] | tuple[str, ...],
) -> np.ndarray:
    """A bool label matrix in a config ``label_mode``: a row per row of
    ``X``, a column per category. ``multi``: every category with a positive
    decision value (may be none). ``single``: the argmax category, ties
    broken by category order. A category without a model is never
    predicted."""
    if not models:
        raise ValueError("no models to predict with")
    values = decision_values(models, X)
    if mode == "multi":
        hits = values > 0.0
    elif mode == "single":
        hits = values.argmax(axis=1)[:, None] == np.arange(len(models))
    else:
        raise ValueError(f"unknown prediction mode {mode!r}")
    pred = np.zeros((X.shape[0], len(categories)), dtype=bool)
    pred[:, [categories.index(c) for c in models]] = hits
    return pred


def save_models(models: dict[str, LinearModel], path) -> None:
    """One section per category: a header line ``model<TAB>category<TAB>
    bias<TAB>dim`` followed by nonzero ``featureIndex<TAB>weight`` lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for category, model in models.items():
            fh.write(f"model\t{category}\t{float(model.bias)!r}"
                     f"\t{model.weights.shape[0]}\n")
            for i in np.nonzero(model.weights)[0]:
                fh.write(f"{i}\t{float(model.weights[i])!r}\n")

