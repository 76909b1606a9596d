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

The gap is checked after every ``min(n, _CHECK_EVERY)`` steps for n
training points: once an epoch of n steps up to 256 points, every 256 steps
past that, so a large problem stops at the first certified 256-step
boundary instead of running to the end of an epoch. Each check finds the
best bias, keeps the best iterate and adds one entry to
``objective_history``. The trainer makes at most ``max_epochs * n`` steps;
the last round is cut short to keep to that budget.

A step picks i, the first index of the largest ``F = y - f`` over the up
set, stops when that F is within ``_KKT_EPS`` of the smallest F over the
low set, and otherwise picks j by the second-order gain (LIBSVM's
working-set selection). The two sets live in two arrays: the labels with
every index outside the up set at -inf, and with every index outside the
low set at +inf. A step sets again only the entries of the two indices it
moves. Subtracting ``f`` from such an array gives F with its masked-out
entries at -inf or +inf, the very floats that rebuilding the mask and
applying it to F gives, so ``argmax`` and ``min`` return the same first
index and value. Outside the low set the gain's difference is -inf and
clips to a gain of 0, below the positive gain of the pair picked. A step
makes 17 whole-array numpy operations.

A model reads its Gram rows from a ``GramRows`` source, which computes a
row when first asked for, with one CSR matvec, and keeps the most recently
used rows in an LRU cache of up to ``_GRAM_LIMIT**2`` floats: every row up
to ``_GRAM_LIMIT`` training points. A cached row is the array the matvec
returned, so the models are the same floats whichever rows the cache
holds. ``train_one_vs_rest`` hands one source to every category of a fold,
so a cached row is computed once for all; each pool worker makes its own.

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
# a fold's Gram rows are cached up to _GRAM_LIMIT**2 floats (about 33.5 MB
# of float64 at 2,048), every row up to this many points; past it the
# categories train in a worker pool
_GRAM_LIMIT = 2048
# the duality gap is checked after every min(n, _CHECK_EVERY) steps
_CHECK_EVERY = 256


@dataclass
class TrainConfig:
    c: float = 1.0
    tolerance: float = 1e-4  # relative duality-gap threshold
    # the step budget is max_epochs * n steps for n training points
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
    # the number of SMO pair updates the trainer made
    steps: int = 0
    # the Gram rows computed by matvec for this model's requests
    gram_rows: int = 0


class GramRows:
    """Rows of ``X @ X.T`` for a training matrix ``X``, each computed when
    first asked for and kept in an LRU cache of up to ``_GRAM_LIMIT**2``
    floats (two rows at least); ``diag`` is the Gram's diagonal."""

    def __init__(self, X: sp.csr_matrix):
        self.X = X
        self.diag = np.asarray(X.multiply(X).sum(axis=1)).ravel()
        self.computed = 0  # rows computed by matvec
        self._cache: OrderedDict[int, np.ndarray] = OrderedDict()

    def __call__(self, i: int) -> np.ndarray:
        row = self._cache.pop(i, None)
        if row is None:
            # x_i as a dense vector times X: like the sparse product X @ X.T,
            # the matvec sums each output over that row's stored columns in
            # ascending order, so the rows are the Gram's bits. A hit
            # returns the array the matvec made
            start, end = self.X.indptr[i], self.X.indptr[i + 1]
            x_i = np.zeros(self.X.shape[1])
            x_i[self.X.indices[start:end]] = self.X.data[start:end]
            row = self.X @ x_i
            self.computed += 1
            if len(self._cache) >= max(2, _GRAM_LIMIT**2 // self.X.shape[0]):
                self._cache.popitem(last=False)
        self._cache[i] = row
        return row


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
    rows: GramRows | None = None,
) -> LinearModel:
    """Train one binary classifier on the rows of ``X``, reading its Gram
    rows from ``rows`` (made anew when None); labels must be +1 or -1.

    Single-class input degenerates to a zero weight vector with the class
    sign as bias (and a warning). Otherwise the returned model's primal
    objective is duality-gap certified to within ``cfg.tolerance``
    relative of the optimum, or a warning gives the final gap when the
    trainer stops short of that (its budget of ``cfg.max_epochs * n`` steps
    or a zero step). The model's ``certified`` and ``rel_gap`` record which
    of the two happened.
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

    rows = rows or GramRows(X)
    first = rows.computed
    snap = 1e-12 * max(1.0, c)

    def snap_bound(value: float) -> float:
        # clear float residue so boxed pairs cannot freeze the loop
        if value < snap:
            return 0.0
        return c if value > c - snap else value

    alpha = np.zeros(n)
    f = np.zeros(n)  # f_i = w . x_i, maintained incrementally
    labels = ya.tolist()

    # the labels with -inf outside the up set and +inf outside the low set,
    # so that F = ya - f masked to either set is one subtraction. A step
    # moves only alpha_i and alpha_j, so only those two entries are set again
    up_y, low_y = np.empty(n), np.empty(n)

    def set_masks(k: int, a: float) -> None:
        y_k = labels[k]
        if y_k > 0:
            up_y[k] = y_k if a < c else -math.inf
            low_y[k] = y_k if a > 0 else math.inf
        else:
            up_y[k] = y_k if a > 0 else -math.inf
            low_y[k] = y_k if a < c else math.inf

    for k in range(n):
        set_masks(k, 0.0)

    best = {"P": math.inf, "alpha": alpha.copy(), "b": 0.0}
    history: list[float] = []
    converged = False
    certified = False
    rel_gap = math.inf
    steps = 0

    # rounds of min(n, _CHECK_EVERY) steps, each closed by a gap check
    per_round = min(n, _CHECK_EVERY)
    budget = cfg.max_epochs * n
    for start in range(0, budget, per_round):
        moved = False
        for _ in range(min(per_round, budget - start)):
            # the masked-out entries are -inf and +inf here too, so argmax
            # and min find the first index and the value that masking finds;
            # an empty set gives F_i = -inf or m_low = +inf and stops the loop
            F_up = up_y - f
            i = int(F_up.argmax())
            F_low = low_y - f
            F_i, m_low = float(F_up[i]), float(F_low.min())
            if F_i - m_low <= _KKT_EPS:
                converged = True
                break

            # second-order working-set selection: among lower candidates
            # pick the one with the largest quadratic gain for the pair.
            # diff is -inf outside low, so every non-candidate scores 0,
            # below the m_low index's gain (its diff is above _KKT_EPS)
            row_i = rows(i)
            diff = F_i - F_low
            eta_vec = np.maximum(rows.diag[i] + rows.diag - 2.0 * row_i, 1e-12)
            gain = np.maximum(diff, 0.0)
            gain *= gain
            gain /= eta_vec
            j = int(gain.argmax())

            eta = float(eta_vec[j])
            y_i, y_j = labels[i], labels[j]
            a_i, a_j = float(alpha[i]), float(alpha[j])
            if y_i != y_j:
                lo = max(0.0, a_j - a_i)
                hi = min(c, c + a_j - a_i)
            else:
                lo = max(0.0, a_i + a_j - c)
                hi = min(c, a_i + a_j)

            # j is in low, where F_low is F: step = y_j (E_i - E_j) / eta
            step = (float(F_low[j]) - F_i) * y_j / eta
            a_j_new = snap_bound(min(max(a_j + step, lo), hi))
            a_i_new = snap_bound(a_i + y_i * y_j * (a_j - a_j_new))
            d_i = (a_i_new - a_i) * y_i
            d_j = (a_j_new - a_j) * y_j
            if d_i == 0.0 and d_j == 0.0:
                break
            alpha[i], alpha[j] = a_i_new, a_j_new
            set_masks(i, a_i_new)
            set_masks(j, a_j_new)
            f += d_i * row_i + d_j * rows(j)
            moved = True
            steps += 1

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
            "SVM stopped uncertified after %d of at most %d steps: relative "
            "duality gap %.3g above tolerance %g", steps, budget, rel_gap,
            cfg.tolerance)
    w = np.asarray(X.T @ (best["alpha"] * ya)).ravel()
    return LinearModel(weights=w, bias=best["b"],
                       objective=best["P"], objective_history=history,
                       certified=certified, rel_gap=rel_gap, steps=steps,
                       gram_rows=rows.computed - first)


# the Gram-row source of the fold's training matrix in a worker process, set
# by the pool's initializer from the matrix the fork copied
_worker_rows: GramRows | None = None


def _set_worker_rows(X: sp.csr_matrix) -> None:
    global _worker_rows
    _worker_rows = GramRows(X)


def _train_in_worker(y: list[int], cfg: TrainConfig | None) -> LinearModel:
    return train_binary_svm(_worker_rows.X, y, cfg, rows=_worker_rows)


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
                                 initializer=_set_worker_rows,
                                 initargs=(X,)) as pool:
            trained = list(pool.map(_train_in_worker, targets, [cfg] * len(targets)))
    else:
        rows = GramRows(X)
        trained = [train_binary_svm(X, y, cfg, rows=rows) for y in targets]
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

