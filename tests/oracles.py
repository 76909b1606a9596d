"""Independent brute-force oracles the test suite checks the real
implementations against. Each oracle re-derives its result from first
principles and deliberately avoids the production code paths."""

from __future__ import annotations

import math

import numpy as np

from kbcat.kbindex import (
    FieldedQuery,
    FieldName,
    Occur,
    RangeBody,
    Term,
)
from kbcat.textproc import DELIMITER_CHARS
from synth import KnowledgeRecord


def _split_tokens(text: str) -> list[str]:
    out = []
    word = []
    for ch in text:
        if ch.isspace() or ch in DELIMITER_CHARS:
            if word:
                out.append("".join(word).lower())
                word = []
        else:
            word.append(ch)
    if word:
        out.append("".join(word).lower())
    return out


def _record_field_terms(record: KnowledgeRecord, fname: FieldName) -> list[str]:
    if fname is FieldName.CONTENTS:
        return _split_tokens(record.contents)
    if fname is FieldName.WIKI_TITLE:
        return _split_tokens(record.title)
    if fname is FieldName.TYPES:
        return ["".join(item.split()).lower() for item in record.entity_types]
    items = {
        FieldName.REDIRECTS: record.redirects,
        FieldName.CATEGORIES: record.categories,
        FieldName.LINKED_CONCEPTS: record.linked_concepts,
    }[fname]
    terms: list[str] = []
    for item in items:
        terms.extend(_split_tokens(item))
    return terms


def _norm_term(text: str) -> str:
    stripped = text.strip(DELIMITER_CHARS).lower()
    return stripped or text.lower()


def brute_force_search(
    records: list[KnowledgeRecord], query: FieldedQuery, n: int
) -> list[tuple[str, float]]:
    """Score every record exhaustively with a from-scratch evaluation of
    the practical scoring formula, then filter and rank."""
    n_records = len(records)
    field_cache = {
        r.title: {f: _record_field_terms(r, f) for f in FieldName if f is not FieldName.PAGE_RANK}
        for r in records
    }

    def term_matches(record: KnowledgeRecord, clause) -> bool:
        term = _norm_term(clause.body.text)
        if clause.field is FieldName.PAGE_RANK:
            return term.lstrip("-").isdecimal() and record.page_rank == int(term)
        return term in field_cache[record.title][clause.field]

    def clause_matches(record: KnowledgeRecord, clause) -> bool:
        if isinstance(clause.body, RangeBody):
            return clause.body.lo <= record.page_rank <= clause.body.hi
        return term_matches(record, clause)

    def df(fname: FieldName, term: str) -> int:
        return sum(1 for r in records if term in field_cache[r.title][fname])

    scored = []
    for record in records:
        positive = [c for c in query.clauses if c.occur is not Occur.MUST_NOT]
        term_positive = [c for c in positive if isinstance(c.body, Term)]
        if not any(clause_matches(record, c) for c in term_positive):
            continue
        if any(c.occur is Occur.MUST and not clause_matches(record, c)
               for c in query.clauses):
            continue
        if any(c.occur is Occur.MUST_NOT and clause_matches(record, c)
               for c in query.clauses):
            continue
        matched = [c for c in positive if clause_matches(record, c)]
        coord = len(matched) / len(positive)
        total = 0.0
        for clause in matched:
            if not isinstance(clause.body, Term):
                continue
            if clause.field not in (FieldName.CONTENTS, FieldName.WIKI_TITLE):
                continue
            term = _norm_term(clause.body.text)
            terms = field_cache[record.title][clause.field]
            tf = terms.count(term)
            idf = 1.0 + math.log(n_records / (df(clause.field, term) + 1))
            total += math.sqrt(tf) * idf * idf / math.sqrt(len(terms))
        scored.append((record.title, coord * total))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:n]


def svm_primal_objective(X: np.ndarray, y: np.ndarray, w: np.ndarray,
                         b: float, c: float) -> float:
    margins = y * (X @ w + b)
    return 0.5 * float(w @ w) + c * float(np.maximum(0.0, 1.0 - margins).sum())


def _project_box_hyperplane(v: np.ndarray, y: np.ndarray, c: float) -> np.ndarray:
    """Exact Euclidean projection onto {0 <= a <= C, y . a = 0} for labels
    in {-1, +1}: find theta with g(theta) = y . clip(v - theta*y, 0, C) = 0.
    g is continuous, piecewise linear, and non-increasing; locate the
    crossing by scanning its breakpoints."""
    pos = y > 0
    bps = np.sort(np.concatenate([
        v[pos] - c, v[pos], -v[~pos], c - v[~pos]
    ]))
    g_vals = (np.clip(v[None, pos] - bps[:, None], 0.0, c).sum(axis=1)
              - np.clip(v[None, ~pos] + bps[:, None], 0.0, c).sum(axis=1))
    k = int(np.searchsorted(-g_vals, 0.0, side="left"))
    if k >= len(bps):
        theta = bps[-1]
    elif g_vals[k] == 0.0 or k == 0:
        theta = bps[k]
    else:
        g_hi, g_lo = g_vals[k - 1], g_vals[k]
        theta = bps[k - 1] + (bps[k] - bps[k - 1]) * g_hi / (g_hi - g_lo)
    return np.clip(v - theta * y, 0.0, c)


def svm_projected_gradient_oracle(
    X: np.ndarray, y: np.ndarray, c: float, iters: int = 20_000
) -> tuple[np.ndarray, float, float]:
    """Independent dense solver: accelerated projected gradient on the dual
    box QP with exact projection, then an exhaustive breakpoint scan for
    the bias. Returns (w, b, objective)."""
    n = len(y)
    ym = y[:, None] * X
    Q = ym @ ym.T
    step = 1.0 / max(float(np.linalg.norm(Q, 2)), 1e-12)

    def dual_value(a: np.ndarray) -> float:
        return float(a.sum() - 0.5 * a @ Q @ a)

    alpha = np.zeros(n)
    momentum = alpha.copy()
    t_acc = 1.0
    best_alpha, best_dual = alpha.copy(), dual_value(alpha)
    prev = best_dual
    stall = 0
    for _ in range(iters):
        nxt = _project_box_hyperplane(momentum - step * (Q @ momentum - 1.0), y, c)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc))
        momentum = nxt + ((t_acc - 1.0) / t_next) * (nxt - alpha)
        alpha, t_acc = nxt, t_next
        value = dual_value(alpha)
        if value < prev:
            # adaptive restart keeps the acceleration from overshooting
            momentum = alpha.copy()
            t_acc = 1.0
        prev = value
        if value > best_dual + 1e-14 * max(1.0, abs(best_dual)):
            best_dual, best_alpha = value, alpha.copy()
            stall = 0
        else:
            stall += 1
            if stall > 3000:
                break

    alpha = best_alpha
    w = X.T @ (alpha * y)
    f = X @ w
    best_b, best_loss = 0.0, math.inf
    for b in np.unique(y - f):
        loss = float(np.maximum(0.0, 1.0 - y * (f + b)).sum())
        if loss < best_loss:
            best_loss, best_b = loss, float(b)
    return w, best_b, 0.5 * float(w @ w) + c * best_loss


def contingency_by_enumeration(
    gold: list[set[str]], pred: list[set[str]], categories: list[str]
) -> dict[str, dict[str, int]]:
    """Plain nested-loop tally of the four contingency cells."""
    table = {}
    for c in categories:
        tp = fp = fn = tn = 0
        for g, p in zip(gold, pred):
            if c in g and c in p:
                tp += 1
            elif c in p:
                fp += 1
            elif c in g:
                fn += 1
            else:
                tn += 1
        table[c] = {"tp": tp, "fp": fp, "fn": fn, "tn": tn}
    return table


def micro_macro_by_enumeration(
    gold: list[set[str]], pred: list[set[str]], categories: list[str]
) -> tuple[float, float]:
    table = contingency_by_enumeration(gold, pred, categories)
    tp = sum(v["tp"] for v in table.values())
    fp = sum(v["fp"] for v in table.values())
    fn = sum(v["fn"] for v in table.values())
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    micro = 2 * p * r / (p + r) if p + r else 0.0
    f_scores = []
    for v in table.values():
        cp = v["tp"] / (v["tp"] + v["fp"]) if v["tp"] + v["fp"] else 0.0
        cr = v["tp"] / (v["tp"] + v["fn"]) if v["tp"] + v["fn"] else 0.0
        f_scores.append(2 * cp * cr / (cp + cr) if cp + cr else 0.0)
    macro = sum(f_scores) / len(f_scores)
    return micro, macro


def reference_smo(X, y: list[int], c: float, tolerance: float = 1e-4,
                  max_epochs: int = 1000):
    """The mask-based SMO trainer: a plain transcription of the step loop
    that rebuilt the up and low sets from alpha at every step, on a dense
    Gram, with the same bias, certificate and best-iterate bookkeeping.
    The gap is checked after every min(n, 256) steps, and at most
    max_epochs * n steps are made. Returns (weights, bias,
    objective_history, certified, rel_gap, steps) for two-class labels of
    +1 and -1."""
    n = X.shape[0]
    ya = np.asarray(y, dtype=np.float64)
    diag = np.asarray(X.multiply(X).sum(axis=1)).ravel()
    gram = (X @ X.T).toarray()
    snap = 1e-12 * max(1.0, c)

    def snap_bound(value: float) -> float:
        if value < snap:
            return 0.0
        return c if value > c - snap else value

    def best_bias(f: np.ndarray) -> float:
        bps = np.sort(ya - f)
        return float(bps[int(np.sum(ya > 0)) - 1])

    def primal(f: np.ndarray, b: float, wsq: float) -> float:
        return 0.5 * wsq + c * float(np.maximum(0.0, 1.0 - ya * (f + b)).sum())

    alpha = np.zeros(n)
    f = np.zeros(n)
    pos_mask = ya > 0
    neg_mask = ~pos_mask
    best_p, best_alpha, best_b = math.inf, alpha.copy(), 0.0
    history: list[float] = []
    converged = certified = False
    rel_gap = math.inf
    steps = 0
    budget, per_round = max_epochs * n, min(n, 256)
    rounds = [per_round] * (budget // per_round)
    if budget % per_round:
        rounds.append(budget % per_round)
    for round_steps in rounds:
        moved = False
        for _ in range(round_steps):
            F = ya - f
            up = (pos_mask & (alpha < c)) | (neg_mask & (alpha > 0))
            low = (pos_mask & (alpha > 0)) | (neg_mask & (alpha < c))
            if not up.any() or not low.any():
                converged = True
                break
            i = int(np.where(up, F, -np.inf).argmax())
            m_low = float(np.where(low, F, np.inf).min())
            if F[i] - m_low <= 1e-8:
                converged = True
                break
            diff = F[i] - F
            eta_vec = np.maximum(diag[i] + diag - 2.0 * gram[i], 1e-12)
            gain = np.where(low & (diff > 0), diff * diff / eta_vec, -np.inf)
            j = int(gain.argmax())
            eta = float(eta_vec[j])
            if ya[i] != ya[j]:
                lo = max(0.0, alpha[j] - alpha[i])
                hi = min(c, c + alpha[j] - alpha[i])
            else:
                lo = max(0.0, alpha[i] + alpha[j] - c)
                hi = min(c, alpha[i] + alpha[j])
            step = (F[j] - F[i]) * ya[j] / eta
            a_j_new = snap_bound(min(max(alpha[j] + step, lo), hi))
            a_i_new = snap_bound(alpha[i] + ya[i] * ya[j] * (alpha[j] - a_j_new))
            d_i = (a_i_new - alpha[i]) * ya[i]
            d_j = (a_j_new - alpha[j]) * ya[j]
            if d_i == 0.0 and d_j == 0.0:
                break
            alpha[i], alpha[j] = a_i_new, a_j_new
            f += d_i * gram[i] + d_j * gram[j]
            moved = True
            steps += 1
        wsq = float((alpha * ya) @ f)
        b = best_bias(f)
        p_now = primal(f, b, wsq)
        if p_now < best_p:
            best_p, best_alpha, best_b = p_now, alpha.copy(), b
        history.append(best_p)
        rel_gap = (p_now - (float(alpha.sum()) - 0.5 * wsq)) / max(1.0, abs(p_now))
        certified = converged or rel_gap <= tolerance
        if certified or not moved:
            break
    w = np.asarray(X.T @ (best_alpha * ya)).ravel()
    return w, best_b, history, certified, rel_gap, steps
