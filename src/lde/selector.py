"""Per-language selector: 1-D logistic regression reduced to one threshold.

Raw emission log-probabilities from different languages are not directly
comparable (smaller alphabets score systematically higher), so each
language trains a scalar regression w*x + b on its own emission feature.
The accepted-language test  w*x + b >= log 0.5  collapses algebraically to
x - tau >= log 0.5  with  tau = ((w - 1)*log 2 - b) / w,  which is what
ships: inference is a single subtraction per language.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .ngram import TrigramModel

LOG_HALF = math.log(0.5)

LEARNING_RATE = 0.1
MAX_EPOCHS = 5000
CONVERGENCE_TOL = 1e-7


@dataclass(frozen=True)
class SelectorParams:
    language: str
    weight: float
    bias: float
    epochs: int = 0
    final_loss: float = float("nan")


@dataclass(frozen=True)
class Threshold:
    language: str
    tau: float


def negative_quotas(
    languages: Sequence[str], target: str, negatives: int
) -> dict[str, int]:
    """Split the negative budget as evenly as possible among non-target
    languages; earlier-registered languages absorb any remainder."""
    others = [lang for lang in languages if lang != target]
    if not others:
        raise ValueError("need at least two languages to build negatives")
    share, extra = divmod(negatives, len(others))
    return {lang: share + (1 if i < extra else 0) for i, lang in enumerate(others)}


def build_training_set(
    lexicons: Mapping[str, Sequence[str]],
    models: Mapping[str, TrigramModel],
    target: str,
    positives: int,
    negatives: int,
) -> list[tuple[float, int]]:
    """Labeled scalar rows for one language's selector.

    Positive rows are the target language's own vocabulary; negative rows
    are drawn from the other languages, split as evenly as possible among
    them.  The feature is always the word's log-probability under the
    *target* model.
    """
    if target not in lexicons:
        raise ValueError(f"unknown target language {target!r}")
    target_words = lexicons[target]
    if len(target_words) < positives:
        raise ValueError(
            f"language {target!r} has only {len(target_words)} words, "
            f"need {positives}"
        )

    quotas = negative_quotas(list(lexicons), target, negatives)
    for lang, quota in quotas.items():
        if len(lexicons[lang]) < quota:
            raise ValueError(
                f"language {lang!r} has only {len(lexicons[lang])} words, "
                f"need {quota}"
            )

    model = models[target]
    rows = [(model.word_log_prob(w), 1) for w in target_words[:positives]]
    for lang, quota in quotas.items():
        rows.extend((model.word_log_prob(w), 0) for w in lexicons[lang][:quota])
    return rows


def train_selector(
    rows: Sequence[tuple[float, int]],
    language: str = "",
    learning_rate: float = LEARNING_RATE,
    max_epochs: int = MAX_EPOCHS,
    tol: float = CONVERGENCE_TOL,
) -> SelectorParams:
    """Fit (w, b) by batch gradient descent on binary cross-entropy.

    The problem is one-dimensional and convex; plain full-batch descent
    from zero init is deterministic and entirely adequate.  The returned
    (w, b) always apply to raw emission log-probabilities, which is what
    the threshold reduction requires.
    """
    x_raw = np.asarray([row[0] for row in rows], dtype=np.float64)
    y = np.asarray([row[1] for row in rows], dtype=np.float64)
    if len(x_raw) == 0:
        raise ValueError("empty training set")
    if y.min() == y.max():
        raise ValueError("single-class training set")

    # Descent runs on centered/scaled features purely for conditioning
    # (log-prob features sit far from zero); the fitted line is refolded
    # onto the raw scale below and stays exactly equivalent.
    mean = float(x_raw.mean())
    std = float(x_raw.std())
    if std == 0.0:
        std = 1.0
    x = (x_raw - mean) / std

    w = 0.0
    b = 0.0
    n = len(x)
    epoch = 0
    for epoch in range(1, max_epochs + 1):
        z = np.clip(w * x + b, -500.0, 500.0)
        p = 1.0 / (1.0 + np.exp(-z))
        residual = p - y
        dw = float(residual @ x) / n
        db = float(residual.sum()) / n
        new_w = w - learning_rate * dw
        new_b = b - learning_rate * db
        if abs(new_w - w) < tol and abs(new_b - b) < tol:
            w, b = new_w, new_b
            break
        w, b = new_w, new_b

    # w*(x-mean)/std + b  ==  (w/std)*x + (b - w*mean/std)
    b = b - w * mean / std
    w = w / std

    if w <= 0.0:
        raise ValueError("selector degenerate")

    z = np.clip(w * x_raw + b, -500.0, 500.0)
    p = np.clip(1.0 / (1.0 + np.exp(-z)), 1e-12, 1.0 - 1e-12)
    loss = float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
    return SelectorParams(
        language=language, weight=w, bias=b, epochs=epoch, final_loss=loss
    )


def reduce_parameters(params: SelectorParams) -> Threshold:
    """Collapse (w, b) into the single per-language threshold tau."""
    if params.weight <= 0.0:
        raise ValueError("weight must be positive to reduce")
    tau = ((params.weight - 1.0) * math.log(2.0) - params.bias) / params.weight
    return Threshold(language=params.language, tau=tau)


def adjusted_log_prob(emission: float, threshold: Threshold) -> float:
    """On-device score: one subtraction per language."""
    return emission - threshold.tau


def select_language(
    adjusted: Mapping[str, float], fallback: str
) -> tuple[str, bool]:
    """Pick the best language whose adjusted score clears log 0.5.

    Ties go to the earlier entry in `adjusted`'s iteration order (language
    registration order).  If nothing clears the bar the caller's fallback
    wins, flagged so downstream code knows the evidence was weak.
    """
    if not adjusted:
        raise ValueError("no scores to select from")
    best_lang = None
    best_score = -math.inf
    for lang, score in adjusted.items():
        if score >= LOG_HALF and score > best_score:
            best_lang = lang
            best_score = score
    if best_lang is None:
        return fallback, False
    return best_lang, True
