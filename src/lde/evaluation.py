"""Context-level evaluation on word-tagged code-switched test sets.

Intra-sentential mode replays each sentence word by word, detecting the
language of every growing prefix exactly the way the engine sees typing;
inter-sentential mode makes one detection per full sentence against its
majority gold label.  Both produce per-language precision/recall/F1, a
confusion matrix, and the test set's code-switch rate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator, Sequence

from .engine import Engine


@dataclass
class TaggedSentence:
    """One test sentence: (word, gold language) per token."""

    id: str
    tokens: list[tuple[str, str]]

    def words(self) -> list[str]:
        return [word for word, _ in self.tokens]


@dataclass
class EvalReport:
    precision: dict[str, float]
    recall: dict[str, float]
    f1: dict[str, float]
    macro_f1: float
    accuracy: float
    confusion: dict[str, dict[str, int]]
    total: int
    code_switch_rate: float

    def to_json(self) -> dict:
        """Every field by name, in order, with `total` as `total_contexts`."""
        return {
            "total_contexts" if f.name == "total" else f.name: getattr(self, f.name)
            for f in fields(self)
        }


def code_switch_rate(sentences: Iterable[TaggedSentence]) -> float:
    """Percentage of adjacent same-sentence token pairs that switch language."""
    pairs = 0
    switches = 0
    for sentence in sentences:
        labels = [gold for _, gold in sentence.tokens]
        for a, b in zip(labels, labels[1:]):
            pairs += 1
            if a != b:
                switches += 1
    if pairs == 0:
        return 0.0
    return 100.0 * switches / pairs


def _check_labels(sentences: Sequence[TaggedSentence], engine: Engine) -> None:
    known = set(engine.languages)
    for sentence in sentences:
        for _, gold in sentence.tokens:
            if gold not in known:
                raise ValueError(
                    f"sentence {sentence.id!r}: gold label {gold!r} "
                    f"is not an evaluated language"
                )


def _finish(
    confusion: dict[str, dict[str, int]], total: int, switch_rate: float
) -> EvalReport:
    languages = sorted(
        set(confusion) | {pred for row in confusion.values() for pred in row}
    )
    tp = {lang: confusion.get(lang, {}).get(lang, 0) for lang in languages}
    gold_count = {lang: sum(confusion.get(lang, {}).values()) for lang in languages}
    pred_count = {
        lang: sum(row.get(lang, 0) for row in confusion.values()) for lang in languages
    }
    precision = {}
    recall = {}
    f1 = {}
    for lang in languages:
        p = tp[lang] / pred_count[lang] if pred_count[lang] else 0.0
        r = tp[lang] / gold_count[lang] if gold_count[lang] else 0.0
        precision[lang] = p
        recall[lang] = r
        f1[lang] = 2.0 * p * r / (p + r) if (p + r) > 0 else 0.0
    macro = sum(f1.values()) / len(f1) if f1 else 0.0
    correct = sum(tp.values())
    return EvalReport(
        precision=precision,
        recall=recall,
        f1=f1,
        macro_f1=macro,
        accuracy=correct / total if total else 0.0,
        confusion=confusion,
        total=total,
        code_switch_rate=switch_rate,
    )


def _evaluate(
    sentences: Sequence[TaggedSentence],
    engine: Engine,
    cases: Callable[[TaggedSentence], Iterable[tuple[str, str]]],
) -> EvalReport:
    """Detect the text of every (text, gold) pair `cases` gives for each
    sentence, with the engine state reset for every sentence, so sentence
    order never affects the report."""
    if not sentences:
        raise ValueError("empty test set")
    _check_labels(sentences, engine)
    confusion: dict[str, dict[str, int]] = {}
    total = 0
    for sentence in sentences:
        state = engine.new_state()
        for text, gold in cases(sentence):
            language = engine.detect(text, state).language
            row = confusion.setdefault(gold, {})
            row[language] = row.get(language, 0) + 1
            total += 1
    return _finish(confusion, total, code_switch_rate(sentences))


def _prefixes(sentence: TaggedSentence) -> Iterator[tuple[str, str]]:
    words = sentence.words()
    for k, (_, gold) in enumerate(sentence.tokens, start=1):
        yield " ".join(words[:k]), gold


def eval_intra(sentences: Sequence[TaggedSentence], engine: Engine) -> EvalReport:
    """Per-word detection over growing sentence prefixes.

    The first token is evaluated with a one-token context.
    """
    return _evaluate(sentences, engine, _prefixes)


def majority_label(sentence: TaggedSentence) -> str:
    """Most frequent gold label; ties go to the earlier first occurrence."""
    # a Counter keeps first-seen order, and max keeps the first of a tie
    counts = Counter(gold for _, gold in sentence.tokens)
    return max(counts, key=counts.__getitem__)


def eval_inter(sentences: Sequence[TaggedSentence], engine: Engine) -> EvalReport:
    """One detection per full sentence against its majority gold label."""
    return _evaluate(
        sentences,
        engine,
        lambda sentence: [(" ".join(sentence.words()), majority_label(sentence))],
    )


def read_tagged_tsv(path) -> list[TaggedSentence]:
    """Parse a test set: `sentence_id<TAB>token<TAB>gold_lang` per line,
    blank line between sentences."""
    sentences: list[TaggedSentence] = []
    current: list[tuple[str, str]] = []
    current_id: str | None = None
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                if current:
                    sentences.append(TaggedSentence(id=current_id, tokens=current))
                    current = []
                    current_id = None
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(
                    f"{path}:{line_no}: expected 3 tab-separated fields, "
                    f"got {len(parts)}"
                )
            sid, token, gold = parts
            if not token or not gold:
                raise ValueError(f"{path}:{line_no}: empty token or label")
            if current_id is None:
                current_id = sid
            elif sid != current_id:
                raise ValueError(
                    f"{path}:{line_no}: sentence id changed from {current_id!r} "
                    f"to {sid!r} without a blank line"
                )
            current.append((token, gold))
    if current:
        sentences.append(TaggedSentence(id=current_id, tokens=current))
    return sentences
