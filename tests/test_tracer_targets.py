"""The names the benchmark's tracer wraps stay defined where it looks."""

from collections import Counter

import pytest

import lde.engine
from lde import Engine, EngineConfig
from lde.ngram import Alphabet
from ldebench.tracing import TARGETS

from conftest import model_from_probs, simple_pack


@pytest.mark.parametrize(
    "owner, attr", [(owner, attr) for owner, attr, _, _ in TARGETS], ids=[t[2] for t in TARGETS]
)
def test_target_is_defined_on_its_owner(owner, attr):
    # `Tracer.installed` reads `vars(owner)[attr]`: an inherited name or a
    # removed one would fail there with a KeyError, in the traced run only
    assert callable(vars(owner).get(attr))


def test_detect_calls_the_engine_module_names(monkeypatch):
    # the tracer wraps these three as attributes of `lde.engine`; a detect
    # that reached them another way would leave their spans at 0
    calls = Counter()

    def counting(name):
        fn = getattr(lde.engine, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    names = ("strip_symbols", "context_tokens", "select_language")
    for name in names:
        monkeypatch.setattr(lde.engine, name, counting(name))
    model = model_from_probs(Alphabet((" ", "a", "b")), 0.25)
    engine = Engine([simple_pack(model, tau=-9.0, lexicon_words=("ab",))], EngineConfig(["xx"]))
    engine.detect("Ab ba!", engine.new_state())
    assert calls == Counter(dict.fromkeys(names, 1))
