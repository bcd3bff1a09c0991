"""The names the benchmark's tracer wraps stay defined where it looks."""

import pytest

from ldebench.tracing import TARGETS


@pytest.mark.parametrize(
    "owner, attr", [(owner, attr) for owner, attr, _, _ in TARGETS], ids=[t[2] for t in TARGETS]
)
def test_target_is_defined_on_its_owner(owner, attr):
    # `Tracer.installed` reads `vars(owner)[attr]`: an inherited name or a
    # removed one would fail there with a KeyError, in the traced run only
    assert callable(vars(owner).get(attr))
