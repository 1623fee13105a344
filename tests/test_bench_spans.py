"""Every span the benchmark traces still names a function or method.

bench/run.py is read with ast, not imported: importing it pins the BLAS
thread variables for the whole test session. Each name is resolved the
way bench/tracer.py resolves it, so a refactor that renames or moves a
traced span fails here before it breaks the benchmark.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _spans() -> dict[str, list[str]]:
    tree = ast.parse(BENCH_RUN.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANS assignment in {BENCH_RUN}")


SPANS = [f"{layer}.{qual}" for layer, quals in _spans().items() for qual in quals]


def test_spans_are_listed():
    assert len(SPANS) > 0
    assert len(set(SPANS)) == len(SPANS)


@pytest.mark.parametrize("span", SPANS)
def test_traced_span_resolves(span):
    layer, _, qual = span.partition(".")
    home = importlib.import_module(f"splitmark.{layer}")
    owner_name, _, attr = qual.rpartition(".")
    if owner_name:
        # Methods are replaced on their class: the tracer reads the class's
        # own __dict__, so an inherited or renamed method is a KeyError.
        owner = getattr(home, owner_name)
        assert inspect.isclass(owner)
        assert inspect.isfunction(owner.__dict__.get(attr)), f"{qual} is not a plain method"
    else:
        # Functions are replaced under every module attribute bound to them.
        assert inspect.isfunction(getattr(home, attr, None)), f"{layer}.{attr} is not a function"
