"""Every function that perfbench's tracer wraps exists in the library.

`perfbench/spans.py` names the traced functions by module and attribute
(`TRACED`), and a traced benchmark run looks each one up.  A rename in the
library would otherwise fail only the benchmark's own suite.  spans.py is
loaded from its path, so nothing under perfbench/ needs to be importable
as a package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


TRACED = _load_spans().TRACED


@pytest.mark.parametrize("modname, attr, name", TRACED, ids=[t[2] for t in TRACED])
def test_traced_attribute_resolves(modname, attr, name):
    owner = importlib.import_module(f"arithdyn.{modname}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer replaces the method in the class's own namespace
        assert callable(getattr(owner, cls_name).__dict__[meth])
    else:
        assert callable(getattr(owner, attr))
