"""Every example script imports cleanly.

The examples run only by hand, so a renamed or deleted library name
would otherwise break them silently.  Each one keeps its work behind a
``__main__`` guard, so importing it runs nothing but its imports.
"""

import importlib.util
import os

import pytest

EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples"
)


@pytest.mark.parametrize(
    "filename",
    sorted(f for f in os.listdir(EXAMPLES) if f.endswith(".py")),
)
def test_example_imports(filename):
    path = os.path.join(EXAMPLES, filename)
    spec = importlib.util.spec_from_file_location(
        "example_" + filename[:-3], path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
