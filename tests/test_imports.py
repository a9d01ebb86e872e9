"""The package imports nothing outside the standard library (``dependencies = []``)."""

import ast
import sys
from pathlib import Path

import quandlekit

SRC = Path(quandlekit.__file__).resolve().parent


def test_every_absolute_import_is_in_the_standard_library():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []
