import ast
import pathlib

import fgl

SOURCES = sorted(pathlib.Path(fgl.__file__).parent.glob("*.py"))


def test_no_assert_or_runtime_error_in_library():
    # every library failure is an FGLError subclass; an assert vanishes
    # under python -O and a RuntimeError escapes the CLI's exit-2 handler
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno} assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "RuntimeError":
                    found.append(f"{path.name}:{node.lineno} raise RuntimeError")
    assert SOURCES
    assert found == []
