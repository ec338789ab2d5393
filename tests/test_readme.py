import ast
import contextlib
import io
import re
from pathlib import Path

import trailflow

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1, "README should hold one Python example"
    return blocks[0]


def test_readme_example_runs_and_uses_the_package_exports():
    code = _python_block()
    imported = {
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "trailflow"
        for alias in node.names
    }
    assert sorted(imported) == sorted(trailflow.__all__)
    out = io.StringIO()
    namespace: dict = {}
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), namespace)
    trace, tp = namespace["trace"], namespace["tp"]
    assert trace.converged_path == tp.top
    assert out.getvalue().split()[0] == "0>1>4"
