"""The README's Python runs: every ```python block executes, and each expression
line ending in `# <number>` evaluates to exactly that number."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
NUMBER_COMMENT = re.compile(r"#\s*([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*$")


def test_readme_python_blocks_run_and_give_their_numbers():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert blocks
    checked = 0
    for block in blocks:
        lines = block.splitlines()
        namespace = {}
        for stmt in ast.parse(block).body:
            m = NUMBER_COMMENT.search(lines[stmt.end_lineno - 1])
            if isinstance(stmt, ast.Expr) and m:
                value = eval(compile(ast.Expression(stmt.value), str(README), "eval"), namespace)
                assert value == float(m[1]), lines[stmt.end_lineno - 1]
                checked += 1
            else:
                exec(compile(ast.Module([stmt], type_ignores=[]), str(README), "exec"), namespace)
    assert checked
