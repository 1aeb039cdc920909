"""README's library tour runs, and each bare expression in it shows its value.

A line like `r.node_count        # 3` is checked as `str(r.node_count)`
being the comment, or the comment's first words before a space.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour_runs_and_shows_its_values():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    source = blocks[0]
    lines = source.splitlines()
    namespace: dict = {}
    shown = {}
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        code = ast.get_source_segment(source, stmt)
        value = str(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace))
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        assert comment == value or comment.startswith(value + " "), (code, value, comment)
        shown[code] = value
    assert shown == {
        "r.node_count": "3",
        "r.root_interval": "[5, 6]",
        "verify_intervals(r.coefs, r.store, r.root, r.intervals)": "None",
        "check_gac(c, cs)": "None",
        "trail": "[1, 6, 5, 4, -3]",
    }
