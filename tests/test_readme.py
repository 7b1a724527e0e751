"""The README's library tour runs as printed, and each expression in it shows,
in a trailing ``# <value>`` comment, the repr of the value it computes."""
from __future__ import annotations

import ast
import io
import pathlib
import tokenize

README = pathlib.Path(__file__).parents[1] / "README.md"


def test_library_tour_shows_what_it_computes():
    readme = README.read_text(encoding="utf-8")
    source = readme.split("## Library tour\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    comments = {tok.start[0]: tok.string[1:].strip()
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    namespace: dict = {}
    shown = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            shown.append((repr(value), comments.get(stmt.end_lineno)))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert shown
    for got, want in shown:
        assert got == want
