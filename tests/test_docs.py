"""The README's library examples run, and give what their comments say."""

import ast
import re
from pathlib import Path

from sl2trees import word_to_text

README = Path(__file__).resolve().parent.parent / "README.md"


def run_python_blocks(text):
    """Run every ```python block of text in one namespace, in order; return
    the namespace and the value of each expression statement, keyed by its
    source."""
    namespace, values = {}, {}
    for block in re.findall(r"^```python\n(.*?)^```", text, re.S | re.M):
        for stmt in ast.parse(block).body:
            source = ast.unparse(stmt)
            if isinstance(stmt, ast.Expr):
                values[source] = eval(source, namespace)
            else:
                exec(source, namespace)
    return namespace, values


def test_readme_python_blocks_give_their_commented_values():
    namespace, values = run_python_blocks(README.read_text(encoding="utf-8"))
    assert values["translation_length(a)"] == 2
    assert values["translation_length(a * b)"] == 2
    assert values["report.bounded"] is False
    witness = values["report.unbounded_witness"]
    assert word_to_text(witness, namespace["rep"].presentation) == "a"
    assert values["report.absolutely_irreducible"] is True
    assert values["report.zariski_dense"] is True
    assert values["distance(v, w)"] == 6
    rows = namespace["rows"]
    assert next(rows) == "1\t0\n"
    assert [next(rows) for _ in range(2)] == ["a\t2\n", "a'\t2\n"]
