"""README.md's Python examples run, and print the values their comments name."""

import ast
import contextlib
import io
import pathlib
import re
import tokenize

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# a comment that is an exact value as `Radical` and `Fraction` print one
EXACT = re.compile(r"-?\d+(/\d+)?(\*sqrt\(\d+\))?")


def test_readme_python_examples_print_their_exact_values():
    # the blocks run in one namespace, as a reader runs them in one session;
    # each statement's stdout is captured, and a statement whose last line
    # ends in an exact-value comment must print that value
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert blocks
    namespace, checked = {}, []
    for block in blocks:
        comments = {tok.start[0]: tok.string[1:].strip()
                    for tok in tokenize.generate_tokens(io.StringIO(block).readline)
                    if tok.type == tokenize.COMMENT}
        for stmt in ast.parse(block).body:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            want = comments.get(stmt.end_lineno, "")
            if EXACT.fullmatch(want):
                assert out.getvalue() == want + "\n", ast.unparse(stmt)
                checked.append(want)
    assert checked == ["1/2*sqrt(2)", "1/6", "1/3*sqrt(3)"]
