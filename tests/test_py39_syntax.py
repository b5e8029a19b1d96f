"""Every Python file the repo ships parses as Python 3.9, the oldest
version ``pyproject.toml`` admits (``requires-python >= 3.9``).

``ast.parse(..., feature_version=(3, 9))`` refuses most syntax newer than
3.9 (``match``, ``except*``, PEP 695 type parameters), so a newer
interpreter catches it before CI's 3.9 job does.  It is best effort: the
parser still accepts parenthesised context managers, and a 3.10+ library
call or a runtime ``X | Y`` annotation needs the 3.9 job.
"""

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "benchmarks", "examples")


def test_every_file_parses_as_python_3_9():
    files = [file for tree in TREES for file in sorted((REPO / tree).rglob("*.py"))]
    assert len(files) > 100
    failures = []
    for file in files:
        try:
            ast.parse(file.read_text(), filename=str(file), feature_version=(3, 9))
        except SyntaxError as error:
            failures.append(f"{file.relative_to(REPO)}:{error.lineno}: {error.msg}")
    assert not failures, "not Python 3.9 syntax:\n" + "\n".join(failures)
