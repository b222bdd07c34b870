"""Every Python file of the project parses with the Python 3.10 grammar.

pyproject.toml asks for Python >= 3.10 and CI tests on 3.10, but a machine
with only a newer interpreter never parses the code as 3.10 does. This test
catches grammar that 3.10 lacks, such as 3.11's `except*`; it does not catch
a library call that 3.10 lacks, such as a function added to a module later.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for folder in ("src/scanforge", "tests", "perfbench")
               for path in (ROOT / folder).glob("*.py"))


def test_the_project_has_python_files_in_each_folder():
    assert {path.parent.name for path in FILES} == {"scanforge", "tests", "perfbench"}


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(), str(path), feature_version=(3, 10))
