"""README's library sketch runs as written and gives the results its
comments state, so the package root and the README stay in step."""

import ast
import pathlib
import re

from scanforge.tracing import max_depth

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def sketch() -> str:
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, "README holds one python block, the library sketch"
    return blocks[0]


def commented_results(source: str) -> dict[str, str]:
    """Each line of the sketch that states its result: its code -> its comment."""
    pairs = (line.partition("  # ") for line in source.splitlines())
    return {code.strip(): comment.strip() for code, sep, comment in pairs if sep}


def test_library_sketch_runs_and_gives_its_commented_results():
    source = sketch()
    names: dict = {}
    exec(compile(source, str(README), "exec"), names)
    results = commented_results(source)
    assert sorted(results.values()) == ["11 transactions in 5 stages", "True", "[1, 3, 6, 10]",
                                        "the gate diagram"]
    for code, comment in results.items():
        if comment == "11 transactions in 5 stages":
            history = names[code.split(" = ")[0]]
            assert (len(history), max_depth(history)) == (11, 5)
        elif comment == "the gate diagram":
            assert "<svg " in eval(code, names)
        else:
            assert eval(code, names) == ast.literal_eval(comment), code
