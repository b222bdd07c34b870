"""The package's modules import each other without a cycle, and nothing the
package runs imports numpy.

A cycle makes a module's names depend on import order: the module that is
still loading must be imported as a module, not by its names. Imports under
`if TYPE_CHECKING:` do not run, so they are left out.
"""

import ast
import graphlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "scanforge"


def _runtime_nodes(node: ast.AST):
    """node and its descendants, without the body of `if TYPE_CHECKING:`."""
    yield node
    if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
        children = node.orelse
    else:
        children = ast.iter_child_nodes(node)
    for child in children:
        yield from _runtime_nodes(child)


def package_imports() -> dict[str, set[str]]:
    """Each module of the package and the package modules it imports."""
    modules = {path.stem for path in SRC.glob("*.py")}
    graph = {}
    for path in SRC.glob("*.py"):
        deps = set()
        for node in _runtime_nodes(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                # from .x import y -> x; from . import x -> x
                deps |= {node.module} if node.module else {a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scanforge."):
                deps.add(node.module.split(".")[1])
            elif isinstance(node, ast.Import):
                deps |= {a.name.split(".")[1] for a in node.names
                         if a.name.startswith("scanforge.")}
        graph[path.stem] = (deps & modules) - {path.stem}
    return graph


def test_package_imports_form_a_dag():
    graph = package_imports()
    assert {"kernels", "ops", "runtime", "verify"} <= graph.keys()
    order = list(graphlib.TopologicalSorter(graph).static_order())  # CycleError on a cycle
    assert order.index("ops") < order.index("kernels") < order.index("verify")


def test_ops_imports_nothing_from_the_package():
    assert package_imports()["ops"] == set()


NO_NUMPY = """
import sys
import scanforge as sf
from scanforge.kernels import KERNEL_NAMES

for name in KERNEL_NAMES:
    kernel = sf.get_kernel(name)
    n = kernel.fixed_length or 300
    for op in sf.builtin_ops().values():
        values = [op.identity if op.identity is not None else 1] * n
        kernel(sf.ListStore(values), op)
    assert sf.verify_parallel(kernel, n).ok
assert "numpy" not in sys.modules, "numpy was imported"
"""


def test_runs_and_proofs_do_not_import_numpy():
    # numpy's import alone costs about as much time and memory as a whole
    # compute run, so no value run or proof may pull it in.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    subprocess.run([sys.executable, "-c", NO_NUMPY], env=env, check=True, timeout=120)
