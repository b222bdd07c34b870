"""The benchmark in perfbench/ reaches scanforge's names from outside the
package. Every name it uses must still resolve, or `perfbench/run.py
--trace 1` breaks while the rest of the suite passes."""

import functools
import pathlib
import re

import scanforge as sf
import scanforge.cli  # noqa: F401  (perfbench calls sf.cli.main)

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

# `name = sf.module` or `name = self.sf.module`: a local alias of a module.
ALIAS = re.compile(r"^\s*(\w+) = (?:self\.)?sf\.(\w+)\s*$", re.MULTILINE)


def resolve(dotted: str, root=sf):
    return functools.reduce(getattr, dotted.split("."), root)


def names_used(source: str) -> set[str]:
    """Dotted names read through `sf.` or a module alias of it, outside strings."""
    aliases = dict(ALIAS.findall(source))
    prefix = "|".join(["sf"] + [re.escape(a) for a in aliases])
    found = set()
    for head, rest in re.findall(rf"(?<![\w.\"'])(?:self\.)?({prefix})\.(\w+(?:\.\w+)*)",
                                 source):
        found.add(rest if head == "sf" else f"{aliases[head]}.{rest}")
    return found


def test_span_points_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    for module, names in layers.SPAN_POINTS.items():
        for name in names:
            resolve(name, resolve(module))


def test_every_scanforge_name_in_perfbench_resolves():
    used = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        used |= names_used(path.read_text())
    # the regex sees direct, module-qualified and aliased uses
    assert {"run_parallel", "tracing.dag_depths", "runtime.critical_path",
            "verify.interval_plus"} <= used
    missing = []
    for name in sorted(used):
        try:
            resolve(name)
        except AttributeError:
            missing.append(name)
    assert missing == []
