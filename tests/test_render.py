import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import render_oracle
from scanforge.kernels import BRENT_KUNG, SERIAL
from scanforge.render import Gate, Diagram, layout, svg_string
from scanforge.tracing import Transaction, run_traced


def counts(svg: str) -> dict:
    return {
        "in": len(re.findall(r'<circle class="in"', svg)),
        "out": len(re.findall(r'<circle class="out"', svg)),
        "edge": len(re.findall(r'<line class="edge"', svg)),
        "guide": len(re.findall(r'<line class="guideline"', svg)),
    }


def test_layout_brent_kung_8():
    d = layout(run_traced(BRENT_KUNG, 8), 8)
    assert len(d.gates) == 11
    assert d.max_depth == 5
    assert len(d.guidelines) == 8


def test_layout_serial_8():
    d = layout(run_traced(SERIAL, 8), 8)
    assert len(d.gates) == 7
    assert d.max_depth == 7


def test_layout_empty():
    d = layout([], 4)
    assert d.gates == []
    assert len(d.guidelines) == 4


def test_single_gate_element_counts():
    d = Diagram(width=2, max_depth=1, gates=[Gate((1, 2), (2,), 1)])
    c = counts(svg_string(d))
    assert c == {"in": 2, "out": 1, "edge": 2, "guide": 2}
    # A gate reads two of the diagram's lines and writes one.
    for bad in (Gate((1,), (2,), 1), Gate((1, 2, 2), (2,), 1), Gate((1, 2), (), 1),
                Gate((1, 2), (1, 2), 1), Gate((1, 3), (2,), 1), Gate((0, 1), (1,), 1),
                Gate((1, 2), (3,), 1)):
        with pytest.raises(ValueError, match=r"gate 2 reads .* lines 1\.\.2"):
            svg_string(Diagram(width=2, max_depth=1, gates=[d.gates[0], bad]))
    # ... at a depth in 1..max_depth; depth 5 used to be drawn at cy=900 of 400.
    for depth in (0, 2, 5):
        with pytest.raises(ValueError, match=rf"gate 2 sits at depth {depth}, outside 1\.\.1"):
            svg_string(Diagram(width=2, max_depth=1, gates=[d.gates[0], Gate((1, 2), (2,), depth)]))


def test_empty_diagram_only_guidelines():
    c = counts(svg_string(layout([], 4)))
    assert c == {"in": 0, "out": 0, "edge": 0, "guide": 4}


def test_brent_kung_8_element_counts():
    svg = svg_string(layout(run_traced(BRENT_KUNG, 8), 8))
    assert counts(svg) == {"in": 22, "out": 11, "edge": 22, "guide": 8}


def test_gate_and_guideline_counts_many_sizes():
    for n in (1, 2, 3, 13, 64):
        history = run_traced(BRENT_KUNG, n)
        svg = svg_string(layout(history, n))
        c = counts(svg)
        assert c["out"] == len(history)
        assert c["guide"] == n


def test_determinism_byte_identical():
    a = svg_string(layout(run_traced(BRENT_KUNG, 8), 8))
    b = svg_string(layout(run_traced(BRENT_KUNG, 8), 8))
    assert a == b


def test_fixed_precision_floats():
    svg = svg_string(layout(run_traced(SERIAL, 3), 3))
    for value in re.findall(r'(?:x1|cx|cy|r)="([^"]+)"', svg):
        assert re.fullmatch(r"-?\d+\.\d{4}", value)


def test_viewport_override_scales():
    d = layout(run_traced(SERIAL, 4), 4)
    small = svg_string(d, (300, 200))
    assert 'width="300"' in small and 'height="200"' in small
    assert small != svg_string(d)


def test_no_same_depth_processor_overlap():
    d = layout(run_traced(BRENT_KUNG, 32), 32)
    seen = set()
    for g in d.gates:
        for i in set(g.ins) | set(g.outs):
            assert (g.depth, i) not in seen
            seen.add((g.depth, i))


def random_gates(width, max_depth):
    """Gates that read two of the lines 1..width and write one, at depths in
    1..max_depth."""
    if not width or not max_depth:
        return st.just([])
    line = st.integers(min_value=1, max_value=width)
    gate = st.builds(Gate, st.tuples(line, line), st.tuples(line),
                     st.integers(min_value=1, max_value=max_depth))
    return st.lists(gate, max_size=40)


@given(st.tuples(st.integers(min_value=0, max_value=64),
                 st.integers(min_value=0, max_value=50)).flatmap(
           lambda size: st.tuples(st.just(size), random_gates(*size))),
       st.tuples(st.integers(min_value=1, max_value=4000),
                 st.integers(min_value=1, max_value=4000)))
@settings(max_examples=200, deadline=None)
def test_svg_string_equals_the_reference_renderer(size_gates, viewport):
    (width, max_depth), gates = size_gates
    d = Diagram(width=width, max_depth=max_depth, gates=gates)
    assert svg_string(d, viewport) == render_oracle.svg_string(d, viewport)


def test_only_the_depths_of_gates_are_formatted():
    # A y per level in 1..max_depth would format 10**9 levels here.
    d = Diagram(width=2, max_depth=10**9, gates=[Gate((1, 2), (2,), 1), Gate((1, 2), (1,), 10**9)])
    assert svg_string(d) == render_oracle.svg_string(d, (600, 400))
