"""Circuit-style SVG diagrams of scan traces.

Each recorded transaction becomes a gate: small circles on the two
processor lines it reads, a large circle on the line it writes, and
connecting edges, stacked top-down by stage depth. Output is plain SVG 1.1
with fixed 4-decimal coordinate formatting so identical traces yield
byte-identical files.

One writer, _svg, draws every diagram from the trace columns (first reads,
second reads, writes, depths): svg_string from a Diagram's gates, and the
CLI's render from a plan's or a trace file's columns. layout reads a
history through tracing's one row rule, on the lines 1..n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Iterable, Sequence

from .tracing import Transaction, _as_row, _depths, _rows

R_IN = 0.1
R_OUT = 0.25
LINE_MM = 0.3
GUIDE_MM = 0.1
DPI = 96.0


@dataclass(frozen=True)
class Gate:
    ins: tuple[int, ...]
    outs: tuple[int, ...]
    depth: int


@dataclass
class Diagram:
    width: int
    max_depth: int
    gates: list[Gate] = field(default_factory=list)

    @property
    def guidelines(self) -> range:
        return range(1, self.width + 1)


def layout(history: Iterable[Transaction], n: int) -> Diagram:
    """One gate per transaction at its stage depth, by the row rule on lines 1..n."""
    firsts, seconds, writes = _rows(map(_as_row, history), n)
    depths = _depths(firsts, seconds, writes)
    gates = list(map(Gate, zip(firsts, seconds), zip(writes), depths))
    return Diagram(width=n, max_depth=depths[-1] if depths else 0, gates=gates)


def _mm_to_px(mm: float) -> float:
    return mm * DPI / 25.4


def _f(v: float) -> str:
    return f"{v:.4f}"


def svg_string(d: Diagram, viewport: tuple[int, int] = (600, 400)) -> str:
    """Render the diagram into an SVG document string.

    The unit box (0.5, 0, width, max_depth+1) is mapped affinely onto the
    pixel viewport; the depth axis points downward. A gate that does not
    read two of the lines 1..width and write one, or that sits at a depth
    outside 1..max_depth, is a ValueError.
    """
    lines = frozenset(range(1, d.width + 1))
    for k, g in enumerate(d.gates, start=1):
        if len(g.ins) != 2 or len(g.outs) != 1 or not lines.issuperset((*g.ins, *g.outs)):
            raise ValueError(f"gate {k} reads {g.ins} and writes {g.outs}: a gate "
                             f"reads two of the lines 1..{d.width} and writes one")
        if not 1 <= g.depth <= d.max_depth:
            raise ValueError(f"gate {k} sits at depth {g.depth}, outside 1..{d.max_depth}")
    return _svg(d.width, d.max_depth, [g.ins[0] for g in d.gates],
                [g.ins[1] for g in d.gates], [g.outs[0] for g in d.gates],
                [g.depth for g in d.gates], viewport)


def _svg(width: int, max_depth: int, firsts: Sequence[int], seconds: Sequence[int],
         writes: Sequence[int], depths: Sequence[int], viewport: tuple[int, int]) -> str:
    """The SVG of the gates that read lines firsts[k] and seconds[k] and write
    line writes[k] at depth depths[k], on the lines 1..width."""
    w_px, h_px = viewport
    units_x = max(width, 1)
    units_y = max_depth + 1
    sx = w_px / units_x
    sy = h_px / units_y
    # Each coordinate is formatted once (as _f does, inline to save a call
    # each): x per line, y per gate depth.
    xs = [f"{(i - 0.5) * sx:.4f}" for i in range(width + 1)]
    levels = set(depths)
    ys_in = {k: f"{(k - 1 + R_IN) * sy:.4f}" for k in levels}
    ys_out = {k: f"{(k - 1 + 0.5) * sy:.4f}" for k in levels}

    lines: list[str] = []
    lines.append('<?xml version="1.0" encoding="UTF-8"?>')
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w_px}" height="{h_px}" viewBox="0 0 {w_px} {h_px}">'
    )
    guide_w = _f(_mm_to_px(GUIDE_MM))
    top, bottom = _f(0 * sy), _f(units_y * sy)
    for i in range(1, width + 1):
        lines.append(
            f'<line class="guideline" x1="{xs[i]}" y1="{top}" '
            f'x2="{xs[i]}" y2="{bottom}" '
            f'stroke="grey" stroke-width="{guide_w}"/>'
        )
    edge_w = _f(_mm_to_px(LINE_MM))
    edge = ('<line class="edge" x1="%s" y1="%s" x2="%s" y2="%s" '
            f'stroke="black" stroke-width="{edge_w}"/>')
    circle_in = (f'<circle class="in" cx="%s" cy="%s" r="{_f(R_IN * sx)}" '
                 f'fill="white" stroke="black" stroke-width="{edge_w}"/>')
    circle_out = (f'<circle class="out" cx="%s" cy="%s" r="{_f(R_OUT * sx)}" '
                  f'fill="white" stroke="black" stroke-width="{edge_w}"/>')
    # The five lines of a gate are one template, filled at C level by
    # interleaving its constant pieces with the coordinate columns.
    xa, xb, xw = (list(map(xs.__getitem__, column)) for column in (firsts, seconds, writes))
    iy = list(map(ys_in.__getitem__, depths))
    oy = list(map(ys_out.__getitem__, depths))
    pieces = "\n".join(("", edge, edge, circle_in, circle_in, circle_out)).split("%s")
    columns = [repeat(pieces[0])]
    for piece, column in zip(pieces[1:], (xa, iy, xw, oy, xb, iy, xw, oy,
                                          xa, iy, xb, iy, xw, oy)):
        columns += (column, repeat(piece))
    gates = "".join(chain.from_iterable(zip(*columns)))
    return "\n".join(lines) + gates + "\n</svg>\n"
