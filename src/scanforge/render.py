"""Circuit-style SVG diagrams of scan traces.

Each recorded transaction becomes a gate: small circles on the processor
lines it reads, a large circle on the line it writes, and connecting
edges, stacked top-down by stage depth. Output is plain SVG 1.1 with
fixed 4-decimal coordinate formatting so identical traces yield
byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Callable, Iterable, Sequence

from .kernels import ScanKernel, _kernel_plan
from .tracing import Transaction, _history_rows, _plan_rows

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
    """Place one gate per transaction at its inferred stage depth."""
    reads, writes, depths = _history_rows(history)
    gates = list(map(Gate, reads, zip(writes), depths))
    return Diagram(width=n, max_depth=depths[-1] if depths else 0, gates=gates)


def _mm_to_px(mm: float) -> float:
    return mm * DPI / 25.4


def _f(v: float) -> str:
    return f"{v:.4f}"


def svg_string(d: Diagram, viewport: tuple[int, int] = (600, 400)) -> str:
    """Render the diagram into an SVG document string.

    The unit box (0.5, 0, width, max_depth+1) is mapped affinely onto the
    pixel viewport; the depth axis points downward.
    """
    return _svg(d.width, d.max_depth, [g.ins for g in d.gates],
                [g.outs for g in d.gates], [g.depth for g in d.gates], viewport)


def _plan_svg(kernel: ScanKernel | Callable, n: int, viewport: tuple[int, int]) -> str:
    """svg_string(layout(run_traced(kernel, n), n), viewport), read from the
    plan's columns."""
    firsts, seconds, writes, depths = _plan_rows(_kernel_plan(kernel, n))
    return _svg(n, depths[-1] if depths else 0, list(zip(firsts, seconds)),
                list(zip(writes)), depths, viewport)


def _svg(width: int, max_depth: int, ins: Sequence[tuple[int, ...]],
         outs: Sequence[tuple[int, ...]], depths: Sequence[int],
         viewport: tuple[int, int]) -> str:
    """The SVG of the gates (ins[k], outs[k], depths[k]) on width lines."""
    w_px, h_px = viewport
    units_x = max(width, 1)
    units_y = max_depth + 1
    sx = w_px / units_x
    sy = h_px / units_y
    # Each coordinate is formatted once (as _f does, inline to save a call
    # each): x per line index, y per gate depth. Line indices index a list
    # when they all lie on the diagram's lines.
    cells = list(chain(chain.from_iterable(ins), chain.from_iterable(outs)))
    if not cells or (min(cells) >= 1 and max(cells) <= width):
        xs = [f"{(i - 0.5) * sx:.4f}" for i in range(width + 1)]
    else:
        xs = {i: f"{(i - 0.5) * sx:.4f}" for i in set(range(1, width + 1)).union(cells)}
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
    if set(map(len, ins)) == {2} and set(map(len, outs)) == {1}:
        # Every gate reads two lines and writes one, as every plan's gate
        # does: the five lines of a gate are one template, filled at C level
        # by interleaving its constant pieces with the coordinate columns.
        x_in = list(map(xs.__getitem__, chain.from_iterable(ins)))
        xa, xb = x_in[0::2], x_in[1::2]
        xw = list(map(xs.__getitem__, chain.from_iterable(outs)))
        iy = list(map(ys_in.__getitem__, depths))
        oy = list(map(ys_out.__getitem__, depths))
        pieces = "\n".join((edge, edge, circle_in, circle_in, circle_out)).split("%s")
        columns = [chain(pieces[:1], repeat("\n" + pieces[0]))]
        for piece, column in zip(pieces[1:], (xa, iy, xw, oy, xb, iy, xw, oy,
                                              xa, iy, xb, iy, xw, oy)):
            columns += (column, repeat(piece))
        lines.append("".join(chain.from_iterable(zip(*columns))))
    else:
        for g_ins, g_outs, depth in zip(ins, outs, depths):
            iy, oy = ys_in[depth], ys_out[depth]
            ixs = [xs[i] for i in g_ins]
            oxs = [xs[o] for o in g_outs]
            lines += [edge % (ix, iy, ox, oy) for ix in ixs for ox in oxs]
            lines += [circle_in % (ix, iy) for ix in ixs]
            lines += [circle_out % (ox, oy) for ox in oxs]
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
