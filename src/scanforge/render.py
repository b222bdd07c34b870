"""Circuit-style SVG diagrams of scan traces.

Each recorded transaction becomes a gate: small circles on the processor
lines it reads, a large circle on the line it writes, and connecting
edges, stacked top-down by stage depth. Output is plain SVG 1.1 with
fixed 4-decimal coordinate formatting so identical traces yield
byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .tracing import Transaction, infer_depths

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
    leveled = infer_depths(history)
    gates = [Gate(t.reads, (t.write,), d) for t, d in leveled]
    maxdepth = leveled[-1][1] if leveled else 0
    return Diagram(width=n, max_depth=maxdepth, gates=gates)


def _mm_to_px(mm: float) -> float:
    return mm * DPI / 25.4


def _f(v: float) -> str:
    return f"{v:.4f}"


def svg_string(d: Diagram, viewport: tuple[int, int] = (600, 400)) -> str:
    """Render the diagram into an SVG document string.

    The unit box (0.5, 0, width, max_depth+1) is mapped affinely onto the
    pixel viewport; the depth axis points downward.
    """
    w_px, h_px = viewport
    units_x = max(d.width, 1)
    units_y = d.max_depth + 1
    sx = w_px / units_x
    sy = h_px / units_y
    # Each coordinate is formatted once: x per line index, y per gate depth.
    indices = set(d.guidelines).union(*(g.ins for g in d.gates),
                                      *(g.outs for g in d.gates))
    xs = {i: _f((i - 0.5) * sx) for i in indices}
    depths = {g.depth for g in d.gates}
    ys_in = {k: _f((k - 1 + R_IN) * sy) for k in depths}
    ys_out = {k: _f((k - 1 + 0.5) * sy) for k in depths}

    lines: list[str] = []
    lines.append('<?xml version="1.0" encoding="UTF-8"?>')
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w_px}" height="{h_px}" viewBox="0 0 {w_px} {h_px}">'
    )
    guide_w = _f(_mm_to_px(GUIDE_MM))
    top, bottom = _f(0 * sy), _f(units_y * sy)
    for i in d.guidelines:
        lines.append(
            f'<line class="guideline" x1="{xs[i]}" y1="{top}" '
            f'x2="{xs[i]}" y2="{bottom}" '
            f'stroke="grey" stroke-width="{guide_w}"/>'
        )
    edge_w = _f(_mm_to_px(LINE_MM))
    r_in, r_out = _f(R_IN * sx), _f(R_OUT * sx)
    for g in d.gates:
        iy, oy = ys_in[g.depth], ys_out[g.depth]
        ixs = [xs[i] for i in g.ins]
        oxs = [xs[o] for o in g.outs]
        for ix in ixs:
            for ox in oxs:
                lines.append(
                    f'<line class="edge" x1="{ix}" y1="{iy}" '
                    f'x2="{ox}" y2="{oy}" '
                    f'stroke="black" stroke-width="{edge_w}"/>'
                )
        for ix in ixs:
            lines.append(
                f'<circle class="in" cx="{ix}" cy="{iy}" '
                f'r="{r_in}" fill="white" stroke="black" '
                f'stroke-width="{edge_w}"/>'
            )
        for ox in oxs:
            lines.append(
                f'<circle class="out" cx="{ox}" cy="{oy}" '
                f'r="{r_out}" fill="white" stroke="black" '
                f'stroke-width="{edge_w}"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"

