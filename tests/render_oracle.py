"""Reference for svg_string: the renderer that formatted every coordinate
through fx/fy and _f, kept verbatim. Tests require svg_string to give the
same bytes."""

from __future__ import annotations

from scanforge.render import DPI, GUIDE_MM, LINE_MM, R_IN, R_OUT, Diagram


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

    def fx(x: float) -> str:
        return _f((x - 0.5) * sx)

    def fy(y: float) -> str:
        return _f(y * sy)

    lines: list[str] = []
    lines.append('<?xml version="1.0" encoding="UTF-8"?>')
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w_px}" height="{h_px}" viewBox="0 0 {w_px} {h_px}">'
    )
    guide_w = _f(_mm_to_px(GUIDE_MM))
    for i in d.guidelines:
        lines.append(
            f'<line class="guideline" x1="{fx(i)}" y1="{fy(0)}" '
            f'x2="{fx(i)}" y2="{fy(units_y)}" '
            f'stroke="grey" stroke-width="{guide_w}"/>'
        )
    edge_w = _f(_mm_to_px(LINE_MM))
    for g in d.gates:
        y0 = g.depth - 1
        ipoints = [(i, y0 + R_IN) for i in g.ins]
        opoints = [(o, y0 + 0.5) for o in g.outs]
        for ix, iy in ipoints:
            for ox, oy in opoints:
                lines.append(
                    f'<line class="edge" x1="{fx(ix)}" y1="{fy(iy)}" '
                    f'x2="{fx(ox)}" y2="{fy(oy)}" '
                    f'stroke="black" stroke-width="{edge_w}"/>'
                )
        for ix, iy in ipoints:
            lines.append(
                f'<circle class="in" cx="{fx(ix)}" cy="{fy(iy)}" '
                f'r="{_f(R_IN * sx)}" fill="white" stroke="black" '
                f'stroke-width="{edge_w}"/>'
            )
        for ox, oy in opoints:
            lines.append(
                f'<circle class="out" cx="{fx(ox)}" cy="{fy(oy)}" '
                f'r="{_f(R_OUT * sx)}" fill="white" stroke="black" '
                f'stroke-width="{edge_w}"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"

