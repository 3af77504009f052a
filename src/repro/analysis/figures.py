"""Plain-text figure rendering (bar charts and line plots).

Good enough to eyeball the paper's figures in a terminal; used by the
CLI and the examples.  No external plotting dependencies.
"""

from repro.errors import ConfigError


def bar_chart(items, width=50, unit="", title=None, reference=None):
    """Horizontal bar chart.

    ``items`` is ``[(label, value)]``; bars scale to the maximum value.
    ``reference`` optionally draws a marker column at that value (e.g.
    an SLA line).  Returns the rendered string.
    """
    items = list(items)
    if not items:
        raise ConfigError("bar chart needs at least one item")
    peak = max(value for _, value in items)
    if reference is not None:
        peak = max(peak, reference)
    if peak <= 0:
        peak = 1.0
    label_width = max(len(str(label)) for label, _ in items)
    lines = []
    if title:
        lines.append(title)
    for label, value in items:
        filled = int(round(value / peak * width))
        bar = "#" * filled
        if reference is not None:
            ref_col = int(round(reference / peak * width))
            if ref_col >= len(bar):
                bar = bar.ljust(ref_col) + "|"
        lines.append(
            f"{str(label):>{label_width}}  {bar}  {value:g}{unit}"
        )
    return "\n".join(lines)


def line_plot(series, width=60, height=16, title=None, x_label="",
              y_label="", y_ceiling=None):
    """Multi-series scatter/line plot on a character grid.

    ``series`` is ``{name: [(x, y)]}``; each series gets a distinct
    glyph.  ``y_ceiling`` clamps the vertical range (tail latencies
    explode; the interesting region is near the SLA).
    """
    if not series:
        raise ConfigError("line plot needs at least one series")
    glyphs = "ox+*@%"
    points = [
        (x, y) for values in series.values() for x, y in values
    ]
    if not points:
        raise ConfigError("line plot needs at least one point")
    xs = [p[0] for p in points]
    ys = [min(p[1], y_ceiling) if y_ceiling else p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for glyph, (name, values) in zip(glyphs, series.items()):
        for x, y in values:
            if y_ceiling is not None:
                y = min(y, y_ceiling)
            col = int((x - x_lo) / x_span * (width - 1))
            row = height - 1 - int((y - y_lo) / y_span * (height - 1))
            grid[row][col] = glyph

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_hi:g}{y_label}")
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(f"{x_lo:g} .. {x_hi:g} {x_label}")
    legend = "  ".join(
        f"{glyph}={name}" for glyph, name in zip(glyphs, series)
    )
    lines.append(f"legend: {legend}")
    return "\n".join(lines)
