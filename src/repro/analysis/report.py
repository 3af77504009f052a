"""Plain-text rendering: tables, and whole experiment ``Result``s.

:func:`render_result` is the pure renderer the CLI, and the committed
``results/<name>.txt`` files, use over the experiment runtime's
structured results — no experiment logic lives here, only presentation.
"""


def format_table(headers, rows, title=None):
    """Render an aligned plain-text table; returns the string."""
    columns = [str(h) for h in headers]
    text_rows = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(columns[i]), *(len(r[i]) for r in text_rows))
        if text_rows else len(columns[i])
        for i in range(len(columns))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(c.ljust(widths[i])
                           for i, c in enumerate(columns)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(row[i].ljust(widths[i])
                               for i in range(len(row))))
    return "\n".join(lines)


def _render_table(table):
    """One structured table -> text (plain grid or horizontal bars)."""
    from repro.analysis.figures import bar_chart

    if table.kind == "bars":
        return bar_chart(
            [(row.label, row.values[0]) for row in table.rows],
            unit=table.unit,
            title=table.title,
        )
    with_paper = any(row.paper for row in table.rows)
    columns = list(table.columns) + (["Paper"] if with_paper else [])
    rows = [
        (row.label, *row.values) + ((row.paper,) if with_paper else ())
        for row in table.rows
    ]
    return format_table(columns, rows, title=table.title)


def render_result(result):
    """Render a :class:`repro.exp.result.Result` as terminal text.

    Pure presentation: tables (or bar groups), then any series as a
    line plot (render hints come from ``result.meta``), then the notes.
    """
    from repro.analysis.figures import line_plot

    blocks = [_render_table(table) for table in result.tables]
    if result.series:
        hints = result.meta_dict
        blocks.append(line_plot(
            {series.name: list(series.points)
             for series in result.series},
            y_ceiling=hints.get("y_ceiling"),
            x_label=hints.get("x_label", ""),
            y_label=hints.get("y_label", ""),
            title=hints.get("plot_title"),
        ))
    blocks.extend(result.notes)
    return "\n\n".join(blocks)
