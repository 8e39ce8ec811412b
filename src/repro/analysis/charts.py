"""Terminal bar charts for experiment results.

Experiments render as tables; these helpers add quick visual
bars for the figure-style experiments (`dream-repro run --chart`), with
no plotting dependencies — pure text, safe for logs.
"""

from __future__ import annotations

#: Width of the bar area in characters.
DEFAULT_WIDTH = 48

#: The glyph used for bars (ASCII-safe).
BAR_CHAR = "#"


def bar_chart(items: list[tuple[str, float]], width: int = DEFAULT_WIDTH,
              unit: str = "%") -> str:
    """Render labelled values as a horizontal bar chart.

    Bars scale to the largest value; zero/negative values render as
    empty bars with their numeric value still shown.
    """
    if not items:
        raise ValueError("at least one item is required")
    if width < 4:
        raise ValueError("width must be at least 4")
    label_width = max(len(label) for label, _ in items)
    peak = max(max(value for _, value in items), 0.0)
    lines = []
    for label, value in items:
        if peak > 0 and value > 0:
            filled = max(1, round(value / peak * width))
        else:
            filled = 0
        bar = BAR_CHAR * filled
        lines.append(f"{label.ljust(label_width)} |{bar.ljust(width)}| "
                     f"{value:.2f}{unit}")
    return "\n".join(lines)


def chart_average_row(rows: list[dict], key_column: str,
                      average_key: str = "AVERAGE",
                      width: int = DEFAULT_WIDTH) -> str | None:
    """Chart the AVERAGE row of a sweep-style experiment result.

    Returns ``None`` when the experiment has no AVERAGE row or no
    numeric columns (analytic tables chart nothing).
    """
    average = None
    for row in rows:
        if row.get(key_column) == average_key:
            average = row
            break
    if average is None:
        return None
    items = [(str(name), float(value))
             for name, value in average.items()
             if name != key_column and isinstance(value, (int, float))]
    if not items:
        return None
    return bar_chart(items, width=width)


def chart_result(rows: list[dict],
                 width: int = DEFAULT_WIDTH) -> str | None:
    """Best-effort chart for any experiment result's rows.

    Sweep results chart their AVERAGE row; other shapes chart the first
    numeric column across rows keyed by the first string column.
    """
    if not rows:
        return None
    for key_column in ("workload", "mix"):
        if key_column in rows[0]:
            return chart_average_row(rows, key_column, width=width)
    label_key = None
    value_key = None
    for key, value in rows[0].items():
        if label_key is None and isinstance(value, str):
            label_key = key
        if value_key is None and isinstance(value, (int, float)) \
                and not isinstance(value, bool):
            value_key = key
    if label_key is None or value_key is None:
        return None
    items = [(str(row[label_key]), float(row[value_key]))
             for row in rows
             if isinstance(row.get(value_key), (int, float))]
    if not items:
        return None
    return bar_chart(items, width=width, unit="")
