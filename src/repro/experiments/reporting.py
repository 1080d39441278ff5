"""Rendering experiment results as paper-style text tables."""

from __future__ import annotations

from .common import CellResult

__all__ = ["render_table", "render_improvements", "render_rework_table"]

_METRIC_COLUMNS = [
    "Re@5", "Re@10", "Re@20",
    "Nd@5", "Nd@10", "Nd@20",
    "CC@5", "CC@10", "CC@20",
    "F@5", "F@10", "F@20",
]


def _header() -> str:
    cells = " ".join(f"{name:>7}" for name in _METRIC_COLUMNS)
    return f"{'method':<14} {cells}"


def _row(label: str, metrics: dict[str, float]) -> str:
    cells = " ".join(f"{metrics.get(name, float('nan')):>7.4f}" for name in _METRIC_COLUMNS)
    return f"{label:<14} {cells}"


def render_table(results: list[CellResult], title: str = "") -> str:
    """Paper-style metric table, one row per method."""
    lines = []
    if title:
        lines.append(title)
    lines.append(_header())
    lines.append("-" * len(_header()))
    for cell in results:
        lines.append(_row(cell.method, cell.metrics))
    return "\n".join(lines)


def render_improvements(
    results: list[CellResult], ours_prefix: str = "LkP"
) -> str:
    """The paper's "max vs max" / "max vs min" improvement rows.

    For every metric column: best of our methods vs the best and the
    worst of the baselines, in percent.
    """
    ours = [cell for cell in results if cell.method.startswith(ours_prefix)]
    baselines = [cell for cell in results if not cell.method.startswith(ours_prefix)]
    if not ours or not baselines:
        return "(improvements need both LkP and baseline rows)"
    lines = []
    for label, reducer in (("max vs max (%)", max), ("max vs min (%)", min)):
        cells = []
        for metric in _METRIC_COLUMNS:
            best_ours = max(cell.metrics[metric] for cell in ours)
            reference = reducer(cell.metrics[metric] for cell in baselines)
            if reference <= 0:
                cells.append(f"{'n/a':>7}")
            else:
                cells.append(f"{100.0 * (best_ours - reference) / reference:>7.2f}")
        lines.append(f"{label:<14} " + " ".join(cells))
    return "\n".join(lines)


def render_rework_table(
    baseline: CellResult, reworked: list[CellResult], title: str = ""
) -> str:
    """Table IV style block: a native model, its LkP reworks, and Improv%."""
    lines = []
    if title:
        lines.append(title)
    lines.append(_header())
    lines.append("-" * len(_header()))
    lines.append(_row(baseline.method, baseline.metrics))
    for cell in reworked:
        lines.append(_row(cell.method, cell.metrics))
    cells = []
    for metric in _METRIC_COLUMNS:
        best = max(cell.metrics[metric] for cell in reworked)
        reference = baseline.metrics[metric]
        if reference <= 0:
            cells.append(f"{'n/a':>7}")
        else:
            cells.append(f"{100.0 * (best - reference) / reference:>7.2f}")
    lines.append(f"{'Improv (%)':<14} " + " ".join(cells))
    return "\n".join(lines)
