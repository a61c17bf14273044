"""Persisting experiment reports.

The benchmarks print each :class:`~repro.experiments.harness.ExperimentReport`
to stdout; this module adds the small amount of machinery needed to keep the
results around for EXPERIMENTS.md and for plotting outside this package:

* :func:`report_to_json` / :func:`save_report_json` — lossless structured dump;
* :func:`report_to_csv` / :func:`save_report_csv` — just the sweep rows;
* :func:`report_to_markdown` — a GitHub-flavoured table for documentation;
* :class:`ReportCollection` — gather several reports and write them into a
  directory in one call.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from collections.abc import Iterable

from repro.db.columns import PathLike
from repro.experiments.harness import ExperimentReport


def report_to_json(report: ExperimentReport) -> dict:
    """A JSON-serialisable dictionary with every field of the report."""
    return {
        "experiment_id": report.experiment_id,
        "title": report.title,
        "dataset_description": report.dataset_description,
        "parameter_name": report.parameter_name,
        "rows": report.rows,
        "extras": {key: _jsonable(value) for key, value in report.extras.items()},
    }


def save_report_json(report: ExperimentReport, path: PathLike) -> Path:
    """Write the JSON form of ``report`` to ``path`` and return the path."""
    path = Path(path)
    path.write_text(json.dumps(report_to_json(report), indent=2, default=str))
    return path


def report_to_csv(report: ExperimentReport) -> str:
    """The report rows as CSV text (header taken from the first row)."""
    if not report.rows:
        return ""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(report.rows[0].keys()))
    writer.writeheader()
    for row in report.rows:
        writer.writerow(row)
    return buffer.getvalue()


def save_report_csv(report: ExperimentReport, path: PathLike) -> Path:
    """Write the CSV form of ``report`` to ``path`` and return the path."""
    path = Path(path)
    path.write_text(report_to_csv(report))
    return path


def report_to_markdown(report: ExperimentReport) -> str:
    """A GitHub-flavoured markdown rendering (section heading + table)."""
    lines = [f"### {report.experiment_id}: {report.title}", "", report.dataset_description, ""]
    if report.rows:
        columns = list(report.rows[0].keys())
        lines.append("| " + " | ".join(str(c) for c in columns) + " |")
        lines.append("|" + "|".join("---" for _ in columns) + "|")
        for row in report.rows:
            lines.append("| " + " | ".join(_format_cell(row.get(c)) for c in columns) + " |")
        lines.append("")
    for key, value in report.extras.items():
        lines.append(f"- **{key}**: {value}")
    return "\n".join(lines).rstrip() + "\n"


def _format_cell(value) -> str:
    if value is None:
        return "—"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class ReportCollection:
    """An ordered collection of reports written out together.

    Used by scripts that run several experiments back to back and want a
    results directory containing one JSON + CSV per experiment and a single
    combined markdown summary.
    """

    def __init__(self, reports: Iterable[ExperimentReport] = ()):
        self._reports: list[ExperimentReport] = list(reports)

    def add(self, report: ExperimentReport) -> None:
        """Append a report to the collection."""
        self._reports.append(report)

    def __len__(self) -> int:
        return len(self._reports)

    def __iter__(self):
        return iter(self._reports)

    def by_id(self) -> dict[str, ExperimentReport]:
        """Mapping from experiment id to report (later reports win on clashes)."""
        return {report.experiment_id: report for report in self._reports}

    def to_markdown(self) -> str:
        """All reports concatenated into one markdown document."""
        return "\n".join(report_to_markdown(report) for report in self._reports)

    def save(self, directory: PathLike) -> list[Path]:
        """Write JSON + CSV per report and a combined ``summary.md``.

        Returns the list of files written.  The directory is created if it
        does not exist.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []
        for report in self._reports:
            written.append(save_report_json(report, directory / f"{report.experiment_id}.json"))
            written.append(save_report_csv(report, directory / f"{report.experiment_id}.csv"))
        summary = directory / "summary.md"
        summary.write_text(self.to_markdown())
        written.append(summary)
        return written
