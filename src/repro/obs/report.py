"""Human-readable rendering of a registry snapshot.

``MetricsReport`` is what the shell's ``:metrics`` command and the
benchmark harness print: one line per labelled series, grouped by metric
name, with histogram series summarised as count/mean/p50/p99/max.
"""

from __future__ import annotations

from .metrics import MetricsRegistry, get_registry


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def _label_str(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"


class MetricsReport:
    """A snapshot plus its text rendering."""

    def __init__(self, snapshot: dict):
        self.snapshot = snapshot

    @classmethod
    def from_registry(cls, registry: MetricsRegistry | None = None,
                      prefix: str = "") -> "MetricsReport":
        registry = registry if registry is not None else get_registry()
        snap = registry.snapshot()
        if prefix:
            snap = {k: v for k, v in snap.items() if k.startswith(prefix)}
        return cls(snap)

    def filter(self, prefix: str) -> "MetricsReport":
        return MetricsReport({
            k: v for k, v in self.snapshot.items() if k.startswith(prefix)
        })

    @property
    def series_count(self) -> int:
        return sum(len(v["series"]) for v in self.snapshot.values())

    def nonzero(self) -> "MetricsReport":
        """Drop series that never recorded anything."""
        out = {}
        for name, entry in self.snapshot.items():
            series = [
                s for s in entry["series"]
                if s.get("value") or s.get("count")
            ]
            if series:
                out[name] = {"kind": entry["kind"], "series": series}
        return MetricsReport(out)

    def render(self, max_series_per_metric: int = 16) -> str:
        lines = []
        for name in sorted(self.snapshot):
            entry = self.snapshot[name]
            kind = entry["kind"]
            series = entry["series"]
            lines.append(f"{name} ({kind}, {len(series)} series)")
            shown = series[:max_series_per_metric]
            for s in shown:
                label = _label_str(s["labels"])
                if kind == "histogram":
                    # The Histogram.summary() shape: count/mean/p50/p99/max
                    # (quantiles are in-bucket interpolations).
                    lines.append(
                        f"  {label or '(all)'}: count={s['count']} "
                        f"mean={_fmt(s['mean'])} p50={_fmt(s.get('p50'))} "
                        f"p99={_fmt(s.get('p99'))} max={_fmt(s['max'])}"
                    )
                else:
                    lines.append(f"  {label or '(all)'}: {_fmt(s['value'])}")
            if len(series) > max_series_per_metric:
                lines.append(
                    f"  ... {len(series) - max_series_per_metric} more series"
                )
        if not lines:
            return "(no metrics recorded)"
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
