"""Deterministic JSON / CSV / SVG emission.

Everything here is byte-reproducible for fixed input: floats are
always rendered with 17 significant digits, dict key order is the
insertion order of the payload builders, SVG coordinates are rounded
to fixed decimals, and files are written atomically so a crash never
leaves a half-written artifact.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

from .errors import ConfigError

SCHEMA_VERSION = 1
HISTOGRAM_BINS = 40
SCATTER_MAX_POINTS = 5000  # a larger sample is thinned to this many evenly spaced points


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ConfigError(f"non-finite value {x!r} in a report")
    return f"{x:.17g}"


def _json_fragment(obj, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, complex):
        out.append(f"[{format_float(obj.real)}, {format_float(obj.imag)}]")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[")
        for i, item in enumerate(obj):
            out.append("\n" + pad + "  ")
            _json_fragment(item, out, indent + 1)
            if i < len(obj) - 1:
                out.append(",")
        out.append("\n" + pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{")
        items = list(obj.items())
        for i, (k, v) in enumerate(items):
            if not isinstance(k, str):
                raise ConfigError(f"non-string report key {k!r}")
            out.append("\n" + pad + "  " + json.dumps(k) + ": ")
            _json_fragment(v, out, indent + 1)
            if i < len(items) - 1:
                out.append(",")
        out.append("\n" + pad + "}")
    else:
        raise ConfigError(f"unserializable report value of type {type(obj).__name__}")


def to_json_text(obj) -> str:
    out: list[str] = []
    _json_fragment(obj, out, 0)
    out.append("\n")
    return "".join(out)


def atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8", newline="\n")
    os.replace(tmp, path)


def write_json(path: Path, payload: dict) -> None:
    atomic_write_text(path, to_json_text(payload))


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_float(v)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        if "," in v or '"' in v or "\n" in v:
            return '"' + v.replace('"', '""') + '"'
        return v
    raise ConfigError(f"unserializable CSV cell of type {type(v).__name__}")


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# SVG plots


def _svg_header(width: int, height: int, title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" font-size="15">{title}</text>',
    ]


def _placeholder(path: Path, title: str, warning: str) -> None:
    parts = _svg_header(640, 120, title)
    parts.append(
        '<text x="320" y="70" text-anchor="middle" font-size="13" fill="#aa3311">'
        f"{warning}</text>"
    )
    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts) + "\n")


def svg_gap_histogram(path: Path, values: list[float], window: tuple[float, float], title: str) -> None:
    """Histogram of height values over the window."""
    lo, hi = window
    if not values or hi <= lo:
        _placeholder(path, title, "empty report: no values to plot")
        return
    bins = HISTOGRAM_BINS
    counts = [0] * bins
    for v in values:
        i = min(int((v - lo) / (hi - lo) * bins), bins - 1)
        if 0 <= i < bins:
            counts[i] += 1
    peak = max(counts) or 1
    w, h = 640, 420
    x0, y0, x1, y1 = 60, 40, w - 20, h - 50
    parts = _svg_header(w, h, title)
    bw = (x1 - x0) / bins
    for i, c in enumerate(counts):
        if c == 0:
            continue
        bh = (y1 - y0) * c / peak
        parts.append(
            f'<rect x="{x0 + i * bw:.2f}" y="{y1 - bh:.2f}" width="{bw - 1:.2f}" '
            f'height="{bh:.2f}" fill="#4477aa"/>'
        )
    parts.append(f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}" stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    for frac, val in ((0.0, lo), (0.5, (lo + hi) / 2), (1.0, hi)):
        x = x0 + frac * (x1 - x0)
        parts.append(
            f'<text x="{x:.2f}" y="{y1 + 18}" text-anchor="middle" font-size="11">{val:.4g}</text>'
        )
    parts.append(
        f'<text x="{x0 - 8}" y="{y0 + 4}" text-anchor="end" font-size="11">{peak}</text>'
    )
    parts.append(
        f'<text x="{x0 - 8}" y="{y1 + 4}" text-anchor="end" font-size="11">0</text>'
    )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.1f}" y="{h - 14}" text-anchor="middle" font-size="12">height value</text>'
    )
    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts) + "\n")


def svg_julia_scatter(path: Path, points: list[complex], circle_radius: float, title: str) -> None:
    """Scatter of Julia sample points with the |z| = radius circle."""
    if not points:
        _placeholder(path, title, "empty report: no points to plot")
        return
    if len(points) > SCATTER_MAX_POINTS:
        stride = len(points) / SCATTER_MAX_POINTS
        points = [points[int(i * stride)] for i in range(SCATTER_MAX_POINTS)]
    extent = max(
        max(abs(z.real) for z in points),
        max(abs(z.imag) for z in points),
        circle_radius,
    ) * 1.08
    w, h = 560, 590
    x0, y0, size = 30, 40, 500
    scale = size / (2 * extent)

    def px(z: complex) -> tuple[float, float]:
        return x0 + (z.real + extent) * scale, y0 + (extent - z.imag) * scale

    parts = _svg_header(w, h, title)
    cx, cy = px(0j)
    parts.append(
        f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{circle_radius * scale:.2f}" '
        'fill="none" stroke="#cc5511" stroke-width="1.5"/>'
    )
    for z in points:
        x, y = px(z)
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.2" fill="#225588"/>')
    parts.append(
        f'<text x="{w / 2:.1f}" y="{h - 14}" text-anchor="middle" font-size="12">'
        f"extent {extent:.4g}, circle radius {circle_radius:.6g}</text>"
    )
    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts) + "\n")


def svg_defect_decay(
    path: Path, junctions: list[int], defects: list[float], title: str
) -> None:
    """log10 defect against junction depth."""
    if not junctions or len(junctions) != len(defects):
        _placeholder(path, title, "empty report: no defects to plot")
        return
    logs = [math.log10(max(d, 1e-17)) for d in defects]
    ylo = math.floor(min(logs)) - 1
    yhi = math.ceil(max(logs)) + 1
    xlo, xhi = min(junctions), max(junctions)
    xspan = max(xhi - xlo, 1)
    w, h = 640, 420
    x0, y0, x1, y1 = 70, 40, w - 30, h - 50
    parts = _svg_header(w, h, title)

    def px(j: float, lg: float) -> tuple[float, float]:
        return (
            x0 + (j - xlo) / xspan * (x1 - x0),
            y1 - (lg - ylo) / (yhi - ylo) * (y1 - y0),
        )

    for k in range(ylo, yhi + 1):
        _, y = px(xlo, k)
        parts.append(
            f'<line x1="{x0}" y1="{y:.2f}" x2="{x1}" y2="{y:.2f}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{x0 - 6}" y="{y + 4:.2f}" text-anchor="end" font-size="10">1e{k}</text>'
        )
    coords = [px(j, lg) for j, lg in zip(junctions, logs)]
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#225588" stroke-width="1.5"/>')
    for x, y in coords:
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="#225588"/>')
    parts.append(f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}" stroke="black"/>')
    for j in junctions:
        x, _ = px(j, ylo)
        parts.append(
            f'<text x="{x:.2f}" y="{y1 + 16}" text-anchor="middle" font-size="11">{j}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.1f}" y="{h - 14}" text-anchor="middle" font-size="12">junction depth</text>'
    )
    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts) + "\n")
