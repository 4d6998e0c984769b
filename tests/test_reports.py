import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horolab.errors import ConfigError
from horolab.reports import (
    atomic_write_text,
    format_float,
    svg_defect_decay,
    svg_gap_histogram,
    svg_julia_scatter,
    to_json_text,
    write_csv,
    write_json,
)


@settings(deadline=None, max_examples=200)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_format_round_trips(x):
    assert float(format_float(x)) == x


def test_float_format_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError):
            format_float(bad)


def test_json_text_is_valid_json_with_stable_layout():
    payload = {
        "b": 1,
        "a": [1.5, True, None, "x,y"],
        "z": complex(0.25, -1.0),
        "nested": {"k": 2},
    }
    text = to_json_text(payload)
    parsed = json.loads(text)
    # insertion order preserved, complex encoded as a [re, im] pair
    assert list(parsed.keys()) == ["b", "a", "z", "nested"]
    assert parsed["z"] == [0.25, -1.0]
    assert text.endswith("\n")
    assert to_json_text(payload) == text


def test_json_floats_carry_full_precision():
    x = 0.1 + 0.2
    assert json.loads(to_json_text({"x": x}))["x"] == x


def test_atomic_write_replaces_content(tmp_path):
    p = tmp_path / "out.txt"
    atomic_write_text(p, "first\n")
    atomic_write_text(p, "second\n")
    assert p.read_text() == "second\n"
    assert list(tmp_path.iterdir()) == [p]  # no stray temp files


def test_write_json_file(tmp_path):
    p = tmp_path / "r.json"
    write_json(p, {"v": 3.5})
    assert json.loads(p.read_text()) == {"v": 3.5}


def test_csv_quoting_and_bools(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(
        p,
        ["name", "flag", "value"],
        [("plain", True, 1.5), ('has "quote"', False, 2.0), ("a,b", True, 0.1)],
    )
    lines = p.read_text().splitlines()
    assert lines[0] == "name,flag,value"
    assert lines[1].startswith("plain,true,")
    assert '"has ""quote""",false' in lines[2]
    assert lines[3].startswith('"a,b",true')


def test_csv_floats_round_trip(tmp_path):
    p = tmp_path / "f.csv"
    write_csv(p, ["x"], [(0.1 + 0.2,)])
    assert float(p.read_text().splitlines()[1]) == 0.1 + 0.2


def test_svg_outputs_deterministic(tmp_path):
    vals = [0.1, 0.3, 0.35, 0.7]
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    svg_gap_histogram(a, vals, (0.0, 1.0), "gaps")
    svg_gap_histogram(b, vals, (0.0, 1.0), "gaps")
    assert a.read_text() == b.read_text()
    assert a.read_text().startswith("<svg")


def test_svg_empty_inputs_render_placeholder(tmp_path):
    p = tmp_path / "empty.svg"
    svg_gap_histogram(p, [], (0.0, 1.0), "gaps")
    text = p.read_text()
    assert "<svg" in text and "empty report" in text
    q = tmp_path / "empty2.svg"
    svg_julia_scatter(q, [], 1.0, "julia")
    assert "empty report" in q.read_text()


def test_svg_scatter_subsamples_large_clouds(tmp_path):
    pts = [complex(math.cos(t / 500), math.sin(t / 500)) for t in range(20000)]
    p = tmp_path / "big.svg"
    svg_julia_scatter(p, pts, 1.0, "circle")
    text = p.read_text()
    assert text.count("<circle") <= 5001  # points plus the reference circle
    assert text.startswith("<svg")


def test_svg_defect_decay_handles_log_scale(tmp_path):
    p = tmp_path / "decay.svg"
    svg_defect_decay(p, [10, 20, 30], [1e-4, 1e-7, 1e-10], "defects")
    text = p.read_text()
    assert "<svg" in text and "polyline" in text
