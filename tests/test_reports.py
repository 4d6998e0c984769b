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


def test_svg_scatter_places_each_point_and_the_circle(tmp_path):
    p = tmp_path / "three.svg"
    svg_julia_scatter(p, [1 + 0j, complex(-0.5, 0.25), -1j], 1.0, "three")
    circles = [line for line in p.read_text().splitlines() if line.startswith("<circle")]
    assert circles == [
        '<circle cx="280.00" cy="290.00" r="231.48" fill="none" stroke="#cc5511" stroke-width="1.5"/>',
        '<circle cx="511.48" cy="290.00" r="1.2" fill="#225588"/>',
        '<circle cx="164.26" cy="232.13" r="1.2" fill="#225588"/>',
        '<circle cx="280.00" cy="521.48" r="1.2" fill="#225588"/>',
    ]


def test_svg_defect_decay_handles_log_scale(tmp_path):
    p = tmp_path / "decay.svg"
    svg_defect_decay(p, [10, 20, 30], [1e-4, 1e-7, 1e-10], "defects")
    text = p.read_text()
    assert "<svg" in text and "polyline" in text


def reference_cell(v) -> str:
    """The CSV writer's cell as it was before it wrote by columns."""
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


def reference_write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(reference_cell(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308, 1.7976931348623157e308)
CELLS = {
    "float": st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS)),
    "int": st.one_of(st.integers(), st.integers(-10, 10)),
    "bool": st.booleans(),
    "str": st.text(st.sampled_from('ab,"\n x{}:'), max_size=6),
}
CELLS["mixed"] = st.one_of(*CELLS.values())


@st.composite
def tables(draw):
    """Rows of one width; each column of one kind of cell, or mixed."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=5))
    n_rows = draw(st.integers(0, 12))
    return [tuple(draw(CELLS[k]) for k in kinds) for _ in range(n_rows)]


@settings(deadline=None, max_examples=300)
@given(tables())
def test_csv_writer_matches_the_cell_by_cell_writer(tmp_path_factory, rows):
    d = tmp_path_factory.mktemp("csv")
    header = [f"c{i}" for i in range(len(rows[0]) if rows else 1)]
    reference_write_csv(d / "ref.csv", header, rows)
    write_csv(d / "new.csv", header, rows)
    assert (d / "new.csv").read_bytes() == (d / "ref.csv").read_bytes()


def test_csv_writer_matches_on_ragged_and_empty_tables(tmp_path):
    for n, rows in enumerate([[], [()], [(), ()], [(1.5,), (1.5, "a")], [(True, 2), (3,)]]):
        reference_write_csv(tmp_path / f"ref{n}.csv", ["h"], rows)
        write_csv(tmp_path / f"new{n}.csv", ["h"], rows)
        assert (tmp_path / f"new{n}.csv").read_bytes() == (tmp_path / f"ref{n}.csv").read_bytes()


def raised(writer, path, rows) -> str:
    with pytest.raises(ConfigError) as err:
        writer(path, ["h"], rows)
    return str(err.value)


@settings(deadline=None, max_examples=200)
@given(tables(), st.data())
def test_csv_writer_raises_on_the_same_non_finite_cell(tmp_path_factory, rows, data):
    d = tmp_path_factory.mktemp("csv")
    width = len(rows[0]) if rows else 1
    rows = rows or [(0.5,)]
    for bad in data.draw(st.lists(st.sampled_from([math.nan, math.inf, -math.inf]), min_size=1, max_size=3)):
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, width - 1))
        rows[i] = rows[i][:j] + (bad,) + rows[i][j + 1 :]
    assert raised(write_csv, d / "new.csv", rows) == raised(reference_write_csv, d / "ref.csv", rows)
    assert not (d / "new.csv").exists()
