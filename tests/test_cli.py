import json
import math
import subprocess
import sys

import numpy as np
import pytest

from horolab import periodic
from horolab.cli import COMMANDS, main, make_parser, parse_epsilon
from horolab.errors import ConfigError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_parse_epsilon_forms():
    assert parse_epsilon("0.1") == 0.1 + 0j
    assert parse_epsilon("-1,0.5") == complex(-1, 0.5)
    with pytest.raises(ConfigError):
        parse_epsilon("nope")


def test_cocycle_command_positive_value(tmp_path, capsys):
    code, payload = run(
        capsys,
        "cocycle",
        "--epsilon", "0.1",
        "--word", "-",
        "--tol", "1e-9",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert payload["value"] > 0
    assert payload["tail_bound"] <= 1e-9
    assert abs(payload["value"] - 0.45047942930981455) < 1e-9
    on_disk = json.loads((tmp_path / "cocycle.json").read_text())
    assert on_disk == payload


def test_fixed_points_command(tmp_path, capsys):
    code, payload = run(
        capsys, "fixed-points", "--epsilon", "0", "--out", str(tmp_path)
    )
    assert code == 0
    tags = {
        round(p["location"][0]): p["classification"]
        for p in payload["fixed_points"]
    }
    assert tags == {0: "superattracting", 1: "repelling"}
    rep = [
        p for p in payload["fixed_points"] if p["classification"] == "repelling"
    ][0]
    assert abs(complex(*rep["multiplier"]) - 2) < 1e-9
    assert (tmp_path / "fixed_points.json").exists()
    assert (tmp_path / "fixed_points.csv").exists()


def test_heights_emits_csv_and_svg(tmp_path, capsys):
    code, payload = run(
        capsys,
        "heights",
        "--epsilon", "-1",
        "--seed", "7",
        "--out", str(tmp_path),
        "--tol", "1e-9",
    )
    assert code == 0
    assert (tmp_path / "height_values.csv").exists()
    svgs = list(tmp_path.glob("*.svg"))
    assert svgs and all(s.read_text().startswith("<svg") for s in svgs)
    assert payload["max_gap"] < 1.0
    assert payload["count"] > 100


def test_degenerate_heights_sit_on_log2_grid(tmp_path, capsys):
    code, payload = run(
        capsys,
        "heights",
        "--epsilon", "0",
        "--seed", "7",
        "--out", str(tmp_path),
        "--tol", "1e-9",
    )
    assert code == 0
    step = math.log(2)
    rows = (tmp_path / "height_values.csv").read_text().splitlines()[1:]
    assert rows
    for row in rows:
        v = float(row.split(",")[0])
        frac = (v / step) % 1.0
        assert min(frac, 1 - frac) < 1e-8


def test_missing_seed_on_randomized_command_exits_2(tmp_path, capsys):
    code, payload = run(
        capsys, "julia", "--epsilon", "-1", "--out", str(tmp_path)
    )
    assert code == 2
    assert payload["error"] == "config-error"
    assert "--seed" in payload["message"]


@pytest.mark.parametrize("tol", ["-1", "inf", "nan"])
def test_bad_tol_exits_2(tmp_path, capsys, tol):
    code, payload = run(
        capsys,
        "cocycle",
        "--epsilon", "0.1",
        "--word", "-",
        "--tol", tol,
        "--out", str(tmp_path),
    )
    assert code == 2
    assert payload["error"] == "config-error"


@pytest.mark.parametrize("command", ["cocycle", "fixed-points", "sigma-delta", "julia", "classify"])
@pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf", "1e400", "0.1,nan"])
def test_non_finite_epsilon_exits_2(tmp_path, capsys, command, epsilon):
    code, payload = run(capsys, command, f"--epsilon={epsilon}", "--out", str(tmp_path))
    assert code == 2
    assert payload["error"] == "config-error"
    assert "epsilon must be finite" in payload["message"]


@pytest.mark.parametrize("command", sorted(c for c, spec in COMMANDS.items() if "seed" in spec.flags))
def test_negative_seed_exits_2(tmp_path, capsys, command):
    word = ["--word=-"] if "word" in COMMANDS[command].flags else []
    code, payload = run(capsys, command, "--epsilon", "-1", *word, "--seed", "-1", "--out", str(tmp_path))
    assert code == 2
    assert payload["error"] == "config-error"
    assert "seed" in payload["message"]


@pytest.mark.parametrize(
    "command, key",
    [
        ("cocycle", "depth"),
        ("cocycle", "tol"),
        ("cocycle", "seed"),
        ("semigroup", "junctions"),
        ("julia", "depth"),
        ("heights", "seed"),
    ],
)
def test_non_numeric_config_value_exits_2(tmp_path, capsys, command, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"epsilon = 0.1\nword = -\n{key} = abc\n")
    code, payload = run(capsys, command, "--config", str(cfg), "--out", str(tmp_path))
    assert code == 2
    assert payload["error"] == "config-error"
    assert key in payload["message"]


@pytest.mark.parametrize("flag", ["--config", "--map"])
def test_missing_input_file_exits_2(tmp_path, capsys, flag):
    code, payload = run(
        capsys, "fixed-points", flag, str(tmp_path / "absent"), "--out", str(tmp_path)
    )
    assert code == 2
    assert payload["error"] == "config-error"


@pytest.mark.parametrize("command", ["fixed-points", "classify", "linearize", "collinearity"])
@pytest.mark.parametrize("given", ["flag", "config-key"])
def test_retired_map_exits_2(tmp_path, capsys, command, given):
    """--map (a rational map JSON file) is gone: z**2 + epsilon is the only map."""
    path = tmp_path / "map.json"
    path.write_text('{"num": [[0, 0], [0, 0], [1, 0]], "den": [[1, 0]]}')
    if given == "flag":
        argv = ["--map", str(path)]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"map = {path}\n")
        argv = ["--epsilon", "-1", "--config", str(cfg)]
    code, payload = run(capsys, command, *argv, "--out", str(tmp_path / "out"))
    assert code == 2
    assert payload["error"] == "config-error"
    assert "map" in payload["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["cocycle", "--epsilon", "0.1", "--word=-", "--depth", "abc"],
        # a negative RE,IM value reads as a flag unless joined with "="
        ["cocycle", "--epsilon", "-0.525,0.16", "--word=-"],
    ],
)
def test_argument_errors_print_json(tmp_path, capsys, argv):
    code, payload = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 2
    assert payload["error"] == "config-error"


def test_joined_negative_complex_epsilon_parses(tmp_path, capsys):
    code, payload = run(
        capsys, "fixed-points", "--epsilon=-0.525,0.16", "--out", str(tmp_path)
    )
    assert code == 0
    assert payload["epsilon"] == [-0.525, 0.16]


@pytest.mark.parametrize(
    "text",
    [
        '{"num": 5}',
        '{"num": [[0, 0], [1, 0]], "den": [[1, 0]]}',
        '{"num": [[1e400, 0], [0, 0], [1, 0]], "den": [[1, 0]]}',  # json reads 1e400 as inf
        '{"num": [[NaN, 0], [0, 0], [1, 0]], "den": [[1, 0]]}',  # a literal json accepts
    ],
    ids=["malformed", "degree-1", "inf-coefficient", "nan-coefficient"],
)
def test_inadmissible_map_file_exits_2(tmp_path, capsys, text):
    """No map file is admissible: --map is retired, whatever the file holds."""
    path = tmp_path / "map.json"
    path.write_text(text)
    code, payload = run(
        capsys, "fixed-points", "--map", str(path), "--out", str(tmp_path)
    )
    assert code == 2
    assert payload["error"] == "config-error"


def test_depth_rejected_where_unread(tmp_path, capsys):
    code, payload = run(
        capsys, "classify", "--epsilon", "0.1", "--depth", "3", "--out", str(tmp_path)
    )
    assert code == 2
    assert payload["error"] == "config-error"
    assert "depth" in payload["message"]


def test_each_parser_takes_exactly_its_declared_flags():
    sub = next(a for a in make_parser()._actions if a.dest == "command")
    for name, spec in COMMANDS.items():
        options = {o for a in sub.choices[name]._actions for o in a.option_strings}
        assert options == {"-h", "--help", "--out", "--config"} | {f"--{f}" for f in spec.flags}, name


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["fixed-points", "--epsilon", "0", "--word=-"], "--word"),
        (["classify", "--epsilon", "0.1", "--word=-"], "--word"),
        (["linearize", "--epsilon", "-1", "--seed", "3"], "--seed"),
        (["collinearity", "--epsilon", "-3", "--tol", "1e-9"], "--tol"),
        (["julia", "--epsilon", "-1", "--seed", "7", "--tol", "1e-9"], "--tol"),
        (["cocycle", "--epsilon", "0.1", "--word=-", "--seed", "3"], "--seed"),
        (["cocycle", "--epsilon", "0.1", "--word=-", "--map", "f.json"], "--map"),
        (["field", "--epsilon", "0.1", "--word=-", "--seed", "3"], "--seed"),
        (["heights", "--epsilon", "-1", "--seed", "7", "--word=---"], "--word"),
        (["semigroup", "--epsilon", "0.1", "--depth", "5"], "--depth"),
        (["b-epsilon", "--epsilon", "0.1", "--seed", "7", "--word=-"], "--word"),
        (["sigma-delta", "--epsilon", "-1", "--seed", "7", "--tol", "1e-9"], "--tol"),
        (["excursions", "--epsilon", "0.1", "--word=-", "--seed", "7", "--depth", "5"], "--depth"),
        (["bound-528", "--epsilon", "-1", "--seed", "7", "--map", "f.json"], "--map"),
        (["limit-decomp", "--epsilon", "0.1", "--seed", "3"], "--seed"),
        (["suite", "--epsilon", "-1", "--seed", "7", "--tol", "1e-9"], "--tol"),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else v,
)
def test_unread_flag_exits_2(tmp_path, capsys, argv, flag):
    code, payload = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 2
    assert payload["error"] == "config-error"
    assert flag in payload["message"]


def test_undeclared_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_word = 5\n")  # a typo of n_words
    code, payload = run(
        capsys, "heights", "--epsilon", "-1", "--seed", "7", "--config", str(cfg), "--out", str(tmp_path)
    )
    assert code == 2
    assert payload["error"] == "config-error"
    assert "n_word" in payload["message"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["fixed-points"], "--epsilon"),
        (["field", "--epsilon", "0.1"], "--word"),
        (["excursions", "--word=-"], "--epsilon"),
    ],
    ids=["fixed-points", "field", "excursions"],
)
def test_missing_required_input_exits_2(tmp_path, capsys, argv, flag):
    code, payload = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 2
    assert payload["error"] == "config-error"
    assert flag in payload["message"]


@pytest.mark.parametrize(
    "argv, key",
    [
        (["julia", "--epsilon", "-1", "--seed", "7"], "n_points"),
        (["sigma-delta", "--epsilon", "-1", "--seed", "7"], "n_points"),
        (["heights", "--epsilon", "-1", "--seed", "7"], "max_len"),
        (["bound-528", "--epsilon", "-1", "--seed", "7"], "max_len"),
        (["field", "--epsilon", "0.1", "--word=-"], "grid"),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else v,
)
def test_config_key_out_of_range_exits_2(tmp_path, capsys, argv, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 0\n")
    code, payload = run(capsys, *argv, "--config", str(cfg), "--out", str(tmp_path))
    assert code == 2
    assert payload["error"] == "config-error"
    assert key in payload["message"]


def test_computation_error_exits_1(tmp_path, capsys):
    # sigma construction must fail at epsilon -2
    code, payload = run(
        capsys,
        "sigma-delta",
        "--epsilon", "-2",
        "--seed", "7",
        "--out", str(tmp_path),
    )
    assert code == 1
    assert "error" in payload


def test_non_finite_periodic_points_exit_1(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("period = 4\n")
    monkeypatch.setattr(periodic, "_aberth", lambda z, newton: np.full_like(z, complex("nan")))
    code, payload = run(capsys, "classify", "--epsilon", "-1.1", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 1
    assert payload["error"] == "root-finding-error"


def test_classify_family_at_period_6(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("period = 6\n")
    code, payload = run(capsys, "classify", "--epsilon", "-1.1", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 0
    assert payload["count"] == 54


@pytest.mark.parametrize(
    "command, text, key",
    [
        ("limit-decomp", "junctions = 5", "junctions"),  # y = "-" enters at depth 6
        ("limit-decomp", "junctions = 20,10", "junctions"),
        ("semigroup", "junctions = 0,1", "junctions"),
        ("limit-decomp", "nested_junction = 2", "nested_junction"),
    ],
    ids=["above-entry", "unsorted", "semigroup", "nested"],
)
def test_rejected_junction_exits_2(tmp_path, capsys, command, text, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + "\n")
    code, payload = run(capsys, command, "--epsilon", "0.1", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 2
    assert payload["error"] == "config-error"
    assert payload["message"].startswith(key + ":")


@pytest.mark.parametrize("command", ["semigroup", "limit-decomp"])
def test_concatenation_commands_take_a_long_word_c(tmp_path, capsys, command):
    # c's window guide is read off c's own realization, so a prefix longer
    # than the window (8 steps) is fine
    cfg = tmp_path / "run.cfg"
    cfg.write_text("word_c = --+--+--+--+\n")
    code, payload = run(capsys, command, "--epsilon", "0.1", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 0
    assert payload["word_c" if command == "semigroup" else "sequence"].count("--+") == 4


def test_nested_junction_rejection_names_the_entry_index(tmp_path, capsys):
    # the probe at depth 11 is too shallow to confirm y = "-"'s entry; the
    # message names the index y's realization confirms
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nested_junction = 2\n")
    argv = ("limit-decomp", "--epsilon", "0.1", "--config", str(cfg), "--out", str(tmp_path))
    code, payload = run(capsys, *argv)
    assert code == 2
    assert payload["error"] == "config-error"
    assert payload["message"].endswith("certified entry index (6)")


def test_cli_import_leaves_mpmath_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, horolab.cli; print('mpmath' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.stdout.strip() == "False", proc.stderr


def test_config_file_merged_under_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epsilon = 0.1\nword = -+-\ntol = 1e-9\n# comment\n")
    code, from_file = run(
        capsys, "cocycle", "--config", str(cfg), "--out", str(tmp_path / "a")
    )
    assert code == 0
    code, overridden = run(
        capsys,
        "cocycle",
        "--config", str(cfg),
        "--word", "-",
        "--out", str(tmp_path / "b"),
    )
    assert code == 0
    assert from_file["word"] == "-+-" and overridden["word"] == "-"
    assert from_file["value"] != overridden["value"]


def test_floats_serialized_at_full_precision(tmp_path, capsys):
    code, payload = run(
        capsys,
        "cocycle",
        "--epsilon", "0.1",
        "--word", "-",
        "--tol", "1e-9",
        "--out", str(tmp_path),
    )
    assert code == 0
    text = (tmp_path / "cocycle.json").read_text()
    v = payload["value"]
    assert f"{v:.17g}" in text


def test_excursions_command_counts(tmp_path, capsys):
    code, payload = run(
        capsys,
        "excursions",
        "--epsilon", "0.1",
        "--word", "-",
        "--seed", "7",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert payload["excursion_count"] == 1
    assert payload["total_excursion_length"] == 5
    assert payload["leaving_indices"] == [0]
    assert payload["return_indices"] == [6]


def test_suite_accepts_epsilon_but_records_none(tmp_path, capsys, monkeypatch):
    """No criterion reads --epsilon (each fixes its own parameters), so
    neither report.json nor stdout names one; the flag stays accepted."""
    from horolab import cli
    from horolab.suite import CriterionResult

    seeds = []

    def battery(seed):
        seeds.append(seed)
        return [CriterionResult(i, "stand-in", True, {}, 0.0, {}) for i in range(1, 14)]

    monkeypatch.setattr(cli, "run_battery", battery)
    code, payload = run(capsys, "suite", "--epsilon", "-1", "--seed", "7", "--out", str(tmp_path))
    assert code == 0 and seeds == [7]
    assert "epsilon" not in payload
    assert payload == json.loads((tmp_path / "report.json").read_text())
    assert list(payload)[:3] == ["schema", "command", "seed"]
