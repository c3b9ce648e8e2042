"""What `simulate`'s argv parses to, and what its ``--help`` names.

Each argv below maps to ``dataclasses.asdict`` of its one config, written
out as a literal, or to None when the config refuses it: the benchmark's
four workloads at seed 7, the ``test_cli_text`` cases, the ``ci-*``
exit-code checks, README's examples and the aliases.  A change of the
parser that moves any field of any of them, or the type a value is stored
as, fails here.  Each ``ci-*`` argv also runs, with RuntimeWarning as an
error, and must give its `CI_OUTCOMES` row; one of them runs again through
``python -m succrelay.cli``.  README's commands and its library example
are read from README itself, so they cannot drift.  `main` parses with
the one parser built at import, so calls in one process must not see each
other: each gives what its argv gives in a process of its own.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from test_cli_text import CASES

from succrelay.cli import build_parser, config_from_args, main
from succrelay.experiments import _FIELDS, CHOICES, ConfigError

DEFAULTS = {
    "experiment": "geometry_sweep",
    "geometry": "III",
    "l": 7,
    "snr_grid_db": (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0),
    "trials": 10000,
    "seed": 12345,
    "protocols": (
        "direct", "classic1", "classic2", "successive_genie", "successive_vblast", "theorem1"
    ),
    "adaptive_rule": "a",
    "output_path": None,
    "output_format": "csv",
    "gain_l_values": (3, 7),
    "dmt_r": 0.0,
    "dmt_scheme": "successive",
    "dmt_trials_per_point": None,
}
CLOSE = '"d_sd": 1, "d_sr1": 0.5, "d_sr2": 0.5, "d_r1d": 0.5, "d_r2d": 0.5, "d_r1r2": 0.1'
CLOSE_GEOMETRY = {
    "d_sd": 1.0, "d_sr1": 0.5, "d_sr2": 0.5, "d_r1d": 0.5, "d_r2d": 0.5, "d_r1r2": 0.1
}
FAR = '"d_sd": 1, "d_sr1": 0.9, "d_sr2": 0.9, "d_r1d": 0.9, "d_r2d": 0.9, "d_r1r2": 0.9'
FAR_GEOMETRY = {
    "d_sd": 1.0, "d_sr1": 0.9, "d_sr2": 0.9, "d_r1d": 0.9, "d_r2d": 0.9, "d_r1r2": 0.9
}
README = Path(__file__).resolve().parents[1] / "README.md"
# the config file of the ci-config-override argv; its l = 0 fails unless a flag replaces it
GAIN_L0 = {
    "experiment": "gain_curve", "l": 0, "snr_grid_db": [0, 20], "trials": 50,
    "gain_l_values": [3],
}

# name -> (argv, the fields of its config that differ from DEFAULTS); "{config}"
# in an argv is the path of a file that holds GAIN_L0
ARGVS = {
    # bench/workloads.py, Workload.argv(7, "out.<format>") at scale 1
    "bench-sweep_full": (
        "--experiment geometry_sweep --seed 7 --snr 0 10 20 --trials 1000 --geometry III "
        "--l 7 --protocols direct classic1 classic2 successive_genie successive_vblast "
        "theorem1 --adaptive a --workers 1 --format csv --out out.csv",
        {"snr_grid_db": (0.0, 10.0, 20.0), "trials": 1000, "seed": 7, "output_path": "out.csv"},
    ),
    "bench-sweep_rates": (
        "--experiment geometry_sweep --seed 7 --snr 0 10 20 --trials 5000 --geometry I "
        "--l 7 --protocols direct classic1 classic2 successive_genie theorem1 "
        "--adaptive b --workers 1 --format csv --out out.csv",
        {"geometry": "I", "snr_grid_db": (0.0, 10.0, 20.0), "trials": 5000, "seed": 7,
         "protocols": ("direct", "classic1", "classic2", "successive_genie", "theorem1"),
         "adaptive_rule": "b", "output_path": "out.csv"},
    ),
    "bench-gain_curve": (
        "--experiment gain_curve --seed 7 --snr 0 5 10 15 20 25 30 35 40 --trials 10000 "
        "--gain-l 3 7 --workers 1 --format json --out out.json",
        {"experiment": "gain_curve", "seed": 7, "output_path": "out.json",
         "output_format": "json"},
    ),
    "bench-dmt_slope": (
        "--experiment dmt_slope --seed 7 --snr 20 30 40 --r 0 --dmt-scheme successive "
        "--dmt-trials 2000000 30000000 2000000 --l 7 --workers 2 --format csv --out out.csv",
        {"experiment": "dmt_slope", "snr_grid_db": (20.0, 30.0, 40.0), "seed": 7,
         "output_path": "out.csv", "dmt_trials_per_point": (2000000, 30000000, 2000000)},
    ),
    # tests/test_cli_text.py CASES, by name
    "geometry_sweep": (
        None,
        {"l": 3, "snr_grid_db": (0.0, 20.0), "trials": 20, "seed": 11},
    ),
    "geometry_sweep-none": (
        None,
        {"geometry": "I", "l": 2, "snr_grid_db": (10.0,), "trials": 15, "seed": 12,
         "protocols": ("direct", "classic2", "successive_vblast"), "adaptive_rule": "none"},
    ),
    "gain_curve": (
        None,
        {"experiment": "gain_curve", "snr_grid_db": (0.0, 20.0), "trials": 200, "seed": 4,
         "gain_l_values": (2, 3)},
    ),
    "dmt_slope-successive": (
        None,
        {"experiment": "dmt_slope", "snr_grid_db": (20.0, 30.0, 40.0), "trials": 40000,
         "seed": 5, "dmt_r": 0.5},
    ),
    "dmt_slope-classic2": (
        None,
        {"experiment": "dmt_slope", "snr_grid_db": (20.0, 30.0, 40.0), "seed": 6,
         "dmt_r": 0.35, "dmt_scheme": "classic2",
         "dmt_trials_per_point": (2000, 20000, 200000)},
    ),
    "single_realization-fallback": (
        None,
        {"experiment": "single_realization", "geometry": "I", "l": 3,
         "snr_grid_db": (0.0, 20.0), "seed": 1, "adaptive_rule": "c"},
    ),
    # exit codes, each run by test_ci_argv_gives_its_outcome
    "ci-config-override": (
        "--config {config} --l 3",
        {"experiment": "gain_curve", "l": 3, "snr_grid_db": (0.0, 20.0), "trials": 50,
         "gain_l_values": (3,)},
    ),
    "ci-gamma": (
        ["--geometry", "{" + CLOSE + ', "gamma": 1e4}', "--snr", "10", "--trials", "10"],
        {"geometry": {**CLOSE_GEOMETRY, "gamma": 10000.0}, "snr_grid_db": (10.0,),
         "trials": 10},
    ),
    "ci-shadow": (
        ["--geometry", "{" + CLOSE + ', "shadow_sigma_db": 1e4}', "--snr", "10",
         "--trials", "10"],
        {"geometry": {**CLOSE_GEOMETRY, "shadow_sigma_db": 10000.0},
         "snr_grid_db": (10.0,), "trials": 10},
    ),
    "ci-far": (
        ["--geometry", "{" + FAR + ', "gamma": 6670, "shadow_sigma_db": 0}', "--snr", "40",
         "--trials", "10"],
        {"geometry": {**FAR_GEOMETRY, "gamma": 6670.0, "shadow_sigma_db": 0.0},
         "snr_grid_db": (40.0,), "trials": 10},
    ),
    "ci-gain-snr": (
        "--experiment gain_curve --gain-l 3 7 --trials 10000 --snr 1545",
        {"experiment": "gain_curve", "snr_grid_db": (1545.0,)},
    ),
    "ci-dmt-snr": (
        "--experiment dmt_slope --snr 2000 2500 3080 --trials 1000",
        {"experiment": "dmt_slope", "snr_grid_db": (2000.0, 2500.0, 3080.0), "trials": 1000},
    ),
    "ci-preset-snr": (
        "--geometry III --snr 1545 --trials 10",
        {"snr_grid_db": (1545.0,), "trials": 10},
    ),
    "ci-custom-snr": (
        ["--geometry", "{" + CLOSE + "}", "--snr", "1538", "--trials", "10"],
        {"geometry": CLOSE_GEOMETRY, "snr_grid_db": (1538.0,), "trials": 10},
    ),
    # an infinite distance, which JSON spells Infinity; None: the config refuses it
    "ci-infinite-distance": (
        ["--geometry", "{" + CLOSE.replace('"d_sd": 1', '"d_sd": Infinity') + "}",
         "--snr", "10", "--trials", "100"],
        None,
    ),
    # V-BLAST alone, where the SIC's snr^2 is the first product to overflow
    "vblast-snr": (
        "--protocols successive_vblast --adaptive none --snr 1545 --trials 10",
        {"protocols": ("successive_vblast",), "adaptive_rule": "none",
         "snr_grid_db": (1545.0,), "trials": 10},
    ),
    "vblast-single-snr": (
        "--experiment single_realization --protocols successive_vblast --adaptive none "
        "--snr 1545 --trials 10",
        {"experiment": "single_realization", "protocols": ("successive_vblast",),
         "adaptive_rule": "none", "snr_grid_db": (1545.0,), "trials": 10},
    ),
    # README.md, "Command line"
    "readme-sweep": (
        "--experiment geometry_sweep --geometry III --l 7 --snr 0 5 10 15 20 --trials 10000 "
        "--seed 7 --adaptive a --out case3.csv --format csv",
        {"snr_grid_db": (0.0, 5.0, 10.0, 15.0, 20.0), "seed": 7, "output_path": "case3.csv"},
    ),
    "readme-gain": (
        "--experiment gain_curve --snr 0 10 20 30 40 --trials 10000 --seed 7 --gain-l 3 7 "
        "--out gain.json --format json",
        {"experiment": "gain_curve", "snr_grid_db": (0.0, 10.0, 20.0, 30.0, 40.0), "seed": 7,
         "output_path": "gain.json", "output_format": "json"},
    ),
    "readme-dmt": (
        "--experiment dmt_slope --snr 20 30 40 --trials 1000000 --seed 7 --r 0 --out dmt.csv",
        {"experiment": "dmt_slope", "snr_grid_db": (20.0, 30.0, 40.0), "trials": 1000000,
         "seed": 7, "output_path": "dmt.csv"},
    ),
    "readme-single": (
        "--experiment single_realization --geometry II --l 7 --snr 10 --trials 1 --seed 3",
        {"experiment": "single_realization", "geometry": "II", "snr_grid_db": (10.0,),
         "trials": 1, "seed": 3},
    ),
    # aliases, the ignored --workers, and a file value that a flag replaces
    "short-experiment": ("-e gain_curve --seed 2", {"experiment": "gain_curve", "seed": 2}),
    "workers": ("--workers 2", {}),
    "no-flags": ([], {}),
    "config-flags-win": (
        "--config {config} --experiment dmt_slope --l 2 --trials 7 --snr 30 --gain-l 2 5",
        {"experiment": "dmt_slope", "l": 2, "snr_grid_db": (30.0,), "trials": 7,
         "gain_l_values": (2, 5)},
    ),
}


# ci-* argv -> (its exit code, the config field that its one error line names).
# That --workers changes no byte is pinned by test_csv_byte_identical_across_runs_and_workers
# and acceptance criterion 8
CI_OUTCOMES = {
    "ci-config-override": (0, None),
    # finite gamma or shadowing that overflows the channel draw, or finite
    # gains above snr that overflow a kernel (~1e305 at 40 dB)
    "ci-gamma": (2, "geometry"),
    "ci-shadow": (2, "geometry"),
    "ci-far": (2, "geometry"),
    # an SNR that overflows a kernel: the gain curve and the DMT slope draw
    # Exp(1) gains, and the sweeps' snr is at least every gain
    "ci-gain-snr": (2, "snr_grid_db"),
    "ci-dmt-snr": (2, "snr_grid_db"),
    "ci-preset-snr": (2, "snr_grid_db"),
    "ci-custom-snr": (2, "snr_grid_db"),
    "ci-infinite-distance": (2, "geometry"),
}


def _argv(name: str, tmp_path) -> list[str]:
    argv = ARGVS[name][0]
    argv = CASES[name] if argv is None else argv
    argv = argv.split() if isinstance(argv, str) else argv
    if "{config}" in argv:
        path = tmp_path / "gain_l0.json"
        path.write_text(json.dumps(GAIN_L0), encoding="utf-8")
        argv = [str(path) if a == "{config}" else a for a in argv]
    return argv


def _config(argv: list[str]) -> dict:
    return dataclasses.asdict(config_from_args(build_parser().parse_args(argv)))


@pytest.mark.parametrize("name", ARGVS)
def test_argv_parses_to_config(name, tmp_path):
    if ARGVS[name][1] is None:
        with pytest.raises(ConfigError) as exc:
            _config(_argv(name, tmp_path))
        assert exc.value.field == CI_OUTCOMES[name][1]
        return
    expected = {**DEFAULTS, **ARGVS[name][1]}
    # repr also tells an int from a float and a list from a tuple
    assert repr(_config(_argv(name, tmp_path))) == repr(expected)


def _run(argv: list[str]) -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return main(argv)


@pytest.mark.parametrize("name", [name for name in ARGVS if name.startswith("ci-")])
def test_ci_argv_gives_its_outcome(name, tmp_path, capsys):
    """Its exit code, and one error line naming its field or none."""
    rc, field = CI_OUTCOMES[name]
    assert _run(_argv(name, tmp_path)) == rc
    err = capsys.readouterr().err
    if field is None:
        assert err == ""
    else:
        assert err.count("\n") == 1 and err.startswith(f"error: config field '{field}'"), err


def test_infinite_distance_is_refused_by_name(tmp_path, capsys):
    assert _run(_argv("ci-infinite-distance", tmp_path)) == 2
    err = capsys.readouterr().err
    assert err == "error: config field 'geometry': d_sd must be a finite real number > 0, got inf\n"


@pytest.mark.parametrize("name", ["vblast-snr", "vblast-single-snr"])
def test_vblast_snr_overflow_is_named_where_it_happens(name, tmp_path, capsys):
    """The SIC's snr^2 overflows as an overflow, not later as an invalid divide."""
    assert _run(_argv(name, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert err.startswith("error: config field 'snr_grid_db': overflow encountered"), err


def _outcome(argv: list[str], capsys) -> tuple:
    """(exit code, stdout, stderr, the --out file's bytes or None) of one
    in-process call; the file is removed afterwards."""
    try:
        rc = _run(argv)
    except SystemExit as exc:  # argparse's exit on a bad flag
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err, _take_output(argv)


def _take_output(argv: list[str]) -> bytes | None:
    path = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    if path is None or not path.exists():
        return None
    data = path.read_bytes()
    path.unlink()
    return data


def test_main_never_builds_a_parser(monkeypatch, capsys):
    """`main` parses with the parser built at import; `build_parser()` still
    returns a fresh one."""
    assert build_parser() is not build_parser()

    def refuse():
        raise AssertionError("main built a parser")

    monkeypatch.setattr("succrelay.cli.build_parser", refuse)
    assert main(CASES["gain_curve"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["--adaptive", "z"])
    assert exc.value.code == 2
    assert "invalid choice: 'z'" in capsys.readouterr().err


def test_calls_in_one_process_match_calls_alone(tmp_path, monkeypatch, capsys):
    """A good argv, a bad flag, a config error, a config file under flags and
    the good argv again, in one process: each call gives the exit code,
    stdout, stderr and output bytes of its argv run in a process of its own."""
    # argparse wraps its usage line to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    good = [*CASES["geometry_sweep"], "--format", "csv", "--out", str(tmp_path / "sweep.csv")]
    config_file = _argv("ci-config-override", tmp_path)
    config_file += ["--format", "json", "--out", str(tmp_path / "gain.json")]
    argvs = [good, ["--adaptive", "z"], ["--l", "0"], config_file, good]
    env = {**os.environ, "PYTHONPATH": str(README.parent / "src"), "COLUMNS": "80"}
    command = [sys.executable, "-W", "error::RuntimeWarning", "-m", "succrelay.cli"]
    alone = {}
    for argv in argvs[:4]:
        done = subprocess.run(
            [*command, *argv], env=env, capture_output=True, text=True, timeout=60
        )
        alone[tuple(argv)] = (done.returncode, done.stdout, done.stderr, _take_output(argv))
    assert [alone[tuple(argv)][0] for argv in argvs[:4]] == [0, 2, 2, 0]
    for argv in argvs:
        assert _outcome(argv, capsys) == alone[tuple(argv)], argv


def _scaled(argv: list[str], tmp_path) -> list[str]:
    """A bench argv with a tenth of its trials, writing under ``tmp_path``."""
    scaled, counts = [], False
    for arg in argv:
        if arg.startswith("--"):
            counts = arg in ("--trials", "--dmt-trials")
        elif counts:
            arg = str(int(arg) // 10)
        scaled.append(str(tmp_path / arg) if arg.startswith("out.") else arg)
    return scaled


@pytest.mark.parametrize("name", [name for name in ARGVS if name.startswith("bench-")])
def test_bench_argv_same_bytes_on_consecutive_calls(name, tmp_path, capsys):
    argv = _scaled(ARGVS[name][0].split(), tmp_path)
    first = _outcome(argv, capsys)
    assert first[0] == 0 and first[3]
    assert _outcome(argv, capsys) == first


def test_module_entry_point_exits_with_mains_code(tmp_path):
    """``python -m succrelay.cli`` runs `main` and exits with its code and error line."""
    env = {**os.environ, "PYTHONPATH": str(README.parent / "src")}
    command = [sys.executable, "-W", "error::RuntimeWarning", "-m", "succrelay.cli"]
    done = subprocess.run(
        [*command, *_argv("ci-preset-snr", tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2, done.stderr
    assert done.stdout == "" and done.stderr.count("\n") == 1
    assert done.stderr.startswith("error: config field 'snr_grid_db'"), done.stderr


def test_every_cli_text_case_is_covered():
    assert set(CASES) <= set(ARGVS)


def test_file_value_that_no_flag_replaces_is_checked(tmp_path):
    """The file's l = 0 stays when no flag replaces it, and fails its check."""
    path = tmp_path / "gain_l0.json"
    path.write_text(json.dumps(GAIN_L0), encoding="utf-8")
    args = build_parser().parse_args(["--config", str(path)])
    with pytest.raises(ConfigError) as exc:
        config_from_args(args)
    assert exc.value.field == "l"


@pytest.mark.parametrize("argv", [["--adaptive", "z"], ["--snr"], ["--trials", "1.5"]])
def test_bad_flag_value_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2


def test_help_names_every_flag_help_and_choice():
    text = " ".join(build_parser().format_help().split())
    for name, (_, _, _, flags, help_text) in _FIELDS.items():
        assert all(flag in text for flag in flags), name
        assert " ".join(help_text.split()) in text, name
        if name in CHOICES:
            assert "{" + ",".join(CHOICES[name]) + "}" in text, name


def _readme_blocks(language: str) -> list[str]:
    """The bodies of README's fenced code blocks in ``language``."""
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.M | re.S)


def test_readme_commands_are_the_readme_argvs():
    """Each `simulate` command of README, its continuations joined, is the
    argv of one readme-* entry, and each such entry is one command."""
    lines = "\n".join(_readme_blocks("sh")).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("simulate ")]
    argvs = [argv.split() for name, (argv, _) in ARGVS.items() if name.startswith("readme-")]
    assert sorted(commands) == sorted(argvs)


def test_readme_library_example_runs():
    (code,) = _readme_blocks("python")
    env = {**os.environ, "PYTHONPATH": str(README.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
