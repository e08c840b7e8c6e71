"""Command-line interface tests: config handling, outputs, determinism, exit codes."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jetmap import cli


def run_cli(argv):
    return cli.main([str(a) for a in argv])


# -- table -------------------------------------------------------------------------


def test_table_command(tmp_path):
    out = tmp_path / "table.csv"
    assert run_cli(["table", "--m", 3, "--p", 4, "--out", out]) == 0
    lines = out.read_text().splitlines()
    data = [line for line in lines if not line.startswith("#")]
    assert data[0] == "r,j1,j2,j3,D"
    assert len(data) == 36
    assert data[17] == "17,0,3,0,3"


def test_table_single_row(tmp_path):
    out = tmp_path / "t.csv"
    assert run_cli(["table", "--m", 1, "--p", 0, "--out", out]) == 0
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert data == ["r,j1,D", "1,0,0"]


def test_table_matches_two_variable_listing(tmp_path):
    out = tmp_path / "t23.csv"
    assert run_cli(["table", "--m", 2, "--p", 3, "--out", out]) == 0
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    expected = [
        "1,0,0,0", "2,1,0,1", "3,0,1,1", "4,2,0,2", "5,1,1,2",
        "6,0,2,2", "7,3,0,3", "8,2,1,3", "9,1,2,3", "10,0,3,3",
    ]
    assert data[1:] == expected


def test_table_without_out_writes_the_file_bytes_to_stdout(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert run_cli(["table", "--m", 2, "--p", 3, "--out", out]) == 0
    assert capsys.readouterr().out == f"wrote 10 rows to {out}\n"
    assert run_cli(["table", "--m", 2, "--p", 3]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_table_requires_m_and_p():
    assert run_cli(["table", "--m", 3]) == cli.EXIT_CONFIG


def test_table_cap_exceeded(tmp_path):
    assert run_cli(["table", "--m", 9, "--p", 60, "--out", tmp_path / "x.csv"]) == cli.EXIT_CONFIG


# -- expand -------------------------------------------------------------------------


@pytest.fixture()
def rk4_expand_config(tmp_path):
    cfg = {
        "expand": {
            "beta": 0.1,
            "eps": 1.5,
            "expansion": [0.3, 0.4, 0.5],
            "order": 3,
            "method": "forward",
            "integrator": {"mode": "fixed", "ns": 100},
        }
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_expand_published_constants(tmp_path, rk4_expand_config, capsys):
    out = tmp_path / "map.json"
    assert run_cli(["expand", "--config", rk4_expand_config, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "design endpoint" in printed
    # the fixed-step build's step counts, also written into the map
    assert "integration steps: 100 accepted, 0 rejected" in printed
    data = json.loads(out.read_text())
    consts = [row["coeffs"][0]["value"] for row in data["rows"]]
    assert consts[0] == pytest.approx(-0.0493158, abs=1e-6)
    assert consts[1] == pytest.approx(0.439713, abs=1e-6)
    assert consts[2] == 0.5
    assert data["config"]["order"] == 3
    assert data["p"] == 3 and data["m_dynamical"] == 2 and data["n_params"] == 1
    assert [d["accepted"] for d in data["diagnostics"]] == [100]


def test_expand_method_cross_check(tmp_path):
    outs = {}
    for method in ("forward", "backward"):
        out = tmp_path / f"{method}.json"
        code = run_cli(
            ["expand", "--beta", 0.1, "--eps", 1.5, "--expansion", "0.3,0.4,0.5",
             "--order", 2, "--method", method, "--tol", 1e-11, "--out", out]
        )
        assert code == 0
        outs[method] = json.loads(out.read_text())
    for fwd_row, bwd_row in zip(outs["forward"]["rows"], outs["backward"]["rows"]):
        fwd_vals = np.array([c["value"] for c in fwd_row["coeffs"]])
        bwd_vals = np.array([c["value"] for c in bwd_row["coeffs"]])
        assert np.max(np.abs(fwd_vals - bwd_vals)) < 1e-6


def test_expand_deterministic_output(tmp_path, rk4_expand_config):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli(["expand", "--config", rk4_expand_config, "--out", out1]) == 0
    assert run_cli(["expand", "--config", rk4_expand_config, "--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_expand_without_out_writes_the_file_bytes_to_stdout(tmp_path, rk4_expand_config, capsys):
    # only the --out run prints the design endpoint and the step counts
    out = tmp_path / "map.json"
    assert run_cli(["expand", "--config", rk4_expand_config, "--out", out]) == 0
    report = capsys.readouterr().out.splitlines(keepends=True)
    assert report[0].startswith("design endpoint after one period: (")
    assert report[1].startswith("integration steps: 100 accepted, 0 rejected")
    assert report[2:] == [f"wrote order-3 map to {out}\n"]
    assert run_cli(["expand", "--config", rk4_expand_config]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_scan_reads_a_map_that_expand_wrote_to_stdout(tmp_path, small_map_file, capsys):
    # `jetmap expand > map.json` makes a map file that scans as the --out one does
    argv = ["expand", "--beta", 0.1, "--eps", 0.15, "--expansion", "0.0,0.0,0.5",
            "--order", 2, "--tol", 1e-10]
    capsys.readouterr()
    assert run_cli(argv) == 0
    piped = tmp_path / "piped.json"
    piped.write_text(capsys.readouterr().out)
    csvs = []
    for map_file in (small_map_file, piped):
        cfg = {"scan": {"source": "taylor", "beta": 0.1, "eps": 0.15, "omega_start": 1.99,
                        "omega_stop": 2.01, "omega_step": 0.01, "transient": 50, "record": 4,
                        "map_file": str(map_file)}}
        path, out = tmp_path / "scan.json", tmp_path / f"{map_file.stem}.csv"
        path.write_text(json.dumps(cfg))
        assert run_cli(["scan", "--config", path, "--out", out]) == cli.EXIT_OK
        csvs.append([line for line in out.read_text().splitlines() if "map_file" not in line])
    assert csvs[0] == csvs[1] and len(csvs[0]) > 13


def test_an_unreadable_config_is_an_io_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run_cli(["expand", "--config", missing]) == cli.EXIT_IO
    assert capsys.readouterr().err.startswith(f"i/o error: cannot read config {missing}: ")


def test_expand_flag_overrides_config(tmp_path, rk4_expand_config):
    out = tmp_path / "o2.json"
    assert run_cli(["expand", "--config", rk4_expand_config, "--order", 2, "--out", out]) == 0
    assert json.loads(out.read_text())["p"] == 2


def test_expand_bad_expansion():
    assert run_cli(["expand", "--expansion", "0.3,0.4"]) == cli.EXIT_CONFIG


def test_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "bad.json"
    # expand takes no suppress_zeros: it writes every map dense
    for key, value in (("unknown_knob", 1), ("suppress_zeros", False)):
        path.write_text(json.dumps({"expand": {key: value}}))
        assert run_cli(["expand", "--config", path]) == cli.EXIT_CONFIG
        assert f"config error: unknown config keys: ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize(
    "integrator",
    [
        {"mode": "fixed", "ns": 100, "h": 0.01},
        {"mode": "adaptive", "tol": 1e-10, "h0": 0.1},
        {"mode": "adaptive", "tol": 1e-10, "safety": 0.8},
    ],
)
def test_expand_refuses_integrator_keys_beyond_mode_ns_tol(tmp_path, capsys, integrator):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"expand": {"integrator": integrator}}))
    out = tmp_path / "map.json"
    assert run_cli(["expand", "--config", path, "--out", out]) == cli.EXIT_CONFIG
    assert "config error: unknown integrator keys" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["scan", "attract"])
def test_unknown_map_key_is_refused(tmp_path, capsys, command):
    cfg = {command: {"map": {"expansion": [0.3, 0.4, 0.5], "order": 2, "methd": "backward"}}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    assert run_cli([command, "--config", path, "--out", out]) == cli.EXIT_CONFIG
    assert "config error: unknown map keys: ['methd']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("expand", {"beta": None, "order": 1}, "'beta'"),
        ("expand", {"order": [3]}, "'order'"),
        ("expand", {"expansion": None}, "'expansion'"),
        ("expand", {"expansion": [0.3, None, 0.5]}, "'expansion'"),
        ("expand", {"integrator": {"tol": None}}, "integrator key 'tol'"),
        ("expand", {"integrator": {"mode": "fixed", "ns": {"n": 10}}}, "integrator key 'ns'"),
        ("scan", {"eps": {"value": 25}}, "'eps'"),
        ("scan", {"transient": None}, "'transient'"),
        ("scan", {"seed": 0.0}, "'seed'"),
        ("scan", {"map": {"order": None}}, "map key 'order'"),
        ("scan", {"map_file": ["a.json"]}, "'map_file'"),
        ("attract", {"count": [10]}, "'count'"),
        ("table", {"m": [2], "p": 2}, "'m'"),
        ("expand", {"order": 1, "out": 1}, "'out'"),
        ("scan", {"map_file": 3}, "'map_file'"),
        ("expand", {"order": 2.5}, "'order'"),
        # not a key of expand, so refused whatever its value
        ("expand", {"suppress_zeros": "no"}, "'suppress_zeros'"),
        ("expand", {"suppress_zeros": 0}, "'suppress_zeros'"),
        ("expand", {"integrator": {"mode": "fixed", "ns": 10.5}}, "integrator key 'ns'"),
        ("scan", {"transient": 10.7}, "'transient'"),
        ("scan", {"record": 4.2}, "'record'"),
        ("scan", {"map": {"order": 8.0}}, "map key 'order'"),
        ("attract", {"count": 1e4}, "'count'"),
        ("table", {"m": 2, "p": 1.5}, "'p'"),
    ],
)
def test_wrong_kind_of_config_value_is_a_config_error(tmp_path, capsys, command, cfg, key):
    # null, lists and objects where a number belongs and a fraction where an
    # integer belongs are refused where the settings are resolved, before
    # anything runs
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({command: cfg}))
    out = tmp_path / "out"
    assert run_cli([command, "--config", path, "--out", out]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert not out.exists()


@pytest.mark.parametrize(
    "cfg, key", [({"m": 2, "p": 1, "out": 1}, "'out'"), ({"m": "two", "p": 1}, "'m'")]
)
def test_table_null_default_keys_are_checked_by_kind(tmp_path, capsys, cfg, key):
    # out takes a path, m and p a number: a number for out is not handed to
    # open() as a file descriptor, and a string for m is refused before int()
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"table": cfg}))
    assert run_cli(["table", "--config", path]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and key in captured.err
    assert captured.out == ""
    assert not sys.stdout.closed
    os.fstat(1)  # raises if file descriptor 1 was closed


@pytest.mark.parametrize(
    "integrator, flags, filled",
    [
        ({"mode": "fixed"}, [], {"mode": "fixed", "ns": 100}),
        ({"tol": 1e-6}, [], {"mode": "adaptive", "tol": 1e-6}),
        ({"tol": 1e-6}, ["--tol", 1e-9], {"mode": "adaptive", "tol": 1e-9}),
    ],
)
def test_partial_integrator_is_recorded_filled(tmp_path, integrator, flags, filled):
    def expand(name, obj, *extra):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"expand": {"order": 1, "integrator": obj}}))
        out = tmp_path / f"{name}_map.json"
        assert run_cli(["expand", "--config", path, *extra, "--out", out]) == 0
        return out.read_bytes()

    partial = expand("partial", integrator, *flags)
    assert json.loads(partial)["config"]["integrator"] == filled
    # the bytes of a run from the filled object: the run used the recorded values
    assert partial == expand("filled", filled)


def test_expand_tol_flag_refuses_a_fixed_mode_file(tmp_path, rk4_expand_config, capsys):
    # --tol sets only integrator.tol, which a fixed-mode integrator does not read
    out = tmp_path / "map.json"
    code = run_cli(["expand", "--config", rk4_expand_config, "--tol", 1e-9, "--out", out])
    assert code == cli.EXIT_CONFIG
    assert "config error: unknown integrator keys: ['tol']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--order", "x"],
        ["expand", "--expansion", "0.3,zero,0.5"],
        ["expand", "--bogus", 1],
        ["table", "--m", 2, "--p", 2, "--tol", 1e-3],
        ["verify", "--list", "--config", "missing.json"],
        ["verify", "--list", "--out", "x"],
        [],
    ],
)
def test_usage_errors_exit_with_config_error(argv, capsys):
    assert run_cli(argv) == cli.EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_readme_flag_table_lists_each_commands_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = [line.strip("|").split("|") for line in readme.splitlines() if line.startswith("| `")]
    documented = {
        command.strip("` "): flags.strip("` ").split()
        for command, flags, *_ in rows
        if flags.strip().startswith("`--")
    }
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    parsed = {
        name: [flag for action in sub._actions for flag in action.option_strings
               if flag not in ("-h", "--help")]
        for name, sub in commands.choices.items()
    }
    assert documented == parsed


def test_help_exits_ok(capsys):
    assert run_cli(["expand", "--help"]) == cli.EXIT_OK
    assert "--tol" in capsys.readouterr().out


def test_usage_error_exit_code_of_the_module_entry_point():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "jetmap.cli", "expand", "--order", "x"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == cli.EXIT_CONFIG
    assert "invalid int value: 'x'" in proc.stderr


def test_malformed_config(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run_cli(["expand", "--config", path]) == cli.EXIT_CONFIG


def test_malformed_map_file(tmp_path):
    map_file = tmp_path / "not_a_map.json"
    map_file.write_text(json.dumps({"rows": "nope"}))
    cfg = {"scan": {"map_file": str(map_file), "omega_start": 1.0, "omega_stop": 1.0,
                    "omega_step": 0.1, "transient": 2, "record": 2}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["scan", "--config", path, "--out", tmp_path / "o.csv"]) == cli.EXIT_CONFIG


@pytest.mark.parametrize(
    "spoil",
    [
        # would leave the constant term at 0.0, so every orbit escapes
        lambda data: data["rows"][0]["coeffs"][0].update(r=0),
        # would escape as an IndexError
        lambda data: data["rows"][0]["coeffs"][0].update(r=99),
        lambda data: data["rows"][0]["coeffs"][0].update(exponents=[1, 0, 0]),
        lambda data: data["design_endpoint"].__setitem__(0, 0.25),
        # the scan's header would record a beta or eps the map was not built with
        lambda data: data["config"].update(beta=0.5),
        lambda data: data["config"].update(eps=3.0),
        # would fail at the first omega with a TypeError
        lambda data: data["expansion_point"].__setitem__(2, "x"),
        lambda data: data["expansion_point"].__setitem__(2, None),
        # would load as 1.5 and 1.0
        lambda data: data["rows"][0]["coeffs"][1].update(value="1.5"),
        lambda data: data["rows"][0]["coeffs"][1].update(value=True),
        # would escape as an OverflowError
        lambda data: data["rows"][0]["coeffs"][1].update(value=10**400),
        # would make every omega diverge, a numeric failure
        lambda data: data["rows"][0]["coeffs"][1].update(value=math.nan),
        # would load as 6.2, as 1 (beside m_dynamical 2) and as inf
        lambda data: data.update(t_f="6.2"),
        lambda data: data.update(n_params=True),
        lambda data: data.update(t_i=math.inf),
    ],
    ids=["rank 0", "rank 99", "exponents", "design endpoint", "beta", "eps",
         "expansion string", "expansion null", "value string", "value bool", "value too large",
         "value nan", "t_f string", "n_params bool", "t_i infinite"],
)
def test_a_map_file_off_its_table_is_a_config_error(tmp_path, small_map_file, spoil, capsys):
    data = json.loads(small_map_file.read_text())
    spoil(data)
    small_map_file.write_text(json.dumps(data))
    cfg = {"scan": {"map_file": str(small_map_file), "beta": 0.1, "eps": 0.15,
                    "omega_start": 2.0, "omega_stop": 2.0, "omega_step": 0.1,
                    "transient": 2, "record": 2}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run_cli(["scan", "--config", path, "--out", tmp_path / "o.csv"]) == cli.EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


# -- scan and attract -----------------------------------------------------------------


@pytest.fixture()
def small_map_file(tmp_path):
    # weak driving far from resonance: the attractor sits close to the
    # expansion point, so a low-order map iterates stably
    out = tmp_path / "m2.json"
    code = run_cli(
        ["expand", "--beta", 0.1, "--eps", 0.15, "--expansion", "0.0,0.0,0.5",
         "--order", 2, "--tol", 1e-10, "--out", out]
    )
    assert code == 0
    return out


def test_scan_taylor_source_writes_rows(tmp_path, small_map_file):
    out = tmp_path / "scan.csv"
    cfg = {
        "scan": {
            "source": "taylor",
            "beta": 0.1,
            "eps": 0.15,
            "omega_start": 1.99,
            "omega_stop": 2.01,
            "omega_step": 0.01,
            "transient": 50,
            "record": 4,
            "map_file": str(small_map_file),
        }
    }
    path = tmp_path / "scan_config.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["scan", "--config", path, "--out", out]) == 0
    lines = out.read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "omega,index,q,p"
    assert len(data) == 1 + 3 * 4
    first = data[1].split(",")
    assert float(first[0]) == 1.99 and first[1] == "0"
    # deterministic rerun
    out2 = tmp_path / "scan2.csv"
    assert run_cli(["scan", "--config", path, "--out", out2]) == 0
    assert out.read_text() == out2.read_text()


def test_scan_reports_map_applications(tmp_path, small_map_file, capsys):
    # the stdout line totals what feigenbaum_scan records for the same scan;
    # omega 1.2 lies outside the map's parameter trust region and escapes;
    # 2.0 reaches its fixed point to the bit within the 154 iterates, 1.6 not
    from jetmap import duffing as duf
    from jetmap import vareq as vq

    out = tmp_path / "scan.csv"
    transient, record = 150, 4
    cfg = {
        "scan": {
            "source": "taylor", "beta": 0.1, "eps": 0.15, "omega_start": 1.2,
            "omega_stop": 2.0, "omega_step": 0.4, "transient": transient,
            "record": record, "seed_policy": "fixed", "map_file": str(small_map_file),
        }
    }
    path = tmp_path / "scan_config.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["scan", "--config", path, "--out", out]) == 0
    printed = capsys.readouterr().out.splitlines()

    tmap = vq.taylor_map_from_dict(json.loads(small_map_file.read_text()))
    result = duf.feigenbaum_scan(
        tmap, 0.1, 0.15, cli._omega_grid(cfg["scan"]), transient=transient,
        record=record, seed_policy="fixed",
    )
    # "<omega>,orbit escaped at iterate <n>" per escaped omega
    escaped = [int(line.rsplit(" ", 1)[1])
               for line in out.with_name(out.name + ".failures").read_text().splitlines()]
    sampled = len(result.omegas) - len(escaped)
    assert len(escaped) == 1 and sampled == 2
    assert result.cycles == [False, False, True]
    uncut = sampled * (transient + record) + sum(escaped)
    assert sum(result.applications) < uncut
    assert (
        f"map applications: {sum(result.applications)} ({uncut} without cycle cuts); "
        f"{sum(result.cycles)} of {sampled} sampled omegas closed on a cycle"
    ) in printed


def test_scan_empty_grid(tmp_path, small_map_file):
    cfg = {
        "scan": {
            "omega_start": 2.0, "omega_stop": 1.0, "omega_step": 0.5,
            "map_file": str(small_map_file),
        }
    }
    path = tmp_path / "bad_grid.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["scan", "--config", path, "--out", tmp_path / "x.csv"]) == cli.EXIT_CONFIG


def test_scan_threads_key_is_refused(tmp_path, small_map_file):
    # scans run serially; a config that still sets threads is a config error
    cfg = {"scan": {"map_file": str(small_map_file), "threads": 1}}
    path = tmp_path / "threads.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["scan", "--config", path, "--out", tmp_path / "x.csv"]) == cli.EXIT_CONFIG


def test_scan_all_rows_diverge_exit_code(tmp_path, small_map_file):
    # omega far outside the map's parameter trust region: every row escapes
    out = tmp_path / "div.csv"
    cfg = {
        "scan": {
            "source": "taylor",
            "beta": 0.1,
            "eps": 0.15,
            "omega_start": 0.30,
            "omega_stop": 0.31,
            "omega_step": 0.01,
            "transient": 50,
            "record": 4,
            "map_file": str(small_map_file),
        }
    }
    path = tmp_path / "div_config.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["scan", "--config", path, "--out", out]) == cli.EXIT_NUMERIC
    sidecar = out.with_name(out.name + ".failures")
    assert sidecar.exists()
    assert len(sidecar.read_text().splitlines()) == 2


# one cheap omega either command samples; the order-1 map about sigma 0.5 is
# built in-process from the partial map object
_ORBIT_CONFIGS = {
    "scan": {"beta": 0.1, "eps": 0.15, "omega_start": 2.0, "omega_stop": 2.0,
             "omega_step": 0.1, "transient": 5, "record": 2},
    "attract": {"beta": 0.1, "eps": 0.15, "omega": 2.0, "transient": 5, "count": 2},
}
_PARTIAL_MAP = {"expansion": [0.0, 0.0, 0.5], "order": 1}


@pytest.mark.parametrize("command", ["scan", "attract"])
def test_partial_map_is_recorded_filled(tmp_path, command):
    filled = {"expansion": [0.0, 0.0, 0.5], "method": "forward", "order": 1, "tol": 1e-9}
    outputs = []
    for name, map_obj in (("partial", _PARTIAL_MAP), ("filled", filled)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({command: {**_ORBIT_CONFIGS[command], "map": map_obj}}))
        out = tmp_path / f"{name}.csv"
        assert run_cli([command, "--config", path, "--out", out]) == 0
        outputs.append(out.read_text())
    assert f"# map={json.dumps(filled, sort_keys=True)}" in outputs[0].splitlines()
    assert outputs[0] == outputs[1]


# per case, the settings beside the orbit's and the keys each command's
# header records besides its orbit keys: the exact source reads no map, the
# Taylor source no tol, and a map file stands in for the map object
_SOURCE_CASES = {
    "exact": ({"source": "exact", "tol": 1e-4, "map": _PARTIAL_MAP}, ["tol"]),
    "taylor-map-file": ({"map": _PARTIAL_MAP}, ["map_file"]),
    "taylor-map": ({"map": _PARTIAL_MAP}, ["map", "map_file"]),
}
_ORBIT_KEYS = {
    "scan": ["beta", "eps", "escape_radius", "omega_start", "omega_step", "omega_stop",
             "record", "seed", "seed_policy", "source", "transient"],
    "attract": ["beta", "count", "eps", "escape_radius", "omega", "seed", "source", "transient"],
}


@pytest.mark.parametrize("case", list(_SOURCE_CASES))
@pytest.mark.parametrize("command", ["scan", "attract"])
def test_header_records_only_the_settings_the_run_read(tmp_path, small_map_file, command, case):
    settings, keys = _SOURCE_CASES[case]
    if case == "taylor-map-file":
        settings = {**settings, "map_file": str(small_map_file)}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({command: {**_ORBIT_CONFIGS[command], **settings}}))
    out = tmp_path / "out.csv"
    assert run_cli([command, "--config", path, "--out", out]) == 0
    header = [line[2:].partition("=")[0] for line in out.read_text().splitlines() if line[0] == "#"]
    assert header == ["command", *sorted(_ORBIT_KEYS[command] + keys)]


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("scan", "--source", "taylor"),
        ("scan", "--beta", 0.12),
        ("scan", "--eps", 0.2),
        ("scan", "--omega-start", 1.9),
        ("scan", "--omega-stop", 2.1),
        ("scan", "--omega-step", 0.05),
        ("scan", "--transient", 3),
        ("scan", "--record", 3),
        ("scan", "--seed-policy", "fixed"),
        ("scan", "--tol", 1e-5),
        ("attract", "--source", "taylor"),
        ("attract", "--beta", 0.12),
        ("attract", "--eps", 0.2),
        ("attract", "--omega", 1.9),
        ("attract", "--transient", 3),
        ("attract", "--count", 3),
        ("attract", "--tol", 1e-5),
    ],
)
def test_flag_lands_in_header(tmp_path, command, flag, value):
    cfg = {**_ORBIT_CONFIGS[command], "source": "exact", "tol": 1e-4, "map": _PARTIAL_MAP}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({command: cfg}))
    out = tmp_path / "out.csv"
    assert run_cli([command, "--config", path, flag, value, "--out", out]) == 0
    key = flag[2:].replace("-", "_")
    assert f"# {key}={json.dumps(value)}" in out.read_text().splitlines()


# per case, the scan's and attract's settings: a grid holding the bad omega
# after good ones, so a check that ran per omega would have run those first
_REFUSED_ORBIT_INPUTS = {
    "seed-of-one-value": ({"seed": [0.1]},) * 2,
    "seed-of-three-values": ({"seed": [0.1, 0.0, 5.0]},) * 2,
    "seed-outside-escape-radius": ({"seed": [20.0, 0.0]},) * 2,
    "omega-zero": ({"omega_start": 2.0, "omega_stop": 0.0, "omega_step": -1.0}, {"omega": 0.0}),
    "omega-negative": (
        {"omega_start": 2.0, "omega_stop": -1.0, "omega_step": -1.5}, {"omega": -1.0}
    ),
    "omega-not-finite": ({"omega_start": math.inf}, {"omega": math.nan}),
    "escape-radius-zero": ({"escape_radius": 0.0},) * 2,
    "escape-radius-nan": ({"escape_radius": math.nan},) * 2,
}


@pytest.mark.parametrize("source", ["taylor", "exact"])
@pytest.mark.parametrize("command", ["scan", "attract"])
@pytest.mark.parametrize("case", list(_REFUSED_ORBIT_INPUTS))
def test_bad_orbit_inputs_are_refused_before_any_omega_runs(
    tmp_path, capsys, monkeypatch, case, command, source
):
    from jetmap import duffing as duf

    omegas = []
    run = duf._run_poly

    def counted(map_at, omega, *args):
        omegas.append(omega)
        return run(map_at, omega, *args)

    monkeypatch.setattr(duf, "_run_poly", counted)
    cfg = {
        **_ORBIT_CONFIGS[command], "source": source, "tol": 1e-4,
        "map": {"expansion": [0.0, 0.0, 0.5], "order": 2},
        **_REFUSED_ORBIT_INPUTS[case][command == "attract"],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({command: cfg}))
    out = tmp_path / "out.csv"
    assert run_cli([command, "--config", path, "--out", out]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert omegas == []
    assert not out.exists() and not out.with_name(out.name + ".failures").exists()


@pytest.fixture()
def integration_runs(monkeypatch):
    """A list that gets one entry per adaptive integration run from here on:
    each DOP853 run and each Taylor march of the exact map."""
    from jetmap import jetode as ode

    runs = []
    rkf45, taylor = ode.rkf45, ode.TaylorIntegrator.__call__

    def counted(*args, **kwargs):
        runs.append(1)
        return rkf45(*args, **kwargs)

    def counted_taylor(*args, **kwargs):
        runs.append(1)
        return taylor(*args, **kwargs)

    monkeypatch.setattr(ode, "rkf45", counted)
    monkeypatch.setattr(ode.TaylorIntegrator, "__call__", counted_taylor)
    return runs


def test_the_run_counter_sees_both_integrators(integration_runs):
    from jetmap import duffing as duf
    from jetmap import jetode as ode

    duf.ExactStroboscopicMap(duf.DuffingParams(0.1, 1.5, 2.0), tol=1e-6)((0.1, 0.2))
    ode.rkf45(duf.duffing_rhs(duf.DuffingParams(0.1, 1.5, 2.0)), (0.1, 0.2), 0.0, 1.0, ode.adaptive(1e-6))
    assert integration_runs == [1, 1]


@pytest.mark.parametrize("tol", ["nan", "inf"])
@pytest.mark.parametrize("command", ["expand", "scan", "attract"])
def test_a_tol_that_is_not_finite_is_refused_before_any_integration(
    tmp_path, capsys, integration_runs, command, tol
):
    # a NaN tol used to run the whole step budget and an infinite one to
    # take the period in one step; both end as config errors, integrating
    # nothing
    out = tmp_path / "out"
    if command == "expand":
        argv = ["expand", "--order", 1, "--tol", tol, "--out", out]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({command: {**_ORBIT_CONFIGS[command], "source": "exact"}}))
        argv = [command, "--config", path, "--tol", tol, "--out", out]
    assert run_cli(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "0 < tol < inf" in err
    assert integration_runs == [] and not out.exists()


_NON_FINITE_INPUTS = {
    "expand-beta-nan": ["expand", "--order", 2, "--beta", "nan"],
    "expand-eps-inf": ["expand", "--order", 2, "--eps", "inf"],
    "expand-expansion-nan": ["expand", "--order", 2, "--expansion", "0.3,nan,0.5"],
    "scan-exact-beta-nan": ["scan", "--source", "exact", "--beta", "nan"],
}


def _refused_before_any_integration(tmp_path, capsys, integration_runs, argv, expand=None) -> str:
    """Run argv, assert a config error that integrated and wrote nothing; return stderr."""
    out = tmp_path / "out"
    # the file keeps the scan case's grid small and holds an expand case's section
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scan": _ORBIT_CONFIGS["scan"], "expand": expand or {}}))
    assert run_cli(argv + ["--config", path, "--out", out]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert integration_runs == [] and not out.exists()
    return err


@pytest.mark.parametrize("case", list(_NON_FINITE_INPUTS))
def test_a_non_finite_model_input_is_refused_before_any_integration(
    tmp_path, capsys, integration_runs, case
):
    # each used to integrate until the step collapsed on non-finite stages
    # and exit 2; now each is a config error that integrates nothing
    argv = _NON_FINITE_INPUTS[case]
    assert "finite" in _refused_before_any_integration(tmp_path, capsys, integration_runs, argv)


_NEGATIVE_INPUTS = {
    "expand-beta-negative": ["expand", "--order", 2, "--beta", -0.1],
    "expand-eps-negative": ["expand", "--order", 2, "--eps", -1],
    "scan-taylor-beta-negative": ["scan", "--source", "taylor", "--beta", -0.1],
}


@pytest.mark.parametrize("case", list(_NEGATIVE_INPUTS))
def test_a_negative_model_input_is_refused_before_any_integration(
    tmp_path, capsys, integration_runs, case
):
    # a Taylor map took a negative beta or eps: expand wrote the map and a
    # Taylor scan ran until its orbits escaped, while the exact scan refused
    # it; now every route refuses it as DuffingParams does
    argv = _NEGATIVE_INPUTS[case]
    assert ">= 0" in _refused_before_any_integration(tmp_path, capsys, integration_runs, argv)


@pytest.mark.parametrize(
    "expand, message",
    [
        ({"system": "zero", "expansion": [0.7, -0.2]}, "system must be 'duffing', got 'zero'"),
        ({"method": "sideways"}, "method must be 'forward' or 'backward', got 'sideways'"),
        ({"expansion": [0.3, 0.4]}, "expansion point must be (z1, z2, sigma)"),
    ],
    ids=["zero-system", "bad-method", "two-entry-expansion"],
)
def test_expand_refuses_before_any_integration(tmp_path, capsys, integration_runs, expand, message):
    # expand builds the Duffing map alone; the map builder refuses a method
    # or an expansion it cannot take before it integrates anything
    err = _refused_before_any_integration(tmp_path, capsys, integration_runs, ["expand"], expand)
    assert message in err


@pytest.mark.parametrize(
    "start, stop, step", [(1.0, 2.0, 1e-12), (-1e308, 1e308, 1.0)], ids=["tiny-step", "inf-quotient"]
)
def test_an_oversized_omega_grid_is_refused_before_it_is_made(
    tmp_path, capsys, monkeypatch, start, stop, step
):
    # 1e12 omegas used to end in an uncaught numpy allocation error
    # (7.28 TiB); a span whose quotient overflows would not round at all
    def refuse(*args, **kwargs):
        raise AssertionError("the omega grid was allocated")

    monkeypatch.setattr(cli.np, "arange", refuse)
    out = tmp_path / "out.csv"
    # joined with "=": argparse reads a bare -1e+308 as an option
    argv = ["scan", f"--omega-start={start}", f"--omega-stop={stop}", f"--omega-step={step}", "--out", out]
    assert run_cli(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"more than {cli.MAX_OMEGAS} values" in err
    assert not out.exists()


def test_attract_exact_source(tmp_path):
    out = tmp_path / "att.csv"
    code = run_cli(
        ["attract", "--source", "exact", "--beta", 0.1, "--eps", 0.15,
         "--omega", 1.0, "--transient", 200, "--count", 5, "--tol", 1e-5,
         "--out", out]
    )
    assert code == 0
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert data[0] == "q,p"
    assert len(data) == 6
    q, p = (float(v) for v in data[1].split(","))
    assert abs(q) < 1.0 and abs(p) < 1.0


def test_attract_needs_out():
    assert run_cli(["attract", "--source", "exact"]) == cli.EXIT_CONFIG


def test_io_error_exit_code(tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir" / "t.csv"
    assert run_cli(["table", "--m", 2, "--p", 2, "--out", missing_dir]) == cli.EXIT_IO


@pytest.mark.parametrize(
    "argv, config, message",
    [
        # an order-3 map builds in a fraction of a second; 1.30 lies outside its trust region
        (["attract", "--source", "taylor", "--omega", 1.30], {"attract": {"map": {"order": 3}}},
         "orbit escaped at iterate 4"),
        (["expand", "--eps", 1e300, "--order", 2], {},
         "step collapsed below 6.283185307179586e-12 at t=0.0 chasing non-finite stages"),
        # the exact map's first period overflows its Taylor coefficients
        (["scan", "--source", "exact", "--eps", 1e300], {"scan": _ORBIT_CONFIGS["scan"]},
         "non-finite Taylor coefficients at t=0.0"),
    ],
    ids=["attract-escapes", "expand-diverges", "scan-exact-diverges"],
)
def test_a_numeric_failure_exits_2_and_writes_nothing(tmp_path, capsys, argv, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run_cli(argv + ["--config", path, "--out", out]) == cli.EXIT_NUMERIC
    assert capsys.readouterr().err == f"numeric failure: {message}\n"
    assert not out.exists()


# per case: the arguments, the config file's JSON, the exit code and what stderr names
_REFUSED_CONFIGS = {
    "config-not-an-object": (["expand", "--out", "out"], [1, 2], cli.EXIT_CONFIG,
                             "config cfg.json must be a JSON object"),
    "section-not-an-object": (["expand", "--out", "out"], {"expand": [1]}, cli.EXIT_CONFIG,
                              "config section 'expand' must be an object"),
    "map-not-an-object": (["scan", "--out", "out"], {"scan": {"map": 8}}, cli.EXIT_CONFIG,
                          "map settings must be an object"),
    "integrator-not-an-object": (["expand", "--out", "out"], {"expand": {"integrator": "fixed"}},
                                 cli.EXIT_CONFIG, "integrator settings must be an object"),
    "integrator-mode-unknown": (["expand", "--out", "out"],
                                {"expand": {"integrator": {"mode": "euler"}}}, cli.EXIT_CONFIG,
                                "integrator mode must be 'fixed' or 'adaptive', got 'euler'"),
    "omega-step-zero": (["scan", "--out", "out"], {"scan": {"omega_step": 0.0}}, cli.EXIT_CONFIG,
                        "omega_step must be nonzero"),
    "source-unknown": (["scan", "--out", "out"], {"scan": {"source": "poly"}}, cli.EXIT_CONFIG,
                       "source must be 'exact' or 'taylor', got 'poly'"),
    "map-file-unreadable": (["scan", "--out", "out"], {"scan": {"map_file": "missing.json"}},
                            cli.EXIT_IO, "cannot read map file"),
    "scan-without-out": (["scan"], {}, cli.EXIT_CONFIG, "scan needs an output path (--out)"),
    # orbit inputs are refused before the default order-8 map is built
    "scan-seed-policy-unknown": (["scan", "--out", "out"], {"scan": {"seed_policy": "bogus"}},
                                 cli.EXIT_CONFIG,
                                 "seed_policy must be 'continue' or 'fixed', got 'bogus'"),
    "scan-transient-zero": (["scan", "--out", "out"], {"scan": {"transient": 0}}, cli.EXIT_CONFIG,
                            "transient and sample count must be >= 1"),
    "scan-omega-negative": (["scan", "--out", "out"], {"scan": {"omega_start": -0.01}},
                            cli.EXIT_CONFIG, "driving frequency must be finite and > 0"),
    # 2 pi / 1e-320 overflows: the exact orbit's span would be inf
    "scan-exact-omega-period-not-finite": (["scan", "--out", "out", "--source", "exact",
                                            "--omega-start", 1e-320], {}, cli.EXIT_CONFIG,
                                           "driving frequency 1e-320 has a period 2 pi / omega "
                                           "that is not finite"),
    "scan-seed-outside-radius": (["scan", "--out", "out"], {"scan": {"seed": [20, 0]}},
                                 cli.EXIT_CONFIG, "seed [20.0, 0.0] lies outside escape_radius"),
    "attract-omega-zero": (["attract", "--out", "out", "--omega", "0"], {}, cli.EXIT_CONFIG,
                           "driving frequency must be finite and > 0, got 0.0"),
    "attract-count-zero": (["attract", "--out", "out", "--count", "0"], {}, cli.EXIT_CONFIG,
                           "transient and sample count must be >= 1"),
    "attract-escape-radius-negative": (["attract", "--out", "out"],
                                       {"attract": {"escape_radius": -1}}, cli.EXIT_CONFIG,
                                       "escape_radius must be > 0, got -1.0"),
}


@pytest.mark.parametrize("case", list(_REFUSED_CONFIGS))
def test_a_refused_config_integrates_and_writes_nothing(
    tmp_path, capsys, monkeypatch, integration_runs, case
):
    argv, config, code, message = _REFUSED_CONFIGS[case]
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps(config))
    assert run_cli(argv + ["--config", "cfg.json"]) == code
    err = capsys.readouterr().err
    prefix = "config error: " if code == cli.EXIT_CONFIG else "i/o error: "
    assert err.startswith(prefix) and message in err
    assert integration_runs == [] and os.listdir() == ["cfg.json"]


def test_scan_exact_small_driving_single_cluster(tmp_path):
    out = tmp_path / "weak.csv"
    code = run_cli(
        ["scan", "--source", "exact", "--beta", 0.1, "--eps", 0.15,
         "--omega-start", 1.0, "--omega-stop", 2.0, "--omega-step", 1.0,
         "--transient", 300, "--record", 4, "--tol", 1e-4, "--out", out]
    )
    assert code == 0
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith(("#", "omega"))]
    per_omega = {}
    for omega, _, q, p in rows:
        per_omega.setdefault(omega, []).append((float(q), float(p)))
    assert len(per_omega) == 2
    for omega, pts in per_omega.items():
        arr = np.array(pts)
        assert len(arr) == 4
        assert np.abs(arr - arr[0]).max() < 1e-6, f"omega={omega} not a single cluster"


def test_attract_ten_thousand_rows_from_map_file(tmp_path, m8_map):
    from jetmap import vareq as vq

    tmap, _ = m8_map
    map_file = tmp_path / "m8.json"
    map_file.write_text(json.dumps(vq.taylor_map_to_dict(tmap)))
    cfg = {
        "attract": {
            "source": "taylor",
            "beta": 0.1,
            "eps": 25.0,
            "omega": 1.2902,
            "transient": 2000,
            "count": 10_000,
            "map_file": str(map_file),
        }
    }
    path = tmp_path / "attract_cfg.json"
    path.write_text(json.dumps(cfg))
    out1 = tmp_path / "a1.csv"
    out2 = tmp_path / "a2.csv"
    assert run_cli(["attract", "--config", path, "--out", out1]) == 0
    assert run_cli(["attract", "--config", path, "--out", out2]) == 0
    data = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
    assert len(data) == 1 + 10_000
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_full_suite_passes(capsys):
    assert run_cli(["verify"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") == 20


# -- verify -------------------------------------------------------------------------


def test_verify_list(capsys):
    assert run_cli(["verify", "--list"]) == 0
    names = capsys.readouterr().out.split()
    assert "rank-formula" in names
    assert "rkf45-scalar-decay" in names
    assert len(names) == 20


def test_verify_structural_subset_passes(capsys):
    code = run_cli(
        ["verify", "--only", "rank-formula", "table-size", "box-tables",
         "coordinatewise-ops", "replacement-rule", "taylor-rule-1var", "taylor-rule-2var",
         "duffing-forcing-terms", "c-coefficients-2var", "rk4-scalar-decay"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 10 and "FAIL" not in out
    lines = out.splitlines()
    for name, observed, expected in [
        ("coordinatewise-ops", "[0.9, 1.2, 1.5000000000000002]", "[0.9, 1.2, 1.5]"),
        ("replacement-rule", "[2.0, 0.0, 3.0]", "[2.0, 0.0, 3.0]"),
        ("taylor-rule-1var", "[57.0, 26.0, 3.0]", "[57.0, 26.0, 3.0]"),
        ("taylor-rule-2var", "[899.0, 98.0, 134.0, 4.0, 5.0, 6.0]",
         "[899.0, 98.0, 134.0, 4.0, 5.0, 6.0]"),
    ]:
        assert f"PASS {name} [structural] observed={observed} expected={expected}" in lines


@pytest.mark.parametrize(
    "only", [["nosuch"], ["rank-formula", "nosuch"]], ids=["alone", "beside-a-known"]
)
def test_verify_refuses_an_unknown_check_name(capsys, only):
    # a typo used to run nothing, or only the names it knew, and exit 0
    assert run_cli(["verify", "--only", *only]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and "nosuch" in captured.err
    assert "checks passed" not in captured.out


def test_verify_degraded_tolerance_fails_rkf_checks(capsys):
    code = run_cli(
        ["verify", "--tol", 1e-3, "--only",
         "rkf45-scalar-decay", "rkf45-2var-decay", "rank-formula", "duffing-rk4-map"]
    )
    out = capsys.readouterr().out
    assert code == cli.EXIT_NUMERIC
    assert "FAIL rkf45-scalar-decay" in out
    assert "FAIL rkf45-2var-decay" in out
    assert "PASS rank-formula" in out
    assert "PASS duffing-rk4-map" in out
