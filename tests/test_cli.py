"""Command-line interface tests: config handling, outputs, determinism, exit codes."""

import json

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


def test_expand_flag_overrides_config(tmp_path, rk4_expand_config):
    out = tmp_path / "o2.json"
    assert run_cli(["expand", "--config", rk4_expand_config, "--order", 2, "--out", out]) == 0
    assert json.loads(out.read_text())["p"] == 2


def test_expand_bad_expansion():
    assert run_cli(["expand", "--expansion", "0.3,0.4"]) == cli.EXIT_CONFIG


def test_expand_zero_system_identity_map(tmp_path):
    cfg = {"expand": {"system": "zero", "expansion": [0.7, -0.2], "order": 3}}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "zero_map.json"
    assert run_cli(["expand", "--config", path, "--out", out]) == 0
    data = json.loads(out.read_text())
    assert data["design_endpoint"] == [0.7, -0.2]
    for a, row in enumerate(data["rows"]):
        values = np.array([c["value"] for c in row["coeffs"]])
        expected = np.zeros(len(values))
        expected[0] = data["expansion_point"][a]
        expected[a + 1] = 1.0
        assert np.array_equal(values, expected)


def test_unknown_config_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"expand": {"unknown_knob": 1}}))
    assert run_cli(["expand", "--config", path]) == cli.EXIT_CONFIG


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
         "replacement-rule", "taylor-rule-2var", "duffing-forcing-terms",
         "c-coefficients-2var", "rk4-scalar-decay"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 8 and "FAIL" not in out


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
