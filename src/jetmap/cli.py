"""Command-line front end: table, expand, scan, attract, verify.

Configuration comes from an optional JSON file (``--config``) whose top-level
sections are named after the subcommands.  A flag's dest is the config key it
sets, and a flag given overrides the file; ``expand --tol`` sets only
``integrator.tol``.  Each subcommand takes only the flags it reads.  The
nested ``map`` and ``integrator`` objects are filled from their defaults, so
every output embeds the fully resolved configuration, filled objects included
(CSV header comments / a JSON field), and identical configurations produce
byte-identical outputs.

Exit codes: 0 success (``--help`` too), 1 configuration or usage error (a bad
flag value, an unknown flag, a missing subcommand), 2 numeric divergence or
failed verification, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import duffing as duf
from . import golden
from . import jetode as ode
from . import monoidx as mi
from . import vareq as vq

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


def _load_config(path: str | None, section: str) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise OSError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ValueError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ValueError(f"config {path} must be a JSON object")
    section_data = data.get(section, {})
    if not isinstance(section_data, dict):
        raise ValueError(f"config section {section!r} must be an object")
    return dict(section_data)


def _merge(file_cfg: dict, defaults: dict, args: argparse.Namespace) -> dict:
    """``defaults``, then the file's section, then each flag given: a flag's dest is
    its config key, and ``integrator.tol`` sets one key of a nested object."""
    cfg = _fill(file_cfg, defaults, "config")
    for dest, value in vars(args).items():
        key, _, inner = dest.partition(".")
        if value is not None and key in defaults:
            cfg[key] = {**_object(cfg[key], key), inner: value} if inner else value
    return cfg


def _object(opts, name: str) -> dict:
    if not isinstance(opts, dict):
        raise ValueError(f"{name} settings must be an object")
    return opts


def _fill(opts, defaults: dict, name: str) -> dict:
    """``defaults`` overridden by ``opts``, an object whose keys are all in ``defaults``
    and whose values each have the kind of their default (see :func:`_same_kind`)."""
    unknown = set(_object(opts, name)) - set(defaults)
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}; allowed: {sorted(defaults)}")
    for key, value in opts.items():
        if not _same_kind(value, defaults[key], key):
            raise ValueError(
                f"{name} key {key!r} cannot be {json.dumps(value)}; "
                f"its default is {json.dumps(defaults[key])}"
            )
    return {**defaults, **opts}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# keys whose null default stands for a file path; every other null default
# stands for an integer the command requires (table's m and p)
_PATH_KEYS = ("out", "map_file")


def _same_kind(value, default, key: str) -> bool:
    """A bool or an integer where the default is one, a number where it is a
    float, a list of numbers where it is a list, and null or, where the
    default is null, a path string for the path keys and an integer for the
    rest.  A JSON integer reads as an int, and no other value does."""
    if type(default) in (bool, int):
        return type(value) is type(default)
    if isinstance(default, float):
        return _is_number(value)
    if isinstance(default, list):
        return isinstance(value, list) and all(_is_number(v) for v in value)
    if default is None:
        return value is None or (isinstance(value, str) if key in _PATH_KEYS else type(value) is int)
    return True


def _config_header_lines(command: str, cfg: dict) -> list[str]:
    lines = [f"# command={command}"]
    for key in sorted(cfg):
        lines.append(f"# {key}={json.dumps(cfg[key], sort_keys=True)}")
    return lines


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as err:
        raise OSError(f"cannot write {path}: {err}") from err


# the keys each integrator mode reads, with their defaults
_INTEGRATOR_DEFAULTS = {
    "adaptive": {"mode": "adaptive", "tol": 1e-12},
    "fixed": {"mode": "fixed", "ns": 100},
}


def _integrator_config(opts) -> tuple[dict, ode.IntegratorConfig]:
    """``opts`` filled from its mode's defaults (adaptive unless it names one), and
    the config it sets: ns RK4 steps over the period, or the adaptive pair at tol."""
    mode = _object(opts, "integrator").get("mode", "adaptive")
    if mode not in ("fixed", "adaptive"):
        raise ValueError(f"integrator mode must be 'fixed' or 'adaptive', got {mode!r}")
    opts = _fill(opts, _INTEGRATOR_DEFAULTS[mode], "integrator")
    if mode == "fixed":
        return opts, ode.fixed_step(int(opts["ns"]))
    return opts, ode.adaptive(float(opts["tol"]))


# -- table ----------------------------------------------------------------------


def cmd_table(args) -> int:
    cfg = _merge(_load_config(args.config, "table"), {"m": None, "p": None, "out": None}, args)
    if cfg["m"] is None or cfg["p"] is None:
        raise ValueError("table needs m and p")
    table = mi.build_table(int(cfg["m"]), int(cfg["p"]))
    lines = _config_header_lines("table", {"m": table.m, "p": table.p})
    lines.extend(table.rows_csv())
    text = "\n".join(lines) + "\n"
    if cfg["out"]:
        _write_text(cfg["out"], text)
        print(f"wrote {table.L} rows to {cfg['out']}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# -- expand ---------------------------------------------------------------------


_EXPAND_DEFAULTS = {
    "system": "duffing",
    "beta": 0.1,
    "eps": 1.5,
    "expansion": [0.3, 0.4, 0.5],
    "order": 3,
    "method": "forward",
    "integrator": _INTEGRATOR_DEFAULTS["adaptive"],
    "suppress_zeros": False,
    "out": None,
}


def cmd_expand(args) -> int:
    cfg = _merge(_load_config(args.config, "expand"), _EXPAND_DEFAULTS, args)
    cfg["integrator"], integrator = _integrator_config(cfg["integrator"])
    if cfg["system"] != "duffing":
        raise ValueError(f"system must be 'duffing', got {cfg['system']!r}")
    tmap = duf.stroboscopic_taylor_map(
        beta=float(cfg["beta"]),
        eps=float(cfg["eps"]),
        expansion=[float(v) for v in cfg["expansion"]],
        p=int(cfg["order"]),
        cfg=integrator,
        method=cfg["method"],
    )
    payload = vq.taylor_map_to_dict(tmap, suppress_zeros=bool(cfg["suppress_zeros"]))
    payload["config"] = {k: cfg[k] for k in sorted(cfg) if k != "out"}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if not cfg["out"]:
        # stdout is the map itself; the report lines repeat its fields
        sys.stdout.write(text)
        return EXIT_OK
    endpoint = ", ".join(repr(v) for v in tmap.design_endpoint)
    print(f"design endpoint after one period: ({endpoint})")
    steps = "; ".join(
        f"{s.accepted} accepted, {s.rejected} rejected, h in [{s.h_min:.3g}, {s.h_max:.3g}]"
        for s in tmap.diagnostics
    )
    print(f"integration steps: {steps}")
    _write_text(cfg["out"], text)
    print(f"wrote order-{tmap.order} map to {cfg['out']}")
    return EXIT_OK


# -- scan and attract -------------------------------------------------------------


# default expansion point: the published unstable fixed point of the exact
# map at beta=.1, eps=25, omega=1.285, converted to the scaled frame
_DEFAULT_EXPANSION = [*duf.to_scaled(1.26082, 2.05452, 1.285), 1.0 / 1.285]

_SCAN_DEFAULTS = {
    "source": "taylor",
    "beta": 0.1,
    "eps": 25.0,
    "omega_start": 1.24,
    "omega_stop": 1.30,
    "omega_step": 1e-3,
    "transient": duf.DEFAULT_TRANSIENT,
    "record": duf.DEFAULT_RECORD,
    "seed": [0.0, 0.0],
    "seed_policy": "continue",
    "tol": 1e-12,
    "escape_radius": duf.DEFAULT_ESCAPE_RADIUS,
    # step control weighs each coefficient's error by 1 + |c|, so 1e-9 holds
    # the order-8 coefficients (up to ~5e11) to 1e-9 relative
    "map": {"expansion": _DEFAULT_EXPANSION, "order": 8, "tol": 1e-9, "method": "forward"},
    "map_file": None,
    "out": None,
}


#: the most omegas a scan grid may hold; a grid is refused before it is made
MAX_OMEGAS = 1_000_000


def _omega_grid(cfg) -> np.ndarray:
    start, stop, step = (
        float(cfg["omega_start"]),
        float(cfg["omega_stop"]),
        float(cfg["omega_step"]),
    )
    if not np.all(np.isfinite([start, stop, step])):
        raise ValueError("omega_start, omega_stop and omega_step must be finite")
    if step == 0:
        raise ValueError("omega_step must be nonzero")
    # clamped before rounding: the quotient can overflow to +-inf
    n = int(round(min(max((stop - start) / step, -1.0), float(MAX_OMEGAS))))
    if n < 0:
        raise ValueError("omega range and step disagree in direction")
    if n >= MAX_OMEGAS:
        raise ValueError(f"omega grid would hold more than {MAX_OMEGAS} values; widen omega_step")
    return start + step * np.arange(n + 1)


def _map_source(cfg):
    if cfg["source"] == "exact":
        return "exact"
    if cfg["source"] != "taylor":
        raise ValueError(f"source must be 'exact' or 'taylor', got {cfg['source']!r}")
    if cfg["map_file"]:
        path = cfg["map_file"]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            tmap = vq.taylor_map_from_dict(data)
            # the output records cfg's beta and eps: a map built with others is refused
            built = data.get("config", {})
            for key in ("beta", "eps"):
                if key in built and built[key] != cfg[key]:
                    raise ValueError(
                        f"map file {path} was built with {key}={built[key]!r}, not {cfg[key]!r}"
                    )
            return tmap
        except OSError as err:
            raise OSError(f"cannot read map file: {err}") from err
        except (KeyError, TypeError) as err:
            raise ValueError(f"map file {path} is not a serialized map: {err}") from err
    opts = cfg["map"]
    return duf.stroboscopic_taylor_map(
        beta=float(cfg["beta"]),
        eps=float(cfg["eps"]),
        expansion=[float(v) for v in opts["expansion"]],
        p=int(opts["order"]),
        cfg=ode.adaptive(float(opts["tol"])),
        method=opts["method"],
    )


def cmd_scan(args) -> int:
    cfg = _merge(_load_config(args.config, "scan"), _SCAN_DEFAULTS, args)
    cfg["map"] = _fill(cfg["map"], _SCAN_DEFAULTS["map"], "map")
    if cfg["out"] is None:
        raise ValueError("scan needs an output path (--out)")
    grid = _omega_grid(cfg)
    transient, record, radius = int(cfg["transient"]), int(cfg["record"]), float(cfg["escape_radius"])
    # refused before the map is built or loaded
    duf._orbit_inputs(grid, transient, record, cfg["seed"], radius, cfg["seed_policy"])
    result = duf.feigenbaum_scan(
        _map_source(cfg),
        beta=float(cfg["beta"]),
        eps=float(cfg["eps"]),
        omega_grid=grid,
        transient=transient,
        record=record,
        seed_policy=cfg["seed_policy"],
        seed=cfg["seed"],
        tol=float(cfg["tol"]),
        escape_radius=radius,
    )
    lines = _config_header_lines("scan", {k: cfg[k] for k in sorted(cfg) if k != "out"})
    lines.append("omega,index,q,p")
    rows_written = 0
    for omega, block in zip(result.omegas.tolist(), result.samples):
        for index, (q, p) in enumerate(block.tolist()):
            lines.append(f"{omega!r},{index},{q!r},{p!r}")
            rows_written += 1
    _write_text(cfg["out"], "\n".join(lines) + "\n")
    if result.failures:
        sidecar = cfg["out"] + ".failures"
        _write_text(
            sidecar,
            "\n".join(f"{omega!r},{message}" for omega, message in result.failures) + "\n",
        )
        print(f"{len(result.failures)} omega value(s) diverged; see {sidecar}")
    sampled = sum(1 for block in result.samples if len(block))
    # an escaped omega stepped up to its escape either way
    uncut = sum(
        transient + record if len(block) else applied
        for block, applied in zip(result.samples, result.applications)
    )
    print(
        f"map applications: {sum(result.applications)} ({uncut} without cycle cuts); "
        f"{sum(result.cycles)} of {sampled} sampled omegas closed on a cycle"
    )
    print(f"wrote {rows_written} rows for {result.omegas.size} omega values to {cfg['out']}")
    return EXIT_OK if rows_written else EXIT_NUMERIC


_ATTRACT_DEFAULTS = dict(_SCAN_DEFAULTS)
for key in ("omega_start", "omega_stop", "omega_step", "seed_policy", "record"):
    _ATTRACT_DEFAULTS.pop(key)
_ATTRACT_DEFAULTS.update({"omega": 1.2902, "count": 10_000})


def cmd_attract(args) -> int:
    cfg = _merge(_load_config(args.config, "attract"), _ATTRACT_DEFAULTS, args)
    cfg["map"] = _fill(cfg["map"], _SCAN_DEFAULTS["map"], "map")
    if cfg["out"] is None:
        raise ValueError("attract needs an output path (--out)")
    omega, transient, count = float(cfg["omega"]), int(cfg["transient"]), int(cfg["count"])
    radius = float(cfg["escape_radius"])
    # refused before the map is built or loaded
    duf._orbit_inputs([omega], transient, count, cfg["seed"], radius)
    samples = duf.attractor_sample(
        _map_source(cfg),
        beta=float(cfg["beta"]),
        eps=float(cfg["eps"]),
        omega=omega,
        transient=transient,
        count=count,
        seed=cfg["seed"],
        tol=float(cfg["tol"]),
        escape_radius=radius,
    )
    lines = _config_header_lines("attract", {k: cfg[k] for k in sorted(cfg) if k != "out"})
    lines.append("q,p")
    for q, p in samples.tolist():
        lines.append(f"{q!r},{p!r}")
    _write_text(cfg["out"], "\n".join(lines) + "\n")
    print(f"wrote {len(samples)} samples to {cfg['out']}")
    return EXIT_OK


# -- verify -----------------------------------------------------------------------


def cmd_verify(args) -> int:
    if args.list:
        for name, _, _ in golden.CHECKS:
            print(name)
        return EXIT_OK
    results = golden.run_checks(tol=args.tol, names=args.only or None)
    failures = 0
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        print(f"{status} {res.name} [{res.kind}] observed={res.observed} expected={res.expected}")
        failures += 0 if res.ok else 1
    print(f"{len(results) - failures}/{len(results)} checks passed (tol={args.tol!r})")
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


# -- entry point --------------------------------------------------------------------


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetmap",
        description="Taylor transfer maps of polynomial ODEs and Duffing-map dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--config", help="JSON config file; flags override it")
    files.add_argument("--out", help="output file path")

    p_table = sub.add_parser("table", parents=[files], help="write a monomial table CSV")
    p_table.add_argument("--m", type=int, help="number of variables")
    p_table.add_argument("--p", type=int, help="maximum degree")
    p_table.set_defaults(fn=cmd_table)

    p_expand = sub.add_parser("expand", parents=[files], help="expand the Duffing stroboscopic map")
    p_expand.add_argument("--beta", type=float)
    p_expand.add_argument("--eps", type=float)
    p_expand.add_argument("--expansion", type=_float_list, help="z1,z2,sigma")
    p_expand.add_argument("--order", type=int, help="map order p")
    p_expand.add_argument("--method", choices=["forward", "backward"])
    p_expand.add_argument(
        "--tol", dest="integrator.tol", metavar="TOL", type=float,
        help="adaptive integration tolerance (integrator.tol only)",
    )
    p_expand.set_defaults(fn=cmd_expand)

    orbits = argparse.ArgumentParser(add_help=False, parents=[files])
    orbits.add_argument("--source", choices=["exact", "taylor"])
    orbits.add_argument("--beta", type=float)
    orbits.add_argument("--eps", type=float)
    orbits.add_argument("--transient", type=int)
    orbits.add_argument("--tol", type=float, help="integration tolerance of the exact map")

    p_scan = sub.add_parser("scan", parents=[orbits], help="Feigenbaum sweep over omega")
    p_scan.add_argument("--omega-start", dest="omega_start", type=float)
    p_scan.add_argument("--omega-stop", dest="omega_stop", type=float)
    p_scan.add_argument("--omega-step", dest="omega_step", type=float)
    p_scan.add_argument("--record", type=int)
    p_scan.add_argument("--seed-policy", dest="seed_policy", choices=["continue", "fixed"])
    p_scan.set_defaults(fn=cmd_scan)

    p_attract = sub.add_parser(
        "attract", parents=[orbits], help="sample a steady state at one omega"
    )
    p_attract.add_argument("--omega", type=float)
    p_attract.add_argument("--count", type=int)
    p_attract.set_defaults(fn=cmd_attract)

    p_verify = sub.add_parser("verify", help="run the golden-value suite")
    p_verify.add_argument("--tol", type=float, default=1e-12, help="integration tolerance")
    p_verify.add_argument("--list", action="store_true", help="list checks without running")
    p_verify.add_argument("--only", nargs="*", help="run only the named checks")
    p_verify.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:
        # argparse exits 0 after --help and 2 on a usage error: a config error here
        return EXIT_OK if stop.code == 0 else EXIT_CONFIG
    try:
        return args.fn(args)
    except ValueError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (ode.DivergenceError, ode.StiffnessError, duf.EscapeError,
            duf.NewtonConvergenceError, duf.SingularJacobianError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
