"""Command-line front end: table, expand, scan, attract, verify.

Configuration comes from an optional JSON file (``--config``) whose top-level
sections are named after the subcommands; command-line flags override file
values.  Every output embeds the fully resolved configuration (CSV header
comments / a JSON field), and identical configurations produce byte-identical
outputs.

Exit codes: 0 success, 1 configuration error, 2 numeric divergence or failed
verification, 3 I/O error.
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


class ConfigError(ValueError):
    pass


def _load_config(path: str | None, section: str) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise OSError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    section_data = data.get(section, {})
    if not isinstance(section_data, dict):
        raise ConfigError(f"config section {section!r} must be an object")
    return dict(section_data)


def _merge(file_cfg: dict, defaults: dict, overrides: dict) -> dict:
    merged = dict(defaults)
    merged.update(file_cfg)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(merged) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return merged


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


def _integrator_config(opts) -> ode.IntegratorConfig:
    if not isinstance(opts, dict):
        raise ConfigError("integrator settings must be an object")
    mode = opts.get("mode", "adaptive")
    if mode == "fixed":
        ns = int(opts.get("ns", 100))
        h = opts.get("h")
        if h is None:
            h = duf.TWO_PI / ns
        return ode.fixed_step(float(h), ns)
    if mode == "adaptive":
        return ode.adaptive(float(opts.get("tol", 1e-12)), opts.get("h0"))
    raise ConfigError(f"integrator mode must be 'fixed' or 'adaptive', got {mode!r}")


# -- table ----------------------------------------------------------------------


def cmd_table(args) -> int:
    cfg = _merge(
        _load_config(args.config, "table"),
        {"m": None, "p": None, "out": None},
        {"m": args.m, "p": args.p, "out": args.out},
    )
    if cfg["m"] is None or cfg["p"] is None:
        raise ConfigError("table needs m and p")
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
    "integrator": {"mode": "adaptive", "tol": 1e-12},
    "suppress_zeros": False,
    "out": None,
}


def cmd_expand(args) -> int:
    overrides = {
        "beta": args.beta,
        "eps": args.eps,
        "order": args.order,
        "method": args.method,
        "out": args.out,
        "expansion": [float(v) for v in args.expansion.split(",")] if args.expansion else None,
        "integrator": {"mode": "adaptive", "tol": args.tol} if args.tol is not None else None,
    }
    cfg = _merge(_load_config(args.config, "expand"), _EXPAND_DEFAULTS, overrides)
    expansion = [float(v) for v in cfg["expansion"]]
    if cfg["method"] not in ("forward", "backward"):
        raise ConfigError(f"method must be forward or backward, got {cfg['method']!r}")
    if cfg["system"] == "duffing":
        if len(expansion) != 3:
            raise ConfigError("expansion must be [z1, z2, sigma]")
        tmap = duf.stroboscopic_taylor_map(
            beta=float(cfg["beta"]),
            eps=float(cfg["eps"]),
            expansion=expansion,
            p=int(cfg["order"]),
            cfg=_integrator_config(cfg["integrator"]),
            method=cfg["method"],
        )
    elif cfg["system"] == "zero":
        # frozen toy system: its one-period map is the identity
        dim = len(expansion)
        zero = ode.OdeSystem(dim=dim, rhs=lambda s, t: tuple(0.0 * z for z in s))
        table = mi.build_table(dim, int(cfg["order"]))
        solver = vq.forward_solve if cfg["method"] == "forward" else vq.backward_solve
        tmap = solver(
            zero, expansion, 0.0, duf.TWO_PI, table, _integrator_config(cfg["integrator"])
        )
    else:
        raise ConfigError(f"system must be 'duffing' or 'zero', got {cfg['system']!r}")
    payload = vq.taylor_map_to_dict(tmap, suppress_zeros=bool(cfg["suppress_zeros"]))
    payload["config"] = {k: cfg[k] for k in sorted(cfg) if k != "out"}
    endpoint = ", ".join(repr(v) for v in tmap.design_endpoint)
    print(f"design endpoint after one period: ({endpoint})")
    steps = "; ".join(
        f"{s.accepted} accepted, {s.rejected} rejected, h in [{s.h_min:.3g}, {s.h_max:.3g}]"
        for s in tmap.diagnostics
    )
    print(f"integration steps: {steps}")
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if cfg["out"]:
        _write_text(cfg["out"], text)
        print(f"wrote order-{tmap.order} map to {cfg['out']}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# -- scan and attract -------------------------------------------------------------


# default expansion point: the published unstable fixed point of the exact
# map at beta=.1, eps=25, omega=1.285, converted to the scaled frame
_DEFAULT_EXPANSION = [
    1.26082 / 1.285,
    2.05452 / 1.285**2,
    1.0 / 1.285,
]

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


def _omega_grid(cfg) -> np.ndarray:
    start, stop, step = (
        float(cfg["omega_start"]),
        float(cfg["omega_stop"]),
        float(cfg["omega_step"]),
    )
    if step == 0:
        raise ConfigError("omega_step must be nonzero")
    n = int(round((stop - start) / step))
    if n < 0:
        raise ConfigError("omega range and step disagree in direction")
    grid = start + step * np.arange(n + 1)
    if grid.size == 0:
        raise ConfigError("empty omega grid")
    return grid


def _map_source(cfg):
    if cfg["source"] == "exact":
        return "exact"
    if cfg["source"] != "taylor":
        raise ConfigError(f"source must be 'exact' or 'taylor', got {cfg['source']!r}")
    if cfg["map_file"]:
        try:
            with open(cfg["map_file"], "r", encoding="utf-8") as fh:
                return vq.taylor_map_from_dict(json.load(fh))
        except OSError as err:
            raise OSError(f"cannot read map file: {err}") from err
        except (KeyError, TypeError) as err:
            raise ConfigError(f"map file {cfg['map_file']} is not a serialized map: {err}") from err
    opts = cfg["map"]
    expansion = opts.get("expansion")
    if expansion is None:
        raise ConfigError("taylor source needs map.expansion = [z1, z2, sigma] or map_file")
    return duf.stroboscopic_taylor_map(
        beta=float(cfg["beta"]),
        eps=float(cfg["eps"]),
        expansion=[float(v) for v in expansion],
        p=int(opts.get("order", 8)),
        tol=float(opts.get("tol", 1e-9)),
        method=opts.get("method", "forward"),
    )


def cmd_scan(args) -> int:
    overrides = {
        "source": args.source,
        "beta": args.beta,
        "eps": args.eps,
        "omega_start": args.omega_start,
        "omega_stop": args.omega_stop,
        "omega_step": args.omega_step,
        "transient": args.transient,
        "record": args.record,
        "seed_policy": args.seed_policy,
        "tol": args.tol,
        "out": args.out,
    }
    cfg = _merge(_load_config(args.config, "scan"), _SCAN_DEFAULTS, overrides)
    if cfg["out"] is None:
        raise ConfigError("scan needs an output path (--out)")
    grid = _omega_grid(cfg)
    result = duf.feigenbaum_scan(
        _map_source(cfg),
        beta=float(cfg["beta"]),
        eps=float(cfg["eps"]),
        omega_grid=grid,
        transient=int(cfg["transient"]),
        record=int(cfg["record"]),
        seed_policy=cfg["seed_policy"],
        seed=cfg["seed"],
        tol=float(cfg["tol"]),
        escape_radius=float(cfg["escape_radius"]),
    )
    lines = _config_header_lines("scan", {k: cfg[k] for k in sorted(cfg) if k != "out"})
    lines.append("omega,index,q,p")
    rows_written = 0
    for omega, block in zip(result.omegas, result.samples):
        for index, (q, p) in enumerate(block):
            lines.append(f"{float(omega)!r},{index},{float(q)!r},{float(p)!r}")
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
        result.transient + result.record if len(block) else applied
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
    overrides = {
        "source": args.source,
        "beta": args.beta,
        "eps": args.eps,
        "omega": args.omega,
        "transient": args.transient,
        "count": args.count,
        "tol": args.tol,
        "out": args.out,
    }
    cfg = _merge(_load_config(args.config, "attract"), _ATTRACT_DEFAULTS, overrides)
    if cfg["out"] is None:
        raise ConfigError("attract needs an output path (--out)")
    samples = duf.attractor_sample(
        _map_source(cfg),
        beta=float(cfg["beta"]),
        eps=float(cfg["eps"]),
        omega=float(cfg["omega"]),
        transient=int(cfg["transient"]),
        count=int(cfg["count"]),
        seed=cfg["seed"],
        tol=float(cfg["tol"]),
        escape_radius=float(cfg["escape_radius"]),
    )
    lines = _config_header_lines("attract", {k: cfg[k] for k in sorted(cfg) if k != "out"})
    lines.append("q,p")
    for q, p in samples:
        lines.append(f"{float(q)!r},{float(p)!r}")
    _write_text(cfg["out"], "\n".join(lines) + "\n")
    print(f"wrote {len(samples)} samples to {cfg['out']}")
    return EXIT_OK


# -- verify -----------------------------------------------------------------------


def cmd_verify(args) -> int:
    if args.list:
        for name, _ in golden.CHECKS:
            print(name)
        return EXIT_OK
    tol = args.tol if args.tol is not None else 1e-12
    results = golden.run_checks(tol=tol, names=args.only or None)
    failures = 0
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        print(f"{status} {res.name} [{res.kind}] observed={res.observed} expected={res.expected}")
        failures += 0 if res.ok else 1
    print(f"{len(results) - failures}/{len(results)} checks passed (tol={tol!r})")
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


# -- entry point --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetmap",
        description="Taylor transfer maps of polynomial ODEs and Duffing-map dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--out", help="output file path")
    common.add_argument("--tol", type=float, help="adaptive integration tolerance")

    p_table = sub.add_parser("table", parents=[common], help="write a monomial table CSV")
    p_table.add_argument("--m", type=int, help="number of variables")
    p_table.add_argument("--p", type=int, help="maximum degree")
    p_table.set_defaults(fn=cmd_table)

    p_expand = sub.add_parser(
        "expand", parents=[common], help="expand the Duffing stroboscopic map"
    )
    p_expand.add_argument("--beta", type=float)
    p_expand.add_argument("--eps", type=float)
    p_expand.add_argument("--expansion", help="z1,z2,sigma")
    p_expand.add_argument("--order", type=int, help="map order p")
    p_expand.add_argument("--method", choices=["forward", "backward"])
    p_expand.set_defaults(fn=cmd_expand)

    p_scan = sub.add_parser("scan", parents=[common], help="Feigenbaum sweep over omega")
    p_scan.add_argument("--source", choices=["exact", "taylor"])
    p_scan.add_argument("--beta", type=float)
    p_scan.add_argument("--eps", type=float)
    p_scan.add_argument("--omega-start", dest="omega_start", type=float)
    p_scan.add_argument("--omega-stop", dest="omega_stop", type=float)
    p_scan.add_argument("--omega-step", dest="omega_step", type=float)
    p_scan.add_argument("--transient", type=int)
    p_scan.add_argument("--record", type=int)
    p_scan.add_argument("--seed-policy", dest="seed_policy", choices=["continue", "fixed"])
    p_scan.set_defaults(fn=cmd_scan)

    p_attract = sub.add_parser(
        "attract", parents=[common], help="sample a steady state at one omega"
    )
    p_attract.add_argument("--source", choices=["exact", "taylor"])
    p_attract.add_argument("--beta", type=float)
    p_attract.add_argument("--eps", type=float)
    p_attract.add_argument("--omega", type=float)
    p_attract.add_argument("--transient", type=int)
    p_attract.add_argument("--count", type=int)
    p_attract.set_defaults(fn=cmd_attract)

    p_verify = sub.add_parser("verify", parents=[common], help="run the golden-value suite")
    p_verify.add_argument("--list", action="store_true", help="list checks without running")
    p_verify.add_argument("--only", nargs="*", help="run only the named checks")
    p_verify.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError) as err:
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
