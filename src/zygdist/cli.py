"""Batch command-line front end: seminorms, set dumps, distance comparisons,
inclusion probes, and the validation suite.

Every report embeds the run configuration and a content hash of its inputs;
identical configurations reproduce byte-identical JSON apart from the
timestamp field.  Exit codes: 0 success, 1 internal error, 2 validation
error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import hashlib
import json
import math
import os
import sys
import tempfile

import zygdist

from . import acceptance as _acceptance
from . import distance as _distance
from . import poisson as _poisson
from . import secdiff as _secdiff
from . import wavelet as _wavelet
from .dyadic import carleson_sup
from .gridfn import GridFunction, SpecError, parse_function_spec, sup_norm, synthesize

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2


@dataclasses.dataclass
class RunConfig:
    n: int = 1
    J_grid: int = 12
    s: float = 1.0
    wavelet_p: int = 8
    theta: float = _distance.THETA
    J_lo: int = 7
    J_hi: int = 10
    out: str = "out"

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _load_config_file(path: str) -> dict:
    values: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SpecError(f"{path}:{lineno}: expected key=value")
            key, val = (t.strip() for t in line.split("=", 1))
            values[key] = val
    return values


_CONFIG_KEYS = {fld.name for fld in dataclasses.fields(RunConfig)}


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        for key, val in _load_config_file(args.config).items():
            if key not in _CONFIG_KEYS:
                raise SpecError(f"unknown config key {key!r}")
            setattr(cfg, key, type(getattr(cfg, key))(val))  # the type of the default
    # flags override the file; their dests are the config keys
    for key in _CONFIG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    if getattr(args, "jrange", None) is not None:
        try:
            cfg.J_lo, cfg.J_hi = (int(v) for v in args.jrange.split(":"))
        except ValueError:
            raise SpecError(f"--jrange {args.jrange!r} must be two integers lo:hi") from None
    if not 0.0 < cfg.theta < math.inf:
        raise SpecError(f"theta={cfg.theta} must be finite and > 0")
    # a J_hi deeper than the field is allowed: carleson_sup continues M_J past it
    if not 0 <= cfg.J_lo <= cfg.J_hi:
        raise SpecError(f"depth range {cfg.J_lo}:{cfg.J_hi} needs 0 <= J_lo <= J_hi")
    return cfg


def _content_hash(cfg: RunConfig, spec_text: str | None, f: GridFunction | None,
                  options: dict | None = None) -> str:
    # the version names the code: a change to the numbers gets new report names;
    # the output directory is where the report goes, not what it is about
    config = {k: v for k, v in cfg.as_dict().items() if k != "out"}
    ident = {"config": config, "spec": spec_text, "version": zygdist.__version__}
    # a command's own options (the sets method, a validate selection) change
    # what is computed, so two values must not share one report name
    ident.update(options or {})
    if f is not None:
        # the spec may name a file, so the samples themselves identify the input;
        # hashed in place, without a copy of the grid
        ident["samples"] = hashlib.sha256(f.samples.data).hexdigest()
    payload = json.dumps(ident, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_json(cfg: RunConfig, name: str, body: dict, spec_text: str | None,
               f: GridFunction | None = None, options: dict | None = None) -> str:
    report = {
        "config": cfg.as_dict(),
        "content_hash": _content_hash(cfg, spec_text, f, options),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        **body,
    }
    path = os.path.join(cfg.out, f"{name}_{report['content_hash'][:8]}.json")
    _atomic_write(path, json.dumps(report, sort_keys=True, indent=1) + "\n")
    return path


def _print_warnings(estimates):
    for est in estimates:
        for text in est.warnings:
            print(f"warning: {est.method}: {text}", file=sys.stderr)


def cmd_seminorms(args) -> int:
    cfg = build_config(args)
    spec = parse_function_spec(args.spec)
    f = synthesize(spec, cfg.n, cfg.J_grid)
    s = cfg.s
    # the Poisson field first: its buffers then lie on a heap that no earlier
    # stage has left fragmented
    [poisson_norm] = _poisson.holder_poisson_norm(f, (s,))
    [holder_semi] = _secdiff.holder_seminorm(f, (s,))
    coeffs = _wavelet.analyze(f, _wavelet.filter_bank(cfg.wavelet_p))
    norms = {
        "holder_direct": holder_semi + sup_norm(f),
        "zygmund_seminorm": holder_semi if s == 1.0 else None,
        "wavelet_lip": _wavelet.lip_wavelet_norm(coeffs, s),
        "wavelet_jbmo": _wavelet.jbmo_wavelet_norm(coeffs, s),
    }
    del coeffs  # the coefficient table is a grid's worth: free it before the Bessel lift
    norms |= {
        "jbmo_direct": _poisson.jbmo_direct_norm(f, s, cfg.J_grid),
        "poisson": poisson_norm,
    }
    ratios = {}
    for a, b in (("holder_direct", "wavelet_lip"), ("holder_direct", "poisson"),
                 ("wavelet_lip", "poisson"), ("wavelet_jbmo", "jbmo_direct")):
        ratios[f"{a}/{b}"] = norms[a] / norms[b] if norms[b] else None
    path = _emit_json(cfg, "seminorms", {"function": f.label, "n": cfg.n, "s": s,
                                         "norms": norms, "ratios": ratios}, args.spec, f)
    csv_path = path[:-5] + ".csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["norm", "value"])
        for key, val in norms.items():
            if val is not None:
                writer.writerow([key, repr(val)])
    print(path)
    return EXIT_OK


def cmd_sets(args) -> int:
    cfg = build_config(args)
    spec = parse_function_spec(args.spec)
    f = synthesize(spec, cfg.n, cfg.J_grid)
    [fld] = _distance.method_context(
        f, (cfg.s,), args.method, bank=_wavelet.filter_bank(cfg.wavelet_p))
    A = fld.threshold(args.eps)
    J_range = (cfg.J_lo, cfg.J_hi)
    m_values = carleson_sup((A,), J_range)
    [(slope, diverging)] = _distance.divergence(m_values, J_range, cfg.theta)
    body = {
        "function": f.label, "n": cfg.n, "s": cfg.s, "method": args.method,
        "eps": args.eps, "cells": A.cell_count, "set": A.as_dict(),
        "carleson": {"J": list(range(cfg.J_lo, cfg.J_hi + 1)), "M_J": m_values[:, 0].tolist(),
                     "slope": slope, "diverging": diverging},
    }
    path = _emit_json(cfg, "sets", body, args.spec, f,
                      {"method": args.method, "eps": args.eps})
    A.to_csv(path[:-5] + ".csv")
    print(path)
    return EXIT_OK


def cmd_distance(args) -> int:
    cfg = build_config(args)
    spec = parse_function_spec(args.spec)
    f = synthesize(spec, cfg.n, cfg.J_grid)
    comp = _distance.compare_methods(
        f, cfg.s, (cfg.J_lo, cfg.J_hi), cfg.theta,
        bank=_wavelet.filter_bank(cfg.wavelet_p))
    _print_warnings(comp.estimates.values())
    body = {"function": f.label, "n": cfg.n, "s": cfg.s,
            "comparisons": comp.as_dict()}
    path = _emit_json(cfg, "distance", body, args.spec, f)
    print(path)
    return EXIT_OK


def cmd_inclusion(args) -> int:
    cfg = build_config(args)
    spec = parse_function_spec(args.spec)
    f = synthesize(spec, cfg.n, cfg.J_grid)
    bank = _wavelet.filter_bank(cfg.wavelet_p)
    # one source field serves the bisection and the probe
    [src] = _distance.method_context(f, (cfg.s,), args.source, bank=bank)
    if args.eps is None:
        ests = _distance.epsilon_star((src,), (cfg.s,), (cfg.J_lo, cfg.J_hi), cfg.theta)
        _print_warnings(ests)
        eps = 0.5 * ests[0].epsilon_star
    else:
        eps = args.eps
    # the target field is built after the bisection, whose sets are gone by then
    tgt = src if args.target == args.source else _distance.method_context(
        f, (cfg.s,), args.target, bank=bank)[0]
    rep = _distance.inclusion_probe(src, tgt, eps, eta=args.eta)
    body = {"function": f.label, "n": cfg.n, "s": cfg.s,
            "inclusions": rep.as_dict()}
    path = _emit_json(cfg, "inclusion", body, args.spec, f,
                      {"source": args.source, "target": args.target,
                       "eps": args.eps, "eta": args.eta})
    print(path)
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = build_config(args)
    numbers = None
    if args.criteria:
        # a repeated number selects its criterion once, under one report name
        numbers = sorted({int(t) for t in args.criteria.split(",")})
    results = _acceptance.run_all(numbers, theta=cfg.theta)
    for res in results:
        print(res.summary())
    # run times go to stdout only: the report body is reproducible
    body = {
        "results": [
            {"number": r.number, "name": r.name, "passed": r.passed, "failures": r.failures}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    _emit_json(cfg, "validate", body, None,
               options=None if numbers is None else {"criteria": numbers})
    return EXIT_OK if body["all_passed"] else EXIT_VALIDATION


def _add_shared(parser: argparse.ArgumentParser):
    parser.add_argument("--n", type=int, choices=(1, 2), default=None)
    parser.add_argument("--jgrid", dest="J_grid", type=int, default=None)
    parser.add_argument("--s", type=float, default=None)
    parser.add_argument("--wavelet-p", dest="wavelet_p", type=int, default=None)
    parser.add_argument("--theta", type=float, default=None)
    parser.add_argument("--jrange", type=str, default=None, help="lo:hi depth range")
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--config", type=str, default=None, help="key=value file")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zygdist")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seminorms", help="all smoothness and bmo-Sobolev norms")
    _add_shared(p)
    p.add_argument("--spec", required=True)
    p.set_defaults(func=cmd_seminorms)

    p = sub.add_parser("sets", help="threshold set dump plus its Carleson report")
    _add_shared(p)
    p.add_argument("--spec", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--method", choices=_distance.METHODS, required=True)
    p.set_defaults(func=cmd_sets)

    p = sub.add_parser("distance", help="critical thresholds under all three methods")
    _add_shared(p)
    p.add_argument("--spec", required=True)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("inclusion", help="set inclusion probe over a (c, R) grid")
    _add_shared(p)
    p.add_argument("--spec", required=True)
    p.add_argument("--source", choices=_distance.METHODS, required=True)
    p.add_argument("--target", choices=_distance.METHODS, required=True)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--eta", type=float, default=0.99)
    p.set_defaults(func=cmd_inclusion)

    p = sub.add_parser("validate", help="run the numbered validation criteria")
    _add_shared(p)
    p.add_argument("--criteria", type=str, default=None, help="comma list, e.g. 1,2,3")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits after --help (0) and on a usage error (2)
        return exc.code
    try:
        return args.func(args)
    except (SpecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
