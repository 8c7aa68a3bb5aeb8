"""Command-line front end.

Subcommands: sample, evolve, components, stats, survival, scaling,
verify.  Options may come from flags or from a JSON config file
(``--config-file``), with explicit flags taking precedence over the file
and the file over ``_DEFAULTS``.  Every command rerun with the same
configuration and seed produces byte-identical output.

Exit codes: 0 success or all checks passed, 1 check failure, 2 usage or
configuration error (a size that does not fit in memory included), 3 I/O
or file-format error.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import _degree_fit
from .branching import CONFIGURATIONS, DEFAULT_TOL, survival_fractions
from .digraph import (
    MAX_N,
    _code_rows,
    _edge_list_chunks,
    _graph_rows,
    _read_degrees,
    _write_text,
)
from .sampler import _arc_draw, _fast_arc_codes, evolve_chain
from .scaling import scaling_exponent_experiment
from .structure import DegreeArrays, _read_summary
from .verify import SUITES, _degree_fit_check, run_suite
from .weights import (
    NormalizerMode,
    ParetoMirrored,
    critical_pareto_mirrored,
    model_to_json,
    moments,
    normalizer,
    parse_model,
    sample_weights,
)

__all__ = ["RunConfig", "UsageError", "IOFailure", "main"]

_MODEL_HELP = (
    "weight model, e.g. constant:2, pareto-mirrored:3.5,1, oriented-nr:pareto:3.5,1,"
    " independent-product:constant:2|constant:2, or a JSON object"
)


class UsageError(Exception):
    """Invalid flags or configuration (exit code 2)."""


class IOFailure(Exception):
    """Unreadable, unwritable or malformed files (exit code 3)."""


@dataclass(frozen=True)
class RunConfig:
    """All tunables of one CLI invocation; a field nobody sets stays None.

    ``_DEFAULTS`` holds every field that has a default.  Round-trips
    losslessly through JSON; unknown fields and values of the wrong JSON
    type are rejected on input so configuration typos fail loudly.
    """

    model: str | None = None
    n: int | None = None
    seed: int | None = None
    normalizer_mode: str | None = None
    out: str | None = None
    graph: str | None = None
    reps: int | None = None
    kmax: int | None = None
    threshold: float | None = None
    tol: float | None = None
    configuration: str | None = None
    n_list: tuple[int, ...] | None = None
    n_from: int | None = None
    n_to: int | None = None
    suite: str | None = None
    tau: float | None = None
    critical: bool | None = None
    threads: int | None = None
    sources: int | None = None
    bootstrap: int | None = None
    as_json: bool | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown config fields: {', '.join(unknown)}")
        hints = typing.get_type_hints(cls)
        for name, value in data.items():
            # every field is declared "T | None"
            if value is not None and not _json_fits(value, typing.get_args(hints[name])[0]):
                raise ValueError(f"config field {name!r} has the wrong type: {value!r}")
        if data.get("n_list") is not None:
            data["n_list"] = tuple(data["n_list"])
        return cls(**data)


# model, graph, tau and suite stay None: their conflict checks see absence
_DEFAULTS = RunConfig(
    seed=0, normalizer_mode="mu-n", kmax=30, threshold=0.02, tol=DEFAULT_TOL, configuration="plain",
    n_list=(4096, 8192, 16384, 32768), reps=10, sources=64, threads=1, bootstrap=200,
)


def _json_fits(value, kind) -> bool:
    """Whether a decoded JSON value has the type a RunConfig field declares."""
    if typing.get_origin(kind) is tuple:
        return isinstance(value, list) and all(_json_fits(x, int) for x in value)
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


# -- config resolution helpers ------------------------------------------------


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """The defaults, overlaid by the config file's non-null fields, then by the flags given."""
    layers = []
    if args.config_file:
        try:
            text = Path(args.config_file).read_text(encoding="utf-8")
        except OSError as exc:
            raise IOFailure(f"cannot read config file: {exc}") from exc
        from_file = asdict(RunConfig.from_json(text))
        if "graph" in vars(args):
            # a file's n is sample's size; a reader overrides a header with --n only
            from_file["n"] = None
        layers.append(from_file)
    layers.append(vars(args))
    cfg = _DEFAULTS
    for layer in layers:
        given = {f.name: layer[f.name] for f in fields(RunConfig) if layer.get(f.name) is not None}
        cfg = replace(cfg, **given)
    return cfg


def _check_n(cfg: RunConfig, required: bool) -> None:
    """Refuse an n outside 1..MAX_N, or a missing one where it is required."""
    if cfg.n is None and not required:
        return
    if cfg.n is None or not 1 <= cfg.n <= MAX_N:
        raise UsageError(f"--n must be an integer in 1..{MAX_N}, got {cfg.n}")


def _model(cfg: RunConfig):
    if cfg.model is None:
        raise UsageError("--model is required")
    return parse_model(cfg.model)


def _emit(chunks, out: str | None) -> None:
    """Write the UTF-8 bytes of ``chunks``, in order and unjoined, to ``out`` or stdout.

    A file gets the bytes, whole or not at all (``digraph._write_text``), a
    chunk at a time; stdout gets every chunk rendered, then each decoded,
    so a failed render writes nothing there either.
    """
    if out is None or out == "-":
        sys.stdout.writelines(map(bytes.decode, list(chunks)))
        return
    try:
        _write_text(out, chunks)
    except OSError as exc:
        raise IOFailure(f"cannot write {out}: {exc}") from exc


def _read_input(cfg: RunConfig, reader):
    """``reader(cfg.graph, cfg.n)``, with its errors as CLI failures."""
    if cfg.graph is None:
        raise UsageError("an input edge-list file is required")
    _check_n(cfg, required=False)
    try:
        return reader(cfg.graph, cfg.n)
    except OSError as exc:
        raise IOFailure(f"cannot read {cfg.graph}: {exc}") from exc
    except ValueError as exc:
        raise IOFailure(f"{cfg.graph}: {exc}") from exc


def _print_json(payload: dict, out: str | None) -> None:
    _emit([(json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()], out)


# -- subcommand handlers ------------------------------------------------------


def _header_meta(model, cfg: RunConfig, **extra) -> dict:
    """Provenance of a written graph: model, seed, normalizer, ``extra``, version."""
    return {
        "model": json.loads(model_to_json(model)),
        "seed": cfg.seed,
        "normalizer_mode": cfg.normalizer_mode,
        **extra,
        "version": __version__,
    }


def cmd_sample(cfg: RunConfig) -> int:
    model = _model(cfg)
    _check_n(cfg, required=True)
    mode = NormalizerMode(cfg.normalizer_mode)
    w = sample_weights(model, cfg.n, cfg.seed)
    l_n = normalizer(w, moments(model).mu, mode)
    # the weights go before the arcs are drawn, their cdfs once they are
    draw = _arc_draw(w, l_n)
    del w
    codes = _fast_arc_codes(cfg.n, draw, cfg.seed)
    del draw
    # the rows are rendered from the sorted codes; no graph is built
    codes.sort()
    meta = _header_meta(model, cfg, l_n=float(l_n))
    _emit(_edge_list_chunks(cfg.n, _code_rows(cfg.n, codes), meta), cfg.out)
    return 0


def cmd_evolve(cfg: RunConfig) -> int:
    model = _model(cfg)
    if cfg.n_from is None or cfg.n_to is None:
        raise UsageError("--from and --to are required")
    if not 1 <= cfg.n_from <= cfg.n_to <= MAX_N:
        raise UsageError(f"need 1 <= from <= to <= {MAX_N}, got {cfg.n_from}..{cfg.n_to}")
    g = evolve_chain(model, cfg.n_from, cfg.n_to, cfg.seed, NormalizerMode(cfg.normalizer_mode))
    meta = _header_meta(model, cfg, n_from=cfg.n_from, n_to=cfg.n_to)
    _emit(_edge_list_chunks(g.n, _graph_rows(g), meta), cfg.out)
    return 0


def cmd_components(cfg: RunConfig) -> int:
    # the adjacency is built from the reader's blocks, without the graph
    summary = _read_input(cfg, _read_summary)
    _emit([(summary.to_json(topk=5) + "\n").encode()], cfg.out)
    return 0


def cmd_stats(cfg: RunConfig) -> int:
    # degrees counted as the file is read, without the graph
    n, total_arcs, total_loops, rows = _read_input(cfg, _read_degrees)
    arr = DegreeArrays(*rows)
    payload = {
        "n": n,
        "total_arcs": total_arcs,
        "total_loops": total_loops,
        "mean_in_degree": float(arr.d_in.mean()),
        "mean_out_degree": float(arr.d_out.mean()),
        "max_in_degree": int(arr.d_in.max()),
        "max_out_degree": int(arr.d_out.max()),
        "max_total_degree": arr.max_total(),
        "vertices_with_loops": int(np.count_nonzero(arr.loops)),
    }
    code = 0
    if cfg.model is not None:
        fit = _degree_fit(arr, n, _model(cfg), kmax=cfg.kmax, threshold=cfg.threshold)
        payload["degree_fit"] = {
            "statistic": fit.statistic,
            "threshold": fit.threshold,
            "passed": fit.passed,
            "kmax": fit.kmax,
        }
        code = 0 if fit.passed else 1
    _print_json(payload, cfg.out)
    return code


def cmd_survival(cfg: RunConfig) -> int:
    report = survival_fractions(_model(cfg), cfg.configuration, tol=cfg.tol)
    _emit([(report.to_json() + "\n").encode()], cfg.out)
    return 0


def cmd_scaling(cfg: RunConfig) -> int:
    if cfg.model is not None and cfg.tau is not None:
        raise UsageError("give either --model or --tau, not both")
    if cfg.tau is not None:
        model = critical_pareto_mirrored(cfg.tau) if cfg.critical else ParetoMirrored(cfg.tau)
    elif cfg.model is not None:
        if cfg.critical:
            raise UsageError("--critical applies only with --tau")
        model = parse_model(cfg.model)
    else:
        raise UsageError("--model or --tau is required")
    result = scaling_exponent_experiment(
        model,
        cfg.n_list,
        reps=cfg.reps,
        seed=cfg.seed,
        sources=cfg.sources,
        threads=cfg.threads,
        bootstrap=cfg.bootstrap,
    )
    text = result.to_json() + "\n" if cfg.as_json else result.to_tsv()
    _emit([text.encode()], cfg.out)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.graph is not None and cfg.suite is not None:
        raise UsageError("give either --suite or --graph, not both")
    if cfg.graph is not None:
        if cfg.model is None:
            raise UsageError("--graph mode needs --model to compare against")
        # the degrees, read as stats reads them, without the graph
        n, _, _, rows = _read_input(cfg, _read_degrees)
        fit = _degree_fit(DegreeArrays(*rows), n, _model(cfg), kmax=cfg.kmax, threshold=cfg.threshold)
        checks = [_degree_fit_check(fit, cfg.graph)]
        label = "file"
    else:
        label = cfg.suite or "quick"
        checks = run_suite(label, cfg.seed)
    all_pass = all(c.passed for c in checks)
    payload = {
        "suite": label,
        "checks": [c.to_dict() for c in checks],
        "all_pass": all_pass,
    }
    _print_json(payload, cfg.out)
    return 0 if all_pass else 1


# -- argument parsing ---------------------------------------------------------


def _n_list(text: str) -> tuple[int, ...]:
    values = tuple(int(part) for part in text.split(",") if part.strip())
    if not values:
        raise ValueError("empty size list")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poisson-digraph",
        description="Sample and analyse conditionally Poissonian random digraphs.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flag groups shared by subcommands, each flag declared once
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config-file", help="JSON file with RunConfig fields; explicit flags win"
    )
    common.add_argument("--seed", type=int, help=f"base seed (default {_DEFAULTS.seed})")
    common.add_argument("--out", help="output file (default stdout)")
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", help=_MODEL_HELP)
    size = argparse.ArgumentParser(add_help=False)
    size.add_argument("--n", type=int, help="number of vertices; overrides an input file's header")
    edge_list = argparse.ArgumentParser(add_help=False)
    edge_list.add_argument("--in", dest="graph", help="input edge-list file")
    mode = argparse.ArgumentParser(add_help=False)
    mode.add_argument(
        "--mode",
        dest="normalizer_mode",
        choices=[m.value for m in NormalizerMode],
        help=f"normalizer L (default {_DEFAULTS.normalizer_mode}; evolve rejects empirical,"
        " which is not monotone)",
    )
    fit = argparse.ArgumentParser(add_help=False)
    fit.add_argument(
        "--kmax", type=int, help=f"degree truncation of the fit (default {_DEFAULTS.kmax})"
    )
    fit.add_argument(
        "--threshold",
        type=float,
        help=f"TV pass threshold of the fit (default {_DEFAULTS.threshold})",
    )

    p = sub.add_parser(
        "sample", parents=[common, model, size, mode], help="sample a graph, write an edge list"
    )
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser(
        "evolve", parents=[common, model, mode], help="grow a graph one vertex at a time"
    )
    p.add_argument("--from", dest="n_from", type=int, help="starting vertex count")
    p.add_argument("--to", dest="n_to", type=int, help="final vertex count")
    p.set_defaults(handler=cmd_evolve)

    p = sub.add_parser(
        "components", parents=[common, edge_list, size], help="component summary of an edge list"
    )
    p.set_defaults(handler=cmd_components)

    p = sub.add_parser(
        "stats",
        parents=[common, edge_list, size, model, fit],
        help="degree statistics of an edge list, with an optional degree fit to --model",
    )
    p.set_defaults(handler=cmd_stats)

    p = sub.add_parser("survival", parents=[common, model], help="limiting cluster fractions")
    p.add_argument(
        "--config",
        dest="configuration",
        choices=list(CONFIGURATIONS),
        help=f"construction the fractions refer to (default {_DEFAULTS.configuration})",
    )
    p.add_argument(
        "--tol",
        type=float,
        help=f"relative tolerance of the survival roots (default {_DEFAULTS.tol})",
    )
    p.set_defaults(handler=cmd_survival)

    p = sub.add_parser(
        "scaling",
        parents=[common, model],
        help="critical cluster-size scaling of a critically tuned --model or --tau",
    )
    p.add_argument("--tau", type=float, help="capacity tail exponent for a Pareto run")
    p.add_argument(
        "--critical",
        action="store_true",
        default=None,
        help="tune the Pareto scale to criticality (with --tau)",
    )
    p.add_argument("--n-list", dest="n_list", type=_n_list, help="comma-separated sizes")
    p.add_argument("--reps", type=int, help=f"replicates per size (default {_DEFAULTS.reps})")
    p.add_argument(
        "--sources", type=int, help=f"forward-cluster roots (default {_DEFAULTS.sources})"
    )
    p.add_argument(
        "--bootstrap", type=int, help=f"bootstrap resamples (default {_DEFAULTS.bootstrap})"
    )
    p.add_argument(
        "--threads",
        type=int,
        help="run replicates in up to this many worker processes, capped at the usable"
        f" CPUs; the output does not change (default {_DEFAULTS.threads})",
    )
    p.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        default=None,
        help="emit JSON instead of TSV",
    )
    p.set_defaults(handler=cmd_scaling)

    p = sub.add_parser(
        "verify",
        parents=[common, size, model, fit],
        help="run proposition checks, or check --graph against --model",
    )
    p.add_argument("--suite", choices=list(SUITES), help="check suite (default quick)")
    p.add_argument("--graph", help="check an existing edge-list file instead")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(_merge_config(args))
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IOFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
