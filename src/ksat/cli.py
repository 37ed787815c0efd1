"""Command-line interface: one binary, one subcommand per operation,
JSON results on stdout or --out, JSON error objects on stderr.

Exit codes: 0 success, 1 domain error (infeasible pinning, cap exceeded,
unsatisfiable, regime violation), 2 usage error (bad flags, malformed
files, broken preconditions).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import cache

from . import __version__
from .classify import classify, default_delta, good_induced_formula
from .coupling import coupling_influence_bound, default_k_c, exact_influence_matrix
from .errors import DomainError, UsageError
from .formula import (
    DEFAULT_ENUM_CAP,
    Formula,
    emit_dimacs,
    generate_random_kcnf,
    is_satisfying,
    parse_dimacs,
)
from .geometry import check_flippable_all, looseness_report, solution_graph
from .marginals import DEFAULT_CAP
from .marking import default_quotas, find_marking
from .paths import find_path_bounded, find_path_random, validate_path
from .sampler import SamplerConfig, default_t_max, run_block_dynamics


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


def dispatch(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "func", None) is None:
            raise UsageError("no command given; see ksat --help")
        args.func(args)
        return 0
    except SystemExit as exc:  # --help and --version
        return 0 if exc.code in (0, None) else 2
    except UsageError as exc:
        _emit_error("usage", exc)
        return 2
    except DomainError as exc:
        _emit_error(type(exc).__name__, exc)
        return 1


def _emit_error(kind, exc) -> None:
    json.dump({"error": kind, "message": str(exc)}, sys.stderr)
    sys.stderr.write("\n")


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a UsageError, so that it reaches stderr
    as a JSON error object like every other usage error."""

    def error(self, message):
        raise UsageError(message)


def _positive_int(text: str) -> int:
    """The type of --cap and --jobs: an int of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


_CAP_HELP = "max assignment evaluations, per enumerated component or for the whole formula"


@cache  # parse_args leaves the parser as it was, so one serves the process
def _build_parser():
    p = _Parser(
        prog="ksat",
        description="Sampling, paths, and looseness for k-CNF solution spaces",
    )
    p.add_argument("--version", action="version", version=f"ksat {__version__}")
    sub = p.add_subparsers(dest="command")

    def add(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--out", help="output path (default: stdout)")
        sp.add_argument(
            "--format", choices=("json", "summary"), default="json",
            help="machine-readable JSON or a key: value summary",
        )
        return sp

    sp = add("gen", "generate a random k-CNF in DIMACS form")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.set_defaults(func=_cmd_gen)

    sp = add("classify", "bad-variable / bad-clause fixed point")
    _common_formula_flags(sp)
    sp.set_defaults(func=_cmd_classify)

    sp = add("mark", "find a certified marking")
    _common_formula_flags(sp)
    sp.add_argument("--km", type=int, help="marked-per-clause quota")
    sp.add_argument("--ku", type=int, help="unmarked-per-clause quota")
    sp.add_argument("--pmark", type=float, help="marking probability")
    sp.add_argument("--max-resamples", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--good", action="store_true",
        help="mark the induced good CNF instead of the raw formula",
    )
    sp.set_defaults(func=_cmd_mark)

    sp = add("sample", "draw solutions with the block dynamics")
    _common_formula_flags(sp)
    sp.add_argument("--theta", type=float, default=0.3)
    sp.add_argument("--tmax", type=int, help="steps (default from theta and n)")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--runs", type=int, default=1)
    sp.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP, help=_CAP_HELP)
    sp.set_defaults(func=_cmd_sample)

    sp = add("path", "build a solution path between two assignments")
    _common_formula_flags(sp)
    sp.add_argument("--mode", choices=("bounded", "random"), default="bounded")
    sp.add_argument("--sigma", required=True, help="assignment file (bitstring)")
    sp.add_argument("--sigma2", required=True, help="assignment file (bitstring)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP, help=_CAP_HELP)
    sp.set_defaults(func=_cmd_path)

    sp = add("loose", "per-variable flip distances from an assignment")
    _common_formula_flags(sp)
    sp.add_argument("--sigma", required=True, help="assignment file (bitstring)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP, help=_CAP_HELP)
    sp.set_defaults(func=_cmd_loose)

    sp = add("solgraph", "component structure of the Hamming solution graph")
    sp.add_argument("--dimacs", required=True)
    sp.add_argument("--D", type=int, required=True, dest="d")
    sp.add_argument("--cap", type=_positive_int, default=DEFAULT_ENUM_CAP, help=_CAP_HELP)
    sp.set_defaults(func=_cmd_solgraph)

    sp = add("influence", "exact influence matrix plus coupling estimates")
    _common_formula_flags(sp)
    sp.add_argument("--pin", help="JSON file mapping variable to 0/1")
    sp.add_argument("--v0", type=int, required=True)
    sp.add_argument("--kc", type=int, help="reveal cutoff (default from k_u, zeta)")
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP, help=_CAP_HELP)
    sp.set_defaults(func=_cmd_influence)

    sp = add("flippable", "NAE witness or the list of frozen variables")
    sp.add_argument("--dimacs", required=True)
    sp.add_argument("--cap", type=_positive_int, default=DEFAULT_ENUM_CAP, help=_CAP_HELP)
    sp.set_defaults(func=_cmd_flippable)

    sp = add("verify", "check an assignment against a formula")
    sp.add_argument("--dimacs", required=True)
    sp.add_argument("--assignment", required=True)
    sp.set_defaults(func=_cmd_verify)

    sp = add("pipeline", "gen/classify/mark/sample/path/loose over a sweep")
    sp.add_argument("--spec", required=True, help="JSON run specification")
    sp.add_argument("--jobs", type=_positive_int, default=1)
    sp.set_defaults(func=_cmd_pipeline)

    return p


def _common_formula_flags(sp) -> None:
    sp.add_argument("--dimacs", required=True)
    sp.add_argument("--k", type=int, help="nominal width (default: widest clause)")
    sp.add_argument("--zeta", type=float, default=0.3)
    sp.add_argument("--delta", type=int, help="degree threshold (default k^4*alpha)")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path} is not ASCII text: {exc}") from exc


def _load_formula(args) -> Formula:
    return parse_dimacs(_read(args.dimacs))


def _load_assignment(path: str, n: int) -> tuple:
    text = _read(path).strip()
    if len(text) != n or set(text) - {"0", "1"}:
        raise UsageError(
            f"{path} must hold one line of {n} characters over 0/1"
        )
    return tuple(int(c) for c in text)


def _load_pin(path) -> dict:
    if path is None:
        return {}
    try:
        raw = json.loads(_read(path))
        pin = {int(v): b for v, b in raw.items()}
    except (ValueError, AttributeError) as exc:
        raise UsageError(f"bad pin file {path}: {exc}") from exc
    for v, b in pin.items():
        if not _is_int(b) or b not in (0, 1):
            raise UsageError(f"bad pin file {path}: value for {v} must be 0 or 1, got {b!r}")
    return pin


def _nominal_k(f: Formula, override) -> int:
    if override is not None:
        return override
    if not f.clauses:
        raise UsageError("cannot infer k from an empty formula; pass --k")
    return max(len(c) for c in f.clauses)


def _classification(f: Formula, args):
    k = _nominal_k(f, args.k)
    alpha = f.m / f.n if f.n else 0.0
    delta = args.delta if args.delta is not None else default_delta(k, alpha)
    return classify(f, delta=delta, zeta=args.zeta, k=k), k


def _quotas(k: int, zeta: float, km=None, ku=None) -> tuple:
    """default_quotas(k, zeta), with km and ku overriding it when given."""
    default_km, default_ku = default_quotas(k, zeta)
    return default_km if km is None else km, default_ku if ku is None else ku


def _good_marking(f: Formula, cl, quotas: tuple, seed: int):
    """A marking of the good CNF of f under the (k_m, k_u) quotas."""
    good = good_induced_formula(f, cl, force=True)
    return find_marking(good, *quotas, seed=seed, eligible=cl.v_good)


def _marking_for_sampling(f: Formula, args, seed: int):
    """classify, reduce to the good CNF, and mark it."""
    cl, k = _classification(f, args)
    m = _good_marking(f, cl, _quotas(k, args.zeta), seed)
    if not m.certified:
        raise DomainError("marking search exhausted its resample budget")
    return cl, m


def _draw_samples(f: Formula, m, theta: float, t_max, seed: int, runs: int, cap: int) -> list:
    """runs block-dynamics samples, run i seeded seed + i; t_max None takes
    the default budget for theta."""
    if runs < 1:
        raise UsageError(f"runs must be >= 1, got {runs}")
    if t_max is None:
        t_max = default_t_max(theta, f.n)
    samples = []
    for i in range(runs):
        a, trace = run_block_dynamics(f, m, SamplerConfig(theta, t_max, seed + i, cap))
        samples.append(
            {
                "assignment": "".join(map(str, a)),
                "steps": trace.steps,
                "max_component": trace.max_component,
            }
        )
    return samples


def _write_payload(args, payload) -> None:
    if args.format == "summary" and isinstance(payload, dict):
        text = "\n".join(f"{k}: {_compact(v)}" for k, v in payload.items()) + "\n"
    else:
        text = json.dumps(payload, indent=2) + "\n"
    _write_text(args, text)


def _write_text(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _compact(v):
    if isinstance(v, (list, dict)):
        s = json.dumps(v)
        return s if len(s) <= 120 else s[:117] + "..."
    return v


def _cmd_gen(args) -> None:
    f = generate_random_kcnf(args.n, args.m, args.k, seed=args.seed)
    _write_text(args, emit_dimacs(f))


def _cmd_classify(args) -> None:
    f = _load_formula(args)
    cl, _ = _classification(f, args)
    _write_payload(args, cl.report())


def _cmd_mark(args) -> None:
    f = _load_formula(args)
    k = _nominal_k(f, args.k)
    km, ku = _quotas(k, args.zeta, args.km, args.ku)
    eligible = None
    target = f
    if args.good:
        cl, _ = _classification(f, args)
        target = good_induced_formula(f, cl, force=True)
        eligible = cl.v_good
    m = find_marking(
        target,
        km,
        ku,
        p_mark=args.pmark,
        seed=args.seed,
        max_resamples=args.max_resamples,
        eligible=eligible,
    )
    _write_payload(args, m.to_json())


def _cmd_sample(args) -> None:
    f = _load_formula(args)
    _, m = _marking_for_sampling(f, args, seed=args.seed)
    samples = _draw_samples(f, m, args.theta, args.tmax, args.seed, args.runs, args.cap)
    lines = [
        json.dumps({"schema": "ksat/sample/v1", **sample, "seed": args.seed + i})
        for i, sample in enumerate(samples)
    ]
    _write_text(args, "\n".join(lines) + "\n")


def _cmd_path(args) -> None:
    f = _load_formula(args)
    sigma = _load_assignment(args.sigma, f.n)
    sigma2 = _load_assignment(args.sigma2, f.n)
    if args.mode == "bounded":
        k = _nominal_k(f, args.k)
        km, ku = default_quotas(k, 0.0)
        m = find_marking(f, km, ku, seed=args.seed)
        if not m.certified:
            raise DomainError("marking search exhausted its resample budget")
        path = find_path_bounded(f, m, sigma, sigma2, cap=args.cap)
    else:
        cl, m = _marking_for_sampling(f, args, seed=args.seed)
        path = find_path_random(f, cl, m, sigma, sigma2, seed=args.seed, cap=args.cap)
    report = validate_path(f, path, d_bound=f.n, sigma=sigma, sigma_prime=sigma2)
    payload = path.to_json()
    payload["valid"] = report.ok
    _write_payload(args, payload)


def _cmd_loose(args) -> None:
    f = _load_formula(args)
    sigma = _load_assignment(args.sigma, f.n)
    _, m = _marking_for_sampling(f, args, seed=args.seed)
    rep = looseness_report(f, m, sigma, cap=args.cap)
    _write_payload(args, rep.to_json())


def _cmd_solgraph(args) -> None:
    f = _load_formula(args)
    _write_payload(args, solution_graph(f, args.d, cap=args.cap).to_json())


def _cmd_influence(args) -> None:
    f = _load_formula(args)
    pin = _load_pin(args.pin)
    cl, m = _marking_for_sampling(f, args, seed=args.seed)
    if args.v0 not in m.marked:
        raise UsageError(f"--v0 {args.v0} is not marked; marked = {sorted(m.marked)}")
    inf = exact_influence_matrix(f, m, pin, cap=args.cap)
    payload = inf.to_json()
    if args.kc is not None:
        k_c = args.kc
    else:
        try:
            k_c = default_k_c(m.k_u, args.zeta)
        except UsageError:
            k_c = 1  # the cutoff formula needs zeta < 3/16

    est = coupling_influence_bound(
        f, cl, m, pin, v0=args.v0, k_c=k_c,
        trials=args.trials, seed=args.seed, cap=args.cap,
    )
    payload["coupling"] = {
        "v0": est.v0,
        "trials": est.trials,
        "rates": {str(v): r for v, r in est.rates.items()},
        "total": est.total,
        "total_stderr": est.total_stderr,
        "e_failed_mean": est.e_failed_mean,
    }
    _write_payload(args, payload)


def _cmd_flippable(args) -> None:
    f = _load_formula(args)
    _write_payload(args, check_flippable_all(f, cap=args.cap).to_json())


def _cmd_verify(args) -> None:
    f = _load_formula(args)
    a = _load_assignment(args.assignment, f.n)
    payload = {
        "schema": "ksat/verify/v1",
        "satisfying": is_satisfying(f, a),
    }
    _write_payload(args, payload)
    if not payload["satisfying"]:
        raise DomainError("assignment does not satisfy the formula")


def _is_int(value) -> bool:
    # JSON true/false load as bools, which are ints to Python
    return type(value) is int


def _is_number(value) -> bool:
    return type(value) in (int, float)


# the optional fields of a pipeline spec, in the order they are checked:
# (the stage object holding the field, None for the top level; its key;
# what its value must be; the test of the value)
_SPEC_FIELDS = (
    (None, "seeds", "a list of integers", lambda value: all(map(_is_int, value))),
    *((None, stage, "an object", lambda value: isinstance(value, dict))
      for stage in ("mark", "sample", "path", "loose")),
    (None, "zeta", "a number", _is_number),
    (None, "delta", "an integer", _is_int),
    ("mark", "km", "an integer", _is_int),
    ("mark", "ku", "an integer", _is_int),
    ("sample", "theta", "a number", _is_number),
    ("sample", "tmax", "an integer", _is_int),
    ("sample", "runs", "an integer", _is_int),
    ("path", "mode", "'bounded' or 'random'", lambda value: value in ("bounded", "random")),
)


def _cmd_pipeline(args) -> None:
    try:
        spec = json.loads(_read(args.spec))
    except ValueError as exc:
        raise UsageError(f"bad pipeline spec: {exc}") from exc
    if not isinstance(spec, dict):
        raise UsageError("bad pipeline spec: not a JSON object")
    instances = spec.get("instances")
    seeds = spec.get("seeds", [0])
    if not isinstance(instances, list) or not isinstance(seeds, list):
        raise UsageError("pipeline spec needs 'instances' and 'seeds' lists")
    for stage, key, what, ok in _SPEC_FIELDS:
        fields = spec.get(stage, {}) if stage else spec
        if key in fields and not ok(fields[key]):
            name = f"{stage}.{key}" if stage else key
            raise UsageError(
                f"bad pipeline spec: '{name}' must be {what}, got {json.dumps(fields[key])}"
            )
    cells = [
        (inst, seed)
        for inst in instances
        for seed in seeds
    ]
    # the pool forks all its workers at the first submit, so never more
    # than there are cells or CPUs to run them
    workers = min(args.jobs, len(cells), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(
                pool.map(_pipeline_cell, (json.dumps(spec) for _ in cells), *zip(*cells))
            )
    else:
        records = [_pipeline_cell(json.dumps(spec), inst, seed) for inst, seed in cells]
    _write_payload(args, {"schema": "ksat/pipeline/v1", "records": records})


def _pipeline_cell(spec_json: str, instance, seed: int) -> dict:
    spec = json.loads(spec_json)
    record = {"instance": instance, "seed": seed}
    try:
        for key in ("n", "m", "k", "seed"):
            if not _is_int(instance[key]):
                raise UsageError(f"'{key}' must be an integer, got {json.dumps(instance[key])}")
        f = generate_random_kcnf(
            instance["n"], instance["m"], instance["k"], seed=instance["seed"]
        )
    except (KeyError, TypeError, UsageError) as exc:
        record["error"] = f"bad instance spec: {exc}"
        return record
    args = argparse.Namespace(k=instance["k"], zeta=spec.get("zeta", 0.3), delta=spec.get("delta"))
    try:
        cl, k = _classification(f, args)
        record["classify"] = cl.report()
    except (UsageError, DomainError) as exc:
        record["error"] = str(exc)
        return record

    try:
        mark = spec.get("mark", {})
        m = _good_marking(f, cl, _quotas(k, args.zeta, mark.get("km"), mark.get("ku")), seed)
        record["mark"] = m.to_json()
    except (UsageError, DomainError) as exc:
        record["mark"] = {"error": str(exc)}
        return record
    if not m.certified:
        return record

    if "sample" in spec:
        s = spec["sample"]
        try:
            record["sample"] = _draw_samples(
                f, m, s.get("theta", 0.3), s.get("tmax"), seed, s.get("runs", 1), DEFAULT_CAP
            )
        except (UsageError, DomainError) as exc:
            record["sample"] = {"error": str(exc)}

    if "path" in spec and isinstance(record.get("sample"), list) and len(record["sample"]) >= 2:
        try:
            a = tuple(int(c) for c in record["sample"][0]["assignment"])
            b = tuple(int(c) for c in record["sample"][1]["assignment"])
            if spec["path"].get("mode", "bounded") == "random":
                path = find_path_random(f, cl, m, a, b, seed=seed)
            else:
                path = find_path_bounded(f, m, a, b)
            rep = validate_path(f, path, d_bound=f.n, sigma=a, sigma_prime=b)
            record["path"] = {
                "max_step": path.max_step,
                "length": len(path.entries),
                "valid": rep.ok,
            }
        except (UsageError, DomainError) as exc:
            record["path"] = {"error": str(exc)}

    if "loose" in spec and isinstance(record.get("sample"), list) and record["sample"]:
        try:
            sigma = tuple(int(c) for c in record["sample"][0]["assignment"])
            rep = looseness_report(f, m, sigma)
            record["loose"] = {
                "max_distance": rep.max_distance,
                "n_failures": len(rep.failures),
            }
        except (UsageError, DomainError) as exc:
            record["loose"] = {"error": str(exc)}

    return record


if __name__ == "__main__":
    main()
