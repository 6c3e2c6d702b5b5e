"""Command-line front end.

    varcalc subdiff FILE --fn PATH --at NAME [--oracle]
    varcalc normalcone FILE --set lower|upper --at NAME [--oracle]
    varcalc valuefn FILE [--x-range LO HI STEP] [--csv PATH]
    varcalc certify FILE --at NAME --theorem t61|t74|t83
                    [--kappa X | --kappa-sweep] [--override-isc]
                    [--override-calmness]
    varcalc verify [FILE | --builtin-corpus] [--dirs N]
    varcalc extremal --builtin halfplanes|boundary|nonextremal

--fn takes a path of ProblemFile.functions (lower.objective,
lower.constraint.<i>, upper.objective, upper.constraint.<j>); verify FILE
checks every one of them at every candidate, with the file's [params]
but its own seed (--seed, default 0) and --dirs.  The checks and the
built-in systems live in varcalc.corpus; _report alone serializes.

Exit codes: 0 ok, 1 a verify property check failed, 2 input error
(including a non-finite function value), 3 computation refusal
(qualification, LP breakdown, a search whose branch combinations exceed
the cap subdiff.MAX_BRANCH_COMBOS, no realizable branch pattern yielding a
subgradient set), 4 no
certificate, 5 hypothesis failure.  Every library error a command raises
ends in 2 or 3 through the one table ERROR_EXITS in main, with an
"error: " line on stderr; a report holding a non-finite number, which
JSON cannot carry, ends in 2 the same way.  JSON reports (--json) are
byte identical for identical inputs and seed; timing appears only in the
human-readable output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import replace

import numpy as np

from varcalc import bilevel as bl
from varcalc import corpus as cp
from varcalc import expr as ex
from varcalc import subdiff as sd
from varcalc import valuefn as vf
from varcalc.convgeom import ConeSpec, GeometryError, Polytope, PolytopeUnion, hausdorff_distance
from varcalc.problemfile import ProblemFile, ProblemFileError, parse_problem_file

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_REFUSED = 3
EXIT_NO_CERTIFICATE = 4
EXIT_HYPOTHESIS = 5

SCHEMA_VERSION = 1


class CliError(Exception):
    """An input error found by a command itself; it exits EXIT_INPUT."""


# ---------------------------------------------------------------------------
# serialization helpers


def _ser(obj):
    if isinstance(obj, Polytope):
        return {"vertices": obj.vertices.tolist()}
    if isinstance(obj, PolytopeUnion):
        return {"parts": [p.vertices.tolist() for p in obj.parts]}
    if isinstance(obj, ConeSpec):
        # a line is a generator pair +/-g, so schema 1's second cone key is always []
        return {"generators": obj.generators.tolist(), "lineality": []}
    if isinstance(obj, sd.SlicedCone):
        return {"base": _ser(obj.base), "recession": _ser(obj.recession)}
    if isinstance(obj, cp.CheckResult):
        return _ser(vars(obj))
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _ser(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_ser(v) for v in obj]
    return obj


def _report(command: str, digest: str, seed: int, results, ledger=None, caveat=None):
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": {"file_digest": digest, "seed": seed},
        "results": _ser(results),
        "hypothesis_ledger": _ser(ledger or []),
        "warnings": [],
    }
    if caveat:
        report["caveat"] = caveat
    return report


def _serialize(report: dict) -> str:
    try:
        return json.dumps(report, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError:
        raise CliError("the report holds a non-finite number") from None


def _emit(report: dict, text: str, as_json: bool, elapsed: float) -> None:
    if as_json:
        sys.stdout.write(text + "\n")
        return
    print(f"# varcalc {report['command']}  ({elapsed:.2f}s)")
    print(f"input digest: {report['inputs']['file_digest']}")
    print(json.dumps(report["results"], sort_keys=True, indent=2))
    if report["hypothesis_ledger"]:
        print("hypotheses:")
        for entry in report["hypothesis_ledger"]:
            print(f"  [{entry['status']:>10}] {entry['hypothesis']}")
    if "caveat" in report:
        print(f"note: {report['caveat']}")


def _load(path: str) -> ProblemFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise CliError(f"cannot read {path}: {err}") from None
    try:
        return parse_problem_file(text)
    except (ProblemFileError, ex.ExprError) as err:
        raise CliError(f"bad problem file: {err}") from None


def _params(pf: ProblemFile, args) -> sd.SampleParams:
    params = pf.sample_params
    if args.seed is not None:
        params = replace(params, seed=args.seed)
    return params


# ---------------------------------------------------------------------------
# subcommands


def cmd_subdiff(args) -> tuple[dict, int]:
    pf = _load(args.file)
    params = _params(pf, args)
    fn = pf.resolve_function(args.fn)
    point = pf.point_for(fn, pf.candidate(args.at))
    result = sd.full_subdifferential(fn, point, params)
    results = {
        "function": args.fn,
        "at": {"name": args.at, "point": point},
        "regular": result.regular,
        "basic": result.basic,
        "singular": result.singular,
        "method": result.method,
        "pattern_census": result.witnesses["pattern_census"],
    }
    if args.oracle:
        cloud = sd.sampled_subdiff_oracle(fn, point, params)
        results["oracle"] = {
            "cluster_centers": cloud.cluster_centers,
            "accepted_points": int(cloud.points.shape[0]),
            "hausdorff_vs_basic": hausdorff_distance(result.basic, cloud.as_singletons()),
        }
    return _report("subdiff", pf.digest, params.seed, results), EXIT_OK


def cmd_normalcone(args) -> tuple[dict, int]:
    pf = _load(args.file)
    params = _params(pf, args)
    cand = pf.candidate(args.at)
    if args.set == "lower":
        if not pf.lower_constraints:
            raise CliError("file has no lower constraints")
        spec = sd.SetSpec.graph(list(pf.lower_constraints), pf.x_dim, pf.y_dim)
        point = cand
    else:
        if not pf.upper_constraints:
            raise CliError("file has no upper constraints")
        spec = sd.SetSpec.sublevel(list(pf.upper_constraints))
        point = cand[: pf.x_dim]
    try:
        cone = sd.normal_cone(spec, point, params)
    except sd.QualificationError as err:
        report = _report(
            "normalcone",
            pf.digest,
            params.seed,
            {"refused": str(err), "witness": err.witness},
        )
        return report, EXIT_REFUSED
    results = {
        "set": args.set,
        "at": {"name": args.at, "point": point},
        "parts": cone.parts,
        "qualification": cone.qualification,
        "active_constraints": list(cone.active),
    }
    if args.oracle:
        cloud = sd.sampled_normal_cone_oracle(spec, point, params)
        results["oracle"] = {
            "cluster_centers": cloud.cluster_centers,
            "accepted_points": int(cloud.points.shape[0]),
        }
    return _report("normalcone", pf.digest, params.seed, results), EXIT_OK


def cmd_valuefn(args) -> tuple[dict, int]:
    pf = _load(args.file)
    params = _params(pf, args)
    if pf.lower_objective is None:
        raise CliError("valuefn needs a [lower] section")
    if pf.grid is None:
        raise CliError("valuefn needs a [grid] section")
    prob = vf.ParametricProblem(
        pf.lower_objective, pf.lower_constraints, pf.x_dim, pf.y_dim
    )
    if args.x_range is not None:
        if pf.x_dim != 1:
            raise CliError("--x-range needs a single upper variable")
        lo, hi, step = args.x_range
        if not all(np.isfinite(args.x_range)):
            raise CliError("--x-range values must be finite")
        if step <= 0 or lo > hi:
            raise CliError("--x-range needs STEP > 0 and LO <= HI")
        span = (hi - lo) / step
        if span > vf.MAX_GRID_POINTS or int(round(span)) + 1 > vf.MAX_GRID_POINTS:
            raise CliError(f"--x-range has more than {vf.MAX_GRID_POINTS} points")
        count = int(round(span)) + 1
        xs = [np.array([lo + i * step]) for i in range(count)]
    else:
        xs = [c[: pf.x_dim] for c in pf.candidates.values()]
        if not xs:
            raise CliError("no candidates and no --x-range given")
    samples = vf.evaluate_values(prob, np.array(xs), pf.grid)
    rows = []
    for x, sample in zip(xs, samples):
        if isinstance(sample, vf.InfeasibleOnBox):
            raise sample
        # x stays a list of floats: the CSV writer reprs its entries
        rows.append({"x": x.tolist(), "theta": sample.theta, "argmins": sample.argmins[:16]})
    results = {"samples": rows}
    probes = {}
    for name, cand in pf.candidates.items():
        try:
            report = vf.inner_semicontinuity_probe(prob, cand, pf.grid, params)
        except vf.ValueFnError:
            continue
        probes[name] = {
            "verdict": report.verdict,
            "worst_distance": report.worst_distance,
            "threshold": report.threshold,
        }
    results["isc_probes"] = probes
    report = _report("valuefn", pf.digest, params.seed, results)
    if args.csv:
        report["results"]["csv"] = args.csv
        _serialize(report)  # a report that cannot be printed leaves no file
        header = ",".join(f"x_{i}" for i in range(pf.x_dim)) + ",theta"
        lines = [header]
        for row in rows:
            lines.append(",".join(repr(v) for v in row["x"]) + "," + repr(row["theta"]))
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return report, EXIT_OK


def _certificate_results(out) -> dict:
    if isinstance(out, bl.StationarityCertificate):
        return {
            "outcome": "certificate",
            "theorem": out.theorem_id,
            "multipliers": out.multipliers,
            "u": out.u,
            "kappa": out.kappa,
            "branch_choices": out.branch_choices,
            "residuals": out.residuals,
        }
    return {
        "outcome": "no-certificate",
        "theorem": out.theorem_id,
        "tightest_infeasibility_margin": out.margin,
    }


def cmd_certify(args) -> tuple[dict, int]:
    pf = _load(args.file)
    params = _params(pf, args)
    cand = pf.candidate(args.at)
    try:
        if args.theorem == "t61":
            out = bl.check_lipschitz_kkt(pf.single_level_program(), cand, params)
        else:
            if pf.grid is None:
                raise CliError("certify needs a [grid] section")
            bp = pf.bilevel_problem()
            certifier = bl.certify_T74 if args.theorem == "t74" else bl.certify_T83
            kwargs = {"override_calmness": args.override_calmness}
            if args.theorem == "t74":
                kwargs["override_isc"] = args.override_isc
            if args.kappa_sweep:
                out = bl.certify_with_kappa_sweep(certifier, bp, cand, pf.kappa_grid, pf.grid, params, **kwargs)
            else:
                kappa = args.kappa if args.kappa is not None else pf.kappa_grid[0]
                out = certifier(bp, cand, kappa, pf.grid, params, **kwargs)
    except bl.HypothesisFailure as err:
        report = _report(
            "certify",
            pf.digest,
            params.seed,
            {"outcome": "hypothesis-failure", "reason": str(err)},
            ledger=err.ledger,
            caveat=bl.CAVEAT,
        )
        return report, EXIT_HYPOTHESIS
    code = EXIT_OK if isinstance(out, bl.StationarityCertificate) else EXIT_NO_CERTIFICATE
    report = _report(
        "certify", pf.digest, params.seed, _certificate_results(out), ledger=out.ledger, caveat=out.caveat
    )
    return report, code


def cmd_verify(args) -> tuple[dict, int]:
    # the seed is verify's own, never the file's: --seed, else 0
    seed = args.seed if args.seed is not None else 0
    if args.builtin_corpus:
        digest_src = "\n".join(f"{e.name} {e.text}" for e in cp.CORPUS)
        digest = "sha256:" + hashlib.sha256(digest_src.encode()).hexdigest()
        params = replace(sd.DEFAULT_PARAMS, seed=seed, dirs_per_radius=args.dirs)
        report = cp.run_verify_suite(cp.CORPUS, params=params)
    else:
        if not args.file:
            raise CliError("verify needs a file or --builtin-corpus")
        pf = _load(args.file)
        if not pf.candidates:
            raise CliError("verify needs a [candidates] section with at least one candidate")
        digest = pf.digest
        params = replace(pf.sample_params, seed=seed, dirs_per_radius=args.dirs)
        report = cp.verify_problem_file(pf, params)
    results = {
        "checks": report.checks,
        "passed": sum(1 for c in report.checks if c.passed),
        "failed": report.failing(),
    }
    code = EXIT_OK if report.all_passed else EXIT_CHECK_FAILED
    return _report("verify", digest, seed, results), code


EXTREMAL_BUILTINS = cp.EXTREMAL_BUILTINS


def cmd_extremal(args) -> tuple[dict, int]:
    # only echoed into the report, but checked as every command checks it
    seed = replace(sd.DEFAULT_PARAMS, seed=args.seed or 0).seed
    digest = "sha256:" + hashlib.sha256(f"builtin-extremal:{args.builtin}".encode()).hexdigest()
    try:
        trace = sd.extremal_principle_solve(*cp.extremal_builtin(args.builtin))
    except sd.ExtremalityNotWitnessed as err:
        results = {"outcome": "not-witnessed", "diagnostic": str(err), "at_k": err.k}
        return _report("extremal", digest, seed, results), EXIT_OK
    results = {
        "outcome": "trace",
        "ks": trace.ks,
        "euler_residuals": trace.euler_residuals,
        "stationarity_residuals": trace.stationarity_residuals,
        "normalization_errors": trace.normalization_errors,
        "final_normals": trace.normals[-1],
    }
    return _report("extremal", digest, seed, results), EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varcalc",
        description="subdifferential calculator and bilevel stationarity certifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_file=True):
        if needs_file:
            p.add_argument("file", help="problem file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--seed", type=int, default=None, help="sampling seed override")

    p = sub.add_parser("subdiff", help="subdifferentials of a named function")
    common(p)
    p.add_argument("--fn", required=True, help="function path, e.g. lower.objective")
    p.add_argument("--at", required=True, help="candidate point name")
    p.add_argument("--oracle", action="store_true", help="add the sampled cross-check")

    p = sub.add_parser("normalcone", help="normal cone of a constraint system")
    common(p)
    p.add_argument("--set", choices=("lower", "upper"), required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--oracle", action="store_true")

    p = sub.add_parser("valuefn", help="value function samples and probes")
    common(p)
    p.add_argument("--x-range", nargs=3, type=float, metavar=("LO", "HI", "STEP"))
    p.add_argument("--csv", help="write (x, theta) rows to this path")

    p = sub.add_parser("certify", help="stationarity certificates")
    common(p)
    p.add_argument("--at", required=True)
    p.add_argument("--theorem", choices=("t61", "t74", "t83"), required=True)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--kappa-sweep", action="store_true")
    p.add_argument("--override-isc", action="store_true")
    p.add_argument("--override-calmness", action="store_true")

    p = sub.add_parser("verify", help="run the property suite")
    common(p, needs_file=False)
    p.add_argument("file", nargs="?", default=None, help="problem file")
    p.add_argument("--builtin-corpus", action="store_true")
    p.add_argument("--dirs", type=int, default=64, help="sampling directions per radius")

    p = sub.add_parser("extremal", help="extremal-principle traces")
    common(p, needs_file=False)
    p.add_argument("--builtin", choices=EXTREMAL_BUILTINS, required=True)

    return parser


HANDLERS = {
    "subdiff": cmd_subdiff,
    "normalcone": cmd_normalcone,
    "valuefn": cmd_valuefn,
    "certify": cmd_certify,
    "verify": cmd_verify,
    "extremal": cmd_extremal,
}


# Which error ends a command in which exit code, and its stderr prefix: the
# first row that matches wins.  Refusals come first, since
# CombinatorialOverflow is also a SubdiffError.
ERROR_EXITS = (
    ((sd.CombinatorialOverflow, sd.EmptyBasicSubdifferential, GeometryError), EXIT_REFUSED, "refused: "),
    (
        (CliError, ProblemFileError, ex.ExprError, sd.SubdiffError, vf.ValueFnError, bl.BilevelError, OSError),
        EXIT_INPUT,
        "",
    ),
)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        report, code = HANDLERS[args.command](args)
        text = _serialize(report)
    except Exception as err:
        for types, code, prefix in ERROR_EXITS:
            if isinstance(err, types):
                print(f"error: {prefix}{err}", file=sys.stderr)
                return code
        raise
    _emit(report, text, args.json, time.monotonic() - start)
    return code


if __name__ == "__main__":
    sys.exit(main())
