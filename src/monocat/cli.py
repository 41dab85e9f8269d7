"""Command-line front end: load fixtures, run checks, emit reports.

Exit codes: 0 all checks passed, 1 at least one check failed, 2
unreadable/malformed input or usage error.  An object expression that
does not parse or names no simple object is malformed input (2); a
fusion fixture that fails ``validate``, a divisibility failure, a zero
object and broken End-reciprocity are failed checks of the fusion
ring's own data (1).  JSON reports carry a
top-level ``"schema": 1`` and are emitted with sorted keys so identical
inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from json.encoder import encode_basestring
from typing import List, Optional

from .fixtures import (FixtureError, WattsFixture, bundled_fixture_files,
                       fixtures_dir, load_fixture_file, resolve_fixture)
from .fusion import (DivisibilityError, ExprError, FusionData,
                     InternalMismatch, ObjectExpr, UnknownSimple, ZeroObject,
                     check_embedding_homomorphism, check_theorem4,
                     embed_object, parse_object)
from .watts import (CheckResult, CoherenceReport, GradedTensor, WattsContext,
                    WattsError, check_monoidal_axioms, check_rigidity,
                    check_T_coherence, is_three_cocycle, merge_reports,
                    verify_embedding, verify_monoidal_functor)

SCHEMA = 1
CHECK_GROUPS = ("axioms", "T", "functor", "embedding", "rigidity")


def _dumps(value) -> str:
    """json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False),
    byte for byte.  With ``indent`` json runs its pure-Python encoder;
    this walks the containers directly and quotes strings with json's C
    ``encode_basestring``.  Any other value is left to json.dumps: a
    scalar to its C encoder, an empty container or a dict with a key that
    is not a string to the indenting one, re-indented to its depth."""
    out: List[str] = []
    _indent_into(value, "\n", out)
    return "".join(out)


_CONSTANTS = {True: "true", False: "false", None: "null"}


def _indent_into(value, pad: str, out: List[str]) -> None:
    if isinstance(value, str):
        out.append(encode_basestring(value))
    elif value is True or value is False or value is None:
        out.append(_CONSTANTS[value])
    elif isinstance(value, (list, tuple)) and value:
        inner = pad + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _indent_into(item, inner, out)
            sep = "," + inner
        out.append(pad + "]")
    elif (isinstance(value, dict) and value
          and all(isinstance(key, str) for key in value)):
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep + encode_basestring(key) + ": ")
            _indent_into(value[key], inner, out)
            sep = "," + inner
        out.append(pad + "}")
    elif isinstance(value, (dict, list, tuple)):
        out.append(json.dumps(value, sort_keys=True, indent=2,
                              ensure_ascii=False).replace("\n", pad))
    else:
        out.append(json.dumps(value))


def _emit(payload: dict, text: str, fmt: str) -> None:
    if fmt == "json":
        print(_dumps({"schema": SCHEMA, **payload}))
    else:
        print(text)


class InvalidFixture(Exception):
    """A fusion fixture that fails its own ``validate`` checks."""


def _need_fusion(fx, ref: str) -> FusionData:
    """``fx`` once it is a fusion fixture that passes ``validate``."""
    if not isinstance(fx, FusionData):
        raise FixtureError(f"{ref!r} is not a fusion fixture")
    failed = dict.fromkeys(f["check"] for f in fx.validate().failures)
    if failed:
        raise InvalidFixture(f"{ref!r} fails validate: {', '.join(failed)}")
    return fx


def _need_watts(fx, ref: str) -> WattsFixture:
    if not isinstance(fx, WattsFixture):
        raise FixtureError(f"{ref!r} is not a watts fixture")
    return fx


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    fx = resolve_fixture(args.fixture)
    if isinstance(fx, FusionData):
        rep = fx.validate()
        lines = [f"fusion fixture {fx.name}:"]
        for f in rep.failures:
            lines.append(f"  FAIL {f['check']}  witness: {f.get('witness')}")
        lines.append("  valid" if rep.ok else
                     f"  INVALID ({len(rep.failures)} failures)")
        _emit({"command": "validate", "fixture": args.fixture,
               "report": rep.to_json()}, "\n".join(lines), args.format)
        return 0 if rep.ok else 1
    # watts fixtures: structural validity (the loader already verified the
    # algebra axioms, module equivariance, and sequence exactness)
    checks = [CheckResult("algebra-axioms", True),
              CheckResult("modules-well-formed", True),
              CheckResult("sequences-exact", True)]
    if isinstance(fx.ct, GradedTensor):
        checks.append(CheckResult(
            "cocycle-condition", is_three_cocycle(fx.ct.cocycle),
            {"cocycle": sorted([a, b, c, s] for (a, b, c), s
                               in fx.ct.cocycle.items())}))
    rep = CoherenceReport(f"validate: {fx.name}",
                          tuple(m.name for m in fx.sample), tuple(checks))
    _emit({"command": "validate", "fixture": args.fixture,
           "report": rep.to_json()}, rep.to_text(), args.format)
    return 0 if rep.ok else 1


# ---------------------------------------------------------------------------
# embed


def _matrix_text(fd: FusionData, mat: List[List[int]]) -> str:
    width = max([len(s) for s in fd.simples]
                + [len(str(v)) for row in mat for v in row])
    head = " " * (width + 2) + "  ".join(s.rjust(width) for s in fd.simples)
    lines = [head]
    for label, row in zip(fd.simples, mat):
        lines.append(label.rjust(width) + "  "
                     + "  ".join(str(v).rjust(width) for v in row))
    return "\n".join(lines)


def cmd_embed(args) -> int:
    fd = _need_fusion(resolve_fixture(args.fixture), args.fixture)
    X = parse_object(fd, args.object)
    V = embed_object(fd, X)
    mat = V.to_lists()
    payload = {"command": "embed", "fixture": args.fixture,
               "object": args.object, "simples": list(fd.simples),
               "matrix": mat,
               "endo_dim": {s: fd.r(s) for s in fd.simples}}
    _emit(payload, _matrix_text(fd, mat), args.format)
    return 0


# ---------------------------------------------------------------------------
# bound


def cmd_bound(args) -> int:
    fd = _need_fusion(resolve_fixture(args.fixture), args.fixture)
    X = parse_object(fd, args.object)
    rep = check_theorem4(fd, X, args.n_max)
    lines = [f"{fd.name}: object {args.object}, growth bound d = {rep['d']}"
             f" (base {rep['base']})",
             f"{'n':>3}  {'dim End':>10}  {'bound':>14}  ok"]
    for row in rep["rows"]:
        lines.append(f"{row['n']:>3}  {row['dim_end']:>10}  "
                     f"{row['bound']:>14}  {'ok' if row['ok'] else 'FAIL'}")
    lines.append("bound respected" if rep["ok"] else "BOUND VIOLATED")
    _emit({"command": "bound", "fixture": args.fixture,
           "object": args.object, "n_max": args.n_max, "report": rep},
          "\n".join(lines), args.format)
    return 0 if rep["ok"] else 1


# ---------------------------------------------------------------------------
# watts


def _watts_reports(fx: WattsFixture, groups) -> List[CoherenceReport]:
    """The reports of the check groups on one fixture; when a construction
    itself breaks down, the reports of the groups that already ran and one
    failed ``pipeline-construction`` check after them, not a usage error.
    Every stage works on the cell table of the fixture's tensor."""
    reports: List[CoherenceReport] = []
    try:
        if isinstance(fx.ct, GradedTensor) and "axioms" in groups:
            reports.append(CoherenceReport(
                f"cocycle: {fx.ct.name}", (),
                (CheckResult("cocycle-condition",
                             is_three_cocycle(fx.ct.cocycle)),)))
        if "axioms" in groups:
            reports.append(check_monoidal_axioms(fx.ct, fx.sample))
        wc: Optional[WattsContext] = None
        if groups & {"T", "functor", "embedding"}:
            wc = WattsContext(fx.ct)
        if "T" in groups:
            reports.append(check_T_coherence(wc))
        if "functor" in groups:
            reports.append(verify_monoidal_functor(wc, fx.sample))
        if "embedding" in groups:
            reports.append(verify_embedding(wc, fx.sample, fx.sequences))
        if "rigidity" in groups:
            for r in fx.rigidity:
                reports.append(
                    check_rigidity(fx.ct, r.obj, r.dual, r.ev, r.db))
    except WattsError as exc:
        reports.append(CoherenceReport(
            f"watts: {fx.name}", (),
            (CheckResult("pipeline-construction", False,
                         {"error": type(exc).__name__, "detail": str(exc)}),)))
    return reports


def _parse_checks(raw: str) -> set:
    if raw == "all":
        return set(CHECK_GROUPS)
    groups = {g.strip() for g in raw.split(",") if g.strip()}
    bad = groups - set(CHECK_GROUPS)
    if bad or not groups:
        what = (f"unknown check group(s) {sorted(bad)}" if bad
                else f"no check group in {raw!r}")
        raise FixtureError(
            f"{what}; choose from {', '.join(('all',) + CHECK_GROUPS)}")
    return groups


def cmd_watts(args) -> int:
    fx = _need_watts(resolve_fixture(args.fixture), args.fixture)
    groups = _parse_checks(args.checks)
    merged = merge_reports(f"watts: {fx.name}", _watts_reports(fx, groups))
    payload = {"command": "watts", "fixture": args.fixture,
               "checks": sorted(groups), "seed": args.seed,
               "report": merged.to_json()}
    _emit(payload, merged.to_text(), args.format)
    return 0 if merged.ok else 1


# ---------------------------------------------------------------------------
# report


def _fusion_report(fd: FusionData, rng: random.Random,
                   pairs: int) -> CoherenceReport:
    checks = []
    rep = fd.validate()
    checks.append(CheckResult("validate", rep.ok,
                              {"failures": [dict(f) for f in rep.failures]}
                              if not rep.ok else None))
    if rep.ok:
        for i in range(pairs):
            X = ObjectExpr({s: rng.randint(0, 2) for s in fd.simples})
            Y = ObjectExpr({s: rng.randint(0, 2) for s in fd.simples})
            hom = check_embedding_homomorphism(fd, X, Y)
            checks.append(CheckResult(
                f"embed-homomorphism[{i}]", hom["ok"],
                None if hom["ok"] else hom))
    return CoherenceReport(f"fusion: {fd.name}", tuple(fd.simples),
                           tuple(checks))


def cmd_report(args) -> int:
    files = bundled_fixture_files()
    if not files:
        raise FixtureError(f"no fixture files in {fixtures_dir()}")
    # one cell table for every watts fixture, made before they load: a
    # cokernel is fixed by the content of its factors, and everything ⊙
    # builds by its rule on objects and morphisms, so fixtures on one
    # algebra and one rule, whatever their associators, share that work
    cells: dict = {}
    fixtures = {name: load_fixture_file(path, cells)
                for name, path in sorted(files.items())}
    rng = random.Random(args.seed)
    sections = {}
    texts = []  # built only for the text output, which prints them
    for name, fx in fixtures.items():
        if isinstance(fx, FusionData):
            rep = _fusion_report(fx, rng, args.n_max)
        else:
            rep = merge_reports(f"watts: {fx.name}",
                                _watts_reports(fx, set(CHECK_GROUPS)))
        sections[name] = rep.to_json()
        if args.format == "text":
            texts.append(rep.to_text())
    ok = all(sec["ok"] for sec in sections.values())
    texts.append(f"overall: {'all fixtures passed' if ok else 'FAILURES'}")
    payload = {"command": "report", "seed": args.seed, "n_max": args.n_max,
               "ok": ok, "fixtures": sections}
    _emit(payload, "\n\n".join(texts), args.format)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monocat",
        description="exact verification of tensor structures on module "
                    "categories and fusion-ring embeddings")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument("--n-max", type=_positive_int, default=5,
                        help="iteration depth / sample count where relevant")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized sampling (echoed in reports)")
    # the common flags are also accepted after the subcommand; SUPPRESS
    # keeps the subparser from clobbering top-level values with defaults
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"),
                        default=argparse.SUPPRESS)
    common.add_argument("--n-max", type=_positive_int,
                        default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check fixture invariants",
                       parents=[common])
    p.add_argument("fixture")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("embed", help="embedding matrix of an object",
                       parents=[common])
    p.add_argument("fixture")
    p.add_argument("object", help="object expression, e.g. '(1+tau)*tau^2'")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("bound", help="endomorphism growth against d^(2n)",
                       parents=[common])
    p.add_argument("fixture")
    p.add_argument("object")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("watts", help="run the tensor-structure pipeline",
                       parents=[common])
    p.add_argument("fixture")
    p.add_argument("--checks", default="all",
                   help="comma list of " + ",".join(CHECK_GROUPS)
                        + " (default: all)")
    p.set_defaults(func=cmd_watts)

    p = sub.add_parser("report", help="full report over bundled fixtures",
                       parents=[common])
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FixtureError, UnknownSimple, ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidFixture, ZeroObject, DivisibilityError, InternalMismatch,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
