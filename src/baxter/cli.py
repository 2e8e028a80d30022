"""Command-line front end.

Subcommands: ``verify`` (single-tensor check), ``enumerate`` (full-space
sweep with optional classifier), ``claim`` (registered verification
suites), ``decompose`` (rank-one normal form), ``bialgebra`` (cobracket /
co-Jacobi detail for one tensor).

Exit codes are a stable contract: 0 = check holds / suite passed,
1 = check false, 2 = input error or out of memory, 3 = claim ran but its
discrepancy ledger is nonempty.  All user-facing basis indices are 1-based.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from . import bialgebra as bialgebra_mod
from .algebra import (
    load_algebra,
    make_dim2,
    make_family_ab,
    make_family_bd,
    make_matrix_algebra,
)
from .claims import CLAIM_IDS, claim_check
from .errors import BaxterError, InputError
from .gf import parse_element, parse_field
from .search import (
    SELECTOR_NAMES,
    SweepSpec,
    selector_predicate,
    sweep,
)
from .tensor import (
    encoding_literal,
    im_one_minus_tau_member,
    parse_tensor2,
)
from .ybe import strong_rank1_decompose

_CHECKS = {
    "cybe": "cybe",
    "qybe": "qybe",
    "strong": "strongly-symmetric",
    "coboundary": "coboundary",
    "triangular": "triangular",
}


def _add_algebra_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--field", help='field literal, e.g. "gf(2)" or "gf(2^2;0b111)"')
    p.add_argument("--family", choices=("ab", "bd"), help="built-in dim-3 family")
    p.add_argument("--alpha", help="ab-family parameter (element literal)")
    p.add_argument("--beta", help="family parameter (element literal)")
    p.add_argument("--delta", help="bd-family parameter (element literal)")
    p.add_argument(
        "--dim2", choices=("abelian", "nonabelian"), help="built-in dim-2 algebra"
    )
    p.add_argument("--matrix", type=int, metavar="N", help="matrix-unit algebra MN(F)")
    p.add_argument("--algebra", metavar="PATH", help="algebra definition file")


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=("json", "csv", "text"), default="text",
        help="output format (default text)",
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: YBE_WORKERS env var, else 1)",
    )


def _resolve_field(args):
    if not args.field:
        raise InputError("--field is required")
    return parse_field(args.field)


def _resolve_algebra(args, required: bool = True):
    """Build the algebra from exactly one of the input sources."""
    sources = [
        s for s, given in (
            ("--family", args.family is not None),
            ("--dim2", args.dim2 is not None),
            ("--matrix", args.matrix is not None),
            ("--algebra", args.algebra is not None),
        ) if given
    ]
    if len(sources) > 1:
        raise InputError(
            f"exactly one algebra source allowed, got {', '.join(sources)}"
        )
    if not sources:
        if required:
            raise InputError(
                "an algebra source is required: --family, --dim2, --matrix,"
                " or --algebra"
            )
        return None
    if args.algebra is not None:
        return load_algebra(args.algebra)
    f = _resolve_field(args)
    if args.family == "ab":
        if args.alpha is None or args.beta is None:
            raise InputError("--family ab needs --alpha and --beta")
        return make_family_ab(
            f, parse_element(f, args.alpha), parse_element(f, args.beta)
        )
    if args.family == "bd":
        if args.beta is None or args.delta is None:
            raise InputError("--family bd needs --beta and --delta")
        return make_family_bd(
            f, parse_element(f, args.beta), parse_element(f, args.delta)
        )
    if args.dim2 is not None:
        return make_dim2(f, args.dim2)
    if args.matrix is not None:
        if args.matrix < 1:
            raise InputError("--matrix needs a positive size")
        return make_matrix_algebra(f, args.matrix)
    raise AssertionError


def _parse_tensor_for(args, algebra):
    if args.tensor is None:
        raise InputError("--tensor is required")
    f = algebra.field if algebra is not None else _resolve_field(args)
    r = parse_tensor2(f, args.tensor)
    if algebra is not None and r.dim != algebra.dim:
        raise InputError(
            f"tensor dim {r.dim} does not match algebra dim {algebra.dim}"
        )
    return r


def _emit(args, payload: dict, text_lines: list[str], csv_row: dict) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(csv_row))
        writer.writeheader()
        writer.writerow(csv_row)
        sys.stdout.write(buf.getvalue())
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_verify(args) -> int:
    algebra = _resolve_algebra(args, required=args.check != "strong")
    r = _parse_tensor_for(args, algebra)
    holds = selector_predicate(algebra, _CHECKS[args.check])(r)
    label = "(none)" if algebra is None else algebra.label
    field_lit = r.field.literal()
    payload = {
        "check": args.check,
        "holds": holds,
        "field": field_lit,
        "algebra": label,
        "tensor": r.literal(),
    }
    _emit(
        args,
        payload,
        [
            f"check {args.check}: {'HOLDS' if holds else 'FAILS'} for"
            f" r={r.literal()} in {label} over {field_lit}"
        ],
        payload,
    )
    return 0 if holds else 1


def _cmd_enumerate(args) -> int:
    algebra = _resolve_algebra(args)
    report = sweep(
        SweepSpec(
            algebra=algebra,
            predicate=args.predicate,
            classifier=args.classifier,
            chunk=args.chunk,
            workers=args.workers,
            keep_solutions=True,
            limit=args.limit,
        )
    )
    count = report.predicate_count
    limit = args.limit if args.limit is not None else count
    listed = [
        {
            "encoding": code,
            "tensor": encoding_literal(algebra.field, algebra.dim, code),
        }
        for code in report.solutions
    ]
    payload = report.to_dict()
    payload["solutions"] = listed
    lines = [
        f"{report.algebra} over {report.field}: predicate={report.predicate}"
        f" -> {report.predicate_count}/{report.total} solutions",
    ]
    if report.classifier is not None:
        lines.append(
            f"classifier={report.classifier} -> {report.classifier_count};"
            f" diff pred-only={report.pred_only_count}"
            f" class-only={report.class_only_count}"
        )
    lines.extend(
        f"  {item['encoding']}: {item['tensor']}" for item in listed
    )
    if limit < count:
        lines.append(f"  ... ({count - limit} more)")
    csv_row = {
        "algebra": report.algebra,
        "field": report.field,
        "predicate": report.predicate,
        "classifier": report.classifier or "",
        "total": report.total,
        "predicate_count": report.predicate_count,
        "classifier_count": report.classifier_count,
        "diff_pred_only": report.pred_only_count,
        "diff_class_only": report.class_only_count,
    }
    _emit(args, payload, lines, csv_row)
    return 0


def _cmd_claim(args) -> int:
    fields = None
    if args.fields:
        fields = [parse_field(lit.strip()) for lit in args.fields.split(",")
                  if lit.strip()]
        if not fields:
            raise InputError("--fields given but empty")
    result = claim_check(args.claim, fields=fields, workers=args.workers)
    payload = result.to_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
    if args.ledger_out:
        with open(args.ledger_out, "w", encoding="utf-8") as fh:
            text = result.ledger.to_json_lines()
            fh.write(text + ("\n" if text else ""))
    lines = [
        f"claim {result.claim}: "
        f"{'PASS' if result.passed else 'FAIL (as stated)'};"
        f" ledger entries: {len(result.ledger)}",
    ]
    for rep in result.reports:
        line = (
            f"  {rep.claim} {rep.algebra} over {rep.field}:"
            f" {rep.predicate}={rep.predicate_count}"
        )
        if rep.classifier is not None:
            line += (
                f" {rep.classifier}={rep.classifier_count}"
                f" diff=({rep.pred_only_count},{rep.class_only_count})"
            )
        lines.append(line)
    lines.extend(f"  note: {n}" for n in result.notes)
    csv_row = {
        "claim": result.claim,
        "passed": result.passed,
        "exit_code": result.exit_code,
        "reports": len(result.reports),
        "ledger_entries": len(result.ledger),
    }
    _emit(args, payload, lines, csv_row)
    return result.exit_code


def _cmd_decompose(args) -> int:
    f = _resolve_field(args)
    if args.tensor is None:
        raise InputError("--tensor is required")
    r = parse_tensor2(f, args.tensor)
    d = strong_rank1_decompose(r)
    if d.kind == "zero":
        payload = {"kind": "zero"}
        lines = ["Zero"]
        csv_row = {"kind": "zero", "scale": "", "vector": ""}
    elif d.kind == "rank1":
        vec = ",".join(v.literal() for v in d.vector)
        payload = {
            "kind": "rank1",
            "scale": d.scale.literal(),
            "vector": [v.literal() for v in d.vector],
        }
        lines = [f"c={d.scale.literal()}, v=({vec})"]
        csv_row = {"kind": "rank1", "scale": d.scale.literal(), "vector": vec}
    else:
        payload = {"kind": "not-strongly-symmetric"}
        lines = ["NotStronglySymmetric"]
        csv_row = {"kind": "not-strongly-symmetric", "scale": "", "vector": ""}
    _emit(args, payload, lines, csv_row)
    return 0


def _cmd_bialgebra(args) -> int:
    algebra = _resolve_algebra(args)
    r = _parse_tensor_for(args, algebra)
    im = im_one_minus_tau_member(r)
    cobrackets = [
        bialgebra_mod.adjoint_act2(algebra, i, r) for i in range(algebra.dim)
    ]
    defects = bialgebra_mod.cojacobi_defect(algebra, r)
    defects_zero = [d.is_zero() for d in defects]
    cob = bialgebra_mod.is_coboundary(algebra, r)
    tri = bialgebra_mod.is_triangular(algebra, r)
    payload = {
        "field": algebra.field.literal(),
        "algebra": algebra.label,
        "tensor": r.literal(),
        "im_one_minus_tau": im,
        "cobrackets": [c.literal() for c in cobrackets],
        "cojacobi_defect_zero": defects_zero,
        "is_coboundary": cob,
        "is_triangular": tri,
    }
    lines = [
        f"{algebra.label} over {algebra.field.literal()}, r={r.literal()}",
        f"  r in Im(1-tau): {im}",
    ]
    lines.extend(
        f"  cobracket(e{i + 1}) = {c.literal()}"
        for i, c in enumerate(cobrackets)
    )
    lines.append(
        "  co-Jacobi defect zero per basis: "
        + ", ".join(
            f"e{i + 1}:{z}" for i, z in enumerate(defects_zero)
        )
    )
    lines.append(f"  coboundary: {cob}")
    lines.append(f"  triangular: {tri}")
    csv_row = {
        "algebra": algebra.label,
        "field": algebra.field.literal(),
        "tensor": r.literal(),
        "im_one_minus_tau": im,
        "is_coboundary": cob,
        "is_triangular": tri,
    }
    _emit(args, payload, lines, csv_row)
    return 0 if cob else 1


# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The ``baxter`` argument parser, built once per process: each
    :func:`main` call parses into a fresh namespace and shares no other
    state, so a caller running many commands pays for one tree."""
    parser = argparse.ArgumentParser(
        prog="baxter",
        description=(
            "Exhaustive Yang-Baxter and Lie-bialgebra verification over"
            " small finite fields"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check one tensor against one predicate")
    _add_algebra_args(p)
    _add_common_args(p)
    p.add_argument("--tensor", help="comma-separated coefficient literal")
    p.add_argument(
        "--check", choices=tuple(_CHECKS), required=True,
        help="predicate to verify",
    )
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser(
        "enumerate", help="sweep the whole tensor space and list solutions"
    )
    _add_algebra_args(p)
    _add_common_args(p)
    p.add_argument(
        "--predicate", choices=SELECTOR_NAMES, required=True,
        help="solution predicate",
    )
    p.add_argument(
        "--classifier", choices=SELECTOR_NAMES, default=None,
        help="optional classifier to compare against",
    )
    p.add_argument(
        "--limit", type=int, default=None,
        help="print at most this many solutions (default: all)",
    )
    p.add_argument(
        "--chunk", type=int, default=1 << 20,
        help="max entries per kernel step (memory bound; default 2^20)",
    )
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("claim", help="run a registered verification suite")
    _add_common_args(p)
    p.add_argument("claim", choices=CLAIM_IDS, metavar="CLAIM",
                   help=f"one of: {', '.join(CLAIM_IDS)}")
    p.add_argument(
        "--fields", default=None,
        help='comma-separated field literals, e.g. "gf(2),gf(2^2;0b111)"',
    )
    p.add_argument("--out", default=None, help="write full JSON report here")
    p.add_argument(
        "--ledger-out", default=None,
        help="write the discrepancy ledger (JSON lines) here",
    )
    p.set_defaults(fn=_cmd_claim)

    p = sub.add_parser("decompose", help="rank-one normal form of a tensor")
    _add_common_args(p)
    p.add_argument("--field", help="field literal")
    p.add_argument("--tensor", help="comma-separated coefficient literal")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser(
        "bialgebra", help="cobracket and co-Jacobi detail for one tensor"
    )
    _add_algebra_args(p)
    _add_common_args(p)
    p.add_argument("--tensor", help="comma-separated coefficient literal")
    p.set_defaults(fn=_cmd_bialgebra)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (BaxterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; try a smaller sweep", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
