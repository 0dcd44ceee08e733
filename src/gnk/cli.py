"""Command-line front end.

Exit codes: 0 success, 1 usage or bad input, 2 capability skip
(something was too large to enumerate), 3 a chiral pair disagreed or a
stored certificate failed to verify.

Each command imports its compute layer when it runs, so the commands that
need no numpy (present, roots, verify-witness) never load it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .fingroups import (
    CapabilityError,
    group_from_spec,
    nth_roots,
    s24_witness_report,
    split_outside_brackets,
)
from .presentations import (
    KNOT_NAMES,
    format_presentation,
    g1_braid_presentation,
    knot_presentation,
)
from .words import format_word


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 is taken, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _knot(text: str) -> str:
    lowered = text.lower()
    for name in KNOT_NAMES:
        if name.lower() == lowered:
            return name
    raise argparse.ArgumentTypeError(
        f"unknown knot {text!r} (choose from {', '.join(KNOT_NAMES)})"
    )


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(text)


# -- subcommand bodies -----------------------------------------------------------


def cmd_present(args) -> int:
    pres = knot_presentation(args.knot, args.n, raw=args.raw)
    payload = {
        "knot": args.knot,
        "n": args.n,
        "gens": list(pres.gens.names),
        "relators": [format_word(r) for r in pres.relators],
    }
    _emit(args, payload, format_presentation(pres).rstrip("\n"))
    return 0


def _counted(args):
    group = group_from_spec(args.target)
    pres = knot_presentation(args.knot, args.n, raw=args.raw)
    return group, pres


def cmd_count_homs(args) -> int:
    from .homsearch import sharded_search

    group, pres = _counted(args)
    _, stats = sharded_search(pres, group, args.shards, args.jobs, args.shard_id)
    _emit(args, {"count": stats["homs"], "stats": stats}, str(stats["homs"]))
    return 0


def cmd_count_classes(args) -> int:
    from .homsearch import fiber_orbits, hom_image_matrix

    group, pres = _counted(args)
    matrix, _ = hom_image_matrix(pres, group, fibers=True)
    _, reps, sizes = fiber_orbits(pres, group, matrix)
    _emit(
        args,
        {"classes": len(reps), "homs": int(sizes.sum())},
        str(len(reps)),
    )
    return 0


def cmd_roots(args) -> int:
    group = group_from_spec(args.target)
    element = group.parse_element(args.element)
    roots = nth_roots(group, element, args.n)
    formatted = [group.format_element(r) for r in roots]
    _emit(
        args,
        {"count": len(roots), "roots": formatted},
        "\n".join([str(len(roots))] + formatted),
    )
    return 0


def cmd_check_t(args) -> int:
    from .homsearch import check_property_t

    group = group_from_spec(args.target)
    report = check_property_t(group, args.n, args.knot)
    lines = [
        f"property T({args.n},{args.knot}) for {group.name}: "
        + ("holds" if report.holds else "FAILS"),
        f"bases: {report.bases}  root pairs: {report.pairs}",
    ]
    payload = {
        "target": group.name,
        "n": args.n,
        "knot": args.knot,
        "holds": report.holds,
        "bases": report.bases,
        "pairs": report.pairs,
    }
    if report.counterexample_base is not None:
        base = [group.format_element(x) for x in report.counterexample_base]
        root = group.format_element(report.counterexample_root)
        lines.append(f"counterexample base: d={base[0]} b={base[1]} e={base[2]}")
        lines.append(f"counterexample root: {root}")
        payload["counterexample"] = {"base": base, "root": root}
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_extend(args) -> int:
    from .homsearch import extend_g1_hom

    group = group_from_spec(args.target)
    braid = g1_braid_presentation()
    assignments = {}
    for piece in split_outside_brackets(args.base):
        piece = piece.strip()
        if not piece or "=" not in piece:
            raise ValueError(f"bad base assignment {piece!r}")
        name, _, text = piece.partition("=")
        name = name.strip()
        if name in assignments:
            raise ValueError(f"base assigns {name} more than once")
        assignments[name] = group.parse_element(text.strip())
    if sorted(assignments) != sorted(braid.gens.names):
        raise ValueError(
            f"base must assign exactly {', '.join(braid.gens.names)}"
        )
    base = tuple(assignments[name] for name in braid.gens.names)
    candidates = extend_g1_hom(group, base, args.n, args.knot)
    valid = sum(c.third_ok for c in candidates)
    lines = []
    payload_rows = []
    for c in candidates:
        # d_hat is an n-th root of D, and extend_g1_hom refuses a non-braid base
        flags = f"root=ok braid=ok third={'ok' if c.third_ok else 'NO'}"
        mark = "valid" if c.third_ok else "rejected"
        lines.append(f"d_hat={group.format_element(c.d_hat)} {flags} {mark}")
        payload_rows.append(
            {
                "d_hat": group.format_element(c.d_hat),
                "b_hat": group.format_element(c.b_hat),
                "e_hat": group.format_element(c.e_hat),
                "root_ok": True,
                "braid_ok": True,
                "third_ok": c.third_ok,
                "valid": c.third_ok,
            }
        )
    lines.append(f"valid extensions: {valid} of {len(candidates)}")
    _emit(
        args,
        {"candidates": payload_rows, "valid": valid},
        "\n".join(lines),
    )
    return 0


def cmd_verify_witness(args) -> int:
    report = s24_witness_report()
    verdict = "CONFIRMED" if report.confirmed else "NOT CONFIRMED"
    text = "\n".join(
        [
            f"root condition d_hat^2 = D: {report.root_ok}",
            f"braid relation (b,d): {report.braid_bd_ok}",
            f"braid relation (e,d): {report.braid_ed_ok}",
            f"powered third relation: {report.powered_holds}",
            f"powered third relation, mirrored composition: {report.powered_holds_mirror}",
            f"property T(2,SK) counterexample: {verdict}",
        ]
    )
    payload = {
        "root_ok": report.root_ok,
        "braid_bd_ok": report.braid_bd_ok,
        "braid_ed_ok": report.braid_ed_ok,
        "powered_holds": report.powered_holds,
        "powered_holds_mirror": report.powered_holds_mirror,
        "confirmed": report.confirmed,
    }
    _emit(args, payload, text)
    return 0 if report.confirmed else 3


def cmd_talex(args) -> int:
    from .harness import run_cell

    records = run_cell(args.knot, args.n, args.target, ("talex",))
    rec = records[0]
    if rec.status == "skip":
        print(f"skip: {rec.stats['reason']}", file=sys.stderr)
        return 2
    payload = {
        "homs": rec.stats["homs"],
        "distinct": rec.stats["distinct"],
        "digest": rec.value,
    }
    _emit(args, payload, "\n".join(f"{k}: {v}" for k, v in payload.items()))
    return 0


def cmd_sweep(args) -> int:
    from .harness import SweepConfig, run_sweep

    cfg = SweepConfig.from_file(args.config)
    if args.output:
        cfg = dataclasses.replace(cfg, output=args.output)
    records = run_sweep(cfg, jobs=args.jobs)
    skips = sum(r.status == "skip" for r in records)
    lines = [
        f"{r.knot} n={r.n} {r.target} {r.task}: "
        + (str(r.value) if r.status == "ok" else f"skip ({r.stats['reason']})")
        for r in records
    ]
    lines.append(f"records: {len(records)}  skips: {skips}  -> {cfg.output}")
    _emit(
        args,
        {
            "records": [json.loads(r.to_json()) for r in records],
            "skips": skips,
            "output": cfg.output,
        },
        "\n".join(lines),
    )
    return 2 if skips else 0


def cmd_report(args) -> int:
    from .harness import compare_report, read_records

    records = read_records(args.records)
    report = compare_report(records)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.text_table())
    return report.exit_code()


# -- parser assembly -------------------------------------------------------------


def _add_format(sub) -> None:
    sub.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default text)",
    )


def _add_cell(sub, raw_flag=True) -> None:
    sub.add_argument("--knot", type=_knot, required=True,
                     help="trefoil_r, trefoil_l, SK, or GK (case-insensitive)")
    sub.add_argument("--n", type=int, required=True, help="twist exponent, n >= 1")
    if raw_flag:
        sub.add_argument("--raw", action="store_true",
                         help="use the one-generator-per-arc presentation")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="gnk",
        description="Generalized knot groups: presentations, homomorphism "
        "counting, and twisted Alexander invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("present", help="print a knot group presentation")
    _add_cell(p)
    _add_format(p)
    p.set_defaults(func=cmd_present)

    p = sub.add_parser("count-homs", help="count homomorphisms into a finite group")
    _add_cell(p)
    p.add_argument("--target", required=True, help="group spec, e.g. S4 or PSL2_7")
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--shard-id", type=int, default=None,
                   help="run one shard only and report its count")
    p.add_argument("--jobs", type=int, default=1)
    _add_format(p)
    p.set_defaults(func=cmd_count_homs)

    p = sub.add_parser("count-classes",
                       help="count conjugation orbits of homomorphisms")
    _add_cell(p)
    p.add_argument("--target", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_count_classes)

    p = sub.add_parser("roots", help="list nth roots of a group element")
    p.add_argument("--target", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--n", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("check-t", help="test the root-extension property")
    p.add_argument("--target", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--knot", type=_knot, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_check_t)

    p = sub.add_parser("extend",
                       help="extend a base homomorphism along root choices")
    p.add_argument("--target", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--knot", type=_knot, required=True)
    p.add_argument("--base", required=True,
                   help="semicolon-separated images, e.g. 'd=(1,2); b=(2,3); e=(1,3)'")
    _add_format(p)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("verify-witness",
                       help="check the stored degree-24 counterexample")
    _add_format(p)
    p.set_defaults(func=cmd_verify_witness)

    p = sub.add_parser("talex",
                       help="twisted Alexander multiset digest for one cell")
    _add_cell(p, raw_flag=False)
    p.add_argument("--target", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_talex)

    p = sub.add_parser("sweep", help="run a configured sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--output", default=None, help="override the config output path")
    p.add_argument("--jobs", type=int, default=1)
    _add_format(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="compare chiral pairs in recorded results")
    p.add_argument("--records", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapabilityError as exc:
        print(f"skip: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
