"""Command-line front end.

Reports are byte-deterministic for a fixed workspace and command: all
iteration orders are fixed by the workspace file and the package's
basis conventions, and JSON is emitted with sorted keys.  Exit codes:
0 pass, 1 fail (with a report), 2 usage or parse errors and an
unwritable --output path.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import deformations as defs
from . import graded
from . import tensors
from .algebras import check_leibniz, check_lie, quotient_lie
from .cohomology import class_equals, cohomology
from .leibniz_lie import (
    check_leibniz_lie,
    induced_leibniz_lie,
    left_multiplication_tensor,
    subadjacent,
)
from .errors import (
    DegreeOutOfRange,
    ParseError,
    ToolkitError,
    WorkspaceError,
)
from .linalg import Matrix, parse_scalar
from .reports import CheckReport
from .workspace import (
    Workspace,
    algebra_to_json,
    leibniz_lie_to_json,
    load_workspace,
    matrix_to_json,
    tensor_to_json,
)

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--workspace", metavar="PATH", required=True,
                        help="workspace JSON file")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--output", metavar="PATH",
                        help="write the report here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="embtens",
        description="verify and build structures over structure-constant algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def refs(p: argparse.ArgumentParser) -> None:
        p.add_argument("--algebra", help="algebra name")
        p.add_argument("--action", help="action name")
        p.add_argument("--tensor", help="tensor name")
        p.add_argument("--name", help="leibnizLie entry name")
        p.add_argument("--direction", help="tensor name whose matrix is the direction")
        p.add_argument("--direction2", help="second direction tensor name")
        p.add_argument("--element", help="comma-separated source coordinates")
        p.add_argument("--element2", help="second element")
        p.add_argument("--operator", help="matrix rows 'a,b;c,d'")

    for name, table, text in (("check", CHECKS, "run a verification"),
                              ("build", BUILDS, "run a construction and emit the result"),
                              ("mc", MCS, "Maurer-Cartan style checks")):
        p = sub.add_parser(name, parents=[common], help=text)
        p.add_argument("what", choices=tuple(table))
        p.set_defaults(table=table)
        refs(p)

    p = sub.add_parser("cohomology", parents=[common],
                       help="cocycles, coboundaries and their quotient")
    p.add_argument("--tensor", required=True)
    p.add_argument("--degree", type=int, required=True)

    p = sub.add_parser("class-equals", parents=[common],
                       help="compare two cocycles up to coboundaries")
    p.add_argument("--degree", type=int, required=True)
    refs(p)
    return parser


class _Usage(Exception):
    pass


def _need(args, flag: str):
    value = getattr(args, flag)
    if value is None:
        raise _Usage(f"--{flag} is required for this command")
    return value


def _parse_element(text: str, dim: int, what: str) -> tuple:
    parts = [p.strip() for p in text.split(",")] if text.strip() else []
    if len(parts) != dim:
        raise _Usage(f"{what}: expected {dim} comma-separated coordinates")
    try:
        return tuple(parse_scalar(p) for p in parts)
    except ParseError as exc:
        raise _Usage(f"{what}: {exc}") from exc


def _parse_operator(text: str, dim: int) -> Matrix:
    rows = [r for r in (part.strip() for part in text.split(";")) if r]
    if len(rows) != dim:
        raise _Usage(f"--operator: expected {dim} rows separated by ';'")
    return Matrix.from_rows([_parse_element(r, dim, "--operator row") for r in rows])


def _direction(ws: Workspace, base, name: str) -> defs.DeformationDirection:
    other = ws.tensor(name)
    if other.action != base.action:
        raise _Usage(f"direction tensor {name!r} lives over a different action")
    return defs.DeformationDirection(base, other.matrix)


def _equivalence_over_candidates(d1, d2, spec_text: str, dim: int):
    """Try each ';'-separated witness candidate; no searching beyond the list."""
    candidates = [c for c in (part.strip() for part in spec_text.split(";")) if c]
    if not candidates:
        raise _Usage("--element: at least one candidate witness is required")
    first_failure = None
    for raw in candidates:
        x = _parse_element(raw, dim, "--element candidate")
        report = defs.check_equivalence(d1, d2, x)
        if report.ok:
            notes = report.notes + (f"witness: {raw}",)
            return CheckReport(report.check, True, report.failures, notes)
        if first_failure is None:
            first_failure = report
    notes = first_failure.notes + (f"no witness among {len(candidates)} candidates",)
    return CheckReport(first_failure.check, False, first_failure.failures, notes)


def _entry_check(flag: str, check):
    """A check of the workspace entry named by --flag; ``check(ws, name)``."""
    def run_check(ws: Workspace, args) -> tuple[str, CheckReport]:
        subject = _need(args, flag)
        return subject, check(ws, subject)
    return run_check


def _along_direction(check):
    """A check of --tensor deformed along --direction; ``check(ws, direction)``."""
    def run_check(ws: Workspace, args) -> tuple[str, CheckReport]:
        subject = _need(args, "tensor")
        return subject, check(ws, _direction(ws, ws.tensor(subject), _need(args, "direction")))
    return run_check


def _check_nijenhuis(ws: Workspace, args) -> tuple[str, CheckReport]:
    subject = _need(args, "tensor")
    t = ws.tensor(subject)
    x = _parse_element(_need(args, "element"), t.action.source.dim, "--element")
    return subject, defs.check_nijenhuis_element(defs.NijenhuisCandidate(t, x))


def _check_nijenhuis_operator(ws: Workspace, args) -> tuple[str, CheckReport]:
    if args.tensor is not None:
        t = ws.tensor(args.tensor)
        x = _parse_element(_need(args, "element"), t.action.source.dim, "--element")
        return args.tensor, defs.check_nijenhuis_operator(tensors.descendent(t), t.action.of(x))
    subject = _need(args, "algebra")
    a = ws.algebra(subject)
    op = _parse_operator(_need(args, "operator"), a.dim)
    return subject, defs.check_nijenhuis_operator(a, op)


def _check_equivalence(ws: Workspace, args) -> tuple[str, CheckReport]:
    subject = _need(args, "tensor")
    t = ws.tensor(subject)
    d1 = _direction(ws, t, _need(args, "direction"))
    d2 = _direction(ws, t, _need(args, "direction2"))
    return subject, _equivalence_over_candidates(
        d1, d2, _need(args, "element"), t.action.source.dim)


def _algebra_line(data: dict) -> str:
    return f"algebra {data['name']} (dim {data['dim']}, flavor {data['flavor']})"


def _tensor_line(data: dict) -> str:
    src = data["action"]["source"]
    tgt = data["action"]["target"]
    return f"tensor {tgt['name']} -> {src['name']} ({src['dim']}x{tgt['dim']})"


def _quotient_json(ws: Workspace, name: str) -> dict:
    algebra, projection = quotient_lie(ws.algebra(name))
    return {"algebra": algebra_to_json(algebra), "projection": matrix_to_json(projection)}


# Dispatch tables; their keys are the parser's choices.  Every library
# function is looked up by name when the command runs, through a lambda,
# never bound here: bench/benchtrace.py replaces module attributes, and a
# function held in a table would escape it.
CHECKS = {
    "lie": _entry_check("algebra", lambda ws, s: check_lie(ws.algebra(s))),
    "leibniz": _entry_check("algebra", lambda ws, s: check_leibniz(ws.algebra(s))),
    "action": _entry_check("action", lambda ws, s: tensors.check_coherent_action(ws.action(s))),
    "net": _entry_check("tensor", lambda ws, s: tensors.check_embedding_tensor(ws.tensor(s))),
    "leibniz-lie": _entry_check(
        "name", lambda ws, s: check_leibniz_lie(ws.leibniz_lie_structure(s))),
    "nijenhuis": _check_nijenhuis,
    "nijenhuis-operator": _check_nijenhuis_operator,
    "deform": _along_direction(lambda ws, d: defs.check_linear_deformation(d)),
    "equivalence": _check_equivalence,
}
MCS = {
    "net": _entry_check("tensor", lambda ws, s: graded.mc_check_tensor(ws.tensor(s))),
    "deform": _along_direction(lambda ws, d: graded.mc_check_deformation(d.base, d.direction)),
}
# build kind -> (flag naming the input, JSON of the result, summary line of that JSON)
BUILDS = {
    "hemisemidirect": ("action", lambda ws, s: algebra_to_json(
        tensors.hemisemidirect(ws.action(s))), _algebra_line),
    "descendent": ("tensor", lambda ws, s: algebra_to_json(
        tensors.descendent(ws.tensor(s))), _algebra_line),
    "subadjacent": ("name", lambda ws, s: algebra_to_json(
        subadjacent(ws.leibniz_lie_structure(s))), _algebra_line),
    "induced-triangle": ("tensor", lambda ws, s: leibniz_lie_to_json(
        induced_leibniz_lie(ws.tensor(s))),
        lambda r: f"leibniz-lie structure on {r['lie']['name']}"),
    "projection-net": ("algebra", lambda ws, s: tensor_to_json(
        tensors.projection_tensor(ws.algebra(s))), _tensor_line),
    "ell-net": ("name", lambda ws, s: tensor_to_json(
        left_multiplication_tensor(ws.leibniz_lie_structure(s))), _tensor_line),
    "quotient-lie": ("algebra", _quotient_json,
                     lambda r: _algebra_line(r["algebra"]) + " with projection"),
}


def _run_report(ws: Workspace, args) -> tuple[int, dict, str]:
    subject, report = args.table[args.what](ws, args)
    command = f"{args.command} {args.what}"
    payload = {"command": command, "subject": subject, "ok": report.ok,
               "report": report.to_json()}
    lines = [f"{command} {subject}: {'PASS' if report.ok else 'FAIL'}"]
    for f in report.failures:
        where = ",".join(str(i) for i in f.where)
        lines.append(f"  {f.law} at ({where})")
    for note in report.notes:
        lines.append(f"  note: {note}")
    return (0 if report.ok else 1), payload, "\n".join(lines)


def _run_build(ws: Workspace, args) -> tuple[int, dict, str]:
    flag, build, describe = args.table[args.what]
    subject = _need(args, flag)
    result = build(ws, subject)
    payload = {"command": f"build {args.what}", "subject": subject, "object": result}
    return 0, payload, f"build {args.what} {subject}: {describe(result)}"


def _run_cohomology(ws: Workspace, args) -> tuple[int, dict, str]:
    t = ws.tensor(args.tensor)
    report = cohomology(t, args.degree, max_degree=ws.settings.max_degree)
    payload = {"command": "cohomology", "subject": args.tensor, "degree": args.degree}
    if args.format == "json":  # the dense bases cost far more than the query itself
        payload["report"] = report.to_json()
    line = (f"cohomology {args.tensor} degree {args.degree}: "
            f"dimZ={report.dim_z} dimB={report.dim_b} dimH={report.dim_h}")
    return 0, payload, line


def _run_class_equals(ws: Workspace, args) -> tuple[int, dict, str]:
    subject = _need(args, "tensor")
    t = ws.tensor(subject)
    k = args.degree
    if args.element is not None or args.element2 is not None:
        dim = t.action.source.dim
        f = _parse_element(_need(args, "element"), dim, "--element")
        g = _parse_element(_need(args, "element2"), dim, "--element2")
    else:
        f = _direction(ws, t, _need(args, "direction")).direction
        g = _direction(ws, t, _need(args, "direction2")).direction
    equal = class_equals(t, f, g, k, max_degree=ws.settings.max_degree)
    payload = {"command": "class-equals", "subject": subject, "degree": k, "equal": equal}
    line = f"class-equals {subject} degree {k}: {'EQUAL' if equal else 'DIFFERENT'}"
    return (0 if equal else 1), payload, line


# command -> its runner; the keys are the parser's subcommands
COMMANDS = {"check": _run_report, "build": _run_build, "mc": _run_report,
            "cohomology": _run_cohomology, "class-equals": _run_class_equals}


def run(argv) -> tuple[int, str]:
    """Execute one command line; returns (exit code, rendered output)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), ""
    try:
        ws = load_workspace(args.workspace)
        code, payload, text = COMMANDS[args.command](ws, args)
    except (_Usage, WorkspaceError, DegreeOutOfRange, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, ""
    except ToolkitError as exc:
        code = 1
        payload = {"command": args.command, "error": str(exc), "ok": False}
        text = f"{args.command}: ERROR {exc}"
    rendered = _render(payload, text, args.format)
    try:
        _emit(rendered, args.output)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, ""
    return code, rendered


def _render(payload: dict, text: str, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return text + "\n"


def _emit(rendered: str, output: str | None) -> None:
    if output:
        Path(output).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)


def main(argv=None) -> int:
    return run(list(sys.argv[1:]) if argv is None else list(argv))[0]


if __name__ == "__main__":
    sys.exit(main())
