"""Command-line front end: check / certify / witness / bench / integrate.

Input is one JSON document ``{"schema": "bochner-bounds/1", "function":
{...}, "hypothesis": {...}}``; witness and bench runs omit ``"function"``.
Exit codes: 0 = success with the hypothesis verified (or zero bench
violations), 2 = input was well-formed but the hypothesis failed (or bench
found violations), 1 = malformed input or command line.  Each subcommand
accepts only the flags it reads.

``check`` writes a ``condition_report`` with ``holds``, ``worst_t`` (the
node of the worst slack), ``worst_margin`` (that slack: relative to the
sup norm of f on the panel for a cone constraint, absolute for a ball
constraint, see :mod:`.hypotheses`) and ``checked_points`` (the number of nodes).

:func:`main` runs one command line, so it pauses the cyclic garbage
collector while the command runs: a parsed JSON document holds no
reference cycle, and reference counting still frees everything.  It
restores the caller's collector state on every exit.  :func:`run` and the
library never touch the collector.

A fresh process pays only for what its command uses.  It builds the
parser of the named subcommand alone (all five for ``-h``, an unknown or a
missing command), and imports :mod:`.witness` only in ``witness`` and
``bench``.  The process entry, :func:`console_main` (also run by ``python
-m bochner_bounds.cli``), calls ``gc.freeze()`` after :func:`main`, so the
interpreter's collections at exit skip everything the imports made.
:func:`main` and :func:`run` never freeze.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from dataclasses import asdict, dataclass
from types import SimpleNamespace

from .bounds import bound_report_to_dict, certify, equality_holds
from .gridfn import (
    DEFAULT_RULE,
    Interval,
    QuadratureRule,
    gridfunction_from_dict,
    gridfunction_to_dict,
    integrate_norm,
    integrate_vector,
)
from .hilbert import norm
from .hypotheses import (DEFAULT_CHECK_TOL, check, hypothesis_from_dict, hypothesis_to_dict,
                         require_tol)
from .jsonio import ArrayDecoder, SchemaError, decode_floats, dumps, dumps_csv, encode_pairs

__all__ = ["RunConfig", "run", "render_table", "main", "console_main"]

SCHEMA = "bochner-bounds/1"
COMMANDS = ("check", "certify", "witness", "bench", "integrate")
MAX_COUNT = 10 ** 7  # upper bound on node counts and trials, checked before allocating


@dataclass(frozen=True)
class RunConfig:
    command: str
    input_path: str
    output_path: str = "-"
    quad: QuadratureRule = QuadratureRule()
    tol: float = DEFAULT_CHECK_TOL
    seed: int = 0
    trials: int = 100
    table: bool = False

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        require_tol(self.tol)
        if self.seed < 0:
            raise ValueError(f"seed: must be >= 0, got {self.seed}")
        if not 1 <= self.trials <= MAX_COUNT:
            raise ValueError(f"trials: must be between 1 and {MAX_COUNT}, got {self.trials}")
        if self.command == "witness" and self.output_path.endswith(".csv"):
            # CSV keeps a report's scalar fields, and a witness document has none
            raise ValueError(f"output: a witness document has no CSV form, got {self.output_path!r}")


def _load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, cls=ArrayDecoder)
    except OSError as exc:
        raise SchemaError(f"input: cannot read {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"input: cannot decode {path!r} as UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"input: invalid JSON in {path!r}: {exc}") from exc
    except ValueError as exc:  # an integer past Python's limit on the digits it converts
        raise SchemaError(f"input: cannot read a number in {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("input: top level must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise SchemaError(f"schema: expected {SCHEMA!r}, got {doc.get('schema')!r}")
    return doc


def _section(doc: dict, key: str, decode):
    """``decode(doc[key])``; a refusal names the section once, as ``key: ...``."""
    if key not in doc:
        raise SchemaError(f"{key}: missing")
    try:
        return decode(doc[key])
    except ValueError as exc:
        raise SchemaError(f"{key}: {exc}") from exc


def run(config: RunConfig) -> tuple[int, dict]:
    """Execute one command; returns (exit_status, report_document)."""
    doc = _load_document(config.input_path)
    if config.command == "check":
        f = _section(doc, "function", gridfunction_from_dict)
        h = _section(doc, "hypothesis", hypothesis_from_dict)
        report = check(f, h, config.tol)
        return (0 if report.holds else 2), {"schema": SCHEMA, "kind": "condition_report",
                                            **asdict(report)}
    if config.command == "certify":
        f = _section(doc, "function", gridfunction_from_dict)
        h = _section(doc, "hypothesis", hypothesis_from_dict)
        report = certify(f, h, config.quad, config.tol)
        out = {"schema": SCHEMA, "kind": "bound_report"}
        out.update(bound_report_to_dict(report))
        return (0 if report.hypothesis_verified else 2), out
    if config.command == "integrate":
        f = _section(doc, "function", gridfunction_from_dict)
        vec = integrate_vector(f, config.quad)
        nrm = integrate_norm(f, config.quad)
        out = {
            "schema": SCHEMA,
            "kind": "integral_report",
            "vector": encode_pairs(vec),
            "norm_integral": nrm,
            "triangle_slack": nrm - norm(vec),
        }
        return 0, out
    if config.command == "witness":
        from .witness import make_witness

        h = _section(doc, "hypothesis", hypothesis_from_dict)
        w = make_witness(h, _interval_from(doc, "interval"), _node_count(doc, "node_count", 33))
        out = {
            "schema": SCHEMA,
            "function": gridfunction_to_dict(w),
            "hypothesis": hypothesis_to_dict(h),
        }
        return 0, out
    # bench
    from .witness import FamilySpec, tightness

    h = _section(doc, "hypothesis", hypothesis_from_dict)
    gen = doc.get("generator", {})
    if not isinstance(gen, dict):
        raise SchemaError("generator: must be an object")
    nodes = _node_count(gen, "generator.nodes", 17)
    interval = _interval_from(gen, "generator.interval")
    rmin = _number(gen.get("rmin", 0.5), "generator.rmin")
    rmax = _number(gen.get("rmax", 1.5), "generator.rmax")
    try:
        family = FamilySpec(h, config.seed, nodes, interval, rmin, rmax)
    except ValueError as exc:  # a refusal of rmin and rmax together
        raise SchemaError(f"generator: {exc}") from exc
    stats = tightness(config.trials, family, h, config.quad)
    out = {"schema": SCHEMA, "kind": "tightness_stats"}
    out.update(asdict(stats))
    return (0 if stats.violations == 0 else 2), out


def _node_count(d: dict, field: str, default: int) -> int:
    """The JSON integer (not a bool or a float) at ``field``'s last key, in [2, MAX_COUNT]."""
    value = d.get(field.rsplit(".", 1)[-1], default)
    if isinstance(value, bool) or not isinstance(value, int) or not 2 <= value <= MAX_COUNT:
        raise SchemaError(f"{field}: expected an integer from 2 to {MAX_COUNT}, got {value!r}")
    return value


def _number(raw, field: str) -> float:
    """One JSON number under the rule of :mod:`.jsonio`, else an error naming ``field``."""
    try:
        return float(decode_floats(raw, 0))
    except ValueError as exc:
        raise SchemaError(f"{field}: {exc}") from exc


def _interval_from(parent: dict, field: str) -> Interval:
    """``parent``'s interval at ``field``'s last key, [0, 1] if absent; refusals name ``field``."""
    d = parent.get(field.rsplit(".", 1)[-1])
    if d is None:
        return Interval(0.0, 1.0)
    if not (isinstance(d, dict) and "a" in d and "b" in d):
        raise SchemaError(f"{field}: expected an object with fields a, b")
    a, b = _number(d["a"], f"{field}.a"), _number(d["b"], f"{field}.b")
    try:
        return Interval(a, b)
    except ValueError as exc:
        raise SchemaError(f"{field}: {exc}") from exc


_TABLE_NUMBERS = ("coefficient", "lower_bound", "true_norm", "gap")


def _table_number(report: dict, key: str) -> str:
    x = report[key]
    if not math.isfinite(x):
        raise ValueError(f"{key}: cannot serialize non-finite number {x!r}")
    return format(x, ".9g")


def render_table(reports, tol: float = DEFAULT_CHECK_TOL) -> str:
    """Aligned text table over bound report documents, sorted by tag then coefficient desc.

    A report document is what :func:`run` returns for ``certify``.  A
    non-finite number is refused with an error naming its field, as in
    :func:`~.jsonio.dumps`.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("no reports to render")
    rows = [("hypothesis", *_TABLE_NUMBERS, "equality")]
    for r in sorted(reports, key=lambda r: (r["hypothesis"], -r["coefficient"])):
        attained = equality_holds(SimpleNamespace(**r), tol)
        numbers = [_table_number(r, key) for key in _TABLE_NUMBERS]
        rows.append((r["hypothesis"], *numbers, "yes" if attained else "no"))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


def _write_output(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"output: cannot write {path!r}: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as ValueError, so it exits 1 like bad input."""

    def error(self, message):
        raise ValueError(message)


def main(argv=None) -> int:
    """Run one command line and return its exit status, with cycle collection paused."""
    collecting = gc.isenabled()
    gc.disable()  # the parser's fresh lists would trigger collections that find nothing
    try:
        return _main(argv)
    finally:
        if collecting:
            gc.enable()


def console_main() -> int:
    """Process entry point: :func:`main` on ``sys.argv``, then freeze what is alive.

    Everything left is in the permanent generation once the command is done,
    so the interpreter's collections at exit walk none of it; stdio is still
    flushed and atexit handlers still run.
    """
    status = main()
    gc.freeze()
    return status


def _parser(commands) -> _Parser:
    parser = _Parser(
        prog="bochner-bounds",
        description="Check pointwise hypotheses and certify reverse triangle inequality "
        "lower bounds for sampled vector-valued functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:  # each subcommand takes only the flags it reads
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="path to the input JSON document")
        p.add_argument("--output", default="-", help="output path, *.csv for CSV, '-' for stdout")
        if name in ("check", "certify"):
            p.add_argument("--tol", type=float, default=DEFAULT_CHECK_TOL,
                           help="hypothesis check tolerance")
        if name in ("certify", "integrate", "bench"):
            p.add_argument("--quad-kind", default=DEFAULT_RULE.kind, help="quadrature rule",
                           choices=("composite-simpson", "trapezoid-on-nodes"))
            p.add_argument("--quad-refine", type=int, default=DEFAULT_RULE.refinement,
                           help="1: integrate the node samples; larger: integrate the "
                           "interpolated model exactly")
        if name == "bench":
            p.add_argument("--seed", type=int, default=0, help="base seed (trial i uses seed+i)")
            p.add_argument("--trials", type=int, default=100, help="number of trials")
        if name == "certify":
            p.add_argument("--table", action="store_true", help="render a text table")
    return parser


def _main(argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a named command needs only its own subparser; its help, usage and
    # errors do not depend on the others
    parser = _parser((argv[0],) if argv and argv[0] in COMMANDS else COMMANDS)
    try:
        args = vars(parser.parse_args(argv))
        quad = DEFAULT_RULE
        if "quad_kind" in args:
            quad = QuadratureRule(kind=args.pop("quad_kind"), refinement=args.pop("quad_refine"))
        config = RunConfig(
            input_path=args.pop("input"), output_path=args.pop("output"), quad=quad, **args
        )
        status, doc = run(config)
        if config.table:
            text = render_table([doc], config.tol)
        else:
            text = dumps_csv(doc) if config.output_path.endswith(".csv") else dumps(doc)
        _write_output(text, config.output_path)
    except (SchemaError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    raise SystemExit(console_main())
