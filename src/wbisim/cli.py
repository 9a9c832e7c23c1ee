"""Command-line front end.

Subcommands::

    validate  INPUT   structural report; optional mass-constraint check
    minimize  INPUT   partition under strong/weak/delay equivalence
    check     INPUT   are two named states equivalent?
    saturate  INPUT   saturated-weight grid for one target class
    axioms            exercise the semiring laws

Exit codes: 0 success, 1 check answered "not equivalent", 2 validation or
semantic failure, 3 parse failure, 4 solver non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import semiring as _semiring
from .bisim import QuotientError, bisimilar, emit_quotient, refine_partition
from .oracle import TruncationError, brute_coarsest_partition
from .solver import ConvergenceError, Saturator
from .wlts import (
    ParseError,
    SemanticError,
    _escaped,
    _semiring_named,
    block_names,
    check_fully_probabilistic,
    check_reactive,
    load,
    serialize,
    to_dot,
)

EXIT_OK = 0
EXIT_NOT_BISIMILAR = 1
EXIT_INVALID = 2
EXIT_PARSE = 3
EXIT_NO_CONVERGENCE = 4


# -- plumbing ----------------------------------------------------------------


def _semiring_from_args(args):
    """The ``--semiring`` instance, each ``--param`` value converted to the
    type its class declares; an unknown name or key raises SemanticError."""
    if not args.semiring:
        if args.param:
            raise SemanticError("--param needs --semiring")
        return None
    cls = _semiring.SEMIRING_CLASSES.get(args.semiring)
    types = cls.parameters if cls else {}
    params = {}
    for pair in args.param or ():
        key, eq, value = pair.partition("=")
        if not eq:
            raise SemanticError("--param expects key=value, got %r" % pair)
        if key in params:
            raise SemanticError("--param %s given more than once" % key)
        kind = types.get(key, str)
        try:
            params[key] = kind(value)
        except ValueError:
            raise SemanticError(
                "%s parameter %s: %r is not a valid %s"
                % (args.semiring, key, value, kind.__name__)
            ) from None
    return _semiring_named(args.semiring, **params)


def _read_document(path):
    try:
        if path == "-":
            # Bytes where the stream has them: under a POSIX locale stdin
            # decodes with surrogateescape and lets malformed UTF-8 through.
            text = getattr(sys.stdin, "buffer", sys.stdin).read()
        else:
            with open(path, "rb") as fh:
                text = fh.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from None
    except UnicodeDecodeError as exc:
        raise ParseError("not valid UTF-8: %s" % exc) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("not valid JSON: %s" % exc) from None
    except RecursionError:
        raise ParseError("not valid JSON: nested too deeply") from None


def _load_system(args):
    return load(_read_document(args.input), _semiring_from_args(args))


_quote = json.encoder.encode_basestring_ascii


def _dumps(value, newline="\n"):
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.
    ``indent`` makes ``json`` use its pure-Python encoder, so lists and
    string-keyed dicts are laid out here, strings go through ``json``'s own
    quoting and every other value through ``json.dumps``.  A list of
    strings, or of such lists (the blocks of a partition), is written with
    one join per list of strings, falling back to a call per item where
    quoting an item raises ``TypeError``.  ``newline`` is a line break
    followed by the indentation of the current level."""
    if isinstance(value, str):
        return _quote(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        sep = "," + inner
        try:  # a list of strings, such as a block of names, in one join
            items = sep.join(map(_quote, value))
        except TypeError:  # an item that is not a string
            deeper = inner + "  "
            try:  # each nonempty list of strings, such as a block, in one join
                items = sep.join([
                    "[" + deeper + ("," + deeper).join(map(_quote, v)) + inner + "]"
                    if type(v) is list and v else _dumps(v, inner)
                    for v in value
                ])
            except TypeError:  # a list with an item that is not a string
                items = sep.join([_dumps(v, inner) for v in value])
        return "[" + inner + items + newline + "]"
    if isinstance(value, dict) and all(isinstance(k, str) for k in value):
        if not value:
            return "{}"
        items = [_quote(k) + ": " + _dumps(value[k], inner) for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", newline)


def _emit(args, payload, plain_lines):
    if args.format == "structured":
        print(_dumps(payload))
    else:
        for line in plain_lines:
            print(line)


def _mass_payload(report):
    return {
        "kind": report.kind,
        "ok": report.ok,
        "entries": [
            {"subject": e.subject, "mass": e.mass, "ok": e.ok} for e in report.entries
        ],
    }


def _saturation_grid(w, table):
    sr = w.semiring
    return {
        w.state_names[x]: {label: sr.format(table[label].get(x, sr.zero)) for label in w.labels}
        for x in range(w.state_count)
    }


# -- subcommands ---------------------------------------------------------------


def _cmd_validate(args):
    w = _load_system(args)
    payload = {
        "semiring": w.semiring.describe(),
        "tau": w.tau,
        "states": w.state_count,
        "actions": list(w.actions),
        "transitions": w.transition_count,
        "zero_weights_dropped": w.zero_transitions_dropped,
        "terminal_states": [
            w.state_names[x] for x in range(w.state_count) if w.is_terminal(x)
        ],
    }
    lines = [
        "semiring: %r" % w.semiring,
        "states: %d  transitions: %d  (dropped %d zero-weight edges)"
        % (w.state_count, w.transition_count, w.zero_transitions_dropped),
        "terminal: %s" % (", ".join(_escaped(payload["terminal_states"])) or "-"),
    ]
    failed = False
    if w.semiring.name in ("real", "real-float"):
        probabilistic = check_fully_probabilistic(w)
        reactive = check_reactive(w)
        payload["mass_reports"] = {
            "fully_probabilistic": _mass_payload(probabilistic),
            "reactive": _mass_payload(reactive),
        }
        lines.append("fully probabilistic: %s" % ("yes" if probabilistic.ok else "no"))
        lines.append("reactive: %s" % ("yes" if reactive.ok else "no"))
        if args.constraint == "fully-probabilistic" and not probabilistic.ok:
            failed = True
        if args.constraint == "reactive" and not reactive.ok:
            failed = True
    elif args.constraint != "none":
        raise SemanticError(
            "mass constraints are defined over the real semirings, not %r"
            % w.semiring.name
        )
    payload["constraint"] = args.constraint
    payload["constraint_ok"] = not failed
    if args.format == "dot":
        sys.stdout.write(to_dot(w))
    else:
        _emit(args, payload, lines)
    return EXIT_INVALID if failed else EXIT_OK


def _cmd_minimize(args):
    w = _load_system(args)
    mode = args.equivalence
    if args.format == "dot" and not args.emit_quotient:
        raise SemanticError("dot output for minimize needs --emit-quotient")
    if args.format == "dot" and mode != "strong":
        raise SemanticError("dot output needs a strong quotient; %s classes have none" % mode)
    partition, trace = refine_partition(w, mode, want_trace=args.trace)
    blocks = partition.to_names(w)
    payload = {
        "equivalence": mode,
        "semiring": w.semiring.describe(),
        "states": w.state_count,
        "blocks": blocks,
    }
    lines = ["%s partition: %d block(s)" % (mode, len(partition))]
    if args.format == "plain":  # only plain output prints these, and escaping a name is not free
        lines += ["  {%s}" % ", ".join(_escaped(block)) for block in blocks]
    if trace is not None:
        payload["trace"] = [
            {
                "step": e.step,
                "label": e.label,
                "splitter": [w.state_names[x] for x in e.splitter],
                "blocks_split": e.blocks_split,
                "block_count": e.block_count,
            }
            for e in trace.events
        ]
        escaped = _escaped(w.state_names)
        for e in trace.events:
            lines.append(
                "split %d: label %s against {%s} -> %d block(s)"
                % (e.step, e.label, ",".join(escaped[x] for x in e.splitter), e.block_count)
            )
    if args.oracle:
        reference = brute_coarsest_partition(w, mode)
        agrees = reference == partition
        payload["oracle_blocks"] = reference.to_names(w)
        payload["oracle_agrees"] = agrees
        lines.append("oracle agrees: %s" % ("yes" if agrees else "NO"))
        if not agrees:
            _emit(args, payload, lines)
            return EXIT_INVALID
    if args.emit_quotient:
        if mode == "strong":
            quotient = emit_quotient(w, partition)
            if args.format == "dot":
                sys.stdout.write(to_dot(quotient, "quotient"))
                return EXIT_OK
            payload["quotient"] = serialize(quotient)
            lines.append("quotient: %d states, %d transitions"
                         % (quotient.state_count, quotient.transition_count))
        else:
            # Weak/delay classes have no single-step quotient; emit the
            # saturation grid per final class instead.
            saturator = Saturator(w, mode)
            grids = {
                name: _saturation_grid(w, saturator.table(block))
                for name, block in zip(block_names(w, partition), partition.blocks)
            }
            payload["saturation"] = grids
            lines.append("saturation grids emitted for %d class(es)" % len(grids))
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_check(args):
    w = _load_system(args)
    same = bisimilar(w, w.index(args.left), w.index(args.right), args.equivalence)
    payload = {
        "left": args.left,
        "right": args.right,
        "equivalence": args.equivalence,
        "bisimilar": same,
    }
    _emit(
        args,
        payload,
        [
            "%s and %s are%s %s-bisimilar"
            % (args.left, args.right, "" if same else " not", args.equivalence)
        ],
    )
    return EXIT_OK if same else EXIT_NOT_BISIMILAR


def _cmd_saturate(args):
    w = _load_system(args)
    # Split on unescaped commas and read \x as x, the escape of block_names.
    names = sorted({re.sub(r"\\(.)", r"\1", s, flags=re.S)
                    for s in re.findall(r"(?:[^\\,]|\\.?)+", args.cls or "", re.S)})
    if not names:
        raise SemanticError("--class needs a comma-separated list of states")
    C = [w.index(s) for s in names]
    grid = _saturation_grid(w, Saturator(w, args.mode).table(C))
    payload = {"mode": args.mode, "class": names, "table": grid}
    lines = ["%s saturation into {%s}" % (args.mode, ",".join(_escaped(names)))]
    for state, cells in grid.items():
        row = ", ".join("%s=%s" % cell for cell in cells.items())
        lines.append("  %s: %s" % (state, row))
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_axioms(args):
    if not args.semiring:
        raise SemanticError("axioms needs --semiring")
    sr = _semiring_from_args(args)
    report = _semiring.check_axioms(sr)
    payload = {
        "semiring": sr.describe(),
        "ok": report.ok,
        "laws": [
            {"law": c.law, "ok": c.ok, "witness": c.witness} for c in report.checks
        ],
    }
    lines = ["axioms for %r: %s" % (sr, "all pass" if report.ok else "FAILURES")]
    for c in report.checks:
        lines.append(
            "  %-18s %s%s" % (c.law, "ok" if c.ok else "FAIL", "" if c.ok else "  " + c.witness)
        )
    _emit(args, payload, lines)
    return EXIT_OK if report.ok else EXIT_INVALID


@functools.cache
def build_parser():
    """The argument parser, built once per process and shared by every
    ``main`` call, so callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="wbisim",
        description="Equivalence checking for semiring-weighted transition systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_input=True, formats=("structured", "plain")):
        # Only validate and minimize have a graph to draw, so only they
        # offer dot; elsewhere argparse rejects it with exit code 2.
        if with_input:
            p.add_argument("input", help="system document (JSON), or - for stdin")
        p.add_argument("--semiring", help="override/select the semiring by name")
        p.add_argument(
            "--param",
            action="append",
            metavar="KEY=VALUE",
            help="semiring parameter (k=..., epsilon=...)",
        )
        p.add_argument(
            "--format",
            choices=formats,
            default="structured",
            help="output format (default structured JSON)",
        )

    p = sub.add_parser("validate", help="load a document and report on it")
    common(p, formats=("structured", "plain", "dot"))
    p.add_argument(
        "--constraint",
        choices=("none", "fully-probabilistic", "reactive"),
        default="none",
        help="fail (exit 2) when the selected mass constraint does not hold",
    )
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("minimize", help="compute the equivalence partition")
    common(p, formats=("structured", "plain", "dot"))
    p.add_argument(
        "--equivalence", choices=("strong", "weak", "delay"), default="strong"
    )
    p.add_argument("--emit-quotient", action="store_true")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against brute-force search (at most 8 states;"
        " boolean systems, or systems without weighted cycles)",
    )
    p.add_argument("--trace", action="store_true", help="log the splitter sequence")
    p.set_defaults(fn=_cmd_minimize)

    p = sub.add_parser("check", help="decide equivalence of two states")
    common(p)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument(
        "--equivalence", choices=("strong", "weak", "delay"), default="strong"
    )
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("saturate", help="saturated weights for one class")
    common(p)
    p.add_argument(
        "--class", dest="cls", required=True,
        help="comma-separated state names; \\, and \\\\ stand for a comma and a backslash"
    )
    p.add_argument("--mode", choices=("weak", "delay"), default="weak")
    p.set_defaults(fn=_cmd_saturate)

    p = sub.add_parser("axioms", help="check the semiring laws")
    common(p, with_input=False)
    p.set_defaults(fn=_cmd_axioms)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except QuotientError as exc:
        print("quotient error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    except TruncationError as exc:
        print("error: the oracle cannot certify this system: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    except (SemanticError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    except ConvergenceError as exc:
        print("solver did not converge: %s" % exc, file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
