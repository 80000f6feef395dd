"""Command line front end.

Exit codes: 0 success (valid, proved, holds, well-formed), 1 negative verdict
(invalid, refuted, fails, ill-formed proof), 2 bad input (usage or parse
errors, too many variables, formulas nested too deep, malformed proofs), 3 a
broken internal invariant or any other internal error.  `--json` switches any
subcommand to a JSON object tagged with "schema": 1.  Formula arguments may be
given as `@path` to read the formula text from a file.
"""

import argparse
import os
import sys

from . import nd
from .algebra import (
    BINARY_OPS,
    NULLARY_OPS,
    OP_NAMES,
    UNARY_OPS,
    VALUES,
    format_table,
    run_identity_suites,
)
from .errors import InvariantViolation
from .semantics import (
    TooManyVariables,
    consequence_countermodel,
    countermodel,
    evaluate,
    truth_table,
)
from .syntax import (
    MAX_DEPTH,
    ParseError,
    Signature,
    SignatureError,
    Var,
    parse,
    render,
    translate,
    variables,
)
from .tableau import Proved, decide, format_tableau

_SYMBOL_OPS = {
    "~": "neg", "[]": "box", "<>": "dia",
    "&": "and", "|": "or", ">": "succ",
}


def _read_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise _UsageError(f"cannot read {path}: {e.strerror}")
    except ValueError as e:  # a NUL in the path, or text that is not UTF-8
        raise _UsageError(f"cannot read {path}: {e}")


def _read_stdin():
    """Standard input, read as UTF-8 as _read_file reads a file, whatever
    encoding the interpreter gave sys.stdin."""
    if sys.stdin is None:  # the process started with descriptor 0 closed
        raise _UsageError("cannot read -: no standard input")
    try:
        return sys.stdin.buffer.read().decode("utf-8")
    except (OSError, ValueError) as e:  # unreadable, or text that is not UTF-8
        raise _UsageError(f"cannot read -: {e}")


def _read_formula_arg(text):
    if text.startswith("@"):
        text = _read_file(text[1:]).strip()
    return parse(text)


class _UsageError(Exception):
    pass


def _format_model(model):
    return " ".join(f"{k}={model[k]}" for k in sorted(model))


# Exit code of each verdict; output without a verdict exits 0, except that
# the identity suite exits 1 when an identity fails ("all_hold": false).
_VERDICT_EXIT = {
    None: 0, "valid": 0, "holds": 0, "proved": 0, "ok": 0,
    "invalid": 1, "fails": 1, "refuted": 1, "ill-formed": 1,
}

# Exception kinds with their exit code and stderr message.  Any other
# exception is a bug: main prints its traceback and exits 3.
_ERROR_EXIT = (
    ((ParseError, _UsageError, SignatureError, TooManyVariables), 2, "{}"),
    (InvariantViolation, 3, "invariant violation: {}"),
)


# --- subcommand handlers -----------------------------------------------------
#
# Each handler returns (obj, text): the JSON object printed under --json and
# the text printed otherwise.  main() prints one of them and derives the exit
# code from obj["verdict"].


def _cmd_parse(args):
    f = _read_formula_arg(args.formula)
    return {"formula": render(f), "variables": sorted(variables(f))}, render(f)


def _cmd_table(args):
    name = _SYMBOL_OPS.get(args.connective, args.connective)
    if name not in OP_NAMES:
        raise _UsageError(
            f"unknown connective {args.connective!r}; "
            f"choose from {', '.join(OP_NAMES)} or ~ [] <> & | >"
        )
    if name in NULLARY_OPS:
        table = NULLARY_OPS[name]
    elif name in UNARY_OPS:
        table = {v: UNARY_OPS[name][v] for v in VALUES}
    else:
        table = {a: {b: BINARY_OPS[name][(a, b)] for b in VALUES} for a in VALUES}
    return {"connective": name, "table": table}, format_table(name).rstrip("\n")


def _parse_assignment(text):
    model = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise _UsageError(f"bad assignment {part!r}; expected name=value")
        name, _, value = part.partition("=")
        name, value = name.strip(), value.strip()
        if value not in ("0", "n", "b", "1"):
            raise _UsageError(f"bad truth value {value!r}; expected 0, n, b or 1")
        _check_variable(name, "assignment")
        if name in model:
            raise _UsageError(f"assignment gives {name} twice")
        model[name] = value
    return model


def _check_variable(name, where):
    """_UsageError unless a formula can contain name as a variable."""
    try:
        Var(name)
    except ValueError:
        raise _UsageError(f"bad variable name {name!r} in {where}")


def _universe(f, vars_option):
    names = sorted(variables(f))
    if vars_option is None:
        return names
    pinned = []
    for name in filter(None, (v.strip() for v in vars_option.split(","))):
        _check_variable(name, "--vars")
        if name in pinned:
            raise _UsageError(f"--vars gives {name} twice")
        pinned.append(name)
    missing = [n for n in names if n not in pinned]
    if missing:
        raise _UsageError(f"--vars must cover {', '.join(missing)}")
    return pinned


def _cmd_eval(args):
    if args.assign is not None and args.vars is not None:
        raise _UsageError("give --assign or --vars, not both")
    f = _read_formula_arg(args.formula)
    if args.assign is not None:
        model = _parse_assignment(args.assign)
        missing = sorted(set(variables(f)) - set(model))
        if missing:
            raise _UsageError(f"assignment misses {', '.join(missing)}")
        value = evaluate(f, model)
        return {"formula": render(f), "assignment": model, "value": value}, value
    names = _universe(f, args.vars)
    rows = truth_table(f, names)
    lines = []
    for h, v in rows:
        cells = " ".join(f"{n}={h[n]}" for n in names)
        lines.append(f"{cells}  ->  {v}" if cells else v)
    obj = {
        "formula": render(f),
        "variables": names,
        "rows": [{"assignment": h, "value": v} for h, v in rows],
    }
    return obj, "\n".join(lines)


def _judged(model, good, bad):
    """The output of a verdict: good when model is None, else bad with model
    as its countermodel."""
    if model is None:
        return {"verdict": good}, good.upper()
    return ({"verdict": bad, "countermodel": model},
            f"{bad.upper()}  countermodel: {_format_model(model)}")


def _cmd_valid(args):
    return _judged(countermodel(_read_formula_arg(args.formula)), "valid", "invalid")


def _cmd_countermodel(args):
    model = countermodel(_read_formula_arg(args.formula))
    if model is None:
        return {"verdict": "valid", "countermodel": None}, "VALID"
    return {"verdict": "invalid", "countermodel": model}, _format_model(model)


def _cmd_consequence(args):
    # The search joins the premises as a balanced & tree, so their number
    # sets no nesting depth; it stays bounded like every other input size.
    if len(args.premises) > MAX_DEPTH:
        raise _UsageError(f"more than {MAX_DEPTH} premises")
    premises = [_read_formula_arg(t) for t in args.premises]
    model = consequence_countermodel(premises, _read_formula_arg(args.to))
    return _judged(model, "holds", "fails")


def _cmd_prove(args):
    f = _read_formula_arg(args.formula)
    verdict = decide(f, Signature(args.system), derived=args.derived)
    model = None if isinstance(verdict, Proved) else verdict.model
    obj, text = _judged(model, "proved", "refuted")
    if args.emit_tableau:
        obj["tableau"] = format_tableau(verdict.tableau)
        text += "\n" + obj["tableau"].rstrip("\n")
    return obj, text


def _cmd_translate(args):
    g = translate(_read_formula_arg(args.formula), Signature(args.to))
    return {"formula": render(g)}, render(g)


def _load_proof(path):
    import json  # here and below, not at the top: only some commands read or write JSON

    data = _read_stdin() if path == "-" else _read_file(path)
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as e:
        raise _UsageError(f"bad proof JSON: {e}")
    except RecursionError:  # far past nd.MAX_PROOF_DEPTH
        raise _UsageError("bad proof JSON: nested too deep")
    try:
        return nd.from_json(obj)
    except ValueError as e:
        raise _UsageError(f"bad proof object: {e}")


def _cmd_nd_check(args):
    proof = _load_proof(args.file)
    judgement = nd.check(proof)
    opens = sorted(render(f) for f in judgement.open_assumptions)
    conclusion = render(judgement.conclusion)
    normal = nd.is_normal(proof)
    obj = {
        "verdict": "ok",
        "open_assumptions": opens,
        "conclusion": conclusion,
        "normal": normal,
    }
    context = ", ".join(opens)
    head = f"OK  {context} |- " if context else "OK  |- "
    return obj, f"{head}{conclusion}\nnormal: {'yes' if normal else 'no'}"


def _cmd_nd_normalize(args):
    import json

    proof = _load_proof(args.file)
    observer = None
    if args.trace:
        def observer(event):
            label = f" {event['formula']}" if event["formula"] else ""
            print(f"step {event['step']}: {event['kind']}{label} "
                  f"measure={event['measure']}", file=sys.stderr)
    result = nd.to_json(nd.normalize(proof, observer=observer))
    return {"verdict": "ok", "proof": result}, json.dumps(result, indent=2)


def _cmd_identities(args):
    results = list(run_identity_suites())
    held = sum(r.holds for _, _, r in results)
    lines = [f"{suite}/{name}: {'ok' if r.holds else f'FAIL at {r.witness}'}"
             for suite, name, r in results]
    lines.append(f"{held}/{len(results)} identities hold")
    obj = {
        "results": [
            {"suite": s, "name": n, "holds": r.holds, "witness": r.witness}
            for s, n, r in results
        ],
        "all_hold": held == len(results),
    }
    return obj, "\n".join(lines)


# --- parser and dispatch -------------------------------------------------------


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's stock formatter, except that it reads the terminal width
    when it formats help or usage, not when it is built.  argparse builds
    one per add_argument call only to check the metavar, and the stock
    formatter reads the width there, which imports shutil (and with it
    zlib, bz2, lzma and fnmatch) on every start."""

    def __init__(self, prog):
        super().__init__(prog, width=0)  # set for real in format_help

    def format_help(self):
        stock = argparse.HelpFormatter(self._prog)  # the width argparse reads now
        self._width, self._max_help_position = stock._width, stock._max_help_position
        return super().format_help()


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tml",
        description="Tetravalent modal logic: parsing, tables, validity, "
                    "tableaux and natural deduction.",
        formatter_class=_HelpFormatter,
    )
    # argparse would format a usage line to compute this prog.
    subs = parser.add_subparsers(dest="subcommand", required=True, prog="tml")

    def add(name, help):
        return subs.add_parser(name, help=help, formatter_class=_HelpFormatter)

    sp = add("parse", "parse a formula and print it back")
    sp.add_argument("formula")
    sp.set_defaults(func=_cmd_parse)

    sp = add("table", "print a connective's operation table")
    sp.add_argument("connective")
    sp.set_defaults(func=_cmd_table)

    sp = add("eval", "evaluate a formula")
    sp.add_argument("formula")
    sp.add_argument("--assign", help="valuation, e.g. p=n,q=b")
    sp.add_argument("--vars", help="pin and order the variable universe")
    sp.set_defaults(func=_cmd_eval)

    sp = add("valid", "test validity by brute force")
    sp.add_argument("formula")
    sp.set_defaults(func=_cmd_valid)

    sp = add("countermodel", "find a non-designating valuation")
    sp.add_argument("formula")
    sp.set_defaults(func=_cmd_countermodel)

    sp = add("consequence", "test semantic consequence")
    sp.add_argument("premises", nargs="*")
    sp.add_argument("--to", required=True, help="conclusion formula")
    sp.set_defaults(func=_cmd_consequence)

    sp = add("prove", "decide a formula with a signed tableau")
    sp.add_argument("formula")
    sp.add_argument("--system", choices=["succ", "full"], required=True)
    sp.add_argument("--derived", action="store_true",
                    help="use the derived two-premise rules (succ system)")
    sp.add_argument("--emit-tableau", action="store_true",
                    help="print the completed tableau")
    sp.set_defaults(func=_cmd_prove)

    sp = add("translate", "rewrite a formula into a signature")
    sp.add_argument("formula")
    sp.add_argument("--to", choices=["succ", "full"], required=True)
    sp.set_defaults(func=_cmd_translate)

    sp = add("nd-check", "check a natural deduction proof")
    sp.add_argument("file", help="proof JSON file, or - for stdin")
    sp.set_defaults(func=_cmd_nd_check)

    sp = add("nd-normalize", "normalize a natural deduction proof")
    sp.add_argument("file", help="proof JSON file, or - for stdin")
    sp.add_argument("--trace", action="store_true",
                    help="print each conversion and the measure to stderr")
    sp.set_defaults(func=_cmd_nd_normalize)

    sp = add("identities", "check the algebra identity suites")
    sp.set_defaults(func=_cmd_identities)

    for sp in subs.choices.values():
        sp.add_argument("--json", action="store_true", help="emit a JSON object")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        obj, text = args.func(args)
    except (nd.SchemaError, nd.DischargeError) as e:
        obj, text = {"verdict": "ill-formed", "error": str(e)}, f"ILL-FORMED  {e}"
    except Exception as e:
        for kinds, code, message in _ERROR_EXIT:
            if isinstance(e, kinds):
                print(message.format(e), file=sys.stderr)
                return code
        import traceback  # here, not at the top: it adds ~7 ms to every start-up

        traceback.print_exc()
        return 3
    if args.json:
        import json

        text = json.dumps({"schema": 1, **obj}, indent=2)
    code = _VERDICT_EXIT[obj.get("verdict")] if obj.get("all_hold", True) else 1
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull, so that the flush at
        # shutdown does not fail again, and keep the verdict's exit code.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
