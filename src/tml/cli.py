"""Command line front end.

Exit codes: 0 success (valid, proved, holds, well-formed), 1 negative verdict
(invalid, refuted, fails, ill-formed proof), 2 bad input (usage or parse
errors, too many variables, formulas nested too deep, malformed proofs), 3 a
broken internal invariant or any other internal error.  `--json` switches any
subcommand to a JSON object tagged with "schema": 1.  Formula arguments may be
given as `@path` to read the formula text from a file.
"""

import os
import sys
from types import SimpleNamespace

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

# tml.nd and tml.tableau are imported in the handlers that use them, so that
# no other command loads them.  The handlers call parse, decide, countermodel
# and consequence_countermodel through this module's globals, where
# perfbench's traced pass swaps them.

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


def decide(f, system, derived=False):
    """tml.tableau.decide, loaded on the first call."""
    from .tableau import decide

    return decide(f, system, derived=derived)


def _cmd_prove(args):
    from .tableau import Proved, format_tableau

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


def _ill_formed(e):
    """The verdict on a proof that nd.check rejects with e."""
    return {"verdict": "ill-formed", "error": str(e)}, f"ILL-FORMED  {e}"


def _load_proof(path):
    import json  # here and below, not at the top: only some commands read or write JSON

    from . import nd

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
    from . import nd

    proof = _load_proof(args.file)
    try:
        judgement, normal = nd.check(proof), nd.is_normal(proof)
    except (nd.SchemaError, nd.DischargeError) as e:
        return _ill_formed(e)
    opens = sorted(render(f) for f in judgement.open_assumptions)
    conclusion = render(judgement.conclusion)
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

    from . import nd

    proof = _load_proof(args.file)
    observer = None
    if args.trace:
        def observer(event):
            label = f" {event['formula']}" if event["formula"] else ""
            print(f"step {event['step']}: {event['kind']}{label} "
                  f"measure={event['measure']}", file=sys.stderr)
    try:
        result = nd.to_json(nd.normalize(proof, observer=observer))
    except (nd.SchemaError, nd.DischargeError) as e:
        return _ill_formed(e)
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


# --- grammar, parser and dispatch ----------------------------------------------
#
# _COMMANDS declares the command line once.  build_parser builds argparse
# from it, and _fast_parse reads it to parse the common command lines
# without loading argparse (and with it gettext and locale).  Each
# subcommand has its help, its handler, its positionals (name, nargs, help)
# and its options (flag, takes a value, choices, required, help); every
# subcommand also takes --json.  A command has either one positional with
# nargs "*" or only positionals that take one word each.

_FORMULA = ("formula", None, None)
_PROOF_FILE = ("file", None, "proof JSON file, or - for stdin")
_JSON = ("--json", False, None, False, "emit a JSON object")
_SIGNATURES = ("succ", "full")

_COMMANDS = {
    "parse": ("parse a formula and print it back", _cmd_parse, (_FORMULA,), ()),
    "table": ("print a connective's operation table", _cmd_table,
              (("connective", None, None),), ()),
    "eval": ("evaluate a formula", _cmd_eval, (_FORMULA,), (
        ("--assign", True, None, False, "valuation, e.g. p=n,q=b"),
        ("--vars", True, None, False, "pin and order the variable universe"),
    )),
    "valid": ("test validity by brute force", _cmd_valid, (_FORMULA,), ()),
    "countermodel": ("find a non-designating valuation", _cmd_countermodel, (_FORMULA,), ()),
    "consequence": ("test semantic consequence", _cmd_consequence, (("premises", "*", None),), (
        ("--to", True, None, True, "conclusion formula"),
    )),
    "prove": ("decide a formula with a signed tableau", _cmd_prove, (_FORMULA,), (
        ("--system", True, _SIGNATURES, True, None),
        ("--derived", False, None, False, "use the derived two-premise rules (succ system)"),
        ("--emit-tableau", False, None, False, "print the completed tableau"),
    )),
    "translate": ("rewrite a formula into a signature", _cmd_translate, (_FORMULA,), (
        ("--to", True, _SIGNATURES, True, None),
    )),
    "nd-check": ("check a natural deduction proof", _cmd_nd_check, (_PROOF_FILE,), ()),
    "nd-normalize": ("normalize a natural deduction proof", _cmd_nd_normalize, (_PROOF_FILE,), (
        ("--trace", False, None, False, "print each conversion and the measure to stderr"),
    )),
    "identities": ("check the algebra identity suites", _cmd_identities, (), ()),
}


def _fast_parse(argv):
    """The namespace build_parser().parse_args(argv) returns, read off
    _COMMANDS without argparse; None for any argv that is not a plain
    command line.  Plain means: a subcommand, then its positionals and
    exact option flags, each option that takes a value followed by one that
    does not start with '-', and in the command with a "*" positional no
    positional after an option.  Help, abbreviations, --opt=value, '--',
    words like -1 that start with '-', and every usage error are None, so
    argparse parses them and prints what it prints."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, positionals, options = _COMMANDS[argv[0]]
    # argparse's attribute for a long option: --emit-tableau sets emit_tableau.
    flags = {flag: (flag[2:].replace("-", "_"), takes_value, choices)
             for flag, takes_value, choices, _, _ in (*options, _JSON)}
    values = {dest: None if takes_value else False for dest, takes_value, _ in flags.values()}
    star = [name for name, nargs, _ in positionals if nargs == "*"]
    words, given = [], set()
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-") and token != "-":
            if token not in flags:
                return None
            dest, takes_value, choices = flags[token]
            value = True
            if takes_value:
                value = next(tokens, "-")  # a missing value reads as one that starts with '-'
                if value.startswith("-") or choices and value not in choices:
                    return None
            values[dest] = value
            given.add(token)
        elif star and given:
            return None
        else:
            words.append(token)
    if any(required and flag not in given for flag, _, _, required, _ in options):
        return None
    if star:
        values[star[0]] = words
    elif len(words) == len(positionals):
        values.update(zip((name for name, _, _ in positionals), words))
    else:
        return None
    return SimpleNamespace(subcommand=argv[0], func=func, **values)


_HelpFormatter = None
"""The help formatter class build_parser uses when set; None means its own,
which reads the terminal width late.  The tests set argparse's stock one to
compare tml's help and usage text with argparse's."""


def build_parser():
    import argparse  # here, not at the top: only help and usage errors need it

    class LateWidthFormatter(argparse.HelpFormatter):
        """argparse's stock formatter, except that it reads the terminal
        width when it formats help or usage, not when it is built.  argparse
        builds one per add_argument call only to check the metavar, and the
        stock formatter reads the width there, which imports shutil (and with
        it zlib, bz2, lzma and fnmatch)."""

        def __init__(self, prog):
            super().__init__(prog, width=0)  # set for real in format_help

        def format_help(self):
            stock = argparse.HelpFormatter(self._prog)  # the width argparse reads now
            self._width, self._max_help_position = stock._width, stock._max_help_position
            return super().format_help()

    formatter = _HelpFormatter or LateWidthFormatter
    parser = argparse.ArgumentParser(
        prog="tml",
        description="Tetravalent modal logic: parsing, tables, validity, "
                    "tableaux and natural deduction.",
        formatter_class=formatter,
    )
    # argparse would format a usage line to compute this prog.
    subs = parser.add_subparsers(dest="subcommand", required=True, prog="tml")
    for name, (help, func, positionals, options) in _COMMANDS.items():
        sp = subs.add_parser(name, help=help, formatter_class=formatter)
        for dest, nargs, help in positionals:
            sp.add_argument(dest, nargs=nargs, help=help)
        for flag, takes_value, choices, required, help in (*options, _JSON):
            if takes_value:
                sp.add_argument(flag, choices=choices, required=required, help=help)
            else:
                sp.add_argument(flag, action="store_true", help=help)
        sp.set_defaults(func=func)
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_parse(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:
            return 0 if e.code in (0, None) else 2
    try:
        obj, text = args.func(args)
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
