"""Tetravalent modal logic toolkit.

Four truth values (0, n, b, 1), a strong implication, one modality; formula
parsing and printing in two signatures, a brute-force semantic oracle, two
signed tableau calculi with countermodel extraction, and a natural deduction
checker with a normalization procedure.

`import tml` loads none of the submodules.  Each name below, and each
submodule (`tml.nd`, `tml.tableau`, ...), loads its module on first use
(PEP 562), so a command line that decides nothing never loads the tableau
code, and one that checks no proof never loads `tml.nd`.
"""

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "algebra": "B DESIGNATED N ONE VALUES ZERO apply_op check_identity designated leq",
    "semantics": "TooManyVariables conjugate consequence consequence_countermodel "
                 "countermodel evaluate valid valuations",
    "errors": "InvariantViolation",
    "nd": "MA Assume DischargeError Judgement Rule SchemaError atomize_bot "
          "builtin_examples check is_normal normalize",
    "syntax": "BOT TOP And Bot Box Dia Formula Neg Or ParseError Signature SignatureError "
              "Succ Top Var complexity degree in_signature parse render translate variables",
    "tableau": "F Proved Refuted SignedFormula T Tableau complete decide decide_consequence "
               "extract_model format_tableau",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = (*_EXPORTS, "cli", "hashcons")

__all__ = list(_HOME)


def __getattr__(name):
    home = _HOME.get(name, name)
    if home not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import sys

    # Not importlib.import_module: importlib loads warnings, which a start-up
    # outside `python -m` has not loaded.  The import binds the submodule as
    # a global of this package.
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    if home == name:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
