"""Tetravalent modal logic toolkit.

Four truth values (0, n, b, 1), a strong implication, one modality; formula
parsing and printing in two signatures, a brute-force semantic oracle, two
signed tableau calculi with countermodel extraction, and a natural deduction
checker with a normalization procedure.
"""

from .algebra import (
    B,
    DESIGNATED,
    N,
    ONE,
    VALUES,
    ZERO,
    apply_op,
    check_identity,
    designated,
    leq,
)
from .semantics import (
    TooManyVariables,
    conjugate,
    consequence,
    consequence_countermodel,
    countermodel,
    evaluate,
    valid,
    valuations,
)
from .errors import InvariantViolation
from .nd import (
    MA,
    Assume,
    DischargeError,
    Judgement,
    Rule,
    SchemaError,
    atomize_bot,
    builtin_examples,
    check,
    is_normal,
    normalize,
)
from .syntax import (
    BOT,
    TOP,
    And,
    Bot,
    Box,
    Dia,
    Formula,
    Neg,
    Or,
    ParseError,
    Signature,
    SignatureError,
    Succ,
    Top,
    Var,
    complexity,
    degree,
    in_signature,
    parse,
    render,
    translate,
    variables,
)
from .tableau import (
    F,
    Proved,
    Refuted,
    SignedFormula,
    T,
    Tableau,
    complete,
    decide,
    decide_consequence,
    extract_model,
    format_tableau,
)

__version__ = "0.1.0"
