"""Valuations and the brute-force semantic oracle.

A valuation is a plain dict mapping variable names to truth values.  The
consequence relation is order-based: premises entail a conclusion when, under
every valuation, the lattice meet of the premise values sits below the
conclusion value.  With no premises that meet is 1, so a valid formula is one
that is constantly 1.  (Constantly designated and constantly 1 coincide here:
swapping n and b is an automorphism, so a value of b somewhere forces a value
of n somewhere else.)
"""

import itertools

from .algebra import (
    BOX,
    DESIGNATED,
    DIA,
    JOIN,
    MEET,
    NEG,
    ONE,
    SUCC,
    VALUES,
    ZERO,
    leq,
)
from .syntax import And, Bot, Box, Dia, Neg, Or, Succ, Top, Var, variables

MAX_VARIABLES = 12

CONJUGATE = {ZERO: ZERO, "n": "b", "b": "n", ONE: ONE}


class TooManyVariables(ValueError):
    """Raised instead of silently grinding through 4**k valuations."""


def evaluate(f, h):
    """Value of f under valuation h.  Raises KeyError on an unbound variable."""
    if isinstance(f, Var):
        try:
            return h[f.name]
        except KeyError:
            raise KeyError(f"no binding for variable {f.name!r}") from None
    if isinstance(f, Neg):
        return NEG[evaluate(f.body, h)]
    if isinstance(f, And):
        return MEET[(evaluate(f.left, h), evaluate(f.right, h))]
    if isinstance(f, Or):
        return JOIN[(evaluate(f.left, h), evaluate(f.right, h))]
    if isinstance(f, Succ):
        return SUCC[(evaluate(f.left, h), evaluate(f.right, h))]
    if isinstance(f, Box):
        return BOX[evaluate(f.body, h)]
    if isinstance(f, Dia):
        return DIA[evaluate(f.body, h)]
    if isinstance(f, Bot):
        return ZERO
    if isinstance(f, Top):
        return ONE
    raise TypeError(f"not a formula: {f!r}")


def valuations(names):
    """All valuations of the given variables.  Order: names sorted
    alphabetically, values cycling 0,n,b,1 with the last name fastest."""
    names = sorted(names)
    for combo in itertools.product(VALUES, repeat=len(names)):
        yield dict(zip(names, combo))


def _guard(names):
    if len(names) > MAX_VARIABLES:
        raise TooManyVariables(
            f"{len(names)} variables would need 4**{len(names)} valuations "
            f"(limit {MAX_VARIABLES})"
        )
    return names


def valid(f):
    """True iff f evaluates to 1 under every valuation of its variables."""
    return countermodel(f) is None


def countermodel(f):
    """First valuation (enumeration order) under which f is not 1, or None
    if f is valid."""
    names = _guard(variables(f))
    for h in valuations(names):
        if evaluate(f, h) != ONE:
            return h
    return None


def consequence(premises, conclusion):
    """True iff under every valuation the meet of the premise values is below
    the conclusion value.  With no premises this is validity of the conclusion."""
    return consequence_countermodel(premises, conclusion) is None


def consequence_countermodel(premises, conclusion):
    """First valuation where the meet of the premise values does not sit below
    the conclusion value, or None if the consequence holds."""
    premises = list(premises)
    names = set(variables(conclusion))
    for p in premises:
        names |= variables(p)
    _guard(names)
    for h in valuations(names):
        bound = ONE
        for p in premises:
            bound = MEET[(bound, evaluate(p, h))]
        if not leq(bound, evaluate(conclusion, h)):
            return h
    return None


def conjugate(h):
    """Pointwise n<->b swap.  This is an automorphism of the algebra, so
    evaluate(f, conjugate(h)) == CONJUGATE[evaluate(f, h)]."""
    return {name: CONJUGATE[v] for name, v in h.items()}


def format_valuation(h):
    return ", ".join(f"{name}={h[name]}" for name in sorted(h))


def truth_table(f, names=None):
    """Rows (valuation, value) over the given variable universe (default: the
    variables of f)."""
    if names is None:
        names = variables(f)
    else:
        names = set(names) | set(variables(f))
    _guard(names)
    return [(h, evaluate(f, h)) for h in valuations(names)]
