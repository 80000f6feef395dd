"""Valuations and the brute-force semantic oracle.

A valuation is a plain dict mapping variable names to truth values.  The
consequence relation is order-based: premises entail a conclusion when, under
every valuation, the lattice meet of the premise values sits below the
conclusion value.  With no premises that meet is 1, so a valid formula is one
that is constantly 1.  (Constantly designated and constantly 1 coincide here:
swapping n and b is an automorphism, so a value of b somewhere forces a value
of n somewhere else.)

Every semantic check reduces to countermodel(), the one valuation search,
through the strong implication >, which internalizes the order: a <= b iff
a > b = 1.  Consequence searches the premises' meet > the conclusion, with
the meet as a balanced & tree, and the identity checks in algebra search
syntax.entailment(premises, conclusion) built from equations.

The same automorphism halves that search.  f is 1 under h iff it is 1 under
conjugate(h), and a valuation whose first n-or-b value is b comes after its
conjugate, whose first such value is n and which agrees with it before that.
So countermodel() evaluates only the valuations whose first n-or-b value is
n or that hold neither, (4**k + 2**k) / 2 of the 4**k, and still returns the
first countermodel in enumeration order: had a skipped valuation failed, its
conjugate would have failed first.
"""

import itertools

from .algebra import B, BOX, DIA, JOIN, MEET, N, NEG, ONE, SUCC, VALUES, ZERO
from .syntax import And, Bot, Box, Dia, Neg, Or, Succ, Top, Var, variables

MAX_VARIABLES = 12

CONJUGATE = {ZERO: ZERO, "n": "b", "b": "n", ONE: ONE}


class TooManyVariables(ValueError):
    """Raised instead of silently grinding through 4**k valuations."""


def evaluate(f, h):
    """Value of f under valuation h.  Raises KeyError on an unbound variable."""
    try:
        step = _EVALUATE[type(f)]
    except KeyError:
        raise TypeError(f"not a formula: {f!r}") from None
    return step(f, h)


def _variable(f, h):
    try:
        return h[f.name]
    except KeyError:
        raise KeyError(f"no binding for variable {f.name!r}") from None


# The oracle's inner loop.  syntax._fold would need a table per valuation.
_EVALUATE = {
    Var: _variable,
    Bot: lambda f, h: ZERO,
    Top: lambda f, h: ONE,
    Neg: lambda f, h: NEG[evaluate(f.body, h)],
    Box: lambda f, h: BOX[evaluate(f.body, h)],
    Dia: lambda f, h: DIA[evaluate(f.body, h)],
    And: lambda f, h: MEET[(evaluate(f.left, h), evaluate(f.right, h))],
    Or: lambda f, h: JOIN[(evaluate(f.left, h), evaluate(f.right, h))],
    Succ: lambda f, h: SUCC[(evaluate(f.left, h), evaluate(f.right, h))],
}


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
    if f is valid.

    A valuation whose first n-or-b value is b is not evaluated: its
    conjugate came earlier and was 1, so it is 1 too (module docstring).
    The all-0 valuation, first in the order, is evaluated before any test,
    so a formula that fails there costs what a full search would."""
    search = valuations(_guard(variables(f)))
    h = next(search)
    if evaluate(f, h) != ONE:
        return h
    for h in search:
        for v in h.values():
            if v == N or v == B:
                break
        if v == B:
            continue
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
    if not premises:
        return countermodel(conclusion)
    return countermodel(Succ(_meet(premises), conclusion))


def _meet(premises):
    """The premises joined by & as a balanced tree, so that evaluate recurses
    to a depth logarithmic in their number.  & is associative and
    commutative, so every shape takes the same values; up to three premises
    the tree is the left-deep one of syntax.entailment."""
    if len(premises) == 1:
        return premises[0]
    half = (len(premises) + 1) // 2
    return And(_meet(premises[:half]), _meet(premises[half:]))


def conjugate(h):
    """Pointwise n<->b swap.  This is an automorphism of the algebra, so
    evaluate(f, conjugate(h)) == CONJUGATE[evaluate(f, h)]."""
    return {name: CONJUGATE[v] for name, v in h.items()}


def truth_table(f, names=None):
    """Rows (valuation, value) over the given variable universe (default: the
    variables of f)."""
    if names is None:
        names = variables(f)
    else:
        names = set(names) | set(variables(f))
    _guard(names)
    return [(h, evaluate(f, h)) for h in valuations(names)]
