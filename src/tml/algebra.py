"""The four-element modal algebra the whole package computes over.

Carrier {0, n, b, 1}: 0 and 1 are classical falsity/truth, n is "neither"
(undetermined), b is "both" (overdetermined).  The lattice order puts n and b
incomparable between 0 and 1.  Negation swaps 0 and 1 and fixes n and b; the
modality collapses everything but 1 to 0.  Truth means taking a designated
value, i.e. one of {b, 1}.
"""

from collections import namedtuple

from .syntax import And, Box, Succ, entailment, parse

ZERO, N, B, ONE = "0", "n", "b", "1"

# Enumeration order used everywhere a "first" or "least" value is needed.
VALUES = (ZERO, N, B, ONE)

DESIGNATED = frozenset({B, ONE})

# Lattice order as an explicit relation: n and b sit incomparable between 0 and 1.
_LEQ_PAIRS = frozenset(
    [(v, v) for v in VALUES]
    + [(ZERO, N), (ZERO, B), (ZERO, ONE), (N, ONE), (B, ONE)]
)

NEG = {ZERO: ONE, N: N, B: B, ONE: ZERO}

BOX = {ZERO: ZERO, N: ZERO, B: ZERO, ONE: ONE}

# Possibility as the dual of BOX under NEG.
DIA = {v: NEG[BOX[NEG[v]]] for v in VALUES}

MEET = {
    (ZERO, ZERO): ZERO, (ZERO, N): ZERO, (ZERO, B): ZERO, (ZERO, ONE): ZERO,
    (N, ZERO): ZERO,    (N, N): N,       (N, B): ZERO,    (N, ONE): N,
    (B, ZERO): ZERO,    (B, N): ZERO,    (B, B): B,       (B, ONE): B,
    (ONE, ZERO): ZERO,  (ONE, N): N,     (ONE, B): B,     (ONE, ONE): ONE,
}

JOIN = {
    (ZERO, ZERO): ZERO, (ZERO, N): N,   (ZERO, B): B,   (ZERO, ONE): ONE,
    (N, ZERO): N,       (N, N): N,      (N, B): ONE,    (N, ONE): ONE,
    (B, ZERO): B,       (B, N): ONE,    (B, B): B,      (B, ONE): ONE,
    (ONE, ZERO): ONE,   (ONE, N): ONE,  (ONE, B): ONE,  (ONE, ONE): ONE,
}

# The strong implication, kept as an explicit table (first argument = row).
# It is *not* definable from meet/join/neg/box pointwise composition alone,
# so the table is the ground truth; tests tie it to its defining formula.
SUCC = {
    (ZERO, ZERO): ONE, (ZERO, N): ONE, (ZERO, B): ONE, (ZERO, ONE): ONE,
    (N, ZERO): N,      (N, N): ONE,    (N, B): B,      (N, ONE): ONE,
    (B, ZERO): B,      (B, N): N,      (B, B): ONE,    (B, ONE): ONE,
    (ONE, ZERO): ZERO, (ONE, N): N,    (ONE, B): B,    (ONE, ONE): ONE,
}

UNARY_OPS = {"neg": NEG, "box": BOX, "dia": DIA}
BINARY_OPS = {"and": MEET, "or": JOIN, "succ": SUCC}
NULLARY_OPS = {"bot": ZERO, "top": ONE}

OP_NAMES = tuple(NULLARY_OPS) + tuple(UNARY_OPS) + tuple(BINARY_OPS)


def designated(v):
    """True iff v counts as true (b or 1)."""
    return v in DESIGNATED


def leq(a, b):
    """Lattice order: a <= b in the four-element lattice."""
    _check(a)
    _check(b)
    return (a, b) in _LEQ_PAIRS


def apply_op(name, *args):
    """Apply a connective by name ('neg', 'box', 'dia', 'and', 'or', 'succ',
    'bot', 'top') to truth values.  Raises ValueError on unknown names or
    arity mismatch."""
    if name in NULLARY_OPS:
        if args:
            raise ValueError(f"{name} takes no arguments, got {len(args)}")
        return NULLARY_OPS[name]
    if name in UNARY_OPS:
        if len(args) != 1:
            raise ValueError(f"{name} takes 1 argument, got {len(args)}")
        _check(args[0])
        return UNARY_OPS[name][args[0]]
    if name in BINARY_OPS:
        if len(args) != 2:
            raise ValueError(f"{name} takes 2 arguments, got {len(args)}")
        _check(args[0])
        _check(args[1])
        return BINARY_OPS[name][args]
    raise ValueError(f"unknown connective {name!r}")


def _check(v):
    if v not in VALUES:
        raise ValueError(f"not a truth value: {v!r}")


class IdentityResult(namedtuple("IdentityResult", ("holds", "witness"))):
    """Whether an identity holds, and the first valuation where it fails
    (None when it holds).  Truthy iff it holds."""

    __slots__ = ()

    def __bool__(self):
        return self.holds


def check_identity(lhs, rhs):
    """Do two formulas take equal values under every valuation of their
    combined variables (4**k cases; above semantics.MAX_VARIABLES it raises
    TooManyVariables)?  On failure the result carries the first
    counterexample in enumeration order."""
    return check_quasi_identity((), lhs, rhs)


def check_quasi_identity(hypotheses, lhs, rhs):
    """Like check_identity, but only over valuations that make each hypothesis
    pair (l, r) evaluate equal."""
    # Late import: semantics builds on this module.
    from .semantics import countermodel

    premises = [Box(_equation(l, r)) for l, r in hypotheses]
    witness = countermodel(entailment(premises, _equation(lhs, rhs)))
    return IdentityResult(witness is None, witness)


def _equation(x, y):
    """(x > y) & (y > x): 1 where x = y and below 1 elsewhere, so under [] it is
    1 or 0, and a meet of boxed equations is 1 exactly where all of them hold."""
    return And(Succ(x, y), Succ(y, x))


# Named identity suites, kept as concrete syntax so they double as CLI output
# and as frozen test data.  Every entry must hold in the algebra.
IDENTITY_SUITES = {
    "axioms": [
        ("necessity conflicts with negation", "[]a & ~a", "bot"),
        ("failed necessity", "~[]a & a", "~a & a"),
    ],
    "modal": [
        ("i", "~[]a | a", "top"),
        ("ii", "[][]a", "[]a"),
        ("iii", "[]a | ~a", "a | ~a"),
        ("iv", "[](a & b)", "[]a & []b"),
        ("v", "[]a | ~[]a", "top"),
        ("vi", "[](a | []b)", "[]a | []b"),
        ("vii", "[]a & ~[]a", "bot"),
        ("viii", "[]~[]a", "~[]a"),
        ("ix", "[]a & a", "[]a"),
        ("x", "a & []~a", "bot"),
        ("xi", "[]top", "top"),
        ("xii", "[]([]a & []b)", "[]a & []b"),
        ("xiii", "[]bot", "bot"),
        ("xiv", "[]([]a | []b)", "[]a | []b"),
    ],
    "lattice": [
        ("involution", "~~a", "a"),
        ("de morgan or", "~(a | b)", "~a & ~b"),
        ("de morgan and", "~(a & b)", "~a | ~b"),
    ],
    "definability": [
        ("i", "top", "bot > bot"),
        ("ii", "~x", "x > bot"),
        ("iii", "x | y", "(x > y) > y"),
        ("iv", "x & y", "~(~x | ~y)"),
        ("v", "[]x", "~(x > ~x)"),
        ("possibility", "<>x", "~x > x"),
    ],
    "implication": [
        ("c1", "(bot > bot) > x", "x"),
        ("c2", "x > (bot > bot)", "top"),
        ("c3", "(x > y) > y", "(y > x) > x"),
        ("c5", "((x > (x > y)) > x) > x", "top"),
        ("c6", "bot > x", "top"),
        ("c7", "x > bot", "~x"),
        ("c8", "((x & y) > z) > ((x > z) | (y > z))", "top"),
    ],
}

# (name, [(hyp_lhs, hyp_rhs), ...], lhs, rhs): lhs = rhs whenever all
# hypotheses hold.
QUASI_IDENTITIES = [
    ("c4", [("x > (y > z)", "top")], "y > (x > z)", "top"),
]


def run_identity_suites():
    """Check every suite entry; yields (suite, name, IdentityResult)."""
    for suite, entries in IDENTITY_SUITES.items():
        for name, lhs, rhs in entries:
            yield suite, name, check_identity(parse(lhs), parse(rhs))
    for name, hyps, lhs, rhs in QUASI_IDENTITIES:
        parsed = [(parse(l), parse(r)) for l, r in hyps]
        yield "implication", name, check_quasi_identity(parsed, parse(lhs), parse(rhs))


def format_table(name):
    """Render a connective's table, rows = first argument, as plain text."""
    if name in NULLARY_OPS:
        return f"{name} = {NULLARY_OPS[name]}\n"
    if name in UNARY_OPS:
        table = UNARY_OPS[name]
        lines = [f"{name:>4} |"] + [f"{v:>4} | {table[v]}" for v in VALUES]
        return "\n".join(lines) + "\n"
    if name in BINARY_OPS:
        table = BINARY_OPS[name]
        header = f"{name:>4} | " + "  ".join(VALUES)
        rule = "-" * len(header)
        lines = [header, rule]
        for row in VALUES:
            lines.append(f"{row:>4} | " + "  ".join(table[(row, col)] for col in VALUES))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown connective {name!r}")
