"""Seeded random formula generators shared across the test modules,
references for what the library computes faster: a formula's signature
bits, a tableau's root node, countermodel extraction and the cut analysis
of natural deduction proofs, and one conversion step at a cut that
nd.analyze reports."""

from tml import nd, tableau
from tml.algebra import VALUES
from tml.errors import InvariantViolation
from tml.syntax import (
    BOT,
    IN_FULL,
    IN_ND,
    IN_SUCC,
    TOP,
    And,
    Bot,
    Box,
    Dia,
    Neg,
    Or,
    Succ,
    Top,
    Var,
    complexity,
    subformulas,
)

FULL_OPS = ("neg", "box", "dia", "and", "or")
SUCC_OPS = ("neg", "succ")
MIXED_OPS = FULL_OPS + ("succ",)

_OP_TABLES = {"full": FULL_OPS, "succ": SUCC_OPS, "mixed": MIXED_OPS}


def random_formula(rng, names=("p", "q", "r"), depth=4, ops="mixed"):
    """A random formula of nesting depth at most `depth`.  `ops` picks the
    connective pool: 'full', 'succ', 'mixed', or an explicit tuple."""
    table = _OP_TABLES.get(ops, ops)
    if depth <= 0 or rng.random() < 0.2:
        r = rng.random()
        if r < 0.8:
            return Var(rng.choice(names))
        if ops == "succ" or r < 0.9:
            return BOT
        return TOP
    op = rng.choice(table)
    if op == "neg":
        return Neg(random_formula(rng, names, depth - 1, ops))
    if op == "box":
        return Box(random_formula(rng, names, depth - 1, ops))
    if op == "dia":
        return Dia(random_formula(rng, names, depth - 1, ops))
    a = random_formula(rng, names, depth - 1, ops)
    b = random_formula(rng, names, depth - 1, ops)
    return {"and": And, "or": Or, "succ": Succ}[op](a, b)


def modal_ladder(k, l, m, n):
    """The schema with k diamonds over l boxes on the left of > and m boxes
    over n diamonds on the right, all on the variable p."""
    f = Var("p")
    for _ in range(l):
        f = Box(f)
    for _ in range(k):
        f = Dia(f)
    g = Var("p")
    for _ in range(n):
        g = Dia(g)
    for _ in range(m):
        g = Box(g)
    return Succ(f, g)


def fold_and(formulas):
    formulas = list(formulas)
    acc = formulas[0]
    for f in formulas[1:]:
        acc = And(acc, f)
    return acc


# The rule sets of the proof system, written out rule by rule, so that the
# reference below does not share nd's reading of them off its schemas.
I_TAGS = frozenset(
    ["AndI", "NegAndI1", "NegAndI2", "OrI1", "OrI2", "NegOrI",
     "NegNegI", "BoxI", "NegBoxI", "BotI"]
)
E_TAGS = frozenset(
    ["AndE1", "AndE2", "NegAndE", "OrE", "NegOrE1", "NegOrE2",
     "NegNegE", "BoxE", "NegBoxE", "BotE"]
)
DEL_TAGS = frozenset(["OrE", "NegAndE"])
CUT_E_TAGS = E_TAGS - frozenset(["BotE"])


def reference_analyze(proof):
    """nd.analyze as a plain two-pass algorithm: index every node by its
    path, chain each non-del occurrence down through del-rule minor
    premises, then classify the chains that end at an elimination's major
    premise."""
    nodes = {}

    def index(t, path):
        nodes[path] = t
        if isinstance(t, nd.Rule):
            for i, p in enumerate(t.premises):
                index(p, path + (i,))

    def is_del(t):
        return isinstance(t, nd.Rule) and t.tag in DEL_TAGS

    index(proof, ())
    segments = []
    for path, t in nodes.items():
        if is_del(t):
            continue
        positions = [path]
        while positions[-1] and positions[-1][-1] in (1, 2) and is_del(nodes[positions[-1][:-1]]):
            positions.append(positions[-1][:-1])
        segments.append(nd.Segment(nd.conclusion_of(t), tuple(positions)))
    cuts = []
    for seg in segments:
        end = seg.positions[-1]
        if not end:
            continue
        consumer = nodes[end[:-1]]
        if not (isinstance(consumer, nd.Rule) and consumer.tag in CUT_E_TAGS and end[-1] == 0):
            continue
        start = nodes[seg.positions[0]]
        if seg.length > 1 or (isinstance(start, nd.Rule) and start.tag in I_TAGS):
            cuts.append(seg)
    cutrank = max((complexity(s.formula) for s in cuts), default=0)
    critical = tuple(s for s in cuts if complexity(s.formula) == cutrank)
    return nd.CutReport(tuple(segments), tuple(cuts), cutrank, critical)


def convert_at(proof, cut):
    """The (proof, kind) of one conversion step at cut, a cut segment of
    nd.analyze(proof)."""
    memo, ranks = {}, {}
    nd._summarize(proof, memo, ranks)
    out, kind, _ = nd._convert(proof, cut.positions[0], cut.length, nd._fresh_markers(proof),
                               memo, ranks)
    return out, kind


# The node types of each language, keyed by its signature bit.
LANGUAGE_TYPES = {
    IN_FULL: frozenset([Var, Bot, Top, Neg, And, Or, Box]),
    IN_SUCC: frozenset([Var, Bot, Neg, Succ]),
    IN_ND: frozenset([Var, Bot, Neg, And, Or, Box]),
}


def reference_sig(f):
    """f's signature bits by a walk: a language's bit is set when every
    distinct node of f has one of its types."""
    return sum(bit for bit, types in LANGUAGE_TYPES.items()
               if all(type(g) in types for g in subformulas(f)))


def reference_extract_model(branch, names=()):
    """tableau.extract_model as a plain loop: each signed formula over a
    variable or a negated variable narrows that variable to the values that
    satisfy it, and each variable takes the first value of VALUES left."""
    if branch.closed:
        raise ValueError("cannot extract a model from a closed branch")
    constraints = {}
    for sf in branch.formulas:
        f = sf.formula
        atom = f.body if type(f) is Neg else f
        if type(atom) is not Var:
            continue
        allowed = frozenset(v for v in VALUES if tableau.satisfies({atom.name: v}, sf))
        constraints[atom.name] = constraints.get(atom.name, frozenset(VALUES)) & allowed
    model = {}
    for name in sorted(set(names) | set(constraints)):
        allowed = constraints.get(name, frozenset(VALUES))
        if not allowed:
            raise InvariantViolation(f"open branch forces contradictory values for {name!r}")
        model[name] = next(v for v in VALUES if v in allowed)
    return model


def reference_branch(signed):
    """What the root of a tableau over the signed formulas holds, recorded
    one signed formula at a time on plain lists: (added, pending,
    closed_by).  A formula already there is skipped, and the first that is a
    closing constant or meets its complement ends the branch."""
    added, pending = [], []
    for sf in signed:
        if sf in added:
            continue
        added.append(sf)
        complement = tableau.SignedFormula("F" if sf.sign == "T" else "T", sf.formula)
        if sf._kind is tableau._CLOSES:
            return added, pending, (sf, None)
        if complement in added:
            return added, pending, (sf, complement)
        if sf._kind is tableau._EXPANDS:
            pending.append(sf)
    return added, pending, None
