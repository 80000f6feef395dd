"""Natural deduction: proof trees, checking, cut analysis, normalization.

Proofs live in the {bot, variables, ~, &, |, []} fragment.  A tree is built
from Assume leaves (optionally marked for later discharge), MA leaves (the
axiom f | ~[]f), and Rule nodes.  check() validates every node against its
rule schema and the discharge discipline and returns the judgement; analyze()
finds segments and cuts; normalize() removes all critical cuts, first pushing
bot-eliminations down to literals with atomize_bot().

Discharge discipline: a marker names one assumption class (all its Assume
leaves carry the same formula); each marker is discharged by at most one rule
application, whose scope premise must contain every open occurrence; empty
classes (vacuous discharge) are fine.
"""

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .errors import InvariantViolation
from .syntax import (
    And,
    Bot,
    Box,
    Neg,
    Or,
    Var,
    complexity,
    parse,
    render,
    subformulas,
)


class SchemaError(ValueError):
    """A proof node does not match its rule schema (wrong premise shapes,
    wrong conclusion, a connective outside the proof language, ...)."""


class DischargeError(ValueError):
    """Marker misuse: reuse across discharging applications, inconsistent
    class formulas, or an occurrence outside the discharging scope."""


@dataclass(frozen=True)
class Assume:
    formula: object
    marker: Optional[str] = None


@dataclass(frozen=True)
class MA:
    """Axiom leaf: formula must have the shape f | ~[]f."""

    formula: object


@dataclass(frozen=True)
class Rule:
    tag: str
    conclusion: object
    premises: tuple
    discharges: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "premises", tuple(self.premises))
        object.__setattr__(self, "discharges", tuple(self.discharges))


@dataclass(frozen=True)
class Judgement:
    open_assumptions: frozenset
    conclusion: object


I_TAGS = frozenset(
    ["AndI", "NegAndI1", "NegAndI2", "OrI1", "OrI2", "NegOrI",
     "NegNegI", "BoxI", "NegBoxI", "BotI"]
)
E_TAGS = frozenset(
    ["AndE1", "AndE2", "NegAndE", "OrE", "NegOrE1", "NegOrE2",
     "NegNegE", "BoxE", "NegBoxE", "BotE"]
)
TAGS = I_TAGS | E_TAGS
DEL_TAGS = frozenset(["OrE", "NegAndE"])
# Cuts end at major premises of these rules.  BotE is excluded: a BotE
# conclusion is never "introduced" by a matching I-rule, and its conversions
# are the business of atomize_bot instead.
CUT_E_TAGS = E_TAGS - frozenset(["BotE"])
# Which premise index each discharge entry scopes over, per rule.
DISCHARGE_SCOPES = {"OrE": (1, 2), "NegAndE": (1, 2), "BoxI": (1,)}

_ALLOWED_FORMULA_TYPES = frozenset([Var, Bot, Neg, And, Or, Box])


def conclusion_of(tree):
    if isinstance(tree, (Assume, MA)):
        return tree.formula
    return tree.conclusion


def _check_language(f):
    for g in subformulas(f):
        if type(g) not in _ALLOWED_FORMULA_TYPES:
            raise SchemaError(
                f"formula {render(g)} is outside the proof language "
                "(bot, variables, ~, &, |, [])"
            )


def _expect(condition, message):
    if not condition:
        raise SchemaError(message)


def _schema_check(node):
    """Shape-check one Rule node (premise conclusions vs conclusion vs
    discharge formulas).  Assumes premises have been checked already."""
    tag = node.tag
    if tag not in TAGS:
        raise SchemaError(f"unknown rule tag {tag!r}")
    prems = [conclusion_of(p) for p in node.premises]
    c = node.conclusion
    want_discharges = DISCHARGE_SCOPES.get(tag, ())
    _expect(
        len(node.discharges) == len(want_discharges),
        f"{tag} takes {len(want_discharges)} discharge(s), "
        f"got {len(node.discharges)}",
    )

    def arity(n):
        _expect(len(prems) == n, f"{tag} takes {n} premise(s), got {len(prems)}")

    if tag == "AndI":
        arity(2)
        _expect(c == And(prems[0], prems[1]), "AndI conclusion must conjoin the premises")
    elif tag in ("AndE1", "AndE2"):
        arity(1)
        _expect(isinstance(prems[0], And), f"{tag} premise must be a conjunction")
        part = prems[0].left if tag == "AndE1" else prems[0].right
        _expect(c == part, f"{tag} conclusion must be that side of the premise")
    elif tag in ("NegAndI1", "NegAndI2"):
        arity(1)
        _expect(
            isinstance(c, Neg) and isinstance(c.body, And),
            f"{tag} conclusion must negate a conjunction",
        )
        part = c.body.left if tag == "NegAndI1" else c.body.right
        _expect(prems[0] == Neg(part), f"{tag} premise must negate that conjunct")
    elif tag == "NegAndE":
        arity(3)
        major = prems[0]
        _expect(
            isinstance(major, Neg) and isinstance(major.body, And),
            "NegAndE major premise must negate a conjunction",
        )
        _expect(prems[1] == c and prems[2] == c, "NegAndE minors must conclude the conclusion")
        want = (Neg(major.body.left), Neg(major.body.right))
        got = tuple(f for _, f in node.discharges)
        _expect(got == want, "NegAndE must discharge the negated conjuncts in order")
    elif tag in ("OrI1", "OrI2"):
        arity(1)
        _expect(isinstance(c, Or), f"{tag} conclusion must be a disjunction")
        part = c.left if tag == "OrI1" else c.right
        _expect(prems[0] == part, f"{tag} premise must be that disjunct")
    elif tag == "OrE":
        arity(3)
        major = prems[0]
        _expect(isinstance(major, Or), "OrE major premise must be a disjunction")
        _expect(prems[1] == c and prems[2] == c, "OrE minors must conclude the conclusion")
        want = (major.left, major.right)
        got = tuple(f for _, f in node.discharges)
        _expect(got == want, "OrE must discharge the disjuncts in order")
    elif tag == "NegOrI":
        arity(2)
        _expect(
            isinstance(c, Neg) and isinstance(c.body, Or),
            "NegOrI conclusion must negate a disjunction",
        )
        _expect(
            prems[0] == Neg(c.body.left) and prems[1] == Neg(c.body.right),
            "NegOrI premises must negate the disjuncts in order",
        )
    elif tag in ("NegOrE1", "NegOrE2"):
        arity(1)
        major = prems[0]
        _expect(
            isinstance(major, Neg) and isinstance(major.body, Or),
            f"{tag} premise must negate a disjunction",
        )
        part = major.body.left if tag == "NegOrE1" else major.body.right
        _expect(c == Neg(part), f"{tag} conclusion must negate that disjunct")
    elif tag == "NegNegI":
        arity(1)
        _expect(c == Neg(Neg(prems[0])), "NegNegI conclusion must doubly negate the premise")
    elif tag == "NegNegE":
        arity(1)
        _expect(
            isinstance(prems[0], Neg) and isinstance(prems[0].body, Neg),
            "NegNegE premise must be a double negation",
        )
        _expect(c == prems[0].body.body, "NegNegE conclusion must drop both negations")
    elif tag == "BoxI":
        arity(2)
        _expect(isinstance(c, Box), "BoxI conclusion must be a box")
        _expect(prems[0] == c.body, "BoxI first premise must conclude the boxed formula")
        _expect(prems[1] == Bot(), "BoxI second premise must conclude bot")
        _expect(
            node.discharges[0][1] == Neg(c.body),
            "BoxI must discharge the negation of the boxed formula",
        )
    elif tag == "BoxE":
        arity(1)
        _expect(isinstance(prems[0], Box), "BoxE premise must be a box")
        _expect(c == prems[0].body, "BoxE conclusion must unbox the premise")
    elif tag == "NegBoxI":
        arity(1)
        _expect(isinstance(prems[0], Neg), "NegBoxI premise must be a negation")
        _expect(c == Neg(Box(prems[0].body)), "NegBoxI conclusion must be ~[] of the body")
    elif tag == "NegBoxE":
        arity(2)
        major = prems[0]
        _expect(
            isinstance(major, Neg) and isinstance(major.body, Box),
            "NegBoxE major premise must be a negated box",
        )
        _expect(prems[1] == major.body.body, "NegBoxE minor must conclude the boxed formula")
        _expect(c == Neg(major.body.body), "NegBoxE conclusion must negate the boxed formula")
    elif tag == "BotI":
        arity(1)
        shape = prems[0]
        ok = (
            isinstance(shape, And)
            and isinstance(shape.left, Neg)
            and isinstance(shape.right, Box)
            and shape.left.body == shape.right.body
        )
        _expect(ok, "BotI premise must have the shape ~f & []f")
        _expect(c == Bot(), "BotI concludes bot")
    elif tag == "BotE":
        arity(1)
        _expect(prems[0] == Bot(), "BotE premise must conclude bot")


def check(proof):
    """Validate the whole tree; returns Judgement(open_assumptions,
    conclusion).  Raises SchemaError or DischargeError."""
    marker_formula = {}
    discharged = set()

    def note_marker(marker, formula, where):
        old = marker_formula.get(marker)
        if old is None:
            marker_formula[marker] = formula
        elif old != formula:
            raise DischargeError(
                f"marker {marker!r} names both {render(old)} and "
                f"{render(formula)} ({where})"
            )

    def walk(t):
        # returns (open marked classes: dict marker -> formula,
        #          open unmarked assumptions: set of formulas)
        if isinstance(t, Assume):
            _check_language(t.formula)
            if t.marker is None:
                return {}, {t.formula}
            note_marker(t.marker, t.formula, "assumption leaf")
            return {t.marker: t.formula}, set()
        if isinstance(t, MA):
            _check_language(t.formula)
            f = t.formula
            ok = (
                isinstance(f, Or)
                and isinstance(f.right, Neg)
                and isinstance(f.right.body, Box)
                and f.right.body.body == f.left
            )
            if not ok:
                raise SchemaError(
                    f"MA formula must have the shape f | ~[]f, got {render(f)}"
                )
            return {}, set()
        if not isinstance(t, Rule):
            raise SchemaError(f"not a proof node: {t!r}")
        _check_language(t.conclusion)
        for _, f in t.discharges:
            _check_language(f)
        results = [walk(p) for p in t.premises]
        _schema_check(t)
        scopes = DISCHARGE_SCOPES.get(t.tag, ())
        for (marker, formula), scope in zip(t.discharges, scopes):
            if marker in discharged:
                raise DischargeError(
                    f"marker {marker!r} is discharged by two rule applications"
                )
            discharged.add(marker)
            note_marker(marker, formula, f"discharge at {t.tag}")
            for i, (marked, _) in enumerate(results):
                if i != scope and marker in marked:
                    raise DischargeError(
                        f"marker {marker!r} is open in premise {i} of {t.tag}, "
                        f"outside its discharge scope (premise {scope})"
                    )
            results[scope][0].pop(marker, None)
        marked = {}
        unmarked = set()
        for m, u in results:
            marked.update(m)
            unmarked |= u
        return marked, unmarked

    marked, unmarked = walk(proof)
    open_formulas = frozenset(unmarked) | frozenset(marked.values())
    return Judgement(open_formulas, conclusion_of(proof))


# --- convenience builders (conclusions computed from the premises) -----------


def _require(condition, message):
    if not condition:
        raise ValueError(message)


def assume(f, marker=None):
    return Assume(f, marker)


def ma(f):
    """MA leaf for the formula f: concludes f | ~[]f."""
    return MA(Or(f, Neg(Box(f))))


def and_i(d1, d2):
    return Rule("AndI", And(conclusion_of(d1), conclusion_of(d2)), (d1, d2))


def and_e1(d):
    c = conclusion_of(d)
    _require(isinstance(c, And), "and_e1 wants a conjunction")
    return Rule("AndE1", c.left, (d,))


def and_e2(d):
    c = conclusion_of(d)
    _require(isinstance(c, And), "and_e2 wants a conjunction")
    return Rule("AndE2", c.right, (d,))


def neg_and_i1(d, other):
    c = conclusion_of(d)
    _require(isinstance(c, Neg), "neg_and_i1 wants a negation")
    return Rule("NegAndI1", Neg(And(c.body, other)), (d,))


def neg_and_i2(d, other):
    c = conclusion_of(d)
    _require(isinstance(c, Neg), "neg_and_i2 wants a negation")
    return Rule("NegAndI2", Neg(And(other, c.body)), (d,))


def neg_and_e(major, minor1, minor2, u, v):
    c = conclusion_of(major)
    _require(
        isinstance(c, Neg) and isinstance(c.body, And),
        "neg_and_e wants a negated conjunction major",
    )
    return Rule(
        "NegAndE",
        conclusion_of(minor1),
        (major, minor1, minor2),
        ((u, Neg(c.body.left)), (v, Neg(c.body.right))),
    )


def or_i1(d, other):
    return Rule("OrI1", Or(conclusion_of(d), other), (d,))


def or_i2(d, other):
    return Rule("OrI2", Or(other, conclusion_of(d)), (d,))


def or_e(major, minor1, minor2, u, v):
    c = conclusion_of(major)
    _require(isinstance(c, Or), "or_e wants a disjunction major")
    return Rule(
        "OrE",
        conclusion_of(minor1),
        (major, minor1, minor2),
        ((u, c.left), (v, c.right)),
    )


def neg_or_i(d1, d2):
    c1, c2 = conclusion_of(d1), conclusion_of(d2)
    _require(isinstance(c1, Neg) and isinstance(c2, Neg), "neg_or_i wants negations")
    return Rule("NegOrI", Neg(Or(c1.body, c2.body)), (d1, d2))


def neg_or_e1(d):
    c = conclusion_of(d)
    _require(
        isinstance(c, Neg) and isinstance(c.body, Or),
        "neg_or_e1 wants a negated disjunction",
    )
    return Rule("NegOrE1", Neg(c.body.left), (d,))


def neg_or_e2(d):
    c = conclusion_of(d)
    _require(
        isinstance(c, Neg) and isinstance(c.body, Or),
        "neg_or_e2 wants a negated disjunction",
    )
    return Rule("NegOrE2", Neg(c.body.right), (d,))


def neg_neg_i(d):
    return Rule("NegNegI", Neg(Neg(conclusion_of(d))), (d,))


def neg_neg_e(d):
    c = conclusion_of(d)
    _require(
        isinstance(c, Neg) and isinstance(c.body, Neg),
        "neg_neg_e wants a double negation",
    )
    return Rule("NegNegE", c.body.body, (d,))


def box_i(d, bot_deriv, marker):
    f = conclusion_of(d)
    return Rule("BoxI", Box(f), (d, bot_deriv), ((marker, Neg(f)),))


def box_e(d):
    c = conclusion_of(d)
    _require(isinstance(c, Box), "box_e wants a box")
    return Rule("BoxE", c.body, (d,))


def neg_box_i(d):
    c = conclusion_of(d)
    _require(isinstance(c, Neg), "neg_box_i wants a negation")
    return Rule("NegBoxI", Neg(Box(c.body)), (d,))


def neg_box_e(major, minor):
    c = conclusion_of(major)
    _require(
        isinstance(c, Neg) and isinstance(c.body, Box),
        "neg_box_e wants a negated box major",
    )
    return Rule("NegBoxE", Neg(c.body.body), (major, minor))


def bot_i(d):
    return Rule("BotI", Bot(), (d,))


def bot_e(d, f):
    return Rule("BotE", f, (d,))


# --- segments, cuts, normality ------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """One formula occurrence chained through del-rule minor premises.
    positions run from the start occurrence (deepest path) down to the last
    (shallowest); length is the number of occurrences."""

    formula: object
    positions: tuple

    @property
    def length(self):
        return len(self.positions)


@dataclass(frozen=True)
class CutReport:
    segments: tuple
    cuts: tuple
    cutrank: int
    critical: tuple


def _index_nodes(proof):
    nodes = {}

    def go(t, path):
        nodes[path] = t
        if isinstance(t, Rule):
            for i, p in enumerate(t.premises):
                go(p, path + (i,))

    go(proof, ())
    return nodes


def _subtrees(tree):
    """Yield every node of the tree, in no particular order."""
    stack = [tree]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, Rule):
            stack.extend(t.premises)


def _is_del(t):
    return isinstance(t, Rule) and t.tag in DEL_TAGS


def analyze(proof):
    """Find all segments and classify the cuts.  A segment starts at any
    occurrence that is not a del-rule conclusion and extends downward while
    it is a minor premise of a del-rule.  It is a cut when it finally lands
    as the major premise of an E-rule and is either longer than one or starts
    at an I-rule conclusion."""
    nodes = _index_nodes(proof)
    segments = []
    for path, t in nodes.items():
        if _is_del(t):
            continue
        positions = [path]
        current = path
        while current:
            parent = nodes[current[:-1]]
            if _is_del(parent) and current[-1] in (1, 2):
                current = current[:-1]
                positions.append(current)
            else:
                break
        segments.append(Segment(conclusion_of(t), tuple(positions)))
    cuts = []
    for seg in segments:
        end = seg.positions[-1]
        if not end:
            continue
        parent = nodes[end[:-1]]
        if not (isinstance(parent, Rule) and parent.tag in CUT_E_TAGS and end[-1] == 0):
            continue
        start = nodes[seg.positions[0]]
        started_by_i = isinstance(start, Rule) and start.tag in I_TAGS
        if seg.length > 1 or started_by_i:
            cuts.append(seg)
    cutrank = max((complexity(s.formula) for s in cuts), default=0)
    critical = tuple(s for s in cuts if complexity(s.formula) == cutrank)
    if not cuts:
        critical = ()
    return CutReport(tuple(segments), tuple(cuts), cutrank, critical)


def is_normal(proof):
    return not analyze(proof).critical


# --- marker plumbing ----------------------------------------------------------


def all_markers(proof):
    out = set()
    for t in _subtrees(proof):
        if isinstance(t, Rule):
            out.update(m for m, _ in t.discharges)
        elif isinstance(t, Assume) and t.marker is not None:
            out.add(t.marker)
    return out


def _bound_markers(trees):
    """Markers discharged by some application inside the given trees."""
    return {m for tree in trees for t in _subtrees(tree) if isinstance(t, Rule)
            for m, _ in t.discharges}


class _MarkerSupply:
    def __init__(self, used):
        self.used = set(used)
        self.counter = itertools.count(1)

    def fresh(self):
        while True:
            name = f"m{next(self.counter)}"
            if name not in self.used:
                self.used.add(name)
                return name


def _rename_markers(t, mapping):
    if isinstance(t, Assume):
        if t.marker in mapping:
            return Assume(t.formula, mapping[t.marker])
        return t
    if isinstance(t, MA):
        return t
    return Rule(
        t.tag,
        t.conclusion,
        tuple(_rename_markers(p, mapping) for p in t.premises),
        tuple((mapping.get(m, m), f) for m, f in t.discharges),
    )


def _refresh(tree, supply):
    """Copy a subderivation, renaming every marker bound inside it so the
    copy can coexist with the original."""
    bound = _bound_markers([tree])
    if not bound:
        return tree
    mapping = {m: supply.fresh() for m in sorted(bound)}
    return _rename_markers(tree, mapping)


def _refresh_unit(trees, discharges, supply):
    """Copy the non-major premises of a rule application together with its
    discharge list, renaming markers bound in the unit consistently."""
    bound = _bound_markers(trees) | {m for m, _ in discharges}
    mapping = {m: supply.fresh() for m in sorted(bound)}
    new_trees = tuple(_rename_markers(t, mapping) for t in trees)
    new_discharges = tuple((mapping.get(m, m), f) for m, f in discharges)
    return new_trees, new_discharges


def _assume_sites(tree, marker):
    return sum(isinstance(t, Assume) and t.marker == marker for t in _subtrees(tree))


def _substitute(tree, marker, replacement, supply):
    """Plug a derivation in for every assumption of the given class."""
    if isinstance(tree, Assume):
        if tree.marker == marker:
            return _refresh(replacement, supply)
        return tree
    if isinstance(tree, MA):
        return tree
    return Rule(
        tree.tag,
        tree.conclusion,
        tuple(_substitute(p, marker, replacement, supply) for p in tree.premises),
        tree.discharges,
    )


def _replace_at(tree, path, new):
    if not path:
        return new
    premises = list(tree.premises)
    premises[path[0]] = _replace_at(premises[path[0]], path[1:], new)
    return Rule(tree.tag, tree.conclusion, tuple(premises), tree.discharges)


def _node_at(tree, path):
    for i in path:
        tree = tree.premises[i]
    return tree


# --- bot atomization ----------------------------------------------------------


def _is_nd_literal(f):
    if isinstance(f, Var):
        return True
    return isinstance(f, Neg) and isinstance(f.body, (Var, Bot))


def _bot_elim(bot_deriv, target, supply):
    """A derivation of target from the given derivation of bot, where every
    remaining BotE concludes a literal."""
    if _is_nd_literal(target):
        return bot_e(bot_deriv, target)
    if isinstance(target, Bot):
        return bot_deriv
    if isinstance(target, And):
        return and_i(
            _bot_elim(bot_deriv, target.left, supply),
            _bot_elim(_refresh(bot_deriv, supply), target.right, supply),
        )
    if isinstance(target, Or):
        return or_i1(_bot_elim(bot_deriv, target.left, supply), target.right)
    if isinstance(target, Box):
        return box_i(
            _bot_elim(bot_deriv, target.body, supply),
            _refresh(bot_deriv, supply),
            supply.fresh(),
        )
    if isinstance(target, Neg):
        body = target.body
        if isinstance(body, And):
            return neg_and_i1(_bot_elim(bot_deriv, Neg(body.left), supply), body.right)
        if isinstance(body, Or):
            return neg_or_i(
                _bot_elim(bot_deriv, Neg(body.left), supply),
                _bot_elim(_refresh(bot_deriv, supply), Neg(body.right), supply),
            )
        if isinstance(body, Neg):
            return neg_neg_i(_bot_elim(bot_deriv, body.body, supply))
        if isinstance(body, Box):
            return neg_box_i(_bot_elim(bot_deriv, Neg(body.body), supply))
    raise InvariantViolation(f"no bot decomposition for {render(target)}")


def atomize_bot(proof):
    """Push every BotE with a compound conclusion through the conclusion's
    structure until all BotE conclusions are literals (p, ~p, or ~bot);
    BotE concluding bot collapses to its own premise."""
    supply = _MarkerSupply(all_markers(proof))

    def go(t):
        if not isinstance(t, Rule):
            return t
        premises = tuple(go(p) for p in t.premises)
        if t.tag == "BotE" and not _is_nd_literal(t.conclusion):
            return _bot_elim(premises[0], t.conclusion, supply)
        return Rule(t.tag, t.conclusion, premises, t.discharges)

    return go(proof)


# --- conversions and normalization ---------------------------------------------


def _resolve_cut(proof, cut, report=None):
    if report is None:
        report = analyze(proof)
    if isinstance(cut, Segment):
        if cut in report.cuts:
            return cut
        raise ValueError(f"segment {cut} is not a cut of this proof")
    position = tuple(cut)
    for seg in report.cuts:
        if seg.positions[0] == position or seg.positions == position:
            return seg
    raise ValueError(f"position {position!r} is not a cut")


def _classify(proof, seg):
    """(kind, minor) of the conversion at cut segment seg; minor is the index
    of the del-rule minor premise with an empty assumption class that a
    removal keeps, else None."""
    if seg.length == 1:
        return "detour", None
    final = _node_at(proof, seg.positions[-1])
    for i in (1, 2):
        if _assume_sites(final.premises[i], final.discharges[i - 1][0]) == 0:
            return "removal", i
    return "permutation", None


def conversion_kind(proof, cut):
    """Which transformation convert_at would apply: 'detour' for length-1
    cuts, 'removal' when the final del-rule has an empty assumption class in
    a minor premise, 'permutation' otherwise."""
    return _classify(proof, _resolve_cut(proof, cut))[0]


_DETOUR_MINOR = {
    ("NegAndI1", "NegAndE"): 1,
    ("NegAndI2", "NegAndE"): 2,
    ("OrI1", "OrE"): 1,
    ("OrI2", "OrE"): 2,
}
_DETOUR_PROJECT = {
    ("AndI", "AndE1"): 0,
    ("AndI", "AndE2"): 1,
    ("NegOrI", "NegOrE1"): 0,
    ("NegOrI", "NegOrE2"): 1,
    ("NegNegI", "NegNegE"): 0,
    ("BoxI", "BoxE"): 0,
    ("NegBoxI", "NegBoxE"): 0,
}


def _convert(proof, seg, supply):
    """The proof after the conversion at cut segment seg, and its kind."""
    kind, minor = _classify(proof, seg)
    if kind == "detour":
        intro = _node_at(proof, seg.positions[0])
        consumer_path = seg.positions[-1][:-1]
        consumer = _node_at(proof, consumer_path)
        key = (intro.tag, consumer.tag)
        if key in _DETOUR_PROJECT:
            replacement = intro.premises[_DETOUR_PROJECT[key]]
        elif key in _DETOUR_MINOR:
            minor_index = _DETOUR_MINOR[key]
            marker = consumer.discharges[minor_index - 1][0]
            replacement = _substitute(
                consumer.premises[minor_index], marker, intro.premises[0], supply
            )
        else:
            raise InvariantViolation(f"no detour for {key}")
        return _replace_at(proof, consumer_path, replacement), kind
    final_path = seg.positions[-1]
    final = _node_at(proof, final_path)
    if kind == "removal":
        return _replace_at(proof, final_path, final.premises[minor]), kind
    consumer_path = final_path[:-1]
    consumer = _node_at(proof, consumer_path)
    rest = consumer.premises[1:]
    unit1_trees, unit1_discharges = rest, consumer.discharges
    unit2_trees, unit2_discharges = _refresh_unit(rest, consumer.discharges, supply)
    pushed1 = Rule(
        consumer.tag,
        consumer.conclusion,
        (final.premises[1],) + tuple(unit1_trees),
        unit1_discharges,
    )
    pushed2 = Rule(
        consumer.tag,
        consumer.conclusion,
        (final.premises[2],) + tuple(unit2_trees),
        unit2_discharges,
    )
    replacement = Rule(
        final.tag,
        consumer.conclusion,
        (final.premises[0], pushed1, pushed2),
        final.discharges,
    )
    return _replace_at(proof, consumer_path, replacement), kind


def convert_at(proof, cut):
    """Apply one conversion step at the given cut (a Segment from analyze,
    or the start position of one).  Raises ValueError if it is not a cut."""
    seg = _resolve_cut(proof, cut)
    supply = _MarkerSupply(all_markers(proof))
    return _convert(proof, seg, supply)[0]


def _measure(report):
    return report.cutrank, sum(s.length for s in report.critical)


def normalize(proof, observer=None):
    """Remove all critical cuts: first atomize bot-eliminations, then
    repeatedly convert the critical cut whose start position is rightmost
    (lexicographically greatest), until none remain.  Each step must strictly
    shrink (cutrank, total critical length); if not, something is wrong with
    the engine and InvariantViolation is raised."""
    check(proof)
    result = atomize_bot(proof)
    if observer is not None and result != proof:
        observer({"step": 0, "kind": "atomize", "formula": None,
                  "measure": _measure(analyze(result))})
    report = analyze(result)
    measure = _measure(report)
    step = 1
    while report.critical:
        seg = max(report.critical, key=lambda s: s.positions[0])
        supply = _MarkerSupply(all_markers(result))
        result, kind = _convert(result, seg, supply)
        report = analyze(result)
        new_measure = _measure(report)
        if not new_measure < measure:
            raise InvariantViolation(
                f"normalization step {step} did not shrink the measure: "
                f"{measure} -> {new_measure}"
            )
        if observer is not None:
            observer({"step": step, "kind": kind,
                      "formula": render(seg.formula), "measure": new_measure})
        measure = new_measure
        step += 1
    return result


# --- builtin example proofs -----------------------------------------------------


def builtin_examples():
    """Six checked, normal derivations for the box lemmas, keyed by name.

    The judgements: lem-i proves [](p | ~[]p) outright; lem-ii relates
    ~[]p & p and ~p & p in both directions; lem-ix relates [](p & q) and
    []p & []q in both directions; lem-xi derives []~[]p from ~[]p.
    """
    p = Var("p")
    q = Var("q")

    # lem-i: from the axiom p | ~[]p and a refutation of its negation.
    neg_ax = Assume(Neg(Or(p, Neg(Box(p)))), "u")
    box_p = neg_neg_e(neg_or_e2(neg_ax))
    falsum = bot_i(and_i(neg_or_e1(neg_ax), box_p))
    lem_i = box_i(ma(p), falsum, "u")

    # lem-ii forward: ~p & p proves ~[]p & p.
    hyp = Assume(And(Neg(p), p))
    lem_ii_fwd = and_i(neg_box_i(and_e1(hyp)), and_e2(hyp))

    # lem-ii backward: ~[]p & p proves ~p & p.
    hyp = Assume(And(Neg(Box(p)), p))
    lem_ii_bwd = and_i(neg_box_e(and_e1(hyp), and_e2(hyp)), and_e2(hyp))

    # lem-ix forward: [](p & q) proves []p & []q.  Each half boxes one
    # projection; its bot premise routes through ~(p & q) & [](p & q).
    big = Assume(Box(And(p, q)))

    def half(project, introduce, hypothesis, marker):
        value = project(box_e(big))
        falsum = bot_i(and_i(introduce(Assume(hypothesis, marker)), big))
        return box_i(value, falsum, marker)

    left = half(and_e1, lambda d: neg_and_i1(d, q), Neg(p), "u")
    right = half(and_e2, lambda d: neg_and_i2(d, p), Neg(q), "v")
    lem_ix_fwd = and_i(left, right)

    # lem-ix backward: []p & []q proves [](p & q).  The bot premise splits
    # ~(p & q) by cases, each closed through ~x & []x.
    both = Assume(And(Box(p), Box(q)))
    body = and_i(box_e(and_e1(both)), box_e(and_e2(both)))
    case_p = bot_i(and_i(Assume(Neg(p), "u"), and_e1(both)))
    case_q = bot_i(and_i(Assume(Neg(q), "v"), and_e2(both)))
    falsum = neg_and_e(Assume(Neg(And(p, q)), "w"), case_p, case_q, "u", "v")
    lem_ix_bwd = box_i(body, falsum, "w")

    # lem-xi backward: ~[]p proves []~[]p.  The bot premise turns the
    # assumption ~~[]p into []p, projects p out, and closes via ~p & []p.
    premise = Assume(Neg(Box(p)))
    boxed = neg_neg_e(Assume(Neg(Neg(Box(p))), "u"))
    falsum = bot_i(and_i(neg_box_e(premise, box_e(boxed)), boxed))
    lem_xi_bwd = box_i(premise, falsum, "u")

    return {
        "lem-i": lem_i,
        "lem-ii-fwd": lem_ii_fwd,
        "lem-ii-bwd": lem_ii_bwd,
        "lem-ix-fwd": lem_ix_fwd,
        "lem-ix-bwd": lem_ix_bwd,
        "lem-xi-bwd": lem_xi_bwd,
    }


# --- serialization ---------------------------------------------------------------


def to_json(proof):
    if isinstance(proof, Assume):
        return {"rule": "Assume", "formula": render(proof.formula),
                "marker": proof.marker}
    if isinstance(proof, MA):
        return {"rule": "MA", "formula": render(proof.formula)}
    return {
        "rule": proof.tag,
        "conclusion": render(proof.conclusion),
        "premises": [to_json(p) for p in proof.premises],
        "discharges": [
            {"marker": m, "formula": render(f)} for m, f in proof.discharges
        ],
    }


MAX_PROOF_DEPTH = 200
"""Deepest rule nesting from_json() accepts, counted in rules on one path from
the conclusion to a leaf.  from_json, check, normalize and to_json take up to
two of Python's default 1000 frames per level, and normalizing can nearly
double the depth (a detour's major side replaces the assumption at the bottom
of its minor side), which still fits."""


def from_json(obj):
    """Build a proof from its JSON object.  Raises ValueError, KeyError or
    TypeError on malformed input, and ValueError on a proof nested deeper
    than MAX_PROOF_DEPTH rules."""
    level, depth = [obj], 0
    while level:
        if depth > MAX_PROOF_DEPTH:
            raise ValueError(f"proof nested deeper than {MAX_PROOF_DEPTH} rules")
        level = [p for node in level if isinstance(node, dict)
                 and isinstance(node.get("premises"), list) for p in node["premises"]]
        depth += 1
    return _from_json(obj)


def _from_json(obj):
    if not isinstance(obj, dict) or "rule" not in obj:
        raise ValueError("proof node must be an object with a 'rule' key")
    rule = obj["rule"]
    if rule == "Assume":
        marker = obj.get("marker")
        if marker is not None and not isinstance(marker, str):
            raise ValueError("marker must be a string or null")
        return Assume(parse(obj["formula"]), marker)
    if rule == "MA":
        return MA(parse(obj["formula"]))
    if rule not in TAGS:
        raise ValueError(f"unknown rule tag {rule!r}")
    premises = obj.get("premises", [])
    if not isinstance(premises, list):
        raise ValueError("premises must be a list")
    discharges = obj.get("discharges", [])
    if not isinstance(discharges, list):
        raise ValueError("discharges must be a list")
    for d in discharges:
        if not isinstance(d["marker"], str):
            raise ValueError("discharge marker must be a string")
    return Rule(
        rule,
        parse(obj["conclusion"]),
        tuple(_from_json(p) for p in premises),
        tuple((d["marker"], parse(d["formula"])) for d in discharges),
    )
