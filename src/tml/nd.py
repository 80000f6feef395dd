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
import operator

from .errors import InvariantViolation
from .hashcons import Frozen
from .syntax import (
    BOT,
    And,
    Bot,
    Box,
    Neg,
    Or,
    Var,
    complexity,
    instantiate,
    match,
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


class _Record(Frozen):
    """A frozen record that is not interned: == holds between two records of
    one exact type with equal fields, and the hash is that of the field
    tuple.  Each subclass sets its slots in its own __init__."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _fields(self) == _fields(other)

    def __hash__(self):
        return hash(_fields(self))


def _fields(record):
    return tuple(getattr(record, name) for name in record.__match_args__)


class Assume(_Record):
    __slots__ = __match_args__ = ("formula", "marker")

    def __init__(self, formula, marker=None):
        _SET_ASSUME_FORMULA(self, formula)
        _SET_ASSUME_MARKER(self, marker)


class MA(_Record):
    """Axiom leaf: formula must have the shape f | ~[]f."""

    __slots__ = __match_args__ = ("formula",)

    def __init__(self, formula):
        _SET_MA_FORMULA(self, formula)


class Rule(_Record):
    __slots__ = __match_args__ = ("tag", "conclusion", "premises", "discharges")

    def __init__(self, tag, conclusion, premises, discharges=()):
        _SET_RULE_TAG(self, tag)
        _SET_RULE_CONCLUSION(self, conclusion)
        _SET_RULE_PREMISES(self, tuple(premises))
        _SET_RULE_DISCHARGES(self, tuple(discharges))


class Judgement(_Record):
    __slots__ = __match_args__ = ("open_assumptions", "conclusion")

    def __init__(self, open_assumptions, conclusion):
        _SET_JUDGEMENT_OPEN(self, open_assumptions)
        _SET_JUDGEMENT_CONCLUSION(self, conclusion)


# Slot setters, bypassing the __setattr__ that makes record fields read-only.
_SET_ASSUME_FORMULA = Assume.formula.__set__
_SET_ASSUME_MARKER = Assume.marker.__set__
_SET_MA_FORMULA = MA.formula.__set__
_SET_RULE_TAG = Rule.tag.__set__
_SET_RULE_CONCLUSION = Rule.conclusion.__set__
_SET_RULE_PREMISES = Rule.premises.__set__
_SET_RULE_DISCHARGES = Rule.discharges.__set__
_SET_JUDGEMENT_OPEN = Judgement.open_assumptions.__set__
_SET_JUDGEMENT_CONCLUSION = Judgement.conclusion.__set__


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


def _schema(premises, conclusion, discharges=()):
    return tuple(map(parse, premises)), parse(conclusion), tuple(map(parse, discharges))


# Each rule as (premise patterns, conclusion pattern, discharged patterns).  In
# the patterns, a and b stand for the parts of the principal formula, and c for
# the free conclusion of OrE, NegAndE and BotE.
_SCHEMAS = {
    "AndI": _schema(["a", "b"], "a & b"),
    "AndE1": _schema(["a & b"], "a"),
    "AndE2": _schema(["a & b"], "b"),
    "NegAndI1": _schema(["~a"], "~(a & b)"),
    "NegAndI2": _schema(["~b"], "~(a & b)"),
    "NegAndE": _schema(["~(a & b)", "c", "c"], "c", ["~a", "~b"]),
    "OrI1": _schema(["a"], "a | b"),
    "OrI2": _schema(["b"], "a | b"),
    "OrE": _schema(["a | b", "c", "c"], "c", ["a", "b"]),
    "NegOrI": _schema(["~a", "~b"], "~(a | b)"),
    "NegOrE1": _schema(["~(a | b)"], "~a"),
    "NegOrE2": _schema(["~(a | b)"], "~b"),
    "NegNegI": _schema(["a"], "~~a"),
    "NegNegE": _schema(["~~a"], "a"),
    "BoxI": _schema(["a", "bot"], "[]a", ["~a"]),
    "BoxE": _schema(["[]a"], "a"),
    "NegBoxI": _schema(["~a"], "~[]a"),
    "NegBoxE": _schema(["~[]a", "a"], "~a"),
    "BotI": _schema(["~a & []a"], "bot"),
    "BotE": _schema(["bot"], "c"),
}
_MA_SHAPE = parse("a | ~[]a")

_SHAPE_NAMES = {Neg: "a negation", And: "a conjunction", Or: "a disjunction", Box: "a box"}


def _expect(tag, role, pattern, f, binding):
    """Match f against pattern, extending binding, or raise SchemaError
    '<tag> <role> must be <X>': X names the pattern's shape when its outermost
    connective differs from f's, else is the pattern with binding filled in."""
    if not match(pattern, f, binding):
        shape = type(pattern) is not type(f) and _SHAPE_NAMES.get(type(pattern))
        raise SchemaError(f"{tag} {role} must be {shape or render(instantiate(pattern, binding))}")


def _expect_premises(tag, patterns, premises, binding):
    for i, (pattern, p) in enumerate(zip(patterns, premises)):
        role = "premise" if len(patterns) == 1 else f"premise {i}"
        _expect(tag, role, pattern, conclusion_of(p), binding)


def _schema_check(node):
    """Shape-check one Rule node (premise conclusions vs conclusion vs
    discharge formulas).  Assumes premises have been checked already."""
    tag = node.tag
    if tag not in TAGS:
        raise SchemaError(f"unknown rule tag {tag!r}")
    premises, conclusion, discharges = _SCHEMAS[tag]
    for what, want, got in (("discharge", discharges, node.discharges),
                            ("premise", premises, node.premises)):
        if len(got) != len(want):
            raise SchemaError(f"{tag} takes {len(want)} {what}(s), got {len(got)}")
    binding = {}
    _expect_premises(tag, premises, node.premises, binding)
    _expect(tag, "conclusion", conclusion, node.conclusion, binding)
    for i, (pattern, (_, f)) in enumerate(zip(discharges, node.discharges)):
        _expect(tag, f"discharge {i}", pattern, f, binding)


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
            _expect("MA", "formula", _MA_SHAPE, t.formula, {})
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


def _build(tag, premises, markers=(), **given):
    """The tag's rule application to premises, its conclusion and discharged
    formulas instantiated from the metavariables the premises and given bind.
    Raises SchemaError if a premise does not fit the schema."""
    premise_patterns, conclusion, discharges = _SCHEMAS[tag]
    binding = dict(given)
    _expect_premises(tag, premise_patterns, premises, binding)
    return Rule(tag, instantiate(conclusion, binding), premises,
                tuple((m, instantiate(f, binding)) for m, f in zip(markers, discharges)))


def assume(f, marker=None):
    return Assume(f, marker)


def ma(f):
    """MA leaf for the formula f: concludes f | ~[]f."""
    return MA(instantiate(_MA_SHAPE, {"a": f}))


def and_i(d1, d2):
    return _build("AndI", (d1, d2))


def and_e1(d):
    return _build("AndE1", (d,))


def and_e2(d):
    return _build("AndE2", (d,))


def neg_and_i1(d, other):
    return _build("NegAndI1", (d,), b=other)


def neg_and_i2(d, other):
    return _build("NegAndI2", (d,), a=other)


def neg_and_e(major, minor1, minor2, u, v):
    return _build("NegAndE", (major, minor1, minor2), (u, v))


def or_i1(d, other):
    return _build("OrI1", (d,), b=other)


def or_i2(d, other):
    return _build("OrI2", (d,), a=other)


def or_e(major, minor1, minor2, u, v):
    return _build("OrE", (major, minor1, minor2), (u, v))


def neg_or_i(d1, d2):
    return _build("NegOrI", (d1, d2))


def neg_or_e1(d):
    return _build("NegOrE1", (d,))


def neg_or_e2(d):
    return _build("NegOrE2", (d,))


def neg_neg_i(d):
    return _build("NegNegI", (d,))


def neg_neg_e(d):
    return _build("NegNegE", (d,))


def box_i(d, bot_deriv, marker):
    return _build("BoxI", (d, bot_deriv), (marker,))


def box_e(d):
    return _build("BoxE", (d,))


def neg_box_i(d):
    return _build("NegBoxI", (d,))


def neg_box_e(major, minor):
    return _build("NegBoxE", (major, minor))


def bot_i(d):
    return _build("BotI", (d,))


def bot_e(d, f):
    return _build("BotE", (d,), c=f)


# --- segments, cuts, normality ------------------------------------------------


class Segment(_Record):
    """One formula occurrence chained through del-rule minor premises.
    positions run from the start occurrence (deepest path) down to the last
    (shallowest); length is the number of occurrences."""

    __slots__ = __match_args__ = ("formula", "positions")

    def __init__(self, formula, positions):
        _SET_SEGMENT_FORMULA(self, formula)
        _SET_SEGMENT_POSITIONS(self, positions)

    @property
    def length(self):
        return len(self.positions)


class CutReport(_Record):
    __slots__ = __match_args__ = ("segments", "cuts", "cutrank", "critical")

    def __init__(self, segments, cuts, cutrank, critical):
        _SET_REPORT_SEGMENTS(self, segments)
        _SET_REPORT_CUTS(self, cuts)
        _SET_REPORT_CUTRANK(self, cutrank)
        _SET_REPORT_CRITICAL(self, critical)


_SET_SEGMENT_FORMULA = Segment.formula.__set__
_SET_SEGMENT_POSITIONS = Segment.positions.__set__
_SET_REPORT_SEGMENTS = CutReport.segments.__set__
_SET_REPORT_CUTS = CutReport.cuts.__set__
_SET_REPORT_CUTRANK = CutReport.cutrank.__set__
_SET_REPORT_CRITICAL = CutReport.critical.__set__


def _subtrees(tree):
    """Yield every node of the tree, in no particular order."""
    stack = [tree]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, Rule):
            stack.extend(t.premises)


def analyze(proof, ranks=None):
    """Find all segments and classify the cuts.  A segment starts at any
    occurrence that is not a del-rule conclusion and extends downward while
    it is a minor premise of a del-rule.  It is a cut when it finally lands
    as the major premise of an E-rule and is either longer than one or starts
    at an I-rule conclusion.  Segments come in preorder of their start.

    ranks, if given, is a dict from cut formula to its complexity that the
    call reads and extends, so that normalize computes each rank once."""
    if ranks is None:
        ranks = {}
    segments = []
    cuts = []
    cut_ranks = []
    # One preorder walk.  Each entry holds a node, its path, the positions
    # of the del-rule conclusions its segment runs down through (nearest
    # first), and the rule and premise index where the segment's last
    # occurrence stands (None at the root).
    stack = [(proof, (), (), None, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        t, path, below, consumer, index = pop()
        if isinstance(t, Rule):
            is_del = t.tag in DEL_TAGS
            for i in reversed(range(len(t.premises))):
                if is_del and i in (1, 2):
                    # A minor premise's segment runs on through this node.
                    push((t.premises[i], path + (i,), (path,) + below, consumer, index))
                else:
                    push((t.premises[i], path + (i,), (), t, i))
            if is_del:
                continue
            formula, started_by_i = t.conclusion, t.tag in I_TAGS
        else:
            formula, started_by_i = t.formula, False
        seg = Segment(formula, (path,) + below)
        segments.append(seg)
        if (index == 0 and consumer is not None and consumer.tag in CUT_E_TAGS
                and (below or started_by_i)):
            rank = ranks.get(formula)
            if rank is None:
                rank = ranks[formula] = complexity(formula)
            cuts.append(seg)
            cut_ranks.append(rank)
    cutrank = max(cut_ranks, default=0)
    critical = tuple(s for s, rank in zip(cuts, cut_ranks) if rank == cutrank)
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
    """Marker names m1, m2, ... that the proof does not use.  The proof's
    markers are collected on the first request: most conversions need no
    fresh marker."""

    def __init__(self, proof):
        self.proof = proof
        self.used = None
        self.counter = itertools.count(1)

    def fresh(self):
        if self.used is None:
            self.used = all_markers(self.proof)
        while True:
            name = f"m{next(self.counter)}"
            if name not in self.used:
                self.used.add(name)
                return name


def _rebuild(tree, leaf, mapping):
    """Copy tree with every Assume leaf t replaced by leaf(t) and every
    discharge marker renamed through mapping."""
    if isinstance(tree, Assume):
        return leaf(tree)
    if isinstance(tree, MA):
        return tree
    return Rule(tree.tag, tree.conclusion,
                tuple(_rebuild(p, leaf, mapping) for p in tree.premises),
                tuple((mapping.get(m, m), f) for m, f in tree.discharges))


def _rename_markers(tree, mapping):
    def leaf(t):
        return Assume(t.formula, mapping[t.marker]) if t.marker in mapping else t
    return _rebuild(tree, leaf, mapping)


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
    def leaf(t):
        return _refresh(replacement, supply) if t.marker == marker else t
    return _rebuild(tree, leaf, {})


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


# The introduction rules a bot derivation is pushed through, first match first.
_BOT_INTROS = ("AndI", "OrI1", "BoxI", "NegAndI1", "NegOrI", "NegNegI", "NegBoxI")


def _bot_elim(bot_deriv, target, supply):
    """A derivation of target from the given derivation of bot, where every
    remaining BotE concludes a literal."""
    if _is_nd_literal(target):
        return bot_e(bot_deriv, target)
    if target == BOT:
        return bot_deriv
    for tag in _BOT_INTROS:
        premises, conclusion, discharges = _SCHEMAS[tag]
        binding = {}
        if match(conclusion, target, binding):
            derivations = [
                _bot_elim(bot_deriv if i == 0 else _refresh(bot_deriv, supply),
                          instantiate(p, binding), supply)
                for i, p in enumerate(premises)
            ]
            markers = [supply.fresh() for _ in discharges]
            return _build(tag, tuple(derivations), markers, **binding)
    raise InvariantViolation(f"no bot decomposition for {render(target)}")


def atomize_bot(proof):
    """Push every BotE with a compound conclusion through the conclusion's
    structure until all BotE conclusions are literals (p, ~p, or ~bot);
    BotE concluding bot collapses to its own premise.  Subtrees without such
    a BotE come back as the very same objects."""
    supply = _MarkerSupply(proof)

    def go(t):
        if not isinstance(t, Rule):
            return t
        premises = tuple(go(p) for p in t.premises)
        if t.tag == "BotE" and not _is_nd_literal(t.conclusion):
            return _bot_elim(premises[0], t.conclusion, supply)
        if all(map(operator.is_, premises, t.premises)):
            return t
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
    return _convert(proof, _resolve_cut(proof, cut), _MarkerSupply(proof))[0]


def _measure(report):
    return report.cutrank, sum(s.length for s in report.critical)


def normalize(proof, observer=None):
    """Remove all critical cuts: first atomize bot-eliminations, then
    repeatedly convert the critical cut whose start position is rightmost
    (lexicographically greatest), until none remain.  Each step must strictly
    shrink (cutrank, total critical length); if not, something is wrong with
    the engine and InvariantViolation is raised."""
    check(proof)
    ranks = {}
    result = atomize_bot(proof)
    report = analyze(result, ranks)
    measure = _measure(report)
    if observer is not None and result is not proof:
        observer({"step": 0, "kind": "atomize", "formula": None, "measure": measure})
    step = 1
    while report.critical:
        seg = max(report.critical, key=lambda s: s.positions[0])
        result, kind = _convert(result, seg, _MarkerSupply(result))
        report = analyze(result, ranks)
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
    """Build a proof from its JSON object.  Raises ParseError on a bad
    formula and ValueError on any other malformed input, also on a proof
    nested deeper than MAX_PROOF_DEPTH rules."""
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
        return Assume(parse(_text(obj, "formula")), marker)
    if rule == "MA":
        return MA(parse(_text(obj, "formula")))
    if not isinstance(rule, str) or rule not in TAGS:
        raise ValueError(f"unknown rule tag {rule!r}")
    premises = obj.get("premises", [])
    if not isinstance(premises, list):
        raise ValueError("premises must be a list")
    discharges = obj.get("discharges", [])
    if not isinstance(discharges, list):
        raise ValueError("discharges must be a list")
    for i, d in enumerate(discharges):
        if not (isinstance(d, dict) and isinstance(d.get("marker"), str)
                and isinstance(d.get("formula"), str)):
            raise ValueError(f"discharges[{i}] must be an object with string 'marker' and 'formula'")
    return Rule(
        rule,
        parse(_text(obj, "conclusion")),
        tuple(_from_json(p) for p in premises),
        tuple((d["marker"], parse(d["formula"])) for d in discharges),
    )


def _text(obj, key):
    """obj[key] if it is a string; ValueError naming key if not."""
    if key not in obj:
        raise ValueError(f"{key} is missing")
    if not isinstance(obj[key], str):
        raise ValueError(f"{key} must be a string")
    return obj[key]
