"""Natural deduction: proof trees, checking, cut analysis, normalization.

Proofs live in the {bot, variables, ~, &, |, []} fragment.  A tree is built
from Assume leaves (optionally marked for later discharge), MA leaves (the
axiom f | ~[]f), and Rule nodes.  check() validates every node against its
rule schema and the discharge discipline and returns the judgement; analyze()
finds segments and cuts; normalize() removes all critical cuts, first pushing
bot-eliminations down to literals with atomize_bot().  Cuts are found
from per-node summaries, and a normalization step summarizes only the nodes
its conversion builds.

Each rule is one schema in _SCHEMAS, and the rest of the module reads every
rule property off that table: the rule sets, check()'s fit tests (each row
compiled once, on first use) and discharge scopes, the rule constructors, the
detour conversions and bot atomization.  Two conventions tie them to the
schemas.  A rule's name marks it as an introduction (...I, ...I1, ...I2) or
an elimination (...E, ...E1, ...E2), and discharge k scopes over premise
k + 1.

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
    IN_ND,
    And,
    Bot,
    Box,
    Neg,
    Or,
    ParseError,
    Var,
    complexity,
    instantiate,
    match,
    parse,
    render,
    variables,
)


class SchemaError(ValueError):
    """A proof node does not match its rule schema (wrong premise shapes,
    wrong conclusion, a connective outside the proof language, ...)."""


class DischargeError(ValueError):
    """Marker misuse: reuse across discharging applications, inconsistent
    class formulas, or an occurrence outside the discharging scope."""


class _Record(Frozen):
    """A frozen record that is not interned: == holds between two records of
    one exact type with equal fields.  The hash reads the type and only the
    fields that are neither tuples nor records (a Rule's tag and conclusion,
    an Assume's formula and marker), so it costs O(1) at any depth.  Each
    subclass gets a generated __init__."""

    __slots__ = ()

    def __init_subclass__(cls, defaults={}, tuples=()):
        # An __init__ that takes the fields in __match_args__ order, with the
        # given defaults, and stores those named in tuples as tuples.  It is
        # compiled once, as dataclasses does, and calls each field's slot
        # setter, a global of its code, bypassing the read-only __setattr__.
        names = cls.__match_args__
        scope = {f"set_{n}": getattr(cls, n).__set__ for n in names}
        scope.update(__name__=cls.__module__, defaults=defaults)
        params = ", ".join(f"{n}=defaults[{n!r}]" if n in defaults else n for n in names)
        body = "".join(f"\n    set_{n}(self, {f'tuple({n})' if n in tuples else n})" for n in names)
        exec(f"def __init__(self, {params}):{body}", scope)
        cls.__init__ = scope["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        # Field by field on an explicit stack, descending into records and
        # tuples, so records of any depth compare.
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            kind = type(a)
            if a is b:
                continue
            if kind is tuple and type(b) is tuple and len(a) == len(b):
                stack += zip(a, b)
            elif kind is type(b) and issubclass(kind, _Record):
                stack += zip(_fields(a), _fields(b))
            elif not a == b:
                return False
        return True

    def __hash__(self):
        # __eq__ compares every field, so equal records hash equal.
        return hash((type(self), *(v for v in _fields(self)
                                   if type(v) is not tuple and not isinstance(v, _Record))))


def _fields(record):
    return tuple(getattr(record, name) for name in record.__match_args__)


class Assume(_Record, defaults={"marker": None}):
    __slots__ = __match_args__ = ("formula", "marker")


class MA(_Record):
    """Axiom leaf: formula must have the shape f | ~[]f."""

    __slots__ = __match_args__ = ("formula",)


class Rule(_Record, defaults={"discharges": ()}, tuples=("premises", "discharges")):
    __slots__ = __match_args__ = ("tag", "conclusion", "premises", "discharges")


class Judgement(_Record):
    __slots__ = __match_args__ = ("open_assumptions", "conclusion")


def conclusion_of(tree):
    return tree.conclusion if type(tree) is Rule else tree.formula


# The stack marker of the explicit-stack walks in this module: the entry
# under it stands for a node whose premises are done.
_READY = object()


def _fold_proof(tree, leaf, rule):
    """Fold a proof bottom-up, on an explicit stack: leaf(t) for each Assume
    or MA, rule(t, folded) for each Rule with the tuple of its premises'
    results.  Each occurrence of a shared subtree is folded again, premises
    left to right before their rule."""
    done, stack = [], [tree]
    while stack:
        t = stack.pop()
        if t is _READY:
            t = stack.pop()
            done.append(rule(t, _take(done, len(t.premises))))
        elif type(t) is Rule:
            stack += (t, _READY, *reversed(t.premises))
        else:
            done.append(leaf(t))
    return done[0]


def _take(done, n):
    """Remove the last n items of done and return them as a tuple."""
    first = len(done) - n
    taken = tuple(done[first:])
    del done[first:]
    return taken


def _check_language(f):
    """Raise SchemaError if f leaves the proof language, naming its first
    node outside it in preorder.  f's interning bits say whether it lies
    inside, and at each node on the way down, which operand holds that
    first node."""
    if getattr(f, "_sig", 0) & IN_ND:
        return
    while True:
        kind = type(f)
        if kind is Neg or kind is Box:
            f = f.body
        elif kind is And or kind is Or:
            f = f.right if f.left._sig & IN_ND else f.left
        else:
            raise SchemaError(
                f"formula {render(f)} is outside the proof language "
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
TAGS = frozenset(_SCHEMAS)
# A rule's name says whether it introduces or eliminates its principal
# formula: ...I, ...I1, ...I2 or ...E, ...E1, ...E2.
I_TAGS = frozenset(tag for tag in TAGS if tag.rstrip("12").endswith("I"))
E_TAGS = frozenset(tag for tag in TAGS if tag.rstrip("12").endswith("E"))
# The del-rules, whose minor premises repeat their conclusion (OrE, NegAndE).
DEL_TAGS = frozenset(tag for tag, (premises, conclusion, _) in _SCHEMAS.items()
                     if conclusion in premises)
# Cuts end at major premises of these rules.  BotE is excluded: a BotE
# conclusion is never "introduced" by a matching I-rule, and its conversions
# are the business of atomize_bot instead.
CUT_E_TAGS = E_TAGS - frozenset(["BotE"])
_MA_SHAPE = parse("a | ~[]a")

_SHAPE_NAMES = {Neg: "a negation", And: "a conjunction", Or: "a disjunction", Box: "a box"}


def _expect(tag, role, pattern, f, binding):
    """Match f against pattern, extending binding, or raise _mismatch."""
    if not match(pattern, f, binding):
        raise _mismatch(tag, role, pattern, f, binding)


def _mismatch(tag, role, pattern, f, binding):
    """The SchemaError '<tag> <role> must be <X>' for an f that does not match
    pattern: X names the pattern's shape when its outermost connective
    differs from f's, else is the pattern with binding filled in.  Callers
    on hot paths match first and build the role only for this."""
    shape = type(pattern) is not type(f) and _SHAPE_NAMES.get(type(pattern))
    return SchemaError(f"{tag} {role} must be {shape or render(instantiate(pattern, binding))}")


def _expect_premises(tag, patterns, premises, binding):
    for i, (pattern, p) in enumerate(zip(patterns, premises)):
        f = conclusion_of(p)
        if not match(pattern, f, binding):
            role = "premise" if len(patterns) == 1 else f"premise {i}"
            raise _mismatch(tag, role, pattern, f, binding)


def _fit_source(tag):
    """The source of fit_<tag>(node), tag's compiled schema row: whether a
    Rule node has the row's premise and discharge counts and fits every
    pattern.  It tests each connective's type at its attribute path, binds
    a metavariable at its first occurrence (premises, then conclusion, then
    discharges, as _schema_error matches them) and compares each later
    occurrence by identity, since formulas are interned."""
    premises, conclusion, discharges = _SCHEMAS[tag]
    lines = [f"def fit_{tag}(node):",
             "    premises, discharges = node.premises, node.discharges",
             f"    if len(premises) != {len(premises)} or len(discharges) != {len(discharges)}:",
             "        return False"]
    roots = []
    for i, pattern in enumerate(premises):
        lines.append(f"    p = premises[{i}]")
        lines.append(f"    f{i} = p.conclusion if type(p) is Rule else p.formula")
        roots.append((f"f{i}", pattern))
    roots.append(("node.conclusion", conclusion))
    for i, pattern in enumerate(discharges):
        lines.append(f"    _, d{i} = discharges[{i}]")
        roots.append((f"d{i}", pattern))
    tests, bound, stack = [], {}, roots[::-1]
    while stack:
        path, pattern = stack.pop()
        kind = type(pattern)
        if kind is Var:
            if pattern.name in bound:
                tests.append(f"{path} is {bound[pattern.name]}")
            else:
                bound[pattern.name] = path
        elif kind is Bot:
            tests.append(f"{path} is BOT")
        else:
            tests.append(f"type({path}) is {kind.__name__}")
            stack += [(f"{path}.{name}", getattr(pattern, name))
                      for name in reversed(kind.__match_args__)]
    lines.append(f"    return {' and '.join(tests)}")
    return "\n".join(lines)


class _Fits(dict):
    """Each row's fit test, keyed by its tag and compiled on the first check
    of that tag: compiling all twenty at import would cost more than the
    rest of the module's import.  None for a tag with no row, which is not
    kept."""

    def __missing__(self, tag):
        if tag not in TAGS:
            return None
        scope = {"Rule": Rule, "BOT": BOT, "And": And, "Or": Or, "Neg": Neg, "Box": Box}
        exec(_fit_source(tag), scope)
        fit = self[tag] = scope[f"fit_{tag}"]
        return fit


_FITS = _Fits()


def _schema_check(node):
    """Shape-check one Rule node (premise conclusions vs conclusion vs
    discharge formulas).  Assumes premises have been checked already.  The
    row's fit test passes a node that fits; on any other, _schema_error
    matches again to word the SchemaError."""
    fit = _FITS[node.tag]
    if fit is None or not fit(node):
        _schema_error(node)


def _schema_error(node):
    """Raise the SchemaError for the first fault of a Rule node: an unknown
    tag, a wrong discharge or premise count, then the first pattern, in the
    order premises, conclusion, discharges, that the node does not match."""
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
        if not match(pattern, f, binding):
            raise _mismatch(tag, f"discharge {i}", pattern, f, binding)


def check(proof):
    """Validate the whole tree; returns Judgement(open_assumptions,
    conclusion).  Raises SchemaError or DischargeError.  A Rule node is
    shape-checked by its row's compiled fit test; the generic matcher runs
    only on a node that fails it, to word the SchemaError."""
    marker_formula = {}
    discharged = set()
    # No rule discharges an unmarked assumption, so one set holds them all.
    unmarked = set()

    def note_marker(marker, formula, where):
        old = marker_formula.get(marker)
        if old is None:
            marker_formula[marker] = formula
        elif old != formula:
            raise DischargeError(
                f"marker {marker!r} names both {render(old)} and "
                f"{render(formula)} ({where})"
            )

    # One explicit-stack walk: a node's language is checked on the way down,
    # its schema and discharges once its premises are done.  results holds,
    # per finished node, its open marked classes (dict marker -> formula); no
    # node changes another's.  A Rule's stack entry carries, once its
    # premises are pushed, how many markers were discharged before its
    # subtree, None before.  done keeps a finished Rule's result by node
    # identity when its subtree discharged nothing, so such a shared subtree
    # is checked once.  A shared subtree that discharges is walked again and
    # fails at its first discharge, as a tree walk would.  A shared leaf is
    # checked again, in O(1).
    results = []
    done = {}
    stack = [(proof, None)]
    while stack:
        t, before = stack.pop()
        if before is not None:
            below = _take(results, len(t.premises))
            _schema_check(t)
            marked = {}
            for m in below:
                marked.update(m)
            # Discharge k scopes over premise k + 1, in every rule that
            # discharges (OrE, NegAndE, BoxI).
            for scope, (marker, formula) in enumerate(t.discharges, 1):
                if marker in discharged:
                    raise DischargeError(
                        f"marker {marker!r} is discharged by two rule applications"
                    )
                discharged.add(marker)
                note_marker(marker, formula, f"discharge at {t.tag}")
                for i, m in enumerate(below):
                    if i != scope and marker in m:
                        raise DischargeError(
                            f"marker {marker!r} is open in premise {i} of {t.tag}, "
                            f"outside its discharge scope (premise {scope})"
                        )
                marked.pop(marker, None)
            if len(discharged) == before:
                done[id(t)] = marked
            results.append(marked)
        elif type(t) is Assume:
            _check_language(t.formula)
            if t.marker is None:
                unmarked.add(t.formula)
                results.append({})
            else:
                note_marker(t.marker, t.formula, "assumption leaf")
                results.append({t.marker: t.formula})
        elif type(t) is MA:
            _check_language(t.formula)
            _expect("MA", "formula", _MA_SHAPE, t.formula, {})
            results.append({})
        elif type(t) is Rule:
            marked = done.get(id(t))
            if marked is None:
                _check_language(t.conclusion)
                for _, f in t.discharges:
                    _check_language(f)
                stack.append((t, len(discharged)))
                stack.extend((p, None) for p in reversed(t.premises))
            else:
                results.append(marked)
        else:
            raise SchemaError(f"not a proof node: {t!r}")

    [marked] = results
    return Judgement(frozenset(unmarked) | frozenset(marked.values()), conclusion_of(proof))


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


def _constructor(tag):
    """The builder of tag's rule, named after it in snake case (AndI is
    and_i).  It takes the premises, then one marker per discharge, then
    the conclusion's metavariables that no premise binds, in alphabetical
    order (b for OrI1, c for BotE), and calls _build."""
    premises, conclusion, discharges = _SCHEMAS[tag]
    free = sorted(variables(conclusion).difference(*map(variables, premises)))
    n, k = len(premises), len(premises) + len(discharges)
    name = "".join(f"_{c}" if c.isupper() and i else c for i, c in enumerate(tag)).lower()

    def construct(*args):
        if len(args) != k + len(free):
            raise TypeError(f"{name}() takes {k + len(free)} arguments ({len(args)} given)")
        return _build(tag, args[:n], args[n:k], **dict(zip(free, args[k:])))

    construct.__name__ = construct.__qualname__ = name
    return construct


# One constructor per row of _SCHEMAS, in its order.
(and_i, and_e1, and_e2, neg_and_i1, neg_and_i2, neg_and_e, or_i1, or_i2, or_e,
 neg_or_i, neg_or_e1, neg_or_e2, neg_neg_i, neg_neg_e, box_i, box_e, neg_box_i,
 neg_box_e, bot_i, bot_e) = map(_constructor, _SCHEMAS)


# --- segments, cuts, normality ------------------------------------------------


class Segment(_Record):
    """One formula occurrence chained through del-rule minor premises.
    positions run from the start occurrence (deepest path) down to the last
    (shallowest); length is the number of occurrences."""

    __slots__ = __match_args__ = ("formula", "positions")

    @property
    def length(self):
        return len(self.positions)


class CutReport(_Record):
    __slots__ = __match_args__ = ("segments", "cuts", "cutrank", "critical")


def _subtrees(tree):
    """Yield every node of the tree, in no particular order."""
    stack = [tree]
    while stack:
        t = stack.pop()
        yield t
        if type(t) is Rule:
            stack.extend(t.premises)


def analyze(proof):
    """Find all segments and classify the cuts.  A segment starts at any
    occurrence that is not a del-rule conclusion and extends downward while
    it is a minor premise of a del-rule.  It is a cut when it finally lands
    as the major premise of an E-rule and is either longer than one or starts
    at an I-rule conclusion.  Segments come in preorder of their start."""
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
        if type(t) is Rule:
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


# A subtree's summary: what normalize needs to know of it, as a tuple
#   (node, formula, count, total, cuts_if_consumed, start, length,
#    rank, cut_total, cut_start, cut_length, cut_formula).
# Paths are relative to the subtree's root and stored as nested (index, rest)
# pairs, () for the root itself, which order like the flat paths they spell.
# The first seven fields describe the open group, the segments that reach
# the root: their formula (in a checked proof every segment through a
# del-rule carries its conclusion), how many there are, the sum of their
# lengths, whether they are cuts if the root is consumed as an elimination's
# major premise, and the start and length of the rightmost one.  The last
# five describe the cuts that end inside the subtree, at their highest rank
# only: the rank (-1 if there is none), their total length, and the
# rightmost one's start, length and formula.  The node itself is kept so
# that its id, the memo key, stays valid.
_RANK = 7


def _leaf_summary(t):
    return (t, t.formula, 1, 1, False, (), 1, -1, 0, None, 0, None)


def _summarize_node(t, below, ranks):
    """The summary of a Rule node from its premises' summaries, in
    O(premises)."""
    rank, cut_total, cut_start, cut_length, cut_formula = -1, 0, None, 0, None
    for i, b in enumerate(below):
        # A later premise's cuts start to the right of an earlier one's.
        if b[7] > rank:
            rank, cut_total = b[7], b[8]
            cut_start, cut_length, cut_formula = (i, b[9]), b[10], b[11]
        elif b[7] == rank >= 0:
            cut_total += b[8]
            cut_start, cut_length, cut_formula = (i, b[9]), b[10], b[11]
    tag = t.tag
    if below and tag in CUT_E_TAGS:
        major = below[0]
        if major[4] and major[2]:
            formula = major[1]
            r = ranks.get(formula)
            if r is None:
                r = ranks[formula] = complexity(formula)
            start = (0, major[5])
            if r > rank:
                rank, cut_total = r, major[3]
                cut_start, cut_length, cut_formula = start, major[6], formula
            elif r == rank:
                cut_total += major[3]
                if start > cut_start:
                    cut_start, cut_length, cut_formula = start, major[6], formula
    if tag not in DEL_TAGS:
        return (t, t.conclusion, 1, 1, tag in I_TAGS, (), 1,
                rank, cut_total, cut_start, cut_length, cut_formula)
    # The minor premises' open segments run on through this node.
    count = total = length = 0
    start = None
    for i, b in enumerate(below[1:3], 1):
        if b[2]:
            count += b[2]
            total += b[3] + b[2]
            start, length = (i, b[5]), b[6] + 1
    return (t, t.conclusion, count, total, True, start, length,
            rank, cut_total, cut_start, cut_length, cut_formula)


def _summarize(tree, memo, ranks):
    """The summary of tree.  memo maps id(node) to the node's summary, which
    holds the node, so an id stays valid while it is a key; a node already
    in memo, and so everything under it, is not visited again."""
    stack = [tree]
    while stack:
        t = stack.pop()
        if id(t) in memo:
            continue
        if type(t) is not Rule:
            memo[id(t)] = _leaf_summary(t)
            continue
        below, missing = [], []
        for p in t.premises:
            s = memo.get(id(p))
            if s is None:
                if type(p) is Rule:
                    missing.append(p)
                    continue
                s = memo[id(p)] = _leaf_summary(p)
            below.append(s)
        if missing:
            # Come back to t once its missing premises are summarized.
            stack.append(t)
            stack.extend(missing)
        else:
            memo[id(t)] = _summarize_node(t, below, ranks)
    return memo[id(tree)]


def _measure(summary):
    return max(summary[_RANK], 0), summary[8]


def _critical_cut(summary):
    """The start path, flat, and the length of a summarized proof's
    rightmost critical cut."""
    flat, rest = [], summary[9]
    while rest:
        i, rest = rest
        flat.append(i)
    return tuple(flat), summary[10]


def is_normal(proof):
    """True if the proof has no cut; the same as not analyze(proof).critical."""
    return _summarize(proof, {}, {})[_RANK] < 0


# --- marker plumbing ----------------------------------------------------------


def all_markers(proof):
    """Every marker the proof names, on a leaf or in a discharge.  Each
    distinct node is visited once, so a shared subproof costs its size."""
    nodes, stack = {}, [proof]
    while stack:
        t = stack.pop()
        if type(t) is Rule and id(t) not in nodes:
            stack += t.premises
        nodes[id(t)] = t
    return ({m for t in nodes.values() if type(t) is Rule for m, _ in t.discharges}
            | {t.marker for t in nodes.values() if type(t) is Assume and t.marker is not None})


def _bound_markers(trees):
    """Markers discharged by some application inside the given trees."""
    return {m for tree in trees for t in _subtrees(tree) if type(t) is Rule
            for m, _ in t.discharges}


def _fresh_markers(proof):
    """Marker names m1, m2, ... that the proof does not use.  The proof's
    markers are collected on the first next(): most conversions need no
    fresh marker."""
    used = all_markers(proof)
    for n in itertools.count(1):
        if f"m{n}" not in used:
            yield f"m{n}"


def _rebuild(tree, leaf, mapping):
    """Copy tree with every Assume leaf t replaced by leaf(t) and every
    discharge marker renamed through mapping."""
    def rule(t, premises):
        return Rule(t.tag, t.conclusion, premises,
                    tuple((mapping.get(m, m), f) for m, f in t.discharges))
    return _fold_proof(tree, lambda t: leaf(t) if type(t) is Assume else t, rule)


def _refresh(trees, discharges, supply):
    """Copy subderivations together with a discharge list, renaming every
    marker bound in the unit (discharged inside a tree or in the list)
    consistently, so the copy can coexist with the original.  The input comes
    back as it is when nothing is bound."""
    bound = _bound_markers(trees) | {m for m, _ in discharges}
    if not bound:
        return trees, discharges
    mapping = {m: next(supply) for m in sorted(bound)}

    def leaf(t):
        return Assume(t.formula, mapping[t.marker]) if t.marker in mapping else t

    return (tuple(_rebuild(t, leaf, mapping) for t in trees),
            tuple((mapping.get(m, m), f) for m, f in discharges))


def _substitute(tree, marker, replacement, supply):
    """Plug a derivation in for every assumption of the given class."""
    def leaf(t):
        return _refresh((replacement,), (), supply)[0][0] if t.marker == marker else t
    return _rebuild(tree, leaf, {})


# --- bot atomization ----------------------------------------------------------


def _is_nd_literal(f):
    kind = type(f)
    return kind is Var or kind is Neg and type(f.body) in (Var, Bot)


def _bot_elim(bot_deriv, target, supply):
    """A derivation of target from the given derivation of bot, where every
    remaining BotE concludes a literal.  Raises SchemaError, as check does,
    if target leaves the proof language."""
    # A goal is a derivation of bot, whether to use a copy of it with fresh
    # markers (every premise but an introduction's first does), and the
    # formula to derive.  Goals are met in preorder and introductions built
    # in postorder, so markers are minted in the order of a recursive descent.
    done, stack = [], [(bot_deriv, False, target)]
    while stack:
        goal = stack.pop()
        if goal is _READY:
            tag, binding = stack.pop()
            premises, _, discharges = _SCHEMAS[tag]
            markers = [next(supply) for _ in discharges]
            done.append(_build(tag, _take(done, len(premises)), markers, **binding))
            continue
        deriv, copy, target = goal
        if copy:
            (deriv,), _ = _refresh((deriv,), (), supply)
        if _is_nd_literal(target):
            done.append(bot_e(deriv, target))
        elif target is BOT:
            done.append(deriv)
        else:
            # The first introduction rule in table order whose conclusion
            # fits: OrI1 before OrI2, NegAndI1 before NegAndI2.
            for tag, (premises, conclusion, _) in _SCHEMAS.items():
                binding = {}
                if tag in I_TAGS and match(conclusion, target, binding):
                    break
            else:
                _check_language(target)
                raise InvariantViolation(f"no bot decomposition for {render(target)}")
            stack += ((tag, binding), _READY)
            stack += [(deriv, i > 0, instantiate(premises[i], binding))
                      for i in reversed(range(len(premises)))]
    return done[0]


def atomize_bot(proof):
    """Push every BotE with a compound conclusion through the conclusion's
    structure until all BotE conclusions are literals (p, ~p, or ~bot);
    BotE concluding bot collapses to its own premise.  Subtrees without such
    a BotE come back as the very same objects.  Raises SchemaError if such a
    conclusion leaves the proof language."""
    supply = _fresh_markers(proof)

    def rule(t, premises):
        if t.tag == "BotE" and not _is_nd_literal(t.conclusion):
            return _bot_elim(premises[0], t.conclusion, supply)
        if all(map(operator.is_, premises, t.premises)):
            return t
        return Rule(t.tag, t.conclusion, premises, t.discharges)

    return _fold_proof(proof, lambda t: t, rule)


# --- conversions and normalization ---------------------------------------------


def _convert(proof, start, length, supply, memo, ranks):
    """The proof after the conversion at the cut that starts at the flat
    path start and runs through length occurrences, the conversion's kind
    ('detour' for a length-1 cut, 'removal' when the cut's last del-rule
    has an empty assumption class in a minor premise, else 'permutation')
    and the new proof's summary.  Only the rules above the replaced node are
    rebuilt.  memo must hold the summary of every node of proof, as
    _summarize leaves it; the reduct is summarized into it, and each
    rebuilt rule from its premises' summaries there."""
    # One walk down start, as far as the cut's last occurrence, keeps the
    # spine; the consumer, whose major premise that occurrence is, stands
    # just above it.
    at = len(start) - length
    spine = [proof]
    for i in start[:at + 1]:
        spine.append(spine[-1].premises[i])
    consumer, final = spine[at], spine[at + 1]
    if length == 1:
        # The two schemas give the reduct: the introduction's premise that
        # the elimination concludes, or else minor premise k + 1 with the
        # introduction's one premise put in for the class of discharge k,
        # the discharge that names that premise.
        kind, premises = "detour", _SCHEMAS[final.tag][0]
        _, conclusion, discharges = _SCHEMAS[consumer.tag]
        if conclusion in premises:
            new = final.premises[premises.index(conclusion)]
        elif premises[0] in discharges:
            k = discharges.index(premises[0])
            new = _substitute(consumer.premises[k + 1], consumer.discharges[k][0],
                              final.premises[0], supply)
        else:
            raise InvariantViolation(f"no detour for {(final.tag, consumer.tag)}")
    else:
        for i in (1, 2):
            marker = final.discharges[i - 1][0]
            if not any(type(t) is Assume and t.marker == marker
                       for t in _subtrees(final.premises[i])):
                kind, new = "removal", final.premises[i]
                at += 1
                break
        else:
            # Each minor premise of final takes the consumer's other premises
            # and discharges: the first the originals, the second a renamed
            # copy.
            units = ((consumer.premises[1:], consumer.discharges),
                     _refresh(consumer.premises[1:], consumer.discharges, supply))
            pushed = tuple(Rule(consumer.tag, consumer.conclusion, (minor, *trees), discharges)
                           for minor, (trees, discharges) in zip(final.premises[1:], units))
            kind, new = "permutation", Rule(final.tag, consumer.conclusion,
                                            (final.premises[0], *pushed), final.discharges)
    summary = _summarize(new, memo, ranks)
    for t, i in zip(reversed(spine[:at]), reversed(start[:at])):
        premises = list(t.premises)
        premises[i] = new
        new = Rule(t.tag, t.conclusion, premises, t.discharges)
        summary = memo[id(new)] = _summarize_node(new, [memo[id(p)] for p in premises], ranks)
    return new, kind, summary


def normalize(proof, observer=None):
    """Remove all critical cuts: first atomize bot-eliminations, then
    repeatedly convert the critical cut whose start position is rightmost
    (lexicographically greatest), until none remain.  Each step must strictly
    shrink (cutrank, total critical length); if not, something is wrong with
    the engine and InvariantViolation is raised.

    The proof is summarized once, after atomization.  From then on a step
    costs what its conversion builds: _convert summarizes the reduct and
    each rebuilt rule on the path above it, and hands back the root's
    summary, so no step walks the proof from its root."""
    check(proof)
    # Summaries of every node met in this call, keyed by id, and the text of
    # each cut formula reported to the observer.
    memo, ranks, rendered = {}, {}, _Rendered()
    result = atomize_bot(proof)
    summary = _summarize(result, memo, ranks)
    measure = _measure(summary)
    if observer is not None and result is not proof:
        observer({"step": 0, "kind": "atomize", "formula": None, "measure": measure})
    step = 1
    while summary[_RANK] >= 0:
        formula = summary[11]
        result, kind, summary = _convert(result, *_critical_cut(summary),
                                         _fresh_markers(result), memo, ranks)
        new_measure = _measure(summary)
        if not new_measure < measure:
            raise InvariantViolation(
                f"normalization step {step} did not shrink the measure: "
                f"{measure} -> {new_measure}"
            )
        if observer is not None:
            observer({"step": step, "kind": kind,
                      "formula": rendered[formula], "measure": new_measure})
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
    """The proof's JSON object, the form from_json reads.  Each distinct
    formula is rendered once per call: a del rule repeats its conclusion in
    its minor premises, and assumptions recur."""
    text = _Rendered().__getitem__

    def leaf(t):
        if type(t) is MA:
            return {"rule": "MA", "formula": text(t.formula)}
        return {"rule": "Assume", "formula": text(t.formula), "marker": t.marker}

    def rule(t, premises):
        return {
            "rule": t.tag,
            "conclusion": text(t.conclusion),
            "premises": list(premises),
            "discharges": [{"marker": m, "formula": text(f)} for m, f in t.discharges],
        }

    return _fold_proof(proof, leaf, rule)


class _Rendered(dict):
    """render(f) keyed by the formula f, rendered on its first lookup."""

    def __missing__(self, f):
        s = self[f] = render(f)
        return s


MAX_PROOF_DEPTH = 200
"""Most rules from_json() accepts above a node, counted on its path from the
conclusion.  No walk in this module takes a frame per level, so a proof
built in Python may be as deep as memory allows.  The bound is for the JSON
around a proof in the CLI: json.loads, which reads it, and
json.dumps(indent=2), which prints a normal form, take two of Python's
default 1000 frames per rule (its object and its premises list).
Normalizing can nearly double the depth (a detour's major side replaces the
assumption at the bottom of its minor side), so printing takes up to about
800."""


def from_json(obj):
    """Build a proof from its JSON object.  Raises ParseError on a bad
    formula and ValueError on any other malformed input, also on a node
    under more than MAX_PROOF_DEPTH rules.  The error met first in preorder
    is raised, its message prefixed with the node's path, as in
    'premises[0].premises[1]: <message>', unless the node is the root or
    the error is the depth bound's.

    One walk on an explicit stack.  An entry is (node, None, where) for a
    node still to read and (node, conclusion, where) for a rule whose
    premises are done; where is the node's path, its premise indices from
    the root.  A node is checked and its conclusion parsed before its
    premises, its discharges parsed after them.  parsed maps each formula text met so
    far to its formula: a del rule repeats its conclusion in its minor
    premises, and assumptions recur, so most texts come back."""
    parsed, done, stack = {}, [], [(obj, None, ())]
    while stack:
        obj, conclusion, where = stack.pop()
        if len(where) > MAX_PROOF_DEPTH:
            raise ValueError(f"proof nested deeper than {MAX_PROOF_DEPTH} rules")
        try:
            if conclusion is not None:
                built = _take(done, len(obj.get("premises", ())))
                done.append(Rule(obj["rule"], conclusion, built, tuple(
                    (d["marker"], _parse_once(parsed, d["formula"]))
                    for d in obj.get("discharges", ()))))
                continue
            if not isinstance(obj, dict) or "rule" not in obj:
                raise ValueError("proof node must be an object with a 'rule' key")
            rule = obj["rule"]
            if rule == "Assume":
                marker = obj.get("marker")
                if marker is not None and not isinstance(marker, str):
                    raise ValueError("marker must be a string or null")
                done.append(Assume(_parse_once(parsed, _text(obj, "formula")), marker))
                continue
            if rule == "MA":
                done.append(MA(_parse_once(parsed, _text(obj, "formula"))))
                continue
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
                    raise ValueError(
                        f"discharges[{i}] must be an object with string 'marker' and 'formula'")
            stack.append((obj, _parse_once(parsed, _text(obj, "conclusion")), where))
            stack += [(premises[i], None, where + (i,)) for i in reversed(range(len(premises)))]
        except (ValueError, ParseError) as e:
            if where:
                e.args = (".".join(f"premises[{i}]" for i in where) + f": {e}",)
            raise
    return done[0]


def _parse_once(parsed, text):
    """parse(text), parsed only the first time this text is met."""
    f = parsed.get(text)
    if f is None:
        f = parsed[text] = parse(text)
    return f


def _text(obj, key):
    """obj[key] if it is a string; ValueError naming key if not."""
    if key not in obj:
        raise ValueError(f"{key} is missing")
    if not isinstance(obj[key], str):
        raise ValueError(f"{key} must be a string")
    return obj[key]
