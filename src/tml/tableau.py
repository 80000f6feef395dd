"""Signed tableaux for both signatures, with countermodel extraction.

A node carries signed formulas T(f) or F(f); T claims f takes a designated
value (b or 1), F claims it does not.  Because the four values are not
determined by one bit, rules also constrain negated formulas: T(~f) pins f
into {0, b} and F(~f) pins f into {1, n}.

The succ-signature calculus works on {>, ~} formulas, the full-signature one
on {&, |, ~, []}.  decide() translates its input first, so callers can hand
either calculus an arbitrary formula.
"""

import functools
import gc
from collections import deque

from .algebra import DESIGNATED, ONE, VALUES
from .errors import InvariantViolation
from .hashcons import TABLE, Interned, absent, enter
from .semantics import evaluate
from .syntax import (
    BOT,
    TOP,
    Neg,
    SYMBOLS,
    Signature,
    SignatureError,
    Succ,
    Var,
    entailment,
    in_signature,
    instantiator,
    parse,
    render,
    translate,
    variables,
)


class SignedFormula(Interned):
    """T(f) or F(f), interned like formulas: equal signed formulas are one
    object.  Interning also records what Branch.add needs of it: its kind
    in _KINDS and the TABLE key its complement would have."""

    __slots__ = ("sign", "formula", "_kind", "_complement_key")
    __match_args__ = ("sign", "formula")

    def __new__(cls, sign, formula):
        # The TABLE key and _shape, written out: on decide's small inputs most
        # signed formulas are new, and calling out for them costs about 4 %
        # of their latency.  The test that checks both against a reference
        # is test_cached_kind_and_complement_key_match_the_reference.
        key = sign, id(formula)
        node = TABLE.get(key, absent)()
        if node is None:
            if sign not in ("T", "F"):
                raise ValueError(f"sign must be 'T' or 'F', not {sign!r}")
            node = object.__new__(cls)
            _SET_SIGN(node, sign)
            _SET_FORMULA(node, formula)
            shape = type(formula)
            under = type(formula.body) if shape is Neg else None
            _SET_KIND(node, _KINDS.get((sign, shape, under), _EXPANDS))
            _SET_COMPLEMENT_KEY(node, ("F" if sign == "T" else "T", key[1]))
            node = enter(key, node)
        return node

    def __str__(self):
        return f"{self.sign}({render(self.formula)})"


_SET_SIGN = SignedFormula.sign.__set__
_SET_FORMULA = SignedFormula.formula.__set__
_SET_KIND = SignedFormula._kind.__set__
_SET_COMPLEMENT_KEY = SignedFormula._complement_key.__set__


def T(f):
    return SignedFormula("T", f)


def F(f):
    return SignedFormula("F", f)


def satisfies(h, sf):
    """Does valuation h make the signed formula true?  T(f) asks for a
    designated value, F(f) for a non-designated one."""
    value = evaluate(sf.formula, h)
    return (value in DESIGNATED) == (sf.sign == "T")


# The rules of both calculi: (sign, principal pattern) -> alternatives, each a
# list of signed patterns.  a and b stand for the parts of the principal
# formula.  The ~~a rows belong to both systems.
_DOUBLE_NEGATION = {("T", "~~a"): [["T a"]], ("F", "~~a"): [["F a"]]}
_RULES = {
    Signature.SUCC: {
        **_DOUBLE_NEGATION,
        ("T", "a > b"): [["T b"], ["T ~a", "F b", "T ~b"], ["F a", "F b", "F ~b"]],
        ("F", "a > b"): [["T a", "F b", "F ~b"], ["F ~a", "F b", "T ~b"]],
        ("T", "~(a > b)"): [["T a", "F b", "T ~b"], ["F ~a", "T b", "T ~b"]],
        ("F", "~(a > b)"): [["F ~b"], ["T ~a", "T b", "T ~b"], ["F a", "F b", "T ~b"]],
    },
    Signature.FULL: {
        **_DOUBLE_NEGATION,
        ("T", "a & b"): [["T a", "T b"]],
        ("F", "a & b"): [["F a"], ["F b"]],
        ("T", "a | b"): [["T a"], ["T b"]],
        ("F", "a | b"): [["F a", "F b"]],
        ("T", "[]a"): [["T a", "F ~a"]],
        ("F", "[]a"): [["F a"], ["T ~a"]],
        ("T", "~(a & b)"): [["T ~a"], ["T ~b"]],
        ("F", "~(a & b)"): [["F ~a", "F ~b"]],
        ("T", "~(a | b)"): [["T ~a", "T ~b"]],
        ("F", "~(a | b)"): [["F ~a"], ["F ~b"]],
        ("T", "~[]a"): [["F []a"]],
        ("F", "~[]a"): [["T []a"]],
    },
}

# The succ system's two-premise shortcuts for a signed a > b beside a signed
# ~(a > b), keyed by the two signs in that order.
_DERIVED_RULES = {
    ("T", "T"): [["F ~a", "T b", "T ~b"], ["T a", "T ~a", "F b", "T ~b"]],
    ("F", "F"): [["T a", "F b", "F ~b"], ["F a", "F ~a", "F b", "T ~b"]],
    ("T", "F"): [["F a", "T ~a"], ["F a", "F ~a", "F b", "F ~b"],
                 ["T a", "T ~a", "T b", "T ~b"], ["T b", "F ~b"]],
    ("F", "T"): [["T a", "F ~a", "F b", "T ~b"]],
}
_PAIR = ("a > b", "~(a > b)")


def _shape(f):
    """The key of f's rule: its connective and, under ~, the body's."""
    kind = type(f)
    return kind, type(f.body) if kind is Neg else None


# Rows share most (principal, template) pairs; compile each pair once.
_instantiator = functools.cache(lambda p, t: instantiator(parse(p), parse(t)))


def _compile(principal, alternatives):
    """One row's rule: from an instance of principal to its alternatives."""
    alternatives = [[(item[0], _instantiator(principal, item[2:])) for item in alt]
                    for alt in alternatives]
    return lambda f: [[SignedFormula(sign, build(f)) for sign, build in alt]
                      for alt in alternatives]


def _index(rows):
    """Key each row by its sign and _shape, and pair its compiled rule with
    its label: the sign and the principal's connectives, as in T(~>)."""
    index = {}
    for (sign, text), alternatives in rows.items():
        kind, under = _shape(parse(text))
        label = f"{sign}({SYMBOLS[kind]}{SYMBOLS.get(under, '')})"
        index[sign, kind, under] = label, _compile(text, alternatives)
    return index


_INDEX = {system: _index(rows) for system, rows in _RULES.items()}
_DERIVED = {signs: _compile(_PAIR[0], alts) for signs, alts in _DERIVED_RULES.items()}
# The formula a signed a > b or ~(a > b) pairs with under a derived rule.
_PARTNER = {_shape(parse(p)): _instantiator(p, q) for p, q in (_PAIR, _PAIR[::-1])}

# What Branch.add does with a signed formula, keyed by its sign and _shape:
# a signed literal stays on the branch, one that no valuation satisfies (a
# signed constant whose value disagrees with its sign) closes the branch, and
# every other shape waits for its rule.  SignedFormula reads this table once
# per interned object, so it must be complete before the first one is built.
_LITERAL, _CLOSES, _EXPANDS = "literal", "closes", "expands"
_KINDS = {
    (sign, *_shape(f)): _LITERAL if any(
        (evaluate(f, {"a": v}) in DESIGNATED) == (sign == "T") for v in VALUES
    ) else _CLOSES
    for f in (Var("a"), Neg(Var("a")), BOT, TOP, Neg(BOT), Neg(TOP)) for sign in ("T", "F")
}

# The values a signed literal over a variable allows it, keyed by the sign
# and the literal's shape.
_ALLOWED = {
    (sf.sign, *_shape(sf.formula)): frozenset(v for v in VALUES if satisfies({"a": v}, sf))
    for f in (Var("a"), Neg(Var("a"))) for sf in (T(f), F(f))
}


def _rule(sf, system):
    """The (label, rule) of sf's row in the system's table; None for a
    literal.  Raises SignatureError when sf has no row."""
    rule = _INDEX[system].get((sf.sign, *_shape(sf.formula)))
    if rule is None and sf._kind is _EXPANDS:
        raise SignatureError(f"no {system.value}-system rule for {sf}")
    return rule


def expand(sf, system):
    """Rule table: the alternatives for one signed formula, each alternative
    a list of signed formulas.  Returns None for literals.  Raises
    SignatureError when the formula has no rule in the given system."""
    rule = _rule(sf, system)
    return None if rule is None else rule[1](sf.formula)


def expand_derived(sf1, sf2):
    """Two-premise shortcut rules for the succ system: a signed implication
    paired with a signed negation of the same implication.  Raises ValueError
    if the arguments do not form such a pair."""
    plain, neg = (sf2, sf1) if type(sf1.formula) is Neg else (sf1, sf2)
    if type(plain.formula) is not Succ or neg.formula is not Neg(plain.formula):
        raise ValueError(f"not a derived-rule pair: {sf1}, {sf2}")
    return _DERIVED[plain.sign, neg.sign](plain.formula)


class Node:
    """One rule application (or the root).  `added` lists the signed formulas
    the application put on the branch at this point.  A closed node keeps the
    signed formula that closed it in `closed_by`, with the complement it
    conflicts with, if any; close_reason renders them."""

    __slots__ = ("added", "rule", "children", "closed", "closed_by")

    def __init__(self, added, rule=None, children=None, closed=False, closed_by=None):
        self.added = added
        self.rule = rule
        self.children = [] if children is None else children
        self.closed = closed
        self.closed_by = closed_by

    @property
    def close_reason(self):
        if self.closed_by is None:
            return None
        sf, complement = self.closed_by
        if complement is None:
            return f"{sf} is unsatisfiable"
        return f"{sf} conflicts with {complement}"


class Branch:
    """A branch under construction.  Its signed formulas are the `added`
    lists from `root` to `node`, taking at each split the alternative that
    `path` records, so sorting branches by path gives the leaf order.
    `mask` has a bit for each, numbered in `slots`, which all branches of a
    complete() call share: a clone copies only `pending`, the formulas that
    await expansion.  `done` masks those a derived rule has used up."""

    __slots__ = ("root", "node", "path", "slots", "mask", "pending", "done", "closed")

    def __init__(self, node, path=()):
        self.root = self.node = node
        self.path = path
        self.slots = {}
        self.mask = self.done = 0
        self.pending = deque()
        self.closed = False

    def clone(self, node, path):
        twin = Branch.__new__(Branch)
        twin.root, twin.slots, twin.node, twin.path = self.root, self.slots, node, path
        twin.mask, twin.done, twin.closed = self.mask, self.done, self.closed
        twin.pending = self.pending.copy()
        return twin

    @property
    def formulas(self):
        """The signed formulas on the branch, in the order they were added."""
        node, splits = self.root, iter(self.path)
        formulas = list(node.added)
        while node is not self.node:
            children = node.children
            node = children[0] if len(children) == 1 else children[next(splits)]
            formulas += node.added
        return formulas

    def bit(self, sf):
        """sf's bit in mask; T(f) and F(f) take neighbouring bits."""
        pair = self.slots.get(sf.formula)
        if pair is None:
            pair = self.slots[sf.formula] = 1 << 2 * len(self.slots)
        return pair if sf.sign == "T" else pair << 1

    def add(self, sf):
        """Record sf once; closes the branch on a sign conflict or an
        unsatisfiable signed constant.  A conflict looks the complement up,
        by the key sf cached when it was interned, to fill closed_by."""
        if self.closed:
            return
        bit = self.bit(sf)
        mask = self.mask
        if mask & bit:
            return
        self.mask = mask | bit
        self.node.added.append(sf)
        kind = sf._kind
        if kind is _CLOSES:
            self._close(sf, None)
        elif mask & (bit >> 1 if sf.sign == "F" else bit << 1):
            self._close(sf, TABLE.get(sf._complement_key, absent)())
        elif kind is _EXPANDS:
            self.pending.append(sf)

    def _close(self, sf, complement):
        self.closed = True
        self.node.closed = True
        self.node.closed_by = sf, complement


class Tableau:
    __slots__ = ("root", "branches", "system")

    def __init__(self, root, branches, system):
        self.root = root
        self.branches = branches
        self.system = system

    @property
    def closed(self):
        return all(b.closed for b in self.branches)

    def open_branches(self):
        return [b for b in self.branches if not b.closed]


def _collector_paused(function):
    """function, run with the cycle collector paused.  The engine builds no
    reference cycles (a node knows its children, not its parent), so a
    collection pass during a call can free nothing, yet the allocations of
    a large tableau trigger thousands of them.  A call that finds the
    collector off leaves it alone, so a nested pause is a no-op, a caller
    that keeps it off keeps it off, and a call that switches it off always
    switches it on again, also when calls in several threads overlap."""

    @functools.wraps(function)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return function(*args, **kwargs)
        gc.disable()
        try:
            return function(*args, **kwargs)
        finally:
            gc.enable()

    return paused


@_collector_paused
def complete(roots, system, derived=False, rng=None, stop_on_open=False):
    """Build a finished tableau from the given signed formulas: every branch
    is run until it closes or all its rules are used up.

    roots must already lie in the system's signature.  With derived=True the
    succ system applies its two-premise shortcut rules whenever a matching
    pair sits on the branch.  rng (a random.Random) picks pending formulas in
    random order instead of first-in-first-out; the verdict never depends on
    this choice.  stop_on_open abandons the remaining branches as soon as one
    completes open; branches are worked leftmost-first, so the open branch
    found this way is the leftmost open leaf of the finished tableau.

    The cycle collector is paused for the call: the tableau holds no
    reference cycles, so its passes would find nothing.  It is switched back
    on at the end only if it was on at the start; a gc.disable() made in
    another thread meanwhile is undone then.
    """
    roots = list(roots)
    for sf in roots:
        if not in_signature(sf.formula, system):
            raise SignatureError(
                f"{sf} is outside the {system.value} signature; translate first"
            )
    root = Node(added=[], rule=None)
    first = Branch(root)
    for sf in roots:
        first.add(sf)
    finished = []
    stack = [first]
    expansions = _Expansions(system)
    while stack:
        branch = stack.pop()
        while not branch.closed and branch.pending:
            if rng is None:
                sf = branch.pending.popleft()
            else:
                index = rng.randrange(len(branch.pending))
                branch.pending.rotate(-index)
                sf = branch.pending.popleft()
                branch.pending.rotate(index)
            if derived:
                if branch.done & branch.bit(sf):
                    continue
                alternatives, label = _pick_rule(sf, branch, system, expansions)
            else:
                # add() queues a formula once per branch, so none is done yet.
                alternatives, label = expansions[sf]
            if len(alternatives) == 1:
                node = Node(added=[], rule=label)
                branch.node.children.append(node)
                branch.node = node
                for new_sf in alternatives[0]:
                    branch.add(new_sf)
                continue
            # k - 1 clones; the branch itself takes the last alternative,
            # which is worked last.
            last = len(alternatives) - 1
            children = []
            for k, alt in enumerate(alternatives):
                node = Node(added=[], rule=label)
                branch.node.children.append(node)
                path = branch.path + (k,)
                if k < last:
                    child = branch.clone(node, path)
                else:
                    child = branch
                    child.node, child.path = node, path
                for new_sf in alt:
                    child.add(new_sf)
                children.append(child)
            stack.extend(reversed(children))
            branch = None
            break
        if branch is None:
            continue
        finished.append(branch)
        if stop_on_open and not branch.closed:
            break
    return Tableau(root, finished, system)


class _Expansions(dict):
    """One complete() call's memo: a signed formula's (alternatives, label)
    from the system's table, built on first use.  Every branch that expands
    the formula reads the same lists, so no branch may change them."""

    def __init__(self, system):
        super().__init__()
        self.system = system

    def __missing__(self, sf):
        label, rule = _rule(sf, self.system)
        expansion = self[sf] = rule(sf.formula), label
        return expansion


def _pick_rule(sf, branch, system, expansions):
    """With derived rules: pair sf with a partner on the branch if one is
    there and unused, else use sf's own row.  Marks what it uses as done."""
    partner = system is Signature.SUCC and _PARTNER.get(_shape(sf.formula))
    if partner:
        g = partner(sf.formula)
        pair = branch.slots.get(g, 0)
        for sign, bit in (("T", pair), ("F", pair << 1)):
            if branch.mask & bit and not branch.done & bit:
                cand = SignedFormula(sign, g)
                branch.done |= bit | branch.bit(sf)
                label = f"{_rule(sf, system)[0]}+{_rule(cand, system)[0]}"
                return expand_derived(sf, cand), label
    branch.done |= branch.bit(sf)
    return expansions[sf]


class Proved:
    __slots__ = ("tableau",)

    def __init__(self, tableau):
        self.tableau = tableau


class Refuted:
    __slots__ = ("model", "branch", "tableau")

    def __init__(self, model, branch, tableau):
        self.model = model
        self.branch = branch
        self.tableau = tableau


@_collector_paused
def decide(f, system, derived=False, rng=None):
    """Translate f into the system's signature and test whether it always
    takes the value 1: the tableau for F(translation) either closes (Proved)
    or leaves an open branch, from whose leftmost representative a
    countermodel is read off (Refuted).  Raises InvariantViolation if f takes
    the value 1 under that countermodel.

    The cycle collector is paused for the whole call, translation and model
    extraction included: none of it builds reference cycles, so its passes
    would find nothing.  It is switched back on at the end only if it was on
    at the start; a gc.disable() made in another thread meanwhile is undone
    then."""
    g = translate(f, system)
    tableau = complete([F(g)], system, derived=derived, rng=rng, stop_on_open=True)
    if tableau.closed:
        return Proved(tableau)
    branch = tableau.open_branches()[0]
    model = extract_model(branch, names=variables(g))
    if evaluate(f, model) == ONE:
        raise InvariantViolation(f"countermodel {model} gives {render(f)} the value 1")
    return Refuted(model, branch, tableau)


def decide_consequence(premises, conclusion, system, derived=False, rng=None):
    """Tableau test for "the meet of the premises lies below the conclusion":
    decide syntax.entailment, where > internalizes the order."""
    return decide(entailment(premises, conclusion), system, derived=derived, rng=rng)


def extract_model(branch, names=()):
    """Read a valuation off an open branch: intersect the value ranges forced
    by its signed literals, take the least survivor in the order 0, n, b, 1,
    and default unconstrained variables to 0."""
    if branch.closed:
        raise ValueError("cannot extract a model from a closed branch")
    constraints = {}
    for sf in branch.formulas:
        kind, under = _shape(sf.formula)
        allowed = _ALLOWED.get((sf.sign, kind, under))
        if allowed is None:
            continue
        atom = sf.formula.body if under is Var else sf.formula
        constraints[atom.name] = constraints.get(atom.name, frozenset(VALUES)) & allowed
    model = {}
    for name in sorted(set(names) | set(constraints)):
        allowed = constraints.get(name, frozenset(VALUES))
        if not allowed:
            raise InvariantViolation(
                f"open branch forces contradictory values for {name!r}"
            )
        model[name] = next(v for v in VALUES if v in allowed)
    return model


def format_tableau(tableau):
    """Indented text rendering of the tableau tree with rule labels."""
    lines = []
    stack = [(tableau.root, 0)]
    while stack:
        node, depth = stack.pop()
        pad = "  " * depth
        for i, sf in enumerate(node.added):
            tag = f"  [{node.rule}]" if i == 0 and node.rule is not None else ""
            lines.append(f"{pad}{sf}{tag}")
        if node.closed:
            lines.append(f"{pad}* closed: {node.close_reason}")
        stack.extend((child, depth + 1) for child in reversed(node.children))
    return "\n".join(lines) + "\n"
