"""Signed tableaux for both signatures, with countermodel extraction.

A node carries signed formulas T(f) or F(f); T claims f takes a designated
value (b or 1), F claims it does not.  Because the four values are not
determined by one bit, rules also constrain negated formulas: T(~f) pins f
into {0, b} and F(~f) pins f into {1, n}.

The succ-signature calculus works on {>, ~} formulas, the full-signature one
on {&, |, ~, []}.  decide() translates an input outside the calculus's
signature first, so callers can hand either calculus an arbitrary formula;
an input already inside it is decided as it is.
"""

import collections
import functools
import gc
import itertools

from .algebra import DESIGNATED, ONE, VALUES, ZERO
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
)


class SignedFormula(Interned):
    """T(f) or F(f), interned like formulas: equal signed formulas are one
    object.  Interning also records what Branch.extend needs of it: its kind
    in _KINDS, read as a compiled rule reads it for the triples it builds."""

    __slots__ = ("sign", "formula", "_kind")
    __match_args__ = ("sign", "formula")

    def __new__(cls, sign, formula):
        # The TABLE key and _shape, written out: on decide's small inputs most
        # signed formulas are new, and calling out for them costs about 4 %
        # of their latency.  The test that checks both against a reference
        # is test_cached_kind_matches_the_reference; a compiled rule writes
        # the kind out again, and test_compiled_kinds_match_the_signed_formulas
        # holds it to this one.
        key = sign, formula
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
            node = enter(key, node)
        return node

    def __str__(self):
        return f"{self.sign}({render(self.formula)})"


_SET_SIGN = SignedFormula.sign.__set__
_SET_FORMULA = SignedFormula.formula.__set__
_SET_KIND = SignedFormula._kind.__set__


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
    """One row's rule: from an instance of principal to its alternatives,
    each a list of plain (sign, formula, kind) triples.  The kind is read
    from _KINDS as SignedFormula.__new__ reads it; _signed wraps the
    triples into signed formulas."""
    alternatives = [[(item[0], _instantiator(principal, item[2:])) for item in alt]
                    for alt in alternatives]

    def rule(f):
        out = []
        for alt in alternatives:
            triples = []
            for sign, build in alt:
                g = build(f)
                shape = type(g)
                under = type(g.body) if shape is Neg else None
                triples.append((sign, g, _KINDS.get((sign, shape, under), _EXPANDS)))
            out.append(triples)
        return out

    return rule


def _signed(alternatives):
    """A compiled rule's alternatives with each triple a SignedFormula."""
    return [[SignedFormula(sign, g) for sign, g, _ in alt] for alt in alternatives]


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

# What Branch.extend does with a signed formula, keyed by its sign and _shape:
# a signed literal stays on the branch, one that no valuation satisfies (a
# signed constant whose value disagrees with its sign) closes the branch, and
# every other shape waits for its rule.  SignedFormula reads this table once
# per interned object and a compiled rule once per triple, so it must be
# complete before the first of either is built.
_LITERAL, _CLOSES, _EXPANDS = "literal", "closes", "expands"
_KINDS = {
    (sign, *_shape(f)): _LITERAL if any(
        (evaluate(f, {"a": v}) in DESIGNATED) == (sign == "T") for v in VALUES
    ) else _CLOSES
    for f in (Var("a"), Neg(Var("a")), BOT, TOP, Neg(BOT), Neg(TOP)) for sign in ("T", "F")
}

# The values a signed literal over a variable allows it, keyed by the sign
# and whether the variable is negated; and the least member of each
# nonempty set of values, in the order of VALUES.
_ALLOWED = {
    (sf.sign, type(sf.formula) is Neg): frozenset(v for v in VALUES if satisfies({"a": v}, sf))
    for f in (Var("a"), Neg(Var("a"))) for sf in (T(f), F(f))
}
_ANY = frozenset(VALUES)
_LEAST = {frozenset(values): values[0]
          for size in range(1, len(VALUES) + 1)
          for values in itertools.combinations(VALUES, size)}


def _rule(sign, formula, system):
    """The (label, rule) of sign(formula)'s row in the system's table; None
    for a literal.  Raises SignatureError when it has no row."""
    key = sign, *_shape(formula)
    rule = _INDEX[system].get(key)
    if rule is None and key not in _KINDS:
        raise SignatureError(f"no {system.value}-system rule for {sign}({render(formula)})")
    return rule


def expand(sf, system):
    """Rule table: the alternatives for one signed formula, each alternative
    a list of signed formulas.  Returns None for literals.  Raises
    SignatureError when the formula has no rule in the given system."""
    rule = _rule(sf.sign, sf.formula, system)
    return None if rule is None else _signed(rule[1](sf.formula))


def expand_derived(sf1, sf2):
    """Two-premise shortcut rules for the succ system: a signed implication
    paired with a signed negation of the same implication.  Raises ValueError
    if the arguments do not form such a pair."""
    plain, neg = (sf2, sf1) if type(sf1.formula) is Neg else (sf1, sf2)
    if type(plain.formula) is not Succ or neg.formula is not Neg(plain.formula):
        raise ValueError(f"not a derived-rule pair: {sf1}, {sf2}")
    return _signed(_DERIVED[plain.sign, neg.sign](plain.formula))


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
    complete() call share: a clone copies only `pending`, the list of
    formulas that await expansion.  `done` masks those a derived rule has
    used up."""

    __slots__ = ("root", "node", "path", "slots", "mask", "pending", "done", "closed")

    def __init__(self, node, path=()):
        self.root = self.node = node
        self.path = path
        self.slots = {}
        self.mask = self.done = 0
        self.pending = []
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
        """sf's bit in mask.  Slot rule: a formula new to `slots` takes the
        next pair of bits, T(f) the lower and F(f) the upper.  extend()
        states the rule inline; a test checks that the two agree."""
        pair = self.slots.get(sf.formula)
        if pair is None:
            pair = self.slots[sf.formula] = 1 << 2 * len(self.slots)
        return pair if sf.sign == "T" else pair << 1

    def add(self, sf):
        """extend() with the one signed formula sf."""
        self.extend((sf,))

    def extend(self, sfs):
        """Record each of sfs once, in order, up to the first that closes
        the branch: a sign conflict or an unsatisfiable signed constant.  A
        conflict names the complement in closed_by.  Its bit is set, so it
        is on the branch and interned, and it is looked up by the TABLE key
        that SignedFormula.__new__ writes out: a SignedFormula call costs
        several times the lookup, and most branches close this way."""
        if self.closed:
            return
        slots, mask, added = self.slots, self.mask, self.node.added
        for sf in sfs:
            pair = slots.get(sf.formula)
            if pair is None:
                pair = slots[sf.formula] = 1 << 2 * len(slots)
            bit, other = (pair, pair << 1) if sf.sign == "T" else (pair << 1, pair)
            if mask & bit:
                continue
            mask |= bit
            added.append(sf)
            kind = sf._kind
            if kind is _CLOSES:
                return self._close(mask, sf, None)
            if mask & other:
                complement = TABLE.get(("F" if sf.sign == "T" else "T", sf.formula), absent)()
                return self._close(mask, sf, complement)
            if kind is _EXPANDS:
                self.pending.append(sf)
        self.mask = mask

    def _close(self, mask, sf, complement):
        self.mask = mask
        self.closed = self.node.closed = True
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
    root = Node([])
    first = Branch(root)
    first.extend(roots)
    finished = []
    stack = [first]
    expansions = _Expansions(system)
    while stack:
        branch = stack.pop()
        pending = branch.pending
        while not branch.closed and pending:
            sf = pending.pop(0 if rng is None else rng.randrange(len(pending)))
            if derived:
                if branch.done & branch.bit(sf):
                    continue
                alternatives, label = _pick_rule(sf, branch, system, expansions)
            else:
                # extend() queues a formula once per branch, so none is done yet.
                alternatives, label = expansions[sf]
            # A clone for each alternative but the first, pushed so that the
            # second is popped next; the branch itself takes the first and
            # is worked on at once.  Only a split extends the path.
            children = branch.node.children
            for _ in alternatives:
                children.append(Node([], label))
            if len(children) > 1:
                path = branch.path
                for k in range(len(children) - 1, 0, -1):
                    twin = branch.clone(children[k], path + (k,))
                    twin.extend(alternatives[k])
                    stack.append(twin)
                branch.path = path + (0,)
            branch.node = children[0]
            branch.extend(alternatives[0])
        finished.append(branch)
        if stop_on_open and not branch.closed:
            break
    return Tableau(root, finished, system)


class _Expansions(dict):
    """One complete() call's memo: a signed formula's (alternatives, label)
    from the system's table, built on first use, the compiled rule's
    triples wrapped into signed formulas.  Every branch that expands the
    formula reads the same lists, so no branch may change them."""

    def __init__(self, system):
        super().__init__()
        self.system = system

    def __missing__(self, sf):
        label, rule = _rule(sf.sign, sf.formula, self.system)
        expansion = self[sf] = _signed(rule(sf.formula)), label
        return expansion


class _Triples(_Expansions):
    """One _refute call's memo: a (sign, formula, kind) triple's
    alternatives, the compiled rule's lists of triples as they are."""

    def __missing__(self, triple):
        sign, formula, _ = triple
        alternatives = self[triple] = _rule(sign, formula, self.system)[1](formula)
        return alternatives


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
                label = f"{_rule(sf.sign, sf.formula, system)[0]}+{_rule(sign, g, system)[0]}"
                return expand_derived(sf, cand), label
    branch.done |= branch.bit(sf)
    return expansions[sf]


def _refute(root, system):
    """The (sign, formula, kind) triples of the leftmost open branch of
    complete([root], system), in the order complete() adds their signed
    formulas, or None when every branch closes.

    The search runs complete()'s branches in complete()'s order, without
    building nodes, and backjumps.  Each signed formula on the path carries
    a dependency mask with a bit for each split whose choice it rests on:
    alternative k of a split at depth L gives what it adds its principal's
    mask plus bit L, and a row with one alternative passes the principal's
    mask on.  A closure's mask joins those of the formulas that close it.
    When an alternative closes without bit L, the formulas before the split
    that the closure rests on are unsatisfiable by themselves, so the other
    alternatives would close too and are skipped.  When every alternative
    closes, the split closes with the union of their masks less bit L.
    Skipped alternatives hold no open branch, so the open branch found is
    complete()'s.

    The search reads the compiled rules' plain (sign, formula, kind)
    triples, memoized per call in _Triples, and builds no SignedFormula: on
    small inputs most of them would be new and die with the call.  The
    trail it returns is those triples too; decide() reads its model from
    them and turns them into signed formulas only if its branch is read.

    One path is kept at a time.  `trail` lists its triples, `mask` has
    their bits, numbered in `slots` as in Branch.extend, and `queue` holds
    each triple that awaits expansion followed by its dependency mask, from
    `head` on.  A choice point saves what undoes a split: truncating `queue`
    and `trail` and restoring `mask` and `head`.  Entries of `deps` for bits
    that `mask` lacks are stale and never read."""
    expansions = _Triples(system)
    slots, deps, queue, trail, choices = {}, {}, [], [], []
    mask = head = 0
    alternative, dep = ((root.sign, root.formula, root._kind),), 0
    while True:
        closure = None
        for triple in alternative:
            sign, formula, kind = triple
            pair = slots.get(formula)
            if pair is None:
                pair = slots[formula] = 1 << 2 * len(slots)
            bit, other = (pair, pair << 1) if sign == "T" else (pair << 1, pair)
            if mask & bit:
                continue
            mask |= bit
            deps[bit] = dep
            trail.append(triple)
            if kind is _CLOSES:
                closure = dep
                break
            if mask & other:
                closure = dep | deps[other]
                break
            if kind is _EXPANDS:
                queue += triple, dep
        if closure is None:
            if head == len(queue):
                return trail
            triple, dep = queue[head], queue[head + 1]
            head += 2
            alternatives = expansions[triple]
            if len(alternatives) > 1:
                dep |= 1 << len(choices)
                choices.append([alternatives, 1, dep, 0, mask, head, len(queue), len(trail)])
            alternative = alternatives[0]
            continue
        # Close splits from the deepest up until one has an alternative
        # left that the closure depends on.
        while choices:
            depth = len(choices) - 1
            choice = choices[-1]
            alternatives, k, dep, union, mask, head, length, added = choice
            if closure >> depth & 1:
                closure |= union
                if k < len(alternatives):
                    choice[1], choice[3] = k + 1, closure
                    del queue[length:], trail[added:]
                    alternative = alternatives[k]
                    break
                closure &= ~(1 << depth)
            choices.pop()
        else:
            return None


class _Verdict:
    __slots__ = ("_tableau",)

    @property
    def tableau(self):
        """The finished tableau with stop_on_open.  When decide() ran its
        search, it holds a function that builds the tableau with complete(),
        which is called on first read."""
        if callable(self._tableau):
            self._built(self._tableau())
        return self._tableau

    def _built(self, tableau):
        self._tableau = tableau


class Proved(_Verdict):
    __slots__ = ()

    def __init__(self, tableau):
        self._tableau = tableau


class Refuted(_Verdict):
    """`branch` is the open branch the model is read from.  Until `tableau`
    is built it is a Branch over one Node whose `added` lists the branch's
    formulas; from then on it is that tableau's open branch.  When decide()
    ran its search, it holds a function that builds that Branch, which is
    called on first read."""

    __slots__ = ("model", "_branch")

    def __init__(self, model, branch, tableau):
        self.model = model
        self._branch = branch
        self._tableau = tableau

    @property
    def branch(self):
        if callable(self._branch):
            self._branch = self._branch()
        return self._branch

    def _built(self, tableau):
        self._tableau = tableau
        self._branch = tableau.open_branches()[0]


@_collector_paused
def decide(f, system, derived=False, rng=None):
    """Translate f into the system's signature and test whether it always
    takes the value 1: the tableau for F(translation) either closes (Proved)
    or leaves an open branch, from whose leftmost representative a
    countermodel is read off (Refuted).  Raises InvariantViolation if f takes
    the value 1 under that countermodel.

    The model is _model's reading of the branch's literal triples.  The
    check evaluates f under it, which reads every variable of f, and so of
    its translation, and binds each one no literal constrains to 0; the
    model is then sorted by name.

    The verdict comes from _refute's search, and complete() builds the
    tableau only when the verdict's `tableau` is read, the open branch's
    signed formulas only when its `branch` is read.  Only with an rng, or
    with derived rules in the succ system, does complete() build it first:
    an rng would draw fewer numbers in a pruned search, and succ's derived
    rules pair formulas and mark used ones per branch, which the search does
    not track.  In the full system derived rules pair nothing, so the tree
    is the one without them.

    The cycle collector is paused for the whole call, translation and model
    extraction included: none of it builds reference cycles, so its passes
    would find nothing.  It is switched back on at the end only if it was on
    at the start; a gc.disable() made in another thread meanwhile is undone
    then."""
    g = translate(f, system)
    if rng is None and not (derived and system is Signature.SUCC):
        def tableau():
            return complete([F(g)], system, stop_on_open=True)

        trail = _refute(F(g), system)
        if trail is None:
            return Proved(tableau)

        def branch():
            return Branch(Node([SignedFormula(sign, formula) for sign, formula, _ in trail]))
    else:
        tableau = complete([F(g)], system, derived=derived, rng=rng, stop_on_open=True)
        if tableau.closed:
            return Proved(tableau)
        branch = tableau.open_branches()[0]
        trail = [(sf.sign, sf.formula, sf._kind) for sf in branch.formulas]
    model = _model(trail)
    value = evaluate(f, model)
    model = dict(sorted(model.items()))
    if value == ONE:
        raise InvariantViolation(f"countermodel {model} gives {render(f)} the value 1")
    return Refuted(model, branch, tableau)


def decide_consequence(premises, conclusion, system):
    """Tableau test for "the meet of the premises lies below the conclusion":
    decide syntax.entailment, where > internalizes the order."""
    return decide(entailment(premises, conclusion), system)


def _model(trail):
    """The countermodel an open branch's (sign, formula, kind) triples
    force: intersect the value ranges its signed literals allow and take the
    least survivor in the order 0, n, b, 1.  Its keys are in the order of
    their first literal.  It is a defaultdict that binds a variable it lacks
    to 0, the least value, when it is first read."""
    constraints = {}
    for sign, atom, kind in trail:
        if kind is not _LITERAL:
            continue
        negated = type(atom) is Neg
        if negated:
            atom = atom.body
        if type(atom) is Var:
            name = atom.name
            constraints[name] = constraints.get(name, _ANY) & _ALLOWED[sign, negated]
    model = collections.defaultdict(lambda: ZERO)
    for name, values in constraints.items():
        least = model[name] = _LEAST.get(values)
        if least is None:
            name = min(n for n, v in constraints.items() if not v)
            raise InvariantViolation(f"open branch forces contradictory values for {name!r}")
    return model


def extract_model(branch, names=()):
    """Read a valuation off an open branch with _model, give each of names
    no literal constrains the value 0, and sort it by name."""
    if branch.closed:
        raise ValueError("cannot extract a model from a closed branch")
    model = _model([(sf.sign, sf.formula, sf._kind) for sf in branch.formulas])
    return {name: model[name] for name in sorted(model.keys() | names)}


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
