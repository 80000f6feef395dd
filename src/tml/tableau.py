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
    object.  Interning also records what the tableau loop needs of it: its
    kind in _KINDS, read as a compiled rule reads it for the triples it
    builds."""

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

# What _search does with a signed formula, keyed by its sign and _shape:
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
    """A finished branch: its signed formulas are the `added` lists from
    `root` to its leaf `node`, taking at each split the alternative that
    `path` records, so sorting branches by path gives the leaf order.  It is
    closed when its leaf is.  Branch(node) is the one branch of the
    one-node tree `node`."""

    __slots__ = ("root", "node", "path", "closed")

    def __init__(self, node, root=None, path=()):
        self.root = node if root is None else root
        self.node = node
        self.path = path
        self.closed = node.closed

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
    found this way is the leftmost open leaf of the finished tableau.  The
    alternatives it abandons still show what they add.

    The tree is _search's record of the loop that decide() runs, with
    backjumping off.

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
    branches = _search(roots, system, derived, rng, True, stop_on_open)
    return Tableau(branches[0].root, branches, system)


class _Triples(dict):
    """One _search call's memo: a (sign, formula, kind) triple's
    (alternatives, label), the compiled rule's lists of triples as they
    are, built on first use.  Every path that expands the triple reads the
    same lists, so none may change them."""

    def __init__(self, system):
        super().__init__()
        self.system = system

    def __missing__(self, triple):
        sign, formula, _ = triple
        label, rule = _rule(sign, formula, self.system)
        row = self[triple] = rule(formula), label
        return row


class _Signed(dict):
    """One _search call's memo: the SignedFormula of each triple it records,
    looked up faster than SignedFormula interns it."""

    def __missing__(self, triple):
        sf = self[triple] = SignedFormula(triple[0], triple[1])
        return sf


def _search(roots, system, derived=False, rng=None, record=False, stop_on_open=False):
    """The one tableau loop.  It works the branches from the signed formulas
    roots leftmost first, expanding pending formulas first-in-first-out, or
    in the order rng picks them.  With derived=True the succ system applies
    a derived rule to a signed a > b beside a signed ~(a > b) on the path,
    and `done` has the bits of the formulas a rule has used up.

    With record it returns the finished branches as Branch records of the
    tree it builds.  Each alternative it takes becomes a Node with its rule
    label, `added` and `closed_by`, under `trunk`, whose one child is the
    root; this is done once per alternative, after its formulas are read.
    With stop_on_open it stops at the first open branch, but still takes
    each alternative left on the stack to record what it adds.  Each
    closure is -1, which rests on every split, so nothing is skipped.

    Without record it backjumps, and returns the (sign, formula, kind)
    triples of the leftmost open branch in the order they were added, or
    None when every branch closes.  Each signed formula on the path carries
    a dependency mask with a bit for each split whose choice it rests on:
    alternative k of a split at depth L gives what it adds its principal's
    mask plus bit L (and, under a derived rule, its partner's mask), and a
    row with one alternative passes the principal's mask on.  A closure's
    mask joins those of the formulas that close it.  When an alternative
    closes without bit L, the formulas before the split that the closure
    rests on are unsatisfiable by themselves, so the other alternatives
    would close too and are skipped.  When every alternative closes, the
    split closes with the union of their masks less bit L.  Skipped
    alternatives hold no open branch, so the open branch found is the
    recorded tree's leftmost.  No SignedFormula is built: on small inputs
    most of them would be new and die with the call.

    One path is kept at a time.  `trail` lists its triples, `mask` has
    their bits (a formula new to `slots` takes the next pair, T(f) the lower
    and F(f) the upper), and `queue` holds each triple that awaits expansion
    followed by its dependency mask, from `head` on.  A choice point saves
    what undoes a split: truncating `queue` and `trail`, restoring `mask`,
    `done` and `head`, and the parent node, label and path the split's other
    alternatives are recorded under.  An rng pops its pick in place, so
    there the choice point saves a copy of the pending part of `queue`
    instead.  Entries of `deps` for bits that `mask` lacks are stale and
    never read."""
    expansions, signed = _Triples(system), record and _Signed().__getitem__
    trunk = parent = record and Node([])  # the trunk's one child is the root
    derived = derived and system is Signature.SUCC
    slots, deps, queue, trail, choices, leaves = {}, {}, [], [], [], []
    mask = done = head = start = 0
    node, label, alternatives, path, draining = None, None, (), (), False
    alternative, dep = [(sf.sign, sf.formula, sf._kind) for sf in roots], 0
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
        if record:
            node = Node(list(map(signed, trail[start:])), label)
            parent.children.append(node)
            if len(alternatives) > 1:
                path += (len(parent.children) - 1,)
            if closure is not None:
                # The closing triple is the last read.  Its complement is on
                # the path, so it is interned: look it up by the TABLE key.
                complement = None if kind is _CLOSES else TABLE.get(
                    ("F" if sign == "T" else "T", formula), absent)()
                node.closed, node.closed_by = True, (node.added[-1], complement)
                if not draining:
                    leaves.append(Branch(node, trunk.children[0], path))
                closure = -1
            elif draining:
                closure = -1
            # The parent and trail length of an alternative that an
            # expansion takes next; one taken from a choice point resets them.
            parent, start = node, len(trail)
        while closure is None and head < len(queue):
            if rng is None:
                triple, dep = queue[head], queue[head + 1]
                head += 2
            else:
                i = head + 2 * rng.randrange((len(queue) - head) >> 1)
                triple, dep = queue[i], queue[i + 1]
                del queue[i:i + 2]
            if not derived:
                alternatives, label = expansions[triple]
            else:
                sign, formula, _ = triple
                bit = slots[formula] << (sign == "F")
                if done & bit:
                    continue
                done |= bit
                partner = _PARTNER.get(_shape(formula))
                g = partner(formula) if partner else None
                pair = slots.get(g, 0)
                for other_sign, other in (("T", pair), ("F", pair << 1)):
                    if mask & other and not done & other:
                        done |= other
                        dep |= deps[other]
                        plain = formula if type(formula) is Succ else g
                        signs = (sign, other_sign) if plain is formula else (other_sign, sign)
                        alternatives = _DERIVED[signs](plain)
                        label = f"{_rule(sign, formula, system)[0]}+{_rule(other_sign, g, system)[0]}"
                        break
                else:
                    alternatives, label = expansions[triple]
            if len(alternatives) > 1:
                dep |= 1 << len(choices)
                # The alternatives, the next to take, the union of the
                # closures so far, and what the next one starts from.
                choices.append([alternatives, 1, 0, dep, mask, done, head,
                                len(queue) if rng is None else queue[head:], len(trail),
                                node, label, path])
            alternative = alternatives[0]
            break
        else:
            if closure is None:  # nothing is left to expand: an open branch
                if not record:
                    return trail
                leaves.append(Branch(node, trunk.children[0], path))
                draining, closure = stop_on_open, -1
            # Close splits from the deepest up until one has an alternative
            # left that the closure depends on.
            while choices:
                depth = len(choices) - 1
                choice = choices[-1]
                if closure >> depth & 1:
                    closure |= choice[2]
                    alternatives, k = choice[0], choice[1]
                    if k < len(alternatives):
                        choice[1], choice[2] = k + 1, closure
                        dep, mask, done, head, pending, start, parent, label, path = choice[3:]
                        del trail[start:]
                        if rng is None:
                            del queue[pending:]
                        else:
                            queue[head:] = pending
                        alternative = alternatives[k]
                        break
                    closure &= ~(1 << depth)
                choices.pop()
            else:
                return leaves if record else None


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
    ran its search, as it does unless it is given an rng, it holds a
    function that builds that Branch from the search's trail, which is
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

    The verdict comes from _search's backjumping search, derived rules
    included, and complete() builds the tableau only when the verdict's
    `tableau` is read, the open branch's signed formulas only when its
    `branch` is read.  Only with an rng does complete() build it first: a
    pruned search would draw fewer numbers, and could reach another open
    branch.

    Only complete() pauses the cycle collector.  The search allocates little
    per triple, and pausing around it measured slower, not faster."""
    g = translate(f, system)
    if rng is None:
        def tableau():
            return complete([F(g)], system, derived=derived, stop_on_open=True)

        trail = _search([F(g)], system, derived)
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
