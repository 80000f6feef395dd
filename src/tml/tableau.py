"""Signed tableaux for both signatures, with countermodel extraction.

A node carries signed formulas T(f) or F(f); T claims f takes a designated
value (b or 1), F claims it does not.  Because the four values are not
determined by one bit, rules also constrain negated formulas: T(~f) pins f
into {0, b} and F(~f) pins f into {1, n}.

The succ-signature calculus works on {>, ~} formulas, the full-signature one
on {&, |, ~, []}.  decide() translates its input first, so callers can hand
either calculus an arbitrary formula.
"""

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .algebra import DESIGNATED, ONE, VALUES
from .errors import InvariantViolation
from .semantics import evaluate
from .syntax import (
    And,
    Bot,
    Box,
    Neg,
    Or,
    SYMBOLS,
    Signature,
    SignatureError,
    Succ,
    Top,
    Var,
    entailment,
    in_signature,
    render,
    translate,
    variables,
)


@dataclass(frozen=True)
class SignedFormula:
    sign: str  # "T" or "F"
    formula: object

    def __post_init__(self):
        if self.sign not in ("T", "F"):
            raise ValueError(f"sign must be 'T' or 'F', not {self.sign!r}")

    def __str__(self):
        return f"{self.sign}({render(self.formula)})"


def T(f):
    return SignedFormula("T", f)


def F(f):
    return SignedFormula("F", f)


def satisfies(h, sf):
    """Does valuation h make the signed formula true?  T(f) asks for a
    designated value, F(f) for a non-designated one."""
    value = evaluate(sf.formula, h)
    return (value in DESIGNATED) == (sf.sign == "T")


# Signed constants that no valuation satisfies; adding one closes a branch.
_CLOSING = frozenset([T(Bot()), F(Neg(Bot())), F(Top()), T(Neg(Top()))])


def _is_literal(f):
    if isinstance(f, (Var, Bot, Top)):
        return True
    return isinstance(f, Neg) and isinstance(f.body, (Var, Bot, Top))


def expand(sf, system):
    """Rule table: the alternatives for one signed formula, each alternative
    a list of signed formulas.  Returns None for literals.  Raises
    SignatureError when the formula has no rule in the given system."""
    f = sf.formula
    if _is_literal(f):
        return None
    if isinstance(f, Neg) and isinstance(f.body, Neg):
        return [[SignedFormula(sf.sign, f.body.body)]]
    if system is Signature.SUCC:
        return _expand_succ(sf)
    return _expand_full(sf)


def _expand_succ(sf):
    f = sf.formula
    if isinstance(f, Succ):
        a, b = f.left, f.right
        if sf.sign == "T":
            return [
                [T(b)],
                [T(Neg(a)), F(b), T(Neg(b))],
                [F(a), F(b), F(Neg(b))],
            ]
        return [
            [T(a), F(b), F(Neg(b))],
            [F(Neg(a)), F(b), T(Neg(b))],
        ]
    if isinstance(f, Neg) and isinstance(f.body, Succ):
        a, b = f.body.left, f.body.right
        if sf.sign == "T":
            return [
                [T(a), F(b), T(Neg(b))],
                [F(Neg(a)), T(b), T(Neg(b))],
            ]
        return [
            [F(Neg(b))],
            [T(Neg(a)), T(b), T(Neg(b))],
            [F(a), F(b), T(Neg(b))],
        ]
    raise SignatureError(f"no succ-system rule for {sf}")


def _expand_full(sf):
    f = sf.formula
    t = sf.sign == "T"
    if isinstance(f, And):
        a, b = f.left, f.right
        return [[T(a), T(b)]] if t else [[F(a)], [F(b)]]
    if isinstance(f, Or):
        a, b = f.left, f.right
        return [[T(a)], [T(b)]] if t else [[F(a), F(b)]]
    if isinstance(f, Box):
        a = f.body
        return [[T(a), F(Neg(a))]] if t else [[F(a)], [T(Neg(a))]]
    if isinstance(f, Neg):
        g = f.body
        if isinstance(g, And):
            a, b = Neg(g.left), Neg(g.right)
            return [[T(a)], [T(b)]] if t else [[F(a), F(b)]]
        if isinstance(g, Or):
            a, b = Neg(g.left), Neg(g.right)
            return [[T(a), T(b)]] if t else [[F(a)], [F(b)]]
        if isinstance(g, Box):
            return [[F(g)]] if t else [[T(g)]]
    raise SignatureError(f"no full-system rule for {sf}")


def expand_derived(sf1, sf2):
    """Two-premise shortcut rules for the succ system: a signed implication
    paired with a signed negation of the same implication.  Raises ValueError
    if the arguments do not form such a pair."""
    pair = _match_derived(sf1, sf2)
    if pair is None:
        raise ValueError(f"not a derived-rule pair: {sf1}, {sf2}")
    plain_sign, neg_sign, a, b = pair
    table = {
        ("T", "T"): [
            [F(Neg(a)), T(b), T(Neg(b))],
            [T(a), T(Neg(a)), F(b), T(Neg(b))],
        ],
        ("F", "F"): [
            [T(a), F(b), F(Neg(b))],
            [F(a), F(Neg(a)), F(b), T(Neg(b))],
        ],
        ("T", "F"): [
            [F(a), T(Neg(a))],
            [F(a), F(Neg(a)), F(b), F(Neg(b))],
            [T(a), T(Neg(a)), T(b), T(Neg(b))],
            [T(b), F(Neg(b))],
        ],
        ("F", "T"): [
            [T(a), F(Neg(a)), F(b), T(Neg(b))],
        ],
    }
    return table[(plain_sign, neg_sign)]


def _match_derived(sf1, sf2):
    for plain, neg in ((sf1, sf2), (sf2, sf1)):
        if (
            isinstance(plain.formula, Succ)
            and isinstance(neg.formula, Neg)
            and neg.formula.body == plain.formula
        ):
            return plain.sign, neg.sign, plain.formula.left, plain.formula.right
    return None


def _rule_label(sf):
    f = sf.formula
    name = "~" + SYMBOLS[type(f.body)] if type(f) is Neg else SYMBOLS[type(f)]
    return f"{sf.sign}({name})"


@dataclass
class Node:
    """One rule application (or the root).  `added` lists the signed formulas
    the application put on the branch at this point."""

    added: list
    rule: Optional[str] = None
    children: list = field(default_factory=list)
    closed: bool = False
    close_reason: Optional[str] = None


class Branch:
    """A branch under construction: the ordered signed formulas on it, plus
    bookkeeping for which of them still await expansion.  `path` records the
    alternative indices taken at each split, so sorting branches by path
    recovers the left-to-right leaf order."""

    def __init__(self, node, path=()):
        self.node = node
        self.path = path
        self.formulas = []
        self.present = set()
        self.pending = deque()
        self.done = set()
        self.closed = False

    def clone(self, node, path):
        twin = Branch(node, path)
        twin.formulas = list(self.formulas)
        twin.present = set(self.present)
        twin.pending = deque(self.pending)
        twin.done = set(self.done)
        twin.closed = self.closed
        return twin

    def add(self, sf):
        """Record sf once; closes the branch on a sign conflict or an
        unsatisfiable signed constant."""
        if sf in self.present or self.closed:
            return
        self.present.add(sf)
        self.formulas.append(sf)
        self.node.added.append(sf)
        complement = SignedFormula("F" if sf.sign == "T" else "T", sf.formula)
        if sf in _CLOSING:
            self._close(f"{sf} is unsatisfiable")
        elif complement in self.present:
            self._close(f"{sf} conflicts with {complement}")
        elif not _is_literal(sf.formula):
            self.pending.append(sf)

    def _close(self, reason):
        self.closed = True
        self.node.closed = True
        self.node.close_reason = reason


@dataclass
class Tableau:
    root: Node
    branches: list
    system: Signature

    @property
    def closed(self):
        return all(b.closed for b in self.branches)

    def open_branches(self):
        return [b for b in self.branches if not b.closed]


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
            if sf in branch.done:
                continue
            alternatives, label = _pick_rule(sf, branch, system, derived)
            if len(alternatives) == 1:
                node = Node(added=[], rule=label)
                branch.node.children.append(node)
                branch.node = node
                for new_sf in alternatives[0]:
                    branch.add(new_sf)
                continue
            children = []
            for k, alt in enumerate(alternatives):
                node = Node(added=[], rule=label)
                branch.node.children.append(node)
                child = branch.clone(node, branch.path + (k,))
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
    finished.sort(key=lambda b: b.path)
    return Tableau(root, finished, system)


def _pick_rule(sf, branch, system, derived):
    if derived and system is Signature.SUCC:
        partner = _find_partner(sf, branch)
        if partner is not None:
            branch.done.add(sf)
            branch.done.add(partner)
            label = f"{_rule_label(sf)}+{_rule_label(partner)}"
            return expand_derived(sf, partner), label
    branch.done.add(sf)
    return expand(sf, system), _rule_label(sf)


def _find_partner(sf, branch):
    f = sf.formula
    if isinstance(f, Succ):
        candidates = (T(Neg(f)), F(Neg(f)))
    elif isinstance(f, Neg) and isinstance(f.body, Succ):
        candidates = (T(f.body), F(f.body))
    else:
        return None
    for cand in candidates:
        if cand in branch.present and cand not in branch.done:
            return cand
    return None


@dataclass
class Proved:
    tableau: Tableau


@dataclass
class Refuted:
    model: dict
    branch: Branch
    tableau: Tableau


def decide(f, system, derived=False, rng=None):
    """Translate f into the system's signature and test whether it always
    takes the value 1: the tableau for F(translation) either closes (Proved)
    or leaves an open branch, from whose leftmost representative a
    countermodel is read off (Refuted).  Raises InvariantViolation if f takes
    the value 1 under that countermodel."""
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


# Value ranges a signed literal forces on its variable, keyed by
# (sign, whether the variable sits under a negation).
_RANGE = {
    ("T", False): frozenset({"b", "1"}),
    ("F", False): frozenset({"0", "n"}),
    ("T", True): frozenset({"0", "b"}),
    ("F", True): frozenset({"1", "n"}),
}


def extract_model(branch, names=()):
    """Read a valuation off an open branch: intersect the value ranges forced
    by its signed literals, take the least survivor in the order 0, n, b, 1,
    and default unconstrained variables to 0."""
    if branch.closed:
        raise ValueError("cannot extract a model from a closed branch")
    constraints = {}
    for sf in branch.formulas:
        f = sf.formula
        negated = isinstance(f, Neg)
        atom = f.body if negated else f
        if not isinstance(atom, Var):
            continue
        allowed = _RANGE[(sf.sign, negated)]
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

    def walk(node, depth):
        pad = "  " * depth
        tagged = False
        for sf in node.added:
            tag = ""
            if not tagged and node.rule is not None:
                tag = f"  [{node.rule}]"
                tagged = True
            lines.append(f"{pad}{sf}{tag}")
        if node.closed:
            lines.append(f"{pad}* closed: {node.close_reason}")
        for child in node.children:
            walk(child, depth + 1)

    walk(tableau.root, 0)
    return "\n".join(lines) + "\n"
