"""Formula syntax: AST, parser, printer, measures, signature translations.

Two signatures share one AST.  The "full" signature has and/or/neg/box plus
the constants (diamond is accepted as sugar and translated away); the "succ"
signature has neg and the strong implication > over variables and bot.

Concrete syntax:

    formula := succ
    succ    := or ('>' succ)?          right associative
    or      := and ('|' and)*          left associative
    and     := unary ('&' unary)*      left associative
    unary   := '~' unary | '[]' unary | '<>' unary | atom
    atom    := 'bot' | 'top' | IDENT | '(' formula ')'

Identifiers match [a-z][a-zA-Z0-9_]* and may not be the keywords bot/top.
Nesting is bounded by MAX_DEPTH.
"""

import enum
import functools
import operator
import re

from .hashcons import TABLE, Interned, absent, enter

_IDENT_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")
_KEYWORDS = ("bot", "top")

MAX_DEPTH = 100
"""Deepest nesting parse() accepts.  Each connective and each pair of
parentheses sits one level above its deepest operand, so a formula text of
depth d yields a tree of depth at most d.  The bound keeps the two walks
that still recurse within Python's default limit of 1000 frames: the parser
takes up to five frames per level (a pair of parentheses; a prefix
connective or '>' takes one), and semantics.evaluate two per level of the
tree.  Folds (the printer, measures and translations), subformulas, hashing
and == take none, so they take formulas of any depth, translations too."""


class ParseError(Exception):
    """Syntax error with a 1-based column and the token kinds expected there."""

    def __init__(self, message, position, expected=()):
        self.position = position
        self.expected = tuple(sorted(expected))
        super().__init__(f"parse error at position {position}: {message}")


class SignatureError(ValueError):
    """A formula strayed outside the signature an operation is defined on."""


class Formula(Interned):
    """A formula node.  Formulas are interned (see hashcons), so equal
    formulas are one object and == is identity."""

    __slots__ = ()


class _Constant(Formula):
    __slots__ = ()

    def __new__(cls):
        return _CONSTANTS[cls]


class Bot(_Constant):
    __slots__ = ()


class Top(_Constant):
    __slots__ = ()


_CONSTANTS = {kind: object.__new__(kind) for kind in (Bot, Top)}
BOT = _CONSTANTS[Bot]
TOP = _CONSTANTS[Top]


class Var(Formula):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __new__(cls, name):
        key = (cls, name)
        node = TABLE.get(key, absent)()
        if node is None:
            if _IDENT_RE.fullmatch(name) is None or name in _KEYWORDS:
                raise ValueError(f"bad variable name {name!r}")
            node = object.__new__(cls)
            _SET_NAME(node, name)
            node = enter(key, node)
        return node


class _Unary(Formula):
    __slots__ = ("body",)
    __match_args__ = ("body",)

    def __new__(cls, body):
        key = (cls, id(body))
        node = TABLE.get(key, absent)()
        if node is None:
            node = object.__new__(cls)
            _SET_BODY(node, body)
            node = enter(key, node)
        return node


class _Binary(Formula):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __new__(cls, left, right):
        key = (cls, id(left), id(right))
        node = TABLE.get(key, absent)()
        if node is None:
            node = object.__new__(cls)
            _SET_LEFT(node, left)
            _SET_RIGHT(node, right)
            node = enter(key, node)
        return node


# Slot setters, bypassing the __setattr__ that makes fields read-only.
_SET_NAME = Var.name.__set__
_SET_BODY = _Unary.body.__set__
_SET_LEFT = _Binary.left.__set__
_SET_RIGHT = _Binary.right.__set__


class Neg(_Unary):
    __slots__ = ()


class Box(_Unary):
    __slots__ = ()


class Dia(_Unary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Succ(_Binary):
    """The strong implication, written > in concrete syntax."""

    __slots__ = ()


class Signature(enum.Enum):
    FULL = "full"
    SUCC = "succ"


_FULL_TYPES = frozenset([Var, Bot, Top, Neg, And, Or, Box])
_SUCC_TYPES = frozenset([Var, Bot, Neg, Succ])

_ATOMS = frozenset([Var, Bot, Top])
_UNARY = frozenset([Neg, Box, Dia])
_BINARY = frozenset([And, Or, Succ])

SYMBOLS = {Neg: "~", Box: "[]", Dia: "<>", And: "&", Or: "|", Succ: ">"}
"""Concrete syntax of each connective."""


def in_signature(f, sig):
    types = _FULL_TYPES if sig is Signature.FULL else _SUCC_TYPES
    return all(type(g) in types for g in subformulas(f))


def subformulas(f, seen=None):
    """Yield f and each distinct subformula once, in preorder: a subformula
    met again, and so everything under it, is skipped.  A caller that walks
    several formulas can pass one seen set to skip what earlier walks met."""
    if seen is None:
        seen = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        yield g
        kind = type(g)
        if kind in _UNARY:
            stack.append(g.body)
        elif kind in _BINARY:
            stack.append(g.right)
            stack.append(g.left)


def variables(f):
    # subformulas() spelled out: the oracle calls this once per search, and
    # the generator would cost it a third more.
    names, seen, stack = set(), set(), [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        kind = type(g)
        if kind is Var:
            names.add(g.name)
        elif kind in _UNARY:
            stack.append(g.body)
        elif kind in _BINARY:
            stack.append(g.right)
            stack.append(g.left)
    return frozenset(names)


# _fold's stack markers: the node under one is a connective of that arity
# whose operands are folded, and under the node lies its step.
_UNARY_READY, _BINARY_READY = object(), object()


def _fold(f, table, name=None):
    """Fold f bottom-up: table maps a node type to a function of the node (an
    atom) or of its folded operands (a connective).  Each distinct node is
    folded once per call, its operands left to right before it, on an
    explicit stack, so any depth folds.  A formula type missing from table
    raises SignatureError naming `name`, for the first such node in preorder;
    a non-formula, TypeError."""
    memo = {}
    stack = [f]
    while stack:
        g = stack.pop()
        if g is _BINARY_READY:
            g, step = stack.pop(), stack.pop()
            memo[g] = step(memo[g.left], memo[g.right])
        elif g is _UNARY_READY:
            g, step = stack.pop(), stack.pop()
            memo[g] = step(memo[g.body])
        else:
            kind = type(g)
            step = table.get(kind)
            if step is None:
                if kind in _ATOMS or kind in _UNARY or kind in _BINARY:
                    raise SignatureError(f"{name} is not defined on {render(g)!r}")
                raise TypeError(f"not a formula: {g!r}")
            if g in memo:
                continue
            if kind in _BINARY:
                stack += (step, g, _BINARY_READY, g.right, g.left)
            elif kind in _UNARY:
                stack += (step, g, _UNARY_READY, g.body)
            else:
                memo[g] = step(g)
    return memo[f]


# A pattern is a formula whose variables are metavariables: each stands for
# any formula, the same one at every occurrence.


def match(pattern, f, binding):
    """Whether f is an instance of pattern under an extension of binding (a
    dict from metavariable name to formula).  Binds unbound metavariables in
    binding as it goes, left to right, also when the match fails."""
    stack = [(pattern, f)]
    while stack:
        p, g = stack.pop()
        kind = type(p)
        if kind is Var:
            if binding.setdefault(p.name, g) != g:
                return False
        elif kind is not type(g):
            return False
        elif kind in _UNARY:
            stack.append((p.body, g.body))
        elif kind in _BINARY:
            stack.append((p.right, g.right))
            stack.append((p.left, g.left))
    return True


_REBUILD = {**dict.fromkeys(_ATOMS, lambda f: f), **{k: k for k in _UNARY | _BINARY}}


def instantiate(pattern, binding):
    """pattern with every metavariable bound in binding replaced by its
    formula; unbound ones stay as they are."""
    return _fold(pattern, {**_REBUILD, Var: lambda v: binding.get(v.name, v)})


_OPERANDS = {**dict.fromkeys(_UNARY, ("body",)), **dict.fromkeys(_BINARY, ("left", "right"))}


def _lift(kind):
    if kind in _UNARY:
        return lambda g: lambda f: kind(g(f))
    return lambda g, h: lambda f: kind(g(f), h(f))


_LIFT = {**dict.fromkeys(_ATOMS, lambda a: lambda f: a), **{k: _lift(k) for k in _OPERANDS}}


def instantiator(pattern, template):
    """A compiled instantiate: the function taking each instance f of pattern
    to instantiate(template, binding), where match(pattern, f, binding) binds
    the metavariables.  It does not match, but reads each metavariable (or
    the whole template, if that is a subpattern of pattern) off f by its
    attribute path, so f must be an instance of pattern, and every
    metavariable of template must occur in pattern."""
    reads, stack = {}, [(pattern, ())]
    while stack:
        p, path = stack.pop()
        reads.setdefault(p, operator.attrgetter(".".join(path)) if path else lambda f: f)
        stack += [(getattr(p, name), path + (name,))
                  for name in reversed(_OPERANDS.get(type(p), ()))]
    return reads.get(template) or _fold(template, {**_LIFT, Var: reads.__getitem__})


# --- parsing ---------------------------------------------------------------

def _lex(text):
    """Tokenize into (kind, position) pairs, positions 1-based."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        pos = i + 1
        if ch in "~&|>()":
            tokens.append((ch, pos, None))
            i += 1
        elif ch == "[":
            if i + 1 < len(text) and text[i + 1] == "]":
                tokens.append(("[]", pos, None))
                i += 2
            else:
                raise ParseError("expected ']' after '['", pos + 1, ("]",))
        elif ch == "<":
            if i + 1 < len(text) and text[i + 1] == ">":
                tokens.append(("<>", pos, None))
                i += 2
            else:
                raise ParseError("expected '>' after '<'", pos + 1, (">",))
        else:
            m = _IDENT_RE.match(text, i)
            if m is None:
                raise ParseError(f"unexpected character {ch!r}", pos)
            word = m.group()
            kind = word if word in _KEYWORDS else "ident"
            tokens.append((kind, pos, word))
            i = m.end()
    tokens.append(("end", len(text) + 1, None))
    return tokens


_ATOM_STARTERS = ("~", "[]", "<>", "(", "bot", "top", "ident")


_UNARY_TYPES = {SYMBOLS[kind]: kind for kind in _UNARY}


def _too_deep(pos):
    raise ParseError(f"formula nested deeper than {MAX_DEPTH}", pos)


# The binary operators that chain, loosest first, with their node types.
_CHAINS = (("|", Or), ("&", And))


class _Parser:
    """Recursive descent.  Each method returns (formula, depth of its text)."""

    def __init__(self, text):
        self.tokens = _lex(text)
        self.i = 0
        self.level = 0  # open '(', unary and '>' right-operand contexts

    def peek(self):
        return self.tokens[self.i][0]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected):
        kind, pos, text = self.tokens[self.i]
        shown = "end of input" if kind == "end" else repr(text or kind)
        raise ParseError(f"unexpected {shown}", pos, expected)

    def enter(self):
        """Consume a token whose operand the parser descends into and return
        its position.  Checked before descending, so deep input cannot
        exhaust the recursion of the parser itself."""
        pos = self.tokens[self.i][1]
        self.i += 1
        self.level += 1
        if self.level > MAX_DEPTH:
            _too_deep(pos)
        return pos

    # Depths are also checked bottom-up, after each node is built: long '&'
    # and '|' chains are parsed iteratively but nest all the same.

    def formula(self):
        first = self.chain()
        if self.peek() != ">":
            return first
        left, d = first
        pos = self.enter()
        right, e = self.formula()
        self.level -= 1
        d = (d if d > e else e) + 1
        if d > MAX_DEPTH:
            _too_deep(pos)
        return Succ(left, right), d

    def chain(self, level=0):
        """A '|' chain of '&' chains (level 0) or an '&' chain of unary
        formulas (level 1), nested to the left."""
        first = self.unary() if level else self.chain(1)
        op, node = _CHAINS[level]
        if self.peek() != op:
            return first
        f, d = first
        while self.peek() == op:
            pos = self.next()[1]
            g, e = self.unary() if level else self.chain(1)
            d = (d if d > e else e) + 1
            if d > MAX_DEPTH:
                _too_deep(pos)
            f = node(f, g)
        return f, d

    def unary(self):
        kind = self.peek()
        if kind not in _UNARY_TYPES:
            return self.atom()
        pos = self.enter()
        body, d = self.unary()
        self.level -= 1
        if d >= MAX_DEPTH:
            _too_deep(pos)
        return _UNARY_TYPES[kind](body), d + 1

    def atom(self):
        kind, pos, text = self.tokens[self.i]
        if kind == "bot":
            self.next()
            return BOT, 0
        if kind == "top":
            self.next()
            return TOP, 0
        if kind == "ident":
            self.next()
            return Var(text), 0
        if kind == "(":
            pos = self.enter()
            f, d = self.formula()
            if self.peek() != ")":
                self.fail((")",))
            self.next()
            self.level -= 1
            if d >= MAX_DEPTH:
                _too_deep(pos)
            return f, d + 1
        self.fail(_ATOM_STARTERS)


def parse(text):
    """Parse concrete syntax into a Formula.  Raises ParseError, also for
    formulas nested deeper than MAX_DEPTH."""
    p = _Parser(text)
    f, _ = p.formula()
    if p.peek() != "end":
        p.fail(("&", "|", ">", "end"))
    return f


# --- printing --------------------------------------------------------------
#
# Each node renders to (text, binding level); an operand that binds more
# loosely than its place allows is parenthesized.


def _wrap(operand, floor):
    text, level = operand
    return "(" + text + ")" if level < floor else text


def _prefix(kind):
    symbol = SYMBOLS[kind]
    return lambda a: (symbol + _wrap(a, 4), 4)


def _infix(kind, level, left_floor, right_floor):
    symbol = f" {SYMBOLS[kind]} "
    return lambda a, b: (_wrap(a, left_floor) + symbol + _wrap(b, right_floor), level)


_RENDER = {
    Var: lambda f: (f.name, 5),
    Bot: lambda f: ("bot", 5),
    Top: lambda f: ("top", 5),
    **{kind: _prefix(kind) for kind in _UNARY},
    And: _infix(And, 3, 3, 4),
    Or: _infix(Or, 2, 2, 3),
    Succ: _infix(Succ, 1, 2, 1),
}


def render(f):
    """Concrete syntax with minimal parentheses; parse(render(f)) == f."""
    return _fold(f, _RENDER)[0]


# --- measures --------------------------------------------------------------

_COMPLEXITY = {
    **dict.fromkeys(_ATOMS, lambda f: 0),
    Neg: lambda a: a + 1,
    Box: lambda a: a + 2,
    Dia: lambda a: a + 4,
    And: lambda a, b: a + b + 1,
    Or: lambda a, b: a + b + 1,
}

_DEGREE = {
    **dict.fromkeys(_ATOMS, lambda f: 1),
    Neg: lambda a: a + 1,
    Succ: lambda a, b: a + b + 1,
}


def complexity(f):
    """Connective weight on the full signature: and/or/neg cost 1, box costs 2,
    diamond costs 4 (it abbreviates three connectives); atoms cost 0."""
    return _fold(f, _COMPLEXITY, "complexity")


def degree(f):
    """Atom-counting size on the succ signature: atoms weigh 1, ~ adds 1,
    > adds the sides plus 1."""
    return _fold(f, _DEGREE, "degree")


def entailment(premises, conclusion):
    """A formula that is constantly 1 iff, under every valuation, the meet of
    the premises lies below the conclusion (a <= b iff a > b = 1): the
    premises joined by & from the left, on the left of >; with no premises,
    the conclusion itself."""
    premises = list(premises)
    return Succ(functools.reduce(And, premises), conclusion) if premises else conclusion


# --- translations ----------------------------------------------------------

def translate(f, target):
    """Rewrite f into the target signature, preserving its value under every
    valuation."""
    if target not in _TRANSLATIONS:
        raise ValueError(f"unknown signature {target!r}")
    return _fold(f, _TRANSLATIONS[target])


def _imp(a, b):
    # Weak implication: ~[]a | b.
    return Or(Neg(Box(a)), b)


def _succ_or(a, b):
    return Succ(Succ(a, b), b)


_TRANSLATIONS = {
    Signature.FULL: {
        **dict.fromkeys(_ATOMS, lambda f: f),
        Neg: Neg,
        Box: Box,
        Dia: lambda a: Neg(Box(Neg(a))),
        And: And,
        Or: Or,
        Succ: lambda x, y: And(
            And(_imp(x, y), _imp(Neg(y), Neg(x))),
            _imp(Or(Neg(x), y), Or(Box(Neg(x)), y)),
        ),
    },
    Signature.SUCC: {
        Var: lambda f: f,
        Bot: lambda f: f,
        Top: lambda f: Succ(BOT, BOT),
        Neg: Neg,
        Box: lambda a: Neg(Succ(a, Neg(a))),
        Dia: lambda a: Succ(Neg(a), a),
        And: lambda a, b: Neg(_succ_or(Neg(a), Neg(b))),
        Or: _succ_or,
        Succ: Succ,
    },
}
