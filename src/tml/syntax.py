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

from .hashcons import TABLE, Interned, absent, enter

# An identifier is [a-z][a-zA-Z0-9_]*, scanned without re, which would cost
# every command line a few milliseconds to import.
_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyz")
_IDENT_REST = _IDENT_START | frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")
_KEYWORDS = ("bot", "top")

MAX_DEPTH = 100
"""Deepest nesting parse() accepts.  Each connective and each pair of
parentheses sits one level above its deepest operand, so a formula text of
depth d yields a tree of depth at most d.  parse() itself takes no frame
per level; the bound protects semantics.evaluate, the one walk that still
recurses, two frames per level of the tree, within Python's default limit
of 1000 frames.  Folds (the printer, measures and translations),
subformulas, hashing and == take no frame per level either, so they take
formulas of any depth, translations too."""


class ParseError(Exception):
    """Syntax error with a 1-based column and the token kinds expected there."""

    def __init__(self, message, position, expected=()):
        self.position = position
        self.expected = tuple(sorted(expected))
        super().__init__(f"parse error at position {position}: {message}")


class SignatureError(ValueError):
    """A formula strayed outside the signature an operation is defined on."""


# Signature bits.  Each formula's _sig has the bit of each language that
# holds all of it: the full and succ signatures, and the proof language of
# tml.nd (bot, variables, ~, &, |, []).  An atom's bits are a class constant;
# a connective's node takes its operands' bits, ANDed together and with its
# class's _keeps, when it is interned.
IN_FULL, IN_SUCC, IN_ND = 1, 2, 4


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
    _sig = IN_FULL | IN_SUCC | IN_ND


class Top(_Constant):
    __slots__ = ()
    _sig = IN_FULL


_CONSTANTS = {kind: object.__new__(kind) for kind in (Bot, Top)}
BOT = _CONSTANTS[Bot]
TOP = _CONSTANTS[Top]


class Var(Formula):
    __slots__ = ("name",)
    __match_args__ = ("name",)
    _sig = IN_FULL | IN_SUCC | IN_ND

    def __new__(cls, name):
        key = (cls, name)
        node = TABLE.get(key, absent)()
        if node is None:
            if not isinstance(name, str):
                raise TypeError(f"variable name must be a str, not {type(name).__name__}")
            if (name[:1] not in _IDENT_START or not _IDENT_REST.issuperset(name)
                    or name in _KEYWORDS):
                raise ValueError(f"bad variable name {name!r}")
            node = object.__new__(cls)
            _SET_NAME(node, name)
            node = enter(key, node)
        return node


def _not_formula(*operands):
    """The TypeError for a connective given an operand that is no formula."""
    bad = next(g for g in operands if not isinstance(g, Formula))
    return TypeError(f"not a formula: {bad!r}")


class _Unary(Formula):
    __slots__ = ("body", "_sig")
    __match_args__ = ("body",)

    def __new__(cls, body):
        key = (cls, body)
        node = TABLE.get(key, absent)()
        if node is None:
            try:
                sig = body._sig & cls._keeps
            except AttributeError:
                raise _not_formula(body) from None
            node = object.__new__(cls)
            _SET_BODY(node, body)
            _SET_UNARY_SIG(node, sig)
            node = enter(key, node)
        return node


class _Binary(Formula):
    __slots__ = ("left", "right", "_sig")
    __match_args__ = ("left", "right")

    def __new__(cls, left, right):
        key = (cls, left, right)
        node = TABLE.get(key, absent)()
        if node is None:
            try:
                sig = left._sig & right._sig & cls._keeps
            except AttributeError:
                raise _not_formula(left, right) from None
            node = object.__new__(cls)
            _SET_LEFT(node, left)
            _SET_RIGHT(node, right)
            _SET_BINARY_SIG(node, sig)
            node = enter(key, node)
        return node


# Slot setters, bypassing the __setattr__ that makes fields read-only.
_SET_NAME = Var.name.__set__
_SET_BODY = _Unary.body.__set__
_SET_UNARY_SIG = _Unary._sig.__set__
_SET_LEFT = _Binary.left.__set__
_SET_RIGHT = _Binary.right.__set__
_SET_BINARY_SIG = _Binary._sig.__set__


class Neg(_Unary):
    __slots__ = ()
    _keeps = IN_FULL | IN_SUCC | IN_ND


class Box(_Unary):
    __slots__ = ()
    _keeps = IN_FULL | IN_ND


class Dia(_Unary):
    __slots__ = ()
    _keeps = 0


class And(_Binary):
    __slots__ = ()
    _keeps = IN_FULL | IN_ND


class Or(_Binary):
    __slots__ = ()
    _keeps = IN_FULL | IN_ND


class Succ(_Binary):
    """The strong implication, written > in concrete syntax."""

    __slots__ = ()
    _keeps = IN_SUCC


class Signature(enum.Enum):
    FULL = "full"
    SUCC = "succ"


_ATOMS = frozenset([Var, Bot, Top])
_UNARY = frozenset([Neg, Box, Dia])
_BINARY = frozenset([And, Or, Succ])

SYMBOLS = {Neg: "~", Box: "[]", Dia: "<>", And: "&", Or: "|", Succ: ">"}
"""Concrete syntax of each connective."""


def in_signature(f, sig):
    """Whether every node of f lies in the signature sig.  O(1): it reads
    the bits f got when it was interned.  A non-formula lies in none.
    Raises ValueError if sig is not a Signature."""
    if sig is Signature.FULL:
        bit = IN_FULL
    elif sig is Signature.SUCC:
        bit = IN_SUCC
    else:
        raise ValueError(f"unknown signature {sig!r}")
    return bool(getattr(f, "_sig", 0) & bit)


def subformulas(f):
    """Yield f and each distinct subformula once, in preorder: a subformula
    met again, and so everything under it, is skipped."""
    seen, stack = set(), [f]
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
        elif ch in _IDENT_START:
            i += 1
            while i < len(text) and text[i] in _IDENT_REST:
                i += 1
            word = text[pos - 1:i]
            kind = word if word in _KEYWORDS else "ident"
            tokens.append((kind, pos, word))
        else:
            raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", len(text) + 1, None))
    return tokens


_ATOM_STARTERS = ("~", "[]", "<>", "(", "bot", "top", "ident")


# --- precedence ------------------------------------------------------------
#
# How tightly each node type binds, and the side each connective groups to,
# for parse and render alike.  An operand must bind at least as tightly as
# the floor of its place, or it needs parentheses: a connective's floor is
# its own binding power on the side it groups to and one more on the other.

_BINDING = {
    Succ: (1, "right"),
    Or: (2, "left"),
    And: (3, "left"),
    **dict.fromkeys(_UNARY, (4, "right")),
    **dict.fromkeys(_ATOMS, (5, None)),
}


def _floors(kind):
    """kind's binding power and the floors of its left and right operands."""
    power, side = _BINDING[kind]
    return power, power + (side != "left"), power + (side != "right")


# --- parsing ---------------------------------------------------------------
#
# parse's view of _BINDING: the power of each operator it keeps open, and for
# an infix token the floor of its left operand, which decides how many open
# operators it closes.  '(' binds nothing, so only ')' closes it; any token
# that cannot follow an operand closes everything up to the innermost '('.

_PREFIX = {**{SYMBOLS[kind]: (_BINDING[kind][0], kind) for kind in _UNARY}, "(": (0, None)}
_INFIX = {SYMBOLS[kind]: (*_floors(kind)[:2], kind) for kind in _BINARY}
_NOT_INFIX = (None, 1, None)


def _too_deep(pos):
    raise ParseError(f"formula nested deeper than {MAX_DEPTH}", pos)


def _unexpected(token, expected):
    kind, pos, word = token
    shown = "end of input" if kind == "end" else repr(word or kind)
    raise ParseError(f"unexpected {shown}", pos, expected)


def parse(text):
    """Parse concrete syntax into a Formula.  Raises ParseError, also for
    formulas nested deeper than MAX_DEPTH.

    One loop over the tokens, with no recursion: an operator waits on a
    stack until the token after its last operand shows that nothing binds
    that operand more tightly.  Depth is checked top-down, as each '(',
    prefix connective and '>' opens (they group to the right), and
    bottom-up, as each node is built, which catches long '&' and '|'
    chains.  So the first error reported is the one a recursive descent
    would meet."""
    tokens = _lex(text)
    # Open operators, innermost last: (power, node type, position, left
    # operand, its depth, level outside it).
    ops = []
    level = 0  # how many of ops group to the right
    i = 0
    while True:
        kind, pos, word = tokens[i]
        i += 1
        if kind in _PREFIX:
            level += 1
            if level > MAX_DEPTH:
                _too_deep(pos)
            ops.append((*_PREFIX[kind], pos, None, 0, level - 1))
            continue
        if kind == "ident":
            f = Var(word)
        elif kind == "bot":
            f = BOT
        elif kind == "top":
            f = TOP
        else:
            _unexpected(tokens[i - 1], _ATOM_STARTERS)
        d = 0
        while True:  # f, of depth d, is an operand; tokens[i] follows it
            kind, pos, word = tokens[i]
            i += 1
            power, floor, node = _INFIX.get(kind, _NOT_INFIX)
            while ops and ops[-1][0] >= floor:
                _, op, at, left, e, level = ops.pop()
                if left is None:
                    f = op(f)
                else:
                    f = op(left, f)
                    if e > d:
                        d = e
                d += 1
                if d > MAX_DEPTH:
                    _too_deep(at)
            if node is not None:
                ops.append((power, node, pos, f, d, level))
                if floor > power:  # groups to the right
                    level += 1
                    if level > MAX_DEPTH:
                        _too_deep(pos)
                break
            if kind == ")" and ops:  # the innermost '(' is on top
                _, _, at, _, _, level = ops.pop()
                d += 1
                if d > MAX_DEPTH:
                    _too_deep(at)
            elif kind == "end" and not ops:
                return f
            else:
                _unexpected(tokens[i - 1], ("&", "|", ">", ")" if ops else "end"))


# --- printing --------------------------------------------------------------
#
# Each node renders to (text, binding power); an operand that binds more
# loosely than the floor of its place is parenthesized.


def _wrap(operand, floor):
    text, power = operand
    return "(" + text + ")" if power < floor else text


def _prefix(kind):
    symbol = SYMBOLS[kind]
    power, _, floor = _floors(kind)
    return lambda a: (symbol + _wrap(a, floor), power)


def _infix(kind):
    symbol = f" {SYMBOLS[kind]} "
    power, left_floor, right_floor = _floors(kind)
    return lambda a, b: (_wrap(a, left_floor) + symbol + _wrap(b, right_floor), power)


_ATOM_POWER = _BINDING[Var][0]
_RENDER = {
    Var: lambda f: (f.name, _ATOM_POWER),
    Bot: lambda f: ("bot", _ATOM_POWER),
    Top: lambda f: ("top", _ATOM_POWER),
    **{kind: _prefix(kind) for kind in _UNARY},
    **{kind: _infix(kind) for kind in _BINARY},
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
    valuation.  A formula already in the target signature is returned as it
    is, as the fold would rebuild it.  Raises ValueError if target is not a
    Signature."""
    if in_signature(f, target):
        return f
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
