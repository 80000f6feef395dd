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
import re
from dataclasses import dataclass

_IDENT_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")
_KEYWORDS = ("bot", "top")

MAX_DEPTH = 100
"""Deepest nesting parse() accepts.  Each connective and each pair of
parentheses sits one level above its deepest operand, so a formula text of
depth d yields a tree of depth at most d.  The bound keeps the recursive
parser, printer, evaluator, translations and tableaux within Python's
default recursion limit of 1000: translating to the succ signature nests
each '&' four levels deep, and hashing a formula takes two levels of that
limit per level of the tree."""


class ParseError(Exception):
    """Syntax error with a 1-based column and the token kinds expected there."""

    def __init__(self, message, position, expected=()):
        self.position = position
        self.expected = tuple(sorted(expected))
        super().__init__(f"parse error at position {position}: {message}")


class SignatureError(ValueError):
    """A formula strayed outside the signature an operation is defined on."""


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Var(Formula):
    name: str

    def __post_init__(self):
        if _IDENT_RE.fullmatch(self.name) is None or self.name in _KEYWORDS:
            raise ValueError(f"bad variable name {self.name!r}")


@dataclass(frozen=True)
class Neg(Formula):
    body: Formula


@dataclass(frozen=True)
class Box(Formula):
    body: Formula


@dataclass(frozen=True)
class Dia(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Succ(Formula):
    """The strong implication, written > in concrete syntax."""

    left: Formula
    right: Formula


BOT = Bot()
TOP = Top()


class Signature(enum.Enum):
    FULL = "full"
    SUCC = "succ"


_FULL_TYPES = (Var, Bot, Top, Neg, And, Or, Box)
_SUCC_TYPES = (Var, Bot, Neg, Succ)


def in_signature(f, sig):
    types = _FULL_TYPES if sig is Signature.FULL else _SUCC_TYPES
    return all(isinstance(g, types) for g in subformulas(f))


def subformulas(f):
    """Yield f and every subformula, preorder."""
    yield f
    if isinstance(f, (Neg, Box, Dia)):
        yield from subformulas(f.body)
    elif isinstance(f, (And, Or, Succ)):
        yield from subformulas(f.left)
        yield from subformulas(f.right)


def variables(f):
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Var))


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


_UNARY_TYPES = {"~": Neg, "[]": Box, "<>": Dia}


def _too_deep(pos):
    raise ParseError(f"formula nested deeper than {MAX_DEPTH}", pos)


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
        first = self.disjunction()
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

    def disjunction(self):
        first = self.conjunction()
        if self.peek() != "|":
            return first
        f, d = first
        while self.peek() == "|":
            pos = self.next()[1]
            g, e = self.conjunction()
            d = (d if d > e else e) + 1
            if d > MAX_DEPTH:
                _too_deep(pos)
            f = Or(f, g)
        return f, d

    def conjunction(self):
        first = self.unary()
        if self.peek() != "&":
            return first
        f, d = first
        while self.peek() == "&":
            pos = self.next()[1]
            g, e = self.unary()
            d = (d if d > e else e) + 1
            if d > MAX_DEPTH:
                _too_deep(pos)
            f = And(f, g)
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

_UNARY_SYM = {Neg: "~", Box: "[]", Dia: "<>"}


def render(f):
    """Concrete syntax with minimal parentheses; parse(render(f)) == f."""
    return _render(f, 0)


def _render(f, floor):
    if isinstance(f, Var):
        s, level = f.name, 5
    elif isinstance(f, Bot):
        s, level = "bot", 5
    elif isinstance(f, Top):
        s, level = "top", 5
    elif isinstance(f, (Neg, Box, Dia)):
        s, level = _UNARY_SYM[type(f)] + _render(f.body, 4), 4
    elif isinstance(f, And):
        s, level = _render(f.left, 3) + " & " + _render(f.right, 4), 3
    elif isinstance(f, Or):
        s, level = _render(f.left, 2) + " | " + _render(f.right, 3), 2
    elif isinstance(f, Succ):
        s, level = _render(f.left, 2) + " > " + _render(f.right, 1), 1
    else:
        raise TypeError(f"not a formula: {f!r}")
    if level < floor:
        return "(" + s + ")"
    return s


# --- measures --------------------------------------------------------------

def complexity(f):
    """Connective weight on the full signature: and/or/neg cost 1, box costs 2,
    diamond costs 4 (it abbreviates three connectives); atoms cost 0."""
    if isinstance(f, (Var, Bot, Top)):
        return 0
    if isinstance(f, Neg):
        return complexity(f.body) + 1
    if isinstance(f, Box):
        return complexity(f.body) + 2
    if isinstance(f, Dia):
        return complexity(f.body) + 4
    if isinstance(f, (And, Or)):
        return complexity(f.left) + complexity(f.right) + 1
    raise SignatureError(f"complexity is not defined on {render(f)!r}")


def degree(f):
    """Atom-counting size on the succ signature: atoms weigh 1, ~ adds 1,
    > adds the sides plus 1."""
    if isinstance(f, (Var, Bot, Top)):
        return 1
    if isinstance(f, Neg):
        return degree(f.body) + 1
    if isinstance(f, Succ):
        return degree(f.left) + degree(f.right) + 1
    raise SignatureError(f"degree is not defined on {render(f)!r}")


# --- translations ----------------------------------------------------------

def translate(f, target):
    """Rewrite f into the target signature, preserving its value under every
    valuation."""
    if target is Signature.FULL:
        return _to_full(f)
    if target is Signature.SUCC:
        return _to_succ(f)
    raise ValueError(f"unknown signature {target!r}")


def _imp(a, b):
    # Weak implication: ~[]a | b.
    return Or(Neg(Box(a)), b)


def _to_full(f):
    if isinstance(f, (Var, Bot, Top)):
        return f
    if isinstance(f, Neg):
        return Neg(_to_full(f.body))
    if isinstance(f, Box):
        return Box(_to_full(f.body))
    if isinstance(f, Dia):
        return Neg(Box(Neg(_to_full(f.body))))
    if isinstance(f, And):
        return And(_to_full(f.left), _to_full(f.right))
    if isinstance(f, Or):
        return Or(_to_full(f.left), _to_full(f.right))
    if isinstance(f, Succ):
        x = _to_full(f.left)
        y = _to_full(f.right)
        return And(
            And(_imp(x, y), _imp(Neg(y), Neg(x))),
            _imp(Or(Neg(x), y), Or(Box(Neg(x)), y)),
        )
    raise TypeError(f"not a formula: {f!r}")


def _succ_or(a, b):
    return Succ(Succ(a, b), b)


def _to_succ(f):
    if isinstance(f, (Var, Bot)):
        return f
    if isinstance(f, Top):
        return Succ(BOT, BOT)
    if isinstance(f, Neg):
        return Neg(_to_succ(f.body))
    if isinstance(f, Succ):
        return Succ(_to_succ(f.left), _to_succ(f.right))
    if isinstance(f, Or):
        return _succ_or(_to_succ(f.left), _to_succ(f.right))
    if isinstance(f, And):
        a = _to_succ(f.left)
        b = _to_succ(f.right)
        return Neg(_succ_or(Neg(a), Neg(b)))
    if isinstance(f, Box):
        a = _to_succ(f.body)
        return Neg(Succ(a, Neg(a)))
    if isinstance(f, Dia):
        a = _to_succ(f.body)
        return Succ(Neg(a), a)
    raise TypeError(f"not a formula: {f!r}")
