"""Reference semantics for checking the program's answers.

Formulas are plain tuples: ("var", name), ("bot",), ("top",), ("neg", a),
("box", a), ("dia", a), ("and", a, b), ("or", a, b), ("succ", a, b).
This module has its own parser and printer for the concrete syntax and
never imports the package under test.

Evaluation uses the twist-pair encoding of the four values,
0 = (0, 0), n = (1, 0), b = (0, 1), 1 = (1, 1): meet and join act
componentwise, ~(x, y) = (not y, not x), [](x, y) = (x and y, x and y).
Each component is a Python int holding one bit per valuation, so one pass
over the formula evaluates it under all 4**k valuations at once.  Bit i
stands for the i-th valuation in the documented enumeration order: names
sorted, values cycling 0, n, b, 1 with the last name fastest.
"""

import re

VALUES = ("0", "n", "b", "1")
_PAIR = {"0": (0, 0), "n": (1, 0), "b": (0, 1), "1": (1, 1)}
_FROM_PAIR = {pair: v for v, pair in _PAIR.items()}


# --- syntax ------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\[\]|<>|[~&|>()]|[a-z][a-zA-Z0-9_]*)")


def parse(text):
    """Parse the concrete syntax into a tuple formula (ValueError on junk)."""
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad formula text at {pos}: {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append(None)
    i = 0

    def peek():
        return tokens[i]

    def take(want=None):
        nonlocal i
        tok = tokens[i]
        if want is not None and tok != want:
            raise ValueError(f"expected {want!r}, got {tok!r} in {text!r}")
        i += 1
        return tok

    def formula():
        left = disjunction()
        if peek() == ">":
            take()
            return ("succ", left, formula())
        return left

    def disjunction():
        f = conjunction()
        while peek() == "|":
            take()
            f = ("or", f, conjunction())
        return f

    def conjunction():
        f = unary()
        while peek() == "&":
            take()
            f = ("and", f, unary())
        return f

    def unary():
        tok = peek()
        if tok in _UNARY_TOKENS:
            take()
            return (_UNARY_TOKENS[tok], unary())
        if tok == "(":
            take()
            f = formula()
            take(")")
            return f
        if tok is None or not tok[0].isalpha():
            raise ValueError(f"unexpected {tok!r} in {text!r}")
        take()
        if tok in ("bot", "top"):
            return (tok,)
        return ("var", tok)

    f = formula()
    if peek() is not None:
        raise ValueError(f"trailing {peek()!r} in {text!r}")
    return f


_UNARY_TOKENS = {"~": "neg", "[]": "box", "<>": "dia"}
_UNARY_TEXT = {v: k for k, v in _UNARY_TOKENS.items()}
_BINARY_TEXT = {"and": "&", "or": "|", "succ": ">"}


def render(f):
    """Fully parenthesised concrete syntax (iterative, so deep nesting is
    fine)."""
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, str):
            out.append(g)
        elif g[0] == "var":
            out.append(g[1])
        elif g[0] in ("bot", "top"):
            out.append(g[0])
        elif g[0] in _UNARY_TEXT:
            out.append(_UNARY_TEXT[g[0]])
            stack.append(g[1])
        else:
            stack.extend([")", g[2], f" {_BINARY_TEXT[g[0]]} ", g[1], "("])
    return "".join(out)


def variables(f):
    names = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g[0] == "var":
            names.add(g[1])
        else:
            stack.extend(g[1:])
    return names


def size(f):
    n = 0
    stack = [f]
    while stack:
        g = stack.pop()
        n += 1
        if g[0] != "var":
            stack.extend(g[1:])
    return n


def connectives(f):
    out = set()
    stack = [f]
    while stack:
        g = stack.pop()
        out.add(g[0])
        if g[0] != "var":
            stack.extend(g[1:])
    return out


# --- twist-pair evaluation -----------------------------------------------------


class Space:
    """All valuations of a sorted list of names, as bit positions."""

    def __init__(self, names):
        self.names = sorted(names)
        k = len(self.names)
        self.size = 4 ** k
        self.full = (1 << self.size) - 1
        self.atoms = {}
        for j, name in enumerate(self.names):
            shift = 2 * (k - 1 - j)
            self.atoms[name] = (_bit_mask(shift, self.size), _bit_mask(shift + 1, self.size))

    def eval(self, f):
        """Twist pair (x, y) of f over every valuation."""
        full = self.full
        done = {}  # keyed by id: tuples do not cache their hash
        stack = [f]
        while stack:
            g = stack[-1]
            if id(g) in done:
                stack.pop()
                continue
            op = g[0]
            if op == "var":
                done[id(g)] = self.atoms[g[1]]
            elif op == "bot":
                done[id(g)] = (0, 0)
            elif op == "top":
                done[id(g)] = (full, full)
            else:
                args = [done.get(id(a)) for a in g[1:]]
                if None in args:
                    stack.extend(a for a, v in zip(g[1:], args) if v is None)
                    continue
                done[id(g)] = _apply(op, args, full)
            stack.pop()
        return done[id(f)]

    def valuation(self, index):
        k = len(self.names)
        return {
            name: VALUES[(index >> (2 * (k - 1 - j))) & 3]
            for j, name in enumerate(self.names)
        }

    def index(self, h):
        i = 0
        for name in self.names:
            i = 4 * i + VALUES.index(h[name])
        return i


def _bit_mask(bit, size):
    """Positions below size whose index has the given bit set, built by
    doubling a block of 2**bit ones."""
    width = 1 << bit
    mask = ((1 << width) - 1) << width
    period = 2 * width
    while period < size:
        mask |= mask << period
        period *= 2
    return mask & ((1 << size) - 1)


def _apply(op, args, full):
    if op == "neg":
        (x, y), = args
        return (full & ~y, full & ~x)
    if op == "box":
        (x, y), = args
        t = x & y
        return (t, t)
    if op == "dia":
        (x, y), = args
        t = x | y
        return (t, t)
    (a1, a2), (b1, b2) = args
    if op == "and":
        return (a1 & b1, a2 & b2)
    if op == "or":
        return (a1 | b1, a2 | b2)
    if op == "succ":
        na1, na2 = full & ~a1, full & ~a2
        low = na1 & na2
        return (
            b1 | low | (a1 & na2 & ~b2) | (na1 & a2 & b2),
            b2 | low | (a1 & na2 & b1) | (na1 & a2 & ~b1),
        )
    raise ValueError(f"unknown connective {op!r}")


def value(f, h):
    """Value of f under the valuation h (a dict name -> value)."""
    space = Space(h)
    x, y = space.eval(f)
    bit = space.index(h)
    return _FROM_PAIR[((x >> bit) & 1, (y >> bit) & 1)]


def first_countermodel(f):
    """First valuation in enumeration order where f is not 1, or None."""
    space = Space(variables(f))
    x, y = space.eval(f)
    return _lowest(space, space.full & ~(x & y))


def first_consequence_countermodel(premises, conclusion):
    """First valuation where the meet of the premises is not below the
    conclusion, or None when the consequence holds."""
    names = variables(conclusion)
    for p in premises:
        names |= variables(p)
    space = Space(names)
    m1 = m2 = space.full
    for p in premises:
        x, y = space.eval(p)
        m1 &= x
        m2 &= y
    c1, c2 = space.eval(conclusion)
    return _lowest(space, (m1 & ~c1) | (m2 & ~c2))


def _lowest(space, fail):
    if not fail:
        return None
    return space.valuation((fail & -fail).bit_length() - 1)


def table(op):
    """Operation table of a connective: {a: value} or {(a, b): value}."""
    if op in ("neg", "box", "dia"):
        return {a: value((op, ("var", "p")), {"p": a}) for a in VALUES}
    f = (op, ("var", "p"), ("var", "q"))
    return {(a, b): value(f, {"p": a, "q": b}) for a in VALUES for b in VALUES}


# --- natural deduction proofs (JSON form) ---------------------------------------

I_TAGS = frozenset(["AndI", "NegAndI1", "NegAndI2", "OrI1", "OrI2", "NegOrI",
                    "NegNegI", "BoxI", "NegBoxI", "BotI"])
DEL_TAGS = frozenset(["OrE", "NegAndE"])
CUT_E_TAGS = frozenset(["AndE1", "AndE2", "NegAndE", "OrE", "NegOrE1",
                        "NegOrE2", "NegNegE", "BoxE", "NegBoxE"])


def proof_nodes(obj):
    """Every node of a proof in JSON form, preorder."""
    out = []
    stack = [obj]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(reversed(node.get("premises", ())))
    return out


def has_cut(obj):
    """A cut ends at the major premise of an elimination (other than BotE)
    and either starts at an introduction or runs through a minor premise of
    OrE/NegAndE.  So a proof has one iff some such elimination's first
    premise is concluded by an introduction or by OrE/NegAndE."""
    for node in proof_nodes(obj):
        if node["rule"] in CUT_E_TAGS:
            major = node["premises"][0]["rule"]
            if major in I_TAGS or major in DEL_TAGS:
                return True
    return False


def is_literal(f):
    return f[0] == "var" or (f[0] == "neg" and f[1][0] in ("var", "bot"))


def compound_bot_elims(obj):
    """Conclusions of BotE nodes that are not literals."""
    return [
        node["conclusion"]
        for node in proof_nodes(obj)
        if node["rule"] == "BotE" and not is_literal(parse(node["conclusion"]))
    ]


def open_assumptions(obj):
    """Formulas of the assumption leaves that no rule discharges.  Valid
    only for proofs that pass the program's check (which enforces the
    discharge scopes)."""
    nodes = proof_nodes(obj)
    discharged = {d["marker"] for node in nodes for d in node.get("discharges", ())}
    return {
        parse(node["formula"])
        for node in nodes
        if node["rule"] == "Assume" and (node["marker"] is None or node["marker"] not in discharged)
    }


def conclusion(obj):
    return parse(obj["formula"] if obj["rule"] in ("Assume", "MA") else obj["conclusion"])
