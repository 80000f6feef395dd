"""Seeded input generators.

Everything here is drawn from random.Random streams derived from the
workload seed, so one seed always gives the same inputs.  Formulas are the
tuple form of ref.py; proofs are JSON objects in the program's proof format,
built here from the rule schemas without calling the program.

A workload's inputs come in rounds.  Every round has the same make-up
(the same number of items of each kind, and for the costly kinds the same
cost class), so throughput does not hinge on how many expensive items one
seed happens to draw.
"""

import hashlib
import json
import random

import ref

NAMES = ("p", "q", "r", "s")
FULL_OPS = ("neg", "box", "and", "or")
SUCC_OPS = ("neg", "succ")


def stream(seed, *labels):
    """An independent random stream for one part of one workload."""
    key = ":".join(str(x) for x in (seed,) + labels).encode()
    return random.Random(int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))


def digest(obj):
    """Short digest of generated inputs, printed with every run."""
    text = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def formula(rng, names, depth, ops, consts=("bot",), leaf=0.2):
    """A random formula of nesting depth at most `depth`."""
    if depth <= 0 or rng.random() < leaf:
        if consts and rng.random() < 0.15:
            return (rng.choice(consts),)
        return ("var", rng.choice(names))
    op = rng.choice(ops)
    if op in ("neg", "box", "dia"):
        return (op, formula(rng, names, depth - 1, ops, consts, leaf))
    return (op, formula(rng, names, depth - 1, ops, consts, leaf),
            formula(rng, names, depth - 1, ops, consts, leaf))


def sized_formula(rng, names, nodes, ops):
    """A random formula with exactly `nodes` nodes (variables as leaves)."""
    if nodes == 1:
        return ("var", rng.choice(names))
    unary = [op for op in ops if op in ("neg", "box")]
    binary = [op for op in ops if op in ("and", "or", "succ")]
    if nodes == 2 or (unary and rng.random() < 0.3):
        return (rng.choice(unary), sized_formula(rng, names, nodes - 1, ops))
    left = rng.randint(1, nodes - 2)
    return (rng.choice(binary), sized_formula(rng, names, left, ops),
            sized_formula(rng, names, nodes - 1 - left, ops))


def translated_size(f, target):
    """Node count of the program's documented translation of f into the
    target signature, computed from the rewrite rules without building it."""
    op = f[0]
    if op in ("var", "bot"):
        return 1
    if op == "top":
        return 1 if target == "full" else 3
    a = translated_size(f[1], target)
    if op == "neg":
        return 1 + a
    if op == "box":
        return 1 + a if target == "full" else 3 + 2 * a
    b = translated_size(f[2], target)
    if target == "full":
        return 18 + 4 * (a + b) if op == "succ" else 1 + a + b
    return {"succ": 1 + a + b, "or": 2 + a + 2 * b, "and": 6 + a + 2 * b}[op]


def _count(f, op):
    n = 0
    stack = [f]
    while stack:
        g = stack.pop()
        n += g[0] == op
        if g[0] != "var":
            stack.extend(g[1:])
    return n


def rename(f, mapping):
    if f[0] == "var":
        return ("var", mapping[f[1]])
    if f[0] in ("bot", "top"):
        return f
    return (f[0],) + tuple(rename(g, mapping) for g in f[1:])


# --- decide --------------------------------------------------------------------

# Items per round of each decide stratum.  The succ formulas of depth <= 2
# are every such formula up to renaming of variables, so each round carries
# the same heavy items under fresh names.
DECIDE_FULL_FULL = 300
DECIDE_SUCC_SUCC = 300
DECIDE_FULL_SUCC = 150
# Caps that keep every random item's tableau below the largest one of the
# exhaustive stratum, so peak memory does not hinge on one unlucky draw.
SUCC_SUCC_MAX_IMPLICATIONS = 10
FULL_SUCC_MAX_SIZE = 128


def _succ_shapes():
    """Every shape of depth <= 2 over ~ and >, leaves left open."""
    slot = ("slot",)
    d1 = [slot, ("neg", slot), ("succ", slot, slot)]
    d2 = d1 + [("neg", ("neg", slot)), ("neg", ("succ", slot, slot))]
    d2 += [("succ", a, b) for a in d1 for b in d1 if (a, b) != (slot, slot)]
    return d2


def _leaf_patterns(n, classes):
    """Assignments of n leaves to bot (-1) or variable classes 0.., each
    class first used in order, at most `classes` of them."""
    def rec(prefix, used):
        if len(prefix) == n:
            yield prefix
            return
        yield from rec(prefix + (-1,), used)
        for c in range(min(used + 1, classes)):
            yield from rec(prefix + (c,), max(used, c + 1))
    yield from rec((), 0)


def _fill(shape, pattern):
    leaves = iter(pattern)

    def go(x):
        if x == ("slot",):
            c = next(leaves)
            return ("bot",) if c < 0 else ("var", NAMES[c])
        return (x[0],) + tuple(go(y) for y in x[1:])

    return go(shape)


def _slots(shape):
    return 1 if shape == ("slot",) else sum(_slots(x) for x in shape[1:])


SUCC_DEPTH2 = [
    _fill(shape, pattern)
    for shape in _succ_shapes()
    for pattern in _leaf_patterns(_slots(shape), len(NAMES))
]


def decide_round(seed, r):
    """One round of decide items: (formula, system) pairs, shuffled."""
    rng = stream(seed, "decide", r)
    items = []
    for _ in range(DECIDE_FULL_FULL):
        items.append((formula(rng, NAMES, 4, FULL_OPS, ("bot", "top")), "full"))
    count = 0
    while count < DECIDE_SUCC_SUCC:
        f = formula(rng, NAMES, 5, SUCC_OPS)
        if _count(f, "succ") <= SUCC_SUCC_MAX_IMPLICATIONS:
            items.append((f, "succ"))
            count += 1
    count = 0
    while count < DECIDE_FULL_SUCC:
        f = formula(rng, NAMES, 4, FULL_OPS, ("bot", "top"))
        if translated_size(f, "succ") <= FULL_SUCC_MAX_SIZE:
            items.append((f, "succ"))
            count += 1
    for f in SUCC_DEPTH2:
        names = list(NAMES)
        rng.shuffle(names)
        items.append((rename(f, dict(zip(NAMES, names))), "full"))
    rng.shuffle(items)
    return items


# --- oracle --------------------------------------------------------------------

ORACLE_NAMES = ("a", "b", "c", "d", "e", "f")
# Random 6-variable formulas per round, by the number of valuations the
# search must visit before the first failure.
ORACLE_RANDOM_QUOTAS = (((1, 1), 150), ((2, 16), 30), ((17, 1024), 10))
ORACLE_CONSEQUENCES = 30
# Valid schema instances per round: (variables, node count) of each.  With
# about 230 items a round, p99 falls inside the two 6-variable instances.
ORACLE_VALID = ((5, 40), (6, 40), (6, 40), (7, 40))

# Valid schemas over the metavariables x, y (checked by the reference when
# the instances are made).
SCHEMAS = (
    "x > x",
    "x | ~[]x",
    "[](x > y) > ([]x > []y)",
    "[]x > x",
    "x & y > y & x",
    "~~x > x",
    "[](x & y) > []x & []y",
)


def _instance(rng, schema, k, nodes):
    """Substitute random formulas for the metavariables until the instance
    has exactly k variables and within one of the given node count."""
    names = (ORACLE_NAMES + tuple(f"g{i}" for i in range(k)))[:k]
    counts = {}
    stack = [schema]
    while stack:
        g = stack.pop()
        if g[0] == "var":
            counts[g[1]] = counts.get(g[1], 0) + 1
        else:
            stack.extend(g[1:])
    *metas, last = sorted(counts)
    budget = nodes - (ref.size(schema) - sum(counts.values()))
    while True:
        sizes = {m: rng.randint(1, budget // (2 * counts[m])) for m in metas}
        rest = budget - sum(counts[m] * sizes[m] for m in metas)
        sizes[last] = max(1, round(rest / counts[last]))
        sub = {m: sized_formula(rng, names, n, FULL_OPS + ("succ",)) for m, n in sizes.items()}
        inst = _substitute(schema, sub)
        if len(ref.variables(inst)) == k and abs(ref.size(inst) - nodes) <= 1:
            return inst


def _substitute(f, sub):
    if f[0] == "var":
        return sub[f[1]]
    if f[0] in ("bot", "top"):
        return f
    return (f[0],) + tuple(_substitute(g, sub) for g in f[1:])


def _search_cost(f):
    """Valuations a first-failure search visits on f (None when valid)."""
    h = ref.first_countermodel(f)
    if h is None:
        return None
    return ref.Space(h).index(h) + 1


def oracle_round(seed, r):
    """One round of oracle items: (kind, payload) pairs, shuffled.  Kinds
    are 'countermodel' (a formula), 'valid' (a formula) and 'consequence'
    (premises, conclusion)."""
    rng = stream(seed, "oracle", r)
    items = []
    for bucket, quota in ORACLE_RANDOM_QUOTAS:
        got = 0
        while got < quota:
            f = formula(rng, ORACLE_NAMES, 5, FULL_OPS + ("succ",), leaf=0.1)
            cost = _search_cost(f)
            if cost is not None and bucket[0] <= cost <= bucket[1]:
                items.append(("countermodel", f))
                got += 1
    schemas = [ref.parse(s) for s in SCHEMAS]
    for k, nodes in ORACLE_VALID:
        while True:
            inst = _instance(rng, rng.choice(schemas), k, nodes)
            if ref.first_countermodel(inst) is None:
                items.append(("valid", inst))
                break
    for i in range(ORACLE_CONSEQUENCES):
        premises = [formula(rng, NAMES, 3, FULL_OPS + ("succ",))
                    for _ in range(1 + i % 3)]
        conclusion = formula(rng, NAMES, 3, FULL_OPS + ("succ",))
        if i % 2:
            conclusion = ("or", premises[0], conclusion)
        items.append(("consequence", (premises, conclusion)))
    rng.shuffle(items)
    return items


# --- natural deduction ------------------------------------------------------------

# Proofs per round: one for each number of injected redexes, plus proofs
# that are already normal.
ND_REDEXES = tuple(range(5, 21))
ND_NORMAL = 4
ND_NAMES = ("p", "q", "r")
ND_OPS = ("neg", "box", "and", "or")


def _concl(d):
    return d["formula"] if d["rule"] in ("Assume", "MA") else d["conclusion"]


def _rule(tag, conclusion, premises, discharges=()):
    return {"rule": tag, "conclusion": conclusion, "premises": list(premises),
            "discharges": list(discharges)}


def assume(f, marker=None):
    return {"rule": "Assume", "formula": f, "marker": marker}


def and_i(d1, d2):
    return _rule("AndI", ("and", _concl(d1), _concl(d2)), [d1, d2])


def and_e(d, side):
    c = _concl(d)
    return _rule("AndE1" if side == 0 else "AndE2", c[1 + side], [d])


def or_i(d, other, side):
    c = _concl(d)
    f = ("or", c, other) if side == 0 else ("or", other, c)
    return _rule("OrI1" if side == 0 else "OrI2", f, [d])


def or_e(major, minor1, minor2, u, v):
    c = _concl(major)
    return _rule("OrE", _concl(minor1), [major, minor1, minor2], [(u, c[1]), (v, c[2])])


def neg_and_i(d, other, side):
    body = _concl(d)[1]
    f = ("and", body, other) if side == 0 else ("and", other, body)
    return _rule("NegAndI1" if side == 0 else "NegAndI2", ("neg", f), [d])


def neg_and_e(major, minor1, minor2, u, v):
    body = _concl(major)[1]
    return _rule("NegAndE", _concl(minor1), [major, minor1, minor2],
                 [(u, ("neg", body[1])), (v, ("neg", body[2]))])


def neg_or_i(d1, d2):
    return _rule("NegOrI", ("neg", ("or", _concl(d1)[1], _concl(d2)[1])), [d1, d2])


def neg_or_e(d, side):
    body = _concl(d)[1]
    return _rule("NegOrE1" if side == 0 else "NegOrE2", ("neg", body[1 + side]), [d])


def neg_neg_i(d):
    return _rule("NegNegI", ("neg", ("neg", _concl(d))), [d])


def neg_neg_e(d):
    return _rule("NegNegE", _concl(d)[1][1], [d])


def box_i(d, bot_deriv, marker):
    f = _concl(d)
    return _rule("BoxI", ("box", f), [d, bot_deriv], [(marker, ("neg", f))])


def box_e(d):
    return _rule("BoxE", _concl(d)[1], [d])


def neg_box_i(d):
    return _rule("NegBoxI", ("neg", ("box", _concl(d)[1])), [d])


def bot_i(d):
    return _rule("BotI", ("bot",), [d])


def bot_e(d, f):
    return _rule("BotE", f, [d])


class Markers:
    def __init__(self):
        self.n = 0

    def fresh(self):
        self.n += 1
        return f"m{self.n}"


def derive(rng, target, fuel, markers):
    """A schema-valid derivation of target from open assumptions, using
    introductions, plain eliminations of assumptions and case splits."""
    if fuel <= 0:
        return assume(target)
    op = target[0]
    moves = ["assume", "and_e", "box_e", "or_e", "bot_e"]
    if op == "and":
        moves += ["and_i"] * 3
    elif op == "or":
        moves += ["or_i"] * 3
    elif op == "box":
        moves += ["box_i"] * 3
    elif op == "neg" and target[1][0] == "neg":
        moves += ["neg_neg_i"] * 3
    elif op == "neg" and target[1][0] == "box":
        moves += ["neg_box_i"] * 3
    move = rng.choice(moves)
    side = formula(rng, ND_NAMES, 1, ND_OPS, ())
    if move == "and_i":
        return and_i(derive(rng, target[1], fuel - 1, markers),
                     derive(rng, target[2], fuel - 1, markers))
    if move == "or_i":
        k = rng.randrange(2)
        return or_i(derive(rng, target[1 + k], fuel - 1, markers), target[2 - k], k)
    if move == "box_i":
        return box_i(derive(rng, target[1], fuel - 1, markers),
                     assume(("bot",)), markers.fresh())
    if move == "neg_neg_i":
        return neg_neg_i(derive(rng, target[1][1], fuel - 1, markers))
    if move == "neg_box_i":
        return neg_box_i(derive(rng, ("neg", target[1][1]), fuel - 1, markers))
    if move == "and_e":
        k = rng.randrange(2)
        pair = ("and", target, side) if k == 0 else ("and", side, target)
        return and_e(assume(pair), k)
    if move == "box_e":
        return box_e(assume(("box", target)))
    if move == "bot_e" and ref.is_literal(target):
        return bot_e(assume(("bot",)), target)
    if move == "or_e":
        major = assume(("or", formula(rng, ND_NAMES, 1, ND_OPS, ()), side))
        return or_e(major, derive(rng, target, fuel - 2, markers),
                    derive(rng, target, fuel - 2, markers),
                    markers.fresh(), markers.fresh())
    return assume(target)


def _inject(rng, d, markers):
    """Wrap d in one redex: a detour (introduction then elimination), a
    permutation through a case split, a removable case split, or an
    elimination of bot into a compound formula."""
    chi = _concl(d)
    kind = rng.choice(["detour", "detour", "permutation", "removal", "bot"])
    a = ("var", rng.choice(ND_NAMES))
    side = formula(rng, ND_NAMES, 1, ND_OPS, ())
    if kind == "detour":
        pick = rng.randrange(4 if chi[0] != "neg" else 6)
        if pick == 0:
            return and_e(and_i(d, assume(side)), 0)
        if pick == 1:
            u, v = markers.fresh(), markers.fresh()
            return or_e(or_i(d, side, 0), assume(chi, u), assume(chi), u, v)
        if pick == 2:
            return neg_neg_e(neg_neg_i(d))
        if pick == 3:
            return box_e(box_i(d, assume(("bot",)), markers.fresh()))
        if pick == 4:
            return neg_or_e(neg_or_i(d, assume(("neg", side))), 0)
        u, v = markers.fresh(), markers.fresh()
        return neg_and_e(neg_and_i(d, side, 1), assume(chi), assume(chi, v), u, v)
    if kind == "permutation":
        s = ("var", rng.choice(ND_NAMES))
        u, v = markers.fresh(), markers.fresh()
        minor1 = and_i(assume(a, u), d)
        minor2 = and_i(and_e(assume(("and", s, a), v), 1), assume(chi))
        return and_e(or_e(assume(("or", a, ("and", s, a))), minor1, minor2, u, v), 1)
    if kind == "removal":
        b = ("var", rng.choice(ND_NAMES))
        u, v = markers.fresh(), markers.fresh()
        minor1 = and_i(assume(a), d)
        minor2 = and_i(assume(a), assume(chi))
        return and_e(or_e(assume(("or", a, b)), minor1, minor2, u, v), 1)
    falsum = bot_i(and_i(assume(("neg", a)), assume(("box", a))))
    compound = rng.choice([("and", a, a), ("or", a, ("neg", a)), ("box", a),
                           ("neg", ("and", a, a))])
    return and_e(and_i(bot_e(falsum, compound), d), 1)


def nd_round(seed, r):
    """One round of proofs in JSON form: (proof, redexes injected)."""
    rng = stream(seed, "nd", r)
    items = []
    for n in ND_REDEXES:
        markers = Markers()
        d = derive(rng, formula(rng, ND_NAMES, 2, ND_OPS, ()), 3, markers)
        for _ in range(n):
            d = _inject(rng, d, markers)
        items.append((to_json(d), n))
    while len(items) < len(ND_REDEXES) + ND_NORMAL:
        markers = Markers()
        d = to_json(derive(rng, formula(rng, ND_NAMES, 3, ND_OPS, ()), 4, markers))
        if not ref.has_cut(d) and not ref.compound_bot_elims(d):
            items.append((d, 0))
    rng.shuffle(items)
    return items


def to_json(d):
    """The program's proof JSON for a generated proof."""
    if d["rule"] == "Assume":
        return {"rule": "Assume", "formula": ref.render(d["formula"]),
                "marker": d["marker"]}
    return {
        "rule": d["rule"],
        "conclusion": ref.render(d["conclusion"]),
        "premises": [to_json(p) for p in d["premises"]],
        "discharges": [{"marker": m, "formula": ref.render(f)}
                       for m, f in d["discharges"]],
    }


# --- command line ------------------------------------------------------------------

MIXED_OPS = ("neg", "box", "dia", "and", "or", "succ")
CLI_HEAVY = 8
TABLE_CONNECTIVES = ("~", "[]", "<>", "&", "|", ">", "neg", "box", "dia",
                     "and", "or", "succ", "bot", "top")


def _valid_instance(rng):
    schema = ref.parse(rng.choice(SCHEMAS))
    sub = {m: formula(rng, NAMES[:3], 2, FULL_OPS, ()) for m in ref.variables(schema)}
    return _substitute(schema, sub)


def cli_cases(seed):
    """One round of command lines.  Each case is a dict with the argv, the
    files it needs and what the reference expects of it.  The last three
    are the same for every seed: inputs that should be rejected with status
    2 but today crash with status 1."""
    rng = stream(seed, "cli")
    cases = []

    def add(kind, argv, **data):
        cases.append({"kind": kind, "argv": argv, **data})

    def fml(depth=3, ops=MIXED_OPS):
        return formula(rng, NAMES[:3], depth, ops, ("bot", "top"))

    for i in range(3):
        f = fml()
        add("parse", ["parse", ref.render(f)] + (["--json"] if i == 0 else []), formula=f)
    add("usage", ["parse", ref.render(fml()) + " &"])
    for i in range(3):
        c = rng.choice(TABLE_CONNECTIVES)
        add("table", ["table", c] + (["--json"] if i == 0 else []), connective=c)
    add("usage", ["table", "xor"])
    for i in range(2):
        f = fml()
        h = {n: rng.choice(ref.VALUES) for n in ref.variables(f)}
        assign = ",".join(f"{n}={v}" for n, v in sorted(h.items()))
        add("eval", ["eval", ref.render(f), "--assign", assign], formula=f, assign=h)
    for i in range(2):
        f = fml(2)
        add("eval-all", ["eval", ref.render(f)], formula=f)
    for i in range(4):
        f = _valid_instance(rng) if i % 2 else fml()
        add("valid", ["valid", ref.render(f)], formula=f)
    for i in range(3):
        f = _valid_instance(rng) if i == 1 else fml()
        add("countermodel", ["countermodel", ref.render(f)] + (["--json"] if i == 2 else []),
            formula=f)
    for i in range(4):
        premises = [fml(2) for _ in range(1 + i % 3)]
        conclusion = ("or", premises[0], fml(2)) if i % 2 else fml(2)
        add("consequence", ["consequence"] + [ref.render(p) for p in premises]
            + ["--to", ref.render(conclusion)], premises=premises, conclusion=conclusion)
    for i in range(6):
        system = "succ" if i < 3 else "full"
        if system == "succ":
            f = formula(rng, NAMES[:3], 4, SUCC_OPS)
        elif i == 4:
            a = formula(rng, NAMES[:3], 2, FULL_OPS, ())
            f = ("or", a, ("neg", ("box", a)))
        else:
            f = formula(rng, NAMES[:3], 3, FULL_OPS)
        extra = [["--derived"], ["--emit-tableau"], ["--json"], [], [], ["--json"]][i]
        add("prove", ["prove", "--system", system, ref.render(f)] + extra, formula=f)
    for i in range(4):
        target = "succ" if i % 2 else "full"
        f = formula(rng, NAMES[:3], 2, MIXED_OPS, ("bot", "top"))
        add("translate", ["translate", "--to", target, ref.render(f)], formula=f, target=target)
    for i in range(4):
        proof, n = nd_round(seed, 1000 + i)[0]
        add("nd-check", ["nd-check", "{file}"], proof=proof)
    for i in range(3):
        proofs = sorted(nd_round(seed, 2000 + i), key=lambda x: x[1])
        proof = proofs[5 + i][0]
        add("nd-normalize", ["nd-normalize", "{file}"] + (["--json"] if i == 0 else []),
            proof=proof)
    add("identities", ["identities"])
    # Command lines that compute for longer than start-up takes: valid
    # 6-variable schema instances of 80 nodes.  Their shapes are the same
    # for every seed, which only renames the variables, so their cost does
    # not depend on the seed.  With 8 of 52 cases a round, p90 falls inside
    # this class of equal work, not in start-up jitter.
    names = list(ORACLE_NAMES)
    rng.shuffle(names)
    for i in range(CLI_HEAVY):
        f = _instance(stream(0, "cli-heavy", i), ref.parse(SCHEMAS[i % len(SCHEMAS)]), 6, 80)
        f = rename(f, dict(zip(ORACLE_NAMES, names)))
        add("valid", ["valid", ref.render(f)], formula=f)
    wide = " & ".join(f"v{i}" for i in range(14))
    add("crash", ["valid", wide], fault="TooManyVariables on 14 variables")
    add("crash", ["valid", "~" * 1200 + "p"], fault="RecursionError on deep nesting")
    bad = {"rule": "BoxI", "conclusion": "[]p",
           "premises": [{"rule": "Assume", "formula": "p", "marker": None},
                        {"rule": "Assume", "formula": "bot", "marker": None}],
           "discharges": [{"marker": ["u"], "formula": "~p"}]}
    add("crash", ["nd-check", "{file}"], proof=bad, fault="TypeError on a list marker")
    return cases

