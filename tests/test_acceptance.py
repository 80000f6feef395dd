"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single
``criterion N: PASS`` or ``criterion N: FAIL`` line straight to the
terminal (bypassing capture) so a full run shows every verdict at a
glance.  All checks are exact; the semantics is finite and discrete, so
there are no tolerances anywhere.

The heavyweight corpora (exhaustive and random formula sweeps for the
two tableau systems) are built once and shared: criterion 5 and 6 own
and time them, criterion 7 re-reads the recorded countermodel audits,
and criterion 8 re-proves the box of every formula they proved.
"""

import hashlib
import random
import time
from contextlib import contextmanager
from functools import lru_cache

import proofgen
from helpers import modal_ladder, random_formula

from tml import syntax
from tml.algebra import (
    DESIGNATED,
    VALUES,
    apply_op,
    designated,
    leq,
    run_identity_suites,
)
from tml.nd import (
    Rule,
    atomize_bot,
    builtin_examples,
    check,
    is_normal,
    normalize,
)
from tml.semantics import (
    consequence,
    consequence_countermodel,
    countermodel,
    evaluate,
    valid,
    valuations,
)
from tml.syntax import (
    BOT,
    TOP,
    And,
    Bot,
    Box,
    Dia,
    Neg,
    Or,
    Signature,
    Succ,
    Var,
    parse,
    render,
    translate,
)
from tml.tableau import Proved, Refuted, decide, satisfies


@contextmanager
def _report(capsys, number):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number}: FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {number}: PASS")


# --- criterion 1: the identity suite ---------------------------------------


def test_criterion_01_identity_suite(capsys):
    with _report(capsys, 1):
        start = time.perf_counter()
        results = list(run_identity_suites())
        elapsed = time.perf_counter() - start
        assert len(results) == 33
        failures = [(s, n) for s, n, r in results if not r.holds]
        assert failures == []
        assert elapsed < 1.0, f"identity suite took {elapsed:.2f}s"


# --- criterion 2: the implication table, entry by entry ---------------------


def test_criterion_02_succ_table(capsys):
    with _report(capsys, 2):
        expected = {
            "0": ("1", "1", "1", "1"),
            "n": ("n", "1", "b", "1"),
            "b": ("b", "n", "1", "1"),
            "1": ("0", "n", "b", "1"),
        }
        for x in VALUES:
            for y, want in zip(VALUES, expected[x]):
                assert apply_op("succ", x, y) == want, (x, y)
        assert apply_op("succ", "b", "n") == "n"
        assert apply_op("succ", "n", "0") == "n"
        assert apply_op("succ", "1", "b") == "b"


# --- criterion 3: modal theorems and the graded box/diamond ladder ----------

_MODAL_THEOREMS = (
    "bot > p",
    "p > top",
    "p > (q > p)",
    "(p | q) > (q | p)",
    "~~p > p",
    "p > ~~p",
    "[]p > [][]p",
    "[]p > p",
    "p > []<>p",
    "[]p > <>p",
    "[](p > q) > ([]p > []q)",
    "(<>p & <>q) > (<>(p & <>q) | <>(p & q) | <>(q & <>p))",
)


def test_criterion_03_modal_theorems(capsys):
    with _report(capsys, 3):
        start = time.perf_counter()
        for text in _MODAL_THEOREMS:
            assert valid(parse(text)), text
        # The graded ladder <>^k []^l p > []^m <>^n p holds except at the
        # eight degenerate corners with no box on the left and no diamond
        # on the right (l = n = 0 with k > 0 or m > 0): there the schema
        # collapses to p > []p, <>p > p, or <>p > []p, all refuted at
        # p = n.  The pinned implication table forces this boundary, so
        # the suite asserts it exactly on all 81 instances.
        for k in range(3):
            for l in range(3):
                for m in range(3):
                    for n in range(3):
                        f = modal_ladder(k, l, m, n)
                        degenerate = l == 0 and n == 0 and (k > 0 or m > 0)
                        if degenerate:
                            assert countermodel(f) == {"p": "n"}, (k, l, m, n)
                        else:
                            assert valid(f), (k, l, m, n)
        converse = parse("[]<>p > <>[]p")
        assert not valid(converse)
        assert countermodel(converse) == {"p": "n"}
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"modal theorem suite took {elapsed:.2f}s"


# --- criterion 4: single-premise deduction property and its multi-premise
# failure ---------------------------------------------------------------------


def test_criterion_04_deduction_property(capsys):
    with _report(capsys, 4):
        rng = random.Random(44004)
        for _ in range(1000):
            a = random_formula(rng, names=("p", "q", "r"), depth=4)
            b = random_formula(rng, names=("p", "q", "r"), depth=4)
            assert consequence([a], b) == valid(Succ(a, b)), (a, b)
        alpha = parse("<>(p & ~p) & <>(q & ~q) & <>((p > q) & ~(p > q)) & p")
        assert consequence([alpha, Var("q")], BOT) is True
        assert consequence([alpha], parse("q > bot")) is False
        witness = consequence_countermodel([alpha], parse("q > bot"))
        assert witness == {"p": "n", "q": "b"}


# --- shared corpora for criteria 5 through 8 ---------------------------------


def _succ_pool():
    """Every formula built from p, q, bot with ~ and > of degree at most 7."""
    by_degree = {1: [Var("p"), Var("q"), BOT]}
    for d in range(2, 8):
        layer = [Neg(f) for f in by_degree[d - 1]]
        for i in range(1, d - 1):
            for a in by_degree[i]:
                for b in by_degree[d - 1 - i]:
                    layer.append(Succ(a, b))
        by_degree[d] = layer
    return [f for d in range(1, 8) for f in by_degree[d]]


def _full_pool():
    """Every formula built from p, q, bot, top with ~, [], &, | using at
    most 4 connectives."""
    by_count = {0: [Var("p"), Var("q"), BOT, TOP]}
    for k in range(1, 5):
        layer = []
        for f in by_count[k - 1]:
            layer.append(Neg(f))
            layer.append(Box(f))
        for i in range(k):
            for a in by_count[i]:
                for b in by_count[k - 1 - i]:
                    layer.append(And(a, b))
                    layer.append(Or(a, b))
        by_count[k] = layer
    return [f for k in range(5) for f in by_count[k]]


# The node count of a formula read as a tree, folded once per distinct node:
# translations share subterms, so walking the tree itself is exponential.
_TREE_SIZE = {
    **dict.fromkeys(syntax._ATOMS, lambda atom: 1),
    **dict.fromkeys(syntax._UNARY, lambda body: 1 + body),
    **dict.fromkeys(syntax._BINARY, lambda left, right: 1 + left + right),
}


def _tree_size(f):
    return syntax._fold(f, _TREE_SIZE)


def _full_random_pool(seed, count):
    """Random formulas in the full system's own connectives."""
    rng = random.Random(seed)
    names = ("p", "q", "r", "s")
    return [
        random_formula(rng, names=names, depth=4, ops="full")
        for _ in range(count)
    ]


@lru_cache(maxsize=None)
def _succ_random_pool(seed, count):
    """Random native > formulas over up to 4 variables.

    Samples are kept within the boxed-translation size envelope of the
    exhaustive corpus: unfolding > into the full connectives multiplies a
    formula sevenfold per nesting level, and the necessitation sweep
    (criterion 8) must close a full-system tableau for the box of every
    proved formula here.  Unbounded depth-5 samples produce translations
    of tens of thousands of nodes whose branch-complete tableaux exceed
    memory; the envelope keeps the sweep no harder than the exhaustive
    corpus it extends while still passing more than half the raw stream."""
    bound = max(
        _tree_size(translate(Box(f), Signature.FULL)) for f in _succ_pool()
    )
    rng = random.Random(seed)
    names = ("p", "q", "r", "s")
    out = []
    while len(out) < count:
        f = random_formula(rng, names=names, depth=5, ops="succ")
        if _tree_size(translate(Box(f), Signature.FULL)) <= bound:
            out.append(f)
    return out


def _scan(formulas, system):
    """decide() every formula, compare against the brute-force oracle, and
    audit every refutation's countermodel on the spot."""
    agree_bad = []
    model_bad = []
    proved = []
    for f in formulas:
        verdict = decide(f, system)
        if isinstance(verdict, Proved) != valid(f):
            agree_bad.append(f)
        if isinstance(verdict, Refuted):
            h = verdict.model
            if evaluate(f, h) == "1" or not all(
                satisfies(h, sf) for sf in verdict.branch.formulas
            ):
                model_bad.append(f)
        else:
            proved.append(f)
    return {
        "n": len(formulas),
        "agree_bad": agree_bad,
        "model_bad": model_bad,
        "proved": proved,
    }


@lru_cache(maxsize=None)
def _corpus(key):
    if key == "succ-exhaustive":
        return _scan(_succ_pool(), Signature.SUCC)
    if key == "succ-random":
        return _scan(_succ_random_pool(55005, 10000), Signature.SUCC)
    if key == "full-exhaustive":
        return _scan(_full_pool(), Signature.FULL)
    if key == "full-random":
        return _scan(_full_random_pool(66006, 10000), Signature.FULL)
    raise KeyError(key)


def test_criterion_05_succ_tableau_vs_oracle(capsys):
    with _report(capsys, 5):
        start = time.perf_counter()
        exhaustive = _corpus("succ-exhaustive")
        randoms = _corpus("succ-random")
        elapsed = time.perf_counter() - start
        assert exhaustive["n"] == 1875
        assert randoms["n"] == 10000
        assert exhaustive["agree_bad"] == []
        assert randoms["agree_bad"] == []
        assert elapsed < 120.0, f"succ corpus took {elapsed:.1f}s"


def test_succ_random_pool_is_pinned():
    """The sha256 of criterion 5's random pool, rendered one formula a line.
    Its size envelope is measured in tree nodes, so a change to the count
    would change which samples pass."""
    pool = _succ_random_pool(55005, 10000)
    digest = hashlib.sha256("\n".join(map(render, pool)).encode()).hexdigest()
    assert digest == "853f9692edadfc0839db80c59862c62f4ddc92be216c0c6567d4485c7154a032"


def test_criterion_06_full_tableau_vs_oracle(capsys):
    with _report(capsys, 6):
        start = time.perf_counter()
        exhaustive = _corpus("full-exhaustive")
        randoms = _corpus("full-random")
        elapsed = time.perf_counter() - start
        assert exhaustive["n"] == 423004
        assert randoms["n"] == 10000
        assert exhaustive["agree_bad"] == []
        assert randoms["agree_bad"] == []
        assert elapsed < 120.0, f"full corpus took {elapsed:.1f}s"


def test_criterion_07_countermodel_audit(capsys):
    with _report(capsys, 7):
        for key in (
            "succ-exhaustive",
            "succ-random",
            "full-exhaustive",
            "full-random",
        ):
            corpus = _corpus(key)
            assert corpus["model_bad"] == [], key


def test_criterion_08_necessitation(capsys):
    with _report(capsys, 8):
        total = 0
        for key in (
            "succ-exhaustive",
            "succ-random",
            "full-exhaustive",
            "full-random",
        ):
            for f in _corpus(key)["proved"]:
                assert isinstance(decide(Box(f), Signature.FULL), Proved), f
                total += 1
        assert total > 0


# --- criterion 9: worklist order must not change verdicts --------------------


def test_criterion_09_expansion_order_independence(capsys):
    with _report(capsys, 9):
        rng = random.Random(99009)
        for i in range(100):
            f = random_formula(rng, names=("p", "q", "r"), depth=4)
            system = Signature.SUCC if i % 2 else Signature.FULL
            verdicts = {
                type(decide(f, system, rng=random.Random(1000 * i + k)))
                for k in range(10)
            }
            assert len(verdicts) == 1, f


# --- criterion 10: builtin derivations and checker soundness ------------------

_EXPECTED_JUDGEMENTS = {
    "lem-i": ((), "[](p | ~[]p)"),
    "lem-ii-fwd": (("~p & p",), "~[]p & p"),
    "lem-ii-bwd": (("~[]p & p",), "~p & p"),
    "lem-ix-fwd": (("[](p & q)",), "[]p & []q"),
    "lem-ix-bwd": (("[]p & []q",), "[](p & q)"),
    "lem-xi-bwd": (("~[]p",), "[]~[]p"),
}


def test_criterion_10_nd_builtins_and_soundness(capsys):
    with _report(capsys, 10):
        examples = builtin_examples()
        assert sorted(examples) == sorted(_EXPECTED_JUDGEMENTS)
        for name, proof in examples.items():
            opens, conclusion = _EXPECTED_JUDGEMENTS[name]
            j = check(proof)
            assert j.open_assumptions == frozenset(parse(t) for t in opens), name
            assert j.conclusion == parse(conclusion), name
            assert is_normal(proof), name
            assert consequence(list(j.open_assumptions), j.conclusion), name
        rng = random.Random(1010)
        for _ in range(1000):
            d = proofgen.random_proof(rng, fuel=4)
            j = check(d)
            assert consequence(list(j.open_assumptions), j.conclusion), d


# --- criterion 11: normalization on proofs with injected redexes --------------


def _bot_elim_conclusions(t):
    out = []
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Rule):
            if u.tag == "BotE":
                out.append(u.conclusion)
            stack.extend(u.premises)
    return out


def _is_literal(f):
    return isinstance(f, Var) or (
        isinstance(f, Neg) and isinstance(f.body, (Var, Bot))
    )


def test_criterion_11_normalization(capsys):
    with _report(capsys, 11):
        rng = random.Random(111011)
        kinds_seen = set()
        for _ in range(500):
            d = proofgen.random_injected_proof(rng, fuel=3)
            before = check(d)

            atomized = atomize_bot(d)
            assert all(
                _is_literal(g) for g in _bot_elim_conclusions(atomized)
            ), d

            events = []
            out = normalize(d, observer=events.append)
            kinds_seen.update(e["kind"] for e in events)
            measures = [e["measure"] for e in events]
            assert all(b < a for a, b in zip(measures, measures[1:])), d

            after = check(out)
            assert is_normal(out), d
            assert after.conclusion == before.conclusion, d
            assert after.open_assumptions <= before.open_assumptions, d
            assert all(
                _is_literal(g) for g in _bot_elim_conclusions(out)
            ), d
        assert {"detour", "permutation", "removal", "atomize"} <= kinds_seen


# --- criterion 12: order consequence coincides with designated-value
# consequence -----------------------------------------------------------------
#
# Both relations factor through value vectors over the 16 valuations of
# {p, q}: the premise set only matters through the pointwise meet of its
# vectors, and the conclusion only through its own vector.  So the check
# enumerates every value vector realizable by a formula of depth <= 3
# over p, q, bot, top (all six connectives), forms every meet of at most
# two of them, and compares the two relations on every (meet, conclusion)
# vector pair.  That covers every formula triple from the depth-3 pool:
# two formulas with the same vector are interchangeable in both
# relations.  A seeded sample of concrete triples then ties the
# vector-level verdicts back to the public consequence() API.


def _vector_pool():
    """All value vectors of depth <= 3 formulas over p, q, plus a
    representative formula for each vector."""
    hs = list(valuations(("p", "q")))
    seen = {}
    for f in (Var("p"), Var("q"), BOT, TOP):
        v = tuple(evaluate(f, h) for h in hs)
        seen.setdefault(v, f)
    for _ in range(3):
        prev = list(seen.items())
        new = {}
        for v, f in prev:
            for op, build in (("neg", Neg), ("box", Box), ("dia", Dia)):
                w = tuple(apply_op(op, x) for x in v)
                if w not in seen:
                    new.setdefault(w, build(f))
        for va, fa in prev:
            for vb, fb in prev:
                for op, build in (("and", And), ("or", Or), ("succ", Succ)):
                    w = tuple(apply_op(op, x, y) for x, y in zip(va, vb))
                    if w not in seen:
                        new.setdefault(w, build(fa, fb))
        seen.update(new)
    return seen


def _encode(vec):
    masks = [0, 0, 0, 0]
    index = {v: i for i, v in enumerate(VALUES)}
    for slot, x in enumerate(vec):
        masks[index[x]] |= 1 << slot
    return tuple(masks)


def _matrix_consequence(premises, conclusion):
    for h in valuations(("p", "q")):
        if all(evaluate(g, h) in DESIGNATED for g in premises):
            if evaluate(conclusion, h) not in DESIGNATED:
                return False
    return True


def test_criterion_12_matrix_characterization(capsys):
    with _report(capsys, 12):
        pool = _vector_pool()
        assert len(pool) == 2868
        vectors = sorted(pool)

        # slot-level bridges: the bitwise forms used below agree with the
        # algebra's meet, order, and designation on every value pair
        for x in VALUES:
            for y in VALUES:
                x0, xn, xb, x1 = _encode((x,))
                y0, yn, yb, y1 = _encode((y,))
                meet = (
                    x0 | y0 | (xn & yb) | (xb & yn),
                    (xn & yn) | (xn & y1) | (x1 & yn),
                    (xb & yb) | (xb & y1) | (x1 & yb),
                    x1 & y1,
                )
                assert meet == _encode((apply_op("and", x, y),)), (x, y)
                deg_fail = (xn & (y0 | yb)) | (xb & (y0 | yn)) | (
                    x1 & (y0 | yn | yb)
                )
                assert bool(deg_fail) == (not leq(x, y)), (x, y)
                mat_fail = (xb | x1) & (y0 | yn)
                assert bool(mat_fail) == (
                    designated(x) and not designated(y)
                ), (x, y)

        encoded = [_encode(v) for v in vectors]

        # every meet of at most two pool vectors; the empty premise set
        # contributes the constant-1 vector
        meets = set(encoded)
        meets.add(_encode(tuple("1" for _ in range(16))))
        n = len(encoded)
        for i in range(n):
            x0, xn, xb, x1 = encoded[i]
            for j in range(i + 1, n):
                y0, yn, yb, y1 = encoded[j]
                meets.add(
                    (
                        x0 | y0 | (xn & yb) | (xb & yn),
                        (xn & yn) | (xn & y1) | (x1 & yn),
                        (xb & yb) | (xb & y1) | (x1 & yb),
                        x1 & y1,
                    )
                )
        assert len(meets) == 14678

        # conclusions only matter through these three masks
        projections = {
            (a0 | ab, a0 | an, a0 | an | ab) for a0, an, ab, a1 in encoded
        }
        for m0, mn, mb, m1 in meets:
            mdes = mb | m1
            for low_or_b, low_or_n, not_one in projections:
                deg_fail = (mn & low_or_b) | (mb & low_or_n) | (m1 & not_one)
                mat_fail = mdes & low_or_n
                assert (deg_fail == 0) == (mat_fail == 0), (
                    (m0, mn, mb, m1),
                    (low_or_b, low_or_n, not_one),
                )

        # tie the vector argument back to the public API on concrete triples
        rng = random.Random(121212)
        for _ in range(300):
            size = rng.randrange(3)
            premise_vecs = [rng.choice(vectors) for _ in range(size)]
            conclusion_vec = rng.choice(vectors)
            premises = [pool[v] for v in premise_vecs]
            conclusion = pool[conclusion_vec]
            expected = True
            for i in range(16):
                m = "1"
                for row in premise_vecs:
                    m = apply_op("and", m, row[i])
                if not leq(m, conclusion_vec[i]):
                    expected = False
                    break
            assert consequence(premises, conclusion) == expected
            assert _matrix_consequence(premises, conclusion) == expected
