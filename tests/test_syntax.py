import copy
import gc
import itertools
import pickle
import random
import weakref

import pytest

from helpers import random_formula, reference_sig
from tml import hashcons, nd, syntax, tableau
from tml.semantics import evaluate, valuations
from tml.syntax import (
    BOT,
    IN_FULL,
    IN_ND,
    IN_SUCC,
    MAX_DEPTH,
    TOP,
    And,
    Bot,
    Box,
    Dia,
    Neg,
    Or,
    ParseError,
    Signature,
    SignatureError,
    Succ,
    Top,
    Var,
    complexity,
    degree,
    in_signature,
    instantiate,
    instantiator,
    match,
    parse,
    render,
    subformulas,
    translate,
    variables,
)

p, q, r = Var("p"), Var("q"), Var("r")


def test_parse_atoms():
    assert parse("p") == p
    assert parse("bot") == BOT
    assert parse("top") == TOP
    assert parse("botox") == Var("botox")
    assert parse("p_1") == Var("p_1")


def test_parse_precedence():
    assert parse("p & q | r") == Or(And(p, q), r)
    assert parse("p | q & r") == Or(p, And(q, r))
    assert parse("~p & q") == And(Neg(p), q)
    assert parse("p & q > r") == Succ(And(p, q), r)
    assert parse("[]p > <>q") == Succ(Box(p), Dia(q))


def test_parse_associativity():
    assert parse("p > q > r") == Succ(p, Succ(q, r))
    assert parse("p & q & r") == And(And(p, q), r)
    assert parse("p | q | r") == Or(Or(p, q), r)


def test_parse_unary_and_parens():
    assert parse("~[]<>~p") == Neg(Box(Dia(Neg(p))))
    assert parse("[](p > q)") == Box(Succ(p, q))
    assert parse("(p > q) > r") == Succ(Succ(p, q), r)
    assert parse("  p  &(q| r )") == And(p, Or(q, r))


@pytest.mark.parametrize(
    "text,position",
    [
        ("p &", 4),
        ("", 1),
        ("(p", 3),
        ("p q", 3),
        ("[p", 2),
        ("<p", 2),
        ("P", 1),
        ("p > > q", 5),
        ("p @ q", 3),
        ("(p > q))", 8),
        # Nesting past MAX_DEPTH: '(', prefix connectives and '>' are counted
        # as they open, so the error names the first one too many, and '&'
        # and '|' chains as each node is built.
        pytest.param("~" * (MAX_DEPTH + 1) + "p", 101, id="prefixes"),
        pytest.param("(" * (MAX_DEPTH + 1) + "p" + ")" * (MAX_DEPTH + 1), 101, id="parens"),
        pytest.param(" > ".join(["p"] * (MAX_DEPTH + 2)), 403, id="succ-chain"),
        pytest.param(" & ".join(["p"] * (MAX_DEPTH + 2)), 403, id="and-chain"),
        pytest.param(" | ".join(["p"] * (MAX_DEPTH + 2)), 403, id="or-chain"),
        pytest.param("(" * MAX_DEPTH + "p" + ")" * MAX_DEPTH + " & p", 203, id="parens-and"),
        pytest.param("~" * MAX_DEPTH + "(p)", 101, id="prefixes-parens"),
        pytest.param("(" + " & ".join(["p"] * (MAX_DEPTH + 1)) + ")", 1, id="and-chain-in-parens"),
    ],
)
def test_parse_errors_carry_positions(text, position):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.position == position
    assert f"position {position}" in str(exc.value)


@pytest.mark.parametrize("text, position, expected", [
    ("~", 2, tuple(sorted(syntax._ATOM_STARTERS))),
    ("(p q", 4, ("&", ")", ">", "|")),
    ("p )", 3, ("&", ">", "end", "|")),
    ("((p) q", 6, ("&", ")", ">", "|")),
])
def test_parse_errors_name_expected_tokens(text, position, expected):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.position, exc.value.expected) == (position, expected)


def test_parse_error_expected_tokens():
    with pytest.raises(ParseError) as exc:
        parse("p &")
    assert "ident" in exc.value.expected
    assert "(" in exc.value.expected


def test_var_name_validation():
    with pytest.raises(ValueError):
        Var("bot")
    with pytest.raises(ValueError):
        Var("Q")
    with pytest.raises(ValueError):
        Var("")
    with pytest.raises(ValueError):
        Var("1x")


def test_render_minimal_parens():
    assert render(Succ(p, Succ(q, r))) == "p > q > r"
    assert render(Succ(Succ(p, q), r)) == "(p > q) > r"
    assert render(Or(And(p, q), r)) == "p & q | r"
    assert render(And(p, Or(q, r))) == "p & (q | r)"
    assert render(Or(p, Or(q, r))) == "p | (q | r)"
    assert render(Neg(And(p, q))) == "~(p & q)"
    assert render(Box(Succ(p, q))) == "[](p > q)"
    assert render(Neg(Box(Dia(p)))) == "~[]<>p"
    assert render(BOT) == "bot"


def test_parse_render_round_trip_random():
    rng = random.Random(20260814)
    for _ in range(500):
        f = random_formula(rng, depth=5)
        assert parse(render(f)) == f


def test_subformulas_and_variables():
    f = parse("(p > q) & ~p")
    subs = list(subformulas(f))
    assert f in subs and p in subs and Neg(p) in subs
    assert variables(f) == {"p", "q"}
    assert variables(BOT) == frozenset()


def test_complexity():
    assert complexity(p) == 0
    assert complexity(BOT) == 0
    assert complexity(parse("~(p & q)")) == 2
    assert complexity(parse("[]p")) == 2
    assert complexity(parse("<>p")) == 4
    assert complexity(parse("[](p | ~q)")) == 4
    with pytest.raises(SignatureError):
        complexity(parse("p > q"))


def test_degree():
    assert degree(p) == 1
    assert degree(BOT) == 1
    assert degree(parse("~p")) == 2
    assert degree(parse("p > q")) == 3
    assert degree(parse("(p > q) > (p > q)")) == 7
    with pytest.raises(SignatureError):
        degree(parse("p & q"))
    with pytest.raises(SignatureError):
        degree(parse("[]p"))


def test_in_signature():
    assert in_signature(parse("[](p | ~q) & bot"), Signature.FULL)
    assert not in_signature(parse("p > q"), Signature.FULL)
    assert not in_signature(parse("<>p"), Signature.FULL)
    assert in_signature(parse("~(p > ~p)"), Signature.SUCC)
    assert not in_signature(parse("p & q"), Signature.SUCC)
    assert not in_signature(TOP, Signature.SUCC)


@pytest.mark.parametrize("sig", ["full", "succ", None, 1])
def test_in_signature_and_translate_reject_an_unknown_signature(sig):
    for f in (parse("p & q"), parse("p > q"), parse("p")):
        for call in (in_signature, translate):
            with pytest.raises(ValueError) as caught:
                call(f, sig)
            assert type(caught.value) is ValueError
            assert str(caught.value) == f"unknown signature {sig!r}"


def test_translate_succ_to_full_shape():
    out = translate(parse("p > q"), Signature.FULL)
    assert render(out) == "(~[]p | q) & (~[]~q | ~p) & (~[](~p | q) | ([]~p | q))"


def test_translate_full_to_succ_shapes():
    cases = {
        "top": "bot > bot",
        "p | q": "(p > q) > q",
        "p & q": "~((~p > ~q) > ~q)",
        "[]p": "~(p > ~p)",
        "<>p": "~p > p",
    }
    for src, expected in cases.items():
        assert render(translate(parse(src), Signature.SUCC)) == expected


def test_translate_preserves_value_and_lands_in_signature():
    rng = random.Random(1234)
    for _ in range(300):
        f = random_formula(rng, names=("p", "q"), depth=4, ops="mixed")
        for sig in (Signature.FULL, Signature.SUCC):
            g = translate(f, sig)
            assert in_signature(g, sig), render(g)
            for h in valuations(variables(f) | variables(g)):
                assert evaluate(f, h) == evaluate(g, h)


def test_translate_fixes_formulas_already_in_signature():
    assert translate(parse("[](p & ~q) | bot"), Signature.FULL) == parse("[](p & ~q) | bot")
    assert translate(parse("~(p > q) > bot"), Signature.SUCC) == parse("~(p > q) > bot")


# --- signature bits ----------------------------------------------------------


def _bits_pool():
    """Random formulas over every connective, top and <> included, each with
    its translations into both signatures."""
    rng = random.Random(2323)
    for ops in ("mixed", "full", "succ"):
        for _ in range(200):
            f = random_formula(rng, names=("p", "q"), depth=5, ops=ops)
            yield f
            for sig in Signature:
                yield translate(f, sig)


def _assert_bits(f):
    expected = reference_sig(f)
    assert f._sig == expected, render(f)
    assert in_signature(f, Signature.FULL) == bool(expected & IN_FULL), render(f)
    assert in_signature(f, Signature.SUCC) == bool(expected & IN_SUCC), render(f)


def test_signature_bits_match_the_walk():
    seen = set()
    for f in _bits_pool():
        _assert_bits(f)
        seen.add(f._sig)
    assert seen == {0, IN_FULL, IN_SUCC, IN_FULL | IN_ND, IN_FULL | IN_SUCC | IN_ND}


def test_nodes_built_at_import_carry_their_bits():
    # The rule patterns, parsed when their modules were imported; parse
    # returns those very nodes while the modules hold them.
    schemas = [g for premises, conclusion, discharges in nd._SCHEMAS.values()
               for g in (*premises, conclusion, *discharges)]
    assert all(f._sig & IN_ND for f in schemas)
    patterns = {system: [parse(text) for (_, principal), alternatives in rows.items()
                         for text in (principal, *(item[2:] for alt in alternatives for item in alt))]
                for system, rows in tableau._RULES.items()}
    patterns[Signature.SUCC] += [parse(text) for text in tableau._PAIR] + [
        parse(item[2:]) for alternatives in tableau._DERIVED_RULES.values()
        for alt in alternatives for item in alt]
    for system, formulas in patterns.items():
        assert all(in_signature(f, system) for f in formulas)
        for f in schemas + formulas:
            for g in subformulas(f):
                _assert_bits(g)


def test_deep_formulas_carry_their_bits():
    # Far deeper than parse() accepts: the bits are set as each node is
    # built, with no walk.
    steps = {
        "full": (Neg, Box, lambda a: And(a, q), lambda a: Or(p, a)),
        "succ": (Neg, lambda a: Succ(a, q), lambda a: Succ(p, a)),
    }
    for bottom in (p, TOP, Dia(p)):
        for ops in steps.values():
            f = bottom
            for i in range(10_000):
                f = ops[i % len(ops)](f)
            _assert_bits(f)


def _round_trip(text):
    data = pickle.dumps(parse(text))
    # The formula is gone, so loads builds it anew.
    fresh = (Var, "pickled") not in hashcons.TABLE
    assert fresh
    f = pickle.loads(data)
    assert f is parse(text)
    for g in subformulas(f):
        _assert_bits(g)


def test_bits_survive_a_pickle_round_trip():
    for text in ("[](pickled & ~q) | bot", "~(pickled > q) > bot", "<>pickled & top",
                 "~~pickled"):
        _round_trip(text)


def test_connectives_take_formulas_only():
    before = len(hashcons.TABLE)
    for build in (lambda: Neg(3), lambda: And(p, "q"), lambda: Succ(None, p),
                  lambda: Box(tableau.T(p))):
        with pytest.raises(TypeError, match="^not a formula: "):
            build()
    assert len(hashcons.TABLE) == before


def test_walks_take_formulas_only():
    for walk, value in ((render, 3), (complexity, "p"), (lambda f: evaluate(f, {}), 3)):
        with pytest.raises(TypeError, match=f"^not a formula: {value!r}$"):
            walk(value)


def test_enter_keeps_a_live_node_and_replaces_a_dead_one():
    class Gone:
        pass

    key = (Var, "dead_probe")
    hashcons.TABLE[key] = weakref.ref(Gone())
    assert hashcons.TABLE[key]() is None
    f = Var("dead_probe")
    assert type(f) is Var and f.name == "dead_probe"
    assert hashcons.TABLE[key]() is f
    assert hashcons.enter(key, object.__new__(Var)) is f
    assert hashcons.TABLE[key]() is f


def test_translation_keeps_the_variables():
    """decide binds to 0 the variables of f that its countermodel leaves
    out, and extract_model those of the translation: the two must agree."""
    for f in _bits_pool():
        for sig in Signature:
            assert variables(translate(f, sig)) == variables(f), (render(f), sig)


def test_native_formulas_skip_translation(monkeypatch):
    pool = list(_bits_pool())

    def refuse(*args, **kwargs):
        raise AssertionError("folded")

    monkeypatch.setattr(syntax, "_fold", refuse)
    native = 0
    for f in pool:
        for sig in Signature:
            if in_signature(f, sig):
                assert translate(f, sig) is f
                native += 1
            else:
                with pytest.raises(AssertionError, match="folded"):
                    translate(f, sig)
    assert native > len(pool) // 2


def test_instantiator_agrees_with_match_and_instantiate():
    rng = random.Random(5151)
    pairs = [("a > b", "~a"), ("~(a > b)", "a > b"), ("~[]a", "[]a"), ("~~a", "a"),
             ("a | ~[]a", "~[]a"), ("a & b", "~(b | a)"), ("a", "a"), ("[]a", "bot > top")]
    for pattern, template in pairs:
        pattern, template = parse(pattern), parse(template)
        build = instantiator(pattern, template)
        for _ in range(25):
            bound = {name: random_formula(rng, depth=2) for name in ("a", "b")}
            f = instantiate(pattern, bound)
            binding = {}
            assert match(pattern, f, binding)
            assert build(f) == instantiate(template, binding), (pattern, template, f)
    # a template that is a subpattern is read off the instance, not rebuilt
    f = parse("~[](p & q)")
    assert instantiator(parse("~[]a"), parse("[]a"))(f) is f.body


# --- interning -------------------------------------------------------------


def test_equal_formulas_are_one_object():
    assert Var("p") is Var("p")
    assert Neg(p) is Neg(Var("p"))
    assert Succ(p, q) is not Succ(q, p)
    assert Bot() is BOT and Top() is TOP
    rng = random.Random(707)
    for _ in range(200):
        f = random_formula(rng, depth=5)
        assert parse(render(f)) is f


def test_translate_and_instantiate_return_the_interned_node():
    rng = random.Random(708)
    for _ in range(100):
        f = random_formula(rng, depth=4)
        for sig in (Signature.FULL, Signature.SUCC):
            assert translate(f, sig) is translate(parse(render(f)), sig)
    assert translate(parse("[]p"), Signature.SUCC) is parse("~(p > ~p)")
    pattern = parse("~(a > b)")
    assert instantiate(pattern, {"a": p, "b": Neg(q)}) is parse("~(p > ~q)")
    assert instantiator(pattern, parse("b > a"))(parse("~(p > ~q)")) is parse("~q > p")


def test_copies_and_pickles_return_the_interned_node():
    f = parse("[](p & ~q) > <>r | bot & top")
    for g in (f, p, BOT):
        assert copy.copy(g) is g
        assert copy.deepcopy(g) is g
        assert copy.deepcopy([g])[0] is g
        assert pickle.loads(pickle.dumps(g)) is g
    assert repr(Neg(p)) == "Neg(body=Var(name='p'))"
    assert repr(BOT) == "Bot()"


def test_formulas_are_immutable():
    f = parse("p & q")
    with pytest.raises(AttributeError):
        f.left = q
    with pytest.raises(AttributeError):
        p.name = "q"
    with pytest.raises(AttributeError):
        del f.right


def test_the_table_lets_go_of_unused_nodes():
    gc.collect()
    before = len(hashcons.TABLE)
    f = parse(" & ".join(f"fresh{i} > ~fresh{i}" for i in range(50)))
    nodes = [weakref.ref(g) for g in subformulas(f)]
    assert len(hashcons.TABLE) == before + len(nodes)
    del f
    gc.collect()
    assert all(ref() is None for ref in nodes)
    assert len(hashcons.TABLE) == before
    assert not any(key[0] is Var and key[1].startswith("fresh") for key in hashcons.TABLE)


def test_deep_formulas_hash_and_compare_without_recursion():
    # Built through the constructors, far deeper than parse() accepts.
    def chain():
        f = p
        for _ in range(1000):
            f = And(f, q)
        return f

    f, g = chain(), chain()
    assert f == g and f is g
    assert g in {f}
    assert hash(f) == hash(g)


def _counted(table, limit):
    """table with each step counting its calls, failing past limit calls,
    and the list the calls are counted in."""
    calls = []

    def count(step):
        def counted(*args):
            calls.append(step)
            if len(calls) > limit:
                raise AssertionError(f"more than {limit} steps")
            return step(*args)
        return counted
    return {kind: count(step) for kind, step in table.items()}, calls


@pytest.mark.parametrize("text,target,nodes", [
    ("[]" * 40 + "p", Signature.SUCC, 121),  # []a becomes ~(a > ~a): 3 nodes a box
    (" > ".join(["p"] * 7), Signature.FULL, 75),
])
def test_each_distinct_node_is_walked_once(monkeypatch, text, target, nodes):
    # Translations share subterms: as trees, these have about 2**42 and
    # 34,126 nodes.  Only counts are asserted, since a failing assert would
    # print the formulas.
    f = parse(text)
    sources = len(list(subformulas(f)))
    table, calls = _counted(syntax._TRANSLATIONS[target], sources)
    monkeypatch.setitem(syntax._TRANSLATIONS, target, table)
    g = translate(f, target)
    folded = len(calls)
    assert folded == sources
    walked = list(itertools.islice(subformulas(g), nodes + 1))
    yielded, distinct = len(walked), len(set(walked))
    assert yielded == distinct == nodes
    ok = in_signature(g, target) and variables(g) == {"p"}
    assert ok
    every_kind = syntax._ATOMS | syntax._UNARY | syntax._BINARY
    table, calls = _counted(dict.fromkeys(every_kind, lambda *a: 0), nodes)
    syntax._fold(g, table)
    folded = len(calls)
    assert folded == nodes
