"""Tests of the benchmark's own reference and checks.

    python3 -m pytest perfbench/test_perfbench.py

The reference evaluator is tied to the connective tables printed in the
package README, and every correctness check must reject a corrupted verdict,
countermodel or proof.
"""

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import gen  # noqa: E402
import ref  # noqa: E402
import worker  # noqa: E402
from worker import Decide, Normalize, Oracle, cli_problem  # noqa: E402

import tml  # noqa: E402

# The succ table as the README prints it (`tml table succ`), rows first.
README_SUCC = """
succ | 0  n  b  1
-----------------
   0 | 1  1  1  1
   n | n  1  b  1
   b | b  n  1  1
   1 | 0  n  b  1
"""

# The README's prose: 0 < n < 1 and 0 < b < 1 with n, b incomparable;
# negation swaps 0 and 1 and fixes n and b; box sends all but 1 to 0.
ORDER = {(a, a) for a in ref.VALUES} | {("0", "n"), ("0", "b"), ("0", "1"), ("n", "1"), ("b", "1")}


def _bound(a, b, lower):
    candidates = [c for c in ref.VALUES
                  if ((c, a) in ORDER and (c, b) in ORDER if lower else (a, c) in ORDER and (b, c) in ORDER)]
    for c in candidates:
        if all(((d, c) in ORDER) if lower else ((c, d) in ORDER) for d in candidates):
            return c
    raise AssertionError((a, b))


def test_reference_matches_readme_tables():
    rows = [line.split("|") for line in README_SUCC.strip().splitlines()[2:]]
    succ = {(row.strip(), b): cell for row, cells in rows
            for b, cell in zip(ref.VALUES, cells.split())}
    assert ref.table("succ") == succ
    assert ref.table("neg") == {"0": "1", "n": "n", "b": "b", "1": "0"}
    assert ref.table("box") == {"0": "0", "n": "0", "b": "0", "1": "1"}
    assert ref.table("dia") == {v: ref.table("neg")[ref.table("box")[ref.table("neg")[v]]]
                                for v in ref.VALUES}
    for a in ref.VALUES:
        for b in ref.VALUES:
            assert ref.table("and")[(a, b)] == _bound(a, b, lower=True)
            assert ref.table("or")[(a, b)] == _bound(a, b, lower=False)


def test_enumeration_order_and_first_countermodel():
    space = ref.Space(["q", "p"])
    order = [space.valuation(i) for i in range(space.size)]
    assert order[:3] == [{"p": "0", "q": "0"}, {"p": "0", "q": "n"}, {"p": "0", "q": "b"}]
    assert order[4] == {"p": "n", "q": "0"}
    assert ref.first_countermodel(ref.parse("[]<>p > <>[]p")) == {"p": "n"}
    assert ref.first_countermodel(ref.parse("p | ~[]p")) is None
    assert ref.first_consequence_countermodel([ref.parse("p & q")], ref.parse("p")) is None


def test_parse_render_round_trip():
    rng = gen.stream(0, "test")
    for _ in range(200):
        f = gen.formula(rng, gen.NAMES, 4, gen.MIXED_OPS, ("bot", "top"))
        assert ref.parse(ref.render(f)) == f


def _decide_item(text, system):
    f = ref.parse(text)
    record = {"text": text, "system": system, "formula": f,
              "valid": ref.first_countermodel(f) is None}
    return (tml.parse(text), tml.Signature(system), record)


def test_decide_check_rejects_corruption():
    wl = Decide()
    item = _decide_item("[]<>p > <>[]p", "full")
    out = wl.run(tml, item)
    assert wl.check(tml, item, out) is None
    assert wl.check(tml, item, (True, None)) is not None
    assert wl.check(tml, item, (False, {"p": "1"})) is not None
    assert wl.check(tml, item, (False, {})) is not None
    valid = _decide_item("p | ~[]p", "succ")
    assert wl.check(tml, valid, wl.run(tml, valid)) is None
    assert wl.check(tml, valid, (False, {"p": "0"})) is not None


def test_oracle_check_rejects_corruption():
    wl = Oracle()
    record = {"kind": "countermodel", "texts": ["p > q"],
              "expected": ref.first_countermodel(ref.parse("p > q"))}
    item = ([tml.parse("p > q")], record)
    out = wl.run(tml, item)
    assert wl.check(tml, item, out) is None
    later = dict(out, q="b")
    assert ref.value(ref.parse("p > q"), later) != "1"
    assert wl.check(tml, item, later) is not None
    assert wl.check(tml, item, None) is not None
    valid = ([tml.parse("x | ~[]x")], {"kind": "valid", "texts": ["x | ~[]x"], "expected": None})
    assert wl.check(tml, valid, True) is None
    assert wl.check(tml, valid, False) is not None


def test_normalize_check_rejects_corruption():
    wl = Normalize()
    record = next(r for r in wl.generate(5)[0] if r["redexes"])
    item = wl.prepare(tml, record, tml.parse)
    proof, measures = wl.run(tml, item)
    assert wl.check(tml, item, (proof, measures)) is None
    # Not normalized at all: the input still has its cuts.
    assert wl.check(tml, item, (json.loads(record["text"]), measures)) is not None
    assert wl.check(tml, item, (proof, measures + [measures[-1]])) is not None
    changed = copy.deepcopy(proof)
    changed["conclusion" if "conclusion" in changed else "formula"] = "p & ~p"
    assert wl.check(tml, item, (changed, measures)) is not None
    concl = ref.render(record["conclusion"])
    grown = {"rule": "AndE2", "conclusion": concl, "discharges": [],
             "premises": [{"rule": "Assume", "formula": f"q & {concl}", "marker": None}]}
    assert ref.conclusion(grown) == record["conclusion"]
    assert wl.check(tml, item, (grown, measures)) == "open assumptions grew"


def test_compound_bot_elimination_is_caught():
    falsum = gen.assume(("bot",))
    proof = gen.to_json(gen.bot_e(falsum, ("and", ("var", "p"), ("var", "p"))))
    assert ref.compound_bot_elims(proof)
    assert worker.normalized_problem(tml, proof, ("and", ("var", "p"), ("var", "p")),
                                     {("bot",)}, None) is not None


def test_cli_checks_reject_corruption():
    f = ref.parse("[]<>p > <>[]p")
    case = {"kind": "valid", "argv": ["valid", ref.render(f)], "formula": f}
    assert cli_problem(tml, case, (1, "INVALID  countermodel: p=n\n", "", 0)) is None
    assert cli_problem(tml, case, (1, "INVALID  countermodel: p=b\n", "", 0)) is not None
    assert cli_problem(tml, case, (0, "VALID\n", "", 0)) is not None
    prove = {"kind": "prove", "argv": ["prove", "--system", "full", ref.render(f)], "formula": f}
    assert cli_problem(tml, prove, (1, "REFUTED  countermodel: p=n\n", "", 0)) is None
    assert cli_problem(tml, prove, (1, "REFUTED  countermodel: p=1\n", "", 0)) is not None
    crash = {"kind": "crash", "argv": ["valid", "~" * 1200 + "p"]}
    assert cli_problem(tml, crash, (2, "", "parse error\n", 0)) is None
    today = (1, "", "Traceback (most recent call last):\nRecursionError\n", 0)
    assert worker.Cli.crashed(crash, today) and cli_problem(tml, crash, today) is None
    assert cli_problem(tml, crash, (0, "VALID\n", "", 0)) is not None
    usage = {"kind": "usage", "argv": ["table", "xor"]}
    assert cli_problem(tml, usage, (1, "", "", 0)) is not None
