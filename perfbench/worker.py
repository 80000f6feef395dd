"""One workload in one fresh interpreter.

run.py starts this file with a controlled environment (see README.md) and
relays its output.  The last line printed is the result object.

    python3 perfbench/worker.py --workload decide --seed 1 --seconds 20 --trace 0

Load is a closed loop: one caller, one thread, each input sent when the
previous one has finished.  Every output is checked against ref.py.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")

import drift  # noqa: E402
import gen  # noqa: E402
import ref  # noqa: E402
import spans  # noqa: E402

IMPORT_REPEATS = 5
PARSE_REPEATS = 3
# Fresh interpreters start without the site module: tml needs nothing from
# site-packages, and a site hook of the build machine's environment imported
# certifi, 60-80 ms of start-up that is no part of tml.
FRESH_PYTHON = [sys.executable, "-S"]

IMPORT_PROBE = """
import sys, time
sys.path.insert(0, {here!r})
import drift
s0, e0 = drift.reference_loop()
t0 = time.perf_counter()
import {module}
t1 = time.perf_counter()
s1, e1 = drift.reference_loop()
print((t1 - t0) * drift.NOMINAL_S / ((e0 - s0 + e1 - s1) / 2))
"""


def import_seconds(module):
    """Median corrected time of `import module` in fresh interpreters."""
    code = IMPORT_PROBE.format(here=HERE, module=module)
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(FRESH_PYTHON + ["-c", code], cwd=ROOT, check=True,
                              capture_output=True, text=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def percentile(values, p):
    """Nearest-rank percentile, p in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


# --- workloads -----------------------------------------------------------------
#
# A workload makes rounds of records from the seed, turns each record's text
# into program objects (the timed set-up), runs one operation per item and
# checks its output.  check() returns None or a description of what is
# wrong.


class Decide:
    name = "decide"
    tail = 99
    min_rounds = 2
    corpus_rounds = 10

    def generate(self, seed):
        rounds = []
        for r in range(self.corpus_rounds):
            rounds.append([
                {"text": ref.render(f), "system": system, "formula": f,
                 "valid": ref.first_countermodel(f) is None}
                for f, system in gen.decide_round(seed, r)
            ])
        return rounds

    def prepare(self, tml, record, parse):
        return (parse(record["text"]), tml.Signature(record["system"]), record)

    def run(self, tml, item):
        verdict = tml.decide(item[0], item[1])
        if isinstance(verdict, tml.Proved):
            return True, None
        return False, dict(verdict.model)

    def traced(self, tml, tracer, item):
        verdict = spans.traced_decide(tracer, tml, item[0], item[1])
        if isinstance(verdict, tml.Proved):
            return True, None
        return False, dict(verdict.model)

    def check(self, tml, item, out):
        record = item[2]
        proved, model = out
        if proved != record["valid"]:
            return f"{record['text']} in {record['system']}: proved={proved}, reference valid={record['valid']}"
        if not proved:
            f = record["formula"]
            if not ref.variables(f) <= set(model):
                return f"{record['text']}: countermodel {model} misses variables"
            if ref.value(f, {n: model[n] for n in ref.variables(f)}) == "1":
                return f"{record['text']}: countermodel {model} gives the value 1"
        return None


class Oracle:
    name = "oracle"
    tail = 99
    min_rounds = 5
    corpus_rounds = 30

    def generate(self, seed):
        rounds = []
        for r in range(self.corpus_rounds):
            records = []
            for kind, payload in gen.oracle_round(seed, r):
                if kind == "consequence":
                    premises, conclusion = payload
                    expected = ref.first_consequence_countermodel(premises, conclusion)
                    formulas = premises + [conclusion]
                else:
                    expected = ref.first_countermodel(payload)
                    formulas = [payload]
                records.append({"kind": kind, "texts": [ref.render(f) for f in formulas],
                                "expected": expected})
            rounds.append(records)
        return rounds

    def prepare(self, tml, record, parse):
        return ([parse(t) for t in record["texts"]], record)

    def run(self, tml, item):
        formulas, record = item
        if record["kind"] == "countermodel":
            return tml.countermodel(formulas[0])
        if record["kind"] == "valid":
            return tml.valid(formulas[0])
        return tml.consequence_countermodel(formulas[:-1], formulas[-1])

    def traced(self, tml, tracer, item):
        name = "semantics.consequence" if item[1]["kind"] == "consequence" else "semantics.countermodel"
        with tracer.span(name):
            return self.run(tml, item)

    def check(self, tml, item, out):
        record = item[1]
        if record["kind"] == "valid":
            ok = out is True and record["expected"] is None
        else:
            ok = out == record["expected"]
        if not ok:
            return f"{record['kind']} {record['texts']}: got {out}, reference {record['expected']}"
        return None


class Normalize:
    name = "nd-normalize"
    tail = 99
    min_rounds = 50
    corpus_rounds = 25

    def generate(self, seed):
        rounds = []
        for r in range(self.corpus_rounds):
            records = []
            for proof, redexes in gen.nd_round(seed, r):
                records.append({
                    "text": json.dumps(proof), "redexes": redexes,
                    "conclusion": ref.conclusion(proof),
                    "opens": ref.open_assumptions(proof),
                })
            rounds.append(records)
        return rounds

    def prepare(self, tml, record, parse):
        return (tml.nd.from_json(json.loads(record["text"])), record)

    def run(self, tml, item):
        events = []
        result = tml.nd.normalize(item[0], observer=events.append)
        return tml.nd.to_json(result), [e["measure"] for e in events]

    def traced(self, tml, tracer, item):
        events = []
        with tracer.span("nd.normalize"):
            result = tml.nd.normalize(item[0], observer=events.append)
        with tracer.span("nd.to_json"):
            out = tml.nd.to_json(result)
        tracer.count("nd.steps", len(events))
        tracer.count("nd.proof_nodes_in", spans.proof_nodes(item[0]))
        tracer.count("nd.proof_nodes_out", spans.proof_nodes(result))
        return out, [e["measure"] for e in events]

    def check(self, tml, item, out):
        record = item[1]
        proof, measures = out
        return normalized_problem(tml, proof, record["conclusion"], record["opens"], measures)


def normalized_problem(tml, proof, conclusion, opens, measures):
    """What is wrong with a normalizer output, or None."""
    try:
        tml.nd.check(tml.nd.from_json(proof))
    except (tml.nd.SchemaError, tml.nd.DischargeError) as e:
        return f"output fails check: {e}"
    if ref.conclusion(proof) != conclusion:
        return "conclusion changed"
    out_opens = ref.open_assumptions(proof)
    if not out_opens <= opens:
        return "open assumptions grew"
    if ref.has_cut(proof):
        return "a cut is left"
    if ref.compound_bot_elims(proof):
        return "a BotE with a compound conclusion is left"
    if measures is not None and any(b >= a for a, b in zip(measures, measures[1:])):
        return f"measures do not fall strictly: {measures}"
    if ref.first_consequence_countermodel(sorted(out_opens), conclusion) is not None:
        return "judgement is unsound"
    return None


# --- the command line workload ---------------------------------------------------


class Cli:
    """Fresh `python -m tml.cli` processes.  Their wall times are corrected
    against a bare child interpreter as reference (see drift.py)."""

    name = "cli"
    tail = 90
    min_rounds = 3
    corpus_rounds = 1

    def generate(self, seed):
        cases = gen.cli_cases(seed)
        folder = os.path.join(os.path.basename(OUT), f"cli-{seed}")  # relative to ROOT
        os.makedirs(os.path.join(ROOT, folder), exist_ok=True)
        for i, case in enumerate(cases):
            formulas = [case[k] for k in ("formula", "conclusion") if k in case]
            case["texts"] = [ref.render(f) for f in formulas + case.get("premises", [])]
            if "proof" in case:
                path = os.path.join(folder, f"proof{i}.json")
                with open(os.path.join(ROOT, path), "w", encoding="utf-8") as fh:
                    json.dump(case["proof"], fh)
                case["argv"] = [path if a == "{file}" else a for a in case["argv"]]
        return [cases]

    def prepare(self, tml, case, parse):
        for text in case["texts"]:
            parse(text)
        if "proof" in case and case["kind"] != "crash":
            tml.nd.from_json(case["proof"])
        return case

    def run(self, tml, case):
        """One fresh `python -m tml.cli` process; returns its exit status,
        output and peak RSS in KiB."""
        folder = os.path.join(OUT, "cli-io")
        os.makedirs(folder, exist_ok=True)
        out_path = os.path.join(folder, "stdout")
        err_path = os.path.join(folder, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(FRESH_PYTHON + ["-m", "tml.cli"] + case["argv"],
                                    cwd=ROOT, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8") as fh:
            stderr = fh.read()
        return proc.returncode, stdout, stderr, usage.ru_maxrss

    def in_process(self, tml, case):
        """main(argv) in this process, output captured."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = tml.cli.main(list(case["argv"]))
            except Exception:  # a crash is what the case observes
                traceback.print_exc()
                code = 1
        return code, stdout.getvalue(), stderr.getvalue(), 0

    def traced(self, tml, tracer, case):
        with tracer.span("cli.main"):
            return self.in_process(tml, case)

    @staticmethod
    def crashed(case, out):
        """A case the program should reject with status 2 that crashes
        with status 1 and a traceback instead."""
        code, _, stderr, _ = out
        return case["kind"] == "crash" and code == 1 and "Traceback" in stderr

    def check(self, tml, case, out):
        return cli_problem(tml, case, out)


def _model(text):
    return dict(part.split("=") for part in text.split())


def _same_function(f, g):
    names = ref.variables(f) | ref.variables(g)
    space = ref.Space(names)
    return space.eval(f) == space.eval(g)


def cli_problem(tml, case, out):
    """What is wrong with one command's exit status and output, or None."""
    code, stdout, stderr, _ = out
    kind = case["kind"]
    lines = stdout.splitlines()
    want_json = "--json" in case["argv"]
    data = json.loads(stdout) if want_json and code in (0, 1) and stdout else None
    if "Traceback" in stderr and kind != "crash":
        return f"{case['argv'][:3]}: traceback"
    if kind == "crash" and Cli.crashed(case, out):
        return None  # the known fault: counted as failed, not as wrong
    if kind in ("usage", "crash"):
        return None if code == 2 else f"{case['argv'][:2]}: exit {code}"
    if kind == "parse":
        text = data["formula"] if data else stdout
        if code or not _same_function(ref.parse(text), case["formula"]):
            return f"parse {case['argv'][1]}: {stdout!r}"
        return None
    if kind == "table":
        return None if code == 0 and _table_ok(case["connective"], stdout, data) else f"table {case['connective']}"
    if kind == "eval":
        want = ref.value(case["formula"], case["assign"])
        return None if code == 0 and stdout.strip() == want else f"eval {case['argv'][1]}"
    if kind == "eval-all":
        f = case["formula"]
        names = sorted(ref.variables(f))
        space = ref.Space(names)
        rows = [line.split("->") for line in lines]
        if code or len(rows) != space.size:
            return f"eval {case['argv'][1]}: {len(rows)} rows"
        for i, row in enumerate(rows):
            h = space.valuation(i)
            if names and _model(row[0]) != h:
                return f"eval {case['argv'][1]}: row {i} is {row[0]!r}"
            if row[-1].strip() != ref.value(f, h):
                return f"eval {case['argv'][1]}: row {i} value"
        return None
    if kind in ("valid", "countermodel"):
        want = ref.first_countermodel(case["formula"])
        if want is None:
            ok = code == 0 and (data["verdict"] == "valid" if data else stdout.strip() == "VALID")
        elif data:
            ok = code == 1 and data["countermodel"] == want
        else:
            shown = stdout.split("countermodel:")[-1] if kind == "valid" else stdout
            ok = code == 1 and _model(shown) == want
        return None if ok else f"{kind} {case['argv'][1]}: exit {code} {stdout!r}"
    if kind == "consequence":
        want = ref.first_consequence_countermodel(case["premises"], case["conclusion"])
        if want is None:
            ok = code == 0 and stdout.strip() == "HOLDS"
        else:
            ok = code == 1 and _model(stdout.split("countermodel:")[-1]) == want
        return None if ok else f"consequence {case['argv'][1:]}: {stdout!r}"
    if kind == "prove":
        f = case["formula"]
        valid = ref.first_countermodel(f) is None
        if data:
            verdict, model = data["verdict"], data.get("countermodel")
        else:
            verdict = lines[0].split()[0].lower()
            model = _model(lines[0].split("countermodel:")[-1]) if verdict == "refuted" else None
        if valid:
            ok = code == 0 and verdict == "proved"
        else:
            names = ref.variables(f)
            ok = (code == 1 and verdict == "refuted" and names <= set(model)
                  and ref.value(f, {n: model[n] for n in names}) != "1")
        if ok and "--emit-tableau" in case["argv"] and len(lines) < 2:
            ok = False
        return None if ok else f"prove {case['argv'][1:]}: {stdout[:200]!r}"
    if kind == "translate":
        g = ref.parse(stdout)
        allowed = ({"var", "bot", "neg", "succ"} if case["target"] == "succ"
                   else {"var", "bot", "top", "neg", "box", "and", "or"})
        ok = code == 0 and ref.connectives(g) <= allowed and _same_function(g, case["formula"])
        return None if ok else f"translate {case['argv'][1:]}: {stdout!r}"
    if kind == "nd-check":
        proof = case["proof"]
        first = lines[0] if lines else ""
        context, _, concl = first[4:].partition("|- ")
        opens = {ref.parse(t) for t in context.split(", ") if t.strip()}
        normal = "yes" if not ref.has_cut(proof) else "no"
        ok = (code == 0 and first.startswith("OK")
              and ref.parse(concl) == ref.conclusion(proof)
              and opens == ref.open_assumptions(proof)
              and lines[1:] == [f"normal: {normal}"])
        return None if ok else f"nd-check: {stdout!r}"
    if kind == "nd-normalize":
        proof = case["proof"]
        result = data["proof"] if data else json.loads(stdout)
        problem = normalized_problem(tml, result, ref.conclusion(proof),
                                     ref.open_assumptions(proof), None)
        return None if code == 0 and problem is None else f"nd-normalize: {problem}"
    if kind == "identities":
        held, _, total = lines[-1].split()[0].partition("/") if lines else ("", "", "")
        ok = code == 0 and held == total and int(total) > 0
        return None if ok else f"identities: {lines[-1:]}"
    return f"unknown case kind {kind}"


def _table_ok(connective, stdout, data):
    op = {"~": "neg", "[]": "box", "<>": "dia", "&": "and", "|": "or", ">": "succ"}.get(
        connective, connective)
    if op in ("bot", "top"):
        want = "0" if op == "bot" else "1"
        return data["table"] == want if data else stdout.strip() == f"{op} = {want}"
    table = ref.table(op)
    if data:
        got = data["table"]
        if op in ("neg", "box", "dia"):
            return got == table
        return all(got[a][b] == v for (a, b), v in table.items())
    rows = {}
    for line in stdout.splitlines():
        if "|" in line:
            key, _, cells = line.partition("|")
            rows[key.strip()] = cells.split()
    if op in ("neg", "box", "dia"):
        return all(rows[a] == [v] for a, v in table.items())
    return all(rows[a][ref.VALUES.index(b)] == v for (a, b), v in table.items())


WORKLOADS = {w.name: w for w in (Decide(), Oracle(), Normalize(), Cli())}


# --- passes ------------------------------------------------------------------------


class Pass:
    """Outcome of one closed-loop pass."""

    def __init__(self):
        self.intervals = []  # (start, end) of every attempted operation
        self.outputs = []
        self.failed = 0
        self.problems = []
        self.rounds = 0
        self.rss_kib = 0


def run_pass(wl, tml, items, clock, seconds, min_rounds, op, keep=False, check=True):
    """Whole rounds of items until `seconds` have passed and at least
    min_rounds are done.  Each output is checked (outside the timed
    interval) unless check is false; dropping the output of an operation
    happens inside its interval."""
    result = Pass()
    gc.collect()
    start = time.perf_counter()
    while result.rounds < min_rounds or time.perf_counter() - start < seconds:
        for item in items[result.rounds % len(items)]:
            clock.tick()
            t0 = time.perf_counter()
            try:
                out = op(item)
            except Exception:  # counted as failed; the run goes on
                t1 = time.perf_counter()
                result.intervals.append((t0, t1))
                result.failed += 1
                traceback.print_exc(file=sys.stderr)
                if keep:
                    result.outputs.append(None)
                continue
            t1 = time.perf_counter()
            result.intervals.append((t0, t1))
            if wl.name == "cli":
                result.rss_kib = max(result.rss_kib, out[3])
                if wl.crashed(item, out):
                    result.failed += 1
            problem = wl.check(tml, item, out) if check else None
            if problem:
                result.problems.append(problem)
            if keep:
                result.outputs.append(out)
            del out
        result.rounds += 1
    clock.finish()
    return result


def setup(wl, tml_loader, rounds, clock):
    """Import time of tml (fresh interpreters) plus the median time to turn
    every record's text into program objects.  Returns (seconds, items)."""
    imported = import_seconds("tml")
    tml = tml_loader()
    parse_times = []
    for _ in range(PARSE_REPEATS):
        gc.collect()
        total = 0.0
        items = []
        for records in rounds:
            clock.tick()
            t0 = time.perf_counter()
            items.append([wl.prepare(tml, record, tml.parse) for record in records])
            t1 = time.perf_counter()
            total += clock.correct(t0, t1)
        parse_times.append(total)
    return imported + statistics.median(parse_times), items


def traced_setup(wl, tml, rounds, tracer):
    """One more set-up with spans around parse and from_json."""
    parse = spans.traced_parse(tracer, tml.parse)
    with spans.patched((tml.nd, "parse", parse),
                       (tml.nd, "from_json", tracer.wrap("nd.from_json", tml.nd.from_json))):
        for records in rounds:
            for record in records:
                wl.prepare(tml, record, parse)


def end_to_end(wl, clock, result, setup_s, rss_kib):
    times = [clock.correct(t0, t1) for t0, t1 in result.intervals]
    return {
        "throughput": {"value": len(times) / sum(times), "unit": "1/s"},
        "latency_p50_ms": {"value": 1e3 * statistics.median(times), "unit": "ms"},
        "latency_tail_ms": {"value": 1e3 * percentile(times, wl.tail), "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_kib / 1024, "unit": "MB"},
    }


def probe_interpreter():
    """Median wall time of a bare fresh interpreter, uncorrected: it is the
    reference the cli workload corrects by."""
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(FRESH_PYTHON + ["-c", "pass"], cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    rounds = wl.generate(args.seed)
    print(json.dumps({"workload": wl.name, "seed": args.seed,
                      "inputs_digest": gen.digest(rounds),
                      "items_per_round": len(rounds[0]), "corpus_rounds": len(rounds)}))
    clock = drift.Clock()

    def load():
        import tml
        import tml.cli
        return tml

    setup_s, items = setup(wl, load, rounds, clock)
    tml = load()

    op = lambda item: wl.run(tml, item)  # noqa: E731

    if not args.trace:
        if wl.name == "cli":
            clock = drift.Clock(drift.spawn_reference(FRESH_PYTHON + ["-c", "pass"]),
                                drift.NOMINAL_SPAWN_S, drift.SPAWN_INTERVAL_S)
        result = run_pass(wl, tml, items, clock, args.seconds, wl.min_rounds, op)
        rss = result.rss_kib if wl.name == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = end_to_end(wl, clock, result, setup_s, rss)
    else:
        tracer = spans.Tracer(clock)
        traced_setup(wl, tml, rounds, tracer)
        cli_probe = None
        if wl.name == "cli":
            op = lambda case: wl.in_process(tml, case)  # noqa: E731
            cli_probe = {"interpreter_s": probe_interpreter(),
                         "import_s": import_seconds("tml.cli")}
        plain = run_pass(wl, tml, items, clock, args.seconds / 2, wl.min_rounds, op, keep=True)
        result = trace_pass(wl, tml, items, clock, tracer, plain.rounds)
        result.problems = plain.problems
        # The traced path must answer exactly as the plain one (for the
        # command line: the same status and output).
        same = (lambda o: o[:2]) if wl.name == "cli" else (lambda o: o)
        for i, (a, b) in enumerate(zip(plain.outputs, result.outputs)):
            if a is not None and same(a) != same(b):
                result.problems.append(f"traced output differs on item {i}: {same(a)} vs {same(b)}")
        base = sum(clock.correct(*iv) for iv in plain.intervals)
        traced = sum(clock.correct(*iv) for iv in result.intervals)
        overhead = 100 * (traced / base - 1)
        metrics = spans.layer_metrics(tracer, len(result.intervals), overhead, cli_probe)

    raw = [t1 - t0 for t0, t1 in result.intervals]
    print(json.dumps({"uncorrected": {
        "throughput": len(raw) / sum(raw),
        "latency_p50_ms": 1e3 * statistics.median(raw),
        "latency_tail_ms": 1e3 * percentile(raw, wl.tail),
    }, "reference_loop_ms": 1e3 * statistics.median(d for _, d in clock.samples),
        "rounds": result.rounds}))
    for problem in result.problems[:20]:
        print(f"WRONG: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not result.problems,
        "attempted": len(result.intervals),
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


def trace_pass(wl, tml, items, clock, tracer, rounds):
    """The same rounds again, through the traced paths."""
    parse = spans.traced_parse(tracer, tml.parse)

    def decide(f, system, derived=False, rng=None):
        return spans.traced_decide(tracer, tml, f, system, derived=derived, rng=rng)

    swaps = [
        (tml.semantics, "valuations", spans.counting_valuations(tracer, tml.semantics.valuations)),
        (tml.nd, "analyze", tracer.wrap("nd.analyze", tml.nd.analyze)),
        (tml.nd, "parse", parse),
    ]
    if wl.name == "cli":
        swaps += [
            (tml.cli, "parse", parse),
            (tml.cli, "decide", decide),
            (tml.cli, "countermodel", tracer.wrap("semantics.countermodel", tml.cli.countermodel)),
            (tml.cli, "consequence_countermodel",
             tracer.wrap("semantics.consequence", tml.cli.consequence_countermodel)),
            (tml.nd, "from_json", tracer.wrap("nd.from_json", tml.nd.from_json)),
            (tml.nd, "normalize", tracer.wrap("nd.normalize", tml.nd.normalize)),
            (tml.nd, "to_json", tracer.wrap("nd.to_json", tml.nd.to_json)),
        ]

    def op(item):
        tracer.item = id(item)
        return wl.traced(tml, tracer, item)

    with spans.patched(*swaps), tracer.collecting():
        return run_pass(wl, tml, items, clock, 0, rounds, op, keep=True, check=False)


if __name__ == "__main__":
    sys.exit(main())
