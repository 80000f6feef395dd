"""Benchmark entry point: runs workloads of the tml toolkit, each in its own
fresh interpreter, and prints each one's result as a JSON line.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run it from the root of a source checkout (the directory holding src/tml).
With --trace 0 the result holds the end-to-end metrics, with --trace 1 the
per-layer metrics of a separate traced run.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("decide", "oracle", "nd-normalize", "cli")
HASH_SEED = "0"
# A worker that runs longer than this is stopped and the run fails.
WORKER_TIMEOUT_S = 170

WARM = "import tml.cli"


def child_env():
    """The environment of every timed process: fixed hash seed, the
    package from this checkout, and a bytecode cache the benchmark owns
    (the caller's environment may forbid writing bytecode, which would make
    every fresh `import tml` compile from source)."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "tml", "__init__.py")):
        print(f"no tml sources under {ROOT}; run from a source checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = child_env()
    # Fill the bytecode cache before anything is timed.
    subprocess.run([sys.executable, "-c", WARM], cwd=ROOT, env=env, check=True)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "--help"],
                   cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)

    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                  text=True, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"{name}: worker timed out", file=sys.stderr)
            return 1
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: worker failed with status {done.returncode}", file=sys.stderr)
            return 1
        for line in lines[:-1]:
            print(line)
        print(json.dumps(json.loads(lines[-1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
