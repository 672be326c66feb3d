#!/usr/bin/env python3
"""Build and run the output-checked benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload svc_mixed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source tree. The benchmark program is built with
dune into the tree's own _build directory, then run with the given
arguments; its standard output is passed through, and its last line is
the JSON result. The exit code is the program's, or 2 when the build
fails or the program's output has no result line.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170
KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Build the benchmark program; False when the tree cannot build it."""
    dune = ["dune"] if shutil.which("dune") or not shutil.which("opam") else ["opam", "exec", "--", "dune"]
    cmd = dune + ["build", "--root", ".", "--cache=disabled", "--display=quiet",
                  "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0 and os.path.exists(EXE)


def source_fingerprint():
    """The git commit when the tree is a checkout, else a hash of the
    library and benchmark sources."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        try:
            out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", ".c", "dune")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src:" + h.hexdigest()[:12]


def run_exe(args):
    """Run the program; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run([EXE] + args, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(e.stderr or "")
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2, []
    sys.stderr.write(done.stderr)
    return done.returncode, done.stdout.splitlines()


def result_of(lines):
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    return res if isinstance(res, dict) and set(res) == KEYS else None


def self_test():
    """The program's own self-test, then the same checks through this
    script: every BENCHMARK.json metric printed on tiny runs of every
    workload, and a corrupted output turning into a failed run."""
    bench = os.path.join(ROOT, "BENCHMARK.json")
    code, lines = run_exe(["--self-test", bench])
    print("\n".join(lines))
    if code != 0:
        return 1
    with open(bench) as f:
        spec = json.load(f)
    failures = 0
    for w in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_exe(["--workload", w["name"], "--seed", "3", "--seconds", "0",
                                   "--trace", str(trace), "--tiny"])
            res = result_of(lines)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {} if res is None else {k: v["unit"] for k, v in res["metrics"].items()}
            ok = code == 0 and res is not None and res["correct"] and got == want
            failures += not ok
            print(("ok  " if ok else "FAIL") + f" {w['name']} trace {trace}: metrics and units")
    code, lines = run_exe(["--workload", "svc_mixed", "--seconds", "0", "--tiny",
                           "--corrupt", "oracle"])
    res = result_of(lines)
    ok = code != 0 and res is not None and not res["correct"] and res["metrics"] == {}
    failures += not ok
    print(("ok  " if ok else "FAIL") + " corrupted oracle page: exit non-zero, no metrics")
    return 1 if failures else 0


def main():
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    if not build():
        return 2
    argv = sys.argv[1:]
    if argv == ["--self-test"]:
        return self_test()
    code, lines = run_exe(argv + ["--source", source_fingerprint()])
    print("\n".join(lines), flush=True)
    if result_of(lines) is None:
        print("perfbench: no result line", file=sys.stderr)
        return code or 2
    return code


if __name__ == "__main__":
    sys.exit(main())
