#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <olap|olap_spill|oltp> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. The binary is built with cargo
into $CARGO_TARGET_DIR (default: perfbench/target). Temp files of the
build and the run (spill files, the write-ahead log) go to
perfbench/out/tmp, and a traced
run writes its spans to perfbench/out/spans-<workload>.jsonl. The last
line of standard output is the result as one JSON object; the exit code
is the benchmark's (non-zero when a check failed or it could not run).
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The benchmark is killed after this many seconds, build excluded.
RUN_TIMEOUT_S = 170


def flag(args, name):
    """The value after `name` in `args`, or None."""
    for i, a in enumerate(args[:-1]):
        if a == name:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    # Cargo resolves a relative target directory against the working
    # directory, and so does this script.
    target = Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target")).absolute()
    tmp = HERE / "out" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # The library reads RCALCITE_TEST_* (worker count, memory budget,
    # crash injection) as test overrides; the workloads are defined
    # without them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RCALCITE_TEST_")}
    env["TMPDIR"] = str(tmp)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    cmd = [str(target / "release" / "perfbench"), *args]
    if flag(args, "--trace") == "1":
        cmd += ["--spans", str(HERE / "out" / f"spans-{flag(args, '--workload')}.jsonl")]
    try:
        proc = subprocess.run(cmd, env=env,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
