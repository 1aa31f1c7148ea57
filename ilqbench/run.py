#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 ilqbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 ilqbench/run.py --self-test

Run from the root of a source checkout. The first call builds the library
(Release, tests/benches/examples off) and installs it into a private prefix,
then builds ilqbench against the installed ilq::ilq package; later calls
rebuild only when a source file changed. Build output, span files and
scratch files live under $CARGO_TARGET_DIR (default .bench_build). The last
line of standard output is the benchmark's JSON result.
"""

import fcntl
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


def build_dir() -> Path:
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def source_stamp() -> str:
    """Hash of every build input's path, size and mtime."""
    h = hashlib.sha256()
    inputs = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", ROOT / "cmake", BENCH):
        inputs += sorted(p for p in top.rglob("*") if p.is_file())
    for p in inputs:
        st = p.stat()
        h.update(f"{p.relative_to(ROOT)}:{st.st_size}:{st.st_mtime_ns}\n".encode())
    return h.hexdigest()


def run_step(cmd, log) -> None:
    log.write(f"$ {' '.join(str(c) for c in cmd)}\n")
    log.flush()
    subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, check=True)


def ensure_built(out: Path) -> Path:
    binary = out / "bench" / "ilqbench"
    stamp_file = out / "stamp"
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        stamp = source_stamp()
        if binary.exists() and stamp_file.exists() and stamp_file.read_text() == stamp:
            return binary
        jobs = str(os.cpu_count() or 1)
        prefix = out / "prefix"
        log_path = out / "build.log"
        with open(log_path, "w") as log:
            try:
                run_step(["cmake", "-S", ROOT, "-B", out / "lib",
                          "-DCMAKE_BUILD_TYPE=Release", "-DILQ_BUILD_TESTS=OFF",
                          "-DILQ_BUILD_BENCHMARKS=OFF", "-DILQ_BUILD_EXAMPLES=OFF",
                          "-DBUILD_TESTING=OFF", f"-DCMAKE_INSTALL_PREFIX={prefix}"], log)
                run_step(["cmake", "--build", out / "lib", "-j", jobs], log)
                run_step(["cmake", "--install", out / "lib"], log)
                run_step(["cmake", "-S", BENCH, "-B", out / "bench",
                          "-DCMAKE_BUILD_TYPE=Release",
                          f"-DCMAKE_PREFIX_PATH={prefix}"], log)
                run_step(["cmake", "--build", out / "bench", "-j", jobs], log)
            except (subprocess.CalledProcessError, OSError) as e:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                sys.stderr.write("\n".join(tail) + f"\nilqbench build failed: {e}\n")
                sys.exit(2)
        stamp_file.write_text(stamp)
        return binary


def main() -> int:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.stderr.write(f"ilqbench: {ROOT} is not a source checkout "
                         "(no CMakeLists.txt and src/)\n")
        return 2
    out = build_dir()
    binary = ensure_built(out)
    args = sys.argv[1:]
    if "--self-test" not in args:
        for sub in ("spans", "work"):
            (out / sub).mkdir(parents=True, exist_ok=True)
        args += ["--out-dir", str(out / "spans"), "--work-dir", str(out / "work")]
    sys.stdout.flush()
    return subprocess.run([str(binary)] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
