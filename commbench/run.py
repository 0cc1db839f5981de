#!/usr/bin/env python3
"""Build the CommScope benchmark from source and run one workload.

    python3 commbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run configures and builds a
Release binary under .bench_build/commbench (the library from src/ plus the
benchmark binary in commbench/src); later runs only rebuild what changed. Build output
goes to standard error, so the last line of standard output is the binary's
JSON result. Extra arguments (--smoke, --inject <kind>) are passed through
to the binary; the benchmark's own tests use them.
"""
import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "commbench"
WORKLOADS = ("live-plain", "live-features", "live-checkpoint", "serve-ship")


def git(*args):
    """Standard output of a git command at the root, or None."""
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout if out.returncode == 0 else None


def source_digest():
    """A digest of every file under src/ and commbench/."""
    digest = hashlib.sha256()
    for top in ("src", "commbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def source_id():
    """The git commit, plus a source digest when src/ or commbench/ differ
    from it; just the digest outside a git repository."""
    head = (git("rev-parse", "HEAD") or "").strip()
    if not head:
        return source_digest()
    dirty = git("status", "--porcelain", "--", "src", "commbench")
    if dirty is None or dirty.strip():
        return f"git:{head}+dirty {source_digest()}"
    return "git:" + head


def build():
    """Configure (once) and build the binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "commbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return BUILD / "commbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args, extra = parser.parse_known_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        print("commbench: no library sources at src/; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"commbench: build failed: {e}", file=sys.stderr)
        return 2

    env = dict(os.environ, COMMBENCH_SOURCE=source_id())
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace] + extra
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
