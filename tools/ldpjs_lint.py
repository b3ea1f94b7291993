#!/usr/bin/env python3
"""Project lint gate: repo-specific rules clang-tidy cannot express.

Run from anywhere inside the repo:

    python3 tools/ldpjs_lint.py

Exit code 0 means every rule passed; 1 means violations were printed, one
per line, as `path:line: [rule] message`. CI runs this in the
static-analysis job next to clang-tidy; the rules are cheap greps, so run
it locally before pushing.

Rules (each has a short slug used in the output):

  mutex-wrapper   src/ must use the annotated Mutex/MutexLock/CondVar
                  wrappers (src/common/thread_annotations.h) — never raw
                  std::mutex, std::lock_guard, std::unique_lock,
                  std::scoped_lock, or std::condition_variable. The wrapper
                  is what makes Clang Thread Safety Analysis see every
                  lock site; one raw mutex re-opens the blind spot.

  no-sleep        No raw this_thread::sleep_for in src/ outside the two
                  blessed timing primitives (Backoff and Socket's poll
                  helper). Ad-hoc sleeps are how flaky timing bugs start;
                  use Backoff, a CondVar wait, or a deadline instead.

  no-wall-clock   No wall-clock reads (system_clock, gettimeofday,
                  CLOCK_REALTIME, time(...)) in src/ outside the one
                  allow-listed trace-origin site (obs/metrics.cc
                  NowNanos). Epoch numbering and hot paths must use
                  steady_clock so a step in wall time cannot reorder
                  epochs or corrupt latency measurements.

  codec-test      Every `Decode*` codec declared in src/ headers must be
                  referenced from a test file that exercises trailing-byte
                  rejection (the file mentions "trailing"). Length-
                  transparent decoders silently accept garbage suffixes —
                  the exact bug class this repo's wire format tests pin.

  json-key-test   Every JSON key the NETMETRICS/stats exporters emit in
                  src/ must appear in some test. The stats JSON is a
                  consumer contract (`ldpjs_cli top` and external
                  scrapers parse it); an unasserted key can be renamed or
                  dropped without any test noticing.

  orphan-module   Every src/ header must be reachable by #include from the
                  code that ships: tools/, bench/ or examples/, following
                  includes transitively, where reaching a header also
                  reaches its own .cc. A module whose only consumer is its
                  own test is dead weight — delete it, or give it a user.

  module-layering The paper's library — src/common, src/data, src/sketch,
                  src/ldp and src/core — is a leaf: no file there may
                  #include service/, net/, obs/ or federation/. The serving
                  stack is built on the estimators, never the other way
                  round; a deployment topology is driven by its own tools
                  and tests, not rehearsed inside the simulation.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
TESTS = REPO / "tests"

# -- allow-lists -------------------------------------------------------------

# Blessed sleep sites: the jittered Backoff primitive and Socket's
# poll-retry helper. Everything else must wait on a CondVar or deadline.
SLEEP_ALLOWED = {
    "src/common/backoff.h",
    "src/common/socket.cc",
}

# Blessed wall-clock site: trace origins are wall time by design so
# cross-host trace spans line up (obs/metrics.h documents the contract).
WALL_CLOCK_ALLOWED = {
    "src/obs/metrics.cc",
}

# The wrapper header itself is the only file allowed to name the raw
# primitives it wraps.
MUTEX_ALLOWED = {
    "src/common/thread_annotations.h",
}

# The leaf library and the serving modules it must not include.
LEAF_MODULES = ("common", "data", "sketch", "ldp", "core")
SERVING_MODULES = ("service", "net", "obs", "federation")

# Headers kept without a shipping consumer, each for a stated reason.
ORPHAN_ALLOWED = {
    # The plain AGMS reference oracle: tests pin sketch/fast_agms against it.
    "src/sketch/agms.h",
}

# -- helpers -----------------------------------------------------------------


def src_files():
    return sorted(p for p in SRC.rglob("*") if p.suffix in (".h", ".cc"))


def test_files():
    return sorted(TESTS.glob("*.cc"))


def strip_comments(line):
    """Drop //-comments so commented-out code cannot trip a rule."""
    return line.split("//", 1)[0]


def rel(path):
    return path.relative_to(REPO).as_posix()


# -- rules -------------------------------------------------------------------


def check_mutex_wrapper(violations):
    raw = re.compile(
        r"std::(mutex|lock_guard|unique_lock|scoped_lock|condition_variable)\b"
    )
    for path in src_files():
        if rel(path) in MUTEX_ALLOWED:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            match = raw.search(strip_comments(line))
            if match:
                violations.append(
                    f"{rel(path)}:{lineno}: [mutex-wrapper] raw std::"
                    f"{match.group(1)} — use the annotated wrappers in "
                    "common/thread_annotations.h"
                )


def check_no_sleep(violations):
    for path in src_files():
        if rel(path) in SLEEP_ALLOWED:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if "sleep_for" in strip_comments(line):
                violations.append(
                    f"{rel(path)}:{lineno}: [no-sleep] raw sleep_for — use "
                    "Backoff, a CondVar wait, or a deadline"
                )


def check_no_wall_clock(violations):
    wall = re.compile(
        r"system_clock|gettimeofday|CLOCK_REALTIME|(?<![A-Za-z0-9_])time\s*\("
    )
    for path in src_files():
        if rel(path) in WALL_CLOCK_ALLOWED:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            match = wall.search(strip_comments(line))
            if match:
                violations.append(
                    f"{rel(path)}:{lineno}: [no-wall-clock] wall-clock read "
                    f"({match.group(0).strip()}) — use steady_clock, or "
                    "route trace origins through NowNanos()"
                )


def check_codec_tests(violations):
    decl = re.compile(r"\bDecode[A-Z][A-Za-z0-9_]*")
    codecs = {}  # name -> first declaring header:line
    for path in src_files():
        if path.suffix != ".h":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for name in decl.findall(strip_comments(line)):
                codecs.setdefault(name, f"{rel(path)}:{lineno}")
    tests = [(p, p.read_text()) for p in test_files()]
    for name, where in sorted(codecs.items()):
        covered = any(
            name in text and "trailing" in text.lower() for _, text in tests
        )
        if not covered:
            violations.append(
                f"{where}: [codec-test] {name} has no trailing-byte-"
                "rejection test — add one to tests/ referencing it"
            )


def check_orphan_modules(violations):
    include = re.compile(r'^\s*#\s*include\s+"([^"]+)"')

    def resolve(including, name):
        # Same lookup order the build uses: the including file's directory,
        # then the src/ and repo-root include paths.
        for base in (including.parent, SRC, REPO):
            candidate = base / name
            if candidate.is_file():
                return candidate.resolve()
        return None

    stack = [
        p.resolve()
        for root in ("tools", "bench", "examples")
        for p in (REPO / root).rglob("*")
        if p.suffix in (".h", ".cc", ".cpp")
    ]
    reached = set()
    while stack:
        path = stack.pop()
        if path in reached:
            continue
        reached.add(path)
        if path.suffix == ".h" and path.with_suffix(".cc").is_file():
            stack.append(path.with_suffix(".cc"))
        for line in path.read_text().splitlines():
            match = include.match(line)
            target = match and resolve(path, match.group(1))
            if target:
                stack.append(target)
    for header in sorted(SRC.rglob("*.h")):
        if header.resolve() in reached or rel(header) in ORPHAN_ALLOWED:
            continue
        violations.append(
            f"{rel(header)}:1: [orphan-module] no #include chain from "
            "tools/, bench/ or examples/ reaches this header — delete the "
            "module (and its tests) or give it a consumer"
        )


def check_module_layering(violations):
    include = re.compile(
        r'^\s*#\s*include\s+"((?:%s)/[^"]+)"' % "|".join(SERVING_MODULES)
    )
    for module in LEAF_MODULES:
        for path in sorted((SRC / module).rglob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                match = include.match(line)
                if match:
                    violations.append(
                        f"{rel(path)}:{lineno}: [module-layering] src/"
                        f"{module}/ includes {match.group(1)} — the library "
                        "must not depend on the serving stack"
                    )


def check_json_key_tests(violations):
    # JSON keys appear in C++ string literals as \"key\": — collect every
    # key src/ emits, then require the bare token somewhere in tests/.
    key = re.compile(r'\\"([A-Za-z0-9_]+)\\":')
    keys = {}  # key -> first emitting file:line
    for path in src_files():
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for k in key.findall(line):
                keys.setdefault(k, f"{rel(path)}:{lineno}")
    corpus = "\n".join(p.read_text() for p in test_files())
    tokens = set(re.findall(r"[A-Za-z0-9_]+", corpus))
    for k, where in sorted(keys.items()):
        if k not in tokens:
            violations.append(
                f"{where}: [json-key-test] stats JSON key \"{k}\" never "
                "appears in tests/ — assert it where the JSON is rendered"
            )


def main():
    violations = []
    check_mutex_wrapper(violations)
    check_no_sleep(violations)
    check_no_wall_clock(violations)
    check_codec_tests(violations)
    check_json_key_tests(violations)
    check_orphan_modules(violations)
    check_module_layering(violations)
    if violations:
        for v in violations:
            print(v)
        print(f"\nldpjs_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("ldpjs_lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
