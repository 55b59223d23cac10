#!/usr/bin/env python3
"""Project-specific lint checks for the smr codebase.

Dependency-free (stdlib only) so it runs anywhere a python3 exists — in
particular in CI next to clang-tidy and as a ctest entry. Each check
encodes an invariant the general-purpose tools cannot see:

  header-budget      Engine headers (src/mapreduce/*.h) stay under a line
                     budget, so the engine keeps decomposing into layers
                     instead of re-growing a monolith. Documented
                     exemptions live in HEADER_BUDGET_EXEMPT.
  determinism        No fork/rand/wall-clock nondeterminism outside the
                     whitelisted files. The engine's contract is
                     byte-identical results across thread counts, shuffle
                     modes, budgets, and backends; one stray
                     random_device or system_clock in a kernel breaks it
                     silently.
  env-doc            Every SMR_* environment variable read anywhere in
                     the tree is documented in README.md. Env knobs are
                     public surface; an undocumented one is a trap.
  strategy-coverage  Every strategy registered in
                     src/core/builtin_strategies.cc is named in
                     tests/strategy_registry_test.cc, whose pinned-roster
                     test and per-strategy loops are the differential
                     coverage every strategy must pass through.
  intersect-slack    Every file calling IntersectInto() also references
                     kIntersectSlack. The SIMD intersection kernels may
                     write up to kIntersectSlack lanes past the true
                     result size; a caller sizing its buffer without the
                     slack is a latent overflow that only fires on
                     AVX-capable hosts (see src/graph/intersect.h).

Usage:
  tools/smr_lint.py [--root DIR] [--format text|markdown] [--self-test]

Exit status: 0 = clean, 1 = findings, 2 = usage/internal error.

--self-test runs every check against the seeded-violation corpus in
tools/lint_fixtures/ and verifies each check fires on its fixture —
proof the checks detect what they claim to detect.
"""

import argparse
import os
import re
import sys

# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------

HEADER_BUDGET_LINES = 400

# Documented exemptions from the engine-header budget: path -> reason.
HEADER_BUDGET_EXEMPT = {}

# Nondeterminism sources and the files allowed to use each. Patterns are
# regexes matched per line; comment-only lines are skipped first.
DETERMINISM_BANS = [
    (r"\bv?fork\s*\(", {"src/mapreduce/process_backend.cc"},
     "fork() belongs to the process backend's coordinator only"),
    (r"\bstd::rand\b|\bsrand\s*\(", set(),
     "use util/rng.h (seeded SplitMix64), never the libc generator"),
    (r"\brandom_device\b", set(),
     "nondeterministic seeding breaks byte-identical reruns"),
    (r"\bsystem_clock\b", set(),
     "wall-clock time must not influence results; deadlines poll fds"),
    (r"\btime\s*\(\s*(nullptr|NULL|0)\s*\)", set(),
     "wall-clock time must not influence results"),
    (r"\bmt19937\b", set(),
     "use util/rng.h so all randomness flows from one seeded generator"),
]

# Trees scanned by the determinism check. tests/ and bench/ are out of
# scope: tests may fake clocks, and bench harnesses own their (seeded)
# mt19937 input generators — only shipped engine/kernel/example code must
# be free of nondeterminism sources.
DETERMINISM_SCAN_DIRS = ("src", "examples")
DETERMINISM_EXTENSIONS = (".h", ".cc", ".cpp")

# Files that declare the intersection kernels themselves.
INTERSECT_IMPL_FILES = {"src/graph/intersect.h", "src/graph/intersect.cc"}

ENV_VAR_RE = re.compile(r"getenv\s*\(\s*\"(SMR_[A-Z0-9_]+)\"")
STRATEGY_NAME_RE = re.compile(r"BuiltinStrategy\(\s*\"([a-z0-9-]+)\"", re.S)
LINE_COMMENT_RE = re.compile(r"//.*$")


class Finding:
    def __init__(self, check, path, line, message):
        self.check = check
        self.path = path
        self.line = line  # 1-based, or 0 for file-level findings
        self.message = message

    def __str__(self):
        where = f"{self.path}:{self.line}" if self.line else self.path
        return f"{where}: [{self.check}] {self.message}"


def read_lines(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read().splitlines()


def walk_sources(root, subdirs, extensions):
    for subdir in subdirs:
        base = os.path.join(root, subdir)
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(extensions):
                    yield os.path.relpath(os.path.join(dirpath, name), root)


# --------------------------------------------------------------------------
# Checks — each takes the repo root and returns a list of Findings.
# --------------------------------------------------------------------------

def check_header_budget(root, budget=HEADER_BUDGET_LINES):
    findings = []
    for rel in walk_sources(root, ("src/mapreduce",), (".h",)):
        count = len(read_lines(os.path.join(root, rel)))
        if count <= budget:
            continue
        if rel in HEADER_BUDGET_EXEMPT:
            continue
        findings.append(Finding(
            "header-budget", rel, 0,
            f"{count} lines exceeds the {budget}-line engine-header "
            f"budget; split a layer out or add a documented exemption"))
    return findings


def check_determinism(root):
    findings = []
    for rel in walk_sources(root, DETERMINISM_SCAN_DIRS,
                            DETERMINISM_EXTENSIONS):
        lines = read_lines(os.path.join(root, rel))
        in_block_comment = False
        for number, line in enumerate(lines, start=1):
            code, in_block_comment = strip_comments(line, in_block_comment)
            for pattern, allowed, why in DETERMINISM_BANS:
                if rel in allowed:
                    continue
                if re.search(pattern, code):
                    findings.append(Finding(
                        "determinism", rel, number,
                        f"nondeterminism source /{pattern}/ — {why}"))
    return findings


def strip_comments(line, in_block_comment):
    """Removes //- and /* */-commented spans from one line (stateful across
    lines for block comments). String literals are not parsed; the banned
    identifiers do not plausibly appear inside strings in this codebase."""
    out = []
    i = 0
    while i < len(line):
        if in_block_comment:
            end = line.find("*/", i)
            if end == -1:
                return "".join(out), True
            i = end + 2
            in_block_comment = False
        elif line.startswith("//", i):
            break
        elif line.startswith("/*", i):
            in_block_comment = True
            i += 2
        else:
            out.append(line[i])
            i += 1
    return "".join(out), in_block_comment


def check_env_doc(root):
    findings = []
    readme_path = os.path.join(root, "README.md")
    readme = ""
    if os.path.exists(readme_path):
        readme = "\n".join(read_lines(readme_path))
    for rel in walk_sources(root, ("src", "examples", "bench", "tests"),
                            DETERMINISM_EXTENSIONS):
        lines = read_lines(os.path.join(root, rel))
        for number, line in enumerate(lines, start=1):
            for var in ENV_VAR_RE.findall(line):
                if var not in readme:
                    findings.append(Finding(
                        "env-doc", rel, number,
                        f"environment variable {var} is read here but "
                        f"not documented in README.md"))
    return findings


def check_strategy_coverage(root):
    registry = os.path.join(root, "src/core/builtin_strategies.cc")
    coverage = os.path.join(root, "tests/strategy_registry_test.cc")
    if not os.path.exists(registry):
        return []
    names = STRATEGY_NAME_RE.findall(
        "\n".join(read_lines(registry)))
    covered = ""
    if os.path.exists(coverage):
        covered = "\n".join(read_lines(coverage))
    findings = []
    for name in names:
        if f'"{name}"' not in covered:
            findings.append(Finding(
                "strategy-coverage", "src/core/builtin_strategies.cc", 0,
                f"strategy '{name}' is registered but never named in "
                f"tests/strategy_registry_test.cc (add it to the pinned "
                f"roster test)"))
    return findings


def check_intersect_slack(root):
    findings = []
    for rel in walk_sources(root, ("src",), (".h", ".cc")):
        if rel in INTERSECT_IMPL_FILES:
            continue
        text = "\n".join(read_lines(os.path.join(root, rel)))
        if "IntersectInto" in text and "kIntersectSlack" not in text:
            findings.append(Finding(
                "intersect-slack", rel, 0,
                "calls IntersectInto() but never references "
                "kIntersectSlack — output buffers must reserve "
                "min(|a|,|b|) + kIntersectSlack elements "
                "(see src/graph/intersect.h)"))
    return findings


ALL_CHECKS = [
    check_header_budget,
    check_determinism,
    check_env_doc,
    check_strategy_coverage,
    check_intersect_slack,
]


def run_checks(root):
    findings = []
    for check in ALL_CHECKS:
        findings.extend(check(root))
    return findings


# --------------------------------------------------------------------------
# Self-test against the seeded-violation corpus
# --------------------------------------------------------------------------

# check id -> substring that must appear in at least one finding from the
# fixture tree. Each fixture seeds exactly one violation of its check.
FIXTURE_EXPECTATIONS = {
    "header-budget": "exceeds",
    "determinism": "fork",
    "env-doc": "SMR_UNDOCUMENTED_KNOB",
    "strategy-coverage": "'ghost'",
    "intersect-slack": "IntersectInto",
}


def self_test(fixtures_root):
    # The fixture header is kept short; prove the budget check with a
    # proportionally short budget instead of a 400-line junk file.
    findings = check_header_budget(fixtures_root, budget=10)
    for check in ALL_CHECKS[1:]:
        findings.extend(check(fixtures_root))
    failures = []
    for check_id, needle in sorted(FIXTURE_EXPECTATIONS.items()):
        hits = [f for f in findings
                if f.check == check_id and needle in f.message]
        if not hits:
            failures.append(
                f"self-test: check '{check_id}' did not fire on its "
                f"seeded fixture (expected a finding mentioning "
                f"'{needle}')")
    for f in findings:
        if f.check not in FIXTURE_EXPECTATIONS:
            failures.append(f"self-test: unexpected check id in {f}")
    if failures:
        print("\n".join(failures))
        return 1
    print(f"self-test: all {len(FIXTURE_EXPECTATIONS)} checks fire on "
          f"their seeded fixtures ({len(findings)} findings)")
    return 0


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def emit(findings, fmt):
    if fmt == "markdown":
        print("| check | location | finding |")
        print("| --- | --- | --- |")
        for f in findings:
            where = f"{f.path}:{f.line}" if f.line else f.path
            message = f.message.replace("|", "\\|")
            print(f"| {f.check} | `{where}` | {message} |")
    else:
        for f in findings:
            print(f)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repository root (default: the linter's "
                             "grandparent directory)")
    parser.add_argument("--format", choices=("text", "markdown"),
                        default="text")
    parser.add_argument("--self-test", action="store_true",
                        help="run the checks against tools/lint_fixtures/ "
                             "and verify every check fires")
    args = parser.parse_args(argv)

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(args.root) if args.root else os.path.dirname(here)

    if args.self_test:
        return self_test(os.path.join(here, "lint_fixtures"))

    findings = run_checks(root)
    emit(findings, args.format)
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    if args.format != "markdown":
        print("smr_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
