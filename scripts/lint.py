#!/usr/bin/env python3
"""qtda project lint: repo-specific invariants no generic tool checks.

Wired into CI and scripts/verify.sh, and registered in ctest via
--self-test (which first proves every fixture under tests/lint_fixtures/
fails its rule, then requires the real tree to be clean).

Rules
-----
determinism
    No std::random_device, srand/std::rand, or time()-based seeding outside
    src/common/random.*.  Every random stream must derive from qtda::Rng so
    any run is reproducible from a single seed — the property behind the
    golden-fingerprint bit-identity suite and the batched-serving contract.

stdout
    No std::cout / std::cerr / printf-family writes to the standard streams
    in library code (src/**).  Output routes through common/logging (which
    owns the stderr sink) or telemetry; snprintf into buffers is fine.

complex-scalar
    No hard-coded std::complex<double> in the scalar-templated simulation
    spine (statevector, density_matrix, executor, backend, mixed_state,
    compiler).  The amplitude scalar is a template parameter there; a
    literal complex128 silently pins one precision and breaks the float32
    engines.  Genuine double-boundary sites (widening
    accumulators, the ComplexMatrix casting rails) carry waivers.

bare-mutex
    No bare std::mutex / std::condition_variable (or their recursive/
    shared/timed cousins) in library code outside
    common/thread_annotations.hpp.  Locking goes through the
    capability-annotated qtda::Mutex / MutexLock / CondVar wrappers so the
    clang -Wthread-safety CI leg can prove the lock discipline; a bare
    std::mutex is invisible to that analysis.

pragma-once
    Every header under src/ opens with #pragma once as its first directive.

include-path
    Project includes are module-qualified double quotes ("common/x.hpp"),
    never "../" or "./" traversal — headers must be locatable from the one
    -Isrc root the build and the self-containment sweep use.

Waivers
-------
A finding is suppressed by a comment `qtda-lint: allow(<rule>)` either on
the offending line or as a standalone comment line, in which case it covers
the lines up to the next blank line (one function/block).  Waivers are for
sites where the pattern is the correct behavior; say why in the comment.
"""

import argparse
import os
import re
import sys

LIB_EXTENSIONS = (".hpp", ".cpp")

# (rule, regex, message)
DETERMINISM_PATTERNS = [
    ("determinism", re.compile(r"\brandom_device\b"),
     "std::random_device is non-deterministic; seed a qtda::Rng instead"),
    ("determinism", re.compile(r"(?<![\w:])s?rand\s*\("),
     "rand/srand is non-deterministic global state; use qtda::Rng"),
    ("determinism", re.compile(r"(?<![\w])time\s*\(\s*(?:nullptr|NULL|0)\s*\)"),
     "wall-clock seeding breaks run-to-run reproducibility; use qtda::Rng"),
]

STDOUT_PATTERNS = [
    ("stdout", re.compile(r"\bstd::cout\b"),
     "library code must not write to stdout; route through common/logging"),
    ("stdout", re.compile(r"\bstd::cerr\b"),
     "library code must not write to stderr directly; use QTDA_LOG levels"),
    ("stdout", re.compile(r"(?<![\w])printf\s*\("),
     "printf writes to stdout; route through common/logging"),
    ("stdout", re.compile(r"\bf?puts\s*\("),
     "puts/fputs on standard streams; route through common/logging"),
    ("stdout", re.compile(r"\bfprintf\s*\(\s*stdout"),
     "fprintf(stdout, ...) in library code; route through common/logging"),
    ("stdout", re.compile(r"\bfprintf\s*\(\s*stderr"),
     "fprintf(stderr, ...) belongs to common/logging's sink only"),
]

BARE_MUTEX_PATTERNS = [
    ("bare-mutex", re.compile(
        r"\bstd::(?:recursive_|shared_|timed_|recursive_timed_)?mutex\b"),
     "bare std::mutex is invisible to -Wthread-safety; use qtda::Mutex "
     "from common/thread_annotations.hpp"),
    ("bare-mutex", re.compile(r"\bstd::condition_variable(?:_any)?\b"),
     "bare std::condition_variable bypasses the annotated wrappers; use "
     "qtda::CondVar from common/thread_annotations.hpp"),
]

# The one file allowed to name the raw primitives (it wraps them).
BARE_MUTEX_EXEMPT = {"src/common/thread_annotations.hpp"}

COMPLEX_SCALAR_PATTERN = (
    "complex-scalar", re.compile(r"std::complex<double>"),
    "scalar-templated spine: use the Scalar/Real template parameter "
    "(or waive a genuine double-boundary site)")

# Files whose amplitude scalar is a template parameter.  Paths relative to
# the repo root, forward slashes.
COMPLEX_SCALAR_FILES = {
    "src/quantum/statevector.hpp", "src/quantum/statevector.cpp",
    "src/quantum/density_matrix.hpp", "src/quantum/density_matrix.cpp",
    "src/quantum/executor.hpp", "src/quantum/executor.cpp",
    "src/quantum/backend.hpp", "src/quantum/backend.cpp",
    "src/quantum/mixed_state.hpp", "src/quantum/mixed_state.cpp",
    "src/quantum/compiler.hpp", "src/quantum/compiler.cpp",
}

# The one file allowed to touch the process streams (it owns the stderr
# sink every QTDA_LOG line flows through).
STDOUT_EXEMPT = {"src/common/logging.cpp"}

# The one module allowed to name entropy primitives (it wraps them — today
# it doesn't even do that, but the exemption documents where such code
# would belong).
DETERMINISM_EXEMPT_PREFIX = "src/common/random"

WAIVER_RE = re.compile(r"qtda-lint:\s*allow\(([a-z0-9_,\- ]+)\)")
COMMENT_ONLY_RE = re.compile(r"^\s*(//|/\*|\*)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def waived_rules(lines):
    """Maps 1-based line number -> set of waived rule names."""
    waived = {}
    for i, line in enumerate(lines, start=1):
        match = WAIVER_RE.search(line)
        if not match:
            continue
        rules = {r.strip() for r in match.group(1).split(",")}
        if COMMENT_ONLY_RE.match(line):
            # Standalone waiver comment: covers until the next blank line.
            j = i + 1
            while j <= len(lines) and lines[j - 1].strip() != "":
                waived.setdefault(j, set()).update(rules)
                j += 1
        else:
            waived.setdefault(i, set()).update(rules)
    return waived


def strip_comments_outside_strings(line):
    """Drops // comments and blanks string-literal interiors so neither
    commented-out code nor log text trips the rules.  (Block comments are
    handled coarsely: a line starting inside one is the caller's problem;
    every rule here targets single-line constructs.)"""
    out = []
    in_string = None
    i = 0
    while i < len(line):
        c = line[i]
        if in_string:
            if c == "\\":
                i += 2
                continue
            if c == in_string:
                in_string = None
                out.append(c)
            i += 1
            continue
        if c in ('"', "'"):
            in_string = c
            out.append(c)
            i += 1
            continue
        if c == "/" and i + 1 < len(line) and line[i + 1] == "/":
            break
        out.append(c)
        i += 1
    return "".join(out)


def lint_file(rel_path, text):
    findings = []
    lines = text.splitlines()
    waived = waived_rules(lines)

    patterns = []
    if not rel_path.startswith(DETERMINISM_EXEMPT_PREFIX):
        patterns += DETERMINISM_PATTERNS
    if rel_path not in STDOUT_EXEMPT:
        patterns += STDOUT_PATTERNS
    if rel_path.replace(os.sep, "/") not in BARE_MUTEX_EXEMPT:
        patterns += BARE_MUTEX_PATTERNS
    if rel_path.replace(os.sep, "/") in COMPLEX_SCALAR_FILES:
        patterns.append(COMPLEX_SCALAR_PATTERN)

    for i, raw in enumerate(lines, start=1):
        code = strip_comments_outside_strings(raw)
        for rule, regex, message in patterns:
            if regex.search(code) and rule not in waived.get(i, set()):
                findings.append(Finding(rel_path, i, rule, message))

    if rel_path.endswith(".hpp"):
        findings += lint_header_conventions(rel_path, lines, waived)
    findings += lint_includes(rel_path, lines, waived)
    return findings


def lint_header_conventions(rel_path, lines, waived):
    findings = []
    in_block_comment = False
    for i, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if in_block_comment:
            if "*/" in stripped:
                in_block_comment = False
            continue
        if stripped == "" or stripped.startswith("//"):
            continue
        if stripped.startswith("/*"):
            if "*/" not in stripped:
                in_block_comment = True
            continue
        if stripped != "#pragma once" and "pragma-once" not in waived.get(i, set()):
            findings.append(Finding(
                rel_path, i, "pragma-once",
                "headers must open with #pragma once before any other code"))
        break
    return findings


INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


def lint_includes(rel_path, lines, waived):
    findings = []
    for i, raw in enumerate(lines, start=1):
        match = INCLUDE_RE.match(raw)
        if not match or "include-path" in waived.get(i, set()):
            continue
        target = match.group(1)
        if target.startswith("../") or target.startswith("./"):
            findings.append(Finding(
                rel_path, i, "include-path",
                f'"{target}": no relative traversal; include module-qualified '
                'paths from the src/ root'))
        elif "/" not in target:
            findings.append(Finding(
                rel_path, i, "include-path",
                f'"{target}": project includes must be module-qualified '
                '(e.g. "common/error.hpp")'))
    return findings


def iter_library_files(root):
    src = os.path.join(root, "src")
    for dirpath, _dirnames, filenames in os.walk(src):
        for name in sorted(filenames):
            if name.endswith(LIB_EXTENSIONS):
                full = os.path.join(dirpath, name)
                yield os.path.relpath(full, root).replace(os.sep, "/"), full


def lint_tree(root):
    findings = []
    for rel_path, full in iter_library_files(root):
        with open(full, encoding="utf-8") as handle:
            findings += lint_file(rel_path, handle.read())
    return findings


def self_test(root):
    """Every fixture must fail exactly its named rule; the tree must pass."""
    fixtures = os.path.join(root, "tests", "lint_fixtures")
    failures = []
    seen_rules = set()
    for name in sorted(os.listdir(fixtures)):
        if not name.endswith(LIB_EXTENSIONS):
            continue
        # bad_<rule-with-underscores>.<ext> must trip <rule>; clean_* must not.
        full = os.path.join(fixtures, name)
        with open(full, encoding="utf-8") as handle:
            text = handle.read()
        # Fixtures emulate library files: lint them as if they lived in the
        # spine so every rule (including complex-scalar) is in scope, with
        # the fixture's own extension so the header rules apply to .hpp.
        ext = name.rsplit(".", 1)[1]
        findings = lint_file(f"src/quantum/statevector.{ext}", text)
        rules_hit = {f.rule for f in findings}
        if name.startswith("bad_"):
            expected = name[len("bad_"):].rsplit(".", 1)[0].replace("_", "-")
            seen_rules.add(expected)
            if expected not in rules_hit:
                failures.append(
                    f"fixture {name}: expected a [{expected}] finding, got "
                    f"{sorted(rules_hit) or 'none'}")
        elif name.startswith("clean_"):
            if rules_hit:
                failures.append(
                    f"fixture {name}: expected no findings, got "
                    f"{sorted(rules_hit)}")
    if not seen_rules:
        failures.append(f"no bad_* fixtures found under {fixtures}")

    tree_findings = lint_tree(root)
    for finding in tree_findings:
        failures.append(f"tree not clean: {finding}")

    for failure in failures:
        print(f"lint self-test: {failure}", file=sys.stderr)
    if not failures:
        print(f"lint self-test: {len(seen_rules)} rules exercised by "
              f"fixtures; tree clean")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: the checkout containing this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="run fixture expectations plus a clean-tree check")
    parser.add_argument("paths", nargs="*",
                        help="specific files to lint (default: all of src/)")
    args = parser.parse_args()

    if args.self_test:
        return self_test(args.root)

    if args.paths:
        findings = []
        for path in args.paths:
            rel = os.path.relpath(os.path.abspath(path), args.root)
            rel = rel.replace(os.sep, "/")
            with open(path, encoding="utf-8") as handle:
                findings += lint_file(rel, handle.read())
    else:
        findings = lint_tree(args.root)

    for finding in findings:
        print(finding, file=sys.stderr)
    if findings:
        print(f"lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
