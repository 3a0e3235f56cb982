#!/usr/bin/env python3
"""mlirrl repo-invariant linter.

Statically enforces repo-specific rules the C++ compiler cannot check.
The rules encode the project's two standing contracts -- bitwise
determinism across thread/shard/worker counts, and crash-freedom on
untrusted input -- at the places where a single careless line silently
breaks them:

  raw-numeric-parse     no atoi/stoi/strto*/sscanf numeric parsing
                        outside support/Args (raw parses turn "-3" or
                        "10k" into silent wraps; support/Args rejects
                        them with a message).
  fatal-in-recoverable  no reportFatalError / MLIRRL_UNREACHABLE in the
                        paths support/Error.h documents as recoverable
                        (parser, verifier, post-transform checks, fuzz,
                        serve): nothing reachable from a hostile .mlir
                        or an agent action may abort the process.
  unordered-container   no std::unordered_map/unordered_set in the
                        determinism-critical dirs (transforms/, perf/,
                        rl/, env/): their iteration order is
                        unspecified, and an iteration (today's or a
                        refactor's) keyed on one diverges across
                        libstdc++ versions and hash seeds. Use std::map,
                        a sorted vector, or support/StripedLru, or waive
                        with an in-file justification that the container
                        is never iterated.
  naked-lock            no naked Mutex.lock()/unlock() on a std::*mutex
                        (RAII guards only: an early return or exception
                        between lock and unlock deadlocks the pool).
                        .lock() on std::unique_lock/shared_lock is fine.
  raw-rng               no std::random_device / rand() / srand /
                        <random> engines or distributions outside
                        support/Rng: implementation-defined sequences
                        break bitwise reproducibility across stdlibs.
  counter-name-once     every CacheStatsRegistry counter category
                        (dotted lowercase string literal at a
                        registration site in src/) is registered at
                        exactly one site, so two subsystems cannot
                        silently pollute each other's statistics.

Waivers are in-file and must carry a justification:

    // mlirrl-lint: allow(<rule-id>) -- <why this is sound>

on the flagged line or the line above waives that line;

    // mlirrl-lint: allow-file(<rule-id>) -- <why this is sound>

anywhere in the file waives the whole file for that rule. An empty
justification is itself a lint error. There is no out-of-file
allowlist: the justification lives next to the code it excuses.

Usage:
    tools/lint/lint.py [--root DIR]   # lint the tree, exit 1 on findings
    tools/lint/lint.py --self-test    # run on the seeded-violation
                                      # fixture; exit 1 unless every rule
                                      # both fires and is waivable

Runs with the Python standard library only; no build needed.
"""

import argparse
import os
import re
import sys

CPP_EXTENSIONS = (".cpp", ".h")
SCAN_DIRS = ("src", "examples", "bench", "tests", "perfbench")

# ---------------------------------------------------------------------------
# Comment / string stripping
# ---------------------------------------------------------------------------


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving newlines
    (line numbers stay valid) and quote characters (so regexes that key
    on string literals can opt back in via the raw text)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    j += 1
                    break
                if text[j] == "\n":  # unterminated; bail at EOL
                    break
                j += 1
            out.append(quote + " " * max(0, j - i - 2) +
                       (quote if j > i + 1 and text[j - 1] == quote else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def string_literals(line):
    """The double-quoted literals of one raw source line."""
    return re.findall(r'"((?:[^"\\]|\\.)*)"', line)


# ---------------------------------------------------------------------------
# Waivers
# ---------------------------------------------------------------------------

WAIVE_LINE = re.compile(
    r"mlirrl-lint:\s*allow\(([a-z-]+)\)\s*(?:--\s*(.*))?")
WAIVE_FILE = re.compile(
    r"mlirrl-lint:\s*allow-file\(([a-z-]+)\)\s*(?:--\s*(.*))?")


class FileContext:
    def __init__(self, path, rel, raw):
        self.path = path
        self.rel = rel
        self.raw_lines = raw.splitlines()
        self.stripped_lines = strip_comments_and_strings(raw).splitlines()
        self.file_waivers = {}
        self.line_waivers = {}
        self.waiver_errors = []
        for idx, line in enumerate(self.raw_lines, start=1):
            for rx, store in ((WAIVE_FILE, self.file_waivers),
                              (WAIVE_LINE, self.line_waivers)):
                m = rx.search(line)
                if not m:
                    continue
                rule, why = m.group(1), (m.group(2) or "").strip()
                if not why:
                    self.waiver_errors.append(
                        (idx, "waiver for '%s' has no justification "
                         "(write: mlirrl-lint: allow(%s) -- <reason>)"
                         % (rule, rule)))
                    continue
                if store is self.file_waivers:
                    store[rule] = why
                else:
                    store.setdefault(rule, set()).add(idx)

    def waived(self, rule, lineno):
        if rule in self.file_waivers:
            return True
        lines = self.line_waivers.get(rule, set())
        return lineno in lines or (lineno - 1) in lines


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

class Finding:
    def __init__(self, rule, rel, lineno, message):
        self.rule, self.rel, self.lineno, self.message = \
            rule, rel, lineno, message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.rel, self.lineno, self.rule,
                                   self.message)


RAW_PARSE = re.compile(
    r"\b(?:std::)?(atoi|atol|atoll|stoi|stol|stoll|stoul|stoull|stof|stod|"
    r"stold|strtol|strtoll|strtoul|strtoull|strtof|strtod|strtold|sscanf)"
    r"\s*\(")


def rule_raw_numeric_parse(ctx):
    # support/Args is the one sanctioned implementation site.
    if ctx.rel.endswith("support/Args.cpp"):
        return
    for idx, line in enumerate(ctx.stripped_lines, start=1):
        m = RAW_PARSE.search(line)
        if m:
            yield Finding(
                "raw-numeric-parse", ctx.rel, idx,
                "raw numeric parse '%s' -- use support/Args "
                "parseUnsignedInteger/parseSignedInteger (Expected-based) "
                "or parseUnsignedArg (CLI)" % m.group(1))


RECOVERABLE_PATHS = (
    "src/ir/Parser.",
    "src/ir/Verifier.",
    "src/transforms/PostTransformChecks.",
    "src/fuzz/",
    "src/serve/",
)
FATAL_CALL = re.compile(r"\breportFatalError\s*\(|\bMLIRRL_UNREACHABLE\s*\(")


def rule_fatal_in_recoverable(ctx):
    if not any(p in ctx.rel for p in RECOVERABLE_PATHS):
        return
    for idx, line in enumerate(ctx.stripped_lines, start=1):
        if FATAL_CALL.search(line):
            yield Finding(
                "fatal-in-recoverable", ctx.rel, idx,
                "fatal abort in a path support/Error.h documents as "
                "recoverable -- return an Expected and count a "
                "robustness.* event instead")


DETERMINISM_DIRS = ("src/transforms/", "src/perf/", "src/rl/", "src/env/")
UNORDERED = re.compile(r"\bstd::unordered_(map|set|multimap|multiset)\b")


def rule_unordered_container(ctx):
    if not any(ctx.rel.startswith(d) for d in DETERMINISM_DIRS):
        return
    for idx, line in enumerate(ctx.stripped_lines, start=1):
        m = UNORDERED.search(line)
        if m:
            yield Finding(
                "unordered-container", ctx.rel, idx,
                "std::unordered_%s in a determinism-critical dir: "
                "iteration order is unspecified across stdlibs -- use "
                "std::map, a sorted vector, or support/StripedLru; if the "
                "container is provably never iterated, waive with a "
                "justification" % m.group(1))


MUTEX_DECL = re.compile(
    r"\bstd::(?:shared_|recursive_|timed_|recursive_timed_)?mutex\s+"
    r"([A-Za-z_]\w*)\s*[;{=]")
LOCK_CALL = re.compile(r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*(lock|unlock)\s*\(\)")


def rule_naked_lock(ctx):
    declared = set()
    for line in ctx.stripped_lines:
        for m in MUTEX_DECL.finditer(line):
            declared.add(m.group(1))
    for idx, line in enumerate(ctx.stripped_lines, start=1):
        for m in LOCK_CALL.finditer(line):
            name = m.group(1)
            # Flag calls on declared std::*mutex objects, plus the
            # conventional member spellings (declaration may live in
            # another header).
            if name in declared or re.fullmatch(
                    r".*(Mutex|Mtx|mutex)", name):
                yield Finding(
                    "naked-lock", ctx.rel, idx,
                    "naked %s.%s() -- hold mutexes through "
                    "std::lock_guard/unique_lock/scoped_lock so an early "
                    "return cannot leak the lock" % (name, m.group(2)))


RAW_RNG = re.compile(
    r"\bstd::random_device\b|\bstd::mt19937(?:_64)?\b|"
    r"\bstd::default_random_engine\b|\bstd::minstd_rand0?\b|"
    r"\bstd::(?:uniform_int|uniform_real|normal|bernoulli)_distribution\b|"
    r"(?<![\w:])s?rand\s*\(")


def rule_raw_rng(ctx):
    if ctx.rel.endswith("support/Rng.h") or ctx.rel.endswith(
            "support/Rng.cpp"):
        return
    for idx, line in enumerate(ctx.stripped_lines, start=1):
        m = RAW_RNG.search(line)
        if m:
            yield Finding(
                "raw-rng", ctx.rel, idx,
                "non-deterministic / implementation-defined RNG '%s' -- "
                "all randomness must flow through support/Rng (seedable, "
                "bitwise-stable across stdlibs)" % m.group(0).strip())


# Registration sites: the category argument of CacheStatsRegistry::named,
# of an Enrollment, of a StripedLruMemo construction, or of the
# member-init of a member declared as StripedLruMemo anywhere in src/
# (CachingEvaluator's `PerOp("evaluator.op_memo", ...)` idiom).
CATEGORY_LITERAL = re.compile(r"^[a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+$")
MEMO_MEMBER_DECL = re.compile(r"\bStripedLruMemo<[^;>]*>\s+(\w+)")


def counter_registration_sites(contexts):
    """(name -> [(ctx, lineno)]) over category string literals at counter
    registration sites in src/. Comments are not consulted (the literal
    must sit on a code line that survives stripping with its quotes)."""
    memo_members = set()
    for ctx in contexts:
        if not ctx.rel.startswith("src/"):
            continue
        for line in ctx.stripped_lines:
            for m in MEMO_MEMBER_DECL.finditer(line):
                memo_members.add(m.group(1))
    member_init = re.compile(
        r"\b(%s)\s*[({]\s*\"" % "|".join(sorted(memo_members))
    ) if memo_members else None
    site = re.compile(
        r'\bnamed\s*\(\s*"|Enrollment\s*\(\s*"|StripedLruMemo[^;]*"')

    sites = {}
    for ctx in contexts:
        if not ctx.rel.startswith("src/"):
            continue
        for idx, (raw, stripped) in enumerate(
                zip(ctx.raw_lines, ctx.stripped_lines), start=1):
            if '"' not in stripped:
                continue  # literal only appeared inside a comment
            if not (site.search(stripped) or
                    (member_init and member_init.search(stripped))):
                continue
            for lit in string_literals(raw):
                if CATEGORY_LITERAL.match(lit):
                    sites.setdefault(lit, []).append((ctx, idx))
    return sites


def rule_counter_name_once(contexts):
    for name, where in sorted(counter_registration_sites(contexts).items()):
        if len(where) <= 1:
            continue
        locations = ", ".join("%s:%d" % (c.rel, l) for c, l in where)
        for ctx, lineno in where:
            if ctx.waived("counter-name-once", lineno):
                continue
            yield Finding(
                "counter-name-once", ctx.rel, lineno,
                "counter category \"%s\" appears at %d registration sites "
                "(%s) -- each CacheStatsRegistry category must be "
                "registered exactly once" % (name, len(where), locations))


PER_FILE_RULES = (
    ("raw-numeric-parse", rule_raw_numeric_parse),
    ("fatal-in-recoverable", rule_fatal_in_recoverable),
    ("unordered-container", rule_unordered_container),
    ("naked-lock", rule_naked_lock),
    ("raw-rng", rule_raw_rng),
)
ALL_RULE_IDS = tuple(r for r, _ in PER_FILE_RULES) + ("counter-name-once",)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def collect_files(root, dirs):
    for d in dirs:
        base = os.path.join(root, d)
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(CPP_EXTENSIONS):
                    yield os.path.join(dirpath, name)


def lint_tree(root, dirs=SCAN_DIRS):
    contexts = []
    findings = []
    for path in collect_files(root, dirs):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        with open(path, encoding="utf-8", errors="replace") as f:
            ctx = FileContext(path, rel, f.read())
        contexts.append(ctx)
        for lineno, msg in ctx.waiver_errors:
            findings.append(Finding("waiver", rel, lineno, msg))
        for rule, fn in PER_FILE_RULES:
            for finding in fn(ctx):
                if not ctx.waived(rule, finding.lineno):
                    findings.append(finding)
    findings.extend(rule_counter_name_once(contexts))
    findings.sort(key=lambda f: (f.rel, f.lineno, f.rule))
    return findings


# ---------------------------------------------------------------------------
# Self-test: every rule must fire on the seeded fixture, and the waived
# twin of each seed must stay quiet.
# ---------------------------------------------------------------------------


def self_test(root):
    fixture = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "selftest")
    if not os.path.isdir(fixture):
        print("lint self-test: fixture directory missing: " + fixture,
              file=sys.stderr)
        return 1
    findings = lint_tree(fixture)
    fired = {f.rule for f in findings}
    failures = []
    for rule in ALL_RULE_IDS:
        if rule not in fired:
            failures.append("rule '%s' did not fire on its seeded "
                            "violation" % rule)
    for f in findings:
        if "waived" in f.rel:
            failures.append("waived fixture still flagged: %s" % f)
    # The justification-free waiver seed must be rejected.
    if "waiver" not in fired:
        failures.append("empty-justification waiver was not rejected")
    if failures:
        print("lint self-test FAILED:", file=sys.stderr)
        for msg in failures:
            print("  " + msg, file=sys.stderr)
        print("fixture findings were:", file=sys.stderr)
        for f in findings:
            print("  " + str(f), file=sys.stderr)
        return 1
    print("lint self-test: %d seeded findings, all %d rules fired, "
          "waivers honored" % (len(findings), len(ALL_RULE_IDS)))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repo root (default: two levels above this file)")
    ap.add_argument("--self-test", action="store_true",
                    help="lint the seeded-violation fixture instead of "
                         "the tree; fail unless every rule fires")
    args = ap.parse_args()

    if args.self_test:
        return self_test(args.root)

    root = args.root or os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    findings = lint_tree(root)
    for f in findings:
        print(str(f))
    if findings:
        print("lint: %d finding(s); waive only with an in-file "
              "'mlirrl-lint: allow(<rule>) -- <reason>'" % len(findings),
              file=sys.stderr)
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
