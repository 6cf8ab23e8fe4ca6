#!/usr/bin/env python3
"""buddy-lint: repo-specific determinism and hygiene static analysis.

Every subsystem in this repository rests on one contract: the ``sim/``
totals are bit-identical across shard counts, window modes, codec
timings, and QoS policies.  That contract is enforced dynamically by
replay-equality tests, but a replay test only sees a nondeterminism
hazard once it fires.  This pass rejects the *constructs* that break
reproducibility at CI time, before any replay can diverge:

  wall-clock        no wall-clock sources (``std::chrono::*_clock::now``,
                    ``time(``, ``clock(``, ``gettimeofday``,
                    ``clock_gettime``) anywhere in src/.  Wall time is
                    inherently nondeterministic; the only sanctioned use
                    is explicitly annotated ``wall/``-subtree
                    instrumentation (throughput report lines) that never
                    feeds simulated totals.

  rng               no ``rand()`` / ``srand()`` / ``std::random_device``
                    / unseeded standard engines (``std::mt19937``,
                    ``std::default_random_engine``, ...).  All
                    randomness flows through the seeded generator in
                    src/common/rng.h so every experiment reproduces
                    bit-for-bit from its seed.

  hash-order-iter   no iteration over ``std::unordered_map`` /
                    ``std::unordered_set`` in files that feed
                    serialization or metrics export (src/obs/,
                    src/engine/trace.*).  Hash order is not a stable
                    order: it varies across standard libraries, ASLR,
                    and element insertion history, so anything exported
                    byte-stable must never be produced by walking a hash
                    table.

  float-cycle       no ``float`` / ``double`` in simulated-cycle
                    accounting code (src/timing/, src/engine/).  Float
                    accumulation is order-sensitive, so cross-shard
                    merges would stop being bit-identical.  Derived
                    read-out ratios and the documented fractional-rate
                    gpusim servers are annotated exceptions.

  header-hygiene    every header carries ``#pragma once``; no
                    ``using namespace`` at header scope.

  summary-name      no string literal equal to a ``kSummaryFields``
                    metric name outside src/api/access.h, whose table
                    the names are read from.  Every BatchSummary
                    counter is registered by looping over that table;
                    a literal name is a second, hand-written list that
                    a new field would not reach.

  bad-allow         an allow annotation that is malformed: missing
                    justification, unknown rule name, or an unmatched
                    allow-begin.

Escape hatch — every exception must carry a justification:

  // buddy-lint: allow(<rule>) <reason>          this line or the next
  // buddy-lint: allow-begin(<rule>) <reason>    ... until allow-end
  // buddy-lint: allow-end(<rule>)
  // buddy-lint: allow-file(<rule>) <reason>     whole file

An allow with an empty reason is itself a violation (``bad-allow``):
the annotation exists to force the "why" into the code.

Usage:
  tools/buddy_lint.py                 lint src/ (the default scope)
  tools/buddy_lint.py path...         lint specific files/directories
  tools/buddy_lint.py --self-test     run the fixture suite under
                                      tools/lint_fixtures/ (each fixture
                                      declares the violations it seeds
                                      with ``// expect-lint: <rule>``)

Exit status: 0 clean, 1 violations found, 2 self-test/setup failure.
"""

import argparse
import functools
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SOURCE_EXTS = (".h", ".hh", ".hpp", ".cc", ".cpp", ".cxx")

RULES = (
    "wall-clock",
    "rng",
    "hash-order-iter",
    "float-cycle",
    "header-hygiene",
    "summary-name",
)

# bad-allow is reported by the annotation parser, not a scoped rule.
ALL_RULES = RULES + ("bad-allow",)


# --------------------------------------------------------------- scopes --
#
# Scope predicates take the path *relative to the scanned root* with
# "/" separators.  The fixture tree under tools/lint_fixtures/ mirrors
# the src/ layout, so the same predicates govern both.


def _parts(rel):
    return rel.split("/")


def in_wall_scope(rel):
    """wall-clock applies everywhere under the scanned root."""
    return True


def in_rng_scope(rel):
    """rng applies everywhere except the sanctioned generator home."""
    return not rel.endswith("common/rng.h")


def in_hash_iter_scope(rel):
    """Serialization/metrics-export code: obs/ and the trace layer."""
    parts = _parts(rel)
    if "obs" in parts[:-1]:
        return True
    return parts[-1].startswith("trace.") and "engine" in parts[:-1]


def in_float_cycle_scope(rel):
    """Simulated-cycle accounting: the timing layer and the engine."""
    parts = _parts(rel)
    return "timing" in parts[:-1] or "engine" in parts[:-1]


def in_header_scope(rel):
    return rel.endswith((".h", ".hh", ".hpp"))


def in_summary_name_scope(rel):
    """Everywhere but the summary field table's home."""
    return rel != "api/access.h"


SCOPES = {
    "wall-clock": in_wall_scope,
    "rng": in_rng_scope,
    "hash-order-iter": in_hash_iter_scope,
    "float-cycle": in_float_cycle_scope,
    "header-hygiene": in_header_scope,
    "summary-name": in_summary_name_scope,
}


# ------------------------------------------------- comment/string strip --


def strip_code(text):
    """Blank out comment bodies and string/char literal contents.

    Returns a list of lines with the same line numbering as the input;
    stripped characters become spaces so column positions survive.
    Handles //, /* */, "..." and '...' with escapes, and raw strings
    R"delim(...)delim".  Annotations are parsed from the *raw* lines, so
    losing comment text here is exactly the point: rule patterns must
    never fire on prose or log strings.
    """
    out = []
    i = 0
    n = len(text)
    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR, RAW = range(6)
    state = NORMAL
    quote_end = ""
    while i < n:
        c = text[i]
        if state == NORMAL:
            if c == "/" and i + 1 < n and text[i + 1] == "/":
                state = LINE_COMMENT
                out.append("  ")
                i += 2
                continue
            if c == "/" and i + 1 < n and text[i + 1] == "*":
                state = BLOCK_COMMENT
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw string?  Look back for R / u8R / LR / uR / UR.
                m = re.search(r'(?:u8|[uUL])?R$', "".join(out[-3:]))
                if m:
                    j = text.find("(", i)
                    if j != -1:
                        delim = text[i + 1:j]
                        quote_end = ")" + delim + '"'
                        state = RAW
                        out.append('"')
                        i += 1
                        continue
                state = STRING
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = CHAR
                out.append("'")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == LINE_COMMENT:
            if c == "\n":
                state = NORMAL
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == BLOCK_COMMENT:
            if c == "*" and i + 1 < n and text[i + 1] == "/":
                state = NORMAL
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
        elif state in (STRING, CHAR):
            quote = '"' if state == STRING else "'"
            if c == "\\" and i + 1 < n:
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = NORMAL
                out.append(quote)
            else:
                out.append("\n" if c == "\n" else " ")
            i += 1
        else:  # RAW
            if text.startswith(quote_end, i):
                state = NORMAL
                out.append(" " * (len(quote_end) - 1) + '"')
                i += len(quote_end)
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
    return "".join(out).split("\n")


# ------------------------------------------------------------ allowlist --

ANNOT_RE = re.compile(
    r"//\s*buddy-lint:\s*(allow|allow-begin|allow-end|allow-file)"
    r"\(([a-zA-Z0-9_-]+)\)\s*(.*?)\s*$"
)


class Allowances:
    """Per-file allow state parsed from the raw (unstripped) lines."""

    def __init__(self):
        self.lines = {}   # rule -> set of 1-based line numbers allowed
        self.files = set()  # rules allowed for the whole file
        self.bad = []     # (lineno, message) for malformed annotations

    def allows(self, rule, lineno):
        return rule in self.files or lineno in self.lines.get(rule, set())


def parse_allowances(raw_lines):
    a = Allowances()
    open_blocks = {}  # rule -> start line
    for lineno, line in enumerate(raw_lines, 1):
        m = ANNOT_RE.search(line)
        if not m:
            if "buddy-lint:" in line:
                a.bad.append((lineno, "unparseable buddy-lint annotation"))
            continue
        kind, rule, reason = m.group(1), m.group(2), m.group(3)
        if rule not in ALL_RULES:
            a.bad.append((lineno, "unknown rule '%s' in annotation" % rule))
            continue
        if kind == "allow-end":
            if rule not in open_blocks:
                a.bad.append(
                    (lineno, "allow-end(%s) without allow-begin" % rule))
                continue
            start = open_blocks.pop(rule)
            a.lines.setdefault(rule, set()).update(range(start, lineno + 1))
            continue
        if not reason:
            a.bad.append(
                (lineno,
                 "%s(%s) needs a justification string" % (kind, rule)))
            continue
        if kind == "allow":
            # Covers the annotated line and the next (annotation-above
            # style).
            a.lines.setdefault(rule, set()).update({lineno, lineno + 1})
        elif kind == "allow-begin":
            if rule in open_blocks:
                a.bad.append(
                    (lineno, "nested allow-begin(%s)" % rule))
            else:
                open_blocks[rule] = lineno
        else:  # allow-file
            a.files.add(rule)
    for rule, start in sorted(open_blocks.items()):
        a.bad.append((start, "allow-begin(%s) never closed" % rule))
    return a


# ---------------------------------------------------------------- rules --

WALL_PATTERNS = [
    re.compile(r"\bchrono\s*::\s*(?:steady|system|high_resolution)_clock"
               r"\s*::\s*now\b"),
    re.compile(r"\bstd\s*::\s*(?:time|clock)\s*\("),
]

# Bare time(/clock(/... calls need disambiguation from member-function
# *declarations* of the same name (`u64 time() const`): a match directly
# preceded by a type-ish identifier is a declaration, unless that word
# is a keyword after which only a call can follow.
BARE_WALL_RE = re.compile(
    r"(?<![\w.:])(?:time|clock|gettimeofday|clock_gettime|"
    r"timespec_get)\s*\(")
CALL_PREFIX_KEYWORDS = {"return", "case", "throw", "co_return", "co_yield"}


def bare_wall_call(line):
    for m in BARE_WALL_RE.finditer(line):
        prefix = line[:m.start()].rstrip()
        if prefix and (prefix[-1].isalnum() or prefix[-1] == "_"):
            word = re.search(r"[\w]+$", prefix).group(0)
            if word not in CALL_PREFIX_KEYWORDS:
                continue  # looks like a declaration: `u64 time() const`
        return True
    return False

RNG_PATTERNS = [
    re.compile(r"\bstd\s*::\s*random_device\b"),
    re.compile(r"\bstd\s*::\s*(?:mt19937(?:_64)?|default_random_engine|"
               r"minstd_rand0?|ranlux\w+|knuth_b)\b"),
    re.compile(r"(?<![\w.:])s?rand\s*\("),
]

UNORDERED_DECL_RE = re.compile(
    r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<"
    r".*?>\s+(\w+)\s*[;={(\[]")
UNORDERED_TYPE_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;()]*:\s*([^)]*)\)")

FLOAT_RE = re.compile(r"\b(?:float|double|long\s+double)\b")

USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\b")

SUMMARY_TABLE = os.path.join(REPO_ROOT, "src", "api", "access.h")
SUMMARY_ROW_RE = re.compile(r'\{\s*"(\w+)"\s*,\s*&BatchSummary::')
# A literal as strip_code leaves it: its quotes, its body blanked.
STRIPPED_LITERAL_RE = re.compile(r'"( *)"')


@functools.lru_cache(maxsize=None)
def summary_names():
    """The metric names of the kSummaryFields table."""
    with open(SUMMARY_TABLE, encoding="utf-8") as f:
        return set(SUMMARY_ROW_RE.findall(f.read()))


def check_patterns(lines, patterns, rule, message):
    hits = []
    for lineno, line in enumerate(lines, 1):
        for pat in patterns:
            if pat.search(line):
                hits.append((lineno, rule, message))
                break
    return hits


def check_wall_clock(rel, lines, raw):
    msg = ("wall-clock source; simulated time must come from the timing "
           "layer (annotate wall/-instrumentation explicitly)")
    hits = check_patterns(lines, WALL_PATTERNS, "wall-clock", msg)
    seen = {h[0] for h in hits}
    for lineno, line in enumerate(lines, 1):
        if lineno not in seen and bare_wall_call(line):
            hits.append((lineno, "wall-clock", msg))
    hits.sort()
    return hits


def check_rng(rel, lines, raw):
    return check_patterns(
        lines, RNG_PATTERNS, "rng",
        "nondeterministic or unseeded randomness; use the seeded "
        "generator in common/rng.h")


def check_hash_iter(rel, lines, raw):
    hits = []
    # Pass 1: names declared (member or local) as unordered containers.
    names = set()
    for line in lines:
        for m in UNORDERED_DECL_RE.finditer(line):
            names.add(m.group(1))
    name_re = None
    if names:
        name_re = re.compile(
            r"\b(?:%s)\b" % "|".join(re.escape(n) for n in sorted(names)))
    iter_call_re = None
    if names:
        iter_call_re = re.compile(
            r"\b(?:%s)\s*\.\s*(?:begin|end|cbegin|cend|rbegin|rend)\s*\(" %
            "|".join(re.escape(n) for n in sorted(names)))
    msg = ("iteration over a hash-ordered container in serialization/"
           "metrics-export code; hash order is not a stable order — "
           "iterate a sorted view or an ordered container")
    for lineno, line in enumerate(lines, 1):
        flagged = False
        for m in RANGE_FOR_RE.finditer(line):
            range_expr = m.group(1)
            if UNORDERED_TYPE_RE.search(range_expr):
                flagged = True
            elif name_re and name_re.search(range_expr):
                flagged = True
        if not flagged and iter_call_re and iter_call_re.search(line):
            flagged = True
        if flagged:
            hits.append((lineno, "hash-order-iter", msg))
    return hits


def check_float_cycle(rel, lines, raw):
    return check_patterns(
        lines, [FLOAT_RE], "float-cycle",
        "float arithmetic in simulated-cycle accounting code; cycle "
        "totals must stay integer so cross-shard merges are exact")


def check_header_hygiene(rel, lines, raw):
    hits = []
    if not any(re.search(r"^\s*#\s*pragma\s+once\b", l) for l in lines):
        hits.append((1, "header-hygiene", "header is missing #pragma once"))
    for lineno, line in enumerate(lines, 1):
        if USING_NAMESPACE_RE.search(line):
            hits.append((lineno, "header-hygiene",
                         "'using namespace' at header scope leaks into "
                         "every includer"))
    return hits


def check_summary_name(rel, lines, raw):
    names = summary_names()
    hits = []
    for lineno, (line, raw_line) in enumerate(zip(lines, raw), 1):
        # strip_code keeps columns, so the raw line holds each literal's
        # body at the blanked one's position.
        for m in STRIPPED_LITERAL_RE.finditer(line):
            if raw_line[m.start(1):m.end(1)] in names:
                hits.append((lineno, "summary-name",
                             "BatchSummary metric name spelled out; loop "
                             "over kSummaryFields (api/access.h) instead"))
                break
    return hits


# Each checker takes the scope-relative path, the stripped lines and the
# raw lines (only summary-name reads literals, so only it needs them).
CHECKERS = {
    "wall-clock": check_wall_clock,
    "rng": check_rng,
    "hash-order-iter": check_hash_iter,
    "float-cycle": check_float_cycle,
    "header-hygiene": check_header_hygiene,
    "summary-name": check_summary_name,
}


# --------------------------------------------------------------- driver --


class Violation:
    def __init__(self, path, lineno, rule, message):
        self.path = path
        self.lineno = lineno
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.lineno, self.rule,
                                   self.message)


def lint_file(path, rel):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        return [Violation(path, 0, "io", str(e))]
    raw_lines = text.split("\n")
    allowances = parse_allowances(raw_lines)
    stripped = strip_code(text)

    violations = [Violation(path, lineno, "bad-allow", msg)
                  for lineno, msg in allowances.bad]
    for rule in RULES:
        if not SCOPES[rule](rel):
            continue
        for lineno, rname, msg in CHECKERS[rule](rel, stripped, raw_lines):
            if allowances.allows(rname, lineno):
                continue
            violations.append(Violation(path, lineno, rname, msg))
    return violations


def iter_sources(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(SOURCE_EXTS):
                yield os.path.join(dirpath, name)


def lint_paths(paths, scope_root):
    """Lint files/dirs; scope predicates see paths relative to
    @p scope_root."""
    violations = []
    for p in paths:
        files = [p] if os.path.isfile(p) else sorted(iter_sources(p))
        for f in files:
            rel = os.path.relpath(os.path.abspath(f), scope_root)
            rel = rel.replace(os.sep, "/")
            violations.extend(lint_file(f, rel))
    return violations


# ------------------------------------------------------------ self-test --

EXPECT_RE = re.compile(r"//\s*expect-lint:\s*([a-zA-Z0-9_-]+)")
EXPECT_CLEAN_RE = re.compile(r"//\s*expect-clean\b")


def self_test(fixtures_root):
    """Check every fixture produces exactly the rule classes it declares.

    A fixture marks each violation class it seeds with a
    ``// expect-lint: <rule>`` line (one per class) or declares itself
    violation-free with ``// expect-clean``.  The observed *set* of rule
    classes per file must equal the expected set — a rule that fails to
    fire and an unexpected extra finding are both self-test failures.
    """
    if not os.path.isdir(fixtures_root):
        print("self-test: fixtures directory missing: %s" % fixtures_root)
        return 2
    failures = []
    checked = 0
    for path in sorted(iter_sources(fixtures_root)):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        expected = set(EXPECT_RE.findall(text))
        is_clean = bool(EXPECT_CLEAN_RE.search(text))
        if not expected and not is_clean:
            failures.append("%s: fixture declares no expectation "
                            "(add expect-lint/expect-clean)" % path)
            continue
        if expected and is_clean:
            failures.append("%s: both expect-lint and expect-clean" % path)
            continue
        rel = os.path.relpath(path, fixtures_root).replace(os.sep, "/")
        observed_list = lint_file(path, rel)
        observed = {v.rule for v in observed_list}
        if observed != expected:
            failures.append(
                "%s: expected rule classes %s, observed %s\n    %s" % (
                    path,
                    sorted(expected) or "{}",
                    sorted(observed) or "{}",
                    "\n    ".join(str(v) for v in observed_list) or
                    "(no findings)"))
        checked += 1
    if failures:
        print("self-test FAILED (%d fixture(s)):" % len(failures))
        for f in failures:
            print("  " + f)
        return 2
    print("self-test OK: %d fixtures, every violation class flagged" %
          checked)
    return 0


# ----------------------------------------------------------------- main --


def main(argv):
    ap = argparse.ArgumentParser(
        description="repo-specific determinism/hygiene lint")
    ap.add_argument("paths", nargs="*",
                    help="files or directories to lint (default: src/)")
    ap.add_argument("--root", default=REPO_ROOT,
                    help="repo root for scope-relative paths")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture suite under tools/lint_fixtures/")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test(os.path.join(args.root, "tools", "lint_fixtures"))

    paths = args.paths or [os.path.join(args.root, "src")]
    scope_root = os.path.join(os.path.abspath(args.root), "src")
    violations = lint_paths(paths, scope_root)
    for v in violations:
        print(v)
    if violations:
        print("buddy-lint: %d violation(s)" % len(violations))
        return 1
    print("buddy-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
