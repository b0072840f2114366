#!/usr/bin/env python3
"""xylint — the xydiff project linter.

Enforces repository invariants the compiler cannot (see DESIGN.md §3.11):

  new-delete          No raw `new` / `delete` outside util/arena — node and
                      string memory is arena- or smart-pointer-owned.
  assert-side-effect  `assert(...)` must not mutate state: asserts vanish
                      in NDEBUG builds, taking the side effect with them.
  mutex-naming        Mutex-typed members end in `mutex` / `mutex_`, so
                      XY_GUARDED_BY annotations read unambiguously.
  umbrella-include    src/xydiff.h (the public surface) only re-exports
                      headers that exist, each marked `IWYU pragma: export`,
                      in sorted order.
  naked-thread        No `std::thread` outside util/parallel_for.* — all
                      parallelism goes through ParallelFor, whose
                      fork-join shape joins every worker before it
                      returns.
  void-discard        A `(void)` cast (usually a deliberately dropped
                      [[nodiscard]] Status) needs a justification comment
                      on the same or one of the two preceding lines.
  raw-io              No `std::ofstream`/`std::ifstream`/`std::fstream` and
                      no mutating `std::filesystem` call in src/ or tools/
                      outside src/util/env.cc — all product file I/O goes
                      through the Env (util/env.h), so fault injection and
                      the crash-safety protocol see every operation. Tests
                      are exempt: they simulate *out-of-band* damage (bit
                      flips, truncation) that by definition bypasses Env.
  nondet-seed         No nondeterministic RNG seeding: `std::random_device`,
                      `srand`/`rand`, or seeding an engine from the clock.
                      Every randomized test and fuzz trial must replay from
                      a logged integer seed (util/random.h Rng), so a
                      failure's (seed, profile, size) line is the whole
                      reproducer. Applies to src/, tools/ AND tests/.
                      src/fuzz/ alone is exempt: a campaign may draw its
                      starting seed from the environment, provided every
                      trial seed is derived from it and logged.
  naked-sleep         No `sleep_for`/`sleep_until`/`usleep`/`nanosleep` in
                      src/ or tools/ outside util/retry.{h,cc} — every
                      product-code wait goes through SleepFor (util/retry.h)
                      so backoff stays deadline-aware and the `naked-sleep`
                      grep finds every place time is burned. Tests are
                      exempt: they orchestrate real time on purpose.

  allow-unjustified   Every xylint escape carries its reason inline. A bare
                      `allow(<rule>)` suppresses nothing and is itself a
                      finding; placeholder reasons (TODO/FIXME/short) do
                      not count.

Zero dependencies (stdlib only). Exit 0 = clean, 1 = findings, 2 = usage.
Suppress a single line with `// xylint: allow(<rule>): <why>` on that
line — the trailing justification is mandatory.
"""

import argparse
import os
import re
import sys

RULES = (
    "new-delete",
    "assert-side-effect",
    "mutex-naming",
    "umbrella-include",
    "naked-thread",
    "void-discard",
    "raw-io",
    "nondet-seed",
    "naked-sleep",
    "allow-unjustified",
)

ALLOW_RE = re.compile(r"//\s*xylint:\s*allow\(([a-z-]+)\)(?::\s*(\S.*))?")

# Mirrors the xyverify baseline policy: an escape's reason must be a
# real sentence, not a placeholder.
_PLACEHOLDER_JUSTIFICATIONS = ("todo", "fixme", "unjustified", "xxx")
_MIN_JUSTIFICATION = 15  # characters; shorter is not an explanation


def real_justification(text):
    if text is None:
        return False
    t = text.strip()
    return (len(t) >= _MIN_JUSTIFICATION and
            not t.lower().startswith(_PLACEHOLDER_JUSTIFICATIONS))


def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, preserving line structure.

    Keeps column positions stable (every stripped character becomes a
    space, newlines survive) so findings point at real locations.
    """
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(" " if c != "\n" else "\n")
        i += 1
    return "".join(out)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def allowed(raw_lines, lineno, rule):
    m = ALLOW_RE.search(raw_lines[lineno - 1])
    return (m is not None and m.group(1) == rule and
            real_justification(m.group(2)))


def extract_call(code, start):
    """Returns the balanced (...) argument text starting at `start` ('(')."""
    depth = 0
    for i in range(start, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return code[start + 1:i]
    return code[start + 1:]


NEW_RE = re.compile(r"\bnew\b(?!\s*\()")  # `new (ptr) T` placement is also raw
DELETE_RE = re.compile(r"\bdelete\b(?!\s*\[?\]?\s*;?\s*$)")
RAW_NEW_RE = re.compile(r"\bnew\b")
RAW_DELETE_RE = re.compile(r"(?<!=\s)\bdelete\b")
ASSIGN_RE = re.compile(r"(?<![=!<>+\-*/%&|^])=(?![=])")
MUTEX_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:xydiff::)?"
    r"(?:Mutex|SharedMutex|std::mutex|std::shared_mutex|std::recursive_mutex|"
    r"std::timed_mutex)\s+([A-Za-z_]\w*)\s*(?:;|=|\{)"
)
THREAD_RE = re.compile(r"std::thread\b(?!\s*::)")
STREAM_RE = re.compile(r"std::[oi]?fstream\b")
FS_MUTATION_RE = re.compile(
    r"(?:std::filesystem|fs)::"
    r"(?:create_director(?:y|ies)|remove(?:_all)?|rename|copy(?:_file)?|"
    r"resize_file|permissions|last_write_time)\s*\("
)
VOID_CAST_RE = re.compile(r"\(void\)\s*[A-Za-z_(]")
NAKED_SLEEP_RE = re.compile(
    r"\bsleep_for\s*\(|\bsleep_until\s*\(|\busleep\s*\(|\bnanosleep\s*\(")
NONDET_SEED_RE = re.compile(
    r"std::random_device\b|\bsrand\s*\(|\brand\s*\(\s*\)|"
    # An Rng / <random> engine constructed or re-seeded from the clock
    # ("Rng r(...now())", "mt19937 g{time(0)}", "g.seed(time(0))", ...).
    r"(?:\bRng\b|\bmt19937(?:_64)?\b|\bdefault_random_engine\b|"
    r"\bminstd_rand0?\b|\.seed)[\w\s]*[({][^;)}]*(?:\btime\s*\(|::now\s*\()"
)
INCLUDE_RE = re.compile(r'^#include\s+"([^"]+)"(.*)$')


def lint_file(path, rel, src_root, findings):
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    raw_lines = text.splitlines() or [""]
    code = strip_comments_and_strings(text)
    code_lines = code.splitlines() or [""]

    in_src = rel.startswith("src/")
    in_tools = rel.startswith("tools/")
    is_arena = rel in ("src/util/arena.h", "src/util/arena.cc")
    is_pool = rel in ("src/util/parallel_for.h", "src/util/parallel_for.cc")
    is_env = rel == "src/util/env.cc"
    is_retry = rel in ("src/util/retry.h", "src/util/retry.cc")
    in_fuzz = rel.startswith("src/fuzz/")

    for lineno, line in enumerate(code_lines, start=1):
        # allow-unjustified: a bare escape suppresses nothing (the rule it
        # names still fires above) and is reported in its own right, so
        # the fix is always "write the reason", never "drop the colon".
        m = ALLOW_RE.search(raw_lines[lineno - 1])
        if m and not real_justification(m.group(2)):
            findings.append(Finding(
                rel, lineno, "allow-unjustified",
                "xylint escape needs a trailing justification: "
                '"// xylint: allow({}): <why>"'.format(m.group(1))))

        # new-delete: arena or smart pointers own everything else.
        if (in_src or in_tools) and not is_arena:
            # `= delete` (deleted member) and `delete[]`-free code only;
            # any other `new` / `delete` token is a raw allocation.
            stripped = re.sub(r"=\s*delete\b", "", line)
            if RAW_NEW_RE.search(line) or RAW_DELETE_RE.search(stripped):
                if not allowed(raw_lines, lineno, "new-delete"):
                    findings.append(Finding(
                        rel, lineno, "new-delete",
                        "raw new/delete outside util/arena — use the arena "
                        "or a smart pointer"))

        # assert-side-effect
        for m in re.finditer(r"\bassert\s*\(", line):
            args = extract_call(line, m.end() - 1)
            if "++" in args or "--" in args or ASSIGN_RE.search(args):
                if not allowed(raw_lines, lineno, "assert-side-effect"):
                    findings.append(Finding(
                        rel, lineno, "assert-side-effect",
                        "assert() argument mutates state; NDEBUG builds "
                        "drop the whole expression"))

        # mutex-naming (members and locals alike: the guarded_by text
        # quotes the name, so the convention is global).
        if in_src:
            m = MUTEX_DECL_RE.match(line)
            if m and not m.group(1).endswith(("mutex", "mutex_")):
                if not allowed(raw_lines, lineno, "mutex-naming"):
                    findings.append(Finding(
                        rel, lineno, "mutex-naming",
                        f"mutex '{m.group(1)}' must be named *mutex or "
                        "*mutex_"))

        # naked-thread
        if (in_src or in_tools) and not is_pool:
            if THREAD_RE.search(line):
                if not allowed(raw_lines, lineno, "naked-thread"):
                    findings.append(Finding(
                        rel, lineno, "naked-thread",
                        "std::thread outside util/parallel_for — use "
                        "ParallelFor instead"))

        # raw-io: product code reads and writes only through the Env.
        if (in_src or in_tools) and not is_env:
            if STREAM_RE.search(line) or FS_MUTATION_RE.search(line):
                if not allowed(raw_lines, lineno, "raw-io"):
                    findings.append(Finding(
                        rel, lineno, "raw-io",
                        "raw file I/O outside util/env.cc — route it "
                        "through Env (util/env.h) so fault injection and "
                        "crash-safety cover it"))

        # naked-sleep: product-code waits go through SleepFor so backoff
        # stays deadline-aware (util/retry.h).
        if (in_src or in_tools) and not is_retry:
            if NAKED_SLEEP_RE.search(line):
                if not allowed(raw_lines, lineno, "naked-sleep"):
                    findings.append(Finding(
                        rel, lineno, "naked-sleep",
                        "direct sleep outside util/retry — call SleepFor "
                        "(util/retry.h) so waits stay deadline-aware and "
                        "greppable"))

        # nondet-seed: randomness replays from logged integer seeds.
        if not in_fuzz:
            if NONDET_SEED_RE.search(line):
                if not allowed(raw_lines, lineno, "nondet-seed"):
                    findings.append(Finding(
                        rel, lineno, "nondet-seed",
                        "nondeterministic RNG seeding (random_device / "
                        "rand / clock seed) — derive every seed from a "
                        "logged integer so failures replay"))

        # void-discard: require a nearby justification comment.
        if VOID_CAST_RE.search(line):
            window = raw_lines[max(0, lineno - 3):lineno]
            if not any("//" in w for w in window):
                if not allowed(raw_lines, lineno, "void-discard"):
                    findings.append(Finding(
                        rel, lineno, "void-discard",
                        "(void) discard needs a one-line justification "
                        "comment on this or the two preceding lines"))

    # umbrella-include: only for the public surface header.
    if rel == "src/xydiff.h":
        exported = []
        for lineno, line in enumerate(raw_lines, start=1):
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            header, tail = m.group(1), m.group(2)
            if not os.path.isfile(os.path.join(src_root, header)):
                findings.append(Finding(
                    rel, lineno, "umbrella-include",
                    f'"{header}" does not exist under src/'))
            if "IWYU pragma: export" not in tail:
                findings.append(Finding(
                    rel, lineno, "umbrella-include",
                    f'"{header}" must be marked "// IWYU pragma: export" — '
                    "the umbrella header only re-exports"))
            exported.append((lineno, header))
        headers = [h for _, h in exported]
        if headers != sorted(headers):
            findings.append(Finding(
                rel, exported[0][0] if exported else 1, "umbrella-include",
                "exported includes must be alphabetically sorted"))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", default=None,
                        help="repository root (default: xylint.py/..)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("paths", nargs="*",
                        help="files to lint (default: src/ tools/ tests/)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for r in RULES:
            print(r)
        return 0

    repo = os.path.abspath(
        args.repo or os.path.join(os.path.dirname(__file__), ".."))
    src_root = os.path.join(repo, "src")

    targets = []
    if args.paths:
        targets = [os.path.abspath(p) for p in args.paths]
    else:
        for top in ("src", "tools", "tests"):
            for dirpath, _, names in os.walk(os.path.join(repo, top)):
                for name in sorted(names):
                    if name.endswith((".h", ".cc")):
                        targets.append(os.path.join(dirpath, name))

    findings = []
    for path in sorted(targets):
        rel = os.path.relpath(path, repo).replace(os.sep, "/")
        lint_file(path, rel, src_root, findings)

    for f in findings:
        print(f)
    if findings:
        print(f"xylint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"xylint: {len(targets)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
