#!/usr/bin/env python3
"""Fails when a file under src/, tests/, tools/ or bench/ is git-ignored.

An over-broad .gitignore pattern (`core`, meant for core dumps, also
matched every `src/core/` directory) leaves sources untracked without a
word: the tree builds where it was written, but a clean clone lacks the
files. This check lists every tracked or untracked file in those
directories that an ignore rule matches. Python byte-code caches are the
only ignored files they may hold.

Usage: tools/check_ignored_sources.py [repo_root]
Exit status: 0 clean, 1 with findings, 77 when the tree is not a git
checkout (a source tarball has no .gitignore to get wrong).
"""

import os
import subprocess
import sys

DIRS = ["src", "tests", "tools", "bench"]
SKIP_EXIT = 77


def ignored_files(root):
    files = set()
    for tracked in ("--cached", "--others"):
        out = subprocess.run(
            ["git", "-C", root, "ls-files", tracked, "--ignored",
             "--exclude-standard", "-z", "--"] + DIRS,
            capture_output=True, check=True).stdout
        files.update(p for p in out.decode().split("\0") if p)
    return sorted(p for p in files if "__pycache__/" not in p)


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                           os.path.join(os.path.dirname(__file__), ".."))
    if not os.path.exists(os.path.join(root, ".git")):
        print("check_ignored_sources: not a git checkout; skipped")
        return SKIP_EXIT
    try:
        found = ignored_files(root)
    except (OSError, subprocess.CalledProcessError) as error:
        print("check_ignored_sources: git unavailable ({}); skipped".format(
            error))
        return SKIP_EXIT
    for path in found:
        print("git-ignored source file: " + path, file=sys.stderr)
    print("check_ignored_sources: {} ignored file(s) under {}".format(
        len(found), " ".join(DIRS)))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
