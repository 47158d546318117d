#!/usr/bin/env python3
"""Survey the MathCheckError raise sites: can each check fail a test?

Copies the repository to a temporary directory, then, one site at a
time, turns one `raise MathCheckError(...)` statement under src/linfty
into `pass` and runs `python -m pytest -x -q` there.  A
`raise MathCheckError(...) from None` statement is replaced whole, its
cause included, so that the mutant stays valid Python.  Prints one line
per site:

  killed    a test fails: some test needs the check to fire
  survived  every test passes with the check disabled
  allowed   survived, and ALLOWED below says why that is acceptable
  invalid   the mutant does not compile, or pytest could not run

Stdlib only and not part of the test suite: one sequential pytest run per
site, about 15 minutes on a 2-core machine.  Exits 1 when a site
survived without an ALLOWED entry or a mutant was invalid, 2 when the
unmutated suite already fails.

Usage: python scripts/raise_survey.py
"""

import ast
from pathlib import Path
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = Path(__file__).resolve().parent.parent

# (file name, error text as error_text gives it) -> why surviving the
# suite is fine.
# Empty: every site has a test that makes it fire.
ALLOWED = {}


def raise_sites(source):
    """The raise MathCheckError(...) statements of a module, in line order."""
    for node in sorted(ast.walk(ast.parse(source)),
                       key=lambda n: getattr(n, "lineno", 0)):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                and getattr(node.exc.func, "id", None) == "MathCheckError":
            yield node


def error_text(node):
    """A site's error text as written, each f-string field as {expression}."""
    first = node.exc.args[0] if node.exc.args else None
    if isinstance(first, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant)
                       else "{" + ast.unparse(part.value) + "}"
                       for part in first.values)
    if isinstance(first, ast.Constant):
        return str(first.value)
    return ast.unparse(first) if first else ""


def disabled(source, node):
    """source with the raise statement of node replaced by pass.

    ast offsets count UTF-8 bytes, so the splice works on bytes.
    """
    lines = source.encode("utf-8").splitlines(keepends=True)
    head = lines[node.lineno - 1][:node.col_offset]
    tail = lines[node.end_lineno - 1][node.end_col_offset:]
    lines[node.lineno - 1:node.end_lineno] = [head + b"pass" + tail]
    return b"".join(lines).decode("utf-8")


def _left_behind(directory, names):
    """Caches and benchmark output stay behind; .git comes along, since
    the bench_pairs tests export a ref with git archive."""
    skip = {"__pycache__", ".pytest_cache", ".hypothesis"}
    if Path(directory) == ROOT / "perfbench":
        skip.add("out")
    return [name for name in names if name in skip]


def run_suite(tree):
    # no bytecode cache: two mutants of one module may share size and mtime
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
        cwd=tree, env=env, capture_output=True, text=True).returncode


def main():
    with tempfile.TemporaryDirectory(prefix="raise_survey_") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=_left_behind)
        if run_suite(tree) != 0:
            print("the unmutated test suite fails; nothing to survey")
            return 2
        counts = {}
        for path in sorted((tree / "src" / "linfty").glob("*.py")):
            source = path.read_text(encoding="utf-8")
            for node in raise_sites(source):
                text = error_text(node)
                mutant = disabled(source, node)
                try:
                    compile(mutant, str(path), "exec")
                except SyntaxError:
                    verdict = "invalid"
                else:
                    path.write_text(mutant, encoding="utf-8")
                    code = run_suite(tree)
                    path.write_text(source, encoding="utf-8")
                    verdict = {0: "survived", 1: "killed"}.get(code, "invalid")
                reason = ALLOWED.get((path.name, text))
                if verdict == "survived" and reason:
                    verdict = "allowed"
                counts[verdict] = counts.get(verdict, 0) + 1
                print(f"{verdict:9} {path.name}:{node.lineno}  {text!r}"
                      + (f"  ({reason})" if verdict == "allowed" else ""),
                      flush=True)
        print(", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
        return 1 if counts.get("survived") or counts.get("invalid") else 0


if __name__ == "__main__":
    sys.exit(main())
