"""Mutation sweep: change one operator or small constant at a time and see whether the suite notices.

Each target names the code to sweep: ``module:function`` (``Class.method``
for a method) or ``module:first-last`` (a line range), with ``module`` a
file of ``src/kintegration``. A mutant makes one change at one site:

* ``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``is``/``is not`` or
  ``in``/``not in`` swapped;
* ``+``/``-`` or ``&``/``|`` swapped, in an expression or an augmented
  assignment;
* ``and``/``or`` swapped, or a ``not`` dropped;
* an int constant from 0 to 3 raised by one.

Annotations are never mutated. The checkout is copied to ``JOBS``
temporary directories; each mutant's module is written to one of them,
as the module's ``ast.unparse`` with the one change, and the whole suite
runs on that copy with ``pytest -x``. The checkout itself is never written. The
unmutated ``ast.unparse`` runs first, and the sweep stops if it fails.

A mutant is killed when the suite fails (or runs past ``TIMEOUT_S``) and
survives when it passes. A survivor either changes something no test
pins, or changes nothing a caller can see; only reading it can tell.

    python tests/mutate.py fileio:load_graph graph:build_graph     # sweep two functions
    python tests/mutate.py metrics:build_report --list             # print the sites only

It prints one line per mutant and then the survivors, and exits 0 once
the sweep is done, whatever survived.
"""

from __future__ import annotations

import argparse
import ast
import os
import queue
import resource
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "kintegration"
# a suite that runs this long is a mutant stuck in a loop; the unmutated suite takes well under a minute
TIMEOUT_S = 600
# the address space of this process and of every suite it runs, so a mutant that allocates without end fails alone
MEMORY_LIMIT = 4 << 30
# suites run at once, each on its own copy of the checkout
JOBS = 2

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.And: ast.Or, ast.Or: ast.And,
}


class Mutator(ast.NodeTransformer):
    """Walks a module in a fixed order, numbering each site on ``lines``; changes site ``target``, if given."""

    def __init__(self, lines: range, target: int | None = None) -> None:
        self.lines, self.target = lines, target
        self.sites: list[tuple[int, str]] = []

    def _site(self, node: ast.AST, change: str) -> bool:
        if node.lineno not in self.lines:
            return False
        self.sites.append((node.lineno, change))
        return len(self.sites) - 1 == self.target

    def _swap(self, node: ast.AST, op: ast.AST) -> ast.AST:
        swapped = SWAPS[type(op)]
        return swapped() if self._site(node, f"{type(op).__name__} -> {swapped.__name__}") else op

    # annotations are skipped: with postponed evaluation they never run
    def visit_arg(self, node: ast.arg) -> ast.AST:
        return node

    def visit_AnnAssign(self, node: ast.AnnAssign) -> ast.AST:
        if node.value is not None:
            node.value = self.visit(node.value)
        return node

    def visit_FunctionDef(self, node: ast.FunctionDef) -> ast.AST:
        node.returns, returns = None, node.returns
        self.generic_visit(node)
        node.returns = returns
        return node

    def visit_Compare(self, node: ast.Compare) -> ast.AST:
        self.generic_visit(node)
        node.ops = [self._swap(node, op) if type(op) in SWAPS else op for op in node.ops]
        return node

    def visit_BinOp(self, node: ast.BinOp) -> ast.AST:
        self.generic_visit(node)
        if type(node.op) in SWAPS:
            node.op = self._swap(node, node.op)
        return node

    visit_AugAssign = visit_BinOp

    def visit_BoolOp(self, node: ast.BoolOp) -> ast.AST:
        self.generic_visit(node)
        node.op = self._swap(node, node.op)
        return node

    def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.AST:
        self.generic_visit(node)
        if isinstance(node.op, ast.Not) and self._site(node, "not dropped"):
            return node.operand
        return node

    def visit_Constant(self, node: ast.Constant) -> ast.AST:
        if type(node.value) is int and 0 <= node.value <= 3 and self._site(node, f"{node.value} -> {node.value + 1}"):
            return ast.copy_location(ast.Constant(node.value + 1), node)
        return node


def target_lines(tree: ast.Module, where: str) -> range:
    """The lines of a ``first-last`` range, or of the function or method ``where`` names."""
    first, dash, last = where.partition("-")
    if dash and first.isdigit() and last.isdigit():
        return range(int(first), int(last) + 1)
    scope: list[ast.AST] = [tree]
    for name in where.split("."):
        found = [node for parent in scope for node in ast.iter_child_nodes(parent)
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name]
        if not found:
            raise SystemExit(f"no function or class {where!r}")
        scope = found
    return range(scope[0].lineno, scope[0].end_lineno + 1)


class Mutant(NamedTuple):
    module: str  # a file of src/kintegration
    lines: range  # the target's lines
    site: int  # the site's number among the target's sites
    line: int
    change: str

    def source(self, original: str) -> str:
        """The module as ``ast.unparse`` writes it, with this mutant's change."""
        tree = Mutator(self.lines, self.site).visit(ast.parse(original))
        return ast.unparse(ast.fix_missing_locations(tree)) + "\n"

    def __str__(self) -> str:
        return f"{self.module}:{self.line} {self.change}"


def mutants(targets: list[str]) -> list[Mutant]:
    """Every mutant of the targets, in source order per target."""
    found = []
    for spec in targets:
        module, _, where = spec.partition(":")
        tree = ast.parse((ROOT / PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        lines = target_lines(tree, where)
        mutator = Mutator(lines)
        mutator.visit(tree)
        found += [Mutant(f"{module}.py", lines, i, line, change) for i, (line, change) in enumerate(mutator.sites)]
    return found


def run_suite(copy: Path) -> str:
    """"killed", "timeout" or "survived"."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"]
    try:
        proc = subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=TIMEOUT_S)
        outcome = "survived" if proc.returncode == 0 else "killed"
    except subprocess.TimeoutExpired:
        outcome = "timeout"
    # hypothesis keeps failing examples; one mutant's must not decide the next one's outcome
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    return outcome


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("targets", nargs="+", help="module:function, module:Class.method or module:first-last")
    parser.add_argument("--list", action="store_true", help="print the sites and run nothing")
    args = parser.parse_args(argv)
    todo = mutants(args.targets)
    if args.list:
        print("\n".join(map(str, todo)))
        return 0
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))

    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copies: queue.Queue[Path] = queue.Queue()
        for job in range(JOBS):
            copy = Path(tmp) / str(job)
            ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")
            shutil.copytree(ROOT, copy, ignore=ignore)
            copies.put(copy)
        modules = {mutant.module for mutant in todo}
        originals = {module: (ROOT / PACKAGE / module).read_text(encoding="utf-8") for module in modules}

        def run(mutant: Mutant | None) -> str:
            copy = copies.get()
            try:
                # every swept module is unparsed, so only the one change differs from the baseline run
                for module, original in originals.items():
                    changed = mutant is not None and module == mutant.module
                    text = mutant.source(original) if changed else ast.unparse(ast.parse(original)) + "\n"
                    (copy / PACKAGE / module).write_text(text, encoding="utf-8")
                return run_suite(copy)
            finally:
                copies.put(copy)

        if run(None) != "survived":
            print("the unmutated modules, as ast.unparse writes them, fail the suite; nothing was swept")
            return 1
        survivors = []
        with ThreadPoolExecutor(JOBS) as pool:
            for mutant, outcome in zip(todo, pool.map(run, todo)):
                print(f"{outcome:8} {mutant}", flush=True)
                if outcome == "survived":
                    survivors.append(mutant)
    print(f"{len(todo)} mutants, {len(survivors)} survived")
    print("".join(f"  {mutant}\n" for mutant in survivors), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
