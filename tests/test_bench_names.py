"""The package names that the benchmark script ``bench/run.py`` reads.

The benchmark runs each revision's own sources, so a library name it still
reads but the package no longer has fails only there, after ~30 s; this
walks the script's syntax tree and checks each ``<module>.<name>`` it reads
in milliseconds.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench" / "run.py"
MODULES = ("analysis", "cayley", "cli", "integrator", "models", "smallmat", "wiener")


def bench_names() -> set[tuple[str, str]]:
    """The (module, attribute) pairs of ``bench/run.py``'s ``<module>.<name>``
    reads, with module one of the package modules it imports by name."""
    tree = ast.parse(BENCH.read_text())
    return {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in MODULES
    }


def test_bench_reads_only_names_the_package_has():
    names = bench_names()
    assert ("cayley", "run_nle") in names  # the walk sees the script's reads
    # as the script does, from the import system rather than package attributes
    missing = sorted(
        f"{module}.{attr}"
        for module, attr in names
        if not hasattr(importlib.import_module(f"stochlyap.{module}"), attr)
    )
    assert missing == []
