"""The package names that the benchmark script ``bench/run.py`` reads.

The benchmark runs each revision's own sources, so a library name it still
reads but the package no longer has, or a call it makes that the name's
signature no longer takes, fails only there, after ~30 s; this walks the
script's syntax tree and checks each ``<module>.<name>`` it reads, and the
arguments of each such call, in milliseconds.
"""

import ast
import importlib
import inspect
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


def bench_calls() -> list[tuple[str, str, int, list[str]]]:
    """(module, attribute, positional count, keyword names) of each
    ``<module>.<name>(...)`` call in ``bench/run.py``."""
    tree = ast.parse(BENCH.read_text())
    calls = []
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name) and func.value.id in MODULES):
            # a starred argument or ** mapping would hide the call's shape
            assert not any(isinstance(a, ast.Starred) for a in node.args), ast.unparse(node)
            assert all(k.arg for k in node.keywords), ast.unparse(node)
            calls.append((func.value.id, func.attr, len(node.args),
                          [k.arg for k in node.keywords]))
    return calls


def test_bench_calls_bind_to_the_package_signatures():
    calls = bench_calls()
    assert ("cayley", "run_nle", 6, ["path_offset", "scheme"]) in calls
    unbound = []
    for module, attr, n_args, keywords in calls:
        signature = inspect.signature(getattr(importlib.import_module(f"stochlyap.{module}"),
                                              attr))
        try:
            signature.bind(*[None] * n_args, **dict.fromkeys(keywords))
        except TypeError as err:
            unbound.append(f"{module}.{attr}: {err}")
    assert unbound == []
