"""The public surface: what the package exports, and what the benchmark uses."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permavoid
from permavoid.cli import main

MODULES = ["alphas", "families", "search", "verifier", "words"]

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: Names removed from the package: each job has one entry point left.
DELETED_NAMES = {
    "models",  # blocks_pattern
    "builtin_spec",  # load_spec(name)
    "thue_morse_spec",
    "ternary_thue_spec",
    "thue_morse_prefix",  # load_spec("thue-morse").generate
    "ternary_thue_prefix",
    "alpha_value",  # profile(e).value(a)
    "family_rule",  # enumerate_family
    # structural classifiers: families.py holds the classes as literal index sets
    "has_prefix_square",
    "has_suffix_square",
    "has_gapped_square",
    "has_two_gapped_squares",
    "contains_cube",
    "has_two_squares",
    "contains_gapped_cube",
    "has_middle_square",
}

DELETED_METHODS = {
    "AlphaProfile": ["rep"],  # REPRESENTATIONS[a]
    "PatternExponents": ["is_valid_for_sigma"],  # classify(e).degenerate_case == "none"
    "Word": ["__add__"],
    "Morphism": ["apply", "__call__"],
    "Permutation": [
        "cycles",
        "power_images",
        "power",
        "apply",
        "apply_letters",
        "__call__",
        "letter_order",
        "identity",
        "degree",
    ],
}

#: Attributes the benchmark reaches through library objects.
PERFBENCH_ATTRIBUTES = [
    ("Permutation", "power_tables"),
    ("SearchConfig", "for_params"),
    ("MorphicWordSpec", "generate"),
    ("AvoidanceCertificate", "clean"),
    ("Word", "text"),
]


@pytest.mark.parametrize("module", [None, *MODULES])
def test_every_export_resolves(module):
    mod = permavoid if module is None else importlib.import_module(f"permavoid.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"{mod.__name__}.{name}"
    assert not DELETED_NAMES & set(mod.__all__)
    assert not any(hasattr(mod, name) for name in DELETED_NAMES)


def test_package_export_count():
    assert len(permavoid.__all__) == 38


def test_library_imports_only_the_standard_library():
    # in a fresh interpreter, so modules the test runner loaded do not count
    code = (
        "import sys; before = set(sys.modules); import permavoid; "
        "loaded = {name.split('.')[0] for name in set(sys.modules) - before}; "
        "print(sorted(loaded - set(sys.stdlib_module_names) - {'permavoid'}))"
    )
    src = str(Path(permavoid.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_deleted_methods_are_gone(capsys):
    for cls_name, methods in DELETED_METHODS.items():
        cls = getattr(permavoid, cls_name)
        for method in methods:
            assert method not in vars(cls), f"{cls_name}.{method}"
    assert list(inspect.signature(permavoid.longest_avoiding_word).parameters) == ["config"]
    assert main(["alphas", "--i", "1", "--j", "2", "--k", "3", "--format", "text"]) == 64
    assert "unrecognized arguments: --format" in capsys.readouterr().err


def test_deleted_options_are_gone(capsys):
    # the exponents decide fixed mode, both closure rules always apply, and
    # --len bounds a certificate's scan
    search = ["search", "--m", "3", "--forbidden", "1"]
    verify_word = ["verify-word", "--word", "0000", "--m", "2", "--forbidden", "1"]
    verify_morphic = ["verify-morphic", "--spec", "h-alpha", "--forbidden", "2"]
    for command, deleted in (
        (search, ["--mode", "fixed"]),
        (search, ["--mode", "abstract"]),
        (search, ["--keep-all-equal"]),
        (search, ["--no-gapped-square-completion"]),
        (verify_word, ["--no-keep-all-equal"]),
        (verify_morphic, ["--max-positions", "5"]),
    ):
        assert main(command + deleted) == 64, deleted
        assert f"unrecognized arguments: {' '.join(deleted)}" in capsys.readouterr().err
    assert list(inspect.signature(permavoid.forbidden_patterns).parameters) == ["params"]
    assert list(inspect.signature(permavoid.SearchConfig.for_params).parameters) == [
        "alphabet", "params", "fields",
    ]
    with pytest.raises(TypeError):  # the remaining fields are the constructor's keywords
        permavoid.SearchConfig.for_params(alphabet=3, params={1}, max_positions=5)
    assert "max_positions" not in inspect.signature(permavoid.verify_prefix_avoids).parameters
    with pytest.raises(AttributeError):
        permavoid.Morphism(["01", "10"])  # images come as a mapping only


def _perfbench_imports():
    """(module, name) for every ``from permavoid... import name`` under perfbench/."""
    found = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("permavoid"):
                found.update((node.module, alias.name) for alias in node.names)
    return found


def test_perfbench_names_exist():
    imports = _perfbench_imports()
    assert ("permavoid", "h_alpha_spec") in imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    for cls_name, attribute in PERFBENCH_ATTRIBUTES:
        assert hasattr(getattr(permavoid, cls_name), attribute), f"{cls_name}.{attribute}"
