import os
import subprocess
import sys
from pathlib import Path

import pytest

import tsw

ROOT = Path(__file__).resolve().parent.parent

# Every name the package exports, by the module that defines it.
EXPORTS = {
    "errors": (
        "CapExceededError",
        "InternalInvariantError",
        "ParseError",
        "TswError",
        "ValidationError",
    ),
    "formulas": (
        "And",
        "Atom",
        "Bottom",
        "Dep",
        "Formula",
        "Fragment",
        "IDisj",
        "Impl",
        "NegVar",
        "Placeholder",
        "PosVar",
        "SyntaxTree",
        "Tensor",
        "Top",
        "TreeNode",
        "Variable",
        "fragment_check",
        "is_atom",
        "is_context",
        "max_placeholder",
        "placeholder_indices",
        "subformulas",
        "substitute",
        "syntax_tree",
        "to_text",
        "variables",
    ),
    "parsing": ("parse",),
    "teams": (
        "Team",
        "TeamFamily",
        "Valuation",
        "VarSet",
        "enumerate_downward_closed_families",
        "enumerate_teams",
        "full_team",
        "is_downward_closed",
    ),
    "semantics": (
        "CheckOutcome",
        "PropertyReport",
        "check_basic_properties",
        "entails",
        "equivalent",
        "evaluate",
        "truth_set",
        "valid",
        "var_set",
    ),
    "randgen": ("random_formula", "random_team"),
    "expressiveness": ("dep_to_inql", "synth_inql", "synth_pd", "theta_star", "translate"),
    "definability": (
        "ConditionReport",
        "ConditionWitness",
        "ConnectiveSpec",
        "Counterexample",
        "SearchReport",
        "TruthFunction",
        "build_reduced_truth_function",
        "builtin_connective",
        "check_monotone",
        "complete_from_leaves",
        "condition_check",
        "contra",
        "enumerate_contexts",
        "find_truth_function",
        "is_consistent",
        "leaf_tensor_ancestor_check",
        "normalize",
        "proper_split",
        "refute_uniform_definition",
        "search_contexts",
        "verify_counterexample",
        "verify_truth_function",
    ),
}

# In a fresh interpreter, before any submodule is touched: each name read
# through the package, then through ``from tsw import``, against the
# defining module's own object.
_CHECK = """
import importlib, sys
import tsw
exports = eval(sys.argv[1])
wrong = []
for module, names in exports.items():
    for name in names:
        first = getattr(tsw, name)
        scope = {}
        exec(f"from tsw import {name}", scope)
        home = importlib.import_module(f"tsw.{module}")
        if not (first is scope[name] is getattr(home, name)):
            wrong.append(name)
print(wrong)
"""


def test_every_export_resolves_to_its_module_object():
    for module, names in EXPORTS.items():
        home = __import__(f"tsw.{module}", fromlist=["_"])
        for name in names:
            scope: dict = {}
            exec(f"from tsw import {name}", scope)
            assert getattr(tsw, name) is scope[name] is getattr(home, name), name
    done = subprocess.run(
        [sys.executable, "-c", _CHECK, repr(EXPORTS)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        tsw.no_such_name
    with pytest.raises(ImportError):
        exec("from tsw import no_such_name", {})
    assert not hasattr(tsw, "Census")
