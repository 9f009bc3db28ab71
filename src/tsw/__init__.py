"""Team-semantics workbench.

Formulas are evaluated on teams (sets of valuations) rather than single
valuations.  The package provides the three languages (full, the
``&``/``+`` fragment, the ``&``/``|``/``->`` fragment), two independent
evaluation engines, characteristic-formula synthesis for downward-closed
team families, translation between the fragments, and the machinery for
refuting uniform definitions of ``|`` and ``->`` inside the ``&``/``+``
fragment.

``definability``, ``expressiveness`` and ``randgen`` run on first use:
``import tsw`` registers them in ``sys.modules`` and as attributes of the
package, and each module's code runs when one of its attributes is first
read.  The names re-exported from them here are served by ``__getattr__``
until the module has run, and bound in the package from then on.
"""

import importlib.util
import sys

from .errors import (
    CapExceededError,
    InternalInvariantError,
    ParseError,
    TswError,
    ValidationError,
)
from .formulas import (
    And,
    Atom,
    Bottom,
    Dep,
    Formula,
    Fragment,
    IDisj,
    Impl,
    NegVar,
    Placeholder,
    PosVar,
    SyntaxTree,
    Tensor,
    Top,
    TreeNode,
    Variable,
    fragment_check,
    is_atom,
    is_context,
    max_placeholder,
    placeholder_indices,
    subformulas,
    substitute,
    syntax_tree,
    to_text,
    variables,
)
from .parsing import parse
from .teams import (
    Team,
    TeamFamily,
    Valuation,
    VarSet,
    enumerate_downward_closed_families,
    enumerate_teams,
    full_team,
    is_downward_closed,
)
from .semantics import (
    CheckOutcome,
    PropertyReport,
    check_basic_properties,
    entails,
    equivalent,
    evaluate,
    truth_set,
    valid,
    var_set,
)

__version__ = "0.1.0"

# The modules that run on first use, with the names re-exported from each.
_LAZY = {
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
_HOME = {name: module for module, names in _LAZY.items() for name in names}


class _Binding:
    """The loader of a module that runs on first use.  Running the module
    binds its re-exported names in the package, so that from then on they
    are read as plain attributes, whoever triggered the run."""

    def __init__(self, loader, names: tuple):
        self.loader = loader
        self.names = names

    def __getattr__(self, name):
        return getattr(self.loader, name)

    def exec_module(self, module):
        self.loader.exec_module(module)
        package = globals()
        for name in self.names:
            package[name] = module.__dict__[name]


def _register(name: str) -> None:
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(_Binding(spec.loader, _LAZY[name]))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in _LAZY:
    _register(_name)
del _name


def __getattr__(name: str):
    """A name re-exported from a module that has not run yet: reading it
    runs the module."""
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[home], name)
