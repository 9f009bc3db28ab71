"""Team-semantics workbench.

Formulas are evaluated on teams (sets of valuations) rather than single
valuations.  The package provides the three languages (full, the
``&``/``+`` fragment, the ``&``/``|``/``->`` fragment), two independent
evaluation engines, characteristic-formula synthesis for downward-closed
team families, translation between the fragments, and the machinery for
refuting uniform definitions of ``|`` and ``->`` inside the ``&``/``+``
fragment.
"""

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
from .randgen import random_formula, random_team
from .expressiveness import (
    dep_to_inql,
    synth_inql,
    synth_pd,
    theta_star,
    translate,
)
from .definability import (
    ConditionReport,
    ConditionWitness,
    ConnectiveSpec,
    Counterexample,
    SearchReport,
    TruthFunction,
    build_reduced_truth_function,
    builtin_connective,
    check_monotone,
    complete_from_leaves,
    condition_check,
    contra,
    enumerate_contexts,
    find_truth_function,
    is_consistent,
    leaf_tensor_ancestor_check,
    normalize,
    proper_split,
    refute_uniform_definition,
    search_contexts,
    verify_counterexample,
    verify_truth_function,
)

__version__ = "0.1.0"
