import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsw.errors import ParseError, ValidationError
from tsw.formulas import (
    And,
    Bottom,
    Dep,
    Fragment,
    IDisj,
    Impl,
    NegVar,
    Placeholder,
    PosVar,
    Tensor,
    Top,
    Variable,
    fold,
    fragment_check,
    is_context,
    max_placeholder,
    placeholder_indices,
    scan_variables,
    subformulas,
    substitute,
    syntax_tree,
    to_text,
    variables,
)
from tsw.parsing import MAX_NESTING_DEPTH, parse

from .helpers import (
    recursion_headroom,
    reference_fragment_check,
    reference_parse,
    reference_scan_variables,
    reference_syntax_tree,
    st_formula,
)

p, q, r = Variable("p"), Variable("q"), Variable("r")


def test_variable_names():
    assert Variable("p").name == "p"
    assert Variable("x_1").name == "x_1"
    with pytest.raises(ValidationError):
        Variable("1p")
    with pytest.raises(ValidationError):
        Variable("")
    with pytest.raises(ValidationError):
        Variable("p q")


def test_reserved_names():
    # r7 is placeholder syntax, bot/top are keywords
    for name in ("r1", "r7", "r12", "bot", "top"):
        with pytest.raises(ValidationError):
            Variable(name)
    # a bare "r" carries no digits and is an ordinary variable
    assert Variable("r").name == "r"


def test_to_text_pins():
    assert to_text(PosVar(p)) == "p"
    assert to_text(NegVar(p)) == "!p"
    assert to_text(Bottom()) == "bot"
    assert to_text(Top()) == "top"
    assert to_text(Dep((p, q), r)) == "=(p,q;r)"
    assert to_text(Dep((), p)) == "=(p)"
    assert to_text(Placeholder(2)) == "r2"
    assert to_text(And(PosVar(p), PosVar(q))) == "p & q"
    assert to_text(Tensor(And(PosVar(p), PosVar(q)), PosVar(r))) == "(p & q) + r"
    assert to_text(And(PosVar(p), Tensor(PosVar(q), PosVar(r)))) == "p & (q + r)"
    # implication is right-associative, so the right child needs no parens
    assert to_text(Impl(PosVar(p), Impl(PosVar(q), Bottom()))) == "p -> q -> bot"
    assert to_text(Impl(Impl(PosVar(p), PosVar(q)), Bottom())) == "(p -> q) -> bot"


def test_parse_precedence():
    assert parse("p & q + r") == Tensor(And(PosVar(p), PosVar(q)), PosVar(r))
    assert parse("p + q & r") == Tensor(PosVar(p), And(PosVar(q), PosVar(r)))
    assert parse("p + q | r") == IDisj(Tensor(PosVar(p), PosVar(q)), PosVar(r))
    assert parse("p | q -> r") == Impl(IDisj(PosVar(p), PosVar(q)), PosVar(r))
    assert parse("p -> q -> r") == Impl(PosVar(p), Impl(PosVar(q), PosVar(r)))
    assert parse("(p + q) & r") == And(Tensor(PosVar(p), PosVar(q)), PosVar(r))


def test_parse_negation_glyphs():
    assert parse("~p") == parse("!p") == NegVar(p)
    assert to_text(parse("~p")) == "!p"


def test_parse_dep_atom():
    assert parse("=(p,q;r)") == Dep((p, q), r)
    assert parse("=(p)") == Dep((), p)
    assert parse("=( p , q ; r )") == Dep((p, q), r)


def test_parse_placeholders():
    assert parse("r1 + r2") == Tensor(Placeholder(1), Placeholder(2))
    assert parse("r10") == Placeholder(10)


def test_parse_inql_mode_negation():
    # intuitionistic reading: !phi abbreviates phi -> bot, for any phi
    assert parse("!p", mode="inql") == Impl(PosVar(p), Bottom())
    assert parse("!(p | q)", mode="inql") == Impl(IDisj(PosVar(p), PosVar(q)), Bottom())
    # the default mode only negates proposition letters
    with pytest.raises(ParseError):
        parse("!(p & q)")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse("p & ")
    assert "expected an atom, found 'end of input' (at position 4)" == str(exc.value)
    assert exc.value.position == 4
    with pytest.raises(ParseError):
        parse("(p & q")
    with pytest.raises(ParseError):
        parse("p q")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("=(p;q;r)")


def test_to_text_round_trips_long_chains():
    # n operands nest n - 1 deep; ==, != and hash walk with their own
    # stacks, so they answer at the default recursion limit
    for glyph, n in (("&", 5000), ("->", 5000), ("+", 5001)):
        text = f" {glyph} ".join("pqr"[i % 3] for i in range(n))
        phi = parse(text)
        assert to_text(phi) == text
        again = parse(to_text(phi))
        assert again == phi and not (again != phi) and hash(again) == hash(phi)
        # differ at the first operand (deepest in a left chain) or the last
        for other in (parse("t" + text[1:]), parse(text[:-1] + "t")):
            assert other != phi and not (other == phi) and hash(other) != hash(phi)


def test_parse_rejects_nesting_past_the_depth():
    with pytest.raises(ParseError) as exc:
        parse("(" * 600 + "p" + ")" * 600)
    assert exc.value.position == MAX_NESTING_DEPTH
    with pytest.raises(ParseError):
        parse("~" * 600 + "p", mode="inql")
    bound = MAX_NESTING_DEPTH
    assert parse("(" * bound + "p" + ")" * bound) == PosVar(p)
    # the depth counts open parentheses, not all of them
    assert to_text(parse(" & ".join(["(p | q)"] * (2 * bound)))).count("(") == 2 * bound


# the inputs of test_parse_errors_carry_positions and
# test_parse_rejects_nesting_past_the_depth, and their neighbours
PARSE_EDGE_CASES = [
    "p & ",
    "(p & q",
    "p q",
    "",
    "=(p;q;r)",
    "(" * 600 + "p" + ")" * 600,
    "~" * 600 + "p",
    "(" * MAX_NESTING_DEPTH + "p" + ")" * MAX_NESTING_DEPTH,
    "(" * (MAX_NESTING_DEPTH + 1) + "p" + ")" * (MAX_NESTING_DEPTH + 1),
    "~" * MAX_NESTING_DEPTH + "p",
    "~" * (MAX_NESTING_DEPTH + 1) + "p",
    "~(" * 50 + "p" + ")" * 50,
    "~(" * 51 + "p" + ")" * 51,
    " & ".join(["(p | q)"] * (2 * MAX_NESTING_DEPTH)),
    ")",
    "p)",
    "p -> ",
    "- p",
    "!bot",
    "!r1",
    "r0",
    "r01 & r00",
    "=(bot)",
    "=(p,q)",
    "=(p,q;",
    "=p",
    "!(p & q)",
    "p & é",
    "(p + q) &\t\n!q",
]
_MUTATION_CHARS = "pq r0&+|()=;,~!->_AZé"


def _parse_outcome(parser, text, mode):
    try:
        return parser(text, mode)
    except ParseError as exc:
        return type(exc), str(exc), exc.position


def _assert_parses_as_reference(text):
    for mode in ("pt0", "inql"):
        assert _parse_outcome(parse, text, mode) == _parse_outcome(reference_parse, text, mode), (
            text,
            mode,
        )


def _mutated(text, rng):
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(0, len(chars))
        roll = rng.random()
        if roll < 0.4 and k < len(chars):
            del chars[k]
        elif roll < 0.8 or k == len(chars):
            chars.insert(k, rng.choice(_MUTATION_CHARS))
        else:
            chars[k] = rng.choice(_MUTATION_CHARS)
    return "".join(chars)


def test_parse_matches_the_reference_on_edge_cases():
    for text in PARSE_EDGE_CASES:
        _assert_parses_as_reference(text)


@settings(max_examples=300)
@given(st_formula([p, q, r], Fragment.PT0), st.integers(0, 2**32))
def test_parse_matches_the_reference_on_formulas_and_mutations(phi, seed):
    text = to_text(phi)
    _assert_parses_as_reference(text)
    rng = random.Random(seed)
    for _ in range(5):
        _assert_parses_as_reference(_mutated(text, rng))


def test_parse_does_not_recurse():
    # 5,000 connectives of all four kinds between units, some of which nest
    # as deep as the parser admits
    rng = random.Random(7)
    deep = "(" * MAX_NESTING_DEPTH + "p + q" + ")" * MAX_NESTING_DEPTH
    units = {
        "pt0": ["p", "!q", "=(p;q)", "(r | top)", "r1", deep],
        "inql": ["p", "~q", "~(r -> p)", "~" * MAX_NESTING_DEPTH + "q", deep],
    }
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    for mode, pool in units.items():
        parts = [rng.choice(pool)]
        for _ in range(5000):
            parts += [rng.choice(("&", "+", "|", "->")), rng.choice(pool)]
        text = " ".join(parts)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            phi = parse(text, mode)
        finally:
            sys.setrecursionlimit(limit)
        # reference_parse recurses per nesting level only, to_text not at all
        assert to_text(phi) == to_text(reference_parse(text, mode))


@settings(max_examples=200)
@given(st_formula([p, q, r], Fragment.PT0))
def test_parse_roundtrip(phi):
    assert parse(to_text(phi)) == phi


@given(st_formula([p, q], Fragment.INQL, max_leaves=5))
def test_inql_strategy_respects_fragment(phi):
    assert fragment_check(phi, Fragment.INQL)
    assert fragment_check(phi, Fragment.PT0)


def test_fragment_check_pins():
    assert fragment_check(Tensor(PosVar(p), NegVar(q)), Fragment.PD)
    assert not fragment_check(IDisj(PosVar(p), PosVar(q)), Fragment.PD)
    assert not fragment_check(Impl(PosVar(p), Bottom()), Fragment.PD)
    assert not fragment_check(NegVar(p), Fragment.INQL)
    assert not fragment_check(Dep((), p), Fragment.INQL)
    assert not fragment_check(Tensor(PosVar(p), PosVar(q)), Fragment.INQL)
    assert fragment_check(Impl(IDisj(PosVar(p), Bottom()), PosVar(q)), Fragment.INQL)
    # top and placeholders pass everywhere
    for frag in Fragment:
        assert fragment_check(Top(), frag)
        assert fragment_check(Placeholder(1), frag)


def test_variables_sorted_and_deduped():
    phi = parse("q & (p + q) & =(p;r)")
    assert variables(phi) == (p, q, r)
    assert variables(Bottom()) == ()


def test_subformulas_postorder_dedup():
    phi = parse("(p & q) + r")
    texts = [to_text(f) for f in subformulas(phi)]
    assert texts == ["p", "q", "p & q", "r", "(p & q) + r"]
    # shared structure appears once
    twice = parse("(p & q) + (p & q)")
    assert [to_text(f) for f in subformulas(twice)] == ["p", "q", "p & q", "(p & q) + (p & q)"]


def test_placeholder_bookkeeping():
    c = parse("(r1 & p) + r2")
    assert placeholder_indices(c) == (1, 2)
    assert is_context(c)
    assert max_placeholder(c) == 2
    assert not is_context(parse("p & q"))
    assert max_placeholder(parse("p")) == 0


def test_substitute():
    c = parse("(r1 & p) + r2")
    got = substitute(c, [NegVar(q), Bottom()])
    assert to_text(got) == "(!q & p) + bot"
    # extra entries are tolerated, missing ones are not
    assert substitute(parse("r1"), [PosVar(p), PosVar(q)]) == PosVar(p)
    with pytest.raises(ValidationError):
        substitute(c, [PosVar(p)])
    # repeated placeholders share one substituent
    twice = substitute(parse("r1 + r1"), [PosVar(p)])
    assert to_text(twice) == "p + p"


def test_syntax_tree_shape():
    tree = syntax_tree(parse("(r1 & p) + r2"))
    assert [n.id for n in tree.nodes] == [0, 1, 2, 3, 4]
    assert to_text(tree.nodes[0].formula) == "(r1 & p) + r2"
    assert tree.nodes[0].parent is None
    assert tree.nodes[1].parent == 0
    assert tree.nodes[0].children == (1, 4)
    assert tree.nodes[1].children == (2, 3)
    leaf_texts = sorted(to_text(n.formula) for n in tree.leaves())
    assert leaf_texts == ["p", "r1", "r2"]
    assert [tree.nodes[i].depth for i in (0, 1, 2)] == [0, 1, 2]


def test_syntax_tree_builds_long_chains():
    # at the default recursion limit; a recursive build fails here
    tree = syntax_tree(parse(" & ".join(["p"] * 5000)))
    assert len(tree) == 9999
    assert [n.id for n in tree.nodes] == list(range(9999))
    assert tree.nodes[0].children == (1, 9998)
    assert tree.nodes[9998].parent == 0 and tree.nodes[9998].depth == 1
    assert max(n.depth for n in tree.nodes) == 4999
    assert sum(1 for _ in tree.leaves()) == 5000


@settings(max_examples=200)
@given(st_formula([p, q, r], Fragment.PT0, max_leaves=12))
def test_syntax_tree_texts_match_to_text(phi):
    tree = syntax_tree(phi)
    assert tree.texts() == [to_text(n.formula) for n in tree.nodes]


def test_syntax_tree_placeholder_leaves_and_ancestors():
    tree = syntax_tree(parse("(r1 & p) + r2"))
    ph = tree.placeholder_leaves()
    assert sorted(to_text(n.formula) for n in ph) == ["r1", "r2"]
    r1_node = next(n for n in ph if n.formula == Placeholder(1))
    anc = tree.ancestors(r1_node.id)
    # nearest first
    assert [to_text(n.formula) for n in anc] == ["r1 & p", "(r1 & p) + r2"]


def test_placeholder_index_validation():
    with pytest.raises(ValidationError):
        Placeholder(0)
    with pytest.raises(ValidationError):
        Placeholder(-3)


def test_dep_atom_accepts_degenerate_shapes():
    # repeated arguments and target-among-arguments are harmless; the
    # satisfaction clause quantifies over whatever tuple is given
    assert to_text(Dep((p, p), q)) == "=(p,p;q)"
    assert to_text(Dep((p,), p)) == "=(p;p)"
    assert parse("=(p,p;q)") == Dep((p, p), q)


def test_fold_visits_in_post_order():
    calls = []
    phi = parse("(p & r1) + (q -> p)")
    text = fold(
        phi,
        lambda f: calls.append(to_text(f)) or to_text(f),
        lambda f, a, b: calls.append(type(f).__name__) or f"[{a} {type(f).__name__} {b}]",
    )
    assert calls == ["p", "r1", "And", "q", "p", "Impl", "Tensor"]
    assert text == "[[p And r1] Tensor [q Impl p]]"
    assert fold(Top(), lambda f: 1, None) == 1


def test_bottom_up_walks_do_not_recurse():
    # 5,000 conjuncts nest 4,999 deep; each walk keeps its own stack
    from tsw.definability import is_consistent, normalize
    from tsw.semantics import alternatives, check_basic_properties, var_set

    unit = "(r1 + (p & !p))"
    context = parse(" & ".join([unit] * 5000))
    with recursion_headroom(50):
        used, placeholders = scan_variables(context)
        pd = fragment_check(context, Fragment.PD)
        size = fold(context, lambda f: 1, lambda f, a, b: a + b + 1)
        instance = substitute(context, [parse("q + !p")])
        subs = subformulas(context)
        consistent = is_consistent(context)
        normal = normalize(context)
        alts = alternatives(instance, var_set(instance))
        report = check_basic_properties(instance)
    assert (used, placeholders, pd) == ({p}, {1}, True)
    assert size == len(syntax_tree(context)) == 5000 * 5 + 4999
    assert to_text(instance) == " & ".join(["(q + !p + (p & !p))"] * 5000)
    # r1, p, !p, p & !p, the unit, then one prefix of each longer length
    assert len(subs) == 5 + 4999 and to_text(subs[4]) == unit[1:-1]
    assert consistent
    assert to_text(normal) == " & ".join(["r1"] * 5000)
    assert alts == [0b1101]
    assert report.ok


def _assert_census_and_tree_match_the_references(phi):
    used, placeholders = reference_scan_variables(phi)
    tree = reference_syntax_tree(phi)
    assert scan_variables(phi) == (used, placeholders), to_text(phi)
    assert variables(phi) == tuple(sorted(used))
    assert placeholder_indices(phi) == tuple(sorted(placeholders))
    assert is_context(phi) == bool(placeholders)
    assert max_placeholder(phi) == max(placeholders, default=0)
    _, _, types = phi._census
    assert len(types) == len(set(types)) and set(types) == {type(n.formula) for n in tree.nodes}
    for fragment in Fragment:
        assert fragment_check(phi, fragment) == reference_fragment_check(phi, fragment)
    assert syntax_tree(phi) == tree


def test_census_and_tree_match_their_references():
    from tsw.definability import enumerate_contexts
    from tsw.randgen import random_formula

    pool = [parse(t) for t in ("r1", "r2", "bot", "top", "p", "!p", "=(p)")]
    contexts = enumerate_contexts(pool, 7)
    for phi in contexts:
        _assert_census_and_tree_match_the_references(phi)
    assert len(contexts) == 15_015
    rng = random.Random(15)
    fragments = list(Fragment)
    for i in range(2000):
        vs = [Variable(n) for n in "pqrs"[: rng.choice((3, 4))]]
        phi = random_formula(rng, vs, fragment=fragments[i % 3])
        _assert_census_and_tree_match_the_references(phi)


def test_what_a_node_keeps_is_not_seen():
    texts = ("bot", "r1 + (p & !p)", "=(p,q;r) | (p -> q)", "(r1 & =(p)) + r2")
    for text in texts:
        phi = parse(text)
        before = (hash(phi), repr(phi), to_text(phi), pickle.dumps(phi))
        tree = syntax_tree(phi)
        scan_variables(phi)
        for fragment in Fragment:
            fragment_check(phi, fragment)
        assert syntax_tree(phi) is tree
        assert phi == parse(text) and parse(text) == phi
        assert (hash(phi), repr(phi), to_text(phi), pickle.dumps(phi)) == before
        again = pickle.loads(pickle.dumps(phi))
        assert again == phi and hash(again) == hash(phi)
        assert syntax_tree(again) is not tree and syntax_tree(again) == tree
        assert hash(syntax_tree(again)) == hash(tree)
        for value in (tree, tree.nodes[-1]):
            assert pickle.loads(pickle.dumps(value)) == value
    # the value semantics of each class: its repr, fixed fields, no __dict__
    # on a node, and equal copies through pickle
    vp, vq = repr(p), repr(q)
    leaf = "TreeNode(id=0, formula=Bottom(), parent=None, children=(), depth=0)"
    values = [
        (p, "Variable(name='p')", "name"),
        (PosVar(p), f"PosVar(var={vp})", "var"),
        (NegVar(q), f"NegVar(var={vq})", "var"),
        (Bottom(), "Bottom()", "left"),
        (Top(), "Top()", "left"),
        (Dep((p,), q), f"Dep(args=({vp},), target={vq})", "target"),
        (Placeholder(2), "Placeholder(index=2)", "index"),
        (And(PosVar(p), Top()), f"And(left=PosVar(var={vp}), right=Top())", "left"),
        (Tensor(Bottom(), Placeholder(1)), "Tensor(left=Bottom(), right=Placeholder(index=1))",
         "left"),
        (IDisj(PosVar(p), NegVar(q)), f"IDisj(left=PosVar(var={vp}), right=NegVar(var={vq}))",
         "right"),
        (Impl(Dep((), p), Top()), f"Impl(left=Dep(args=(), target={vp}), right=Top())", "right"),
        (syntax_tree(Bottom()).nodes[0], leaf, "depth"),
        (syntax_tree(Bottom()), f"SyntaxTree(nodes=({leaf},), root=0)", "root"),
    ]
    for value, text, field in values:
        assert repr(value) == text
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert repr(value) == text and not hasattr(value, "__dict__")
        again = pickle.loads(pickle.dumps(value))
        assert again == value and not (again != value) and hash(again) == hash(value)
    assert sorted([r, Variable("a"), q, p]) == [Variable("a"), p, q, r]
    assert max(p, r) == r and p <= p < q and q >= q > p
    assert And(PosVar(p), PosVar(q)) != Tensor(PosVar(p), PosVar(q))
    assert PosVar(p) != NegVar(p) and Bottom() != Top() and Placeholder(1) != Placeholder(2)


def test_node_alternatives_leave_the_context_census_alone():
    from tsw.semantics import node_alternatives
    from tsw.teams import Team, VarSet

    context = parse("(r1 & p) + r2")
    census = scan_variables(context)
    team = Team(VarSet.of("p", "q", "s"), 0b10101010)  # the four rows with p
    alts = node_alternatives(syntax_tree(context), [parse("q"), parse("=(s;q)")], team)
    assert alts[0] == [team.mask]
    assert scan_variables(context) == census == ({p}, {1, 2})
    assert scan_variables(context)[0] is census[0]
