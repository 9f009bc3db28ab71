"""The four workloads: their inputs, their operations and their checks.

Each workload turns a seed into inputs (``build``, no ``tsw`` involved),
binds them to the freshly imported package (``prepare``), and exposes one
round of operations as zero-argument callables in ``ops``.  Every call
goes through an attribute of the ``tsw`` package or one of its modules,
looked up at call time, so the tracer's wrappers see it.  ``digest``
turns a result into a plain value; ``check`` compares the digests of one
round with the oracle and returns a list of problems.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from array import array

import gen
import oracle

NAMES2 = ("p", "q")
NAMES3 = ("p", "q", "r")
NAMES4 = ("p", "q", "r", "s")
SEARCH_POOL = "r1,r2,bot,top,p,!p,=(p)"
INSTANCE_POOL = ("bot", "top", "p", "!p", "=(p)")
# Battery order of the refutation argument, per connective; a
# counterexample's position in it is how many vectors were tried.
BATTERY = {
    "or": ("bot,top", "top,bot", "top,top", "theta,theta"),
    "imp": ("bot,bot", "top,bot", "top,top", "top,theta"),
}

_TAGS = {"And": "&", "Tensor": "+", "IDisj": "|", "Impl": "->"}


def from_tsw(phi):
    """The oracle form of a ``tsw`` formula, read off its public fields."""
    done, stack = [], [(phi, False)]
    while stack:
        f, expanded = stack.pop()
        kind = type(f).__name__
        if kind in _TAGS:
            if expanded:
                right, left = done.pop(), done.pop()
                done.append((_TAGS[kind], left, right))
            else:
                stack += [(f, True), (f.right, False), (f.left, False)]
        elif kind == "PosVar":
            done.append(("var", f.var.name))
        elif kind == "NegVar":
            done.append(("neg", f.var.name))
        elif kind == "Bottom":
            done.append(("bot",))
        elif kind == "Top":
            done.append(("top",))
        elif kind == "Dep":
            done.append(("dep", tuple(a.name for a in f.args), f.target.name))
        elif kind == "Placeholder":
            done.append(("ph", f.index))
        else:
            raise TypeError(f"not a formula: {f!r}")
    return done[0]


def ftext(phi):
    """Canonical digest of a ``tsw`` formula."""
    return oracle.text(from_tsw(phi))


def _downward_closed(masks):
    return 0 in masks and all(
        m & ~(1 << p) in masks for m in masks for p in range(m.bit_length()) if m >> p & 1
    )


def counterexample_ok(ctx, name, inst, names, mask, lhs, rhs):
    """Whether a counterexample's two verdicts are the oracle's, and differ."""
    want_lhs = oracle.holds(oracle.substitute(ctx, inst), mask, names)
    op = "|" if name == "or" else "->"
    want_rhs = oracle.holds((op, inst[0], inst[1]), mask, names)
    return (lhs, rhs) == (want_lhs, want_rhs) and lhs != rhs


def _label(formulas):
    kinds = {("bot",): "bot", ("top",): "top"}
    return ",".join(kinds.get(f, "theta") for f in formulas)


def cheapest_per_kind(entries):
    """Indices of the shortest entry of each kind (``entry[0]``): a warm-up
    whose cost does not depend on the seed."""
    best = {}
    for i, entry in enumerate(entries):
        if entry[0] not in best or len(repr(entry)) < len(repr(entries[best[entry[0]]])):
            best[entry[0]] = i
    return sorted(best.values())


class Workload:
    name = ""

    def __init__(self, seed, root):
        self.seed = seed
        self.root = root
        self.ops = []
        # indices of the warm-up operations, chosen so that their cost does
        # not depend on the seed
        self.warm = []
        # indices of the operations that fail today because of a known fault;
        # any other failure is a check problem
        self.kept_failures = set()

    def build(self):
        """Make the inputs from the seed."""
        raise NotImplementedError

    def prepare(self, api):
        """Bind the inputs to a freshly imported ``tsw``; fill ``self.ops``."""
        raise NotImplementedError

    def inprocess_ops(self):
        """The operations the traced round runs inside this process."""
        return self.ops

    def digest(self, i, result):
        """A plain, comparable value for the result of operation ``i``."""
        raise NotImplementedError

    def check(self, digests):
        raise NotImplementedError

    def layer_metrics(self, digests):
        """Per-layer figures read off one round's results (0 where the
        workload does not reach the layer)."""
        return {"definability.battery_vectors_per_context": 0.0}


# --- point_queries ----------------------------------------------------------


class PointQueries(Workload):
    """``parse`` then ``evaluate`` on a team, or ``valid``, for seeded PT0
    formulas; plus the deep formulas that fail today."""

    name = "point_queries"
    N3 = 4800
    N4 = 480
    DEPTH3 = (2, 3, 3, 3)
    ROWS4 = (8, 9, 10)
    DEEP = (
        ("valid", gen.chain(500)),
        ("valid", gen.chain(1000)),
        ("to_text", gen.chain(800)),
        ("parse", "(" * 600 + "p" + ")" * 600),
    )

    def build(self):
        r3 = gen.rng_for(self.seed, "point3")
        r4 = gen.rng_for(self.seed, "point4")
        self.queries = []
        for i in range(self.N3):
            t = gen.text(gen.formula(r3, NAMES3, self.DEPTH3[i % len(self.DEPTH3)]))
            if i % 4 == 3:
                self.queries.append(("valid", t, None, None))
            else:
                self.queries.append(("eval", t, NAMES3, gen.team(r3, 3, 1 + i % 8)))
        for i in range(self.N4):
            t = gen.text(gen.formula(r4, NAMES4, 3, splits=1))
            rows = self.ROWS4[i % len(self.ROWS4)]
            self.queries.append(("eval", t, NAMES4, gen.team(r4, 4, rows)))
        gen.rng_for(self.seed, "order").shuffle(self.queries)
        self.warm = cheapest_per_kind([((q[0], len(q[2] or ())), q[1]) for q in self.queries])
        self.queries += [(kind, t, None, None) for kind, t in self.DEEP]
        self.kept_failures = set(range(len(self.queries) - len(self.DEEP), len(self.queries)))

    def prepare(self, api):
        self.ops = [self._op(api, q) for q in self.queries]

    @staticmethod
    def _op(api, query):
        kind, t, names, mask = query
        if kind == "eval":
            team = api.Team(api.VarSet.of(*names), mask)

            def op():
                phi = api.parse(t)
                return phi, api.evaluate(phi, team)

        elif kind == "valid":

            def op():
                phi = api.parse(t)
                return phi, api.valid(phi)

        elif kind == "to_text":

            def op():
                return api.to_text(api.parse(t))

        else:

            def op():
                return api.parse(t)

        return op

    def digest(self, i, result):
        kind = self.queries[i][0]
        if kind in ("eval", "valid"):
            return ftext(result[0]), result[1]
        if kind == "to_text":
            return result
        return ftext(result)

    def check(self, digests):
        problems = []
        for (kind, t, names, mask), got in zip(self.queries, digests):
            if got[0] == "error":
                continue
            ast = oracle.parse(t)
            if kind == "to_text":
                if oracle.text(oracle.parse(got)) != oracle.text(ast):
                    problems.append(f"to_text changed the formula: {t[:60]}")
                continue
            text = got if kind == "parse" else got[0]
            if text != oracle.text(ast):
                problems.append(f"parse disagrees with the oracle on {t[:60]}")
                continue
            if kind == "valid":
                names = oracle.variables(ast)
                mask = oracle.full(len(names))
            if kind in ("eval", "valid") and got[1] != oracle.holds(ast, mask, names):
                problems.append(f"{kind} disagrees with the oracle on {t} / {mask}")
        return problems


# --- truth_sets -------------------------------------------------------------


class TruthSets(Workload):
    """Whole-truth-set work: ``truth_set``, ``entails`` and ``equivalent``
    at 3 and (forced) 4 variables, synthesis over every family on {p, q},
    and translation at 2-3 variables."""

    name = "truth_sets"
    # At 4 variables one truth set costs from 2 ms to 0.4 s, by how many
    # teams it holds, so these shapes are fixed (small, middling and full
    # families) and the seed only renames and flips their variables.
    TRUTH4 = (
        "(p + q) + (r + s)",
        "=(p;q) + =(r;s)",
        "(p -> q) + (=(r) & s)",
        "(p | q) + !r",
        "=(p,q;r) & (s + !p)",
        "(p + !p) -> (q | =(r;s))",
        "!q + top + (q | =(s))",
        "(=(p) | =(q)) + (r & !s)",
        "(p & q) + (r | =(s))",
        "(p -> =(q)) & (r + s)",
    )

    def build(self):
        # The median operation falls between the cheap kinds (synthesis) and
        # the dear ones (truth sets, entailment), so it moved with how many
        # cheap formulas a seed happened to draw.  The formula shapes are
        # therefore drawn from one stream for every seed; the seed renames
        # and flips their variables and sets the order of the operations.
        shapes = gen.rng_for("all seeds", "truth shapes")
        r = gen.rng_for(self.seed, "truth")

        def renamed(names, *phis):
            return tuple(gen.text(phi) for phi in gen.relabel(phis, r, names))

        q = []
        for _ in range(240):
            (t,) = renamed(NAMES3, gen.formula(shapes, NAMES3, 3))
            q.append(("truth_set", t, NAMES3))
        for t in self.TRUTH4:
            (t,) = renamed(NAMES4, oracle.parse(t))
            q.append(("truth_set", t, NAMES4))
        for i in range(288):
            names = NAMES3 if i % 6 else NAMES4
            depth = 3 if names is NAMES3 else 2
            a = gen.formula(shapes, names, depth)
            b = gen.formula(shapes, names, depth)
            # half the pairs hold by construction, so both verdicts occur
            if i % 4 == 0:
                b = ("|", a, b)
            elif i % 4 == 1 and a[0] in oracle.BINARY:
                b = (a[0], a[2], a[1])
            kind = "entails" if i % 2 == 0 else "equivalent"
            q.append((kind, renamed(names, a, b), names))
        for i in range(144):
            names = NAMES2 if i % 3 else NAMES3
            (t,) = renamed(names, gen.formula(shapes, names, 3))
            q.append(("translate", (t, "pd" if i % 2 else "inql"), names))
        self.fixed = q
        self.families = None

    def prepare(self, api):
        fams = list(api.enumerate_downward_closed_families(api.VarSet.of(*NAMES2)))
        self.families = fams
        self.queries = list(self.fixed)
        for k in range(len(fams)):
            self.queries.append(("synth_pd", k, NAMES2))
            self.queries.append(("synth_inql", k, NAMES2))
        gen.rng_for(self.seed, "order").shuffle(self.queries)
        self.warm = cheapest_per_kind([((q[0], len(q[2])), q[1]) for q in self.queries])
        self.ops = [self._op(api, q) for q in self.queries]

    def _op(self, api, query):
        kind, arg, names = query
        vs = api.VarSet.of(*names)
        force = len(names) == 4
        if kind == "truth_set":
            return lambda: api.truth_set(api.parse(arg), vs, force=force)
        if kind in ("entails", "equivalent"):
            a, b = arg
            return lambda: getattr(api, kind)(api.parse(a), api.parse(b), force=force)
        if kind == "translate":
            t, target = arg
            return lambda: api.translate(api.parse(t), target)
        family = self.families[arg]
        return lambda: getattr(api, kind)(family)

    def digest(self, i, result):
        kind = self.queries[i][0]
        if kind == "truth_set":
            # packed, so that keeping a round of digests costs little memory
            return tuple(v.name for v in result.vars), array("H", sorted(result.masks)).tobytes()
        if kind in ("entails", "equivalent"):
            return result
        return ftext(result)

    def check(self, digests):
        problems = []
        expected = oracle.downward_families(2)
        got_fams = [frozenset(f.masks) for f in self.families]
        if len(got_fams) != 167 or set(got_fams) != set(expected) or len(expected) != 167:
            problems.append(
                f"{len(got_fams)} families on two variables, the oracle finds "
                f"{len(expected)}; the Dedekind number M(4) less one is 167"
            )
        for (kind, arg, names), got in zip(self.queries, digests):
            if isinstance(got, tuple) and got[0] == "error":
                continue
            if kind == "truth_set":
                want = oracle.truth_set(oracle.parse(arg), list(names))
                masks = frozenset(array("H", got[1]))
                if got[0] != names or masks != want:
                    problems.append(f"truth_set disagrees with the oracle on {arg}")
                elif not _downward_closed(masks):
                    problems.append(f"truth set of {arg} is not downward closed")
            elif kind in ("entails", "equivalent"):
                a, b = (oracle.parse(x) for x in arg)
                both = sorted(set(oracle.variables(a)) | set(oracle.variables(b)))
                ta, tb = oracle.truth_set(a, both), oracle.truth_set(b, both)
                want = ta <= tb if kind == "entails" else ta == tb
                if got != want:
                    problems.append(f"{kind} disagrees with the oracle on {arg}")
            else:
                out = oracle.parse(got)
                if kind == "translate":
                    src = oracle.parse(arg[0])
                    fragment, scope = arg[1], oracle.variables(src)
                    want = oracle.truth_set(src, scope)
                else:
                    fragment, scope = kind[len("synth_"):], list(NAMES2)
                    want = frozenset(self.families[arg].masks)
                if not oracle.in_fragment(out, fragment):
                    problems.append(f"{kind} output leaves the {fragment} fragment")
                elif oracle.truth_set(out, scope) != want:
                    problems.append(f"{kind} output has the wrong truth set ({arg})")
        return problems


# --- context_sweep ----------------------------------------------------------


class ContextSweep(Workload):
    """Contexts up to size 7 over the default search pool: refutation of
    ``or`` and ``imp`` per context, and truth functions per (context,
    instance vector, team).  The checks refute every one of the contexts."""

    name = "context_sweep"
    MAX_SIZE = 7
    N_REFUTE = 300
    # Truth-function triples whose instance holds on the team (a function is
    # found and verified) and triples where it does not (one evaluate call).
    # The two cost differently, so their numbers are fixed, by the oracle.
    N_HOLDS = 600
    N_FAILS = 300

    def build(self):
        r = gen.rng_for(self.seed, "sweep")
        pool = [oracle.parse(t) for t in SEARCH_POOL.split(",")]
        contexts = oracle.contexts(pool, self.MAX_SIZE)
        self.items = [("refute", contexts[i]) for i in r.sample(range(len(contexts)), self.N_REFUTE)]
        want = {True: self.N_HOLDS, False: self.N_FAILS}
        while want[True] or want[False]:
            ctx = contexts[r.randrange(len(contexts))]
            vec = (r.choice(INSTANCE_POOL), r.choice(INSTANCE_POOL))
            team = r.randrange(1, 4)
            holds = oracle.holds(oracle.substitute(ctx, [oracle.parse(t) for t in vec]), team, ["p"])
            if want[holds]:
                want[holds] -= 1
                self.items.append(("truthfn", ctx, vec, team))
        r.shuffle(self.items)
        self.warm = cheapest_per_kind(self.items)

    def prepare(self, api):
        pool = [api.parse(t) for t in SEARCH_POOL.split(",")]
        self.contexts = api.enumerate_contexts(pool, self.MAX_SIZE)
        self.api = api
        specs = [api.builtin_connective("or"), api.builtin_connective("imp")]
        instances = {t: api.parse(t) for t in INSTANCE_POOL}
        vs = api.VarSet.of("p")
        self.ops = []
        for item in self.items:
            ctx = api.parse(oracle.text(item[1]))
            if item[0] == "refute":
                self.ops.append(self._refute(api, ctx, specs))
            else:
                vec = [instances[t] for t in item[2]]
                self.ops.append(self._truthfn(api, ctx, vec, api.Team(vs, item[3])))

    @staticmethod
    def _refute(api, ctx, specs):
        def op():
            out = []
            for spec in specs:
                ce = api.refute_uniform_definition(ctx, spec)
                out.append((ce, api.verify_counterexample(ce)))
            return out

        return op

    @staticmethod
    def _truthfn(api, ctx, vec, team):
        def op():
            tau = api.find_truth_function(ctx, vec, team)
            return tau, tau is not None and api.verify_truth_function(tau, ctx, vec)

        return op

    def digest(self, i, result):
        item = self.items[i]
        if item[0] == "refute":
            return tuple(
                (
                    ce.connective.name,
                    tuple(ftext(f) for f in ce.instances),
                    tuple(ce.vars.names()),
                    ce.team.mask,
                    ce.lhs,
                    ce.rhs,
                    ok,
                )
                for ce, ok in result
            )
        tau, ok = result
        if tau is None:
            return None
        nodes = tuple(
            (ftext(n.formula), n.children, tau.assignment[n.id].mask) for n in tau.tree.nodes
        )
        return nodes, ok

    def check(self, digests):
        problems = []
        pool = [oracle.parse(t) for t in SEARCH_POOL.split(",")]
        count = oracle.context_count(len(pool), self.MAX_SIZE)
        got = [oracle.canonical(from_tsw(c)) for c in self.contexts]
        want = {oracle.canonical(c) for c in oracle.contexts(pool, self.MAX_SIZE)}
        if len(got) != count or len(set(got)) != count or set(got) != want:
            problems.append(
                f"enumerate_contexts gave {len(got)} contexts ({len(set(got))} distinct up to "
                f"swapping children); the oracle counts {count}"
            )
        for item, got in zip(self.items, digests):
            if isinstance(got, tuple) and got and got[0] == "error":
                continue
            ctx = item[1]
            if item[0] == "refute":
                if [g[0] for g in got] != ["or", "imp"]:
                    problems.append(f"refutation of {oracle.text(ctx)} lost a connective")
                for name, inst, names, mask, lhs, rhs, ok in got:
                    inst = [oracle.parse(t) for t in inst]
                    if not ok or not counterexample_ok(ctx, name, inst, list(names), mask, lhs, rhs):
                        problems.append(f"bad {name} counterexample for {oracle.text(ctx)}")
                continue
            vec = [oracle.parse(t) for t in item[2]]
            want = oracle.holds(oracle.substitute(ctx, vec), item[3], ["p"])
            if (got is not None) != want:
                problems.append(f"truth function found={got is not None}, oracle says {want}")
            elif got is not None:
                nodes_out = [(oracle.parse(t), ch, m) for t, ch, m in got[0]]
                if not got[1] or not oracle.truth_function_ok(ctx, vec, nodes_out, item[3], ["p"]):
                    problems.append(f"bad truth function for {oracle.text(ctx)}")
        return problems + self._refute_all()

    def _refute_all(self):
        """The paper's theorem on every enumerated context: each one is
        refuted for both ``or`` and ``imp``, by a counterexample that
        ``verify_counterexample`` accepts and the oracle confirms."""
        api, problems = self.api, []
        specs = [api.builtin_connective(name) for name in ("or", "imp")]
        for c in self.contexts:
            ctx = from_tsw(c)
            for spec in specs:
                try:
                    ce = api.refute_uniform_definition(c, spec)
                    ok = api.verify_counterexample(ce)
                except Exception as exc:
                    problems.append(f"{spec.name} not refuted on {oracle.text(ctx)}: {exc!r}")
                    continue
                inst = [from_tsw(f) for f in ce.instances]
                if not ok or not counterexample_ok(
                    ctx, spec.name, inst, list(ce.vars.names()), ce.team.mask, ce.lhs, ce.rhs
                ):
                    problems.append(f"bad {spec.name} counterexample for {oracle.text(ctx)}")
        return problems

    def layer_metrics(self, digests):
        tried = []
        for item, got in zip(self.items, digests):
            if item[0] == "refute" and not (got and got[0] == "error"):
                for name, inst, *_ in got:
                    label = _label([oracle.parse(t) for t in inst])
                    tried.append(BATTERY[name].index(label) + 1)
        return {"definability.battery_vectors_per_context": sum(tried) / len(tried)}


# --- cli_calls --------------------------------------------------------------


def _json_out(rc, out):
    return json.loads(out) if rc == 0 else None


class CliCalls(Workload):
    """A fixed script of ``python -m tsw.cli ... --json`` runs, one child
    process at a time, covering every subcommand at small sizes."""

    name = "cli_calls"

    def build(self):
        r = gen.rng_for(self.seed, "cli")
        f3 = [gen.text(gen.formula(r, NAMES3, 3)) for _ in range(3)]
        f2 = [gen.text(gen.formula(r, NAMES2, 3)) for _ in range(3)]
        team3 = gen.team(r, 3, r.randint(2, 6))
        # a downward-closed family on {p, q}: every subteam of two random teams
        tops = [r.randrange(1, 16) for _ in range(2)]
        self.family = sorted({m for m in range(16) for t in tops if m & ~t == 0})
        out_dir = os.path.join(self.root, ".bench_out")
        self.family_path = os.path.join(out_dir, f"family-{os.getpid()}-{id(self)}.json")
        rows3 = [[p >> i & 1 for i in range(3)] for p in range(8) if team3 >> p & 1]
        self.script = [
            (["parse", "-f", f3[0]], ("parse", f3[0])),
            (["eval", "-f", f3[1], "-t", json.dumps(rows3), "--vars", "p,q,r"],
             ("holds", f3[1], NAMES3, team3)),
            (["valid", "-f", f3[2]], ("valid", f3[2])),
            (["truthset", "-f", f2[0], "--vars", "p,q"], ("truthset", f2[0])),
            (["entails", "-f", "p + p", "-f", "p"], ("result", True)),
            (["entails", "-f", "=(p) + =(p)", "-f", "=(p)"], ("result", False)),
            (["valid", "-f", "((p -> bot) -> bot) -> p"], ("result", True)),
            (["valid", "-f", "(((p | (p -> bot)) -> bot) -> bot) -> (p | (p -> bot))"],
             ("result", False)),
            (["eval", "-f", "bot -> bot", "-t", "[[0],[1]]", "--vars", "p"], ("result", True)),
            (["eval", "-f", "top -> bot", "-t", "[[1]]", "--vars", "p"], ("result", False)),
            (["equiv", "-f", f2[1], "-f", f"{f2[1]} & top"], ("result", True)),
            (["properties", "-f", f2[2]], ("properties",)),
            (["theta", "-t", "[[0,1],[1,1]]", "--vars", "p,q"], ("theta", 0b1100)),
            (["synth", "--family", self.family_path, "--target", "pd"], ("synth", "pd")),
            (["synth", "--family", self.family_path, "--target", "inql"], ("synth", "inql")),
            (["translate", "-f", f2[0], "--target", "pd"], ("translate", f2[0], "pd")),
            (["translate", "-f", f2[1], "--target", "inql"], ("translate", f2[1], "inql")),
            (["subst", "-c", "r1 + (r2 & p)", "-f", f2[2], "-f", "=(q)"],
             ("subst", "r1 + (r2 & p)", (f2[2], "=(q)"))),
            (["normalize", "-c", "(r1 + bot) & r2"], ("formula", "r1 & r2")),
            (["consistent", "-c", "r1 & bot"], ("result", False)),
            (["consistent", "-c", "r1 + =(p)"], ("result", True)),
            (["truthfn", "-c", "r1 + (r2 & p)", "-f", "=(p)", "-f", "top",
              "-t", "[[0],[1]]", "--vars", "p"], ("truthfn", "r1 + (r2 & p)", ("=(p)", "top"))),
            (["reduce", "-c", "(r1 + p) + (r2 + !p)", "--vars", "p"], ("reduce",)),
            (["refute", "-c", "r1 + (r2 & =(p))", "--connective", "or"], ("refute",)),
            (["refute", "-c", "(r1 & p) + r2", "--connective", "imp"], ("refute",)),
            (["search", "--connective", "or", "--max-size", "5"], ("search",)),
            (["search", "--connective", "imp", "--max-size", "5"], ("search",)),
            (["conditions", "--connective", "or"], ("conditions", "or")),
            (["parse", "-f", "p &"], ("exit", 1)),
            (["truthset", "-f", "p & q & r & s"], ("exit", 2)),
        ]
        self.warm = [0]

    def prepare(self, api):
        os.makedirs(os.path.dirname(self.family_path), exist_ok=True)
        rows = lambda m: [[p >> i & 1 for i in range(2)] for p in range(4) if m >> p & 1]
        with open(self.family_path, "w") as fh:
            json.dump({"vars": list(NAMES2), "teams": [rows(m) for m in self.family]}, fh)
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.env = env
        self.ops = [self._child(argv + ["--json"]) for argv, _ in self.script]
        self._api = api

    def _child(self, argv):
        cmd = [sys.executable, "-m", "tsw.cli", *argv]

        def op():
            done = subprocess.run(
                cmd, env=self.env, cwd=self.root, capture_output=True, text=True, timeout=120
            )
            return done.returncode, done.stdout

        return op

    def inprocess_ops(self):
        api = self._api

        def make(argv):
            def op():
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    rc = api.cli.main(argv)
                return rc, buf.getvalue()

            return op

        return [make(argv + ["--json"]) for argv, _ in self.script]

    def digest(self, i, result):
        rc, out = result
        obj = _json_out(rc, out)
        if isinstance(obj, dict):
            obj.pop("elapsed_s", None)
        return rc, json.dumps(obj, sort_keys=True) if obj is not None else out

    def cleanup(self):
        with contextlib.suppress(OSError):
            os.remove(self.family_path)

    def check(self, digests):
        problems = []
        for (argv, want), (rc, out) in zip(self.script, digests):
            if rc == "error":
                continue
            msg = self._check_one(want, rc, out)
            if msg:
                problems.append(f"tsw {' '.join(argv)}: {msg}")
        return problems

    def _check_one(self, want, rc, out):
        kind = want[0]
        if kind == "exit":
            return None if rc == want[1] and out == "" else f"exit {rc}, expected {want[1]}"
        if rc != 0:
            return f"exit {rc}"
        obj = json.loads(out)
        if kind == "result":
            return None if obj == {"result": want[1]} else f"got {obj}"
        if kind == "parse":
            ast = oracle.parse(want[1])
            ok = oracle.parse(obj["formula"]) == ast and obj["vars"] == oracle.variables(ast)
            return None if ok else f"got {obj}"
        if kind == "holds":
            _, t, names, mask = want
            return None if obj["result"] == oracle.holds(oracle.parse(t), mask, list(names)) else "wrong verdict"
        if kind == "valid":
            ast = oracle.parse(want[1])
            names = oracle.variables(ast)
            ok = obj["result"] == oracle.holds(ast, oracle.full(len(names)), names)
            return None if ok else "wrong verdict"
        if kind == "truthset":
            masks = {sum(1 << sum(b << i for i, b in enumerate(row)) for row in team) for team in obj["teams"]}
            ok = obj["vars"] == list(NAMES2) and masks == oracle.truth_set(oracle.parse(want[1]), list(NAMES2))
            return None if ok else "wrong truth set"
        if kind == "properties":
            return None if obj["ok"] and all(c["passed"] for c in obj["checks"]) else "a property failed"
        if kind == "theta":
            X = want[1]
            out_ast = oracle.parse(obj["formula"])
            want_set = frozenset(m for m in range(16) if X & ~m)
            ok = oracle.in_fragment(out_ast, "pd") and oracle.truth_set(out_ast, list(NAMES2)) == want_set
            return None if ok else "theta_star has the wrong truth set"
        if kind in ("synth", "translate"):
            out_ast = oracle.parse(obj["formula"])
            if kind == "synth":
                fragment, names, want_set = want[1], list(NAMES2), frozenset(self.family)
            else:
                src = oracle.parse(want[1])
                fragment, names = want[2], oracle.variables(src)
                want_set = oracle.truth_set(src, names)
            ok = oracle.in_fragment(out_ast, fragment) and oracle.truth_set(out_ast, names) == want_set
            return None if ok else "output has the wrong fragment or truth set"
        if kind == "subst":
            ast = oracle.substitute(oracle.parse(want[1]), [oracle.parse(t) for t in want[2]])
            return None if oracle.parse(obj["formula"]) == ast else "wrong substitution"
        if kind == "formula":
            return None if oracle.parse(obj["formula"]) == oracle.parse(want[1]) else f"got {obj}"
        if kind in ("truthfn", "reduce"):
            tf = obj["truth_function"] if kind == "truthfn" else obj
            if kind == "truthfn":
                ctx = oracle.parse(want[1])
                inst = [oracle.parse(t) for t in want[2]]
                X = 0b11
                if not obj["found"] == oracle.holds(oracle.substitute(ctx, inst), X, ["p"]):
                    return "found disagrees with the oracle"
            else:
                ctx = oracle.parse(obj["context"])
                inst = [("top",)] * 2
                X = 0b11
            masks = [
                sum(1 << sum(b << i for i, b in enumerate(row)) for row in n["team"])
                for n in tf["nodes"]
            ]
            layout = oracle.tree(ctx)
            if [n["id"] for n in tf["nodes"]] != list(range(len(layout))):
                return "node ids are not the pre-order of the tree"
            nodes_out = [
                (oracle.parse(n["formula"]), ch, m)
                for n, (_, ch), m in zip(tf["nodes"], layout, masks)
            ]
            if not oracle.truth_function_ok(ctx, inst, nodes_out, X, tf["vars"]):
                return "truth function violates a node condition"
            if kind == "reduce" and any(
                m == X for (f, _, m) in nodes_out if f[0] == "ph"
            ):
                return "a placeholder leaf kept the full team"
            return None
        if kind == "refute":
            ctx = oracle.parse(obj["context"])
            inst = [oracle.parse(t) for t in obj["instances"]]
            names = obj["vars"]
            X = sum(1 << sum(b << i for i, b in enumerate(row)) for row in obj["team"])
            op = "|" if obj["connective"] == "or" else "->"
            lhs = oracle.holds(oracle.substitute(ctx, inst), X, names)
            rhs = oracle.holds((op, inst[0], inst[1]), X, names)
            ok = (obj["lhs"], obj["rhs"]) == (lhs, rhs) and lhs != rhs
            return None if ok else "counterexample disagrees with the oracle"
        if kind == "search":
            total = oracle.context_count(7, 5)
            ok = obj["total"] == total == obj["refuted"] and obj["unrefuted"] == []
            return None if ok else f"search refuted {obj['refuted']}/{obj['total']}, expected {total}"
        if kind == "conditions":
            w = {x["condition"]: x for x in obj["witnesses"]}
            ok = obj["all_hold"] and [w[c]["instances"] for c in ("i[1]", "i[2]", "ii", "iii")] == [
                ["bot", "top"], ["top", "bot"], ["top", "top"], ["=(p)", "=(p)"]
            ]
            return None if ok else "condition witnesses differ from the paper's"
        return f"no check for {kind}"


WORKLOADS = {w.name: w for w in (PointQueries, TruthSets, ContextSweep, CliCalls)}
