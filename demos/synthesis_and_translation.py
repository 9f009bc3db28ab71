"""
Synthesizing formulas from team families
========================================

Every nonempty downward-closed family of teams is the truth set of
some formula, and two different connective stocks can both express it:
one built on conjunction and splitting disjunction, one built on
conjunction, whole-team disjunction and implication.  This script
synthesizes both shapes for a hand-picked family, round-trips them,
and translates formulas across the two stocks.
"""

from tsw.expressiveness import synth_inql, synth_pd, theta_star, translate
from tsw.formulas import Fragment, fragment_check, to_text
from tsw.parsing import parse
from tsw.semantics import equivalent, truth_set
from tsw.teams import Team, TeamFamily, VarSet

vs = VarSet.of("p", "q")

# The target family: the downward closure of the team where p and q
# agree everywhere.  A team is a bitmask over the four valuations, so
# the subteams are exactly the submasks.
top = Team.from_rows(vs, [[0, 0], [1, 1]])
family = TeamFamily.from_teams(
    Team(vs, mask) for mask in range(16) if mask & top.mask == mask
)
print("family size:", len(family))

# One formula per excluded team, conjoined: the building block is a
# formula true on exactly the teams that do not contain a given team.
block = theta_star(Team.from_rows(vs, [[0, 1]]))
print("excluded-team block for {pq=01}:", to_text(block))

# The raw construction conjoins one block per excluded team, which
# gets verbose; minimize keeps the blocks of the minimal excluded teams
# only, since every other excluded team contains one of them.
phi_pd = synth_pd(family, minimize=True)
phi_inql = synth_inql(family)
print("split-disjunction shape:", to_text(phi_pd))
print("whole-team shape:      ", to_text(phi_inql))

# Both synthesized formulas have exactly the requested truth set, and
# the second one stays inside its restricted connective stock.
print("pd truth set matches:  ", truth_set(phi_pd, vs) == family)
print("inql truth set matches:", truth_set(phi_inql, vs) == family)
print("inql fragment check:   ", fragment_check(phi_inql, Fragment.INQL))

# translate re-expresses any formula in a chosen stock, preserving the
# truth set over its variables.
source = parse("=(p; q)")
as_inql = translate(source, Fragment.INQL)
print("=(p; q) in the whole-team stock:", to_text(as_inql))
print("equivalent:", equivalent(source, as_inql))

# Round trip: whole-team shape back to the splitting stock and back.
back = translate(as_inql, Fragment.PD)
print("round trip equivalent:", equivalent(source, back))
