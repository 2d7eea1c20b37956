"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see every verdict line;
without ``-s`` pytest shows the lines for failing criteria only.  Findings
(legitimate results that contradict a published example rather than the
toolkit) are printed as FINDING lines and never fail a criterion.
"""

import time
from fractions import Fraction

from votelab.core import (
    Alphabet,
    Profile,
    extend,
    signatures_up_to,
    strict_plurality,
    tally,
)
from votelab.rules import (
    FunctionRule,
    MaySignRule,
    PureMajorityRule,
    QuorumRule,
    SupermajorityRule,
    TabulatedFamily,
    TabulatedRule,
    pure_majority_table,
)
from votelab import axioms
from votelab.axioms import (
    audit,
    check_c5,
    check_ma2,
    check_ma3,
    check_ma4,
    check_plurality_property,
    check_tie_closure,
    check_unavoidable_ties,
    replay_main_proof,
)
from votelab.arrow import (
    WeakOrder,
    arrow_search,
    enumerate_weak_orders,
    find_dictator,
    pairwise_majority_swf,
    projection_swf,
    sorted_profiles,
)
from votelab.enumeration import (
    FamilySet,
    MayFunctionTable,
    enumerate_c_families,
    enumerate_may_functions,
    maximal_elements,
    plurality_artifacts,
    rule_leq,
)
from votelab.cli import main

from helpers import profiles_up_to, table_of

AB2 = Alphabet.make(2)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {name}: {status}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def _finding(text):
    print(f"  FINDING: {text}")


def test_criterion_01_may_uniqueness():
    t0 = time.monotonic()
    ok = True
    detail = []
    for n in (1, 2, 3, 4):
        tables = enumerate_may_functions(n, "in_favor")
        expected = MayFunctionTable.sign_table(n)
        if [t.value_tuple() for t in tables] != [expected.value_tuple()]:
            ok = False
            detail.append(f"n={n}: {len(tables)} tables")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60
    _report(1, "two-option uniqueness, in-favor semantics", ok,
            f"n in 1..4 each yield exactly the sign table; {elapsed:.2f}s")


def test_criterion_02_literal_responsiveness_reading():
    rule = MaySignRule()
    ok = True
    for n in range(5):
        ok = ok and check_ma2(rule, n).passed
        ok = ok and check_ma3(rule, n).passed
        ok = ok and check_ma4(rule, n, "flip").passed
    counts = []
    for _ in range(2):
        counts.append([
            [t.value_tuple() for t in enumerate_may_functions(n, "flip")]
            for n in (1, 2, 3, 4)
        ])
    stable = counts[0] == counts[1]
    sizes = [len(c) for c in counts[0]]
    for n, found in zip((1, 2, 3, 4), counts[0]):
        if len(found) > 1:
            _finding(
                f"flip semantics admits {len(found)} tables at n={n}; "
                "the literal one-flip reading is weaker than the full one"
            )
        if MayFunctionTable.sign_table(n).value_tuple() not in found:
            ok = False
    ok = ok and stable and all(s >= 1 for s in sizes)
    _report(2, "sign rule under the literal flip reading", ok,
            f"sign rule passes MA2/MA3/MA4-flip to n=4; flip table counts {sizes}, stable")


def test_criterion_03_conclusive_implies_strict_winner():
    t0 = time.monotonic()
    fs = enumerate_c_families(AB2, 6, with_c6=False)
    violations = []
    for fam in fs.families:
        rule = TabulatedRule(fam)
        if not check_plurality_property(rule, 3).passed:
            violations.append((fam, "plurality"))
        if not check_unavoidable_ties(rule, 3).passed:
            violations.append((fam, "ties"))
    elapsed = time.monotonic() - t0
    ok = not violations and elapsed < 300
    _report(3, "conclusive outcomes are strict winners within the sound region", ok,
            f"{len(fs.families)} families, 0 violations at totals <= 3; {elapsed:.2f}s")


def test_criterion_04_tie_escape_pins_pure_majority():
    t0 = time.monotonic()
    fs = enumerate_c_families(AB2, 6, with_c6=True)
    expected = pure_majority_table(AB2, 6)
    elapsed = time.monotonic() - t0
    ok = (
        [f.value_tuple() for f in fs.families] == [expected.value_tuple()]
        and elapsed < 300
    )
    _report(4, "adding tie-escapability pins pure majority", ok,
            f"exactly one family at horizon 6 and it is pure majority; {elapsed:.2f}s")


def _brute_force_minimal_c4_witness(rule, n_max):
    for p in profiles_up_to(rule.alphabet, n_max - 1):
        if rule.evaluate(extend(p, rule.alphabet.bot)) != rule.evaluate(p):
            return p
    return None


def test_criterion_05_axiom_matrix_to_six_voters():
    ok = True
    details = []

    report = audit(PureMajorityRule(AB2), axioms.C_AXIOMS, 6)
    ok = ok and report.all_pass
    details.append("pure-majority C2-C6 pass")

    for n in (2, 3):
        report = audit(QuorumRule(AB2, n, "participation"), axioms.C_AXIOMS, 6)
        by = {r.axiom: r for r in report.results}
        ok = ok and all(by[a].passed for a in ("C2", "C3", "C4", "C5"))
        ok = ok and by["C6"].status == "fail"
    details.append("quorum:participation C2-C5 pass, C6 fail")

    for n in (2, 3, 4):
        res = audit(QuorumRule(AB2, n, "literal"), ("C4",), 6).result_for("C4")
        ok = ok and res.status == "fail"
        ok = ok and len(res.witness.base_profile) == n - 1
        if n == 3:
            _finding(
                "quorum:literal:3 violates tie-ballot invariance: "
                f"{list(res.witness.base_profile.ballots)} -> "
                f"{list(res.witness.moved_to.ballots)} changes "
                f"{res.witness.expected} to {res.witness.observed}; the literal "
                "quorum reading is not a member of the consistent family"
            )
    details.append("quorum:literal C4 minimal witness size N-1")

    sall = SupermajorityRule(AB2, Fraction(1, 2), "all")
    res = audit(sall, ("C4",), 6).result_for("C4")
    oracle_witness = _brute_force_minimal_c4_witness(sall, 6)
    ok = ok and res.status == "fail"
    ok = ok and res.witness.base_profile == oracle_witness
    # the published example pair is a genuine violation too, one size up from
    # the minimal witness
    ok = ok and sall.evaluate(Profile(AB2, ("a", "a", "b"))) == "a"
    ok = ok and sall.evaluate(Profile(AB2, ("a", "a", "b", "_"))) == "_"
    _finding(
        "supermajority:all:1/2 violates tie-ballot invariance; minimal witness "
        f"{list(res.witness.base_profile.ballots)} (the quoted pair [a,a,b] vs "
        "[a,a,b,_] violates as well but is not minimal); the all-ballots "
        "denominator is not a member of the consistent family"
    )
    details.append("supermajority:all:1/2 C4 fail, oracle-minimal witness")

    report = audit(SupermajorityRule(AB2, Fraction(1, 2), "nonbot"),
                   ("C2", "C3", "C4", "C5"), 6)
    ok = ok and report.all_pass
    details.append("supermajority:nonbot:1/2 C2-C5 pass")

    _report(5, "axiom matrix, exhaustive to 6 voters", ok, "; ".join(details))


def test_criterion_06_tie_closure_follows_consistency():
    rules = [
        PureMajorityRule(AB2),
        QuorumRule(AB2, 2, "literal"),
        QuorumRule(AB2, 3, "literal"),
        QuorumRule(AB2, 2, "participation"),
        QuorumRule(AB2, 3, "participation"),
        SupermajorityRule(AB2, Fraction(1, 2), "all"),
        SupermajorityRule(AB2, Fraction(1, 2), "nonbot"),
        SupermajorityRule(AB2, Fraction(2, 3), "nonbot"),
        FunctionRule(AB2, lambda p: p.ballots[0] if p.ballots else "_", "dictator"),
        FunctionRule(AB2, lambda p: "_", "always-tie"),
    ]
    fs = enumerate_c_families(AB2, 6, with_c6=False)
    rules.extend(TabulatedRule(f) for f in fs.families)
    exceptions = []
    for rule in rules:
        if check_c5(rule, 6).passed and not check_tie_closure(rule, 6).passed:
            exceptions.append(rule.descriptor)
    _report(6, "conclusive outcomes never collapse when echoed", not exceptions,
            f"{len(rules)} rules and families, {len(exceptions)} exceptions")


def test_criterion_07_replay_contradiction_chains():
    corrupted = []
    for counts in ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1)):
        for flip in (False, True):
            sig = counts if not flip else (counts[1], counts[0])
            wrong = "b" if not flip else "a"
            base = pure_majority_table(AB2, 6)
            table = table_of(base)
            table[sig] = wrong
            corrupted.append(TabulatedRule(TabulatedFamily.from_table(AB2, 6, table),
                                           f"corrupt:{sig}->{wrong}"))
    assert len(corrupted) >= 10

    ok = True
    for rule in corrupted:
        sig = next(
            s for s, value in table_of(rule.family).items()
            if value != table_of(pure_majority_table(AB2, 6))[s]
        )
        ballots = ("a",) * sig[0] + ("b",) * sig[1]
        profile = Profile(AB2, ballots)
        result = replay_main_proof(rule, profile)
        ok = ok and result.kind == "contradiction"
        ok = ok and len(result.violated_axioms) >= 1
        for step in result.steps:
            if step.axiom == "C2":
                ok = ok and rule.evaluate(step.after) == step.lhs
                ok = ok and result.alt_permutation.apply(
                    rule.evaluate(step.before)) == step.rhs
            else:
                ok = ok and rule.evaluate(step.before) == step.lhs
                ok = ok and rule.evaluate(step.after) == step.rhs

    pm = PureMajorityRule(AB2)
    for p in profiles_up_to(AB2, 5):
        if strict_plurality(tally(p)) is None:
            continue
        if replay_main_proof(pm, p).kind != "confirmation":
            ok = False
    _report(7, "equalize-then-swap replay", ok,
            f"{len(corrupted)} corrupted families produce verifiable "
            "contradiction chains; pure majority always confirms")


def test_criterion_08_dictatorship_at_desk_scale():
    ok = True
    orders = enumerate_weak_orders(("a", "b", "c"))
    ok = ok and len(orders) == 13

    t0 = time.monotonic()
    survivors = arrow_search(2, ("a", "b", "c"))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 600
    ok = ok and len(survivors) > 0

    profiles = sorted_profiles(("a", "b", "c"), 2)
    tables = [s.value_tuple() for s in survivors]
    for v in (0, 1):
        proj = projection_swf(("a", "b", "c"), 2, v)
        ok = ok and tuple(proj.evaluate(x) for x in profiles) in tables

    dictators = [find_dictator(s) for s in survivors]
    ok = ok and all(d is not None for d in dictators)

    abc = WeakOrder((("a",), ("b",), ("c",)))
    bca = WeakOrder((("b",), ("c",), ("a",)))
    cab = WeakOrder((("c",), ("a",), ("b",)))
    condorcet = pairwise_majority_swf((abc, bca, cab), ("a", "b", "c"))
    ok = ok and condorcet.transitive is False

    _report(8, "order aggregation forces a dictator at desk scale", ok,
            f"13 weak orders; {len(survivors)} survivors in {elapsed:.1f}s, "
            "projections included, every survivor dictatorial, "
            "cycle profile flagged intransitive")


def _restrict(family_set, horizon):
    """The horizon-``horizon`` restrictions of the families, deduplicated and
    in canonical order."""
    sigs = list(signatures_up_to(family_set.alphabet, horizon))
    restricted = {}
    for fam in family_set.families:
        full = table_of(fam)
        table = TabulatedFamily.from_table(family_set.alphabet, horizon,
                                           {s: full[s] for s in sigs})
        restricted.setdefault(table.value_tuple(), table)
    return FamilySet(family_set.alphabet, horizon,
                     tuple(restricted[v] for v in sorted(restricted)))


def _restriction_verdict(alphabet, horizon):
    """Restrict the horizon-2h consistent families to horizon h.

    The equalize-then-swap step for a conclusive cell at total t <= h lands
    at total <= 2h, inside the larger horizon, so no restriction can be
    conclusive against the strict winner: the plurality artifacts of the
    truncated horizon-h set extend to no consistent rule.  Returns the
    restriction set, whether it is exactly the truncated horizon-h set minus
    its plurality artifacts, and whether pure majority is its single maximal
    element.
    """
    restricted = _restrict(enumerate_c_families(alphabet, 2 * horizon), horizon)
    truncated = enumerate_c_families(alphabet, horizon)
    artifacts = {f.value_tuple() for f, _ in plurality_artifacts(truncated)}
    sound = [f.value_tuple() for f in truncated.families
             if f.value_tuple() not in artifacts]
    is_sound = [f.value_tuple() for f in restricted.families] == sound
    pm = pure_majority_table(alphabet, horizon).value_tuple()
    unique = [f.value_tuple() for f in maximal_elements(restricted)] == [pm]
    return restricted, is_sound, unique


def test_criterion_09_single_maximal_element():
    holds_ab, w_ab = rule_leq(QuorumRule(AB2, 3, "participation"),
                              PureMajorityRule(AB2), 6)
    holds_ba, w_ba = rule_leq(PureMajorityRule(AB2),
                              QuorumRule(AB2, 3, "participation"), 6)
    order_ok = holds_ab and w_ab is None and not holds_ba and w_ba.ballots == ("a",)

    # The claim, on restrictions of consistent families.
    restricted, sound, unique = _restriction_verdict(AB2, 4)
    restricted3, sound3, unique3 = _restriction_verdict(Alphabet.make(3), 2)
    restriction_ok = (sound and len(restricted.families) == 15 and unique
                      and sound3 and len(restricted3.families) == 3 and unique3)

    # The truncated horizon-6 table set: pure majority is maximal there, and
    # every other maximal element is a horizon artifact.
    fs = enumerate_c_families(AB2, 6, with_c6=False)
    maximal = maximal_elements(fs)
    pm = pure_majority_table(AB2, 6).value_tuple()
    pm_maximal = pm in [f.value_tuple() for f in maximal]
    artifact_values = {f.value_tuple() for f, _ in plurality_artifacts(fs)}
    other = [f for f in maximal if f.value_tuple() != pm]
    all_artifacts = all(f.value_tuple() in artifact_values for f in other)
    _finding(
        f"the horizon-6 family set has {len(maximal)} maximal elements, not 1: "
        "pure majority plus boundary families whose conclusive cells sit "
        "above the half-horizon soundness region and cannot be dominated "
        "inside the horizon"
    )
    _finding(
        "all extra maximal elements are horizon artifacts "
        f"(conclusive against the strict winner above total 3): {all_artifacts}"
    )
    fs_c6 = enumerate_c_families(AB2, 6, with_c6=True)
    trivial = [f.value_tuple() for f in maximal_elements(fs_c6)] == [pm]
    _finding(
        "with the tie-escape condition the set is the pure-majority "
        f"singleton, where maximality is immediate: {trivial}"
    )

    ab3 = Alphabet.make(3)
    fs3 = enumerate_c_families(ab3, 2)
    pm3 = pure_majority_table(ab3, 2)
    artifacts3 = {f.value_tuple() for f, _ in plurality_artifacts(fs3)}
    above_pm3 = [
        f.value_tuple() in artifacts3 and table_of(f)[(0, 1, 1)] == "a"
        and f.value_tuple() != pm3.value_tuple()
        and rule_leq(TabulatedRule(pm3), TabulatedRule(f), 2)[0]
        for f in maximal_elements(fs3)
    ]
    _finding(
        f"the truncated 3-alternative horizon-2 set has {len(above_pm3)} maximal "
        "element(s) and pure majority is not one: the only one is an artifact "
        "that maps (0,1,1) to 'a' and lies strictly above pure majority: "
        f"{above_pm3 == [True]}"
    )

    ok = order_ok and restriction_ok and pm_maximal and all_artifacts
    _report(9, "pure majority is the single maximal element", ok,
            f"order verdicts with witness [a]: {order_ok}; 2 alternatives, horizon "
            f"8 restricted to 4: {len(restricted.families)} families, artifact-free "
            f"{sound}, pure majority unique {unique}; 3 alternatives, horizon 4 "
            f"restricted to 2: {len(restricted3.families)} families, artifact-free "
            f"{sound3}, pure majority unique {unique3}; truncated horizon 6: pure "
            f"majority maximal {pm_maximal}, the other {len(other)} of "
            f"{len(maximal)} maximal elements artifacts {all_artifacts}")


def test_criterion_10_byte_identical_reports(tmp_path):
    commands = {
        "audit": ["audit", "--rule", "quorum:literal:3", "--alternatives", "2",
                  "--max-voters", "6", "--axioms", "C2-C6"],
        "enumerate": ["enumerate", "--alternatives", "2", "--horizon", "6"],
        "enumerate-c6": ["enumerate", "--alternatives", "2", "--horizon", "6",
                         "--with-c6"],
        "may": ["may", "--voters", "4", "--semantics", "in-favor"],
        "may-flip": ["may", "--voters", "4", "--semantics", "flip"],
        "arrow-search": ["arrow-search"],
        "order": ["order", "quorum:participation:3", "pure-majority",
                  "--max-voters", "6"],
    }
    ok = True
    for name, argv in commands.items():
        out1 = str(tmp_path / f"{name}-1.json")
        out2 = str(tmp_path / f"{name}-2.json")
        code1 = main(argv + ["--out", out1])
        code2 = main(argv + ["--out", out2])
        same = open(out1, "rb").read() == open(out2, "rb").read()
        ok = ok and same and code1 == code2
    _report(10, "repeated runs are byte-identical", ok,
            f"{len(commands)} commands run twice; engines are sequential, so "
            "the canonical-order guarantee holds trivially")
