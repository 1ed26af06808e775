"""End-to-end acceptance suite.

One test per criterion, each printing a PASS line (run with ``pytest -s``
to see the report):

  1. golden worked examples reproduce exactly through the CLI
  2. Boolean laws hold exhaustively on the determinate fragment
  3. order laws hold on >= 1000 random cases
  4. phrase order, closure, and temporal entailment match brute force
  5. entailed implications equal their not-A-OR-B form in every world
  6. k independent generalization steps give 2^k - 1 conclusions
  7. render/serialize/contrapose round trips (>= 500 cases each)
  8. contradictions are always rejected and the law audit stays clean
"""

import itertools
import random
import time
from pathlib import Path

from vplogic import (
    And,
    Leaf,
    Or,
    Sentence,
    TemporalStatement,
    Tense,
    TimeInterval,
    VerbPhrase,
    World,
    check_laws,
    closure,
    contrapose,
    entails,
    generate_dialogue,
    inverse_render,
    load_path,
    neg,
    parse_kb,
    propagate_conditional,
    render,
    sentence,
    serialize,
    temporal_entails,
    vp_leq,
)
from vplogic.dsl import (
    CondStmt,
    DegreeStmt,
    FactStmt,
    IsoStmt,
    KbDocument,
    LifetimeStmt,
    RelationStmt,
)
from vplogic.errors import Contradiction
from vplogic.order import KIND_OF, PART_OF
from vplogic.sentence import (
    FACTUAL,
    FUTURE,
    NOT_FACTUAL,
    PAST,
    PAST_PERFECT,
    UNKNOWN,
)

from oracles import ProductOracle, dfs_pairs, make_kb, oracle_temporal_entails
from test_boolean_laws import all_assignments
from test_cli import run_cli

DATA = Path(__file__).parent / "data"
CORE = str(DATA / "golden_core.vpl")
HOUSING = str(DATA / "golden_housing.vpl")
TRAVEL = str(DATA / "golden_travel.vpl")


def _report(number, label):
    print(f"ACCEPTANCE {number} ({label}): PASS")


def expect(argv, stdout_lines=None, code=0, stdin_text=""):
    got_code, out, err = run_cli(*argv, stdin_text=stdin_text)
    assert got_code == code, (argv, got_code, out, err)
    if stdout_lines is not None:
        assert out.splitlines() == stdout_lines, (argv, out)
    return out


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_1_golden_examples():
    t0 = time.perf_counter()

    # Travel argument: two noun slots generalize together.
    expect(["entails", TRAVEL, "i past fly*tokyo*la", "i past travel*japan*us"], ["true"])

    # Worked single-slot arguments: lawyer, sofa, potato, and future tense.
    expect(["entails", CORE, "i past punch*brother", "i past hit*lawyer"], ["true"])
    expect(
        ["entails", CORE, "i past wipe_with_duster*sofa", "i past clean*furniture"],
        ["true"],
    )
    expect(["entails", CORE, "i past bake*potato", "i past cook*vegetable"], ["true"])
    expect(
        ["entails", CORE, "i future wipe_with_duster*sofa", "i future clean*furniture"],
        ["true"],
    )

    # Negated forms: did-not and have-never contrapositions.
    expect(
        ["entails", CORE, "i past not cook*vegetable", "i past not bake*potato"],
        ["true"],
    )
    expect(
        ["entails", CORE, "i past_perfect not cook*vegetable",
         "i past_perfect not bake*potato"],
        ["true"],
    )

    # Hybrid-car contraposition, including the full derivation chain.
    expect(
        ["entails", CORE, "i past_perfect not own*car",
         "i past_perfect not buy*hybrid_car"],
        ["true"],
    )
    out = expect(["closure", CORE, "i past_perfect not own*car"])
    assert "i past_perfect not buy*hybrid_car" in out.splitlines()

    # Two-object negated form and the intransitive variant.
    expect(
        ["entails", TRAVEL, "i past_perfect not travel*japan*us",
         "i past_perfect not fly*tokyo*la"],
        ["true"],
    )
    expect(
        ["entails", CORE, "i past_perfect not be_to*california",
         "i past_perfect not live_in*la"],
        ["true"],
    )

    # Conditional as disjunction.
    expect(
        ["disjunct", CORE, "i past_perfect bake*potato", "i past_perfect cook*vegetable"],
        ["NOT(i past_perfect bake*potato) OR (i past_perfect cook*vegetable)"],
    )
    expect(
        ["disjunct", CORE, "you past_perfect buy*hybrid_car", "you past_perfect own*car"],
        ["NOT(you past_perfect buy*hybrid_car) OR (you past_perfect own*car)"],
    )

    # Quantified renderings: laptop, its negation, and temporality.
    expect(
        ["render", CORE, "i past_perfect buy*laptop_computer"],
        ["EXISTS t in [0,100]: i buy_t * laptop_computer"],
    )
    expect(
        ["render", CORE, "i past_perfect not own*computer"],
        ["FORALL t in [0,100]: i not own_t * computer"],
    )
    expect(
        ["render", CORE, "i past buy*laptop_computer @ [3,4]"],
        ["EXISTS t in [3,4]: i buy_t * laptop_computer"],
    )
    expect(
        ["entails", CORE, "i past_perfect not own*computer",
         "i past_perfect not buy*laptop_computer"],
        ["true"],
    )
    kb, _ = load_path(CORE)
    bought_then = TemporalStatement(
        "exists", TimeInterval(3, 4), "i", kb.phrase("buy", ["laptop_computer"])
    )
    owned_ever = TemporalStatement(
        "exists", kb.lifetime("i"), "i", kb.phrase("own", ["computer"])
    )
    assert temporal_entails(kb, bought_then, owned_ever)

    # Exactly seven conclusions, and seven propagated conditionals.
    out = expect(["closure", HOUSING, "i future buy*house*california"])
    conclusions = out.splitlines()
    assert len(conclusions) == 7
    assert "i future own*property*us" in conclusions
    housing_kb, housing_world = load_path(HOUSING)
    derived = propagate_conditional(housing_kb, housing_kb.rules[0])
    assert len(derived) == 7
    assert {r.antecedent for r in derived} == {"if i get this job"}
    assert "i future own*property*us" in {r.consequent.text() for r in derived}

    # The house-buying dialogue, reproduced through the interactive loop.
    expect(
        ["repl", HOUSING],
        [
            "A: plan",
            "A: i future own*property*california",
            "A: i future buy*property*california",
            "A: i future buy*house*california",
        ],
        stdin_text=(
            "= i future own*property*us\n"
            "? which_part 1\n"
            "? how\n"
            "? which_kind 0\n"
            "exit\n"
        ),
    )
    script = generate_dialogue(housing_world, sentence(housing_kb, "i future buy*house*california"))
    statements = [t.payload for t in script if t.speaker == "system"]
    assert statements[0].text() == "i future own*property*us"
    assert statements[-1].text() == "i future buy*house*california"
    assert len(statements) == 4

    # Frequency and possibility statements.
    expect(["fuzzy", CORE, "i", "eat", "chicken"], ["i often eat chicken"])
    expect(["fuzzy", CORE, "american", "eat", "seaweed"], ["american rarely eat seaweed"])
    expect(["fuzzy", CORE, "japanese", "eat", "seaweed"], ["japanese often eat seaweed"])
    expect(["fuzzy", CORE, "i", "eat", "book"], ["i never eat book"])

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"golden suite took {elapsed:.2f}s"
    _report(1, "golden examples")


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_2_boolean_algebra():
    assignments = 0
    for world, (x, y, z, _), one, zero in all_assignments():
        assignments += 1
        ev = world.eval
        assert ev(Or(x, zero)) == ev(x)
        assert ev(And(x, one)) == ev(x)
        assert ev(Or(x, neg(x))) == FACTUAL
        assert ev(And(x, neg(x))) == NOT_FACTUAL
        assert ev(Or(x, y)) == ev(Or(y, x))
        assert ev(And(x, y)) == ev(And(y, x))
        assert ev(Or(Or(x, y), z)) == ev(Or(x, Or(y, z)))
        assert ev(And(And(x, y), z)) == ev(And(x, And(y, z)))
        assert ev(Or(x, And(y, z))) == ev(And(Or(x, y), Or(x, z)))
        assert ev(And(x, Or(y, z))) == ev(Or(And(x, y), And(x, z)))
        assert ev(neg(And(x, y))) == ev(Or(neg(x), neg(y)))
        assert ev(neg(Or(x, y))) == ev(And(neg(x), neg(y)))
    assert assignments == 16
    _report(2, "boolean algebra, 16 assignments x 12 laws")


# -- criterion 3 ---------------------------------------------------------------


def _random_order(rng, max_atoms=12):
    """A kb whose noun order is random (labelled, cycles allowed), plus
    one verb ``v`` to build phrases over it."""
    n = rng.randint(2, max_atoms)
    ids = [f"n{i}" for i in range(n)]
    labelled = [
        (rng.choice(ids), rng.choice(ids), rng.choice((KIND_OF, PART_OF)))
        for _ in range(rng.randint(0, 2 * n))
    ]
    kb = make_kb(labelled, nouns=ids, verbs=["v"])
    edges = [(ids.index(lo), ids.index(hi)) for lo, hi, _ in labelled]
    return kb, ids, edges


def _random_small_kb(rng, max_per_kind=4):
    nv = rng.randint(2, max_per_kind)
    nn = rng.randint(2, max_per_kind)
    verbs = [f"v{i}" for i in range(nv)]
    nouns = [f"n{i}" for i in range(nn)]
    verb_edges = [
        (rng.choice(verbs), rng.choice(verbs)) for _ in range(rng.randint(0, 2 * nv))
    ]
    noun_edges = [
        (rng.choice(nouns), rng.choice(nouns)) for _ in range(rng.randint(0, 2 * nn))
    ]
    return make_kb(noun_edges, verb_edges, nouns, verbs), verbs, nouns


def test_criterion_3_order_laws():
    rng = random.Random(2024)
    cases = 0

    for _ in range(220):  # reflexivity
        kb, ids, _ = _random_order(rng)
        cases += 1
        for ident in ids:
            assert kb.nouns.leq(ident, ident)

    for _ in range(220):  # transitivity against the closure matrix
        kb, ids, edges = _random_order(rng)
        cases += 1
        expected = dfs_pairs(len(ids), edges)
        for i, a in enumerate(ids):
            for j, b in enumerate(ids):
                assert kb.nouns.leq(a, b) == ((i, j) in expected)

    for _ in range(220):  # contrapositive biconditional, on phrases
        kb, ids, _ = _random_order(rng)
        cases += 1
        for a in ids:
            assert kb.nouns.generalizations(a)  # reflexive, so never empty
            for b in ids:
                neg_a = VerbPhrase("v", (a,), True)
                neg_b = VerbPhrase("v", (b,), True)
                assert kb.nouns.leq(a, b) == vp_leq(kb, neg_b, neg_a)

    for _ in range(120):  # double negation involution, on phrases
        kb, ids, _ = _random_order(rng)
        cases += 1
        for a, b in itertools.product(ids, repeat=2):
            pa, pb = VerbPhrase("v", (a,)), VerbPhrase("v", (b,))
            assert pa.negate().negate() == pa
            assert vp_leq(kb, pa.negate().negate(), pb) == vp_leq(kb, pa, pb)

    for _ in range(120):  # product monotonicity
        kb, verbs, nouns = _random_small_kb(rng)
        cases += 1
        for v1, v2 in itertools.product(verbs, repeat=2):
            if not kb.verbs.leq(v1, v2):
                continue
            for n1, n2 in itertools.product(nouns, repeat=2):
                if not kb.nouns.leq(n1, n2):
                    continue
                a, b = VerbPhrase(v1, (n1,)), VerbPhrase(v2, (n2,))
                assert vp_leq(kb, a, VerbPhrase(v2, (n1,)))
                assert vp_leq(kb, VerbPhrase(v2, (n1,)), b)
                assert vp_leq(kb, a, VerbPhrase(v1, (n2,)))
                assert vp_leq(kb, VerbPhrase(v1, (n2,)), b)

    for _ in range(120):  # antitone negation on phrases
        kb, verbs, nouns = _random_small_kb(rng)
        cases += 1
        phrases = [VerbPhrase(v, (n,)) for v in verbs for n in nouns]
        for a, b in itertools.product(phrases, repeat=2):
            assert vp_leq(kb, a, b) == vp_leq(kb, b.negate(), a.negate())

    assert cases >= 1000
    _report(3, f"order laws, {cases} random cases")


# -- criterion 4 ---------------------------------------------------------------


def _kb_family(rng):
    # Structured shapes plus random fills, all within 6 atoms per kind.
    yield make_kb(
        noun_edges=[("n0", "n1"), ("n1", "n2")],
        verb_edges=[("v0", "v1"), ("v1", "v2")],
    ), 1
    yield make_kb(  # diamond
        noun_edges=[("n0", "n1"), ("n0", "n2"), ("n1", "n3"), ("n2", "n3")],
        verb_edges=[("v0", "v1")],
    ), 1
    yield make_kb(  # two-cycle synonyms
        noun_edges=[("n0", "n1"), ("n1", "n0"), ("n1", "n2")],
        verb_edges=[("v0", "v1"), ("v1", "v0")],
    ), 1
    yield make_kb(  # disconnected pieces
        noun_edges=[("n0", "n1"), ("n2", "n3")],
        verb_edges=[],
        verbs=["v0", "v1"],
    ), 1
    for _ in range(16):
        nouns = [f"n{i}" for i in range(rng.randint(2, 6))]
        verbs = [f"v{i}" for i in range(rng.randint(2, 6))]
        noun_edges = [
            (rng.choice(nouns), rng.choice(nouns))
            for _ in range(rng.randint(0, 2 * len(nouns)))
        ]
        verb_edges = [
            (rng.choice(verbs), rng.choice(verbs))
            for _ in range(rng.randint(0, 2 * len(verbs)))
        ]
        yield make_kb(noun_edges, verb_edges, nouns, verbs), 1
    for _ in range(4):  # a smaller two-slot family
        nouns = [f"n{i}" for i in range(rng.randint(2, 4))]
        verbs = [f"v{i}" for i in range(rng.randint(2, 3))]
        noun_edges = [
            (rng.choice(nouns), rng.choice(nouns)) for _ in range(len(nouns))
        ]
        verb_edges = [(rng.choice(verbs), rng.choice(verbs)) for _ in range(2)]
        yield make_kb(noun_edges, verb_edges, nouns, verbs), 2


def test_criterion_4_oracle_equivalence():
    rng = random.Random(99)
    tense = Tense(PAST_PERFECT)
    leq_checks = closure_checks = 0
    for kb, arity in _kb_family(rng):
        oracle = ProductOracle(kb, arity)
        for a in oracle.universe:
            for b in oracle.universe:
                assert vp_leq(kb, a, b) == oracle.leq(a, b), (a, b)
                leq_checks += 1
            fact = Sentence("i", tense, a)
            got = {d.conclusion.vp for d in closure(kb, fact)}
            assert got == oracle.upset(a), a
            closure_checks += 1

    kb = make_kb(
        noun_edges=[("n0", "n1"), ("n1", "n2"), ("n3", "n2")],
        verb_edges=[("v0", "v1"), ("v2", "v1")],
    )
    oracle = ProductOracle(kb)
    temporal_checks = 0
    for _ in range(600):
        quantifier = rng.choice(("exists", "forall"))
        statements = []
        for _ in range(2):
            lo = rng.randint(0, 10)
            hi = rng.randint(lo, 10)
            statements.append(
                TemporalStatement(
                    quantifier, TimeInterval(lo, hi), "i", rng.choice(oracle.universe)
                )
            )
        a, b = statements
        assert temporal_entails(kb, a, b) == oracle_temporal_entails(oracle, a, b), (a, b)
        temporal_checks += 1
    assert temporal_checks >= 500
    _report(
        4,
        f"oracle equivalence: {leq_checks} order pairs, "
        f"{closure_checks} closures, {temporal_checks} temporal instances",
    )


# -- criterion 5 ---------------------------------------------------------------


def _entailed_pair(rng, kb, oracle):
    vp = rng.choice([p for p in oracle.universe if not p.negated])
    ups = sorted(oracle.upset(vp) | {vp}, key=lambda p: (p.negated, p.verb, p.nouns))
    target = rng.choice([p for p in ups if p.negated == vp.negated])
    if rng.random() < 0.5:
        vp, target = vp.negate(), target.negate()
        vp, target = target, vp
    return vp, target


def test_criterion_5_conditional_equivalence():
    rng = random.Random(5)
    numeric = {FACTUAL: 1.0, NOT_FACTUAL: 0.0, UNKNOWN: 0.5}
    tense = Tense(PAST_PERFECT)
    pairs = 0
    while pairs < 200:
        kb, verbs, nouns = _random_small_kb(rng)
        oracle = ProductOracle(kb)
        frm_vp, to_vp = _entailed_pair(rng, kb, oracle)
        frm = Sentence("i", tense, frm_vp)
        to = Sentence("i", tense, to_vp)
        if not entails(kb, frm, to):
            continue
        pairs += 1
        disjunction = Or(Leaf(frm.negate()), Leaf(to))
        extras = [
            Sentence("i", tense, rng.choice(oracle.universe)) for _ in range(2)
        ]
        bases = [frm, to] + extras
        for assignment in itertools.product((FACTUAL, NOT_FACTUAL, None), repeat=4):
            world = World(kb)
            consistent = True
            for base, status in zip(bases, assignment):
                if status is None:
                    continue
                try:
                    world.assert_fact(base, status)
                except Contradiction:
                    consistent = False
                    break
            if not consistent:
                continue
            antecedent = numeric[world.status_of(frm)]
            consequent = numeric[world.status_of(to)]
            material = max(1.0 - antecedent, consequent)
            assert numeric[world.eval(disjunction)] == material
            if antecedent != 0.5 and consequent != 0.5:
                assert world.eval(disjunction) == FACTUAL
    _report(5, f"conditional equals disjunction on {pairs} entailed pairs")


# -- criterion 6 ---------------------------------------------------------------


def test_criterion_6_closure_counts():
    for k in range(1, 6):
        noun_edges = [(f"a{i}", f"b{i}") for i in range(k - 1)]
        kb = make_kb(noun_edges=noun_edges, verb_edges=[("u", "v")], nouns=["solo"])
        nouns = [f"a{i}" for i in range(k - 1)] or ["solo"]
        fact = Sentence("i", Tense(FUTURE), kb.phrase("u", nouns))
        assert len(closure(kb, fact)) == 2**k - 1
    _report(6, "closure size 2^k - 1 for k in 1..5")


# -- criterion 7 ---------------------------------------------------------------


def _random_document(rng):
    ids = [f"w{i}" for i in range(8)]
    statements = []
    for _ in range(rng.randint(0, 25)):
        choice = rng.randint(0, 6)
        if choice == 0:
            statements.append(
                RelationStmt(
                    "noun", rng.choice(ids), rng.choice(ids),
                    rng.choice((KIND_OF, PART_OF)),
                )
            )
        elif choice == 1:
            statements.append(RelationStmt("verb", rng.choice(ids), rng.choice(ids), "way_of"))
        elif choice == 2:
            statements.append(IsoStmt(rng.choice(ids), rng.choice(ids)))
        elif choice == 3:
            statements.append(
                DegreeStmt(
                    rng.choice(["*"] + ids), rng.choice(ids), rng.choice(ids),
                    round(rng.random(), 3),
                )
            )
        elif choice == 4:
            lo = rng.randint(0, 40)
            statements.append(LifetimeStmt(rng.choice(ids), lo, lo + rng.randint(0, 40)))
        else:
            form = rng.choice((PAST, PAST_PERFECT, FUTURE, "present_continuous"))
            timeframe = None
            if form == PAST and rng.random() < 0.5:
                lo = rng.randint(0, 20)
                timeframe = TimeInterval(lo, lo + rng.randint(0, 10))
            s = Sentence(
                rng.choice(ids),
                Tense(form, timeframe),
                VerbPhrase(
                    rng.choice(ids),
                    tuple(rng.choice(ids) for _ in range(rng.randint(1, 3))),
                    rng.random() < 0.5,
                ),
            )
            if choice == 5:
                statements.append(FactStmt(s))
            else:
                antecedent = rng.choice(("if it rains", "if i get this job", ""))
                statements.append(CondStmt(antecedent, s))
    return KbDocument(tuple(statements))


def test_criterion_7_round_trips():
    rng = random.Random(7)

    lifetime = TimeInterval(0, 60)
    kb = make_kb(noun_edges=[("a", "b")], verb_edges=[("u", "v")])
    render_cases = 0
    for _ in range(500):
        negated = rng.random() < 0.5
        if rng.random() < 0.5:
            tense = Tense(PAST_PERFECT)
        else:
            lo = rng.randint(0, 59)
            hi = rng.randint(lo, 59)
            tense = Tense(PAST, TimeInterval(lo, hi))
        s = Sentence("i", tense, kb.phrase(rng.choice(("u", "v")), ["a"], negated))
        assert inverse_render(render(s, lifetime), lifetime) == s
        render_cases += 1

    doc_cases = 0
    for _ in range(500):
        doc = _random_document(rng)
        text = serialize(doc)
        reparsed = parse_kb(text)
        assert reparsed.canonical() == doc.canonical()
        assert serialize(reparsed) == text
        doc_cases += 1

    contrapose_cases = 0
    tense = Tense(PAST_PERFECT)
    while contrapose_cases < 500:
        small_kb, verbs, nouns = _random_small_kb(rng)
        oracle = ProductOracle(small_kb)
        frm_vp, to_vp = _entailed_pair(rng, small_kb, oracle)
        frm = Sentence("i", tense, frm_vp)
        to = Sentence("i", tense, to_vp)
        if not entails(small_kb, frm, to):
            continue
        flipped = contrapose(small_kb, (frm, to))
        assert entails(small_kb, *flipped)
        assert contrapose(small_kb, flipped) == (frm, to)
        contrapose_cases += 1

    assert min(render_cases, doc_cases, contrapose_cases) >= 500
    _report(7, "round trips: render/inverse, parse/serialize, contrapose")


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_8_contradiction_rejection():
    rng = random.Random(88)
    sequences = 0
    for _ in range(200):
        kb, verbs, nouns = _random_small_kb(rng)
        oracle = ProductOracle(kb)
        world = World(kb)
        accepted = []  # claims known to hold, as (tense, vp)
        for _ in range(rng.randint(3, 12)):
            form = rng.choice((PAST_PERFECT, FUTURE, "present_continuous"))
            s = Sentence("i", Tense(form), rng.choice(oracle.universe))
            status = rng.choice((FACTUAL, NOT_FACTUAL))
            claim = s if status == FACTUAL else s.negate()
            forced_opposite = any(
                tense == claim.tense and oracle.leq(vp, claim.vp.negate())
                for tense, vp in accepted
            )
            try:
                world.assert_fact(s, status)
                rejected = False
            except Contradiction:
                rejected = True
            assert rejected == forced_opposite, (s.text(), status)
            if not rejected:
                accepted.append((claim.tense, claim.vp))
        # The audit over everything mentioned never finds a violation.
        report = check_laws(
            world, {"i"}, {vp.core() for _, vp in accepted} or {kb.top}
        )
        assert not report.violations
        sequences += 1
    assert sequences >= 200
    _report(8, f"law audit over {sequences} adversarial sequences")
