import random
from itertools import product

from structcode import corpus
from structcode.limits import (
    Approximation,
    build_stage,
    chain_fact_count,
    classify_limit,
    decided_bound,
    is_substage,
    limit_restriction,
    norm_term,
    query_fact,
    stage_restriction,
)
from structcode.search import find_isomorphism

ZERO_APPROX = Approximation.constant(0)
ONE_APPROX = Approximation.constant(1)


def test_stage_zero_is_bare_element():
    s0 = build_stage(ZERO_APPROX, 0, 0)
    assert s0.universe == ("",)
    assert s0.facts == ()


def test_stage_facts_follow_enumeration_pace():
    # with the all-zeros stage function: the empty prefix and "0" are
    # decided (and hold) from stage 1, "1" is decided false from stage 2,
    # and "00" enters at stage 3 when its index comes up
    s2 = build_stage(ZERO_APPROX, 0, 2)
    assert s2.holds("", "") and s2.holds("0", "")
    assert s2.decided("1", "") and not s2.holds("1", "")
    assert not s2.decided("00", "")
    s3 = build_stage(ZERO_APPROX, 0, 3)
    assert s3.holds("00", "")


def test_one_prefix_decided_at_stage_two():
    approx = Approximation.from_pattern("1110")
    stage = build_stage(approx, 0, 2)
    assert stage.holds("1", "")


def test_terms_deduplicate_by_normal_form():
    assert norm_term("0") == "" and norm_term("10") == "1"
    s1 = build_stage(ZERO_APPROX, 0, 1)
    # g(1) = "0" is the identity map, so stage 1 still has one element
    assert s1.universe == ("",)
    s2 = build_stage(ZERO_APPROX, 0, 2)
    assert s2.universe == ("", "1")


def test_nesting_property():
    rng = random.Random(3)
    for _ in range(20):
        approx = Approximation.from_pattern(corpus.random_pattern(rng, 12))
        prev = build_stage(approx, 0, 0)
        for s in range(1, 25):
            cur = build_stage(approx, 0, s)
            assert is_substage(prev, cur)
            prev = cur


def test_derived_element_facts_respect_xor():
    # b = F_1(a) with the all-zeros string: b's string starts with 1
    s4 = build_stage(ZERO_APPROX, 0, 4)
    assert s4.holds("1", "1")
    assert not s4.holds("0", "1")
    assert s4.holds("", "1")


def test_query_fact_pins():
    assert query_fact(ZERO_APPROX, 0, "", "")
    assert query_fact(ZERO_APPROX, 0, "1", "1")
    assert not query_fact(ONE_APPROX, 0, "0", "")


def test_query_fact_agrees_with_stages():
    rng = random.Random(5)
    for _ in range(20):
        approx = Approximation.from_pattern(corpus.random_pattern(rng, 8))
        stage = build_stage(approx, 0, 16)
        for (mu, term), value in stage.facts:
            assert query_fact(approx, 0, mu, term) == value


def test_classification_pins():
    assert classify_limit(ZERO_APPROX, 0, 0) == "S0"
    assert classify_limit(ONE_APPROX, 0, 0) == "S1"
    flip7 = Approximation.from_pattern("10101010")
    assert flip7.promised_stabilization == 7
    assert classify_limit(flip7, 0, 7) == "S0"


def test_classification_matches_restriction_isomorphism():
    rng = random.Random(7)
    for _ in range(10):
        pattern = corpus.random_pattern(rng, 10)
        approx = Approximation.from_pattern(pattern)
        stage = build_stage(approx, 0, 16)
        assert decided_bound(stage) >= 3
        left = stage_restriction(stage, 3)
        right = limit_restriction(approx, 0, stage, approx.promised_stabilization, 3)
        assert find_isomorphism(left, right) is not None


def test_wrong_tail_restriction_not_isomorphic():
    # sanity control: comparing against the other tag structure must fail
    approx = Approximation.constant(0)
    stage = build_stage(approx, 0, 16)
    left = stage_restriction(stage, 3)
    lying = Approximation.constant(1)
    wrong = limit_restriction(lying, 0, stage, 0, 3)
    assert find_isomorphism(left, wrong) is None


def test_jump_locality():
    rng = random.Random(11)
    for _ in range(10):
        prefix = "".join(str(rng.randint(0, 1)) for _ in range(9))
        a0 = Approximation.from_pattern(prefix + "0")
        a1 = Approximation.from_pattern(prefix + "1")
        assert build_stage(a0, 0, 9) == build_stage(a1, 0, 9)
        assert classify_limit(a0, 0, 9) != classify_limit(a1, 0, 9)


def test_decided_bound():
    assert decided_bound(build_stage(ZERO_APPROX, 0, 0)) == -1
    assert decided_bound(build_stage(ZERO_APPROX, 0, 2)) == 1
    assert decided_bound(build_stage(ZERO_APPROX, 0, 14)) == 3
    assert decided_bound(build_stage(ZERO_APPROX, 0, 30)) == 4


def decided_by_definition(stage):
    """Largest b with R_mu decided on every term for each |mu| <= b, or -1;
    the strings of each length come from product, not from enum_string."""
    b = -1
    while all(stage.decided("".join(mu), term)
              for mu in product("01", repeat=b + 1) for term in stage.universe):
        b += 1
    return b


def test_decided_bound_matches_its_definition():
    approx = Approximation.from_pattern("0110101")
    for s in range(201):
        stage = build_stage(approx, 0, s)
        assert decided_bound(stage) == decided_by_definition(stage), s


def test_chain_fact_count_matches_the_stages():
    # the budget count of limit-demo: every fact of every stage, summed
    # over stages built one by one
    approx = Approximation.from_pattern("0110")
    total = 0
    for s in range(61):
        stage = build_stage(approx, 0, s)
        total += len(stage.facts)
        assert chain_fact_count(s) == total, s
