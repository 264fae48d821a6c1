import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from structcode.core import all_strings, restrict, xor_bits
from structcode.shelah import (
    ONE,
    ZERO,
    SElem,
    closure,
    distinguishing_trace,
    elem_index,
    enumerate_elems,
    eval_F,
    generator_trace,
    holds_R,
    holds_graphF,
    nth_elem,
    paired_reduct_restrictions,
    reduct_iso,
    reduct_restriction,
    rel_name,
    shelah_oracle,
    split_rel_name,
    tag_facts,
    tag_signature,
)

bits = st.text(alphabet="01", max_size=8)
elems = st.builds(SElem.make, bits, st.integers(0, 1))


def test_normalization_unique():
    with pytest.raises(ValueError):
        SElem("10", 0)
    assert SElem.make("10", 0) == SElem("1", 0)
    assert SElem.make("111", 1) == ONE


def test_parse_and_str_round_trip():
    for text in ("1:0", ":1", "01:0", "10:1"):
        assert str(SElem.parse(text)) == text
    with pytest.raises(ValueError):
        SElem.parse("102:0")


def test_eval_pins():
    assert eval_F("1", ZERO) == SElem("1", 0)
    assert eval_F("1", SElem("1", 0)) == ZERO
    # 1·1^w XOR 01·0^w = 10·1^w, worked by hand
    assert eval_F("01", ONE) == SElem("10", 1)


@given(bits, elems)
def test_involution(nu, x):
    assert eval_F(nu, eval_F(nu, x)) == x


@given(bits, bits, elems)
def test_composition_is_xor(mu, nu, x):
    assert eval_F(mu, eval_F(nu, x)) == eval_F(xor_bits(mu, nu), x)


def test_holds_pins():
    assert holds_R("00", ZERO)
    assert not holds_R("1", ZERO)
    assert holds_R("110", SElem("11", 0))


def test_graph_pins():
    assert holds_graphF("1", ZERO, SElem("1", 0))
    assert holds_graphF("", SElem("10", 1), SElem("10", 1))
    assert not holds_graphF("1", ZERO, ZERO)


def test_enumeration_pins():
    assert enumerate_elems(0, 1) == [ZERO]
    assert enumerate_elems(1, 1) == [ONE]
    assert enumerate_elems(0, 3) == [ZERO, SElem("1", 0), SElem("01", 0)]


def test_enumeration_distinct_and_normalized():
    for b in (0, 1):
        out = enumerate_elems(b, 200)
        assert len(set(out)) == 200
        for e in out:
            assert not e.prefix.endswith(str(b))


@pytest.mark.parametrize("b", [0, 1])
def test_enumeration_is_length_lex_over_normalized_prefixes(b):
    # the reference lists every prefix of each length with product and
    # keeps the normalized ones, sharing no code with enum_string
    for max_len in range(10):
        prefixes = ["".join(t) for n in range(max_len + 1) for t in product("01", repeat=n)]
        expected = sorted((p for p in prefixes if not p.endswith(str(b))),
                          key=lambda p: (len(p), p))
        assert enumerate_elems(b, 1 << max_len) == [SElem(p, b) for p in expected]


@given(st.integers(0, 1), st.integers(0, 500))
def test_nth_elem_index_inverse(b, k):
    assert elem_index(nth_elem(b, k)) == k


def test_closure_pins():
    assert closure(ZERO, 0) == {ZERO}
    assert closure(ZERO, 1) == {ZERO, SElem("1", 0)}


@given(elems, st.integers(0, 6))
def test_closure_has_power_of_two_size(x, bound):
    got = closure(x, bound)
    assert len(got) == 1 << bound
    assert x in got


def fixpoint_closure(seed, max_len):
    """Reference closure: a fixpoint over every string of length <= max_len."""
    gens = list(all_strings(max_len))
    result, frontier = {seed}, [seed]
    while frontier:
        x = frontier.pop()
        for nu in gens:
            y = eval_F(nu, x)
            if y not in result:
                result.add(y)
                frontier.append(y)
    return result


def test_closure_matches_fixpoint_over_all_strings():
    # the single-bit generators reach what every string of length <= b does
    rng = random.Random(29)
    for b in range(7):
        for _ in range(10):
            x = nth_elem(rng.randint(0, 1), rng.randrange(200))
            assert closure(x, b) == fixpoint_closure(x, b)


def test_paired_universe_is_the_enumeration_prefix():
    # the left universe is the closure of ZERO in index order, which is the
    # first 2^b tail-0 elements
    for b in range(7):
        universe = sorted(fixpoint_closure(ZERO, b), key=elem_index)
        assert enumerate_elems(0, 1 << b) == universe
        left, right, strategy = paired_reduct_restrictions(1, 1, b)
        assert left == reduct_restriction(universe, 1)
        assert right == reduct_restriction([reduct_iso(1)(x) for x in universe], 1)
        assert strategy == list(range(1 << b))


def test_closure_reaches_generator():
    # the orbit of any element under enough maps contains its tail's
    # constant string, witnessing single-generatedness
    x = SElem("1101", 0)
    assert ZERO in closure(x, 4)


def test_reduct_iso_pins():
    assert reduct_iso(0)(ZERO) == ONE
    assert reduct_iso(2)(ZERO) == SElem("00", 1)
    h = reduct_iso(3)
    assert holds_R("0", ZERO) and holds_R("0", h(ZERO))


@given(st.integers(0, 4), elems, elems)
def test_reduct_iso_preserves_bounded_relations(m, x, y):
    h = reduct_iso(m)
    assert h(h(x)) == x
    for k in range((1 << (m + 1)) - 1):
        from structcode.core import enum_string

        nu = enum_string(k)
        assert holds_R(nu, x) == holds_R(nu, h(x))
        assert holds_graphF(nu, x, y) == holds_graphF(nu, h(x), h(y))


def test_trace_pins():
    assert distinguishing_trace(ZERO, 2) == {"", "0", "00"}
    assert distinguishing_trace(ONE, 2) == {"", "1", "11"}
    assert distinguishing_trace(SElem("1", 0), 2) == {"", "1", "10"}


def test_trace_matches_brute_force_filter():
    from structcode.core import all_strings

    for e in enumerate_elems(1, 20):
        expected = {nu for nu in all_strings(4) if holds_R(nu, e)}
        assert distinguishing_trace(e, 4) == expected


def test_nonisomorphism_witness():
    # the tail-0 generator carries the all-zeros trace; no tail-1 element
    # among the first 100 matches it at bound 8, because a tail-1 fake
    # needs a prefix of 8 zeros and the first such sits at index 2^7
    target = generator_trace(0, 8)
    assert distinguishing_trace(ZERO, 8) == target
    for e in enumerate_elems(1, 100):
        assert distinguishing_trace(e, 8) != target


def test_fake_generator_horizon():
    # at bound L the earliest tail-1 element wearing the all-zeros trace
    # is 0^L . 1^w at enumeration index 2^(L-1); below that index the
    # trace is a faithful discriminator, at it the disguise begins
    for bound in (3, 5):
        fake_index = 1 << (bound - 1)
        for k in range(fake_index):
            assert distinguishing_trace(nth_elem(1, k), bound) != generator_trace(0, bound)
        fake = nth_elem(1, fake_index)
        assert fake == SElem("0" * bound, 1)
        assert distinguishing_trace(fake, bound) == generator_trace(0, bound)


def test_reduct_restriction_builds_expected_signature():
    sig = tag_signature(1)
    assert sig.names() == ("R_", "gF_", "R_0", "gF_0", "R_1", "gF_1")
    s = reduct_restriction(enumerate_elems(0, 4), 1)
    assert s.size == 4
    assert s.holds("R_", (0,))  # the empty prefix holds everywhere


@pytest.mark.parametrize("b", [0, 1])
@pytest.mark.parametrize("nu_bound", range(4))
def test_reduct_restriction_matches_oracle_decider(b, nu_bound):
    # reduct_restriction lists its facts with tag_facts; restrict asks the
    # tail-b oracle's decider on every tuple
    rel_bound = 2 * ((1 << (nu_bound + 1)) - 1)
    for n in range(17):
        expected = restrict(shelah_oracle(b), n, rel_bound)
        assert reduct_restriction(enumerate_elems(b, n), nu_bound) == expected


def test_paired_restrictions_are_h_images():
    left, right, strategy = paired_reduct_restrictions(2, 2, 3)
    assert left.size == right.size == 8
    assert strategy == list(range(8))
    assert left.sig == right.sig
    # matched facts under the identity index strategy
    assert left.facts == right.facts


def _reference_tag_facts(groups, rels):
    """tag_facts written from the deciders: one holds_R or eval_F per pair."""
    for group in groups:
        for name, _ in rels:
            kind, nu = split_rel_name(name)
            for x, i in group.items():
                if kind == "R":
                    if holds_R(nu, x):
                        yield name, (i,)
                else:
                    j = group.get(eval_F(nu, x))
                    if j is not None:
                        yield name, (i, j)


# groups mix both tails and carry prefixes of up to 12 bits, longer than
# every listed nu (up to 5 bits, the empty nu included)
long_elems = st.builds(SElem.make, st.text(alphabet="01", max_size=12), st.integers(0, 1))
groups = st.lists(
    st.lists(long_elems, unique=True, max_size=12).map(
        lambda xs: {x: 3 * k + 1 for k, x in enumerate(xs)}
    ),
    max_size=4,
)
tag_rels = st.lists(
    st.tuples(st.sampled_from(["R", "gF"]), st.text(alphabet="01", max_size=5)),
    unique=True,
    max_size=12,
).map(lambda pairs: [(rel_name(kind, nu), 1 if kind == "R" else 2) for kind, nu in pairs])


@given(groups, tag_rels)
def test_tag_facts_matches_deciders(gs, rels):
    assert list(tag_facts(gs, rels)) == list(_reference_tag_facts(gs, rels))


@pytest.mark.parametrize("b", range(6))
def test_tag_facts_matches_deciders_on_tag_signatures(b):
    rng = random.Random(b)
    rels = list(tag_signature(b).relations)
    shuffled = rng.sample(rels, len(rels))
    closed = sorted(closure(SElem("0110", 1), 3), key=elem_index)
    mixed = enumerate_elems(0, 9) + enumerate_elems(1, 9)
    rng.shuffle(mixed)
    gs = [
        {},
        {x: i for i, x in enumerate(enumerate_elems(0, 20))},
        {x: 40 - i for i, x in enumerate(closed)},
        {x: i for i, x in enumerate(mixed)},
    ]
    for order in (rels, shuffled):
        got = list(tag_facts(gs, order))
        assert got == list(_reference_tag_facts(gs, order))
    assert got  # R_ holds everywhere, so a non-empty group lists facts
    assert list(tag_facts([{}, {}], rels)) == []
    assert list(tag_facts(gs, [])) == []
