import hashlib
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from rackq import shifts as sh
from rackq.shifts import LEFT, RIGHT, BiSeq
from rackq.tables import PRIMARY, INVERSE


W = sh.half_congruence_witnesses()


def raw_biseqs():
    bits = st.integers(min_value=0, max_value=1)
    return st.tuples(
        bits,
        st.integers(min_value=-10, max_value=10),
        st.lists(bits, max_size=10).map(tuple),
        bits,
    )


def raw_bit_at(raw, i):
    left, start, word, right = raw
    if i < start:
        return left
    if i < start + len(word):
        return word[i - start]
    return right


# ---------------------------------------------------------------------------
# representation

@given(raw_biseqs())
def test_canonical_form_keeps_the_sequence(raw):
    a = BiSeq(*raw)
    assert not a.word or (a.word[0] != a.left_tail and a.word[-1] != a.right_tail)
    if not a.word and a.left_tail == a.right_tail:
        assert a.start == 0
    for i in range(-25, 25):
        assert a.bit_at(i) == raw_bit_at(raw, i)


@given(raw_biseqs())
def test_equal_sequences_have_equal_canonical_forms(raw):
    left, start, word, right = raw
    padded = (left, start - 2, (left, left) + word + (right,), right)
    assert BiSeq(*raw) == BiSeq(*padded)


def test_bit_validation():
    with pytest.raises(ValueError):
        BiSeq(2, 0, (), 0)
    with pytest.raises(ValueError):
        BiSeq(0, 0, (0, 5), 1)


@pytest.mark.parametrize("fields, message", [
    ((0, 1.5, (1,), 0), "start must be an int, got 1.5"),
    ((0, True, (1,), 0), "start must be an int, got True"),
    ((0, "0", (1,), 0), "start must be an int, got '0'"),
    ((True, 0, (1,), 0), "tail bits must be 0 or 1"),
    ((0, 0, (1,), 1.0), "tail bits must be 0 or 1"),
    # a bool bit would print as "True" and not parse back
    ((0, 0, (True, 0, 1), 0), "word bits must be 0 or 1"),
    ((0, 0, (1, 0.0), 1), "word bits must be 0 or 1"),
])
def test_fields_must_be_ints_not_bools_or_floats(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        BiSeq(*fields)


def reference_canonical(left, start, word, right):
    # the bit-by-bit strip the constructor once used, kept as the reference
    word = list(word)
    while word and word[0] == left:
        word.pop(0)
        start += 1
    while word and word[-1] == right:
        word.pop()
    if not word and left == right:
        start = 0
    return left, start, tuple(word), right


def test_canonical_form_matches_the_bit_by_bit_strip():
    rng = random.Random(23)
    for _ in range(3000):
        left, right = rng.randint(0, 1), rng.randint(0, 1)
        # long tail runs at both ends, so both strips have work to do
        word = (
            (left,) * rng.randint(0, 12)
            + tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 6)))
            + (right,) * rng.randint(0, 12)
        )
        start = rng.randint(-20, 20)
        a = BiSeq(left, start, word, right)
        assert (a.left_tail, a.start, a.word, a.right_tail) == reference_canonical(
            left, start, word, right
        )


def test_long_tail_runs_strip_in_linear_time():
    import time

    start = time.perf_counter()
    a = sh.parse_biseq("L0:0:" + "0" * 200000 + "1:R0")
    b = BiSeq(1, 5, (0,) + (1,) * 200000, 1)
    assert time.perf_counter() - start < 0.5
    assert (a.start, a.word) == (200000, (1,))
    assert (b.start, b.word) == (5, (0,))


# ---------------------------------------------------------------------------
# shifts

@given(raw_biseqs())
def test_shift_moves_bits(raw):
    a = BiSeq(*raw)
    la, ra = sh.shift(a, LEFT), sh.shift(a, RIGHT)
    for i in range(-20, 20):
        assert la.bit_at(i) == a.bit_at(i + 1)
        assert ra.bit_at(i) == a.bit_at(i - 1)
    assert sh.shift(la, RIGHT) == a
    assert sh.shift(ra, LEFT) == a


def test_shift_fixes_constants():
    assert sh.shift(W.ones, LEFT) == W.ones
    assert sh.shift(W.ones, RIGHT) == W.ones
    assert sh.shift(W.zeros, LEFT) == W.zeros


def test_shift_examples():
    assert sh.shift(W.spike, LEFT).bit_at(-1) == 1
    assert sh.shift(W.spike, LEFT) == BiSeq(0, -1, (1,), 0)
    r_step = sh.shift(W.step, RIGHT)
    assert r_step.bit_at(1) == 1 and r_step.bit_at(2) == 0


def test_shift_by():
    assert sh.shift_by(W.spike, 3) == BiSeq(0, -3, (1,), 0)
    assert sh.shift_by(W.spike, -2) == BiSeq(0, 2, (1,), 0)
    assert sh.shift_by(W.step, 0) == W.step
    # a float would give a float start, which bit_at cannot index, and
    # True would shift by 1
    for k in (0.5, 1.0, True, F(1), "1"):
        for a in (W.spike, W.zeros):  # moved, and a constant sequence
            with pytest.raises(ValueError, match="^shift must be an int, got "):
                sh.shift_by(a, k)
    with pytest.raises(ValueError, match=r"^shift must be an int, got 0\.5$"):
        sh.shift_by(W.spike, 0.5)


def test_shift_rejects_bad_direction():
    with pytest.raises(ValueError):
        sh.shift(W.spike, "up")


def _rebuilt(a, start):
    """a at a new start, built and canonicalised by the public constructor."""
    return BiSeq(a.left_tail, start, a.word, a.right_tail)


def test_shifts_match_the_public_constructor():
    # the shifts move a canonical sequence without rebuilding it
    rng = random.Random(28)
    named = [W.ones, W.zeros, W.step, BiSeq(0, 0, (), 1), W.spike]
    seqs = named + [sh.random_biseq(rng) for _ in range(200)]
    for a in seqs:
        assert sh.shift(a, LEFT) == _rebuilt(a, a.start - 1)
        assert sh.shift(a, RIGHT) == _rebuilt(a, a.start + 1)
        for k in range(-20, 21):
            x = sh.shift_by(a, k)
            assert x == _rebuilt(a, a.start - k)
            for b in named[:4]:
                moved = x.right_tail != b.right_tail
                for side, step in ((PRIMARY, 1), (INVERSE, -1)):
                    want = _rebuilt(x, x.start - step) if moved else x
                    assert sh.seq_quandle_op(x, b, side) == want
                    assert sh.seq_rack_op(x, b, side) == _rebuilt(x, x.start - step)


# ---------------------------------------------------------------------------
# the two relations

@given(raw_biseqs(), raw_biseqs())
def test_agree_nonneg_matches_direct_window_comparison(raw_a, raw_b):
    a, b = BiSeq(*raw_a), BiSeq(*raw_b)
    window = range(0, max(a.end, b.end, 0) + 3)
    assert sh.agree_nonneg(a, b) == all(a.bit_at(i) == b.bit_at(i) for i in window)


def _box():
    """Every canonical sequence with a word of length <= 3 starting in
    [-3, 3], and both tails."""
    words = [w for k in range(4) for w in itertools.product((0, 1), repeat=k)]
    raw = itertools.product((0, 1), range(-3, 4), words, (0, 1))
    seqs = set(itertools.starmap(BiSeq, raw))
    return sorted((s for s in seqs if len(s.word) <= 3 and -3 <= s.start <= 3), key=BiSeq._key)


def test_agree_nonneg_matches_the_bit_window_on_every_pair_of_a_box():
    # around 0: a word that starts past, at or before it, a left tail
    # that differs from the bit at 0, words that end before 0
    box = _box()
    assert len(box) == 114
    window = range(0, 8)  # past every word end: the right tails
    bits = {s: tuple(map(s.bit_at, window)) for s in box}
    for a, b in itertools.product(box, repeat=2):
        assert sh.agree_nonneg(a, b) == (bits[a] == bits[b]), (a, b)


def test_agree_nonneg_on_far_off_words_is_fast():
    import time

    far = sh.parse_biseq("L0:3000000:1:R0")
    pairs = [
        (far, far, True),
        (far, sh.shift(far, RIGHT), False),
        (far, sh.parse_biseq("L0:3000000:11:R0"), False),
        # a long word against a far-off one: a single slice comparison
        (sh.parse_biseq("L0:300000:1:R0"), sh.parse_biseq("L1:-30:" + "0" * 300030 + "1:R0"), True),
        (sh.parse_biseq("L0:-3000000:1:R0"), W.zeros, True),
        (sh.parse_biseq("L0:-3000000:1:R1"), W.zeros, False),
    ]
    start = time.perf_counter()
    assert [sh.agree_nonneg(a, b) for a, b, _ in pairs] == [want for _, _, want in pairs]
    assert time.perf_counter() - start < 0.1


@given(raw_biseqs(), raw_biseqs(), st.integers(min_value=-10**6, max_value=10**6))
def test_agree_nonneg_matches_direct_comparison_after_far_shifts(raw_a, raw_b, k):
    # the same sequences moved together far from 0: bits at i >= 0 of
    # the shifted pair are bits at i + k of the original pair
    a, b = BiSeq(*raw_a), BiSeq(*raw_b)
    lo = min(a.start, b.start, 0) - 1
    hi = max(a.end, b.end, 0) + 1
    expected = a.right_tail == b.right_tail and all(
        a.bit_at(i) == b.bit_at(i) for i in range(max(lo, k), max(hi, k)))
    assert sh.agree_nonneg(sh.shift_by(a, k), sh.shift_by(b, k)) == expected


def test_relation_examples():
    assert sh.agree_nonneg(W.spike, W.step)
    assert sh.agree_nonneg(W.zeros, W.spike_left)
    assert not sh.agree_nonneg(W.spike, W.ones)  # differ at index 1


def _shift_equivalent_by_definition(a, b, bound=16):
    # bounded search for j, k with a_i = b_{i+j} for all i >= k; past
    # max(a.end, b.end - j) both sides are constant, so one extra index
    # decides the tails
    for j in range(-bound, bound + 1):
        for k in range(-bound, bound + 1):
            top = max(k, a.end, b.end - j) + 1
            if all(a.bit_at(i) == b.bit_at(i + j) for i in range(k, top + 1)):
                return True
    return False


def test_shift_equivalence_examples():
    assert sh.shift_equivalent(W.spike, W.step)
    assert not sh.shift_equivalent(W.spike, W.ones)
    assert sh.shift_equivalent(W.zeros, W.spike_left)


def test_shift_equivalence_matches_definition_on_samples():
    rng = random.Random(7)
    for _ in range(300):
        a, b = sh.random_biseq(rng), sh.random_biseq(rng)
        assert sh.shift_equivalent(a, b) == _shift_equivalent_by_definition(a, b)


def test_shift_equivalence_absorbs_shifts():
    rng = random.Random(8)
    for _ in range(200):
        a = sh.random_biseq(rng)
        assert sh.shift_equivalent(a, sh.shift(a, LEFT))
        assert sh.shift_equivalent(a, sh.shift(a, RIGHT))
        assert sh.shift_equivalent(sh.shift(a, LEFT), sh.shift(a, RIGHT))


def test_agreement_refines_shift_equivalence():
    rng = random.Random(9)
    for _ in range(200):
        a = sh.random_biseq(rng)
        b = sh.random_agree_partner(rng, a)
        assert sh.agree_nonneg(a, b)
        assert sh.shift_equivalent(a, b)


def test_agree_partner_lemma():
    # partners that agree at indices >= 0 see the same equivalence classes
    rng = random.Random(10)
    for _ in range(300):
        x = sh.random_biseq(rng)
        y = sh.random_agree_partner(rng, x)
        z = sh.random_biseq(rng)
        assert sh.shift_equivalent(x, z) == sh.shift_equivalent(y, z)


# ---------------------------------------------------------------------------
# the shift rack

def test_rack_op_is_the_shift():
    assert sh.seq_rack_op(W.ones, W.spike) == W.ones
    assert sh.seq_rack_op(W.spike, W.step) == sh.shift(W.spike, LEFT)


def test_rack_op_inverse_identities():
    rng = random.Random(11)
    for _ in range(200):
        a, b = sh.random_biseq(rng), sh.random_biseq(rng)
        assert sh.seq_rack_op(sh.seq_rack_op(a, b, PRIMARY), b, INVERSE) == a
        assert sh.seq_rack_op(sh.seq_rack_op(a, b, INVERSE), b, PRIMARY) == a


def test_rack_left_shift_preserves_agreement():
    rng = random.Random(12)
    for _ in range(500):
        a = sh.random_biseq(rng)
        b = sh.random_agree_partner(rng, a)
        assert sh.agree_nonneg(sh.shift(a, LEFT), sh.shift(b, LEFT))


# ---------------------------------------------------------------------------
# the quandle

def test_quandle_op_examples():
    assert sh.seq_quandle_op(W.spike, W.spike) == W.spike
    assert sh.seq_quandle_op(W.spike, W.ones, INVERSE) == sh.shift(W.spike, RIGHT)
    assert sh.seq_quandle_op(W.spike, W.step) == W.spike  # equivalent, so fixed


def test_quandle_axioms_sampled():
    rng = random.Random(13)
    for _ in range(2000):
        a, b, c = (sh.random_biseq(rng) for _ in range(3))
        assert sh.seq_quandle_op(a, a) == a
        assert sh.seq_quandle_op(sh.seq_quandle_op(a, b), b, INVERSE) == a
        assert sh.seq_quandle_op(sh.seq_quandle_op(a, b, INVERSE), b) == a
        lhs = sh.seq_quandle_op(sh.seq_quandle_op(a, b), c)
        rhs = sh.seq_quandle_op(sh.seq_quandle_op(a, c), sh.seq_quandle_op(b, c))
        assert lhs == rhs


def test_quandle_agreement_respects_primary_op():
    rng = random.Random(14)
    for _ in range(500):
        a = sh.random_biseq(rng)
        c = sh.random_agree_partner(rng, a)
        b = sh.random_biseq(rng)
        d = sh.random_agree_partner(rng, b)
        assert sh.agree_nonneg(sh.seq_quandle_op(a, b), sh.seq_quandle_op(c, d))


# ---------------------------------------------------------------------------
# normal forms

def test_normal_form_op_examples():
    a2 = sh.NormalForm("a", 2)
    assert sh.normal_form_op(a2, sh.NormalForm("c")) == sh.NormalForm("a", 3)
    assert sh.normal_form_op(sh.NormalForm("c"), sh.NormalForm("b", -5)) == sh.NormalForm("c")
    assert sh.normal_form_op(a2, sh.NormalForm("b", -3), INVERSE) == a2
    assert sh.normal_form_op(a2, sh.NormalForm("c"), INVERSE) == sh.NormalForm("a", 1)
    assert sh.normal_form_op(sh.NormalForm("c"), sh.NormalForm("c")) == sh.NormalForm("c")


def test_normal_form_op_results_match_the_public_constructor():
    elems = _window(3)
    for u in elems:
        for v in elems:
            for side in (PRIMARY, INVERSE):
                w = sh.normal_form_op(u, v, side)
                assert w == sh.NormalForm(w.gen, w.power)


def test_operations_reject_a_bad_side_on_every_branch():
    # the fixed branches return before they need the side's sign: a side
    # equal to a constant but not the constant itself gives its result,
    # and an unknown side raises on every branch
    equal = {PRIMARY: "".join(["prim", "ary"]), INVERSE: "".join(["inv", "erse"])}
    assert all(side == same and side is not same for side, same in equal.items())
    c, a2, b1 = sh.NormalForm("c"), sh.NormalForm("a", 2), sh.NormalForm("b", -1)
    # u returned as it is (twice), and u moved
    cases = [(sh.normal_form_op, u, v) for u, v in ((c, a2), (a2, b1), (a2, c))]
    for op in (sh.seq_quandle_op, sh.seq_rack_op):
        # equivalent (the quandle's fixed branch), and not
        cases += [(op, a, b) for a, b in ((W.spike, W.zeros), (W.spike, W.ones))]
    for op, x, y in cases:
        assert op(x, y) == op(x, y, PRIMARY)
        for side, same in equal.items():
            assert op(x, y, same) == op(x, y, side)
        with pytest.raises(ValueError, match="side must be"):
            op(x, y, "sideways")


def test_normal_form_validation():
    with pytest.raises(ValueError):
        sh.NormalForm("d", 0)
    with pytest.raises(ValueError):
        sh.NormalForm("c", 1)
    for power in (1.5, True, 0.0):
        with pytest.raises(ValueError, match="^power must be an int, got "):
            sh.NormalForm("a", power)
    with pytest.raises(ValueError, match="^power must be an int, got 0.0$"):
        sh.NormalForm("c", 0.0)


def _window(limit):
    elems = [sh.NormalForm("c")]
    for k in range(-limit, limit + 1):
        elems.append(sh.NormalForm("a", k))
        elems.append(sh.NormalForm("b", k))
    return elems


def test_embedding_examples():
    assert sh.embed_normal_form(sh.NormalForm("c")) == W.ones
    assert sh.embed_normal_form(sh.NormalForm("a", 0)) == W.spike
    assert sh.embed_normal_form(sh.NormalForm("a", 1)) == BiSeq(0, -1, (1,), 0)
    assert sh.embed_normal_form(sh.NormalForm("b", 0)) == W.step


# ---------------------------------------------------------------------------
# literals

def test_literal_examples_normalise():
    assert sh.parse_biseq("L0:0:1:R0") == W.spike
    assert sh.parse_biseq("L1:0:1:R0") == W.step
    assert sh.parse_biseq("L1::R1") == W.ones
    assert sh.parse_biseq("L0:-1:1:R0") == W.spike_left


def test_literal_roundtrip():
    rng = random.Random(15)
    for _ in range(300):
        a = sh.random_biseq(rng)
        assert sh.parse_biseq(sh.format_biseq(a)) == a


def test_literal_errors():
    for bad in ("", "L2::R1", "L1:x::R0", "L1:0:12a:R0", "R1::L1", "L1:1:R0:extra:stuff"):
        with pytest.raises(ValueError):
            sh.parse_biseq(bad)


@pytest.mark.parametrize("bad, start", [
    ("x" * 100_000, "malformed sequence literal: 'xxx"),
    ("L2:" + "0" * 99_994 + ":R1", "malformed left tail in 'L2:0"),
    ("L1:" + "0" * 99_994 + ":R2", "malformed right tail in 'L1:0"),
    ("L1:0:" + "2" * 99_992 + ":R0", "word must be over 0/1 in 'L1:0:2"),
    ("L1:" + "x" * 99_992 + ":1:R0", "malformed start index in 'L1:x"),
], ids=["fields", "left-tail", "right-tail", "word", "start"])
def test_long_malformed_literal_gets_a_short_message(bad, start):
    assert len(bad) == 100_000
    with pytest.raises(ValueError) as info:
        sh.parse_biseq(bad)
    message = str(info.value)
    assert message.startswith(start) and message.endswith("... (100000 characters)")
    assert len(message) < 200


def test_samplers_draw_the_pinned_sequences():
    # the first 1,000 (random_biseq, random_agree_partner) pairs at seed 0,
    # as drawn when the word length, span and depth were still parameters,
    # and the first 10,000 as drawn when random_agree_partner read its
    # bit window one bit_at call at a time
    rng = random.Random(0)
    draws = []
    for _ in range(10_000):
        a = sh.random_biseq(rng)
        draws += [repr(a), repr(sh.random_agree_partner(rng, a))]
    assert draws[:2] == [
        "BiSeq(left_tail=1, start=4, word=(0, 1, 1, 1, 1), right_tail=0)",
        "BiSeq(left_tail=0, start=-10, word=(1, 0, 1, 0, 0, 1, 1, 0, 1, 1, 1, 1, 1, 1, 0, 1, "
        "1, 1, 1), right_tail=0)",
    ]
    digest = hashlib.sha256("\n".join(draws[:2000]).encode()).hexdigest()
    assert digest == "b96af15ca05e6e115dbd27e38424e0a60d5c5a6173c1fcba0276fe0d2807409d"
    digest = hashlib.sha256("\n".join(draws).encode()).hexdigest()
    assert digest == "8c7a1091d51bf676c55a47630619171e7d239b76b22fdb874d8dc04a6a39b111"


# the samplers as they drew through rng.randint and the checking
# constructor, kept as the references for the getrandbits draws

def reference_random_biseq(rng):
    word = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 8)))
    return BiSeq(rng.randint(0, 1), rng.randint(-8, 8), word, rng.randint(0, 1))


def reference_agree_partner(rng, a):
    lo, hi = min(-10, a.start), max(a.end, 1)
    bits = [a.left_tail] * (a.start - lo) + list(a.word) + [a.right_tail] * (hi - a.end)
    for off in range(-lo):
        if rng.random() < 0.5:
            bits[off] = rng.randint(0, 1)
    return BiSeq(rng.randint(0, 1), lo, tuple(bits), a.right_tail)


def test_samplers_draw_the_randint_references():
    for seed in (0, 1, 77):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(3000):
            a = sh.random_biseq(rng)
            assert a == reference_random_biseq(ref)
            b = sh.random_agree_partner(rng, a)
            assert b == reference_agree_partner(ref, a)
            # sampled sequences are canonical: the checking constructor
            # gives them back field for field
            for x in (a, b):
                assert type(x.word) is tuple
                assert repr(x) == repr(BiSeq(x.left_tail, x.start, x.word, x.right_tail))
        assert rng.getstate() == ref.getstate()
