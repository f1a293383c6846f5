"""Bi-infinite binary sequences under shifts: a rack and a quandle built
on them, each carrying an equivalence relation that respects exactly one
of the two rack operations.

Only sequences that are eventually constant on both sides are
represented: a left tail bit, a finite word starting at some index, and
a right tail bit.  Every witness needed here lives in that subclass, and
on it both relations below and both operations are exactly decidable.

The rack is the constant action of the left shift (seq_rack_op).  The
quandle (seq_quandle_op) shifts its first argument only when the two
arguments are in different shift-equivalence classes, which makes the
operation idempotent.  In both structures, agreement on all indices >= 0
(agree_nonneg) respects the primary operation but not the inverse one;
the witnesses for the failure are produced by half_congruence_witnesses.
"""

from __future__ import annotations

from .tables import PRIMARY, Record, _draw, _quoted, side_sign

LEFT = "left"
RIGHT = "right"


class BiSeq(Record):
    """Eventually constant sequence over {0,1} indexed by the integers.

    bit i is left_tail for i < start, word[i - start] inside the word,
    and right_tail from the end of the word on.  Construction
    canonicalises: the word never begins with the left tail bit nor ends
    with the right tail bit, and a constant sequence has start 0.  Two
    equal sequences therefore compare equal structurally.
    """

    __slots__ = ("left_tail", "start", "word", "right_tail")

    def __new__(cls, left_tail: int, start: int, word: tuple[int, ...], right_tail: int):
        if not _is_bit(left_tail) or not _is_bit(right_tail):
            raise ValueError("tail bits must be 0 or 1")
        if type(start) is not int:
            raise ValueError(f"start must be an int, got {_quoted(start)}")
        word = tuple(word)
        if not all(map(_is_bit, word)):
            raise ValueError("word bits must be 0 or 1")
        return cls._new(*_canonical(left_tail, start, word, right_tail))

    @property
    def end(self) -> int:
        """First index at or after the word that is in the right tail."""
        return self.start + len(self.word)

    def bit_at(self, i: int) -> int:
        if i < self.start:
            return self.left_tail
        if i < self.end:
            return self.word[i - self.start]
        return self.right_tail


def _is_bit(b) -> bool:
    """The int 0 or 1; not a bool or a float."""
    return type(b) is int and b in (0, 1)


def _canonical(left_tail: int, start: int, word: tuple[int, ...], right_tail: int):
    """The fields of the sequence given by 0/1 bits, canonically: the
    word begins at its first bit other than left_tail (a membership test
    is cheaper than the ValueError of index when there is none) and ends
    at its last bit other than right_tail, and a constant sequence
    starts at 0."""
    lo = word.index(1 - left_tail) if 1 - left_tail in word else len(word)
    hi = len(word)
    while hi > lo and word[hi - 1] == right_tail:
        hi -= 1
    if lo == hi and left_tail == right_tail:
        start = 0
    else:
        start += lo
    return left_tail, start, word[lo:hi], right_tail


def shift(a: BiSeq, direction: str) -> BiSeq:
    """Left shift moves every bit one index down: (shift left a)_i = a_{i+1}."""
    if direction == LEFT:
        return shift_by(a, 1)
    if direction == RIGHT:
        return shift_by(a, -1)
    raise ValueError(f"direction must be {LEFT!r} or {RIGHT!r}")


def shift_by(a: BiSeq, k: int) -> BiSeq:
    """k-fold left shift, for an int k; negative k shifts right.  Only the
    start moves, with no check or canonicalisation, which a shift of a
    canonical sequence cannot change; a constant sequence keeps start 0,
    so it is its own shift."""
    if type(k) is not int:
        raise ValueError(f"shift must be an int, got {_quoted(k)}")
    if not a.word and a.left_tail == a.right_tail:
        return a
    return BiSeq._new(a.left_tail, a.start - k, a.word, a.right_tail)


def agree_nonneg(a: BiSeq, b: BiSeq) -> bool:
    """Whether a_i = b_i for every i >= 0.

    That is, whether the sequences that keep those bits and repeat the
    bit at 0 below 0 are equal, or their canonical fields (_nonneg_fields)
    are.  O(|a.word| + |b.word|) however far from 0 the words lie.
    """
    return a.right_tail == b.right_tail and _nonneg_fields(a) == _nonneg_fields(b)


def _nonneg_fields(a: BiSeq):
    """Canonical fields of a's bits at indices >= 0 with a's bit at 0
    repeated below 0: a's own when its word starts past 0, else those of
    its word cut at 0, whose bit at 0 becomes the left tail."""
    if a.start > 0:
        return a.left_tail, a.start, a.word, a.right_tail
    word = a.word[-a.start:]
    return _canonical(word[0] if word else a.right_tail, 0, word, a.right_tail)


def shift_equivalent(a: BiSeq, b: BiSeq) -> bool:
    """Whether some shift of a eventually agrees with b: there exist
    integers j, k with a_i = b_{i+j} for all i >= k.

    On eventually constant sequences this reduces to equality of the
    right tail bits.  If the tails differ then for any j and all large
    i we have a_i = a.right_tail != b.right_tail = b_{i+j}, so no (j, k)
    works.  If the tails agree, take j = 0 and k past the end of both
    words; from there on both sequences are constant at the common tail.
    The tests re-check this reduction against the two-quantifier
    definition by bounded search over j, k in [-16, 16].
    """
    return a.right_tail == b.right_tail


def seq_rack_op(a: BiSeq, b: BiSeq, side: str = PRIMARY) -> BiSeq:
    """Constant action rack of the left shift: the second argument is
    ignored and a is shifted left (primary) or right (inverse)."""
    return shift_by(a, 1 if side == PRIMARY else side_sign(side))


def seq_quandle_op(a: BiSeq, b: BiSeq, side: str = PRIMARY) -> BiSeq:
    """Quandle operation: fix a, first, when it is shift-equivalent to b
    (same right tail), else shift it left (primary) or right (inverse)."""
    if a.right_tail == b.right_tail:
        if side is not PRIMARY:
            side_sign(side)
        return a
    return shift_by(a, 1 if side is PRIMARY else side_sign(side))


class Witnesses(Record):
    """Named sequences exhibiting the half congruences.

    spike (1 at index 0 only) and step (1 exactly at indices <= 0) agree
    at all indices >= 0 but their right shifts do not, and in the quandle,
    acting on each by ones (constant 1; inverse side) is exactly that
    right shift.  zeros (constant 0) and spike_left (1 at index -1 only)
    are the analogous pair for the plain shift rack.
    """

    __slots__ = ("spike", "step", "ones", "zeros", "spike_left")


_WITNESSES = Witnesses(
    spike=BiSeq(0, 0, (1,), 0),
    step=BiSeq(1, 1, (), 0),
    ones=BiSeq(1, 0, (), 1),
    zeros=BiSeq(0, 0, (), 0),
    spike_left=BiSeq(0, -1, (1,), 0),
)


def half_congruence_witnesses() -> Witnesses:
    """The named witnesses; one immutable instance shared by all callers."""
    return _WITNESSES


# ---------------------------------------------------------------------------
# finitely presented quandle on normal forms

class NormalForm(Record):
    """Element a^k, b^k or c of the quandle presented by generators
    a, b, c and relations a*b = a, b*a = b, c*a = c, c*b = c.

    c is the only generator that moves anything: acting by c on the
    right steps the power (x^k * c = x^(k+1), x^k *' c = x^(k-1));
    everything else fixes its left argument.  x^k abbreviates the image
    of x under the k-th power of the symmetry at c.
    """

    __slots__ = ("gen", "power")

    def __new__(cls, gen: str, power: int = 0):
        if gen not in ("a", "b", "c"):
            raise ValueError("generator must be 'a', 'b' or 'c'")
        if type(power) is not int:
            raise ValueError(f"power must be an int, got {_quoted(power)}")
        if gen == "c" and power != 0:
            raise ValueError("c carries no power")
        return cls._new(gen, power)


def normal_form_op(u: NormalForm, v: NormalForm, side: str = PRIMARY) -> NormalForm:
    """Multiplication on normal forms: u itself, returned first, unless v
    is c and u is not; then u's generator at the next (primary) or previous
    (inverse) power, built by _new, since no check can fail for a or b."""
    if v.gen != "c" or u.gen == "c":
        if side is not PRIMARY:
            side_sign(side)
        return u
    return NormalForm._new(u.gen, u.power + (1 if side is PRIMARY else side_sign(side)))


def embed_normal_form(u: NormalForm) -> BiSeq:
    """Embed into the sequence quandle: a^k and b^k map to the k-fold
    left shifts of spike and step, c maps to ones.  A homomorphism for
    both operations, injective on any bounded power range."""
    if u.gen == "a":
        return shift_by(_WITNESSES.spike, u.power)
    if u.gen == "b":
        return shift_by(_WITNESSES.step, u.power)
    return _WITNESSES.ones


# ---------------------------------------------------------------------------
# text literals and sampling

def parse_biseq(text: str) -> BiSeq:
    """Parse "L<bit>:<start>:<word>:R<bit>" (start may be empty; the
    3-field form "L<bit>:<word>:R<bit>" means start 0).  The result is
    canonical, so e.g. "L1:0:1:R0" collapses its word into the left tail."""
    parts = text.split(":")
    if len(parts) == 4:
        left_s, start_s, word_s, right_s = parts
    elif len(parts) == 3:
        left_s, word_s, right_s = parts
        start_s = ""
    else:
        raise ValueError(f"malformed sequence literal: {_quoted(text)}")
    if len(left_s) != 2 or left_s[0] != "L" or left_s[1] not in "01":
        raise ValueError(f"malformed left tail in {_quoted(text)}")
    if len(right_s) != 2 or right_s[0] != "R" or right_s[1] not in "01":
        raise ValueError(f"malformed right tail in {_quoted(text)}")
    if any(ch not in "01" for ch in word_s):
        raise ValueError(f"word must be over 0/1 in {_quoted(text)}")
    try:
        start = int(start_s) if start_s else 0
    except ValueError:
        raise ValueError(f"malformed start index in {_quoted(text)}")
    return BiSeq(int(left_s[1]), start, tuple(int(ch) for ch in word_s), int(right_s[1]))


def format_biseq(a: BiSeq) -> str:
    if not a.word and a.start == 0:
        return f"L{a.left_tail}::R{a.right_tail}"
    word = "".join(str(b) for b in a.word)
    return f"L{a.left_tail}:{a.start}:{word}:R{a.right_tail}"


def random_biseq(rng) -> BiSeq:
    """Canonical random sequence: uniform tail bits, a uniform word of
    length 0..8, start uniform in [-8, 8].  Used by every seeded property
    suite; keep the distribution stable.  On a random.Random the draws
    are bit for bit those of rng.randrange over each range: the length,
    each word bit, the left tail, the start and the right tail, in that
    order."""
    bits = rng.getrandbits
    length = _draw(bits, 0, 8)
    word = []
    while len(word) < length:
        # a bit is 2 fresh bits, drawn again when they read 2 or 3
        r = bits(2)
        if r < 2:
            word.append(r)
    fields = _canonical(_draw(bits, 0, 1), _draw(bits, -8, 8), tuple(word), _draw(bits, 0, 1))
    return BiSeq._new(*fields)


def random_agree_partner(rng, a: BiSeq) -> BiSeq:
    """Random b agreeing with a at all indices >= 0, built by rewriting
    the bits at indices in [-10, -1] and possibly the left tail."""
    lo, hi = min(-10, a.start), max(a.end, 1)
    # the bits at indices lo .. hi - 1
    bits = [a.left_tail] * (a.start - lo) + list(a.word) + [a.right_tail] * (hi - a.end)
    draw, coin = rng.getrandbits, rng.random
    for off in range(-lo):
        if coin() < 0.5:
            r = draw(2)
            while r >= 2:
                r = draw(2)
            bits[off] = r
    return BiSeq._new(*_canonical(_draw(draw, 0, 1), lo, tuple(bits), a.right_tail))
