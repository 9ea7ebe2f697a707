import pytest
from hypothesis import given, strategies as st

from largeness.words import (MAX_WORD_LEN, CommutatorWitness, ParseError,
                             Presentation, SearchCapExceeded, commutator,
                             conjugator_between, cyclic_reduce, exponent_vector,
                             free_reduce, inverse, is_commutator,
                             is_proper_power, parse_presentation, parse_word,
                             power, substitute, word_to_text)

letters = st.sampled_from([1, -1, 2, -2, 3, -3])
raw_words = st.lists(letters, max_size=30)
words = raw_words.map(lambda ls: free_reduce(ls))


class TestFreeReduce:
    def test_examples(self):
        assert free_reduce((1, -1, 2)) == (2,)
        assert free_reduce((1, 2, -2, 1)) == (1, 1)
        assert free_reduce(()) == ()

    @given(raw_words)
    def test_idempotent_and_shorter(self, ls):
        w = free_reduce(ls)
        assert free_reduce(w) == w
        assert len(w) <= len(ls)

    @given(words)
    def test_inverse_cancels(self, w):
        assert free_reduce(w + inverse(w)) == ()

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            free_reduce((0,))


class TestExponentVector:
    def test_examples(self):
        assert exponent_vector((1, 1, -2, 3, -1), 3) == [1, -1, 1]
        assert exponent_vector((), 2) == [0, 0]
        assert exponent_vector((2,), 4) == [0, 1, 0, 0]

    @given(raw_words)
    def test_counts_each_generator(self, ls):
        assert exponent_vector(ls, 3) == [ls.count(g) - ls.count(-g)
                                          for g in (1, 2, 3)]

    def test_letter_out_of_range(self):
        with pytest.raises(IndexError):
            exponent_vector((3,), 2)


class TestPresentationChecks:
    def test_the_four_refusals(self):
        cases = [
            (("a", "a"), (), "duplicate generator name"),
            (("a", "b"), ((1, 0, 2),), "letter 0 is not a generator"),
            (("a", "b"), ((2, 1, -1),), "relator not freely reduced"),
            (("a", "b"), ([2, 1],), "relator not freely reduced"),  # not a word
            (("a", "b"), ([2, 0],), "letter 0 is not a generator"),
            (("a", "b"), ((1, 3),), "relator letter out of range"),
            (("a", "b"), ((-3, 1),), "relator letter out of range"),
        ]
        for gens, rels, message in cases:
            with pytest.raises(ValueError) as exc:
                Presentation(gens, rels)
            assert str(exc.value) == message

    def test_order_of_the_checks(self):
        # per relator, in order: letter 0, then cancellation, then range;
        # the first relator that fails decides
        with pytest.raises(ValueError, match="^letter 0"):
            Presentation(("a",), ((1, -1, 0),))
        with pytest.raises(ValueError, match="^relator not freely"):
            Presentation(("a",), ((1, -1, 5),))
        with pytest.raises(ValueError, match="out of range"):
            Presentation(("a",), ((2,), (1, -1)))
        with pytest.raises(ValueError, match="^relator not freely"):
            Presentation(("a",), ((1, -1), (2,)))

    def test_accepts(self):
        # cancellation is only between neighbours: a word may be cyclically
        # unreduced, and every generator up to the last is in range
        p = Presentation(("a", "b"), ((), (1, 2, -1), (-2, -2), (2, 1, -2, -1)))
        assert p.nrels == 4


class TestCyclicReduce:
    def test_examples(self):
        assert cyclic_reduce((2, 1, -2)) == ((1,), (2,))
        assert cyclic_reduce((1, 2, -1, -2)) == ((1, 2, -1, -2), ())
        assert cyclic_reduce((2, 1, 1, -2)) == ((1, 1), (2,))

    @given(words)
    def test_recomposition(self, w):
        core, conj = cyclic_reduce(w)
        assert free_reduce(conj + core + inverse(conj)) == w
        if core:
            assert core[0] != -core[-1]


class TestSubstitute:
    def test_examples(self):
        # x -> x, y -> y x
        assert substitute((1, 2), [(1,), (2, 1)]) == (1, 2, 1)
        assert substitute((-1,), [(1, 2)]) == (-2, -1)
        assert substitute(commutator((1,), (2,)), [(2,), (1,)]) == (2, 1, -2, -1)

    def test_missing_image(self):
        with pytest.raises(ValueError):
            substitute((3,), [(1,), (2,)])

    @given(words, words, st.lists(words, min_size=3, max_size=3))
    def test_homomorphism(self, w1, w2, images):
        left = substitute(free_reduce(w1 + w2), images)
        right = free_reduce(substitute(w1, images) + substitute(w2, images))
        assert left == right


class TestIsCommutator:
    def test_examples(self):
        assert is_commutator((1, 2, -1, -2)) == CommutatorWitness((1,), (2,))
        wit = is_commutator((1, 1, 2, -1, -1, -2))
        assert wit.u == (1, 1) and wit.v == (2,)
        assert is_commutator((1, 1, 2, 2)) is None

    def test_cap(self):
        with pytest.raises(SearchCapExceeded):
            is_commutator(commutator((1,) * 40, (2,) * 40), max_len=64)

    @given(words, words, words)
    def test_soundness_on_built_commutators(self, u, v, g):
        w = free_reduce(g + commutator(u, v) + inverse(g))
        try:
            wit = is_commutator(w, max_len=200)
        except SearchCapExceeded:
            return
        assert wit is not None
        # the witness commutator must be conjugate to the input
        assert conjugator_between(w, commutator(wit.u, wit.v)) is not None

    def test_returned_witness_is_conjugate(self):
        w = (2, 1, 1, 2, -1, -1, -2, -2)
        wit = is_commutator(w)
        if wit is not None:
            g = conjugator_between(w, commutator(wit.u, wit.v))
            assert g is not None
            assert free_reduce(g + commutator(wit.u, wit.v) + inverse(g)) == w


class TestIsProperPower:
    def test_examples(self):
        assert is_proper_power((1, 2, 1, 2)) == ((1, 2), 2)
        assert is_proper_power((1, 2)) is None
        assert is_proper_power((2, 1, 1, -2)) == ((1,), 2)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            is_proper_power(())

    @given(words.filter(lambda w: len(w) >= 1), st.integers(2, 4))
    def test_roundtrip(self, w, k):
        core, _ = cyclic_reduce(w)
        if not core:
            return
        result = is_proper_power(power(core, k))
        assert result is not None
        root, e = result
        assert e >= k and e % k == 0
        assert conjugator_between(power(root, e), power(core, k)) is not None

    def test_exponent_maximality(self):
        root, e = is_proper_power(power((1, 2), 6))
        assert (root, e) == ((1, 2), 6)


class TestConjugatorBetween:
    @given(words, words)
    def test_finds_conjugator(self, w, g):
        w2 = free_reduce(g + w + inverse(g))
        c = conjugator_between(w2, w)
        assert c is not None
        assert free_reduce(c + w + inverse(c)) == w2

    def test_non_conjugate(self):
        assert conjugator_between((1,), (2,)) is None
        assert conjugator_between((1, 1), (1,)) is None


class TestParser:
    def test_commutator_presentation(self):
        p = parse_presentation("< a, b | a b a^-1 b^-1 >")
        assert p.generators == ("a", "b")
        assert p.relators == ((1, 2, -1, -2),)

    def test_bs12(self):
        p = parse_presentation("< x, y | x y x^-1 y^-2 >")
        assert p.relators == ((1, 2, -1, -2, -2),)

    def test_uppercase_inverse(self):
        p = parse_presentation("< a, b | a b A B >")
        assert p.relators == ((1, 2, -1, -2),)

    def test_equation_form(self):
        p = parse_presentation("< x, y | x y x^-1 = y^2 >")
        assert p.relators == ((1, 2, -1, -2, -2),)

    def test_empty_relator_list(self):
        p = parse_presentation("< a, b | >")
        assert p.nrels == 0

    def test_empty_relator_token(self):
        with pytest.raises(ParseError):
            parse_presentation("< a | a^3, >")

    def test_duplicate_generator(self):
        with pytest.raises(ParseError):
            parse_presentation("< a, a | >")

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse_presentation("< a | b >")

    def test_error_carries_position(self):
        try:
            parse_presentation("< a |\n c >")
        except ParseError as exc:
            assert exc.line == 2
        else:
            pytest.fail("expected ParseError")

    @given(words)
    def test_word_text_roundtrip(self, w):
        names = ("a", "b", "c")
        assert parse_word(word_to_text(w, names), names) == w

    def test_word_length_bound(self):
        # letters are counted before free reduction, across factors
        n = MAX_WORD_LEN
        p = parse_presentation(f"< a, b | a^{n - 1} b^-1 >")
        assert p.relators == ((1,) * (n - 1) + (-2,),)
        for text in [f"< a | a^{n + 1} >", f"< a, b | a^{n} b >",
                     f"< a | a^-{n} a >", f"< a, b | a = b^{n + 1} >",
                     "< a, b | a^10000000 >"]:
            with pytest.raises(ParseError, match="longer than"):
                parse_presentation(text)

    def test_joined_relator_bound(self):
        # u = v is stored as u v^-1, which parse_word must read back
        h = MAX_WORD_LEN // 2
        p = parse_presentation(f"< a, b | a^{h} = b^{h} >")
        assert len(p.relators[0]) == MAX_WORD_LEN
        assert parse_word(word_to_text(p.relators[0], p.generators),
                          p.generators) == p.relators[0]
        assert parse_presentation(f"< a | a^{MAX_WORD_LEN} = a >").relators == (
            (1,) * (MAX_WORD_LEN - 1),)
        with pytest.raises(ParseError, match="relator longer than") as exc:
            parse_presentation(f"< a, b | a b, a^{h + 1} = b^{h} >")
        assert (exc.value.line, exc.value.col) == (1, 14)

    def test_huge_exponent(self):
        # an exponent with more digits than the bound is refused at its
        # factor without building the number; int() alone refuses strings
        # over 4300 digits with no position
        digits = "9" * 5000
        for text, pos in [(f"< a | a^{digits} >", (1, 7)),
                          (f"< a, b |\n b a^-{digits} >", (2, 4)),
                          (f"< a | a^{'1' + '0' * 6} >", (1, 7))]:
            with pytest.raises(ParseError, match=f"word longer than {MAX_WORD_LEN}") as exc:
                parse_presentation(text)
            assert (exc.value.line, exc.value.col) == pos
        # leading zeros do not count, and an unknown name is reported first
        zeros = "0" * 5000
        assert parse_presentation(f"< a | a^{zeros}3 >").relators == ((1, 1, 1),)
        assert parse_presentation(f"< a | a^-{zeros}{MAX_WORD_LEN} >").relators == (
            (-1,) * MAX_WORD_LEN,)
        with pytest.raises(ParseError, match="unknown generator"):
            parse_presentation(f"< a | q^{digits} >")

    def test_multichar_names(self):
        p = parse_presentation("< gen1, gen2 | gen1 gen2^-3 >")
        assert p.relators == ((1, -2, -2, -2),)
