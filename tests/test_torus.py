import random
import time

import pytest

from largeness import subgroups, torus
from largeness.certify import (CertifyConfig, dumps, verdict_to_json,
                               verify_certificate)
from largeness.stallings import BoundExceeded, fold, graph_basis, sg_membership
from largeness.torus import (MAX_WITNESS_POWER, Endomorphism, PeriodicWitness,
                             endo_apply, endo_is_injective, endo_power,
                             mapping_torus, preimage_subgroup, stable_letter_name,
                             stable_pullback, torus_bs_pipeline, torus_zz_pipeline,
                             whitehead_primitive_basis, witness_verify,
                             _whitehead_autos)
from largeness.words import MAX_WORD_LEN, free_reduce, inverse, substitute

IDENTITY2 = Endomorphism(((1,), (2,)))
SHEAR = Endomorphism(((1,), (2, 1)))        # x -> x, y -> y x
CUBE_X = Endomorphism(((1, 1, 1), (2,)))    # x -> x^3, y -> y
SQUARES = Endomorphism(((1, 1), (2, 2)))


class TestEndo:
    def test_apply_power(self):
        assert endo_apply(SHEAR, (2,), 2) == (2, 1, 1)
        assert endo_apply(IDENTITY2, (1, 2, -1), 3) == (1, 2, -1)
        assert endo_apply(Endomorphism(((1, 1),), ("x",)), (-1,), 1) == (-1, -1)

    def test_injective(self):
        assert endo_is_injective(SQUARES)
        assert not endo_is_injective(Endomorphism(((1,), (1,))))
        assert endo_is_injective(IDENTITY2)

    def test_power(self):
        e2 = endo_power(SHEAR, 2)
        assert e2.images == ((1,), (2, 1, 1))


class TestMappingTorus:
    def test_bs12(self):
        p = mapping_torus(Endomorphism(((1, 1),), ("x",)))
        assert str(p) == "< x, t | t x t^-1 x^-2 >"
        assert p.deficiency == 1

    def test_identity_f2(self):
        p = mapping_torus(IDENTITY2)
        assert p.ngens == 3 and p.nrels == 2
        assert p.relators[0] == (3, 1, -3, -1)

    def test_shear(self):
        p = mapping_torus(SHEAR)
        assert p.relators[1] == (3, 2, -3, -1, -2)

    def test_deficiency_always_one(self):
        rnd = random.Random(6)
        for _ in range(10):
            n = rnd.randint(1, 3)
            imgs = []
            for g in range(n):
                word = [rnd.choice([x for x in range(-n, n + 1) if x])
                        for _ in range(rnd.randint(1, 5))]
                imgs.append(free_reduce(tuple(word)))
            p = mapping_torus(Endomorphism(tuple(imgs)))
            assert p.ngens == n + 1 and p.nrels == n

    def test_stable_letter_name(self):
        # t, s, u, then the first free t0, t1, ...
        assert stable_letter_name(()) == "t"
        assert stable_letter_name(("t", "s", "u", "t0")) == "t1"
        assert stable_letter_name(("t", "s", "u", "t0", "t1")) == "t2"


class TestPreimage:
    def test_identity(self):
        evenx = fold([(1, 1), (2,), (1, 2, -1)])
        pre = preimage_subgroup(IDENTITY2, evenx)
        assert pre.canonical_key() == evenx.canonical_key()

    def test_squares_on_even_total(self):
        even_total = fold([(1, 1), (2, 2), (1, 2)])
        assert even_total.nvertices == 2
        pre = preimage_subgroup(SQUARES, even_total)
        assert pre.nvertices == 1  # squares always have even exponent sums

    def test_swap_sends_even_x_to_even_y(self):
        swap = Endomorphism(((2,), (1,)))
        evenx = fold([(1, 1), (2,), (1, 2, -1)])
        pre = preimage_subgroup(swap, evenx)
        assert pre.nvertices == 2
        assert sg_membership(pre, (1,))          # x has zero y-count
        assert not sg_membership(pre, (2,))      # y is odd in itself

    def test_membership_property(self):
        rnd = random.Random(3)
        evenx = fold([(1, 1), (2,), (1, 2, -1)])
        for e in (SHEAR, SQUARES, Endomorphism(((2,), (1,)))):
            pre = preimage_subgroup(e, evenx)
            assert pre.nvertices <= evenx.nvertices
            basis = graph_basis(pre)
            for _ in range(50):
                gamma = free_reduce(tuple(
                    x for w in rnd.choices(basis, k=rnd.randint(1, 3))
                    for x in (w if rnd.random() < .5 else inverse(w))))
                assert sg_membership(evenx, endo_apply(e, gamma, 1))

    def test_infinite_index_rejected(self):
        with pytest.raises(ValueError):
            preimage_subgroup(IDENTITY2, fold([(1,)]))


class TestStablePullback:
    def test_identity(self):
        evenx = fold([(1, 1), (2,), (1, 2, -1)])
        delta, j = stable_pullback(IDENTITY2, evenx)
        assert j == 1 and delta.canonical_key() == evenx.canonical_key()

    def test_shear_whole_group(self):
        bouquet = fold([(1,), (2,)])
        delta, j = stable_pullback(SHEAR, bouquet)
        assert j == 1 and delta.nvertices == 1

    def test_postcondition_replayed(self):
        evenx = fold([(1, 1), (2,), (1, 2, -1)])
        for e in (CUBE_X, SQUARES, Endomorphism(((2,), (1,)))):
            delta, j = stable_pullback(e, evenx)
            for b in graph_basis(delta):
                assert sg_membership(delta, endo_apply(e, b, j))

    def test_no_repetition(self, monkeypatch):
        # preimages that never repeat end in the bound's diagnostic
        steps = iter(range(2, 200))
        monkeypatch.setattr(torus, "preimage_subgroup",
                            lambda e, cover: fold([(1,) * next(steps)]))
        with pytest.raises(BoundExceeded) as info:
            stable_pullback(IDENTITY2, fold([(1,), (2,)]))
        assert str(info.value) == "no repetition within 64 pullbacks"


class TestWitness:
    def test_examples(self):
        assert witness_verify(Endomorphism(((1,),), ("x",)),
                              PeriodicWitness((1,), 1, (), 1))
        assert witness_verify(Endomorphism(((1, 1, 1),), ("x",)),
                              PeriodicWitness((1,), 1, (), 3))
        assert not witness_verify(Endomorphism(((1, 1),), ("x",)),
                                  PeriodicWitness((1,), 1, (), 1))

    def test_conjugated(self):
        # theta: x -> y x y^-1 has theta(x) = y x y^-1
        e = Endomorphism(((2, 1, -2), (2,)))
        assert witness_verify(e, PeriodicWitness((1,), 1, (2,), 1))

    def test_bounds_refuse_before_building(self):
        double = Endomorphism(((1, 1),), ("x",))
        assert witness_verify(double, PeriodicWitness((1,), 13, (), 2 ** 13))
        with pytest.raises(ValueError, match=r"theta\^14\(w\) needs more"):
            witness_verify(double, PeriodicWitness((1,), 14, (), 2))
        longest = Endomorphism(((1,) * MAX_WORD_LEN,), ("x",))
        assert witness_verify(longest, PeriodicWitness((1,), 1, (), MAX_WORD_LEN))
        with pytest.raises(ValueError, match=r"v w\^k v\^-1 is longer"):
            witness_verify(longest, PeriodicWitness((1,), 1, (1,), MAX_WORD_LEN - 1))
        identity = Endomorphism(((1,),), ("x",))
        assert witness_verify(identity, PeriodicWitness((1,), MAX_WITNESS_POWER, (), 1))
        with pytest.raises(ValueError, match="witness power 65 is above the bound 64"):
            witness_verify(identity, PeriodicWitness((1,), MAX_WITNESS_POWER + 1, (), 1))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            PeriodicWitness((), 1, (), 1)
        with pytest.raises(ValueError):
            PeriodicWitness((1,), 0, (), 1)
        with pytest.raises(ValueError):
            PeriodicWitness((1,), 1, (), 0)


class TestWhitehead:
    def test_conjugate_of_generator(self):
        bouquet = fold([(1,), (2,)])
        basis = whitehead_primitive_basis(bouquet, (1, 2, -1))
        assert basis is not None and (1, 2, -1) in basis
        assert fold(basis).canonical_key() == bouquet.canonical_key()

    def test_product_generator(self):
        bouquet = fold([(1,), (2,)])
        basis = whitehead_primitive_basis(bouquet, (1, 2))
        assert basis is not None and (1, 2) in basis

    def test_moves_come_with_their_inverses(self):
        for r in (1, 2, 3):
            gens = [(g,) for g in range(1, r + 1)]
            for imgs, inv in _whitehead_autos(r):
                assert [substitute(substitute(x, imgs), inv) for x in gens] == gens
                assert [substitute(substitute(x, inv), imgs) for x in gens] == gens

    def test_several_moves_in_rank_three(self):
        # undoing the moves changes the other basis elements too
        bouquet = fold([(1,), (2,), (3,)])
        for w, other in [((2, 3, 1, 3, 1), (2, 3, 1)), ((1, 2, 3, 2, 1), (1, 2, 1))]:
            basis = whitehead_primitive_basis(bouquet, w)
            assert basis == [(1,), other, w]
            assert fold(basis).canonical_key() == bouquet.canonical_key()

    def test_non_primitive(self):
        bouquet = fold([(1,), (2,)])
        assert whitehead_primitive_basis(bouquet, (1, 1)) is None
        assert whitehead_primitive_basis(bouquet, (1, 1, 2, 2)) is None


class TestPipelines:
    def test_identity_f2_large(self):
        v = torus_zz_pipeline(IDENTITY2, PeriodicWitness((1,), 1, (), 1))
        assert v.status == "LARGE"
        assert verify_certificate(mapping_torus(IDENTITY2), v.certificate)

    def test_shear_large(self):
        v = torus_zz_pipeline(SHEAR, PeriodicWitness((1,), 1, (), 1))
        assert v.status == "LARGE"
        assert verify_certificate(mapping_torus(SHEAR), v.certificate)

    def test_identity_f1_is_zxz(self):
        e = Endomorphism(((1,),), ("x",))
        v = torus_zz_pipeline(e, PeriodicWitness((1,), 1, (), 1))
        assert v.status == "NOT_LARGE_KNOWN"
        assert v.citation == {"reason": "ZxZ"}

    def test_klein_bottle(self):
        e = Endomorphism(((-1,),), ("x",))
        v = torus_zz_pipeline(e, PeriodicWitness((1,), 1, (), -1))
        assert v.status == "NOT_LARGE_KNOWN"
        assert v.citation["reason"] == "BS_coprime"

    def test_cube_large_mod2(self):
        v = torus_bs_pipeline(CUBE_X, PeriodicWitness((1,), 1, (), 3))
        assert v.status == "LARGE"
        assert v.certificate.kind == "alexander_zero"
        assert v.certificate.data["field"] == "F2"
        assert verify_certificate(mapping_torus(CUBE_X), v.certificate)

    def test_bs13_not_large(self):
        e = Endomorphism(((1, 1, 1),), ("x",))
        v = torus_bs_pipeline(e, PeriodicWitness((1,), 1, (), 3))
        assert v.status == "NOT_LARGE_KNOWN"
        assert v.citation == {"reason": "BS_coprime", "l": 1, "m": 3}

    def test_exponent_two_uses_double_cover(self):
        e = Endomorphism(((1, 1), (2,)))  # x -> x^2, y -> y
        v = torus_bs_pipeline(e, PeriodicWitness((1,), 1, (), 2))
        assert v.status == "LARGE"
        assert verify_certificate(mapping_torus(e), v.certificate)

    def test_negative_witness_squared(self):
        e = Endomorphism(((-1,), (2,)))  # x -> x^-1, y -> y
        v = torus_zz_pipeline(e, PeriodicWitness((1,), 1, (), -1))
        assert v.status == "LARGE"
        assert verify_certificate(mapping_torus(e), v.certificate)

    def test_witness_word_proper_power(self):
        v = torus_zz_pipeline(IDENTITY2, PeriodicWitness((1, 1), 1, (), 1))
        assert v.status == "LARGE"
        assert verify_certificate(mapping_torus(IDENTITY2), v.certificate)

    def test_fields_bound_their_factoring(self):
        # 1 - 3^43 = -2 * 431 * (a 59-bit prime): is_prime ends the trial
        # division; 1 - 3^61 leaves a 77-bit prime, above the primality
        # bound, after trial division up to TRIAL_BOUND
        t0 = time.perf_counter()
        assert [f.name for f in torus._fields_for(3 ** 43)] == [
            "F2", "F431", "F380808546861411923"]
        assert time.perf_counter() - t0 < 1.0
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="105293313660391861035901 has no prime divisor"):
            torus._fields_for(3 ** 61)
        assert time.perf_counter() - t0 < 1.0

    def test_unfactored_cover_is_passed_over(self, monkeypatch):
        # each d whose 1 - e^d is not factored is noted and passed over, as
        # one with no prime divisor is
        def unfactored(n):
            raise ValueError(f"{abs(n)} is not factored")
        monkeypatch.setattr(torus, "prime_factors", unfactored)
        v = torus_bs_pipeline(CUBE_X, PeriodicWitness((1,), 1, (), 3),
                              CertifyConfig(max_index=4, budget=1))
        assert v.status == "UNKNOWN"
        assert v.diagnostics[-4:] == tuple(f"d={d}: |1-e| = {3 ** d - 1} is not factored"
                                           for d in range(1, 5))

    def test_non_injective_rejected(self):
        bad = Endomorphism(((1,), (1,)))
        with pytest.raises(ValueError):
            torus_zz_pipeline(bad, PeriodicWitness((1,), 1, (), 1))

    def test_bad_witness_rejected(self):
        with pytest.raises(ValueError):
            torus_zz_pipeline(SHEAR, PeriodicWitness((2,), 1, (), 1))

    def test_wrong_pipeline_exponent(self):
        with pytest.raises(ValueError):
            torus_bs_pipeline(IDENTITY2, PeriodicWitness((1,), 1, (), 1))
        with pytest.raises(ValueError):
            torus_zz_pipeline(CUBE_X, PeriodicWitness((1,), 1, (), 3))

    def test_pinned_subgroup_search_is_bounded(self):
        # the covers of the pinned subgroup come from a search cut at
        # li_nodes DFS nodes, and a cut search says so when UNKNOWN
        e = Endomorphism(((-1,), (1, 2, 2, 1)))
        wit = PeriodicWitness((1,), 1, (), -1)
        cut = torus_zz_pipeline(e, wit, CertifyConfig(max_index=3, budget=0, li_nodes=3))
        assert cut.status == "UNKNOWN"
        assert any(d.startswith("no finite-index subgroup")
                   and d.endswith("; search truncated at the node budget")
                   for d in cut.diagnostics)
        full = torus_zz_pipeline(e, wit, CertifyConfig(max_index=3, budget=0))
        assert full.status == "LARGE"
        assert "of the pinned subgroup gives" in full.diagnostics[-1]
        assert verify_certificate(mapping_torus(e), full.certificate)

    def test_conjugated_witness(self):
        # theta: x -> y x^3 y^-1, y -> y: theta(x) = v x^3 v^-1 with v = y
        e = Endomorphism(((2, 1, 1, 1, -2), (2,)))
        wit = PeriodicWitness((1,), 1, (2,), 3)
        assert witness_verify(e, wit)
        v = torus_bs_pipeline(e, wit)
        assert v.status == "LARGE"
        assert verify_certificate(mapping_torus(e), v.certificate)

    def test_random_fixing_endomorphisms_sound(self):
        # theta fixes x, sends y to a random word: the witness (x,1,,1) is
        # always valid; every verdict must be sound and every certificate
        # must replay
        rnd = random.Random(31)
        fast = CertifyConfig(max_index=4, budget=1)
        seen = {}
        for _ in range(25):
            img = []
            for _ in range(rnd.randint(1, 6)):
                img.append(rnd.choice([1, -1, 2, -2]))
            e = Endomorphism(((1,), free_reduce(tuple(img))))
            if not endo_is_injective(e):
                continue
            v = torus_zz_pipeline(e, PeriodicWitness((1,), 1, (), 1), fast)
            seen[v.status] = seen.get(v.status, 0) + 1
            assert v.status in ("LARGE", "UNKNOWN")
            if v.certificate is not None:
                assert verify_certificate(mapping_torus(e), v.certificate)
        assert seen.get("LARGE", 0) >= 5

    def test_random_power_witnesses_sound(self):
        rnd = random.Random(37)
        fast = CertifyConfig(max_index=4, budget=1)
        for _ in range(15):
            k = rnd.choice([2, 3, -2, 5])
            tail = free_reduce(tuple(rnd.choice([1, -1, 2, -2])
                                     for _ in range(rnd.randint(1, 4))))
            e = Endomorphism(((1,) * k if k > 0 else (-1,) * (-k),
                              tail or (2,)))
            if not endo_is_injective(e):
                continue
            wit = PeriodicWitness((1,), 1, (), k)
            if not witness_verify(e, wit):
                continue
            v = torus_bs_pipeline(e, wit, fast)
            assert v.status in ("LARGE", "UNKNOWN")
            if v.certificate is not None:
                assert verify_certificate(mapping_torus(e), v.certificate)


class TestUnknownExits:
    """Each bounded stage of the pipeline ends UNKNOWN with its diagnostic
    when its bound is hit."""

    WIT = PeriodicWitness((1,), 1, (), 1)

    def test_pullback_bound(self, monkeypatch):
        monkeypatch.setattr(torus, "MAX_PULLBACKS", 0)
        v = torus_zz_pipeline(SHEAR, self.WIT)
        assert v.status == "UNKNOWN"
        assert v.diagnostics == (
            "stable pullback bound: no repetition within 0 pullbacks",)

    def test_primitivity_not_established(self, monkeypatch):
        monkeypatch.setattr(torus, "pin_loop_basis", lambda graph, w: None)
        monkeypatch.setattr(torus, "whitehead_primitive_basis", lambda graph, w: None)
        v = torus_zz_pipeline(SHEAR, self.WIT)
        assert v.status == "UNKNOWN"
        assert v.diagnostics[-1] == (
            "primitivity of the witness word in the pulled-back subgroup "
            "not established within budget")

    def test_coset_bound(self, monkeypatch):
        monkeypatch.setattr(subgroups, "MAX_COSETS", 1)
        v = torus_zz_pipeline(SHEAR, self.WIT, CertifyConfig(max_index=2))
        assert v.status == "UNKNOWN"
        assert v.diagnostics[1:] == (
            "d=1: coset enumeration bound (coset bound 1 exceeded)",
            "d=2: coset enumeration bound (coset bound 1 exceeded)")


class TestWhiteheadFallback:
    # when the witness loop cannot be pinned into a spanning-tree basis of
    # Delta, a primitive basis is searched for by Whitehead moves; the coset
    # tables are canonical, so the basis chosen for Delta changes no byte
    @pytest.mark.parametrize("e, wit", [
        (IDENTITY2, PeriodicWitness((1, 2), 1, (), 1)),
        (IDENTITY2, PeriodicWitness((1, 1, 2), 1, (), 1)),
        (IDENTITY2, PeriodicWitness((2, 1, -2, 1), 1, (), 1)),
        (SHEAR, PeriodicWitness((2, 1, -2), 1, (), 1)),
        (Endomorphism(((1,), (2,), (3,))), PeriodicWitness((1, 2, 3), 1, (), 1)),
        (Endomorphism(((2, 1, 1, 1, -2), (2,))), PeriodicWitness((1,), 1, (2,), 3)),
        (Endomorphism(((1, 1), (2,))), PeriodicWitness((1,), 1, (), 2)),
    ])
    def test_same_bytes_as_the_pinned_basis(self, monkeypatch, e, wit):
        pipeline = torus_zz_pipeline if abs(wit.k) == 1 else torus_bs_pipeline
        fast = CertifyConfig(max_index=4, budget=1)
        pinned = pipeline(e, wit, fast)
        assert pinned.status == "LARGE"
        calls = []

        def spy(delta, w, *args):
            calls.append(w)
            return whitehead_primitive_basis(delta, w, *args)

        monkeypatch.setattr(torus, "pin_loop_basis", lambda graph, w: None)
        monkeypatch.setattr(torus, "whitehead_primitive_basis", spy)
        fallback = pipeline(e, wit, fast)
        assert calls
        assert dumps(verdict_to_json(fallback)) == dumps(verdict_to_json(pinned))
