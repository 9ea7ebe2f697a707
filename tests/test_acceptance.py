"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the report.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

from largeness.abelian import smith_normal_form
from largeness.alexander import (LaurentPoly, QQ, alexander_polynomial,
                                 fox_derivative)
from largeness.abelian import Chi
from largeness.certify import (CertifyConfig, certify, dumps, verdict_to_json,
                               verify_certificate, verify_citation)
from largeness.subgroups import low_index_subgroups, reidemeister_schreier
from largeness.torus import (Endomorphism, PeriodicWitness, mapping_torus,
                             torus_bs_pipeline, torus_zz_pipeline)
from largeness.words import (Presentation, default_names, free_reduce,
                             parse_presentation)
from oracles import gr_add, gr_mul, gr_neg, gr_one, subgroup_count_by_index

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def report(criterion, ok, detail, elapsed, bound):
    status = "PASS" if ok and elapsed < bound else "FAIL"
    print(f"{status} criterion {criterion}: {detail} ({elapsed:.2f}s < {bound}s)")
    assert ok, f"criterion {criterion}: {detail}"
    assert elapsed < bound, f"criterion {criterion} too slow: {elapsed:.2f}s"


def test_criterion_1_fox_fundamental_identity():
    rnd = random.Random(101)
    t0 = time.time()
    checked = 0
    while checked < 200:
        n = rnd.randint(1, 4)
        length = rnd.randint(0, 30)
        r = free_reduce(tuple(rnd.choice([x for x in range(-n, n + 1) if x])
                              for _ in range(length)))
        total = {}
        for g in range(n):
            term = gr_mul(fox_derivative(r, g), {(g + 1,): 1, (): -1})
            total = gr_add(total, term)
        assert total == gr_add({r: 1}, gr_neg(gr_one())), r
        checked += 1
    report(1, checked == 200, f"fundamental identity on {checked} random words",
           time.time() - t0, 5.0)


def test_criterion_2_smith_normal_form():
    # the diagonal against sympy's Smith normal form, an independent oracle
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    rnd = random.Random(202)
    t0 = time.time()
    for _ in range(500):
        rows = rnd.randint(1, 6)
        cols = rnd.randint(1, 6)
        m = [[rnd.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        diag = smith_normal_form(m)
        d = sympy_snf(Matrix(m), domain=ZZ)
        assert diag == [abs(d[i, i]) for i in range(min(rows, cols))], m
        for i, x in enumerate(diag):
            assert x >= 0
            if i and diag[i - 1]:
                assert x % diag[i - 1] == 0
            if i and diag[i - 1] == 0:
                assert x == 0
    report(2, True, "Smith diagonal equals sympy's on 500 random matrices",
           time.time() - t0, 10.0)


def test_criterion_3_alexander_oracles():
    cases = [
        ("< x, y | x y x y^-1 x^-1 y^-1 >", (1, 1), {0: 1, 1: -1, 2: 1}),
        ("< x, y | x y x^-1 y^-2 >", (1, 0), {0: -2, 1: 1}),
        ("< a, b | a b A B >", (1, 0), {0: -1, 1: 1}),
        ("< x, y, t | t x T X, t y T x^-1 y^-1 >", (0, 1, 0), None),  # zero
    ]
    worst = 0.0
    for text, chi, expected in cases:
        p = parse_presentation(text)
        t0 = time.time()
        poly = alexander_polynomial(p, Chi(chi), QQ)
        worst = max(worst, time.time() - t0)
        if expected is None:
            assert poly.is_zero, text
        else:
            want = LaurentPoly.make(QQ, {e: Fraction(c) for e, c in expected.items()})
            assert poly.normalize() == want.normalize(), (text, str(poly))
    report(3, True, "trefoil, BS(1,2), Z x Z and the zero-column case match "
           "hand values up to units", worst, 1.0)


def test_criterion_4_rewriting_counts():
    t0 = time.time()
    total = 0
    for pres_file in sorted(CORPUS.glob("*.pres")):
        p = parse_presentation(pres_file.read_text())
        for table in low_index_subgroups(p, 6):
            sub, _ = reidemeister_schreier(p, table)
            i = table.degree
            assert sub.ngens == (p.ngens - 1) * i + 1, pres_file.stem
            assert sub.nrels == p.nrels * i, pres_file.stem
            total += 1
    report(4, True, f"(n-1)i+1 generators and mi relators on {total} covers "
           "across the corpus", time.time() - t0, 120.0)


def hall_recursion(max_n):
    # independent oracle: a_n = n(n!) - sum_{i<n} (n-i)! a_i for rank 2
    import math
    a = {}
    for n in range(1, max_n + 1):
        a[n] = n * math.factorial(n) - sum(
            math.factorial(n - i) * a[i] for i in range(1, n))
    return a


def test_criterion_5_hall_totals():
    t0 = time.time()
    f2 = parse_presentation("< x, y | >")
    got = subgroup_count_by_index(f2, 5)
    want = hall_recursion(5)
    assert got == want == {1: 1, 2: 3, 3: 13, 4: 71, 5: 461}
    report(5, True, f"free rank-2 subgroup totals {got} match the recursion",
           time.time() - t0, 60.0)


def test_criterion_6_certifier_end_to_end():
    t0 = time.time()
    p = parse_presentation("< a, b, c | a b A B >")
    v = certify(p)
    assert v.status == "LARGE" and v.certificate.kind == "deficiency"
    assert verify_certificate(p, v.certificate)

    p = parse_presentation("< x, y | x^2 y x^-2 y^-1 >")
    v = certify(p, CertifyConfig(max_index=12))
    assert v.status == "LARGE"
    assert verify_certificate(p, v.certificate)

    p = parse_presentation("< x, y | x y x^-1 y^-2 >")
    v = certify(p)
    assert v.status == "NOT_LARGE_KNOWN"

    p = parse_presentation("< a, b | a^-2 b^-1 a^-1 b a b^-1 a b >")
    v = certify(p)
    assert v.status == "UNKNOWN" and v.certificate is None
    report(6, True, "deficiency, commuting-square, BS(1,2) and the cyclic-"
           "quotients group all land as expected", time.time() - t0, 120.0)


def test_criterion_7_torus_pipelines():
    t0 = time.time()
    identity2 = Endomorphism(((1,), (2,)))
    v = torus_zz_pipeline(identity2, PeriodicWitness((1,), 1, (), 1))
    assert v.status == "LARGE"
    assert verify_certificate(mapping_torus(identity2), v.certificate)

    shear = Endomorphism(((1,), (2, 1)))
    v = torus_zz_pipeline(shear, PeriodicWitness((1,), 1, (), 1))
    assert v.status == "LARGE"
    assert verify_certificate(mapping_torus(shear), v.certificate)

    identity1 = Endomorphism(((1,),), ("x",))
    v = torus_zz_pipeline(identity1, PeriodicWitness((1,), 1, (), 1))
    assert v.status == "NOT_LARGE_KNOWN" and v.citation == {"reason": "ZxZ"}

    cube = Endomorphism(((1, 1, 1), (2,)))
    v = torus_bs_pipeline(cube, PeriodicWitness((1,), 1, (), 3))
    assert v.status == "LARGE"
    assert v.certificate.kind == "alexander_zero"
    assert v.certificate.data["field"] == "F2"
    assert verify_certificate(mapping_torus(cube), v.certificate)
    report(7, True, "mapping torus pipelines: two LARGE unit cases, the Z x Z "
           "exception, and the F2 vanishing case", time.time() - t0, 120.0)


def test_criterion_8_soundness_sweep():
    t0 = time.time()
    config = CertifyConfig(max_index=4, budget=1)
    checked = 0
    for pres_file in sorted(CORPUS.glob("*.pres")):
        p = parse_presentation(pres_file.read_text())
        v = certify(p, config)
        if v.certificate is not None:
            assert verify_certificate(p, v.certificate), pres_file.stem
        if v.citation is not None:
            assert verify_citation(p, v.citation), pres_file.stem
        again = certify(p, config)
        assert dumps(verdict_to_json(v)) == dumps(verdict_to_json(again))
        checked += 1

    rnd = random.Random(808)
    for _ in range(100):
        n = rnd.randint(1, 3)
        rels = []
        for _ in range(rnd.randint(1, 2)):
            length = rnd.randint(1, 12)
            word = []
            while len(word) < length:
                lt = rnd.choice([x for x in range(-n, n + 1) if x])
                if word and word[-1] == -lt:
                    continue
                word.append(lt)
            rels.append(free_reduce(tuple(word)))
        p = Presentation(default_names(n), tuple(rels))
        v = certify(p, config)
        if v.certificate is not None:
            assert verify_certificate(p, v.certificate), str(p)
        if v.citation is not None:
            assert verify_citation(p, v.citation), str(p)
        again = certify(p, config)
        assert dumps(verdict_to_json(v)) == dumps(verdict_to_json(again)), str(p)
        checked += 1
    report(8, True, f"no unverifiable LARGE or NOT_LARGE_KNOWN verdict, and "
           f"byte-identical reruns over {checked} presentations", time.time() - t0, 300.0)

