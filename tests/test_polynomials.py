from __future__ import annotations

import random
from math import comb

import pytest

from f1gtheory.cli import main
from f1gtheory.errors import InternalCheckError
from f1gtheory.polynomials import (MAX_COMPOSITION_L, MAX_PRODUCT_K,
                                   _elementary, composition_rule,
                                   product_rule)

from oracles import _terms_value, elimination_terms, universal_polynomial


def int_lambda(n, upto):
    """Operations 0..upto on the plain integer n: the coefficients of (1 + t)^n."""
    return [comb(n, i) for i in range(upto + 1)]


def random_columns(seed, count, length):
    """Seeded integer ghost columns (1, lambda^1, ..., lambda^(length-1))."""
    rng = random.Random(seed)
    return [[1] + [rng.randint(-6, 6) for _ in range(length - 1)]
            for _ in range(count)]


# the plethysm engine, kept as an oracle

def test_product_p1_is_plain_product():
    p = universal_polynomial("product", 1)
    assert p.terms == ((((1,), (1,)), 1),)


def test_product_p2_anchor():
    p = universal_polynomial("product", 2)
    expected = {
        ((2, 0), (0, 1)): 1,
        ((0, 1), (2, 0)): 1,
        ((0, 1), (0, 1)): -2,
    }
    assert dict(p.terms) == expected


def test_composition_with_l1_is_identity_in_lambda_k():
    for k in (1, 2, 3):
        p = universal_polynomial("composition", k, 1)
        exps = [0] * k
        exps[k - 1] = 1
        assert dict(p.terms) == {(tuple(exps),): 1}


def test_composition_with_k1_is_lambda_l():
    for l in (1, 2, 3):
        p = universal_polynomial("composition", 1, l)
        exps = [0] * l
        exps[l - 1] = 1
        assert dict(p.terms) == {(tuple(exps),): 1}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_product_rule_on_integers(k):
    # over Z the rule reads comb(m*n, k) = P_k applied to binomials
    p = universal_polynomial("product", k)
    for m in range(0, 5):
        for n in range(0, 5):
            x, y = int_lambda(m, k), int_lambda(n, k)
            assert p.value(x, y) == comb(m * n, k), (k, m, n)
            assert product_rule(x, y, k)[k] == comb(m * n, k), (k, m, n)


@pytest.mark.parametrize("k,l", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_composition_rule_on_integers(k, l):
    p = universal_polynomial("composition", k, l)
    for n in range(0, 7):
        x = int_lambda(n, k * l)
        assert p.value(x) == comb(comb(n, l), k), (k, l, n)
        assert composition_rule(x, k, l)[k] == comb(comb(n, l), k), (k, l, n)


def test_value_needs_one_family_per_argument():
    product = universal_polynomial("product", 2)
    composition = universal_polynomial("composition", 2, 2)
    values = int_lambda(3, 4)
    with pytest.raises(ValueError, match=r"per argument \(2\), got 1"):
        product.value(values)
    with pytest.raises(ValueError, match=r"per argument \(1\), got 2"):
        composition.value(values, values)
    with pytest.raises(ValueError):
        composition.value()


def test_plethysm_oracle_refuses_bad_indices():
    for args in (("composition", 0, 2), ("product", 0), ("product", 2, 2),
                 ("composition", 2), ("frobenius", 2)):
        with pytest.raises(ValueError):
            universal_polynomial(*args)


# every in-cap case the elimination oracle finishes (k*l <= 9)
ORACLE_CASES = ([("product", k, None) for k in range(1, 5)]
                + [("composition", k, l) for k in range(1, 5) for l in range(1, 4)
                   if k * l <= 9])


@pytest.mark.parametrize("kind,k,l", ORACLE_CASES)
def test_plethysm_matches_elimination_oracle(kind, k, l):
    assert universal_polynomial(kind, k, l).terms == elimination_terms(kind, k, l)


# the Newton step against both polynomial oracles

def test_newton_product_rule_matches_the_plethysm_oracle():
    columns = random_columns(2101, 400, MAX_PRODUCT_K + 1)
    polys = [universal_polynomial("product", k) for k in range(1, MAX_PRODUCT_K + 1)]
    for x, y in zip(columns[::2], columns[1::2]):
        rule = product_rule(x, y, MAX_PRODUCT_K)
        assert rule[0] == 1
        assert rule[1:] == [p.value(x, y) for p in polys], (x, y)


@pytest.mark.parametrize("l", range(1, MAX_COMPOSITION_L + 1))
def test_newton_composition_rule_matches_the_plethysm_oracle(l):
    columns = random_columns(2102 + l, 200, MAX_PRODUCT_K * l + 1)
    polys = [universal_polynomial("composition", k, l)
             for k in range(1, MAX_PRODUCT_K + 1)]
    for x in columns:
        rule = composition_rule(x, MAX_PRODUCT_K, l)
        assert rule[0] == 1
        assert rule[1:] == [p.value(x) for p in polys], x


@pytest.mark.parametrize("kind,k,l", ORACLE_CASES)
def test_newton_matches_elimination_oracle(kind, k, l):
    terms = elimination_terms(kind, k, l)
    if kind == "product":
        columns = random_columns(2110 + k, 100, k + 1)
        for x, y in zip(columns[::2], columns[1::2]):
            assert product_rule(x, y, k)[k] == _terms_value(terms, (x, y)), (x, y)
    else:
        for x in random_columns(2120 + 4 * k + l, 50, k * l + 1):
            assert composition_rule(x, k, l)[k] == _terms_value(terms, (x,)), x


def test_newton_rules_need_no_cap():
    # comb(m*n, k) and comb(comb(n, l), k) far above the lambda-verify caps
    for m in range(6):
        for n in range(6):
            assert product_rule(int_lambda(m, 9), int_lambda(n, 9), 9) == \
                int_lambda(m * n, 9)
    for n in range(9):
        assert composition_rule(int_lambda(n, 24), 6, 4) == int_lambda(comb(n, 4), 6)


def test_newton_division_is_checked():
    # power sums 1, 0 have e_2 = (1 - 0) / 2, which no integer column gives
    assert _elementary([0, 1, 1], 2) == [1, 1, 0]
    with pytest.raises(InternalCheckError, match="non-integral"):
        _elementary([0, 1, 0], 2)


def test_lambda_verify_odd_cyclic_at_top_caps(capsys):
    # C5 is odd cyclic, so every identity must hold: an independent check of P_{4,3}
    code = main(["lambda-verify", "--group", "C5", "--k-cap", "4", "--l-cap", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: pass" in out


PRODUCT_CAP = ("resource limit: --k-cap reaches {k}, "
               f"past polynomials.MAX_PRODUCT_K = {MAX_PRODUCT_K}\n")
COMPOSITION_CAP = ("resource limit: --l-cap reaches {l}, "
                   f"past polynomials.MAX_COMPOSITION_L = {MAX_COMPOSITION_L}\n")


def test_caps_enforced(capsys, monkeypatch):
    # lambda-verify's caps: the composition cap binds only when k >= 2 runs
    # a composition rule, and it is read before the product cap
    def refuse(*args, **kwargs):
        raise AssertionError("lambda-verify built the ring")

    monkeypatch.setattr("f1gtheory.burnside.build_burnside", refuse)
    for k_cap, l_cap, err in [(5, 2, PRODUCT_CAP), (9, 3, PRODUCT_CAP),
                              (2, 4, COMPOSITION_CAP), (4, 7, COMPOSITION_CAP),
                              (5, 4, COMPOSITION_CAP)]:
        code = main(["lambda-verify", "--group", "C3", "--k-cap", str(k_cap),
                     "--l-cap", str(l_cap)])
        out, stderr = capsys.readouterr()
        assert (code, out, stderr) == (2, "", err.format(k=k_cap, l=l_cap)), \
            (k_cap, l_cap)


@pytest.mark.parametrize("k_cap,l_cap", [(1, 4), (0, 9)])
def test_l_cap_is_not_read_when_no_composition_rule_runs(capsys, k_cap, l_cap):
    code = main(["lambda-verify", "--group", "C3", "--k-cap", str(k_cap),
                 "--l-cap", str(l_cap), "--trials", "2"])
    assert code == 0
    assert "overall: pass" in capsys.readouterr().out
