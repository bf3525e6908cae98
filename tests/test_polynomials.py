from __future__ import annotations

from math import comb

import pytest

from f1gtheory.cli import main
from f1gtheory.polynomials import universal_polynomial

from oracles import elimination_terms


def int_lambda(n, upto):
    """Operations 0..upto on the plain integer n: the coefficients of (1 + t)^n."""
    return [comb(n, i) for i in range(upto + 1)]


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
            assert p.value(int_lambda(m, k), int_lambda(n, k)) == comb(m * n, k), (k, m, n)


@pytest.mark.parametrize("k,l", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_composition_rule_on_integers(k, l):
    p = universal_polynomial("composition", k, l)
    for n in range(0, 7):
        assert p.value(int_lambda(n, k * l)) == comb(comb(n, l), k), (k, l, n)


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


# every in-cap case the elimination oracle finishes (k*l <= 9)
ORACLE_CASES = ([("product", k, None) for k in range(1, 5)]
                + [("composition", k, l) for k in range(1, 5) for l in range(1, 4)
                   if k * l <= 9])


@pytest.mark.parametrize("kind,k,l", ORACLE_CASES)
def test_plethysm_matches_elimination_oracle(kind, k, l):
    assert universal_polynomial(kind, k, l).terms == elimination_terms(kind, k, l)


def test_lambda_verify_odd_cyclic_at_top_caps(capsys):
    # C5 is odd cyclic, so every identity must hold: an independent check of P_{4,3}
    code = main(["lambda-verify", "--group", "C5", "--k-cap", "4", "--l-cap", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: pass" in out


def test_caps_enforced():
    with pytest.raises(ValueError):
        universal_polynomial("product", 5)
    with pytest.raises(ValueError):
        universal_polynomial("composition", 2, 4)
    with pytest.raises(ValueError):
        universal_polynomial("composition", 0, 2)
    with pytest.raises(ValueError):
        universal_polynomial("product", 2, 2)
    with pytest.raises(ValueError):
        universal_polynomial("frobenius", 2)


def test_polynomials_cached():
    a = universal_polynomial("product", 3)
    b = universal_polynomial("product", 3)
    assert a is b
