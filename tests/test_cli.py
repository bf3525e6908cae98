from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time

import pytest

import f1gtheory
from f1gtheory import groups, lambda_ops
from f1gtheory.burnside import BurnsideRing
from f1gtheory.cli import build_parser, main
from f1gtheory.groups import FiniteGroup, build_group
from f1gtheory.snf import factorize

from conftest import RUNGS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_marks_csv_golden(capsys):
    code, out, _ = run_cli(capsys, "marks", "--group", "C2", "--format", "csv")
    assert code == 0
    assert out == ("class,order1_rep0,order2_rep0-1\n"
                   "order1_rep0,2,0\n"
                   "order2_rep0-1,1,1\n")


def test_marks_text_golden(capsys):
    code, out, _ = run_cli(capsys, "marks", "--generators",
                           "(1 2);(3 4);(5 6);(7 8);(9 10)", "--degree", "10")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "15667f10a0aaa299cb65d7940015b3e52b0442a239f88786234fef94c36be864"


# the other two formats of the C2^5 table, recorded before the table was
# made sparse
C2X5_MARKS_SHA256 = {
    "csv": "217ec038640cec253cfc278d0c96fdedad21691d803def5f14d9cac5c4724764",
    "json": "70665cbc1a5dbc0c86fa356c198fda57968351a12957b7eb3f001ace160ebb8c",
}


@pytest.mark.parametrize("fmt", sorted(C2X5_MARKS_SHA256))
def test_marks_c2x5_golden(capsys, fmt):
    code, out, _ = run_cli(capsys, "marks", "--generators",
                           "(1 2);(3 4);(5 6);(7 8);(9 10)", "--degree", "10",
                           "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == C2X5_MARKS_SHA256[fmt]


# the bytes of the class order and representatives on the two larger rungs
LATTICE_SHA256 = {
    ("marks", "--generators", "(1 2 3 4);(1 2);(5 6)", "--degree", "6"):
        "c36be998e05b3ca313cc3d74b0cb14d4c4fb66c42ccfc39fb6fd2fc443061df6",
    ("subgroups", "--format", "json", "--generators",
     "(1 2 3 4);(1 3);(5 6);(7 8);(9 10)", "--degree", "10"):
        "01a499954a242d0237fd1cf5a89187a6c870148889b294fa9d9f9dc2fd7fc195",
}


@pytest.mark.parametrize("argv", sorted(LATTICE_SHA256),
                         ids=["marks-S4xC2", "subgroups-json-D4xC2^3"])
def test_lattice_golden(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LATTICE_SHA256[argv]


def test_marks_json(capsys):
    code, out, _ = run_cli(capsys, "marks", "--group", "S3", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["marks"][0][0] == 6


def test_subgroups_json(capsys):
    code, out, _ = run_cli(capsys, "subgroups", "--group", "S3",
                           "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["class_count"] == 4
    assert blob["subgroup_count"] == 6


def test_lambda_text_output(capsys):
    code, out, _ = run_cli(capsys, "lambda", "--group", "C2",
                           "--element", "[1,0]", "--k", "2")
    assert code == 0
    assert out == "[0,1]\n"


def test_lambda_json_output(capsys):
    code, out, _ = run_cli(capsys, "lambda", "--group", "C2",
                           "--element", "[2,0]", "--k", "2",
                           "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["result"] == [2, 2]


def test_burnside_mul(capsys):
    code, out, _ = run_cli(capsys, "burnside-mul", "--group", "C2",
                           "--x", "[1,0]", "--y", "[1,0]",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["product"] == [2, 0]


def test_decompose_module_file(capsys, tmp_path):
    from f1gtheory.groups import build_group
    from f1gtheory.modules import free_module, group_monoid
    module = free_module(group_monoid(build_group(name="C2")), 2)
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module.to_json()))
    code, out, _ = run_cli(capsys, "decompose", "--group", "C2",
                           "--module-json", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["coeffs"] == [2, 0]


def test_decompose_refuses_a_module_over_another_monoid(capsys, tmp_path):
    # one point over the trivial group's monoid {0, 1}, not over C2's
    path = tmp_path / "module.json"
    path.write_text(json.dumps({"monoid": {"size": 2, "mul": [[0, 0], [0, 1]]},
                                "size": 2, "action": [[0, 0], [0, 1]]}))
    code, out, err = run_cli(capsys, "decompose", "--group", "C2",
                             "--module-json", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: module lives over a different group\n"


def test_wh0_json(capsys):
    code, out, _ = run_cli(capsys, "wh0", "--group", "S3", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["free_rank"] == 3
    assert blob["torsion"] == []
    assert blob["image"] == [1, 0, 0, 0]


def test_g1_text_mentions_provenance(capsys):
    code, out, _ = run_cli(capsys, "g1", "--group", "C2")
    assert code == 0
    assert "via splitting formula" in out


# g1 and wh0 on the two large rungs, recorded while each Weyl group was
# still built as a re-indexed quotient group
SPLITTING_SHA256 = {
    ("g1", "S4xC2", "text"):
        "8e8b7d9060be7fc6b937fea5766062565082f559e5259618edae28989262c469",
    ("g1", "S4xC2", "json"):
        "e400b699c4962845c105dc046c558f819005b7204b57402a1c45cd93c26da10d",
    ("g1", "D4xC2^3", "text"):
        "98809b773b35fb55d05078d7ff683193aea7fec5247c5f27309470695ce4ac01",
    ("g1", "D4xC2^3", "json"):
        "43e314e3dc5c4df0ffffcc097af8a260813685caca7016d4f8e754f61e40d06f",
    ("wh0", "D4xC2^3", "text"):
        "19add445c07fa0e8b918e3bdf2286be617b185d36ddc539e9bb6855f56e8087d",
    ("wh0", "D4xC2^3", "json"):
        "afadce76ebe29824304f7113988f00eed7f4b170cc1da45c9359e180994ddea7",
}


@pytest.mark.parametrize("command,rung,fmt", sorted(SPLITTING_SHA256),
                         ids=lambda v: v)
def test_splitting_golden_on_the_rungs(capsys, command, rung, fmt):
    generators, degree = RUNGS[rung]
    code, out, _ = run_cli(capsys, command, "--generators", ";".join(generators),
                           "--degree", str(degree), "--format", fmt)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == SPLITTING_SHA256[command, rung, fmt]


def test_g0_text(capsys):
    code, out, _ = run_cli(capsys, "g0", "--group", "C3")
    assert code == 0
    assert "stable at bound" in out


def test_g0_monoid_json(capsys, tmp_path):
    path = tmp_path / "monoid.json"
    path.write_text(json.dumps(
        {"size": 3, "mul": [[0, 0, 0], [0, 1, 2], [0, 2, 0]]}))
    code, out, _ = run_cli(capsys, "g0", "--monoid-json", str(path),
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["stability"] == "bounded approximation"


@pytest.mark.parametrize("group,text", [
    ("D6", "degree-0 group of D6 at size bound 15: Z^10 (stable at bound)\n"
           "  generators: 1822, relations: 5584\n"),
    ("S4", "degree-0 group of S4 at size bound 27: Z^11 (stable at bound)\n"
           "  generators: 8080, relations: 28464\n"),
], ids=("D6", "S4"))
def test_g0_text_golden(capsys, group, text):
    code, out, _ = run_cli(capsys, "g0", "--group", group)
    assert code == 0
    assert out == text


@pytest.mark.parametrize("mul,bound,text", [
    ([[0, 0, 0], [0, 1, 2], [0, 2, 0]], 6,
     "degree-0 group of monoid at size bound 6: Z^2 (bounded approximation)\n"
     "  generators: 19, relations: 181\n"),
    ([[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 0], [0, 3, 0, 0]], 4,
     "degree-0 group of monoid at size bound 4: Z^3 (bounded approximation)\n"
     "  generators: 8, relations: 27\n"),
], ids=("nilpotent", "truncated-power"))
def test_g0_monoid_text_golden(capsys, tmp_path, mul, bound, text):
    path = tmp_path / "monoid.json"
    path.write_text(json.dumps({"size": len(mul), "mul": mul}))
    code, out, _ = run_cli(capsys, "g0", "--monoid-json", str(path),
                           "--bound", str(bound))
    assert code == 0
    assert out == text


def test_g0_bound_above_generator_cap_exits_2(capsys):
    code, out, err = run_cli(capsys, "g0", "--group", "S3", "--bound", "200")
    assert code == 2
    assert out == ""
    assert "past gtheory.GROUP_GENERATOR_CAP = 150000" in err


def test_g0_work_budget_exits_2(capsys, tmp_path):
    path = tmp_path / "monoid.json"
    path.write_text(json.dumps(
        {"size": 3, "mul": [[0, 0, 0], [0, 1, 2], [0, 2, 2]]}))
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "g0", "--monoid-json", str(path),
                             "--bound", "100000")
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert err == ("resource limit: relabelling count at size bound 100000 "
                   "reaches 4037914, past gtheory.WORK_BUDGET = 1000000\n")


# bounds 6 (the `g0-monoid3` bench case), 7 and 8 over the idempotent monoid
# {0, 1, e}; a classification that runs `are_isomorphic` on every table, and
# relation rows built on module objects, print the same bytes
G0_MONOID3_SHA256 = {
    6: "bf6c05dc3659663fe999b2548fb6a978f7320d6531be9cfc16ea2d2395f4a331",
    7: "8df11d746f33e7f3b7b92a38899791a176b5b34112dc82216bf05acca6d92422",
    8: "3ad86b592cb5bd8a7a55c9e4d90f2897b210e200ee20b19abaa2e317be542696",
}


@pytest.mark.parametrize("bound", sorted(G0_MONOID3_SHA256))
def test_g0_monoid3_golden(capsys, bound):
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "monoid3.json")
    code, out, _ = run_cli(capsys, "g0", "--monoid-json", path,
                           "--bound", str(bound))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == G0_MONOID3_SHA256[bound]


def test_suite_s4_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "suite", "--group", "S4")
    assert code == 0
    assert "degree-0 presentation stabilizes at Burnside rank: 1 instances, pass" in out
    assert out.endswith("overall: pass\n")


def test_simple_factors(capsys):
    code, out, _ = run_cli(capsys, "simple-factors", "--group", "C3",
                           "--q", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["simple_factors"] == 2


# Counts printed before q was capped: at q = 1000000007 and at the two q
# that `suite` checks for the group, the least prime powers below 60
# coprime to its order.
SIMPLE_FACTORS = {
    "C1": {2: 1, 3: 1, 1000000007: 1}, "C5": {2: 2, 3: 2, 1000000007: 2},
    "S3": {5: 3, 7: 3, 1000000007: 3}, "Q8": {3: 5, 5: 5, 1000000007: 5},
    "D6": {5: 6, 7: 6, 1000000007: 6}, "A4": {5: 3, 7: 4, 1000000007: 3},
    "S4": {5: 5, 7: 5, 1000000007: 5}, "C24": {5: 14, 7: 15, 1000000007: 13},
}


@pytest.mark.parametrize("name", list(SIMPLE_FACTORS))
def test_simple_factors_under_the_q_cap_print_the_same_bytes(capsys, name):
    suite_qs = [q for q in range(2, 60) if math.gcd(q, build_group(name=name).order) == 1
                and len(factorize(q)) == 1][:2]
    assert sorted(SIMPLE_FACTORS[name]) == suite_qs + [1000000007]
    for q, count in SIMPLE_FACTORS[name].items():
        code, out, err = run_cli(capsys, "simple-factors", "--group", name, "--q", str(q))
        assert (code, err) == (0, "")
        assert out == f"group algebra over F_{q} splits into {count} simple factors\n"
    code, out, _ = run_cli(capsys, "simple-factors", "--group", name,
                           "--q", "1000000007", "--format", "json")
    assert out == ('{\n  "group": "%s",\n  "q": 1000000007,\n  "simple_factors": %d\n}\n'
                   % (name, SIMPLE_FACTORS[name][1000000007]))


def test_simple_factors_refuses_a_q_past_its_cap_at_once(capsys):
    # trial division to the square root of this prime would take minutes
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "simple-factors", "--group", "S3",
                             "--q", "1000000000000000003")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == ("resource limit: field size q reaches 1000000000000000003, "
                   "past gtheory.SIMPLE_FACTORS_Q_CAP = 1000000000000\n")


def test_unprintable_product_is_refused_before_printing(capsys):
    # 3,000 nines parse; their product, twice their square on C2/1, has
    # 6,001 digits
    limit = sys.get_int_max_str_digits()
    x = f"[{'9' * 3000},0]"
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, "burnside-mul", "--group", "C2",
                                 "--x", x, "--y", x, "--format", fmt)
        assert (code, out) == (2, "")
        assert err == (f"resource limit: digit count of the largest coefficient "
                       f"reaches 6001, past sys.get_int_max_str_digits() = {limit}\n")


def test_diamond(capsys):
    code, out, _ = run_cli(capsys, "diamond", "--group", "C3",
                           "--element", "[1,0]", "--k", "2",
                           "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["carrier_size"] == 7


# the diamond inputs: a source and an element; the S4xC2 element is one
# G/H each for a class of order 2, 8 and 16, and the point G/G
DIAMOND_INPUTS = {
    "C3": ("--group", "C3", "--element", "[1,2]"),
    "S3": ("--group", "S3", "--element", "[0,1,1,1]"),
    "D4": ("--group", "D4", "--element", "[0,1,0,1,1,0,1,1]"),
    "Q8": ("--group", "Q8", "--element", "[1,0,1,1,0,1]"),
    "S4": ("--group", "S4", "--element", "[0,0,1,0,0,1,0,1,1,0,2]"),
    "S4xC2": ("--generators", "(1 2 3 4);(1 2);(5 6)", "--degree", "6",
              "--element", "[0,1" + ",0" * 17 + ",1" + ",0" * 8 + ",1,0,0,0,1]"),
    "S3-point": ("--group", "S3", "--element", "[0,0,0,1]"),
}
# recorded from the explicit tuple module, before diamond was read off the
# marks: (input, k) -> SHA-256 of the text and of the JSON output
DIAMOND_SHA256 = {
    ("C3", 1): ("1db94c7bca50a4983894882bd3be57a34bf874723afe4c59616f8518b9eb6dcf",
                "5f6f5f99965ed6943af65e02a73a7276279bdb3bfdde46143362da092885270d"),
    ("C3", 2): ("47d400eb39636f0bbf8604c99d7a03a3ee0fe9a959142239e1fc8fdc8a4b8527",
                "05371ed5f7514db2643f8a7aa6346b890c54ef8734a5de614d4c5453d9a62a16"),
    ("C3", 3): ("2405b6f88d629722a8ed49b52024ca02ff6502cd804c7486ab75812948ed8ae6",
                "0e65cd04c05282245ca7516b9f4640363027ee6eeeb666d6521da2becebf16f1"),
    ("S3", 1): ("79d65f9550ffdac919c1c96f497a863a6bcb8e3e17199c449e5fe7ca5c3a1abe",
                "6002d62e84f60c7c09e1d10ceb8f438582440acdaf211a48b1b92686dc3fdcf9"),
    ("S3", 2): ("a312495b4a6c8e9f64171364f5cdd2b6c06d12d7e693507695b05f92f3690c0d",
                "77cf824b1a2d8db920b3c266796096baf7656b85071216b1196d8ec842e83d88"),
    ("S3", 3): ("eb110a220277ff1bb8fd005a5c1c2fb99b53327bb15faf67fe1fbc3b6104f7b1",
                "89ffc1f629c30c2c628b3bea2c62cd0115134ab6fc0bcd703f8a38960a7d4fd1"),
    ("D4", 1): ("508bee258abc76057479dc2a5035b55eaf0be2301b0fb19f441b08353cf1eec6",
                "a1bddbcebd1f8f1d8e0dc1b9fd9a4b057baee4bc5c0f33138cad90a992b778bc"),
    ("D4", 2): ("22272f3ec9e3ac8efd3c11bdf538c7ac78d7b9aefede40b108f5744be946a558",
                "9cadaf6be980507d923729284cd5513c553c73c996e0f289b33c5cf063ad8e48"),
    ("D4", 3): ("bbabd7e60072ad182766abaf09aabf5377488bb5170df123e8386a5309c5b8c6",
                "68372ec1d309d11b1b76b9820e16d73329784fd51b60a8ccc3285e469edf068b"),
    ("Q8", 1): ("331bbf6460d1220cac5768b7cca524934e1cef0f5e1dc512db5b8d6ef57f19bb",
                "1d5abfdd081f5067b8ec9e9e2f68808bcb3d9e9f4310f82dae2fc425fc948e8b"),
    ("Q8", 2): ("5edd439f680be646e9e0d32dad3d20f1e215ca837f4cc274b9878a5022d2bbc7",
                "8a55d61602dcb1b47b2c1d5e749e908c4a28b4f27b4f8add4430a9a401e02344"),
    ("Q8", 3): ("864a3cbe6411cdf4009f4dc294e1466af9c6e74db79f4fa8be635cefbcaaf32f",
                "ad1254b49ee6f6f24e4ee9f204774c5cd1602e529b1260fe0df238fa5e202aac"),
    ("S4", 1): ("f6bb657f9f6c6d54f700b92c7b67722352e9f239df89c069ffbf02bc9b0e7cba",
                "8981b20df980adc98fa874aa57102f3b4b2e712f55a3888cd673625dd32864cf"),
    ("S4", 2): ("693917e907f4730ed08497c8df499e51f5c802ee08746a6e3959ef86e2720c9d",
                "d08d106ed2d614884af692f46ecdddb8490e5a4f5a73c361870f8df85ad7539b"),
    ("S4", 3): ("afcdd67390e2302c07ccfbe6501b37b4f679b6613da878888e761a9a16be307c",
                "791ea5b14251a78921c7aa7bbd37747057356716393664dbac16668da11a386c"),
    ("S4xC2", 2): ("3e23c5a75aa0cb9a45f05d65437df4b739d1c0ee4a220e5fba636416bfe35c17",
                   "a3d5dc7ebc62419b4f3f969158acf5e4ad35792d4f7e066f24f93f4861e6cab8"),
    # one point at k = 2: no tuples, carrier size 1
    ("S3-point", 2): ("9faf17d9b3ab7016fdef471217e53b4f471c693ab842bbf57a7c03c9e31dc586",
                      "5d5d46ce4b1a06c88443680553b9d71684d1f44f029f3ea8414a34fd08299ce5"),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(DIAMOND_SHA256),
                         ids=[f"{name}-k{k}" for name, k in sorted(DIAMOND_SHA256)])
def test_diamond_golden(capsys, case, fmt):
    name, k = case
    code, out, err = run_cli(capsys, "diamond", *DIAMOND_INPUTS[name],
                             "--k", str(k), "--format", fmt)
    assert (code, err) == (0, "")
    digest = DIAMOND_SHA256[case][fmt == "json"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_mackey_check_passes(capsys):
    code, out, _ = run_cli(capsys, "mackey-check", "--group", "C4",
                           "--trials", "10")
    assert code == 0
    assert "overall: pass" in out


MACKEY_CHECK_SHA256 = {
    ("D6", "text"):
        "fb109a4012404f3490c91a1ad8ef3d7c1544f8987a0bff4d2073e53621d384e9",
    ("D6", "json"):
        "3b74560ec00644ac504efb8b950a2d44f23315f76dc24e7fe2dcca410cecb89c",
    ("S4", "json"):
        "0526c238b55577213c623a9e2a0dd7a01f5fd38e47ad6d59af74888af8a1819e",
    ("D12", "text"):
        "1eb465868bda7931332b185f75f6004bf495d77a5cd51d374a98554c332cb0e1",
    ("S4xC2", "text"):
        "29fd51bc367517c0a5bc49308f181571d5c48b09f8811041601f02f5919e4e74",
}

# groups outside the library, by generator source: S4xC2 is the order-48 rung
GENERATED = {"S4xC2": ("--generators", "(1 2 3 4);(1 2);(5 6)", "--degree", "6")}


@pytest.mark.parametrize("group,fmt", sorted(MACKEY_CHECK_SHA256),
                         ids=lambda v: v)
def test_mackey_check_golden(capsys, group, fmt):
    source = GENERATED.get(group, ("--group", group))
    code, out, _ = run_cli(capsys, "mackey-check", *source,
                           "--seed", "1729", "--format", fmt)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == MACKEY_CHECK_SHA256[group, fmt]


NO_MODULE_RUN = """
import sys
import f1gtheory.cli
from f1gtheory import constructions

def refuse(*args, **kwargs):
    raise AssertionError("mackey-check built a module")

originals = (constructions.base_change, constructions.restrict_scalars,
             constructions._smash_tables)
for name, module in list(sys.modules.items()):
    if name.startswith("f1gtheory"):
        for attr, value in list(vars(module).items()):
            if any(value is original for original in originals):
                setattr(module, attr, refuse)
sys.exit(f1gtheory.cli.main(sys.argv[1:]))
"""


def test_mackey_check_json_on_the_order_48_rung_as_a_process():
    # a smoke test of the order-48 rung through a fresh interpreter
    src = os.path.dirname(os.path.dirname(f1gtheory.__file__))
    run = subprocess.run(
        [sys.executable, "-m", "f1gtheory.cli", "mackey-check",
         *GENERATED["S4xC2"], "--seed", "1729", "--format", "json"],
        capture_output=True, env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert run.returncode == 0, run.stderr
    assert hashlib.sha256(run.stdout).hexdigest() == \
        "9131f0c774abb2800fb845f23ea0d37a0b2eb0ceb023dd762757e8c3217ac394"


def test_mackey_check_builds_no_module():
    # a fresh process, so no cache filled by an earlier test can hide a build
    src = os.path.dirname(os.path.dirname(f1gtheory.__file__))
    run = subprocess.run(
        [sys.executable, "-c", NO_MODULE_RUN, "mackey-check", "--group", "D6",
         "--seed", "1729"],
        capture_output=True, env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert run.returncode == 0, run.stderr
    digest = hashlib.sha256(run.stdout).hexdigest()
    assert digest == MACKEY_CHECK_SHA256["D6", "text"]


LAMBDA_VERIFY_SHA256 = {
    "text": "654a0efbe4b7d9c3373087923019e101555be5ee06ee7aa6e970b35dfa129144",
    "json": "ff3a0aa0540b516bc22343b34e40b80acae51c85566ed1f3b1e0f1ae87e4b704",
}


@pytest.mark.parametrize("fmt", sorted(LAMBDA_VERIFY_SHA256))
def test_lambda_verify_golden(capsys, fmt):
    code, out, _ = run_cli(capsys, "lambda-verify", "--group", "C5",
                           "--l-cap", "3", "--seed", "1729", "--format", fmt)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == LAMBDA_VERIFY_SHA256[fmt]


# families that fail the product and composition rules, so the goldens pin
# the counterexamples' basis coefficients
LAMBDA_VERIFY_FAILING_SHA256 = {
    ("S3", "text"):
        "01ba145dfacff57ef898484da816c6d4fe2f9fa51f7ae09409b105b1d6c19926",
    ("S3", "json"):
        "9502c7fe6f691004a94a647871a12e101a78994a5279673e283fd54ac177a292",
    ("C4", "text"):
        "40b1fa066f41c7056b6bba214f9837f2d52dc0d2d23cada34981d7a1cc2c10c6",
    ("C4", "json"):
        "aba0e375d91b44a0dd7df485eed39292917d4d08d8b7786e7d01cf7cd4a26048",
}


@pytest.mark.parametrize("group,fmt", sorted(LAMBDA_VERIFY_FAILING_SHA256),
                         ids=lambda v: v)
def test_lambda_verify_failing_families_golden(capsys, group, fmt):
    code, out, _ = run_cli(capsys, "lambda-verify", "--group", group,
                           "--k-cap", "4", "--l-cap", "3", "--seed", "1729",
                           "--format", fmt)
    assert code == 0
    assert "FAIL" in out if fmt == "text" else '"status": "fail"' in out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == LAMBDA_VERIFY_FAILING_SHA256[group, fmt]


# the order-48 rung at the top caps, recorded before the ghost-coordinate
# Newton engine replaced the universal polynomials
LAMBDA_VERIFY_S4XC2_SHA256 = {
    "text": "5198eaf28e95717468fa1ee4db03f1477cbdc5ac6e939020efdede001d9e35de",
    "json": "d09a67accb73bef01c0c178ffc89daabbf10b934982433ea870ae27d91dd495e",
}


@pytest.mark.parametrize("fmt", sorted(LAMBDA_VERIFY_S4XC2_SHA256))
def test_lambda_verify_golden_on_the_order_48_rung(capsys, fmt):
    code, out, _ = run_cli(capsys, "lambda-verify", *GENERATED["S4xC2"],
                           "--k-cap", "4", "--l-cap", "3", "--seed", "1729",
                           "--format", fmt)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == LAMBDA_VERIFY_S4XC2_SHA256[fmt]


@pytest.mark.parametrize("command,flag", [("lambda", "--k"), ("diamond", "--k"),
                                          ("lambda-verify", "--k-cap"),
                                          ("lambda-verify", "--l-cap"),
                                          ("lambda-verify", "--trials"),
                                          ("mackey-check", "--trials")])
def test_negative_counts_exit_2_naming_the_flag(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--group", "C3", flag, "-1"])
    assert exc.value.code == 2
    assert f"argument {flag}: must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag", [("lambda-verify", "--k-cap"),
                                          ("lambda-verify", "--l-cap"),
                                          ("lambda-verify", "--trials"),
                                          ("mackey-check", "--trials")])
def test_zero_counts_are_accepted(capsys, command, flag):
    code, out, _ = run_cli(capsys, command, "--group", "C3", flag, "0")
    assert code == 0
    assert "overall: pass" in out


@pytest.mark.parametrize("flag,value,cap", [
    ("--k-cap", "5", "--k-cap reaches 5, past polynomials.MAX_PRODUCT_K = 4"),
    ("--l-cap", "4", "--l-cap reaches 4, past polynomials.MAX_COMPOSITION_L = 3"),
], ids=["k-cap", "l-cap"])
def test_lambda_verify_refuses_over_cap_before_building_ring(
        capsys, monkeypatch, flag, value, cap):
    def refuse(*args, **kwargs):
        raise AssertionError("lambda-verify built the ring")

    monkeypatch.setattr("f1gtheory.burnside.build_burnside", refuse)
    code, _, err = run_cli(capsys, "lambda-verify", "--group", "C5",
                           flag, value)
    assert code == 2
    assert err == f"resource limit: {cap}\n"


def test_lambda_verify_odd_cyclic(capsys):
    code, out, _ = run_cli(capsys, "lambda-verify", "--group", "C3",
                           "--trials", "5")
    assert code == 0


def test_lambda_verify_even_group_informational(capsys):
    code, out, _ = run_cli(capsys, "lambda-verify", "--group", "C2",
                           "--trials", "5")
    assert code == 0
    assert "[informational]" in out


def test_generators_source(capsys):
    code, out, _ = run_cli(capsys, "subgroups",
                           "--generators", "(1 2);(1 2 3)", "--degree", "3",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["class_count"] == 4


def test_group_json_source(capsys, tmp_path):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"name": "C4"}))
    code, out, _ = run_cli(capsys, "subgroups", "--group-json", str(path),
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["order"] == 4


def test_unknown_group_exits_2(capsys):
    code, _, err = run_cli(capsys, "marks", "--group", "NOPE")
    assert code == 2
    assert "error" in err


def test_conflicting_sources_exit_2(capsys):
    code, _, err = run_cli(capsys, "marks", "--group", "C2",
                           "--generators", "(1 2)", "--degree", "2")
    assert code == 2


def test_missing_source_exits_2(capsys):
    code, _, err = run_cli(capsys, "marks")
    assert code == 2


def test_bad_coefficient_vector_exits_2(capsys):
    code, _, err = run_cli(capsys, "lambda", "--group", "C2",
                           "--element", "[1]", "--k", "2")
    assert code == 2
    code, _, err = run_cli(capsys, "lambda", "--group", "C2",
                           "--element", "oops", "--k", "2")
    assert code == 2


def test_group_past_order_cap_exits_2(capsys, tmp_path):
    path = tmp_path / "c1025.json"
    path.write_text(json.dumps(
        {"cayley": [[(a + b) % 1025 for b in range(1025)] for a in range(1025)]}))
    for argv, message in [
            (["--group-json", str(path)], "group order reaches 1025"),
            (["--generators", "(1 2);(1 2 3 4 5 6 7)", "--degree", "7"],
             "generated group order reaches 1025")]:
        code, out, err = run_cli(capsys, "subgroups", *argv)
        assert (code, out, err) == (
            2, "", f"resource limit: {message}, past groups.ORDER_CAP = 1024\n")


def test_subgroup_lattice_past_order_64_exits_2(capsys):
    code, out, err = run_cli(capsys, "subgroups", "--generators",
                             "(1 2 3 4);(1 2);(5 6 7)", "--degree", "7")
    assert (code, out) == (2, "")
    assert err == ("resource limit: group order for the subgroup lattice reaches "
                   "72, past groups.SUBGROUP_ENUMERATION_LIMIT = 64\n")


def test_ghost_work_cap_refuses_before_any_column_is_built(capsys, monkeypatch):
    def build_nothing(*args):
        raise AssertionError("a ghost column or a G-set was built")

    # the falling factorials read the marks, the lambda series the orbit counts
    monkeypatch.setattr(BurnsideRing, "marks_of", build_nothing)
    monkeypatch.setattr(BurnsideRing, "orbit_counts", property(build_nothing))
    monkeypatch.setattr(BurnsideRing, "realize", build_nothing)
    cap = lambda_ops.GHOST_WORK_CAP
    # rank 2: the least k past the cap, on 10**6 points and on a virtual class
    past = math.isqrt(cap // 2) + 1
    for argv, work in ((["diamond", "--element", "[0,1000000]", "--k", str(past)],
                        2 * past * past),
                       (["lambda", "--element", "[1,-1]", "--k", "100000"],
                        2 * 10 ** 10)):
        code, out, err = run_cli(capsys, argv[0], "--group", "C2", *argv[1:])
        assert (code, out) == (2, "")
        assert err == (f"resource limit: ghost work rank x k^2 at k = {argv[-1]} "
                       f"reaches {work}, past lambda_ops.GHOST_WORK_CAP = {cap}\n")
    # an answer known without a column is not charged: k above the points
    monkeypatch.setattr(lambda_ops, "GHOST_WORK_CAP", 0)
    code, out, err = run_cli(capsys, "diamond", "--group", "C2",
                             "--element", "[0,1000000]", "--k", "1000001")
    assert (code, err) == (0, "")
    assert out == ("ordered 1000001-tuple module has carrier size 1 "
                   "and decomposes as 0\n")
    code, out, err = run_cli(capsys, "lambda", "--group", "C2",
                             "--element", "[2,1]", "--k", "6")
    assert (code, out, err) == (0, "[0,0]\n", "")


def test_unprintable_answers_refuse_before_any_column_is_built(capsys, monkeypatch):
    def build_nothing(*args):
        raise AssertionError("a ghost column or a G-set was built")

    monkeypatch.setattr(BurnsideRing, "marks_of", build_nothing)
    monkeypatch.setattr(BurnsideRing, "orbit_counts", property(build_nothing))
    monkeypatch.setattr(BurnsideRing, "realize", build_nothing)
    monkeypatch.setattr(lambda_ops, "_ghost_series", build_nothing)
    limit = sys.get_int_max_str_digits()
    # all within GHOST_WORK_CAP; 10**6 points give about 19,000 and 4,900
    # digits, and a virtual class on them a mark bound of about 4,900
    for argv, what in ((["diamond", "[0,1000000]", "3162"], "carrier size"),
                       (["lambda", "[0,1000000]", "1500"], "largest coefficient"),
                       (["lambda", "[0,-1000000]", "2000"],
                        "mark bound C(n + k - 1, k)")):
        code, out, err = run_cli(capsys, argv[0], "--group", "C2",
                                 "--element", argv[1], "--k", argv[2])
        assert (code, out) == (2, "")
        assert err.startswith(f"resource limit: digit count of the {what} reaches ")
        assert err.endswith(f", past sys.get_int_max_str_digits() = {limit}\n")


def test_unprintable_coefficient_is_refused_before_printing(capsys, monkeypatch):
    # the mark bound may pass while back-substitution grows a coefficient
    # past the limit; the coefficient is charged before it is printed
    limit = sys.get_int_max_str_digits()
    monkeypatch.setattr(BurnsideRing, "from_marks",
                        lambda ring, ghost: ring.element([-10 ** limit, 1]))
    code, out, err = run_cli(capsys, "lambda", "--group", "C2",
                             "--element", "[1,-1]", "--k", "3")
    assert (code, out) == (2, "")
    assert err == (f"resource limit: digit count of the largest coefficient "
                   f"reaches {limit + 1}, past sys.get_int_max_str_digits() = {limit}\n")


def test_integer_string_refusal_is_exact_on_the_trivial_group(capsys):
    # on C1 the answer at k is the carrier 1 + perm(n, k) for diamond, the
    # coefficient C(n, k) for lambda and (-1)^k C(n + k - 1, k) for lambda
    # of -n, so the last printable k runs and the next is refused
    limit, n = sys.get_int_max_str_digits(), 10 ** 6
    for command, x, value in (("diamond", n, lambda k: 1 + math.perm(n, k)),
                              ("lambda", n, lambda k: math.comb(n, k)),
                              ("lambda", -n, lambda k: math.comb(n + k - 1, k))):
        k = 1
        while value(k + 1) < 10 ** limit:
            k += 1
        code, out, err = run_cli(capsys, command, "--group", "C1",
                                 "--element", f"[{x}]", "--k", str(k))
        assert (code, err) == (0, ""), (command, x)
        assert str(value(k)) in out
        code, out, err = run_cli(capsys, command, "--group", "C1",
                                 "--element", f"[{x}]", "--k", str(k + 1))
        assert (code, out) == (2, ""), (command, x)
        # the refused value is the first one too long, so its count is exact
        digits = len(str(value(k + 1) // 10 ** 100)) + 100
        assert err.endswith(f"reaches {digits}, "
                            f"past sys.get_int_max_str_digits() = {limit}\n")


MONOID3_JSON = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                            "monoid3.json")


@pytest.mark.parametrize("argv,message", [
    (["g0", "--monoid-json", MONOID3_JSON, "--group", "S3"],
     "--monoid-json takes no --group"),
    (["g0", "--monoid-json", MONOID3_JSON, "--generators", "(1 2)", "--degree", "2"],
     "--monoid-json takes no --generators"),
    (["g0", "--monoid-json", MONOID3_JSON, "--degree", "5"],
     "--monoid-json takes no --degree"),
    (["marks", "--group", "S3", "--degree", "5"],
     "--degree is read only with --generators"),
    (["g0", "--group", "S3", "--degree", "5"],
     "--degree is read only with --generators"),
], ids=["monoid-group", "monoid-generators", "monoid-degree", "marks-degree",
        "g0-degree"])
def test_flags_that_would_do_nothing_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("rung,bound,count", [
    ("S4xC2", 51, 124577586), ("D4xC2^3", 67, 8953369348488159947676501444)])
def test_suite_refuses_a_rung_before_any_stage(capsys, monkeypatch, rung, bound, count):
    def no_stage(*args, **kwargs):
        raise AssertionError("a suite stage ran before the g0 cap was charged")

    monkeypatch.setattr("f1gtheory.lambda_ops.verify_pre_lambda", no_stage)
    monkeypatch.setattr("f1gtheory.cli._run_mackey_checks", no_stage)
    generators, degree = RUNGS[rung]
    code, out, err = run_cli(capsys, "suite", "--generators", ";".join(generators),
                             "--degree", str(degree))
    assert (code, out) == (2, "")
    assert err == (f"resource limit: generator count at size bound {bound} reaches "
                   f"{count}, past gtheory.GROUP_GENERATOR_CAP = 150000\n")


@pytest.mark.parametrize("argv,message", [
    (["diamond", "--element", "[1,-1]", "--k", "1"], "effective"),
    (["diamond", "--element", "[1,0]", "--k", "0"], "k >= 1"),
], ids=["diamond-virtual", "diamond-k0"])
def test_ghost_operations_refuse_their_inputs_at_the_library(capsys, argv, message):
    code, out, err = run_cli(capsys, argv[0], "--group", "C2", *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_degree_past_cap_exits_2_before_allocating(capsys, tmp_path, monkeypatch):
    cap = groups.ORDER_CAP

    def sized_range(*args):
        if max(args) > cap:
            raise AssertionError(f"range{args} allocated past the degree cap")
        return range(*args)

    monkeypatch.setattr(groups, "range", sized_range, raising=False)
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"generators": ["(1 2)"], "degree": 300000}))
    for argv, degree in ((["--generators", "(1 2)", "--degree", "300000"], 300000),
                         (["--generators", ";", "--degree", str(cap + 1)], cap + 1),
                         (["--group-json", str(path)], 300000)):
        code, out, err = run_cli(capsys, "subgroups", *argv)
        assert (code, out) == (2, ""), argv
        assert err == (f"resource limit: permutation degree reaches {degree}, "
                       f"past groups.ORDER_CAP = {cap}\n")
    code, out, _ = run_cli(capsys, "subgroups", "--generators", "(1 2)",
                           "--degree", str(cap))
    assert code == 0
    assert out.startswith("group custom of order 2:")


def test_jobs_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["marks", "--group", "C2", "--format", "csv", "--jobs", "4"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("argv,content", [
    (["marks", "--group-json"], {"cayley": [[2, 0, 7], [0, 1, 2], [7, 2, 0]]}),
    (["marks", "--group-json"], {"cayley": [[1, 0], [0]]}),
    (["marks", "--group-json"], {"cayley": 5}),
    (["marks", "--group-json"], {"generators": "(1 2)", "degree": 2}),
    (["g0", "--monoid-json"], {"mul": 5}),
    (["decompose", "--group", "C2", "--module-json"], {"action": 5}),
], ids=["cayley-entry-out-of-range", "cayley-ragged", "cayley-not-a-list",
        "generators-a-string", "mul-not-a-list", "action-not-a-list"])
def test_malformed_file_exits_2(capsys, tmp_path, argv, content):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


def test_malformed_file_messages_name_the_fault(capsys, tmp_path):
    path = tmp_path / "input.json"
    for content, message in [
            ({"generators": "(1 2)", "degree": 2}, "list of cycle strings"),
            ({"generators": ["(1 2)"], "degree": [2]}, "integer degree"),
            ({"cayley": [[0, 1], [1, True]]}, "list of integer lists"),
            ({"cayley": [[0, 1], [1, 0]], "order": [2]}, "declared order")]:
        path.write_text(json.dumps(content))
        code, _, err = run_cli(capsys, "marks", "--group-json", str(path))
        assert code == 2
        assert message in err


SEEDED = ["lambda-verify", "mackey-check", "suite"]
UNSEEDED = [
    ["subgroups"],
    ["marks"],
    ["burnside-mul", "--x", "[1]", "--y", "[1]"],
    ["decompose", "--module-json", "module.json"],
    ["lambda", "--element", "[1]", "--k", "1"],
    ["diamond", "--element", "[1]", "--k", "1"],
    ["g0"],
    ["g1"],
    ["wh0"],
    ["simple-factors", "--q", "2"],
]


@pytest.mark.parametrize("argv", UNSEEDED, ids=[a[0] for a in UNSEEDED])
def test_seed_is_rejected_by_unseeded_subcommands(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--group", "C1", "--seed", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", SEEDED)
def test_seed_is_accepted_by_seeded_subcommands(command):
    args = build_parser().parse_args([command, "--group", "C1", "--seed", "5"])
    assert args.seed == 5


def test_cayley_identity_off_zero_marks_like_its_relabelled_form(capsys, tmp_path):
    # S3 with the identity moved to index 2; the loader relabels it to 0
    # and keeps the other elements in order
    s3 = build_group(name="S3").cayley
    swap = [2, 1, 0, 3, 4, 5]
    table = [[0] * 6 for _ in range(6)]
    for a in range(6):
        for b in range(6):
            table[swap[a]][swap[b]] = swap[s3[a][b]]
    perm = [2, 0, 1, 3, 4, 5]
    pos = {x: i for i, x in enumerate(perm)}
    relabelled = [[pos[table[a][b]] for b in perm] for a in perm]
    outputs = []
    for cayley in (table, relabelled):
        path = tmp_path / "group.json"
        path.write_text(json.dumps({"cayley": cayley}))
        code, out, _ = run_cli(capsys, "marks", "--group-json", str(path))
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("table of marks for custom (4 classes)")


def test_identity_off_zero_is_a_group_only_through_the_table_loader(capsys, tmp_path):
    # C3 with its identity at index 2: u * v = u + v + 1 (mod 3)
    table = tuple(tuple((u + v + 1) % 3 for v in range(3)) for u in range(3))
    with pytest.raises(ValueError, match="index 0 is not a two-sided identity"):
        FiniteGroup(3, table)
    with pytest.raises(TypeError):
        FiniteGroup(3, table, identity=2)
    c3 = build_group(name="C3")
    assert build_group(cayley=table) == c3
    for command in ("g0", "wh0"):
        outputs = []
        for cayley in (table, c3.cayley):
            path = tmp_path / "group.json"
            path.write_text(json.dumps({"cayley": cayley}))
            code, out, _ = run_cli(capsys, command, "--group-json", str(path))
            assert code == 0, command
            outputs.append(out)
        assert outputs[0] == outputs[1], command


@pytest.mark.parametrize("cayley,message", [
    # a non-associative loop of order 5 with its unit at index 1
    ([[1, 0, 3, 4, 2], [0, 1, 2, 3, 4], [4, 2, 1, 0, 3], [2, 3, 4, 1, 0],
      [3, 4, 0, 2, 1]], "associativity fails at (0, 0, 2)"),
    # row 1 is range(3), column 1 is not
    ([[1, 2, 0], [0, 1, 2], [2, 0, 1]], "index 1 is not a two-sided identity"),
], ids=["non-associative", "one-sided-unit"])
def test_malformed_table_is_named_in_its_own_indices(capsys, tmp_path, cayley, message):
    # the table is validated against its identity row before it is relabelled
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"cayley": cayley}))
    assert run_cli(capsys, "marks", "--group-json", str(path)) == (
        2, "", f"error: {message}\n")


def test_monoid_labels_key_is_ignored(capsys, tmp_path):
    mul = [[0, 0, 0], [0, 1, 2], [0, 2, 2]]
    outputs = []
    for extra in ({}, {"labels": ["0", "1", "e"]}, {"labels": 3}):
        path = tmp_path / "monoid.json"
        path.write_text(json.dumps({"size": 3, "mul": mul, **extra}))
        code, out, _ = run_cli(capsys, "g0", "--monoid-json", str(path), "--bound", "6")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_suite_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "suite", "--group", "C3")
    assert code == 0
    assert "overall: pass" in out


def test_suite_json(capsys):
    code, out, _ = run_cli(capsys, "suite", "--group", "C2",
                           "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["status"] == "pass"
    assert blob["odd_cyclic"] is False


def test_suite_stdout_independent_of_hash_seed():
    src = os.path.dirname(os.path.dirname(f1gtheory.__file__))
    outputs = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-m", "f1gtheory.cli", "suite", "--group", "S3"],
            capture_output=True, env=env, timeout=300)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert b"overall: pass" in outputs[0]
