"""Command surface: parsing, JSON contract, exit codes, determinism."""

import contextlib
import io
import json
import math
import random
import shlex
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from fresh import fresh_interpreter, fresh_run

from algentropy.cli import build_parser, parse_group, parse_matrix, parse_poly, run
from algentropy.config import SessionConfig, default_config
from algentropy.errors import ParseError


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def invoke_json(*argv):
    code, out, err = invoke(*argv)
    assert code == 0, err
    return json.loads(out)


@pytest.mark.parametrize("poly, verdict", [("2,2", False), ("-1,-1,-1", True), ("-2", False)])
def test_kronecker_answers_as_measure_does_on_non_primitive_input(poly, verdict):
    # a content other than +-1 is a positive measure; -f answers as f does
    assert invoke_json("mahler", "kronecker", f"--poly={poly}")["kronecker"] is verdict
    assert invoke_json("mahler", "measure", f"--poly={poly}")["kronecker"] is verdict


def test_halg_spec_example():
    payload = invoke_json("entropy", "halg", "--matrix", "[[3,0],[0,2]]/2")
    assert payload["log_of"] == "3"
    assert payload["path"] == "yuzvinski"
    assert math.isclose(float(payload["value"]), math.log(3))


def test_kronecker_spec_example():
    payload = invoke_json("mahler", "kronecker", "--poly", "1,1,1")
    assert payload["kronecker"] is True


def test_inertial_witness_spec_example():
    payload = invoke_json("inert", "endo", "--group", "Z^2", "--matrix", "[[1,1],[0,1]]")
    assert payload["inertial"] is False
    assert payload["kind"] == "non_inertial_witness"
    assert payload["witness"]["basis"] == [["0", "1"]]


def test_group_canon():
    payload = invoke_json("group", "canon", "--group", '{"invariant_factors": ["4", "6"]}')
    assert payload["invariant_factors"] == ["2", "12"]
    assert payload["free_rank"] == "0"
    assert payload["order"] == "24"
    payload = invoke_json("group", "canon", "--group", "Z/6 x Z x Z/4")
    assert payload["invariant_factors"] == ["2", "12"]
    assert payload["free_rank"] == "1"
    assert payload["order"] == "Infinite"


def test_sub_commands():
    args = ("--group", "Z^2", "--sub", "[[2,0],[0,2]]", "--other", "[[4,0],[0,4]]")
    assert invoke_json("sub", "index", *args)["index"] == "4"
    assert invoke_json("sub", "sum", *args)["basis"] == [["2", "0"], ["0", "2"]]
    assert invoke_json("sub", "meet", *args)["basis"] == [["4", "0"], ["0", "4"]]


def test_sub_lattice_route():
    payload = invoke_json(
        "sub", "sum", "--space", "2", "--sub", "[[1/2,0]]", "--other", "[[0,1]]"
    )
    assert payload["basis"] == [["1/2", "0"], ["0", "1"]]


def test_sub_index_infinite():
    payload = invoke_json(
        "sub", "index", "--group", "Z^2", "--sub", "[[1,0],[0,1]]", "--other", "[[1,0]]"
    )
    assert payload["index"] == "Infinite"


def test_inert_check_routes():
    payload = invoke_json(
        "inert", "check", "--group", "Z^2", "--matrix", "[[1,1],[0,1]]", "--sub", "[[1,0]]"
    )
    assert payload["inert"] is True and payload["index"] == "1"
    payload = invoke_json(
        "inert", "check", "--space", "1", "--matrix", "[[1/2]]", "--sub", "[[1]]"
    )
    assert payload["inert"] is True and payload["index"] == "2"
    payload = invoke_json("inert", "check", "--cell", "Z/3", "--k", "2")
    assert payload["inert"] is True and payload["index"] == "3"
    payload = invoke_json("inert", "check", "--cell", "Z/3", "--k", "2", "--two-sided")
    assert payload["inert"] is True and payload["index"] == "3"


def test_inert_witness_subcommand():
    payload = invoke_json("inert", "witness", "--group", "Z^2", "--matrix", "[[1,1],[0,1]]")
    assert payload["witness"]["basis"] == [["0", "1"]]
    payload = invoke_json("inert", "witness", "--group", "Z^2", "--matrix", "[[5,0],[0,5]]")
    assert payload["witness"] is None


def test_inert_endo_multiplication():
    payload = invoke_json("inert", "endo", "--group", "Z^2", "--matrix", "[[5,0],[0,5]]")
    assert payload["inertial"] is True
    assert payload["kind"] == "multiplication_integer"
    assert payload["multiplication_by"] == "5"


def test_fullyinert_check_and_classify():
    payload = invoke_json("fullyinert", "check", "--group", "Z^2", "--sub", "[[2,0],[0,3]]")
    assert payload["fully_inert"] is True
    payload = invoke_json("fullyinert", "check", "--group", "Z^2", "--sub", "[[1,0]]")
    assert payload["fully_inert"] is False

    descriptor = json.dumps(
        {
            "torsion_free": {"kind": "homogeneous_cd", "rank": 3},
            "primes": [[2, {"divisible_rank": 0, "uk_invariants": [[1, "Infinite"]]}]],
            "cofinite_default": "divisible",
        }
    )
    payload = invoke_json("fullyinert", "classify", "--descriptor", descriptor)
    assert payload["verdict"] is True
    assert payload["reason"] == "all-clauses-hold"
    payload = invoke_json(
        "fullyinert", "classify", "--descriptor", '{"torsion_free": {"kind": "other"}}'
    )
    assert payload["verdict"] is None
    assert payload["reason"] == "torsion-free-part-unclassified"


def test_entropy_subcommands():
    payload = invoke_json("entropy", "ent", "--cell", "Z/2xZ/2")
    assert payload["log_of"] == "4"
    payload = invoke_json("entropy", "stabilized", "--matrix", "[[3/2]]", "--sub", "[[1]]")
    # the index sequence starts at the lead 2: an exact stop at step 1
    assert payload["log_of"] == "2" and payload["heuristic"] is False
    assert payload["steps_used"] == "1"
    payload = invoke_json("entropy", "intrinsic", "--matrix", "[[3/2]]", "--cross-check")
    assert payload["log_of"] == "2"
    assert payload["cross_check"]["agreement"] is True
    payload = invoke_json("entropy", "adjoint", "--matrix", "[[1/5]]", "--sub", "[[1]]")
    assert payload["log_of"] == "5" and payload["path"] == "cotrajectory"
    payload = invoke_json("entropy", "limitfree", "--group", "Z", "--matrix", "[[2]]", "--sub", "[[1]]")
    assert payload["log_of"] == "2" and payload["path"] == "limit_free"
    payload = invoke_json("entropy", "limitfree", "--cell", "Z/3")
    assert payload["log_of"] == "3" and payload["path"] == "symbolic_shift"
    payload = invoke_json("entropy", "htop", "--cell", "Z/4")
    assert payload["log_of"] == "4"
    payload = invoke_json("entropy", "scale", "--cell", "Z/5")
    assert payload["scale"] == "5"
    assert payload["family_relative"] is True


def test_entropy_adjoint_steps():
    payload = invoke_json("entropy", "adjoint", "--matrix", "[[1/2]]", "--sub", "[[1]]", "--steps", "3")
    assert payload["cotrajectory_basis"] == [["4"]]


def test_growth_subcommands():
    payload = invoke_json("growth", "classify", "--matrix", "[[0,1],[1,1]]")
    assert payload["growth"] == "exponential"
    payload = invoke_json("growth", "classify", "--matrix", "[[0,-1],[1,0]]")
    assert payload["growth"] == "polynomial"
    payload = invoke_json(
        "growth", "sumset", "--group", "Z", "--matrix", "[[2]]", "--points", "[[0],[1]]", "--n", "4"
    )
    assert payload["sizes"] == ["2", "4", "8", "16"]


def test_mahler_subcommands():
    payload = invoke_json("mahler", "measure", "--poly=-1,-1,1")
    golden = math.log((1 + math.sqrt(5)) / 2)
    assert abs(float(payload["value"]) - golden) < 1e-6
    assert payload["roots_outside"] == "1"
    payload = invoke_json("mahler", "measure", "--poly=-2,1")
    assert payload["log_of"] == "2" and payload["exact"] is True
    payload = invoke_json("mahler", "scan", "--degree-max", "2", "--height-max", "1", "--threshold", "0.5")
    assert payload["count"] == "2"
    coeffs = [hit["coeffs"] for hit in payload["polynomials"]]
    assert ["-1", "-1", "1"] in coeffs and ["-1", "1", "1"] in coeffs
    golden = math.log((1 + math.sqrt(5)) / 2)
    for hit in payload["polynomials"]:
        assert abs(float(hit["measure"]["value"]) - golden) < 1e-6


def test_nonabelian_traj_catalog():
    # symmetric group on 3 letters, phi = conjugation by a 3-cycle,
    # trajectory of a 2-element subgroup sweeps out the whole group
    payload = invoke_json(
        "nonabelian", "traj", "--order", "6", "--index", "0",
        "--phi", "[0,1,2,5,3,4]", "--subset", "[0,3]", "--subgroup", "[0,3]", "--n", "3",
    )
    assert payload["order"] == "6"
    assert payload["sizes"] == ["2", "4", "6", "6"]
    assert payload["transversal_counts"] == ["1", "2", "3", "3"]
    assert payload["bound_base"] == "2"
    assert payload["bound_holds"] is True


def test_nonabelian_traj_table():
    table = json.dumps([[(i + j) % 3 for j in range(3)] for i in range(3)])
    payload = invoke_json(
        "nonabelian", "traj", "--table", table, "--phi", "[0,1,2]", "--subset", "[0,1]", "--n", "3"
    )
    assert payload["sizes"] == ["2", "3", "3", "3"]
    assert "transversal_counts" not in payload


def test_exit_code_parse_error():
    code, out, err = invoke("entropy", "halg", "--matrix", "[[3,0],[0,2]/2")
    assert code == 1
    assert "parse error" in err
    code, _, err = invoke("group", "canon", "--group", "Z^x")
    assert code == 1
    assert "position" in err


def test_exit_code_domain_error():
    code, _, err = invoke("entropy", "htop", "--cell", "Z")
    assert code == 2
    assert "domain error" in err
    code, _, err = invoke(
        "nonabelian", "traj", "--order", "6", "--index", "9", "--phi", "[0]", "--subset", "[0]", "--n", "1"
    )
    assert code == 2
    code, out, err = invoke(
        "nonabelian", "traj", "--order", "2", "--index", "0", "--phi", "[0,1]", "--subset", "[1]", "--n", "-1"
    )
    assert code == 2 and out == ""
    assert "step count" in err


def test_nonabelian_traj_long_run_output():
    # S3, conjugation by a 3-cycle: the bytes the per-step recomputation gave
    code, out, _ = invoke(
        "nonabelian", "traj", "--order", "6", "--index", "0",
        "--phi", "[0,1,2,5,3,4]", "--subset", "[0,3]", "--subgroup", "[0,3]", "--n", "64",
    )
    sizes = ",".join(['"2"', '"4"'] + ['"6"'] * 63)
    counts = ",".join(['"1"', '"2"'] + ['"3"'] * 63)
    assert code == 0
    assert out == (
        '{"bound_base":"2","bound_holds":true,"order":"6",'
        f'"sizes":[{sizes}],"transversal_counts":[{counts}]}}\n'
    )


@pytest.mark.parametrize("argv, flag", [
    (["nonabelian", "traj", "--order", "6", "--index", "1", "--phi", "[0,1,2,3,4,5]",
      "--subset", "[1,2]"], "--n"),
    (["growth", "sumset", "--group", "Z", "--matrix", "[[1]]", "--points", "[[0],[1]]"], "--n"),
    (["entropy", "adjoint", "--matrix", "[[1/2]]", "--sub", "[[1]]"], "--steps"),
], ids=["nonabelian", "sumset", "adjoint"])
def test_step_count_beyond_max_steps_is_a_budget_error(argv, flag):
    # 10^8 adjoint steps were still running after 10 s on a 2-core machine
    code, seconds, _, err = fresh_run(argv + [flag, str(10**8)])
    assert code == 3 and "max_steps" in err
    assert seconds < 1.0
    assert invoke(*argv, flag, str(10**30))[0] == 3
    assert invoke(*argv, flag, "65")[0] == 3
    assert invoke(*argv, flag, "65", "--max-steps", "65")[0] == 0


@pytest.mark.parametrize("argv, expected", [
    # the minimum over k <= max_index of a constant ran max_index + 1 times
    (["entropy", "scale", "--cell", "Z/2", "--max-index", str(10**30)],
     '{"family_relative":true,"max_index":"%d","scale":"2"}\n' % 10**30),
    # the Smith form of a dense relation row with a column per free rank:
    # 1.8 s at Z^3000000 on a 2-core machine
    (["group", "canon", "--group", "Z/2 x Z^1000000000000"],
     '{"display":"Z/2 + Z^1000000000000","free_rank":"1000000000000",'
     '"invariant_factors":["2"],"order":"Infinite"}\n'),
    (["group", "canon", "--group",
      '{"invariant_factors": ["2"], "free_rank": "1000000000000"}'],
     '{"display":"Z/2 + Z^1000000000000","free_rank":"1000000000000",'
     '"invariant_factors":["2"],"order":"Infinite"}\n'),
    # no candidate has a nonzero constant term, but each degree was visited
    (["mahler", "scan", "--degree-max", "1000000", "--height-max", "0"],
     '{"count":"0","polynomials":[]}\n'),
], ids=["scale", "canon", "canon-json", "scan-height-0"])
def test_huge_counts_answer_at_once_time_regression(argv, expected):
    code, seconds, out, err = fresh_run(argv)
    assert (code, out) == (0, expected), err
    assert seconds < 1.0


@pytest.mark.parametrize("argv, exit_code", [
    # the scan size (2h+1)^d was summed over every degree before the cap
    (["mahler", "scan", "--degree-max", "1000000000"], 3),
    (["mahler", "scan", "--degree-max", "1000000000", "--height-max", "-1"], 2),
], ids=["degree", "negative-height"])
def test_scan_refuses_before_enumerating_time_regression(argv, exit_code):
    code, seconds, out, _ = fresh_run(argv)
    assert (code, out) == (exit_code, "")
    assert seconds < 1.0


def test_exit_code_budget_error():
    code, _, err = invoke(
        "growth", "sumset", "--group", "Z", "--matrix", "[[2]]",
        "--points", "[[0],[1]]", "--n", "40", "--element-cap", "100",
    )
    assert code == 3


def test_determinism_byte_identical():
    argv = ("entropy", "halg", "--matrix", "[[0,1],[1,1]]")
    _, first, _ = invoke(*argv)
    _, second, _ = invoke(*argv)
    assert first == second


def test_parser_reuse_survives_parse_error():
    # one process, one cached parser: a failed parse must not leak into the next request
    argv = ("entropy", "halg", "--matrix", "[[1/2,3],[2,-1/3]]")
    code, first, _ = invoke(*argv)
    assert code == 0
    code, out, _ = invoke("entropy", "halg", "--matrix")
    assert code == 1 and out == ""
    code, second, _ = invoke(*argv)
    assert code == 0
    assert first == second


def test_json_round_trip():
    for argv in (
        ("group", "canon", "--group", "Z/6 x Z"),
        ("mahler", "measure", "--poly", "1,1,1"),
        ("entropy", "ent", "--cell", "Z/3"),
    ):
        _, out, _ = invoke(*argv)
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload


def test_text_output_mode():
    code, out, _ = invoke("--output", "text", "group", "canon", "--group", "Z/4")
    assert code == 0
    assert 'invariant_factors = ["4"]' in out
    assert 'order = "4"' in out
    assert "{" not in out


MAP_4X4 = "[[1/2,1,-5/3,2/5],[1,-1/4,1/4,3/2],[-3/4,-3/4,0,0],[-1/2,1,-3/2,0]]"
IDENTITY_4 = "[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]"


def test_env_and_flag_precedence(monkeypatch):
    # the 4x4 map's index sequence reaches its limit at step 4
    monkeypatch.setenv("ALGENTROPY_MAX_STEPS", "3")
    code, _, err = invoke("entropy", "stabilized", "--matrix", MAP_4X4, "--sub", IDENTITY_4)
    assert code == 3  # env shrinks the budget below the steps needed
    assert "budget error" in err
    code, out, _ = invoke(
        "entropy", "stabilized", "--matrix", MAP_4X4, "--sub", IDENTITY_4, "--max-steps", "16"
    )
    assert code == 0  # the flag wins over the environment
    assert json.loads(out)["log_of"] == "160"


def test_intrinsic_cross_check_on_the_4x4_map():
    # the index sequence is 480, 480, 480, then 160: a plateau is not the limit
    payload = invoke_json("entropy", "intrinsic", "--cross-check", "--matrix", MAP_4X4)
    assert payload["log_of"] == "160"
    assert payload["cross_check"]["agreement"] is True
    assert payload["cross_check"]["log_of"] == "160"


def test_limitfree_shift_with_many_positions():
    gens = json.dumps([{str(i): [1]} for i in range(20)])
    start = time.perf_counter()
    payload = invoke_json("entropy", "limitfree", "--cell", "Z/2", "--gens", gens)
    assert time.perf_counter() - start < 0.5
    assert payload["log_of"] == "2" and payload["path"] == "symbolic_shift"
    start = time.perf_counter()
    code, out, err = invoke("entropy", "limitfree", "--cell", "Z/2", "--gens", '[{"100000":[1]}]')
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == "" and "domain error" in err


def test_limitfree_shift_dense_seed_time_regression():
    # the Hermite form of all 24 dense rows and the relations at once had
    # not finished after 90 s on a 2-core machine (20 s at 16 rows)
    draw = random.Random(0)
    gens = [{str(p): [draw.randrange(2), draw.randrange(4)] for p in range(24)}
            for _ in range(24)]
    start = time.perf_counter()
    code, out, err = invoke("entropy", "limitfree", "--cell", "Z/2 x Z/4",
                            "--gens", json.dumps(gens))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "domain error" in err


def test_config_flags_accepted_after_subcommand():
    # the 4x4 map's index sequence reaches its limit at step 4
    argv = ("entropy", "stabilized", "--matrix", MAP_4X4, "--sub", IDENTITY_4)
    payload = invoke_json(*argv, "--max-steps", "4")
    assert (payload["log_of"], payload["steps_used"]) == ("160", "4")
    assert invoke(*argv, "--max-steps", "3")[0] == 3
    assert invoke("--max-steps", "4", *argv)[0] == 0
    assert invoke("--max-steps", "3", *argv)[0] == 3


@pytest.mark.parametrize("argv", [
    ("mahler", "measure", "--poly", "1,0,0,1,1"),
    ("entropy", "halg", "--matrix", "[[1,1],[1,0]]"),
], ids=["mahler", "halg"])
def test_tol_is_the_session_tolerance(argv):
    # --tol abbreviates --tolerance, the one tolerance knob
    code, out, err = invoke(*argv, "--tol", "1e-4")
    assert code == 0, err
    assert out == invoke(*argv, "--tolerance", "1e-4")[1]
    assert out == invoke("--tolerance", "1e-4", *argv)[1]


def test_non_positive_tol_is_a_parse_error():
    # a per-command --tol skipped the session's validation and exited 0
    code, out, err = invoke("mahler", "measure", "--poly", "1,1", "--tol", "-1")
    assert (code, out) == (1, "") and "tolerance must be positive" in err


HALG = ("entropy", "halg", "--matrix", "[[2,1],[1,1]]")


@pytest.mark.parametrize("flag, value, message", [
    ("--tolerance", "nan", "tolerance must be positive"),
    ("--element-cap", "-1", "element cap must be >= 0"),
    ("--max-steps", "0", "step counts must be >= 1"),
    ("--max-steps", "abc", "invalid int value"),
])
def test_bad_session_flag_is_a_parse_error(flag, value, message):
    # a nan tolerance passed `tolerance <= 0` and failed certification (exit 3)
    code, out, err = invoke(*HALG, f"{flag}={value}")
    assert (code, out) == (1, "") and message in err


@pytest.mark.parametrize("name, value, message", [
    ("TOLERANCE", "nan", "tolerance must be positive"),
    ("ELEMENT_CAP", "-1", "element cap must be >= 0"),
    ("MAX_STEPS", "0", "step counts must be >= 1"),
    ("MAX_STEPS", "abc", "ALGENTROPY_MAX_STEPS"),
])
def test_bad_session_environment_is_a_parse_error(monkeypatch, name, value, message):
    # the environment was read outside the parse-error wrapper (exit 2)
    monkeypatch.setenv("ALGENTROPY_" + name, value)
    code, out, err = invoke(*HALG)
    assert (code, out) == (1, "") and "parse error" in err and message in err


def test_element_cap_zero_is_legal():
    assert invoke("--element-cap", "0", *HALG)[0] == 0


@pytest.mark.parametrize("argv", [
    ("entropy", "halg", "--matrix", "[[\u00b2]]"),
    ("mahler", "measure", "--poly", "1,\u00b2"),
    ("group", "canon", "--group", "Z/\u00b2"),
], ids=["matrix", "poly", "group"])
def test_non_ascii_digits_are_a_parse_error(argv):
    # str.isdigit accepts a superscript two, which int() then refuses
    code, out, err = invoke(*argv)
    assert (code, out) == (1, "") and "parse error" in err and "position" in err


def test_window_flag_is_gone(monkeypatch):
    code, out, err = invoke("entropy", "ent", "--cell", "Z/2", "--window", "4")
    assert (code, out) == (1, "") and "--window" in err
    assert invoke("--window", "4", "entropy", "ent", "--cell", "Z/2")[:2] == (1, "")
    # nor is the environment variable read: a window of 0 was a ValueError
    monkeypatch.setenv("ALGENTROPY_WINDOW", "0")
    assert invoke_json("entropy", "ent", "--cell", "Z/2")["log_of"] == "2"


@pytest.mark.parametrize("call, expected", [
    # T_4 over Z/64 has 64^4 elements: a window of 3 passed the element
    # cap after 19 s (exit 3) on a 2-core machine
    ("run(['entropy', 'ent', '--cell', 'Z/64'], out, sys.stderr)\n"
     "value = json.loads(out.getvalue())['log_of']", "64"),
    # a window of 3 built T_4 of 5^8 elements in 5.1 s on a 2-core machine
    ("b = ShiftGroup(FgAbGroup([5, 5]))\n"
     "value = str(h_alg_stabilized(b, b.first_coordinate_copy()).log_of)", "25"),
    # reading K_n off the element sets passed the element cap after 13 s
    # (Z/1024) and 25 s (Z/2^64) on a 2-core machine
    ("run(['entropy', 'ent', '--cell', 'Z/1024'], out, sys.stderr)\n"
     "value = json.loads(out.getvalue())['log_of']", "1024"),
    ("run(['entropy', 'ent', '--cell', 'Z/18446744073709551616'], out, sys.stderr)\n"
     "value = json.loads(out.getvalue())['log_of']", "18446744073709551616"),
], ids=["ent-Z/64", "halg-(Z/5)^2", "ent-Z/1024", "ent-Z/2^64"])
def test_large_bernoulli_cells_time_regression(call, expected):
    # a fresh process, so no cache from other tests helps
    code = (
        "import io, json, sys, time\n"
        "from algentropy import FgAbGroup, ShiftGroup, h_alg_stabilized\n"
        "from algentropy.cli import run\n"
        "out = io.StringIO()\n"
        "start = time.perf_counter()\n"
        f"{call}\n"
        "print(value, time.perf_counter() - start)\n"
    )
    value, seconds = fresh_interpreter(code).stdout.split()
    assert value == expected
    assert float(seconds) < 1.0


def test_rational_roots_of_a_large_constant_term_time_regression():
    # trial division over the divisors of 10^18 + 3 had not finished
    # after 45 s on a 2-core machine
    code, seconds, out, _ = fresh_run(["mahler", "measure", "--poly", "1000000000000000003,1,1"])
    assert code == 0
    assert seconds < 1.0
    # both roots have modulus sqrt(10^18 + 3)
    assert math.isclose(float(json.loads(out)["value"]), math.log(10**18 + 3))


def test_integers_past_the_str_digit_limit_answer():
    # both requests exited 2: CPython refuses int/str conversion past
    # 4,300 digits unless the limit is lifted, and run now lifts it for
    # its own duration only
    code = (
        "import io, json, sys\n"
        "from algentropy.cli import run\n"
        "before = sys.get_int_max_str_digits()\n"
        "group = ['group', 'canon', '--group', 'Z/' + '7' * 5000]\n"
        "halg = ['entropy', 'halg', '--matrix', '[[' + '7' * 3000 + ',0],[0,' + '3' * 3000 + ']]']\n"
        "outs = [io.StringIO(), io.StringIO()]\n"
        "codes = [run(argv, stdout=out) for argv, out in zip((group, halg), outs)]\n"
        "print(json.dumps([codes, before, sys.get_int_max_str_digits()]\n"
        "                 + [out.getvalue() for out in outs]))\n"
    )
    codes, before, after, group, halg = json.loads(fresh_interpreter(code).stdout)
    assert codes == [0, 0]
    assert before == after == 4300
    own = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert json.loads(group)["order"] == "7" * 5000
        assert json.loads(halg)["log_of"] == str(int("7" * 3000) * int("3" * 3000))
    finally:
        sys.set_int_max_str_digits(own)


def test_readme_examples_byte_identical():
    # every "$ algentropy ..." line of the README, against the line under it
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    examples = [(shlex.split(line)[2:], lines[i + 1])
                for i, line in enumerate(lines) if line.startswith("$ algentropy ")]
    assert len(examples) >= 4
    for argv, expected in examples:
        code, out, err = invoke(*argv)
        assert (code, out) == (0, expected + "\n"), (argv, err)


def test_parse_group_forms():
    assert parse_group("Z^2").free_rank == 2
    assert parse_group("Z/2 * Z/4").invariant_factors == (2, 4)
    assert parse_group("0").dim == 0
    assert parse_group("1").dim == 0
    assert parse_group("Z/0 x Z/2").free_rank == 1
    g = parse_group('{"invariant_factors": ["2", "6"], "free_rank": "1"}')
    assert g.invariant_factors == (2, 6) and g.free_rank == 1
    with pytest.raises(ParseError):
        parse_group("Z^")
    with pytest.raises(ParseError):
        parse_group("Z/2 + + Z/4")


def test_parse_matrix_forms():
    assert parse_matrix("[[1,2],[3,4]]") == [[1, 2], [3, 4]]
    assert parse_matrix("[[3,0],[0,2]]/2") == [
        [Fraction(3, 2), Fraction(0)],
        [Fraction(0), Fraction(1)],
    ]
    assert parse_matrix("[[1/2]]") == [[Fraction(1, 2)]]
    with pytest.raises(ParseError):
        parse_matrix("[[1,2],[3]]")
    with pytest.raises(ParseError):
        parse_matrix("[[1,2]")


def test_parse_poly_forms():
    assert parse_poly("1,1,1").coeffs == (1, 1, 1)
    assert parse_poly("[-1,-1,1]").coeffs == (-1, -1, 1)
    with pytest.raises(ParseError):
        parse_poly("1,,2")


def test_unknown_subcommand_is_parse_error():
    code, _, err = invoke("entropy", "banana")
    assert code == 1


def test_parser_builds_clean():
    parser = build_parser()
    assert parser.prog == "algentropy"


# (exit, stdout, stderr) of each form, recorded on the three-level parser
# and character scanner that the leaf dispatch and the tokenizer replaced
ARGV_FORMS = json.loads((Path(__file__).parent / "cli_argv_forms.json").read_text())


@pytest.mark.parametrize("form", ARGV_FORMS, ids=lambda form: " ".join(form["argv"])[:60])
def test_argv_forms_byte_identical(form, monkeypatch):
    # flags before and after the command, abbreviations, -h at each level,
    # unknown and misplaced words; help text is wrapped at $COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    for name in ("TOLERANCE", "MAX_STEPS", "ELEMENT_CAP", "OUTPUT_MODE"):
        monkeypatch.delenv("ALGENTROPY_" + name, raising=False)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(list(form["argv"]), stdout=out, stderr=err)
        except SystemExit as exc:  # -h prints the help and exits
            code = exc.code
    assert (code, out.getvalue(), err.getvalue()) == (form["exit"], form["stdout"], form["stderr"])


def test_leaf_requests_skip_the_upper_levels(monkeypatch):
    # a request naming its command and subcommand first is read by the
    # leaf parser alone; any other argv still walks the whole tree
    def walked(*args, **kwargs):
        raise AssertionError("the full tree read a leaf request")

    monkeypatch.setattr(build_parser(), "parse_args", walked)
    assert invoke_json("entropy", "halg", "--matrix", "[[2,1],[1,1]]", "--tol=1e-4")["value"] > 0
    with pytest.raises(AssertionError):
        invoke("--tol=1e-4", "entropy", "halg", "--matrix", "[[2,1],[1,1]]")


def test_default_config_is_shared_per_environment(monkeypatch):
    for name in ("TOLERANCE", "MAX_STEPS", "ELEMENT_CAP", "OUTPUT_MODE"):
        monkeypatch.delenv("ALGENTROPY_" + name, raising=False)
    first = default_config()
    assert first == SessionConfig()
    assert default_config() is first
    monkeypatch.setenv("ALGENTROPY_MAX_STEPS", "7")
    changed = default_config()
    assert changed.max_steps == 7 and changed is not first
    assert default_config() is changed
    monkeypatch.delenv("ALGENTROPY_MAX_STEPS")
    assert default_config() is first


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_environment_value_raises_every_call(monkeypatch, value):
    monkeypatch.setenv("ALGENTROPY_MAX_STEPS", value)
    for _ in range(3):
        with pytest.raises(ValueError):
            default_config()
    monkeypatch.setenv("ALGENTROPY_MAX_STEPS", "5")
    assert default_config().max_steps == 5


def test_tolerance_refusal_names_the_factor_share():
    # the refused 2e-300 is the factor's share of the tolerance 1e-300
    code, out, err = invoke("entropy", "halg", "--tolerance", "1e-300", "--matrix", "[[1,1],[1,0]]")
    assert (code, out) == (3, "")
    assert "share 2e-300" in err and "2e-12" in err and "degree 2" in err
    assert "tolerance 2e-300" not in err
