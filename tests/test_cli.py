import json
from fractions import Fraction

import pytest

from ecq.cli import _unlimited_int_digits, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, "--json", *argv)
    assert code == 0, err
    return json.loads(out)


def test_curve_info_short(capsys):
    env = run_json(capsys, "curve-info", "--short", "--", "-1,0")
    assert env["command"] == "curve-info"
    assert env["exact"] is True
    assert env["result"]["delta"] == "64"
    assert env["result"]["singular"] is False


def test_curve_info_singular_in_band(capsys):
    code, out, err = run_cli(capsys, "--json", "curve-info", "--short", "0,0")
    assert code == 0
    env = json.loads(out)
    assert env["result"]["singular"] is True
    assert env["result"]["delta"] == "0"


def test_curve_info_general(capsys):
    env = run_json(capsys, "curve-info", "1,0,1,0,0")
    assert env["inputs"]["curve"]["model"] == "general"
    assert env["result"]["delta"] == "-26"
    assert env["result"]["c6"] == "-181"


def test_point_add(capsys):
    env = run_json(capsys, "point", "0,1", "add", "2,3", "0,1")
    assert env["result"]["point"] == "-1,0"


def test_point_mul(capsys):
    env = run_json(capsys, "point", "0,1", "mul", "6", "2,3")
    assert env["result"]["point"] == "O"
    env = run_json(capsys, "point", "0,-2", "mul", "2", "3,5")
    assert env["result"]["point"] == "129/100,-383/1000"


def test_point_neg_infinity(capsys):
    env = run_json(capsys, "point", "0,1", "neg", "O")
    assert env["result"]["point"] == "O"


def test_point_general_model(capsys):
    # y^2 + y = x^3: negation is y -> -y - 1
    env = run_json(capsys, "point", "0,0,1,0,0", "neg", "0,0")
    assert env["result"]["point"] == "0,-1"
    assert env["inputs"]["curve"]["model"] == "general"


def test_point_not_on_curve_exit_3(capsys):
    code, out, err = run_cli(capsys, "point", "0,1", "add", "2,4", "0,1")
    assert code == 3
    assert "not on the curve" in err
    code, _, _ = run_cli(capsys, "descend", "--", "-1,0", "2,3")
    assert code == 3


def test_search(capsys):
    env = run_json(capsys, "search", "--height-log", "0.7", "--", "0,1")
    assert env["result"]["count"] == 6
    points = {entry["point"] for entry in env["result"]["points"]}
    assert points == {"O", "-1,0", "0,1", "0,-1", "2,3", "2,-3"}
    assert all(entry["height_magnitude"] >= 1 for entry in env["result"]["points"])


def test_search_requires_short_integral_exit_4(capsys):
    code, _, err = run_cli(capsys, "search", "--height-log", "1", "1,0,1,0,0")
    assert code == 4
    code, _, err = run_cli(capsys, "search", "--height-log", "1", "1/2,1")
    assert code == 4


def test_descend(capsys):
    env = run_json(capsys, "descend", "--", "-1,0", "0,0")
    assert env["exact"] is False
    assert env["result"]["m"] == 2
    assert env["result"]["final_below_threshold"] is True
    assert env["result"]["final"] in {"O", "-1,0", "0,0", "1,0"}


def test_descend_explicit_constants(capsys):
    env = run_json(capsys, "descend", "--constants", "2,1", "--", "-1,0", "1,0")
    assert env["result"]["c1_prime"] == 2.0
    assert env["result"]["threshold"] == 2.5


def test_descend_bad_constants_exit_5(capsys):
    code, _, err = run_cli(capsys, "descend", "--constants=-100,0", "--", "-1,0", "0,0")
    assert code == 5
    assert "descent" in err


def test_descend_needs_full_two_torsion_exit_4(capsys):
    code, _, err = run_cli(capsys, "descend", "0,1", "2,3")
    assert code == 4


def test_rank_bounds(capsys):
    env = run_json(capsys, "rank-bounds", "--", "-1,0")
    assert env["result"]["lower"] == 0
    assert env["result"]["upper"] == 2
    assert env["result"]["support_primes"] == [2]


def test_torsion(capsys):
    env = run_json(capsys, "torsion", "0,1")
    assert env["result"]["structure"] == "Z/6"
    assert env["result"]["order"] == 6


def test_verify(capsys):
    env = run_json(capsys, "verify", "0,1")
    assert env["result"]["all_passed"] is True
    assert env["result"]["identity_z7"] is True
    assert env["result"]["identity_x7"] is True
    assert env["result"]["phi_psi"] is True
    assert env["result"]["diagram"] is True
    assert env["result"]["diagram_pairs_checked"] > 0


def test_parse_errors_exit_2(capsys):
    assert run_cli(capsys, "curve-info", "zzz")[0] == 2
    assert run_cli(capsys, "curve-info", "1,2,3")[0] == 2
    assert run_cli(capsys, "point", "0,1", "add", "2,3")[0] == 2
    assert run_cli(capsys, "point", "0,1", "mul", "x", "2,3")[0] == 2
    assert run_cli(capsys, "descend", "--constants", "abc", "--", "-1,0", "0,0")[0] == 2
    # argparse usage errors share the parse exit code
    assert run_cli(capsys, "no-such-command")[0] == 2


def test_threads_flag(capsys):
    env = run_json(capsys, "--threads", "2", "torsion", "0,4")
    assert env["result"]["structure"] == "Z/3"
    assert run_cli(capsys, "--threads", "0", "torsion", "0,4")[0] == 2


def test_determinism_byte_identical(capsys):
    argv = ["--json", "rank-bounds", "--", "-1,0"]
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second


def test_envelope_round_trips(capsys):
    _, out, _ = run_cli(capsys, "--json", "torsion", "0,1")
    env = json.loads(out)
    assert set(env) == {"command", "inputs", "result", "exact"}
    assert json.dumps(env, sort_keys=True) + "\n" == out


def test_human_rendering(capsys):
    code, out, _ = run_cli(capsys, "torsion", "0,4")
    assert code == 0
    assert "result.structure = Z/3" in out


def test_negative_scalar_behind_separator(capsys):
    env = run_json(capsys, "point", "--", "0,1", "mul", "-3", "2,3")
    assert env["result"]["point"] == "-1,0"


def test_parse_fuzz_never_escapes_exit_contract(capsys):
    import random

    rng = random.Random(99)
    alphabet = "0123456789,-/O. "
    for _ in range(300):
        curve = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
        point = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
        argv = rng.choice(
            [
                ["curve-info", "--", curve],
                ["point", "--", curve, "neg", point],
                ["point", "--", curve, rng.choice(["add", "mul", "neg"]), point, point],
            ]
        )
        code, _, _ = run_cli(capsys, "--json", *argv)
        assert code in {0, 1, 2, 3, 4, 5}, argv


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "0,1", "--height-log", "nan"],
        ["search", "0,1", "--height-log", "inf"],
        ["search", "0,1", "--height-log=-1"],
        ["search", "0,1", "--height-log", "1e6"],
        ["torsion", "0,1", "--search-log", "nan"],
        ["torsion", "0,1", "--search-log=-inf"],
        ["rank-bounds", "--search-log", "inf", "--", "-1,0"],
        ["descend", "--search-log", "nan", "--", "-1,0", "0,0"],
    ],
)
def test_bad_height_bound_is_parse_error_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, "--json", *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err and "log-height" in err


def test_point_mul_beyond_int_str_digit_limit(capsys):
    # [120](-4, 6) on y^2 = x^3 - 25x has coordinates far past 4300 digits
    env = run_json(capsys, "point", "--", "-25,0", "mul", "120", "-4,6")
    x_text, y_text = env["result"]["point"].split(",")
    assert len(x_text) > 4300
    with _unlimited_int_digits():
        x, y = Fraction(x_text), Fraction(y_text)
    assert y * y == x**3 - 25 * x
