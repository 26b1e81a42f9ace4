import argparse
import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gravernash.cli
import gravernash.graver
import gravernash.nfold
import gravernash.solver
from gravernash import IntMatrix, ResourceCapExceeded
from gravernash.cli import main
from gravernash.costs import PowerCost
from gravernash.graver import DEFAULT_ELEMENT_CAP, GraverBasis, _basis_from_lattice, _complete
from gravernash.linalg import kernel_lattice_basis
from gravernash.nfold import NfoldSpec, build_nash_matrix
from gravernash.serialize import frac_from_str

from conftest import rand_matrix

SQ = {"kind": "quadratic", "a": "1", "b": "0", "c": "0"}

GAME = {
    "players": [
        {"A": [[1, 1]], "b": [1], "u": [1, 1], "B": [[0, 0]]},
        {"A": [[1, 1]], "b": [1], "u": [1, 1], "B": [[0, 0]]},
    ],
    "b0": [0],
    "costs": [SQ, SQ],
}

# each player takes one unit, but the coupling row admits only one in total
CROWDED = {
    "players": [
        {"A": [[1, 1]], "b": [1], "u": [1, 1], "B": [[1, 1]]},
        {"A": [[1, 1]], "b": [1], "u": [1, 1], "B": [[1, 1]]},
    ],
    "b0": [1],
    "costs": [SQ, SQ],
}

IIOP_NO = {
    "D": [[1, 1]],
    "d": [2],
    "u": [2, 2],
    "xstar": [1, 1],
    "shapes": [{"kind": "quadratic", "a": "1", "b": "-4", "c": "4"}, SQ],
}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    return code, report


def test_graver_command(tmp_path, capsys):
    inp = write(tmp_path, "mat.json", {"D": [[1, 1, 1]]})
    out = str(tmp_path / "basis.json")
    code, report = run(capsys, ["graver", "--input", inp, "--output", out])
    assert code == 0
    assert report["status"] == "ok"
    assert report["counters"]["graver_size"] == 6
    payload = json.loads(Path(out).read_text())
    assert len(payload["elements"]) == 6
    assert report["result"] == payload


def test_nfold_variants(tmp_path, capsys):
    spec = {"A": [[1, 1]], "B": [[1, 0]], "N": 2}
    inp = write(tmp_path, "spec.json", spec)
    code, report = run(capsys, ["nfold", "--input", inp])
    assert code == 0
    assert report["result"]["rows"] == 5 and report["result"]["cols"] == 7
    inp2 = write(tmp_path, "spec2.json", dict(spec, variant="plain"))
    code, report = run(capsys, ["nfold", "--input", inp2])
    assert (report["result"]["rows"], report["result"]["cols"]) == (3, 4)
    inp3 = write(tmp_path, "spec3.json", dict(spec, variant="c"))
    code, report = run(capsys, ["nfold", "--input", inp3])
    assert (report["result"]["rows"], report["result"]["cols"]) == (5, 10)


def test_solve_command(tmp_path, capsys):
    inst = {"D": [[1, 1, 1]], "d": [3], "u": [3, 3, 3], "objective": [SQ, SQ, SQ]}
    inp = write(tmp_path, "ip.json", inst)
    code, report = run(capsys, ["solve", "--input", inp])
    assert code == 0
    assert report["result"]["x"] == [1, 1, 1]
    assert report["result"]["objective"] == "3"


def test_solve_infeasible_exit_code(tmp_path, capsys):
    inst = {"D": [[1, 1]], "d": [3], "u": [1, 1], "objective": [SQ, SQ]}
    inp = write(tmp_path, "bad.json", inst)
    code, report = run(capsys, ["solve", "--input", inp])
    assert code == 1
    assert report["status"] == "infeasible"


def test_equilibrium_and_verify(tmp_path, capsys):
    inp = write(tmp_path, "game.json", GAME)
    code, report = run(capsys, ["equilibrium", "--input", inp])
    assert code == 0
    assert sorted(report["result"]["usage"]) == [1, 1]
    assert report["result"]["provider_cost"] == "2"

    check = write(
        tmp_path,
        "check.json",
        {"game": GAME, "profile": {"strategies": report["result"]["strategies"]}},
    )
    code, report = run(capsys, ["verify-equilibrium", "--input", check])
    assert code == 0
    assert report["result"]["is_equilibrium"] is True

    bad = write(
        tmp_path,
        "bad.json",
        {"game": GAME, "profile": {"strategies": [[1, 0], [1, 0]]}},
    )
    code, report = run(capsys, ["verify-equilibrium", "--input", bad])
    assert code == 1
    assert report["result"]["is_equilibrium"] is False


def test_best_response_command(tmp_path, capsys):
    inp = write(
        tmp_path,
        "br.json",
        {"game": GAME, "profile": {"strategies": [[1, 0], [1, 0]]}, "player": 0},
    )
    code, report = run(capsys, ["best-response", "--input", inp])
    assert code == 0
    assert report["result"]["strategy"] == [0, 1]


@pytest.mark.parametrize("player", [-1, 5])
def test_best_response_player_out_of_range(tmp_path, capsys, player):
    inp = write(
        tmp_path,
        "br.json",
        {"game": GAME, "profile": {"strategies": [[1, 0], [1, 0]]}, "player": player},
    )
    code, report = run(capsys, ["best-response", "--input", inp, "--quiet"])
    assert code == 2
    assert report["status"] == "input-error"


def test_inverse_no_and_verify(tmp_path, capsys):
    inp = write(tmp_path, "iiop.json", IIOP_NO)
    code, report = run(capsys, ["inverse", "--input", inp])
    assert code == 1
    assert report["status"] == "no"
    assert "certificate" in report["result"]

    check = write(
        tmp_path, "vr.json", {"instance": IIOP_NO, "answer": report["result"]}
    )
    code, report = run(capsys, ["verify-inverse", "--input", check])
    assert code == 0
    assert report["result"]["valid"] is True


@pytest.mark.parametrize(
    "command, data, status, counters",
    [
        ("inverse", IIOP_NO, "no", {"graver_size": 2, "feasible_shifts": 2}),
        (
            "solve",
            {"D": [[1, 1]], "d": [3], "u": [1, 1], "objective": [SQ, SQ]},
            "infeasible",
            {"graver_size": 2, "augmentation_count": 0},
        ),
        (
            "verify-inverse",
            {"instance": IIOP_NO, "answer": {"verdict": "yes", "lambda": ["1", "1"]}},
            "invalid",
            {},
        ),
        (
            "verify-equilibrium",
            {"game": GAME, "profile": {"strategies": [[1, 0], [1, 0]]}},
            "not-equilibrium",
            {},
        ),
        (
            "verify-equilibrium",
            {"game": GAME, "profile": {"strategies": [[1, 1], [1, 0]]}},
            "not-equilibrium",
            {},
        ),
        # an empty feasible set, raised as InfeasibleError inside the handler
        ("equilibrium", CROWDED, "infeasible", {}),
        (
            "best-response",
            {"game": CROWDED, "profile": {"strategies": [[1, 0], [0, 1]]}, "player": 0},
            "infeasible",
            {},
        ),
        (
            "oracle",
            {"op": "ip", "instance": {"D": [[2]], "d": [3], "u": [3], "objective": [SQ]}},
            "infeasible",
            {},
        ),
        # one strategy for a two-player game
        (
            "verify-equilibrium",
            {"game": GAME, "profile": {"strategies": [[1, 0]]}},
            "not-equilibrium",
            {},
        ),
        # a rival's strategy breaks its own system A x = b
        (
            "best-response",
            {"game": GAME, "profile": {"strategies": [[1, 0], [1, 1]]}, "player": 0},
            "infeasible",
            {},
        ),
    ],
)
def test_negative_outcome_reports_its_timing_and_counters(
    tmp_path, capsys, command, data, status, counters
):
    inp = write(tmp_path, "in.json", data)
    code, report = run(capsys, [command, "--input", inp])
    assert code == 1
    assert report["status"] == status
    assert report["counters"] == counters
    assert report["timings_ms"]["run"] >= 0


def test_inverse_yes(tmp_path, capsys):
    yes = dict(IIOP_NO, shapes=[SQ, SQ])
    inp = write(tmp_path, "yes.json", yes)
    code, report = run(capsys, ["inverse", "--input", inp])
    assert code == 0
    assert report["status"] == "ok"
    lam = report["result"]["lambda"]
    assert len(lam) == 2


def test_inverse_instance_without_variables_is_an_input_error(tmp_path, capsys):
    empty = {"D": {"rows": 1, "cols": 0, "entries": [[]]}, "d": [0], "u": [], "xstar": [], "shapes": []}
    inp = write(tmp_path, "empty.json", empty)
    code, report = run(capsys, ["inverse", "--input", inp])
    assert code == 2 and report["status"] == "input-error"
    check = write(tmp_path, "ve.json", {"instance": empty, "answer": {"verdict": "yes", "lambda": []}})
    code, report = run(capsys, ["verify-inverse", "--input", check])
    assert code == 2 and report["status"] == "input-error"


def test_oracle_ops(tmp_path, capsys):
    inp = write(tmp_path, "og.json", {"op": "graver", "D": [[1, 1]], "bound": 2})
    code, report = run(capsys, ["oracle", "--input", inp])
    assert code == 0
    assert report["counters"]["graver_size"] == 2

    ip = write(
        tmp_path,
        "oi.json",
        {
            "op": "ip",
            "instance": {"D": [[1, 1]], "d": [2], "u": [2, 2], "objective": [SQ, SQ]},
        },
    )
    code, report = run(capsys, ["oracle", "--input", ip])
    assert code == 0
    assert report["result"]["value"] == "2"
    assert report["result"]["argmins"] == [[1, 1]]

    nash = write(tmp_path, "on.json", {"op": "nash", "game": GAME})
    code, report = run(capsys, ["oracle", "--input", nash])
    assert code == 0
    assert report["result"]["feasible_count"] == 4


def test_oracle_graver_check_certifies_a_graver_payload(tmp_path, capsys):
    """A `graver` payload passes; with an element dropped it is invalid (exit 1)."""
    inp = write(tmp_path, "d.json", {"D": [[1, 1, 1], [0, 1, 2]]})
    out = tmp_path / "basis.json"
    code, _ = run(capsys, ["graver", "--input", inp, "--output", str(out)])
    assert code == 0
    basis = json.loads(out.read_text())
    check = {"op": "graver-check", "D": basis["matrix"], "elements": basis["elements"]}
    code, report = run(capsys, ["oracle", "--input", write(tmp_path, "c.json", check)])
    assert (code, report["status"], report["result"]) == (0, "ok", {"valid": True})
    assert report["counters"]["graver_size"] == len(basis["elements"])
    dropped = dict(check, elements=basis["elements"][1:])
    code, report = run(capsys, ["oracle", "--input", write(tmp_path, "x.json", dropped)])
    assert (code, report["status"], report["result"]) == (1, "invalid", {"valid": False})
    # an element of the wrong width is an input error; a cap below the pair count fails closed
    short = dict(check, elements=[[1, -1]])
    code, report = run(capsys, ["oracle", "--input", write(tmp_path, "s.json", short), "--quiet"])
    assert (code, report["status"]) == (2, "input-error")
    capped = write(tmp_path, "k.json", check)
    code, report = run(capsys, ["oracle", "--input", capped, "--cap", "1", "--quiet"])
    assert (code, report["status"]) == (3, "cap-exceeded")


def test_input_error_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    code, report = run(capsys, ["graver", "--input", missing, "--quiet"])
    assert code == 2
    assert report["status"] == "input-error"

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, report = run(capsys, ["graver", "--input", str(garbled), "--quiet"])
    assert code == 2

    wrong = write(tmp_path, "wrong.json", {"unexpected": 1})
    code, report = run(capsys, ["graver", "--input", wrong, "--quiet"])
    assert code == 2


@pytest.mark.parametrize(
    "text",
    [
        # an integer past Python's int-to-string digit limit of 4300
        b'{"D": [[1, -1]], "d": [0], "u": [' + b"9" * 5000 + b', 5], "xstar": [0, 0], "shapes": []}',
        # nesting past the recursion limit
        b'{"D": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        # a byte that is not UTF-8
        b'{"D": [[1, 1]], "note": "\xff"}',
        # rationals whose numerator or denominator passes the digit limit,
        # refused before the power of ten is built
        *(
            b'{"D": [[1, -1]], "d": [0], "u": [5, 5], "xstar": [0, 0], "shapes": '
            b'[{"kind": "affine", "a": "' + a + b'", "b": "0"}, {"kind": "affine", "a": "1", "b": "0"}]}'
            for a in (b"1e5000", b"1e10000000", b"1e-10000000", b"9" * 3000 + b"." + b"9" * 3000)
        ),
    ],
    ids=[
        "5000-digit-int", "nested-100000-deep", "not-utf-8", "exponent-past-the-digit-limit",
        "10-byte-exponent", "10-byte-negative-exponent", "6000-digit-decimal",
    ],
)
def test_json_text_the_decoder_refuses_is_an_input_error(tmp_path, capsys, text):
    inp = tmp_path / "bad.json"
    inp.write_bytes(text)
    out = tmp_path / "out.json"
    code, report = run(capsys, ["inverse", "--input", str(inp), "--output", str(out), "--quiet"])
    assert (code, report["status"], report["result"]) == (2, "input-error", None)
    assert not out.exists()


def test_a_zero_mantissa_with_an_exponent_past_the_digit_limit_reads_as_zero():
    """0 times any power of ten is 0, so the exponent's size refuses nothing then."""
    assert frac_from_str("0e99999999") == 0


def test_removed_seed_flag_and_random_graver_op_are_usage_errors(tmp_path, capsys):
    inp = write(tmp_path, "or.json", {"op": "random-graver", "rows": 1, "cols": 2})
    assert main(["oracle", "--input", inp, "--seed", "5", "--quiet"]) == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    code, report = run(capsys, ["oracle", "--input", inp, "--quiet"])
    assert (code, report["status"]) == (2, "input-error")


TYPE = {"A": [[1, 1]], "B": [[1, 0]]}

PLAYER = GAME["players"][0]


def game(*players):
    return dict(GAME, players=list(players))


def ip(objective, D=((1, 1),), d=(2,), u=(2, 2)):
    return {"D": [list(r) for r in D], "d": list(d), "u": list(u), "objective": objective}


def quadratic(a, b, c):
    return {"kind": "quadratic", "a": str(a), "b": str(b), "c": str(c)}


def piecewise(**fields):
    """A piecewise-linear cost spec, by default slopes 1, 2, 3 changing at 1 and 2."""
    spec = {"kind": "piecewise_linear", "breakpoints": [1, 2], "slopes": ["1", "2", "3"], "c0": "0"}
    return dict(spec, **fields)


@pytest.mark.parametrize(
    "command, data",
    [
        ("nfold", {"A": [[1, 1]], "B": [[1, 0]], "N": "x"}),
        ("graver", [1, 2]),
        ("solve", {"D": [[1, 1, 1]], "d": [3], "u": [2.5, True, 3], "objective": [SQ] * 3}),
        # a nested value of the wrong JSON type
        ("solve", ip(5)),
        ("equilibrium", dict(GAME, players=[1])),
        ("verify-inverse", {"instance": IIOP_NO, "answer": {"verdict": "yes", "lambda": 5}}),
        ("solve", ip([piecewise(breakpoints=[1], slopes="12"), SQ])),
        ("verify-inverse", {"instance": IIOP_NO, "answer": {"verdict": 5}}),
        ("nfold", {"A": [[1, 1]], "B": [[1, 0]], "N": 2, "variant": []}),
        ("verify-inverse", {"instance": IIOP_NO, "answer": {"verdict": "maybe"}}),
        ("nfold", {"types": [TYPE], "assignment": [0, 1]}),
        ("nfold", {"types": [TYPE], "assignment": []}),
        ("nfold", {"types": [TYPE], "assignment": [-1]}),
        # a malformed type that no player uses
        ("nfold", {"types": [TYPE, {"A": [[1, 1, 1]], "B": [[1, 0]]}], "assignment": [0, 0]}),
        # a catalog of types builds the equilibrium matrix only
        ("nfold", {"types": [TYPE], "assignment": [0, 0], "variant": "bogus"}),
        ("nfold", {"types": [TYPE], "assignment": [0, 0], "variant": "plain"}),
        # a declared row count the entries do not have
        ("graver", {"D": {"rows": 5, "cols": 2, "entries": [[1, 1]]}}),
        # an op that is not the oracle's, and an oracle input without an op
        ("oracle", {"op": "random-graver", "rows": 1, "cols": 2}),
        ("oracle", {"D": [[1, 1]], "bound": 2}),
        ("oracle", {"op": "graver", "D": [[1, 1]], "bound": -1}),
        # PlayerSpec: A/B widths, b length, u length, a negative bound
        ("equilibrium", game(PLAYER, dict(PLAYER, B=[[0, 0, 0]]))),
        ("equilibrium", game(PLAYER, dict(PLAYER, b=[1, 1]))),
        ("equilibrium", game(PLAYER, dict(PLAYER, u=[1]))),
        ("equilibrium", game(PLAYER, dict(PLAYER, u=[1, -1]))),
        # GameInstance: no players, different n, different m, b0 length, cost count
        ("equilibrium", game()),
        ("equilibrium", game(PLAYER, {"A": [[1, 1, 1]], "b": [1], "u": [1, 1, 1], "B": [[0, 0, 0]]})),
        ("equilibrium", game(PLAYER, dict(PLAYER, B=[[0, 0], [0, 0]]))),
        ("equilibrium", dict(GAME, b0=[0, 0])),
        ("equilibrium", dict(GAME, costs=[SQ])),
        # IpInstance: d, u and objective lengths, a negative bound
        ("solve", ip([SQ, SQ], d=(2, 2))),
        ("solve", ip([SQ, SQ], u=(2,))),
        ("solve", ip([SQ])),
        ("solve", ip([SQ, SQ], u=(2, -1))),
        # NfoldSpec: A/B widths, N = 0
        ("nfold", {"A": [[1, 1]], "B": [[1, 0, 0]], "N": 2}),
        ("nfold", {"A": [[1, 1]], "B": [[1, 0]], "N": 0}),
        # build_multitype_matrix: no types, B row counts that differ
        ("nfold", {"types": [], "assignment": [0]}),
        ("nfold", {"types": [TYPE, {"A": [[1, 1]], "B": [[1, 0], [0, 1]]}], "assignment": [0, 1]}),
        # dict matrix: a negative row count, ragged entries
        ("graver", {"D": {"rows": -1, "cols": 2, "entries": []}}),
        ("graver", {"D": {"rows": 2, "cols": 2, "entries": [[1, 1], [1]]}}),
    ],
)
def test_malformed_input_is_one_json_report(tmp_path, capsys, command, data):
    inp = write(tmp_path, "bad.json", data)
    code = main([command, "--input", inp, "--quiet"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    assert len(lines) == 1
    assert json.loads(lines[0])["status"] == "input-error"


def bad_cost_inputs():
    """A concave and an empty piecewise cost in every other command that decodes costs.

    Each cost refuses its parameters as the decoder builds it.
    """
    profile = {"strategies": [[1, 0], [0, 1]]}
    for name, cost in [("concave", quadratic(-1, 0, 0)), ("empty", piecewise(breakpoints=[], slopes=[]))]:
        bad = dict(GAME, costs=[cost, SQ])
        inverse = {"instance": dict(IIOP_NO, shapes=[cost, SQ]), "answer": {"verdict": "no"}}
        yield from (
            pytest.param("equilibrium", bad, id=f"equilibrium-{name}"),
            pytest.param("best-response", {"game": bad, "profile": profile, "player": 0}, id=f"best-response-{name}"),
            pytest.param("verify-equilibrium", {"game": bad, "profile": profile}, id=f"verify-equilibrium-{name}"),
            pytest.param("verify-inverse", inverse, id=f"verify-inverse-{name}"),
            pytest.param("oracle", {"op": "ip", "instance": ip([cost, SQ])}, id=f"oracle-ip-{name}"),
            pytest.param("oracle", {"op": "nash", "game": bad}, id=f"oracle-nash-{name}"),
        )


@pytest.mark.parametrize(
    "command, data",
    [
        # brute_ip_opt gives -12 here, while augmentation stops at -9
        pytest.param(
            "solve",
            ip(
                [quadratic(-1, 0, 0), quadratic(-2, 0, 0), quadratic(-2, 3, 0)],
                D=((2, 1, 1),),
                d=(6,),
                u=(3, 1, 3),
            ),
            id="negative-quadratics",
        ),
        pytest.param("solve", ip([{"kind": "power", "a": "1", "k": -1}, SQ]), id="power-k-negative"),
        pytest.param("solve", ip([piecewise(breakpoints=[], slopes=[]), SQ]), id="piecewise-empty"),
        pytest.param("solve", ip([piecewise(slopes=["1"]), SQ]), id="piecewise-short"),
        pytest.param("inverse", dict(IIOP_NO, shapes=[quadratic(-1, 0, 0), SQ]), id="inverse"),
        *bad_cost_inputs(),
    ],
)
def test_nonconvex_or_malformed_cost_is_input_error(tmp_path, capsys, command, data):
    inp = write(tmp_path, "bad.json", data)
    code, report = run(capsys, [command, "--input", inp, "--quiet"])
    assert code == 2
    assert report["status"] == "input-error"


def test_convex_but_not_monotone_cost_is_solved(tmp_path, capsys):
    inst = ip([quadratic(1, -4, 4), SQ], d=(4,), u=(4, 4))
    code, report = run(capsys, ["solve", "--input", write(tmp_path, "ip.json", inst)])
    assert code == 0
    assert report["result"] == {"status": "optimal", "x": [3, 1], "objective": "2"}


def test_cap_exit_code(tmp_path, capsys):
    inp = write(tmp_path, "mat.json", {"D": [[1, 1, 1], [0, 1, 2]]})
    code, report = run(capsys, ["graver", "--input", inp, "--cap", "1", "--quiet"])
    assert code == 3
    assert report["status"] == "cap-exceeded"


def test_a_wide_solve_exits_3_before_its_reduction(tmp_path, capsys, monkeypatch):
    """2 (ncols - nrows) = 6 passes --cap 5: `solve` refuses as `graver` does, before reducing."""

    def reduced(mat):
        raise AssertionError("the Hermite reduction ran")

    monkeypatch.setattr(gravernash.solver, "kernel_lattice_basis", reduced)
    wide = {"D": {"rows": 0, "cols": 3, "entries": []}, "d": [], "u": [1, 1, 1], "objective": [SQ] * 3}
    code, report = run(capsys, ["solve", "--input", write(tmp_path, "ip.json", wide), "--cap", "5", "--quiet"])
    assert (code, report["status"]) == (3, "cap-exceeded")


SRC = Path(__file__).resolve().parents[1] / "src"


def test_the_module_runs_as_a_process(tmp_path):
    """`python -m gravernash.cli` exits with main's code and prints one JSON report."""
    flags = ["-O"] * sys.flags.optimize + ["-X", "dev"] * sys.flags.dev_mode
    matrix = write(tmp_path, "mat.json", {"D": [[1, 1, 1]]})
    infeasible = write(tmp_path, "ip.json", {"D": [[2]], "d": [1], "u": [1], "objective": [SQ]})
    for argv, code, status in (
        (["graver", "--input", matrix], 0, "ok"),
        (["solve", "--input", infeasible], 1, "infeasible"),
        (["graver", "--input", str(tmp_path / "missing.json")], 2, "input-error"),
        (["graver", "--input", matrix, "--cap", "1"], 3, "cap-exceeded"),
    ):
        done = subprocess.run(
            [sys.executable, *flags, "-m", "gravernash.cli", *argv, "--quiet"],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        lines = done.stdout.splitlines()
        assert (done.returncode, len(lines), json.loads(lines[0])["status"]) == (code, 1, status)


# the widest variant, c, of N = 500 pairs (A, B) = ([1 1], [1 0]) could have
# (2 + 1 + 500) * (500 * 5 + 3) = 1,259,009 entries, over the default cap
NFOLD_WIDE = {"A": [[1, 1]], "B": [[1, 0]], "N": 500}


@pytest.mark.parametrize(
    "data",
    [NFOLD_WIDE, dict(NFOLD_WIDE, variant="plain"), {"types": [TYPE], "assignment": [0] * 500}],
    ids=["spec", "plain", "catalog"],
)
def test_nfold_over_its_entry_cap_fails_closed(tmp_path, capsys, data):
    out = tmp_path / "out.json"
    argv = ["nfold", "--input", write(tmp_path, "in.json", data), "--output", str(out), "--quiet"]
    code, report = run(capsys, argv)
    assert (code, report["status"], report["result"]) == (3, "cap-exceeded", None)
    assert not out.exists()


def test_cap_moves_the_nfold_entry_cap_both_ways(tmp_path, capsys):
    # N = 2: at most (2 + 1 + 2) * (2 * 5 + 3) = 65 entries
    small = write(tmp_path, "small.json", {"A": [[1, 1]], "B": [[1, 0]], "N": 2, "variant": "c"})
    assert run(capsys, ["nfold", "--input", small, "--cap", "64", "--quiet"])[0] == 3
    assert run(capsys, ["nfold", "--input", small, "--cap", "65"])[0] == 0
    wide = write(tmp_path, "wide.json", dict(NFOLD_WIDE, variant="plain"))
    code, report = run(capsys, ["nfold", "--input", wide, "--cap", "1259009"])
    assert code == 0
    assert (report["result"]["rows"], report["result"]["cols"]) == (501, 1000)


def test_nfold_of_a_billion_players_fails_closed_without_building_a_row(tmp_path, capsys, monkeypatch):
    def built(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(gravernash.nfold, "_diagonal_rows", built)
    monkeypatch.setattr(gravernash.nfold, "_linking_rows", built)
    inp = write(tmp_path, "in.json", dict(NFOLD_WIDE, N=10**9, variant="c"))
    start = time.perf_counter()
    code, report = run(capsys, ["nfold", "--input", inp, "--quiet"])
    assert time.perf_counter() - start < 1
    assert (code, report["status"]) == (3, "cap-exceeded")


def test_huge_power_exponent_fails_closed_before_any_cost_is_evaluated(tmp_path, capsys, monkeypatch):
    """k = 10^7 would stall the exact arithmetic; the cost is refused as it is read: exit 3."""

    def evaluated(*args):
        raise AssertionError("a power cost was evaluated")

    monkeypatch.setattr(PowerCost, "value", evaluated)
    monkeypatch.setattr(PowerCost, "times", evaluated)
    huge = {"kind": "power", "a": "1", "k": 10**7}
    inst = {"D": [[1, -1]], "d": [0], "u": [5, 5], "xstar": [2, 2], "shapes": [huge, huge]}
    start = time.perf_counter()
    code, report = run(capsys, ["inverse", "--input", write(tmp_path, "in.json", inst), "--quiet"])
    assert time.perf_counter() - start < 1
    assert code == 3
    assert report["status"] == "cap-exceeded" and report["result"] is None
    code, report = run(capsys, ["solve", "--input", write(tmp_path, "ip.json", ip([huge, SQ])), "--quiet"])
    assert (code, report["status"]) == (3, "cap-exceeded")


@pytest.mark.parametrize(
    "command, data",
    [
        # the certificate's coefficients have over 4600 digits
        ("inverse", {
            "D": [[1, -1]], "d": [0], "u": [10**120] * 2, "xstar": [5 * 10**119] * 2,
            "shapes": [{"kind": "power", "a": "1", "k": 40}] * 2,
        }),
        # the objective (10^120)^40 has 4801 digits
        ("solve", ip([{"kind": "power", "a": "1", "k": 40}], D=((1,),), d=(10**120,), u=(10**120,))),
        # 4000-digit entries; the one Graver element's entries are products of two
        ("graver", {"D": [[10**3999 + 1, 10**3999 + 3, 0], [0, 10**3999 + 7, 10**3999 + 9]]}),
    ],
    ids=["inverse", "solve", "graver"],
)
def test_result_number_too_long_to_print_is_a_cap(tmp_path, capsys, command, data):
    """Past the int-to-string digit limit the run fails closed: exit 3, no result, no file."""
    out = tmp_path / "out.json"
    argv = [command, "--input", write(tmp_path, "in.json", data), "--output", str(out), "--quiet"]
    code, report = run(capsys, argv)
    assert (code, report["status"], report["result"]) == (3, "cap-exceeded", None)
    assert not out.exists()


@pytest.mark.parametrize(
    "data, cap",
    [
        # a 9100-column box of 3^9100 points: its size has over 4300 digits
        ({"op": "graver", "bound": 1, "D": {"rows": 0, "cols": 9100, "entries": []}}, []),
        # each player's box holds 4 points and 2 strategies: 8 profiles
        ({"op": "nash", "game": dict(GAME, players=GAME["players"][:1] * 3)}, ["--cap", "5"]),
    ],
    ids=["box", "profiles"],
)
def test_oracle_over_its_cap_fails_closed_without_the_whole_count(tmp_path, capsys, data, cap):
    inp = write(tmp_path, "in.json", data)
    code, report = run(capsys, ["oracle", "--input", inp, "--quiet", *cap])
    assert (code, report["status"], report["result"]) == (3, "cap-exceeded", None)


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_is_an_input_error(tmp_path, capsys, where):
    """An --output path that cannot be opened: one report, exit 2, a diagnostic, no traceback."""
    out = tmp_path / "missing" / "out.json" if where == "missing-directory" else tmp_path
    inp = write(tmp_path, "mat.json", {"D": [[1, 1, 1]]})
    code = main(["graver", "--input", inp, "--output", str(out)])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert (code, report["status"], report["result"]) == (2, "input-error", None)
    assert "cannot write output" in captured.err


@pytest.mark.parametrize("cap, code", [("-5", 2), ("0", 3)])
def test_negative_cap_is_a_usage_error(tmp_path, capsys, cap, code):
    inp = write(tmp_path, "mat.json", {"D": [[1, 1]]})
    assert main(["graver", "--input", inp, "--cap", cap, "--quiet"]) == code
    err = capsys.readouterr().err
    assert ("must be nonnegative" in err) == (code == 2)


def test_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["graver"]) == 2
    capsys.readouterr()


def test_unknown_command_is_usage_error(tmp_path, capsys):
    inp = write(tmp_path, "mat.json", {"D": [[1, 1]]})
    assert main(["gravr", "--input", inp]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_main_builds_no_parser(tmp_path, capsys, monkeypatch):
    """The parser built at import serves every main call, including one that fails to parse."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    inp = write(tmp_path, "mat.json", {"D": [[1, 1]]})
    assert main(["graver", "--input", inp, "--quiet"]) == 0
    assert main(["gravr", "--input", inp]) == 2
    capsys.readouterr()
    assert built == []


def test_payload_bytes_deterministic(tmp_path, capsys):
    inp = write(tmp_path, "mat.json", {"D": [[1, 1, 1]]})
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    main(["graver", "--input", inp, "--output", out1])
    capsys.readouterr()
    main(["graver", "--input", inp, "--output", out2])
    capsys.readouterr()
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_oracle_without_cap_keeps_its_point_cap(tmp_path, capsys):
    # 100001 box points: above the Graver element cap, below the oracle's point cap
    data = {"op": "ip", "instance": ip([SQ], D=((1,),), d=(7,), u=(100_000,))}
    inp = write(tmp_path, "ip.json", data)
    code, report = run(capsys, ["oracle", "--input", inp])
    assert code == 0
    assert report["result"] == {"value": "49", "argmins": [[7]]}


def test_explicit_cap_overrides_the_default_of_each_command(tmp_path, capsys):
    data = {"op": "ip", "instance": ip([SQ], D=((1,),), d=(7,), u=(20,))}
    inp = write(tmp_path, "ip.json", data)
    code, report = run(capsys, ["oracle", "--input", inp, "--cap", "20", "--quiet"])
    assert code == 3
    assert report["status"] == "cap-exceeded"
    code, report = run(capsys, ["oracle", "--input", inp, "--cap", "21"])
    assert code == 0
    data = ip([SQ, SQ, SQ], D=((1, 1, 1), (0, 1, 2)), d=(2, 2), u=(2, 2, 2))
    inp = write(tmp_path, "ip.json", data)
    code, report = run(capsys, ["solve", "--input", inp, "--cap", "1", "--quiet"])
    assert code == 3
    assert report["status"] == "cap-exceeded"


def test_oracle_cap_counts_the_one_point_of_a_zero_column_box(tmp_path, capsys):
    data = {"op": "ip", "instance": ip([], D=((),), d=(0,), u=())}
    inp = write(tmp_path, "ip.json", data)
    code, report = run(capsys, ["oracle", "--input", inp, "--cap", "0", "--quiet"])
    assert (code, report["status"]) == (3, "cap-exceeded")
    code, report = run(capsys, ["oracle", "--input", inp, "--cap", "1"])
    assert code == 0
    assert report["result"] == {"value": "0", "argmins": [[]]}


# One valid input per subcommand and oracle op; the fuzz test breaks them.
PROFILE = {"strategies": [[1, 0], [0, 1]]}
NO_ANSWER = {"certificate": [["0", [-1, 1]], ["1", [1, -1]]], "verdict": "no"}
FUZZ_TEMPLATES = [
    ("graver", {"D": [[1, 1, 1]]}),
    ("nfold", {"A": [[1, 1]], "B": [[1, 0]], "N": 2, "variant": "c"}),
    ("nfold", {"types": [{"A": [[1, 1]], "B": [[1, 0]]}], "assignment": [0, 0]}),
    ("solve", ip([SQ, piecewise(breakpoints=[1], slopes=["1", "2"])])),
    ("equilibrium", GAME),
    ("verify-equilibrium", {"game": GAME, "profile": PROFILE}),
    ("best-response", {"game": GAME, "profile": PROFILE, "player": 0}),
    ("inverse", IIOP_NO),
    ("verify-inverse", {"instance": IIOP_NO, "answer": NO_ANSWER}),
    ("verify-inverse", {"instance": IIOP_NO, "answer": {"verdict": "yes", "lambda": ["1", "2"]}}),
    ("oracle", {"op": "graver", "D": [[1, 1]], "bound": 2}),
    ("oracle", {"op": "ip", "instance": ip([SQ, SQ])}),
    ("oracle", {"op": "nash", "game": GAME}),
]
# small integers keep every run cheap: no large N, box or bound
JSON_LEAVES = st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from(
    [0.5, -1.0, "", "0", "1", "-2", "1/2", "1/0", "x", "yes", "no", "affine", "power"]
)
JSON_KEYS = st.sampled_from(["A", "B", "D", "N", "a", "b", "k", "kind", "u", "verdict", "op"])
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(JSON_KEYS, kids, max_size=3),
    max_leaves=8,
)


def json_slots(value):
    """(container, key) for every nested value, outermost first."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield value, key
        yield from json_slots(child)


@st.composite
def fuzzed_inputs(draw):
    """A subcommand's valid input with up to two nested values replaced or
    deleted, or, one time in ten, an arbitrary JSON value."""
    command, template = draw(st.sampled_from(FUZZ_TEMPLATES))
    if draw(st.integers(0, 9)) == 0:
        return command, draw(JSON_VALUES)
    data = copy.deepcopy(template)
    for _ in range(draw(st.integers(0, 2))):
        slots = list(json_slots(data))
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(JSON_VALUES)
    return command, data


@settings(max_examples=120, deadline=None, derandomize=True)
@given(fuzzed_inputs(), st.sampled_from([[], ["--cap", "100"]]))
def test_fuzzed_input_gives_one_report_and_a_known_exit_code(tmp_path_factory, case, cap):
    command, data = case
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(data))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, "--input", str(path), "--quiet", *cap])
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    assert isinstance(json.loads(lines[0]), dict)
    assert code in (0, 1, 2, 3)


@pytest.fixture
def basis_cache():
    """The CLI's cache of Graver bases, empty at the start of the test and at its end."""
    gravernash.cli._graver_basis.cache_clear()
    yield gravernash.cli._graver_basis
    gravernash.cli._graver_basis.cache_clear()


def fresh_kept(mat: IntMatrix) -> int:
    """The number of records a fresh completion of `mat` keeps."""
    return len(_complete(mat, kernel_lattice_basis(mat), DEFAULT_ELEMENT_CAP)[0])


def fresh_basis(mat: IntMatrix, cap: int = DEFAULT_ELEMENT_CAP) -> GraverBasis:
    return _basis_from_lattice(mat, kernel_lattice_basis(mat), cap)


def test_repeated_main_calls_complete_a_matrix_once_per_cap(tmp_path, capsys, basis_cache, monkeypatch):
    """Each completion goes through the module's `graver_basis` name, once per matrix and cap."""
    completions = []

    def counted(mat, **caps):
        completions.append(caps)
        return gravernash.graver.graver_basis(mat, **caps)

    monkeypatch.setattr(gravernash.cli, "graver_basis", counted)
    src = write(tmp_path, "m.json", {"D": [[1, 1, 1]]})
    reports = [run(capsys, ["graver", "--input", src, *cap]) for cap in ([], [], ["--cap", "9"], [])]
    assert [code for code, _ in reports] == [0] * 4
    assert all(report["result"] == reports[0][1]["result"] for _, report in reports)
    assert completions == [{}, {"cap": 9}]


def test_cap_verdicts_do_not_depend_on_earlier_calls(basis_cache, monkeypatch):
    """cap = k - 1 raises and cap = k returns, k the records a fresh completion keeps, in either order."""
    completions = []
    real = gravernash.graver._basis_from_lattice

    def counted(mat, lattice, cap):
        completions.append(cap)
        return real(mat, lattice, cap)

    monkeypatch.setattr(gravernash.graver, "_basis_from_lattice", counted)
    nash = build_nash_matrix(NfoldSpec(IntMatrix.from_rows([[1, 1]]), IntMatrix.from_rows([[1, 0]]), 3))
    # the completion of the 2 x 5 matrix keeps 66 records for 62 elements,
    # so a cap of |G| passes a fresh completion's cap
    wide = IntMatrix.from_rows([[-2, 3, -1, -1, 3], [0, -1, -2, 3, 3]])
    assert fresh_kept(wide) > len(fresh_basis(wide))
    for mat in (IntMatrix.from_rows([[1, 2, 3]]), nash, wide):
        k = fresh_kept(mat)
        want = fresh_basis(mat)
        # the completion's own cap decides, not the 2 (ncols - nrows) refusal
        assert 2 * (mat.ncols - mat.nrows) < k - 1
        # the caps asked, in order, and the ones that complete: a refused
        # completion is not kept, a returned one is, per cap
        cap = DEFAULT_ELEMENT_CAP
        for asked, completed in (
            ([k - 1, k, k - 1, k, cap], [k - 1, k, k - 1, cap]),
            ([cap, k - 1, k, k - 1, k, cap], [cap, k - 1, k, k - 1]),
        ):
            basis_cache.cache_clear()
            completions.clear()
            for c in asked:
                if c < k:
                    with pytest.raises(ResourceCapExceeded, match="Graver completion exceeded"):
                        basis_cache(mat, cap=c)
                else:
                    assert basis_cache(mat, cap=c) == want
            assert completions == completed


def test_interleaved_calls_answer_as_fresh_completions(basis_cache):
    """Repeated matrices under mixed caps: every basis and every verdict is a fresh completion's."""
    rng = random.Random(22)
    pool = [rand_matrix(rng, rng.randint(1, 2), rng.randint(2, 5), -2, 2) for _ in range(8)]
    kept = {mat: fresh_kept(mat) for mat in pool}
    raised = returned = 0
    for _ in range(300):
        mat = rng.choice(pool)
        cap = rng.choice(
            [DEFAULT_ELEMENT_CAP, kept[mat], max(0, kept[mat] - 1), rng.randint(0, 2 * kept[mat])]
        )
        try:
            want = fresh_basis(mat, cap)
        except ResourceCapExceeded:
            with pytest.raises(ResourceCapExceeded):
                basis_cache(mat, cap=cap)
            raised += 1
        else:
            assert basis_cache(mat, cap=cap) == want == fresh_basis(mat)
            returned += 1
    assert raised > 50 and returned > 50, (raised, returned)
    assert basis_cache.cache_info().hits > 100
