import contextlib
import copy
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravernash.cli import main

SQ = {"kind": "quadratic", "a": "1", "b": "0", "c": "0"}

GAME = {
    "players": [
        {"A": [[1, 1]], "b": [1], "u": [1, 1], "B": [[0, 0]]},
        {"A": [[1, 1]], "b": [1], "u": [1, 1], "B": [[0, 0]]},
    ],
    "b0": [0],
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

    seeded = write(tmp_path, "or.json", {"op": "random-graver", "rows": 1, "cols": 2})
    code, first = run(capsys, ["oracle", "--input", seeded, "--seed", "5"])
    code, second = run(capsys, ["oracle", "--input", seeded, "--seed", "5"])
    assert first["result"] == second["result"]


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
    ],
)
def test_malformed_input_is_one_json_report(tmp_path, capsys, command, data):
    inp = write(tmp_path, "bad.json", data)
    code = main([command, "--input", inp, "--quiet"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    assert len(lines) == 1
    assert json.loads(lines[0])["status"] == "input-error"


@pytest.mark.parametrize(
    "command, data",
    [
        # brute_ip_opt gives -12 here, while augmentation stops at -9
        (
            "solve",
            ip(
                [quadratic(-1, 0, 0), quadratic(-2, 0, 0), quadratic(-2, 3, 0)],
                D=((2, 1, 1),),
                d=(6,),
                u=(3, 1, 3),
            ),
        ),
        ("solve", ip([{"kind": "power", "a": "1", "k": -1}, SQ])),
        ("solve", ip([piecewise(breakpoints=[], slopes=[]), SQ])),
        ("solve", ip([piecewise(slopes=["1"]), SQ])),
        ("inverse", dict(IIOP_NO, shapes=[quadratic(-1, 0, 0), SQ])),
    ],
    ids=["negative-quadratics", "power-k-negative", "piecewise-empty", "piecewise-short", "inverse"],
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


def test_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["graver"]) == 2
    capsys.readouterr()


def test_unknown_command_is_usage_error(tmp_path, capsys):
    inp = write(tmp_path, "mat.json", {"D": [[1, 1]]})
    assert main(["gravr", "--input", inp]) == 2
    assert "invalid choice" in capsys.readouterr().err


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
    ("oracle", {"op": "random-graver", "rows": 1, "cols": 2}),
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
