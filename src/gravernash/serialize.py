"""JSON decoding of the CLI's inputs and encoding of its payloads.

Rationals travel as strings "p/q" (or "p") so that no precision is ever
lost to JSON numbers.  Serialization is deterministic: keys are sorted
and collections keep their canonical order.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import Any

from .costs import (
    AffineCost,
    PiecewiseLinearCost,
    PowerCost,
    QuadraticCost,
    SeparableObjective,
    UnivariateCost,
)
from .errors import ResourceCapExceeded, ValidationError
from .game import GameInstance, PlayerSpec, StrategyProfile
from .graver import GraverBasis
from .inverse import IiopAnswer, IiopInstance
from .linalg import IntMatrix, IntVec, RatVec
from .nfold import NfoldSpec
from .solver import IpInstance


def frac_to_str(x: Fraction) -> str:
    x = Fraction(x)
    try:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    except ValueError as exc:  # past the interpreter's int-to-string digit limit
        raise ResourceCapExceeded(f"a result number is too long to print: {exc}") from exc


# the exponent of a rational's text, as `Fraction(str)` reads it
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def frac_from_str(s: Any) -> Fraction:
    """A JSON int, or a string that `Fraction` reads.

    Like `int()`, it refuses a number of more digits than the interpreter's
    limit, whether in the numerator or in the denominator.
    """
    if isinstance(s, bool):
        raise ValidationError(f"not a rational: {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        try:
            # plain ASCII integers, most of the input, skip Fraction's regex;
            # int() raises ValueError past the interpreter's digit limit
            if s.isascii() and (s.isdigit() or (s[:1] == "-" and s[1:].isdigit())):
                return Fraction(int(s))
            limit = sys.get_int_max_str_digits()
            exponent = _EXPONENT.search(s)
            # an exponent past limit + len(s) is too long unless its mantissa
            # is 0; it is decided before Fraction builds its power of ten
            if limit and exponent and abs(int(exponent[1])) > limit + len(s):
                if Fraction(s[: exponent.start(1)] + "0" + s[exponent.end(1) :]):
                    raise ValueError(f"more than {limit} digits")
                return Fraction(0)
            x = Fraction(s)
            str(x.numerator), str(x.denominator)  # ValueError past the limit
            return x
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"not a rational: {s!r}") from exc
    raise ValidationError(f"not a rational: {s!r}")


def _object(obj: Any, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object: {obj!r}")
    return obj


def _list(obj: Any, what: str) -> list:
    if not isinstance(obj, list):
        raise ValidationError(f"{what} must be a JSON list: {obj!r}")
    return obj


def int_from_json(x: Any) -> int:
    """An integer field: a JSON integer or an integral string, nothing else."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str):
        try:
            return int(x)
        except ValueError as exc:
            raise ValidationError(f"not an integer: {x!r}") from exc
    raise ValidationError(f"not an integer: {x!r}")


def intvec_from_json(obj: Any) -> IntVec:
    return tuple(int_from_json(x) for x in _list(obj, "an integer vector"))


def matrix_to_json(m: IntMatrix) -> dict:
    return {"rows": m.nrows, "cols": m.ncols, "entries": m.to_lists()}


def matrix_from_json(obj: Any) -> IntMatrix:
    if isinstance(obj, list):
        if not obj:
            raise ValidationError("matrix without explicit dimensions must be nonempty")
        return IntMatrix.from_rows([intvec_from_json(r) for r in obj])
    if isinstance(obj, dict):
        # IntMatrix rejects a row count or width that the entries do not have
        return IntMatrix(
            int_from_json(obj["rows"]),
            int_from_json(obj["cols"]),
            tuple(intvec_from_json(r) for r in _list(obj["entries"], "matrix entries")),
        )
    raise ValidationError("matrix must be a list of rows or a dict")


def ratvec_to_json(v: RatVec) -> list[str]:
    return [frac_to_str(x) for x in v]


def ratvec_from_json(obj: Any) -> RatVec:
    return tuple(frac_from_str(x) for x in _list(obj, "a rational vector"))


def _cost_fields(obj: dict) -> UnivariateCost:
    kind = obj["kind"]
    if kind == "affine":
        return AffineCost(frac_from_str(obj["a"]), frac_from_str(obj["b"]))
    if kind == "quadratic":
        return QuadraticCost(
            frac_from_str(obj["a"]), frac_from_str(obj["b"]), frac_from_str(obj["c"])
        )
    if kind == "power":
        return PowerCost(frac_from_str(obj["a"]), int_from_json(obj["k"]))
    if kind == "piecewise_linear":
        return PiecewiseLinearCost(
            breakpoints=intvec_from_json(obj["breakpoints"]),
            slopes=ratvec_from_json(obj["slopes"]),
            c0=frac_from_str(obj["c0"]),
        )
    raise ValidationError(f"unknown cost kind: {kind!r}")


def cost_from_json(obj: Any) -> UnivariateCost:
    """A cost function of a known kind with all its fields.

    The cost's constructor checks it: ValidationError (exit code 2) unless
    it is exact and convex, ResourceCapExceeded (exit code 3) for a power
    exponent above `costs.MAX_EXPONENT`.  A game's sign rule, `params_ok`,
    is checked by `GameInstance`.
    """
    try:
        return _cost_fields(_object(obj, "a cost"))
    except KeyError as exc:
        raise ValidationError(f"malformed cost spec: {obj!r}") from exc


def objective_from_json(obj: Any) -> SeparableObjective:
    return SeparableObjective(tuple(cost_from_json(c) for c in _list(obj, "an objective")))


def graver_to_json(basis: GraverBasis) -> dict:
    return {
        "matrix": basis.matrix.to_lists(),
        "elements": [list(g) for g in basis.elements],
    }


def nfold_spec_from_json(obj: Any) -> NfoldSpec:
    obj = _object(obj, "an N-fold spec")
    return NfoldSpec(
        A=matrix_from_json(obj["A"]),
        B=matrix_from_json(obj["B"]),
        N=int_from_json(obj["N"]),
    )


def _type_from_json(obj: Any) -> tuple[IntMatrix, IntMatrix]:
    obj = _object(obj, "a player type")
    return matrix_from_json(obj["A"]), matrix_from_json(obj["B"])


def catalog_from_json(obj: Any) -> tuple[list[tuple[IntMatrix, IntMatrix]], IntVec]:
    """The `nfold` command's (types, assignment); build_multitype_matrix checks them."""
    obj = _object(obj, "a type catalog")
    types = [_type_from_json(t) for t in _list(obj["types"], "types")]
    return types, intvec_from_json(obj["assignment"])


def ip_instance_from_json(obj: Any) -> IpInstance:
    obj = _object(obj, "an IP instance")
    return IpInstance(
        D=matrix_from_json(obj["D"]),
        d=intvec_from_json(obj["d"]),
        u=intvec_from_json(obj["u"]),
        objective=objective_from_json(obj["objective"]),
    )


def player_from_json(obj: Any) -> PlayerSpec:
    obj = _object(obj, "a player")
    return PlayerSpec(
        A=matrix_from_json(obj["A"]),
        b=intvec_from_json(obj["b"]),
        u=intvec_from_json(obj["u"]),
        B=matrix_from_json(obj["B"]),
    )


def game_from_json(obj: Any) -> GameInstance:
    obj = _object(obj, "a game")
    return GameInstance(
        players=tuple(player_from_json(p) for p in _list(obj["players"], "players")),
        b0=intvec_from_json(obj["b0"]),
        costs=objective_from_json(obj["costs"]),
    )


def profile_to_json(profile: StrategyProfile) -> dict:
    return {"strategies": [list(s) for s in profile.strategies]}


def profile_from_json(obj: Any) -> StrategyProfile:
    strategies = _list(_object(obj, "a profile")["strategies"], "strategies")
    return StrategyProfile(strategies=tuple(intvec_from_json(s) for s in strategies))


def iiop_from_json(obj: Any) -> IiopInstance:
    obj = _object(obj, "an inverse instance")
    return IiopInstance(
        D=matrix_from_json(obj["D"]),
        d=intvec_from_json(obj["d"]),
        u=intvec_from_json(obj["u"]),
        xstar=intvec_from_json(obj["xstar"]),
        shapes=objective_from_json(obj["shapes"]),
    )


def answer_to_json(answer: IiopAnswer) -> dict:
    out: dict = {"verdict": answer.verdict}
    if answer.lam is not None:
        out["lambda"] = ratvec_to_json(answer.lam)
    if answer.certificate is not None:
        out["certificate"] = [
            [frac_to_str(v), list(g)] for v, g in zip(answer.certificate, answer.shifts)
        ]
    return out


def _certificate_pair(obj: Any) -> tuple:
    pair = _list(obj, "a certificate entry")
    if len(pair) != 2:
        raise ValidationError(f"a certificate entry must be [coefficient, shift]: {obj!r}")
    return frac_from_str(pair[0]), intvec_from_json(pair[1])


def answer_from_json(obj: Any) -> IiopAnswer:
    obj = _object(obj, "an inverse answer")
    verdict = obj["verdict"]
    if verdict not in ("yes", "no"):
        raise ValidationError(f'the verdict must be "yes" or "no", not {verdict!r}')
    lam = ratvec_from_json(obj["lambda"]) if "lambda" in obj else None
    certificate = None
    shifts: tuple = ()
    if "certificate" in obj:
        pairs = [_certificate_pair(p) for p in _list(obj["certificate"], "certificate")]
        certificate = tuple(v for v, _ in pairs)
        shifts = tuple(g for _, g in pairs)
    return IiopAnswer(verdict=verdict, lam=lam, shifts=shifts, certificate=certificate)


def dumps(payload: Any) -> str:
    """Canonical JSON text: sorted keys, fixed separators."""
    try:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except ValueError as exc:  # an int past the interpreter's int-to-string digit limit
        raise ResourceCapExceeded(f"a result number is too long to print: {exc}") from exc
