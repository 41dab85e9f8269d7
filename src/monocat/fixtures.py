"""Bundled verification fixtures and their JSON serialization.

A watts fixture packages a tensor structure with the finite data the
verification pipeline runs on: sample modules, exact sequences for the
exactness/flatness probes, and duality data for the snake checks.  Fusion
fixtures are plain fusion-ring data files; both kinds share one loader
keyed on the top-level "kind" field.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple, Union

from .algmod import (Algebra, Module, ModuleMap, StructureError,
                     algebra_from_json, algebra_to_json, matrix_to_json,
                     module_from_json, module_to_json)
from .fusion import FusionData, _count, fusion_from_json, fusion_to_json
from .linalg import Field, VectorSpace, identity, make_map
from .rings import bundled_rings
from .watts import (CustomTensor, ExactSequence, GradedTensor, StrictTensor,
                    WattsError, sign_cocycle, trivial_cocycle)


class FixtureError(Exception):
    """Malformed or inconsistent fixture data."""


@dataclass(frozen=True)
class RigidityDatum:
    """Candidate duality data (X, X*, ev, db) for the snake checks."""

    obj: Module
    dual: Module
    ev: ModuleMap
    db: ModuleMap


@dataclass
class WattsFixture:
    """A tensor structure plus the sample data the pipeline verifies."""

    name: str
    ct: CustomTensor
    sample: Tuple[Module, ...]
    sequences: Tuple[ExactSequence, ...] = ()
    rigidity: Tuple[RigidityDatum, ...] = ()

    @property
    def algebra(self) -> Algebra:
        return self.ct.algebra

    def module(self, name: str) -> Module:
        for m in self.sample:
            if m.name == name:
                return m
        raise FixtureError(f"{self.name}: no sample module named {name!r}")


# ---------------------------------------------------------------------------
# builders


def _line(algebra: Algebra, name: str, sign: int) -> Module:
    """One-dimensional module over K[Z/2] with the generator acting by sign."""
    sp = VectorSpace(algebra.field, (name.lower() + "0",))
    action = (identity(sp), make_map(sp, sp, [[sign]]))
    return Module(name, algebra, sp, "right", action)


def strict_f3_z2() -> WattsFixture:
    """Ordinary tensor over the semisimple group algebra F3[Z/2]."""
    A = Algebra.group_algebra(Field(3), 2)
    ct = StrictTensor(A)
    R = Module.regular(A)
    Sp = _line(A, "Sp", 1)
    Sm = _line(A, "Sm", -1)
    # augmentation-style resolution of the trivial line Sp
    seq1 = ExactSequence(
        "R-(1-g)-R-Sp", "right-exact",
        ModuleMap(R, R, make_map(R.space, R.space, [[1, -1], [-1, 1]])),
        ModuleMap(R, Sp, make_map(R.space, Sp.space, [[1, 1]])))
    seq2 = ExactSequence(
        "Sm-R-Sp", "short-exact",
        ModuleMap(Sm, R, make_map(Sm.space, R.space, [[1], [-1]])),
        ModuleMap(R, Sp, make_map(R.space, Sp.space, [[1, 1]])))
    return WattsFixture("strict-f3-z2", ct, (R, Sp, Sm), (seq1, seq2))


def dual_numbers_f2() -> WattsFixture:
    """Ordinary tensor over F2[x]/(x^2); the residue line is not flat."""
    A = Algebra.truncated_polynomial(Field(2))
    ct = StrictTensor(A)
    R = Module.regular(A)
    csp = VectorSpace(A.field, ("c0",))
    C = Module("C", A, csp, "right",
               (identity(csp), make_map(csp, csp, [[0]])))
    seq1 = ExactSequence(
        "R-x-R-C", "right-exact",
        ModuleMap(R, R, make_map(R.space, R.space, [[0, 0], [1, 0]])),
        ModuleMap(R, C, make_map(R.space, C.space, [[1, 0]])))
    seq2 = ExactSequence(
        "C-R-C", "short-exact",
        ModuleMap(C, R, make_map(C.space, R.space, [[0], [1]])),
        ModuleMap(R, C, make_map(R.space, C.space, [[1, 0]])))
    return WattsFixture("dual-numbers-f2", ct, (R, C), (seq1, seq2))


def _graded(name: str, cocycle: dict, odd_db_sign: int) -> WattsFixture:
    A = Algebra.group_algebra(Field(3), 2)
    I = _line(A, "I", 1)
    L = _line(A, "L", -1)
    ct = GradedTensor(A, I, cocycle, name=name)
    R = Module.regular(A)
    seq = ExactSequence(
        "L-R-I", "short-exact",
        ModuleMap(L, R, make_map(L.space, R.space, [[1], [-1]])),
        ModuleMap(R, I, make_map(R.space, I.space, [[1, 1]])))

    def rig(X: Module, db_sign: int) -> RigidityDatum:
        pair = ct.product(X, X).module
        ev = ModuleMap(pair, I, make_map(pair.space, I.space, [[1]]))
        db = ModuleMap(I, pair, make_map(I.space, pair.space, [[db_sign]]))
        return RigidityDatum(X, X, ev, db)

    return WattsFixture(name, ct, (I, L, R), (seq,),
                        (rig(I, 1), rig(L, odd_db_sign)))


def graded_trivial() -> WattsFixture:
    """Z/2-graded lines over F3, untwisted associator."""
    return _graded("graded-trivial", trivial_cocycle(), 1)


def graded_sign() -> WattsFixture:
    """Z/2-graded lines over F3 with the sign 3-cocycle; the odd line's
    coevaluation picks up the compensating sign."""
    return _graded("graded-sign", sign_cocycle(), -1)


def bundled_watts_fixtures() -> Dict[str, WattsFixture]:
    fixtures = (strict_f3_z2(), dual_numbers_f2(), graded_trivial(),
                graded_sign())
    return {fx.name: fx for fx in fixtures}


# ---------------------------------------------------------------------------
# JSON serialization


def watts_fixture_to_json(fx: WattsFixture) -> dict:
    if isinstance(fx.ct, StrictTensor):
        tensor: dict = {"kind": "strict"}
    elif isinstance(fx.ct, GradedTensor):
        tensor = {"kind": "graded-z2",
                  "unit": fx.ct.unit.name,
                  "cocycle": sorted([a, b, c, s] for (a, b, c), s
                                    in fx.ct.cocycle.items())}
    else:
        raise FixtureError(
            f"cannot serialize tensor structure {type(fx.ct).__name__}")
    return {
        "kind": "watts",
        "name": fx.name,
        "algebra": algebra_to_json(fx.algebra),
        "tensor": tensor,
        "modules": [module_to_json(m) for m in fx.sample],
        "sequences": [{
            "name": s.name,
            "exactness": s.kind,
            "spaces": [s.f.source.name, s.f.target.name, s.g.target.name],
            "f": matrix_to_json(s.f.lin),
            "g": matrix_to_json(s.g.lin),
        } for s in fx.sequences],
        "rigidity": [{
            "object": r.obj.name,
            "dual": r.dual.name,
            "ev": matrix_to_json(r.ev.lin),
            "db": matrix_to_json(r.db.lin),
        } for r in fx.rigidity],
    }


def watts_fixture_from_json(data: dict) -> WattsFixture:
    try:
        name = data["name"]
        algebra = algebra_from_json(data["algebra"])
        sample = tuple(module_from_json(algebra, m)
                       for m in data.get("modules", ()))
        if not sample:
            raise FixtureError(f"{name}: the sample lists no modules")
        byname = {m.name: m for m in sample}
        names = [m.name for m in sample]
        if len(byname) != len(names):
            twice = sorted({n for n in names if names.count(n) > 1})
            raise FixtureError(f"{name}: sample module names repeat: {twice}")
        # "R" names the regular module in every report
        regular = Module.regular(algebra)
        if byname.get("R", regular) != regular:
            raise FixtureError(
                f"{name}: the sample module R is not the regular module")
        tensor = data["tensor"]
        kind = tensor["kind"]
        if kind == "strict":
            ct: CustomTensor = StrictTensor(algebra)
        elif kind == "graded-z2":
            unit = byname[tensor["unit"]]
            # deliberately no cocycle-condition rejection here: a twisted
            # non-cocycle must still load so the pentagon checks can
            # produce concrete witnesses for it
            cocycle = {}
            for a, b, c, s in tensor["cocycle"]:
                triple, value = (_count(a), _count(b), _count(c)), _count(s)
                if triple in cocycle:
                    raise FixtureError(
                        f"{name}: the cocycle lists the triple {triple} "
                        "twice")
                cocycle[triple] = value
            ct = GradedTensor(algebra, unit, cocycle, name=name)
        else:
            raise FixtureError(f"{name}: unknown tensor kind {kind!r}")

        sequences = []
        for s in data.get("sequences", ()):
            a, b, c = (byname[n] for n in s["spaces"])
            seq = ExactSequence(
                s["name"], s["exactness"],
                ModuleMap(a, b, make_map(a.space, b.space, s["f"])),
                ModuleMap(b, c, make_map(b.space, c.space, s["g"])))
            seq.check()
            sequences.append(seq)

        rigidity = []
        for r in data.get("rigidity", ()):
            X, Xd = byname[r["object"]], byname[r["dual"]]
            pair_dx = ct.product(Xd, X).module
            pair_xd = ct.product(X, Xd).module
            rigidity.append(RigidityDatum(
                X, Xd,
                ModuleMap(pair_dx, ct.unit,
                          make_map(pair_dx.space, ct.unit.space, r["ev"])),
                ModuleMap(ct.unit, pair_xd,
                          make_map(ct.unit.space, pair_xd.space, r["db"]))))
        return WattsFixture(name, ct, sample, tuple(sequences),
                            tuple(rigidity))
    except FixtureError:
        raise
    except (KeyError, TypeError, ValueError, StructureError,
            WattsError) as exc:
        raise FixtureError(f"malformed watts fixture: {exc}") from exc


# ---------------------------------------------------------------------------
# loading


Fixture = Union[WattsFixture, FusionData]


def fixture_from_json(data: dict) -> Fixture:
    if not isinstance(data, dict):
        raise FixtureError("fixture must be a JSON object")
    kind = data.get("kind")
    if kind == "watts":
        return watts_fixture_from_json(data)
    if kind == "fusion":
        try:
            return fusion_from_json(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise FixtureError(f"malformed fusion fixture: {exc}") from exc
    raise FixtureError(f"unknown fixture kind {kind!r}")


def fixture_to_json(fx: Fixture) -> dict:
    if isinstance(fx, WattsFixture):
        return watts_fixture_to_json(fx)
    out = {"kind": "fusion"}
    out.update(fusion_to_json(fx))
    return out


def load_fixture_file(path: Union[str, Path]) -> Fixture:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FixtureError(f"cannot read fixture {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FixtureError(f"invalid JSON in {path}: {exc}") from exc
    return fixture_from_json(data)


def fixtures_dir() -> Path:
    """Directory of bundled fixture files; MONOCAT_FIXTURES overrides."""
    override = os.environ.get("MONOCAT_FIXTURES")
    if override:
        return Path(override)
    return Path(__file__).parent / "fixtures"


def resolve_fixture(ref: str) -> Fixture:
    """Resolve a CLI fixture reference: a path, or a name in fixtures_dir."""
    p = Path(ref)
    if p.suffix == ".json" or p.exists():
        return load_fixture_file(p)
    candidate = fixtures_dir() / f"{ref}.json"
    if candidate.exists():
        return load_fixture_file(candidate)
    raise FixtureError(f"no fixture file or bundled fixture named {ref!r}")


def bundled_fixture_files() -> Dict[str, Path]:
    d = fixtures_dir()
    if not d.is_dir():
        return {}
    return {p.stem: p for p in sorted(d.glob("*.json"))}


def all_bundled_fixtures() -> Dict[str, Fixture]:
    """Watts fixtures from code plus fusion rings, as one registry."""
    out: Dict[str, Fixture] = {}
    out.update(bundled_watts_fixtures())
    for name, fd in bundled_rings().items():
        out[f"fusion-{name}"] = fd
    return out
