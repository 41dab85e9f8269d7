"""Fixture data and its one loader.

A watts fixture packages a tensor structure with the finite data the
verification pipeline runs on: sample modules, exact sequences for the
exactness/flatness probes, and duality data for the snake checks.  Fusion
fixtures are plain fusion-ring data files; both kinds share one loader
keyed on the top-level "kind" field.  The bundled fixtures are the JSON
files under ``fixtures/``; a new fixture is a new file there, and
``load_fixture_file`` reads any of them.  Three named readers of the
bundled files remain, ``bundled_watts_fixtures``, ``graded_sign`` and
``dual_numbers_f2``, because the benchmark harness (``perfbench/``)
imports them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from .algmod import (Algebra, Module, ModuleMap, StructureError,
                     algebra_from_json, intern, module_from_json)
from .fusion import FusionData, _count, fusion_from_json
from .linalg import LinearMap, _string
from .watts import (CustomTensor, ExactSequence, GradedTensor, StrictTensor,
                    WattsError)

BUNDLED = Path(__file__).parent / "fixtures"


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


def watts_fixture_from_json(data: dict,
                            cells: Optional[dict] = None) -> WattsFixture:
    """The fixture in ``data``, its tensor built on the cell table
    ``cells``, or on a table of its own when none is given
    (``watts.CustomTensor``).  The algebra, its regular module and the
    sample modules are interned in the table (``algmod.intern``), R
    first, so that R's space is the algebra's; a sample module keeps its
    own object when the table's has another name."""
    cells = {} if cells is None else cells
    try:
        name = _string(data["name"], "name")
        algebra = intern(cells, algebra_from_json(data["algebra"]))
        # "R" names the regular module in every report; the sample holds
        # Module.regular itself
        regular = intern(cells, Module.regular(algebra))
        sample = tuple(_sample_module(cells, module_from_json(algebra, m))
                       for m in data.get("modules", ()))
        if not sample:
            raise FixtureError(f"{name}: the sample lists no modules")
        _no_repeats(name, "sample module", [m.name for m in sample])
        byname = {m.name: m for m in sample}
        if byname.get("R", regular) is not regular:
            raise FixtureError(
                f"{name}: the sample module R is not the regular module")

        def member(what: str, key) -> Module:
            """The sample module named ``key``, given by the field
            ``what``; FixtureError naming the field when there is none."""
            if not isinstance(key, str) or key not in byname:
                raise FixtureError(
                    f"{name}: {what}: no sample module named {key!r}")
            return byname[key]

        tensor = data["tensor"]
        kind = tensor["kind"]
        if kind == "strict":
            ct: CustomTensor = StrictTensor(algebra, cells=cells)
        elif kind == "graded-z2":
            unit = member("tensor.unit", tensor["unit"])
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
            ct = GradedTensor(algebra, unit, cocycle, name=name,
                              cells=cells)
        else:
            raise FixtureError(f"{name}: unknown tensor kind {kind!r}")

        sequences = []
        for i, s in enumerate(data.get("sequences", ())):
            where, spaces, kind = (f"{name}: sequences[{i}]", s["spaces"],
                                   s["exactness"])
            if not isinstance(spaces, list) or len(spaces) != 3:
                raise FixtureError(f"{where}.spaces: not 3 names: {spaces!r}")
            if kind not in ("right-exact", "short-exact"):
                raise FixtureError(f"{where}.exactness: unknown kind {kind!r}")
            a, b, c = (member(f"sequences[{i}].spaces", n) for n in spaces)
            seq = ExactSequence(
                _string(s["name"], f"sequences[{i}].name"), kind,
                ModuleMap(a, b, LinearMap(a.space, b.space, s["f"])),
                ModuleMap(b, c, LinearMap(b.space, c.space, s["g"])))
            seq.check()
            sequences.append(seq)
        _no_repeats(name, "sequence", [seq.name for seq in sequences])

        rigidity = []
        for i, r in enumerate(data.get("rigidity", ())):
            X, Xd = (member(f"rigidity[{i}].{key}", r[key])
                     for key in ("object", "dual"))
            ends = {"ev": (ct.product(Xd, X).module, ct.unit),
                    "db": (ct.unit, ct.product(X, Xd).module)}
            ev, db = (ModuleMap(s, t, LinearMap(s.space, t.space, r[key]))
                      for key, (s, t) in ends.items())
            for key, m in zip(ends, (ev, db)):
                if not m.is_equivariant():
                    raise FixtureError(
                        f"{name}: rigidity[{i}].{key}: not equivariant")
            rigidity.append(RigidityDatum(X, Xd, ev, db))
        return WattsFixture(name, ct, sample, tuple(sequences),
                            tuple(rigidity))
    except FixtureError:
        raise
    except (KeyError, TypeError, ValueError, StructureError,
            WattsError) as exc:
        raise FixtureError(f"malformed watts fixture: {exc}") from exc


def _no_repeats(fixture: str, what: str, names: list) -> None:
    """FixtureError listing the ``what`` names that occur more than once
    in ``names``, if any."""
    twice = sorted({n for n in names if names.count(n) > 1})
    if twice:
        raise FixtureError(f"{fixture}: {what} names repeat: {twice}")


def _sample_module(cells: dict, module: Module) -> Module:
    """The table's object of ``module``'s content when it has the same
    name, else ``module``, so that every sample name stays its own."""
    found = intern(cells, module)
    return found if found.name == module.name else module


# ---------------------------------------------------------------------------
# loading


Fixture = Union[WattsFixture, FusionData]


def fixture_from_json(data: dict, cells: Optional[dict] = None) -> Fixture:
    if not isinstance(data, dict):
        raise FixtureError("fixture must be a JSON object")
    kind = data.get("kind")
    if kind == "watts":
        return watts_fixture_from_json(data, cells)
    if kind == "fusion":
        try:
            return fusion_from_json(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise FixtureError(f"malformed fusion fixture: {exc}") from exc
    raise FixtureError(f"unknown fixture kind {kind!r}")


def load_fixture_file(path: Union[str, Path],
                      cells: Optional[dict] = None) -> Fixture:
    """The fixture in the file ``path``; a watts fixture's tensor is built
    on the cell table ``cells`` when one is given."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FixtureError(f"cannot read fixture {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FixtureError(f"invalid JSON in {path}: {exc}") from exc
    return fixture_from_json(data, cells)


def fixtures_dir() -> Path:
    """Directory of bundled fixture files; MONOCAT_FIXTURES overrides."""
    override = os.environ.get("MONOCAT_FIXTURES")
    return Path(override) if override else BUNDLED


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


# ---------------------------------------------------------------------------
# the bundled files, read from the package whatever MONOCAT_FIXTURES says


def bundled_watts_fixtures() -> Dict[str, WattsFixture]:
    return {p.stem: load_fixture_file(p)
            for p in sorted(BUNDLED.glob("*.json"))
            if not p.stem.startswith("fusion-")}


def dual_numbers_f2() -> WattsFixture:
    """Ordinary tensor over F2[x]/(x^2); the residue line is not flat."""
    return load_fixture_file(BUNDLED / "dual-numbers-f2.json")


def graded_sign() -> WattsFixture:
    """Z/2-graded lines over F3 with the sign 3-cocycle; the odd line's
    coevaluation picks up the compensating sign."""
    return load_fixture_file(BUNDLED / "graded-sign.json")
