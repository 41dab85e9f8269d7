"""Property test of the input boundary: a bundled fixture with one field
deleted or replaced by a value of the wrong kind exits 0, 1 or 2, and
never raises out of ``cli.main``.

Each example picks a bundled fixture file, one field at any depth (a key
of an object or an entry of a list) and one mutation.  It runs
``validate``, and on a watts fixture that still loads (``validate`` did
not exit 2) the whole ``watts`` pipeline as well.  The examples are
derandomized, so every run checks the same ones.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from monocat.cli import main

FIXTURES = Path(__file__).parent.parent / "src" / "monocat" / "fixtures"

DELETE = "<delete>"
MUTATIONS = [DELETE, None, 0, -1, 1.5, 2 ** 70, "x", "", [], {}, [[1]],
             True, 97, 3, "1/0", "1/3"]


def _fields(node, prefix=()):
    """The path of every field below ``node``: keys and list indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _fields(child, prefix + (key,))


CASES = {path.name: json.loads(path.read_text(encoding="utf-8"))
         for path in sorted(FIXTURES.glob("*.json"))}
FIELDS = {name: list(_fields(data)) for name, data in CASES.items()}


def mutated(data, field, value):
    """A deep copy of ``data`` with ``field`` deleted or set to ``value``."""
    data = json.loads(json.dumps(data))
    parent = data
    for key in field[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[field[-1]]
    else:
        parent[field[-1]] = value
    return data


@st.composite
def mutations(draw):
    name = draw(st.sampled_from(sorted(CASES)))
    field = draw(st.sampled_from(FIELDS[name]))
    return name, field, draw(st.sampled_from(MUTATIONS))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations")


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(mutations())
def test_a_mutated_fixture_exits_cleanly(workdir, case):
    name, field, value = case
    path = workdir / name
    path.write_text(json.dumps(mutated(CASES[name], field, value)),
                    encoding="utf-8")
    code = _exit_code(["validate", str(path)])
    assert code in (0, 1, 2)
    if code != 2 and not name.startswith("fusion-"):
        assert _exit_code(["watts", str(path)]) in (0, 1, 2)


def test_mutated_deletes_or_replaces_one_field():
    data = {"a": [1, {"b": 2}], "c": 3}
    assert mutated(data, ("a", 1, "b"), DELETE) == {"a": [1, {}], "c": 3}
    assert mutated(data, ("c",), [[1]]) == {"a": [1, {"b": 2}], "c": [[1]]}
    assert data == {"a": [1, {"b": 2}], "c": 3}
    assert ("a", 1, "b") in list(_fields(data))
