"""Each kind of product in ``monocat`` has one implementation.

A stdlib ``ast`` pass over ``src/monocat``, as ``test_imports`` is: every
balancing cokernel is built by ``algmod.cokernel`` on a cell table, read
only by ``hom_basis`` and ``tensor_over``, and each layer's product goes
through its one helper.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "monocat"


def _references(tree, module: str) -> dict:
    """Every name a function reads, as a bare name or an attribute, keyed
    by the function's dotted name ``module.Class.function``."""
    out = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Name):
                out.setdefault(scope, set()).add(child.id)
            elif isinstance(child, ast.Attribute):
                out.setdefault(scope, set()).add(child.attr)
            visit(child, inner)

    visit(tree, module)
    return out


def _package_references() -> dict:
    out = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        out.update(_references(tree, path.stem))
    return out


def _readers(refs: dict, name: str) -> set:
    return {scope for scope, names in refs.items() if name in names}


def _none_table_branches(tree) -> list:
    """Line of each ``cells is None``/``is not None`` test, and of each
    ``cells`` parameter with a default."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            operands = [node.left, *node.comparators]
            if any(isinstance(x, ast.Name) and x.id == "cells"
                   for x in operands) and any(
                    isinstance(x, ast.Constant) and x.value is None
                    for x in operands):
                lines.append(node.lineno)
        elif isinstance(node, ast.arguments):
            positional = node.posonlyargs + node.args
            defaults = positional[len(positional) - len(node.defaults):]
            kw_defaults = [arg for arg, default in
                           zip(node.kwonlyargs, node.kw_defaults)
                           if default is not None]
            lines += [arg.lineno for arg in defaults + kw_defaults
                      if arg.arg == "cells"]
    return lines


def test_balanced_tensor_is_built_only_by_cokernel():
    assert _readers(_package_references(), "balanced_tensor") == \
        {"algmod.cokernel"}


def test_cokernel_is_read_only_by_hom_basis_and_tensor_over():
    # every balanced product, M⊗_R P of a natural family included, is a
    # tensor_over cell
    assert _readers(_package_references(), "cokernel") == \
        {"algmod.hom_basis", "algmod.tensor_over"}


def test_algmod_has_no_optional_table():
    tree = ast.parse((SRC / "algmod.py").read_text(encoding="utf-8"))
    assert _none_table_branches(tree) == []


@pytest.mark.parametrize("function, helper", [
    ("linalg.tensor", "_kron_nz"),
    ("linalg.compose_tensor", "_kron_nz"),
    ("watts.CustomTensor.mor", "tensor_maps"),
    ("watts.CustomTensor._rebracket", "descend"),
])
def test_each_product_goes_through_its_helper(function, helper):
    assert function in _readers(_package_references(), helper)


def _methods(tree, cls: str) -> dict:
    """The functions the body of class ``cls`` defines, by name."""
    body = next(node.body for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) and node.name == cls)
    return {node.name: node for node in body
            if isinstance(node, ast.FunctionDef)}


def _calls(node, name: str, on: str = None) -> int:
    """Calls of ``name``, bare or as an attribute, under ``node``; with
    ``on``, only the calls ``on.name``."""
    def match(func):
        if on is not None:
            return (isinstance(func, ast.Attribute) and func.attr == name
                    and getattr(func.value, "id", None) == on)
        return name in (getattr(func, "id", None), getattr(func, "attr", None))

    return sum(isinstance(call, ast.Call) and match(call.func)
               for call in ast.walk(node))


def test_xi_is_built_from_c_with_one_tensor_maps():
    # c is natural, so α′ and ξ take it at their endpoints: ξ reads c and
    # the ⊙ associator and tensors no maps into D(D(R,X),Y), α′ takes no
    # ⊙′ of maps, μ is gone, and no collapse u_X onto X⊗₂T is defined
    tree = ast.parse((SRC / "watts.py").read_text(encoding="utf-8"))
    context = _methods(tree, "WattsContext")
    xi = _methods(tree, "OmegaFunctor")["xi"]
    assert "c_iso" in _package_references()["watts.OmegaFunctor.xi"]
    assert _calls(xi, "associator", on="ct") == 1
    assert _calls(xi, "tensor_maps") == _calls(xi, "mu") == 0
    assert _calls(context["alpha_prime"], "mor", on="self") == 0
    assert "mu" not in context and "collapse" not in context


def test_transported_maps_are_taken_as_they_are():
    # ν, c, c⁻¹ and α′ carry their modules: α is α′ itself, ξ hands c⁻¹
    # to ``mor`` unwrapped, and λ′, ρ′ read their source off c
    tree = ast.parse((SRC / "watts.py").read_text(encoding="utf-8"))
    context = _methods(tree, "WattsContext")
    calls = [node.func for node in ast.walk(context["_associator"])
             if isinstance(node, ast.Call)]
    assert [getattr(func, "attr", None) for func in calls] == ["alpha_prime"]
    assert _calls(_methods(tree, "OmegaFunctor")["xi"], "ModuleMap") == 0
    for unit in ("left_unit", "right_unit"):
        assert _calls(context[unit], "product") == 0


def _table_writes(node) -> int:
    """Assignments to ``cells[...]`` under ``node``."""
    return sum(isinstance(sub, ast.Subscript)
               and isinstance(sub.ctx, ast.Store)
               and getattr(sub.value, "id", None) == "cells"
               for sub in ast.walk(node))


def test_tensor_over_builds_and_keeps_nothing():
    # each product has one store, the product cache of the tensor that
    # asks for it: tensor_over finds its cokernel and interns its module
    # on the table, and writes nothing there under its own key
    tree = ast.parse((SRC / "algmod.py").read_text(encoding="utf-8"))
    tensor_over = next(node for node in tree.body
                       if isinstance(node, ast.FunctionDef)
                       and node.name == "tensor_over")
    assert _table_writes(tensor_over) == 0
    assert _calls(tensor_over, "cokernel") == 1
    assert _calls(tensor_over, "intern") == 1


def test_the_walk_finds_callers_and_optional_tables():
    tree = ast.parse("def cokernel(cells):\n    return balanced_tensor()\n"
                     "class T:\n    def f(self, cells=None):\n"
                     "        if cells is None:\n"
                     "            return m.balanced_tensor\n")
    assert _readers(_references(tree, "m"), "balanced_tensor") == \
        {"m.cokernel", "m.T.f"}
    assert _none_table_branches(tree) == [4, 5]
    calls = ast.parse("self.mor(f)\nct.mor(g)\nmor(h)\n")
    assert _calls(calls, "mor") == 3 and _calls(calls, "mor", on="ct") == 1
    writes = ast.parse("cells[k] = v\ncells[k]\nx = cells.get(k)\n"
                       "other[k] = v\n")
    assert _table_writes(writes) == 1
