"""Each kind of product in ``monocat`` has one implementation.

A stdlib ``ast`` pass over ``src/monocat``, as ``test_imports`` is: every
balancing cokernel is built by ``algmod.cokernel`` on a cell table, read
only by ``hom_basis`` and ``balanced_cell``, the bare cell ``tensor_over``
builds its module on, and each layer's product goes through its one
helper.
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
    # every balanced product is a balanced_cell: tensor_over builds its
    # module on one, and the callers that read only the quotient (the
    # M⊗_R P of a natural family, and through OmegaFunctor._cell the
    # bimodule cells ξ° and the functor pentagon descend through) take it
    # bare
    refs = _package_references()
    assert _readers(refs, "cokernel") == \
        {"algmod.hom_basis", "algmod.balanced_cell"}
    assert _readers(refs, "balanced_cell") == {
        "algmod.tensor_over", "watts.OmegaFunctor._cell",
        "watts.induce_natural_family", "watts.nat_to_bimodule_hom"}


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
    # c is natural, so α′ and ξ take it at their endpoints: ξ is ξ° (the ⊙
    # associator after κ) followed by ω(c⁻¹), and tensors no maps into
    # D(D(R,X),Y); α′ is c, its core and c⁻¹, and neither takes a ⊙′ of
    # maps; μ is gone, and no collapse u_X onto X⊗₂T is defined
    tree = ast.parse((SRC / "watts.py").read_text(encoding="utf-8"))
    context = _methods(tree, "WattsContext")
    functor = _methods(tree, "OmegaFunctor")
    xi, xi_open = functor["xi"], functor["xi_open"]
    assert "c_iso" in _package_references()["watts.OmegaFunctor.xi"]
    assert _calls(xi, "xi_open", on="self") == 1
    assert _calls(xi, "omega_map") == 1 and _calls(xi, "associator") == 0
    assert _calls(xi_open, "associator", on="ct") == 1
    assert _calls(xi_open, "omega_map") == _calls(xi_open, "c_iso") == 0
    for method in (xi, xi_open):
        assert _calls(method, "tensor_maps") == _calls(method, "mu") == 0
    for method in ("alpha_prime", "alpha_core"):
        assert _calls(context[method], "mor", on="self") == 0
    assert _calls(context["alpha_prime"], "alpha_core", on="self") == 1
    assert _calls(context["alpha_prime"], "associator") == 0
    assert "mu" not in context and "collapse" not in context


def test_the_functor_pentagon_compares_where_its_sides_meet():
    # a passing instance reads α′'s core and ξ° and builds neither α′ nor
    # the bimodule associator; only the failure branch of
    # verify_monoidal_functor builds the full sides, its witness
    tree = ast.parse((SRC / "watts.py").read_text(encoding="utf-8"))
    met = _top_level(tree, "_functor_pentagon_met")
    verify = _top_level(tree, "verify_monoidal_functor")
    for node in (met, verify):
        assert _calls(node, "associator") == _calls(node, "alpha_prime") == 0
    assert _calls(met, "tensor_maps") == 0
    assert _calls(met, "alpha_core", on="wc") == 1
    assert _calls(met, "xi_open_ambient", on="om") == 2
    assert _calls(met, "xi_ambient", on="om") == 2
    assert _calls(met, "xi_open", on="om") == _calls(met, "xi", on="om") == 0
    full = [call for call in ast.walk(verify) if isinstance(call, ast.Call)
            and getattr(call.func, "id", None) == "_functor_pentagon"]
    branches = [node for node in ast.walk(verify) if isinstance(node, ast.If)
                and any(_calls(sub, "_functor_pentagon") for sub in node.orelse)]
    assert len(full) == 1 and len(branches) == 1
    assert _calls(branches[0].body[0], "_functor_pentagon") == 0
    refs = _package_references()
    assert {"watts.WattsContext.alpha_prime", "watts._functor_pentagon_met"} \
        <= _readers(refs, "alpha_core")


def test_kappa_and_c_descend_one_ambient_map():
    # κ and c are the descent of one ambient map, (act_X ⊗ id_Y) after
    # the section of R⊙Y: no ⊙ of maps x̂_a ⊙ id_Y per basis vector, and
    # the collapse through the cell is still verified by descend
    tree = ast.parse((SRC / "watts.py").read_text(encoding="utf-8"))
    collapse = _methods(tree, "WattsContext")["_hat_collapse"]
    assert _calls(collapse, "mor") == _calls(collapse, "_xhat") == 0
    assert _calls(collapse, "compose") == 0
    assert _calls(collapse, "descend") == 1


def test_xi_open_and_the_functor_pentagon_read_the_bare_cell():
    # the bimodule cells ξ° collapses through and the functor pentagon
    # projects onto are read for their quotient alone, so they are ξ's
    # bare balanced_cells and no bimodule product is built for them; the
    # pentagon reads them only through ξ and ξ° after their cells'
    # projections, which are cached beside ξ and ξ°, once per pair
    tree = ast.parse((SRC / "watts.py").read_text(encoding="utf-8"))
    functor = _methods(tree, "OmegaFunctor")
    assert _calls(functor["_cell"], "balanced_cell") == 1
    met = _top_level(tree, "_functor_pentagon_met")
    for name in ("xi_open", "xi_ambient", "xi_open_ambient"):
        assert _calls(functor[name], "_cell", on="self") == 1
    for node in (*functor.values(), met):
        assert _calls(node, "balanced_cell") <= (node is functor["_cell"])
        assert not any(isinstance(sub, ast.Attribute)
                       and sub.attr == "bimodules" for sub in ast.walk(node))
    assert _calls(met, "_cell") == 0
    for name in ("xi", "xi_open", "xi_ambient", "xi_open_ambient"):
        assert [ast.unparse(d) for d in functor[name].decorator_list] == \
            [f"_memo('_{name}')"]
    for name in ("induce_natural_family", "nat_to_bimodule_hom"):
        assert _calls(_top_level(tree, name), "tensor_over") == 0


def test_graded_products_are_keyed_by_their_factors():
    # ⊙ looks each product up under its tensor's _product_key, and the
    # graded tensor's is the sequence of sample factors it keeps per
    # product module, so (X⊙Y)⊙Z and X⊙(Y⊙Z) are one build
    tree = ast.parse((SRC / "watts.py").read_text(encoding="utf-8"))
    product = _methods(tree, "CustomTensor")["product"]
    assert _calls(product, "_product_key", on="self") == 1
    assert not product.decorator_list
    graded = _methods(tree, "GradedTensor")
    assert "_factors" in _package_references()[
        "watts.GradedTensor._product_key"]
    assert _calls(graded["_product"], "setdefault") == 1
    assert "product" not in graded


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


def _ident_of_R(node) -> int:
    """Calls ``ident(R)`` or ``ident(….R)`` under ``node``."""
    return sum(isinstance(call, ast.Call)
               and "ident" in (getattr(call.func, "id", None),
                               getattr(call.func, "attr", None))
               and any("R" in (getattr(arg, "id", None),
                               getattr(arg, "attr", None))
                       for arg in call.args)
               for call in ast.walk(node))


def _identity_tests(node) -> int:
    """``is`` and ``is not`` comparisons under ``node``."""
    return sum(isinstance(cmp, ast.Compare)
               and any(isinstance(op, (ast.Is, ast.IsNot)) for op in cmp.ops)
               for cmp in ast.walk(node))


def _top_level(tree, name: str):
    """The module-level function ``name`` of ``tree``."""
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_T_is_omega_of_R():
    # T's families are ω(R)'s two and ω(ℓ_r), so R⊙(−) on maps is written
    # only in omega_map and ω's left action: ν's blocks and ξ's last factor
    # are omega_map too, and no separate builder of T is left
    tree = ast.parse((SRC / "watts.py").read_text(encoding="utf-8"))
    assert "build_T" not in {node.name for node in ast.walk(tree)
                             if isinstance(node, ast.FunctionDef)}
    context = _methods(tree, "WattsContext")
    assert _calls(context["__init__"], "omega", on="self") == 1
    assert _calls(context["__init__"], "omega_map", on="self") == 1
    for method in (context["nu"], _methods(tree, "OmegaFunctor")["xi"]):
        assert _calls(method, "omega_map") == 1
        assert _ident_of_R(method) == 0


def test_the_sample_loop_names_the_morphisms():
    # every hom-basis map is interned, whatever its modules are named, and
    # a witness pair is the pair of the sample loop, never a map's modules
    tree = ast.parse((SRC / "watts.py").read_text(encoding="utf-8"))
    assert _calls(_top_level(tree, "_hom_maps"), "intern") == 1
    assert _identity_tests(_top_level(tree, "_hom_maps")) == 0
    maps = _methods(tree, "_Recorder")["maps"]
    assert not any(isinstance(node, ast.Attribute) and node.attr == "name"
                   for node in ast.walk(maps))


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
    tensor_over = _top_level(tree, "tensor_over")
    assert _table_writes(tensor_over) == 0
    assert _calls(tensor_over, "balanced_cell") == 1
    assert _calls(tensor_over, "intern") == 1


def test_what_is_built_from_checked_inputs_is_not_checked_again():
    # f⊙g is equivariant and a tensor_over module obeys the action laws by
    # construction, so neither builder re-runs the check, and T checks
    # only its second left action; test_watts.py's
    # test_every_cached_map_and_module_holds_its_laws runs the checks
    algmod_tree = ast.parse((SRC / "algmod.py").read_text(encoding="utf-8"))
    watts_tree = ast.parse((SRC / "watts.py").read_text(encoding="utf-8"))
    mor = _methods(watts_tree, "CustomTensor")["mor"]
    tensor_over = _top_level(algmod_tree, "tensor_over")
    for node in (mor, tensor_over):
        assert _calls(node, "is_equivariant") == _calls(node, "check") == 0
    T_check = _methods(watts_tree, "TripleModule")["check"]
    assert ast.literal_eval(T_check.body[0].value.args[-1]) == (0, 2)


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
    idents = ast.parse("ct.ident(R)\nself.ct.ident(self.R)\nident(X)\n"
                       "ct.mor(R, X)\n")
    assert _ident_of_R(idents) == 2
    tests = ast.parse("a is b\na is not None\na == b\nx in y\n")
    assert _identity_tests(tests) == 2
