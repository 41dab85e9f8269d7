"""Small algebras and labelled spaces the tests build by hand (the
library reads algebras only from fixture JSON), and the bundled fixture
files, each read by ``load_fixture_file``."""

from monocat.algmod import Algebra
from monocat.fixtures import BUNDLED, load_fixture_file
from monocat.linalg import Field, VectorSpace


def labelled_space(field: Field, dim: int, prefix: str = "e") -> VectorSpace:
    """A space of dimension ``dim`` with basis labels prefix0, prefix1, …"""
    return VectorSpace(field, tuple(f"{prefix}{i}" for i in range(dim)))


def group_algebra(field: Field, n: int) -> Algebra:
    """Group algebra K[Z/n], basis = group elements."""
    space = VectorSpace(field, tuple(f"g{i}" for i in range(n)))
    e = [tuple([int(k == i) for k in range(n)]) for i in range(n)]
    mult = tuple(tuple(e[(i + j) % n] for j in range(n)) for i in range(n))
    return Algebra(f"K[Z/{n}]", space, mult, e[0])


def truncated_polynomial(field: Field) -> Algebra:
    """K[x]/(x^2), basis (1, x)."""
    space = VectorSpace(field, ("1", "x"))
    mult = (((1, 0), (0, 1)), ((0, 1), (0, 0)))
    return Algebra("K[x]/(x²)", space, mult, (1, 0))


def bundled(stem: str):
    """The bundled fixture file ``stem``.json, read by
    ``load_fixture_file``."""
    return load_fixture_file(BUNDLED / f"{stem}.json")


def fusion_rings() -> dict:
    """Every bundled fusion ring, keyed by its file stem after
    ``fusion-``."""
    return {p.stem[len("fusion-"):]: load_fixture_file(p)
            for p in sorted(BUNDLED.glob("fusion-*.json"))}


def sample_module(fx, name: str):
    """The sample module of the watts fixture ``fx`` named ``name``."""
    return next(m for m in fx.sample if m.name == name)
