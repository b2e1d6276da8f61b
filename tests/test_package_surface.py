"""The package's surface: what the benchmark reaches into, no dead imports, no undocumented held keys,
no tuples grown from iterators, no ring-kind tests that a ring attribute serves, no kernel formed
outside ``lattice``, no import of ``lattice`` into ``simplicial``.

The benchmark in ``perfbench/`` rebinds named functions and methods of
the package to trace them, and calls the package through ``pc.<name>``
and ``corpus.<name>``.  Removing one of those names breaks the
benchmark, not the package, so these tests read its files (without
importing them as modules or writing anything next to them) and check
that every name still resolves, that the dense constructor
``roadmap_rows.py`` converts its corpora through still gives the
coalgebra it converts, and that every CLI command pinned in
``cli_pins.json`` still gives its pinned exit code and stdout.
"""

import ast
import hashlib
import sys
import types
from fractions import Fraction
from pathlib import Path

import purecoalg
from purecoalg import QQ, ZZ, Matrix, corpus, localized_integers, prime_field, set_like

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "purecoalg"
BENCH = ROOT / "perfbench"


def _load_read_only(path: Path, monkeypatch=None) -> types.ModuleType:
    """Execute a source file as a fresh module, without caching bytecode next to it.

    Given monkeypatch, the module sits in ``sys.modules`` for the rest of
    the test, as a ``@dataclass`` in it needs.
    """
    module = types.ModuleType(f"perfbench_{path.stem}")
    module.__file__ = str(path)
    if monkeypatch:
        monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def _traced_objects(layers) -> dict:
    """Each traced name -> the object the tracer rebinds: a module function or a class's own attribute."""
    out = {}
    for module_name, names in layers.items():
        module = sys.modules[f"purecoalg.{module_name}"]
        for name in names:
            owner, _, method = name.rpartition(".")
            if name == "Filtration":
                owner, method = "Filtration", "__init__"
            out[f"{module_name}.{name}"] = getattr(module, owner).__dict__[method] if owner else getattr(module, name)
    return out


def test_the_benchmark_tracer_installs_and_uninstalls():
    import purecoalg.cli  # noqa: F401  (the tracer wraps names in every layer it lists)

    tracer = _load_read_only(BENCH / "tracer.py")
    before = _traced_objects(tracer.LAYERS)
    t = tracer.Tracer()
    t.install()
    try:
        purecoalg.group_likes(set_like(ZZ, ["a", "b"]))
        assert t.calls[t.index["grouplike.group_likes"]] == 1
        assert _traced_objects(tracer.LAYERS) != before
    finally:
        t.uninstall()
    after = _traced_objects(tracer.LAYERS)
    assert all(after[name] is obj for name, obj in before.items())


def test_the_roadmap_rows_convert_through_the_dense_constructor(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts src/ on the path
    rows = _load_read_only(BENCH / "roadmap_rows.py")
    c = next(e.coalgebra for e in corpus.generate_coalgebras(7, 20, max_rank=6, twist=True) if e.coalgebra.rank >= 4)
    assert any(v < 0 for row in c.delta.rows for v in row)
    assert rows.over(ZZ, c) is c
    for ring, conv in ((QQ, Fraction), (localized_integers([2, 3]), Fraction), (prime_field(1000003), lambda v: v % 1000003)):
        d = rows.over(ring, c)
        assert d.ring == ring and d.rank == c.rank
        assert d.delta == Matrix(ring, [[conv(v) for v in row] for row in c.delta.rows], c.rank * c.rank)
        assert d.counit == [conv(v) for v in c.counit] and d.validate().overall


def test_every_pinned_cli_command_replays_its_exit_code_and_stdout(tmp_path, monkeypatch):
    """The benchmark's CLI pins, each run once: the data/ block, then every generated seed block in order."""
    workloads = _load_read_only(BENCH / "workloads.py", monkeypatch)
    pins = workloads.load_pins()
    tmp = tmp_path / "cli"
    workloads.write_sub_lattices(tmp)
    commands = pins["data"] + [cmd for seed in sorted(pins["generated"], key=int) for cmd in pins["generated"][seed]]
    mismatched = []
    for cmd in commands:
        code, text = workloads.run_pinned(cmd, tmp)
        if (code, hashlib.sha256(text.encode("utf-8")).hexdigest()) != (cmd["exit"], cmd["sha256"]):
            mismatched.append(f"{cmd['prog']} {' '.join(cmd['argv'])} -> exit {code}")
    assert len(commands) >= 400 and mismatched == []


def test_every_package_name_the_benchmark_calls_resolves():
    targets = {"pc": purecoalg, "corpus": corpus}
    seen = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in targets:
                seen.add((path.name, node.value.id, node.attr))
    assert seen
    missing = [f"{name}: {alias}.{attr}" for name, alias, attr in sorted(seen) if not hasattr(targets[alias], attr)]
    assert not missing


def _unused_imports(source: str) -> list:
    """Names bound by module-level imports that the module never loads (``__future__`` aside)."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound if name not in used)


def test_unused_import_check_fires():
    assert _unused_imports("import itertools\nfrom .errors import TooLarge, NotPointed\nraise NotPointed\n") == [
        "TooLarge",
        "itertools",
    ]
    assert _unused_imports("from __future__ import annotations\nimport os.path\nos.path.join\n") == []


def test_no_module_imports_a_name_it_never_uses():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            names = _unused_imports(path.read_text(encoding="utf-8"))
            if names:
                unused[path.name] = names
    assert unused == {}


def _unreferenced_private_defs(sources: dict) -> list:
    """"module.name" for each module-level _private function or class that no code in the sources names.

    A name counts as referenced when it is loaded, read as an attribute
    or imported anywhere outside its own definition, in any module.
    """
    defined, referenced = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                if not node.name.startswith("__"):
                    own = node.name
                    defined.append((module, own))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                elif isinstance(sub, ast.alias):
                    name = sub.name
                else:
                    continue
                if name != own:
                    referenced.add(name)
    return sorted(f"{module}.{name}" for module, name in defined if name not in referenced)


def test_unreferenced_private_check_fires():
    sources = {
        "a": "def _kept():\n    return 1\n\ndef _left(n):\n    return _left(n - 1)\n\nclass _Gone:\n    pass\n",
        "b": "from .a import _kept\n\ndef __getattr__(name):\n    return _kept()\n",
    }
    assert _unreferenced_private_defs(sources) == ["a._Gone", "a._left"]
    assert _unreferenced_private_defs({"c": "def _f():\n    pass\n\nx = _f\n"}) == []


def test_every_private_definition_is_referenced_in_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert _unreferenced_private_defs(sources) == []


def _undocumented_derived_keys(sources: dict, doc: str) -> list:
    """"module: key" for each string key written as ``_derived["key"]`` that the docstring does not name as "key"."""
    missing = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "_derived" and isinstance(node.slice, ast.Constant)
                    and isinstance(node.slice.value, str) and f'"{node.slice.value}"' not in doc):
                missing.add(f"{module}: {node.slice.value}")
    return sorted(missing)


def test_undocumented_derived_key_check_fires():
    sources = {"a": 'c._derived["kept"] = 1\nx = c._derived["new"]\n', "b": 'd.dual._derived["other"] = 2\n'}
    assert _undocumented_derived_keys(sources, 'holds "kept"; also other') == ["a: new", "b: other"]
    assert _undocumented_derived_keys({"c": 'c._derived.get("any")\nc._derived[k] = 1\n'}, "") == []


def test_every_derived_key_is_named_in_the_coalgebra_docstring():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert _undocumented_derived_keys(sources, purecoalg.Coalgebra.__doc__) == []


def _tuples_from_iterators(sources: dict) -> list:
    """"module:line" for each tuple grown from an iterator: ``tuple(<generator>)``, ``tuple(map(...))`` or ``f(*<generator>)``.

    CPython builds such a tuple at a guessed size and resizes it, so it is
    taken from the free list of one size and returned to that of another;
    the spare tuples of each size then pile up, up to 2,000 of them, and
    the process holds that memory for good.  Built from a list, a tuple is
    taken and returned at one size.
    """
    found = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            args = [a.value for a in node.args if isinstance(a, ast.Starred)]
            if isinstance(node.func, ast.Name) and node.func.id == "tuple" and len(node.args) == 1:
                args.append(node.args[0])
            for a in args:
                if isinstance(a, ast.GeneratorExp) or (
                        isinstance(a, ast.Call) and isinstance(a.func, ast.Name) and a.func.id in ("map", "filter")):
                    found.add(f"{module}:{node.lineno}")
    return sorted(found)


def test_tuple_from_iterator_check_fires():
    sources = {"a": "x = tuple(v for v in r)\ny = f(1, *(v for v in r))\n", "b": "z = tuple(map(int, r))\n"}
    assert _tuples_from_iterators(sources) == ["a:1", "a:2", "b:1"]
    assert _tuples_from_iterators({"c": "x = tuple([v for v in r])\ny = f(*[v for v in r])\nz = tuple(r)\n"}) == []


def test_no_tuple_is_grown_from_an_iterator():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert _tuples_from_iterators(sources) == []


def _kind_tests(sources: dict) -> list:
    """"module.definition" for each ``.kind`` read outside ``rings``, named by the top-level definition holding it."""
    found = []
    for module, source in sources.items():
        if module != "rings":
            for node in ast.parse(source).body:
                owner = getattr(node, "name", "<module>")
                found += [f"{module}.{owner}" for sub in ast.walk(node)
                          if isinstance(sub, ast.Attribute) and sub.attr == "kind"]
    return sorted(found)


def test_kind_test_check_fires():
    sources = {
        "a": "def f(r):\n    return r.kind == 'Fp'\n\nclass K:\n    def g(self):\n        return self.ring.kind\n",
        "b": "x = ring.kind\n",
        "rings": "def h(r):\n    return r.kind\n",
    }
    assert _kind_tests(sources) == ["a.K", "a.f", "b.<module>"]
    assert _kind_tests({"c": "def f(r):\n    return r.modulus, r.kinds, kind\n"}) == []


def test_no_ring_kind_test_that_the_modulus_serves():
    # every ring dispatch outside rings reads Ring.modulus, Ring.is_field or a ring method
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert _kind_tests(sources) == []


def _hermite_importers(sources: dict) -> list:
    """"module.name" for each import of a Hermite kernel that the module may not use.

    Outside ``matrix`` and ``lattice`` no module imports ``left_kernel_rows``
    or ``from_integer_hermite``, and ``structure`` and ``simplicial``, which
    work on Matrix and Lattice, import no ``hnf`` either.
    """
    found = []
    for module, source in sources.items():
        if module in ("matrix", "lattice"):
            continue
        banned = {"left_kernel_rows", "from_integer_hermite"}
        if module in ("structure", "simplicial"):
            banned.add("hnf")
        found += [f"{module}.{alias.name}" for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) for alias in node.names if alias.name in banned]
    return sorted(found)


def test_hermite_importer_check_fires():
    sources = {
        "a": "from .matrix import Matrix, left_kernel_rows\n",
        "b": "def f():\n    from purecoalg.matrix import from_integer_hermite\n",
        "lattice": "from .matrix import from_integer_hermite, left_kernel_rows\n",
    }
    assert _hermite_importers(sources) == ["a.left_kernel_rows", "b.from_integer_hermite"]
    assert _hermite_importers({"c": "from .lattice import kernel_lattice\nx = left_kernel_rows\n"}) == []
    structure_layer = {
        "structure": "from .matrix import Matrix, hnf\n",
        "simplicial": "def f():\n    from purecoalg.matrix import hnf\n",
        "coalgebra": "from .matrix import Matrix, hnf\n",
    }
    assert _hermite_importers(structure_layer) == ["simplicial.hnf", "structure.hnf"]


def test_only_the_lattice_module_forms_kernels_from_integer_eliminations():
    # every other module takes its kernels through lattice.kernel_lattice, over whichever ring it needs,
    # and the structure layer its eliminations through Matrix and Lattice
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert _hermite_importers(sources) == []


def _lattice_imports(source: str) -> list:
    """Each import from ``purecoalg.lattice`` in the source, as "module.name"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "lattice":
            found += [f"lattice.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[-1] == "lattice"]
    return found


def test_lattice_import_check_fires():
    assert _lattice_imports("from .lattice import Lattice\n") == ["lattice.Lattice"]
    assert _lattice_imports("def f():\n    from purecoalg.lattice import kernel_lattice\n") == [
        "lattice.kernel_lattice"]
    assert _lattice_imports("import purecoalg.lattice\n") == ["purecoalg.lattice"]
    assert _lattice_imports("from .matrix import Matrix\nLattice = None\n") == []


def test_simplicial_imports_nothing_from_lattice():
    # homology and the mapping cone read the alternating face sum of the levels: no quotient, no lattice
    assert _lattice_imports((PACKAGE / "simplicial.py").read_text(encoding="utf-8")) == []
