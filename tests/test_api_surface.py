"""The package's surface: every public name has a caller or a reason, every
private module-level function and constant a reader; and the tests'
references stay apart from the package."""

import ast
import pathlib

import references
import rsplab

# Public names that no module of the package uses, each with why it stays.
KEEP = {
    "sample_unital_local": "the scalar reference route that the batched "
                           "monotonicity suite's draws are tested against",
    "evolve_closed_form": "acceptance criterion 04 compares it with apply_local",
    "enhancibility_margin": "acceptance criterion 09 reads the criterion's margin",
    "local_unitary": "acceptance criterion 13 checks local-unitary invariance",
    "random_unitary": "acceptance criterion 13 draws its local unitaries",
    "f_under_damping": "the documented scalar API of the damped fidelity",
    "dg_under_damping": "the documented scalar API of the damped discord",
    "is_enhancible": "the documented scalar API of the enhancement verdict",
}

# What tests/references.py may import from the package: the result types
# that its trace reader rebuilds.
REFERENCE_IMPORTS = {("rsplab.enhancement", "EvolutionTrace"),
                     ("rsplab.enhancement", "SuddenChange")}


def _package_trees():
    """Syntax trees of the package's modules other than ``__init__``, and
    every name they read: names, attributes and imported names."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in pathlib.Path(rsplab.__file__).parent.glob("*.py")}
    trees.pop("__init__")
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return trees, used


def _unused_public_names():
    """Public module-level functions and classes of the package, and public
    methods of those classes, that no module other than ``__init__`` names."""
    trees, used = _package_trees()
    defined = []
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            if isinstance(node, ast.ClassDef):
                defined += [sub.name for sub in node.body if isinstance(sub, ast.FunctionDef)]
    return {name for name in defined if not name.startswith("_") and name not in used}


def _unused_private_names():
    """Private module-level functions and constants of the package that no
    module reads."""
    trees, used = _package_trees()
    defined = set()
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defined.add(name.id)
    return {name for name in defined
            if name.startswith("_") and not name.startswith("__") and name not in used}


def test_public_names_are_used_or_kept():
    assert _unused_public_names() == set(KEEP)
    assert len(KEEP) <= 8  # the keep list only shrinks
    for name in rsplab.__all__:
        assert hasattr(rsplab, name), name


def test_private_names_are_used():
    # a private helper or constant that nothing reads is left over from a fold
    assert _unused_private_names() == set()


def test_references_import_nothing_else_from_the_package():
    imported = set()
    for node in ast.walk(ast.parse(pathlib.Path(references.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported |= {(alias.name, None) for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {(node.module, alias.name) for alias in node.names}
    assert {(module, name) for module, name in imported
            if module and module.split(".")[0] == "rsplab"} == REFERENCE_IMPORTS


def test_text_imports_nothing_from_the_package():
    # the number-to-text module is a leaf: stdlib and numpy only
    tree = ast.parse((pathlib.Path(rsplab.__file__).parent / "text.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, node.module
            imported.add(node.module.split(".")[0])
    assert imported <= {"dataclasses", "functools", "json", "math", "sys", "numpy"}


def _reads_numpy_random(node) -> bool:
    """Whether a syntax node reads ``np.random`` or ``numpy.random``, or
    names ``Generator``."""
    if isinstance(node, ast.Attribute):
        return (node.attr == "Generator" or (node.attr == "random"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")))
    if isinstance(node, ast.Name):
        return node.id == "Generator"
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.random") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return ((node.module or "").startswith("numpy.random")
                or (node.module == "numpy" and any(a.name == "random" for a in node.names)))
    return False


def test_only_oracles_and_seeding_draw():
    # every random input is drawn in oracles, from the trial streams that
    # seeding computes; the other modules build and evaluate, never draw
    drawing = {path.stem for path in pathlib.Path(rsplab.__file__).parent.glob("*.py")
               if any(map(_reads_numpy_random, ast.walk(ast.parse(path.read_text()))))}
    assert drawing == {"oracles", "seeding"}


def test_only_bell_params_check_themselves():
    # result records hold values; each invariant is checked where its value
    # is computed, and only the input triple checks itself on construction
    trees, _ = _package_trees()
    checking = {f"{stem}.{node.name}" for stem, tree in trees.items()
                for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                and any(isinstance(sub, ast.FunctionDef) and sub.name == "__post_init__"
                        for sub in node.body)}
    assert checking == {"states.BellDiagonalParams"}


def _names(node):
    """Every name that node and its children read or import: names,
    attributes and imported names, not the names of definitions."""
    return {sub.name if isinstance(sub, ast.alias) else getattr(sub, "attr", getattr(sub, "id", None))
            for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute, ast.alias))}


EIGENSOLVERS = {"eig", "eigh", "eigvals", "eigvalsh", "psd_lowest"}


def test_only_coefficients_decides_a_state():
    # the package's one positivity check is the state's: across states,
    # channels and linalg, only states._coefficients names psd_lowest, no
    # statement outside a function does, and channels, whose Kraus sets are
    # CP by construction, names no eigensolver at all
    trees, _ = _package_trees()
    callers = {f"{stem}.{node.name}" for stem in ("states", "channels", "linalg")
               for node in ast.walk(trees[stem])
               if isinstance(node, ast.FunctionDef) and "psd_lowest" in _names(node)}
    assert callers == {"states._coefficients"}
    for stem in ("states", "channels", "linalg"):
        assert not any("psd_lowest" in _names(node) for node in trees[stem].body
                       if not isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    assert not _names(trees["channels"]) & EIGENSOLVERS
