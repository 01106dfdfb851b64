"""The package's public surface: every public name has a caller or a reason."""

import ast
import pathlib

import rsplab

# Public names that no module of the package uses, each with why it stays.
KEEP = {
    "affine_to_kraus": "the tests' independent route from (t, T) to a channel",
    "rotation_axis_angle": "the tests' independent reference for su2_axis_angle",
    "sample_unital_local": "the single-pair sampler the benchmark times and the "
                           "monotonicity suite's draws are tested against",
    "evolve_closed_form": "acceptance criterion 04 compares it with apply_local",
    "enhancibility_margin": "acceptance criterion 09 reads the criterion's margin",
    "local_unitary": "acceptance criterion 13 checks local-unitary invariance",
    "random_unitary": "acceptance criterion 13 draws its local unitaries",
    "f_under_damping": "the documented scalar API of the damped fidelity",
    "dg_under_damping": "the documented scalar API of the damped discord",
    "is_enhancible": "the documented scalar API of the enhancement verdict",
    "parse_trace_csv": "the reader the CLI tests run on evolve's output",
    "parse_scan_csv": "the reader the CLI tests run on scan's output",
}


def _unused_public_names():
    """Public module-level functions and classes of the package, and public
    methods of those classes, that no module other than ``__init__`` names."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in pathlib.Path(rsplab.__file__).parent.glob("*.py")}
    trees.pop("__init__")
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    defined = []
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            if isinstance(node, ast.ClassDef):
                defined += [sub.name for sub in node.body if isinstance(sub, ast.FunctionDef)]
    return {name for name in defined if not name.startswith("_") and name not in used}


def test_public_names_are_used_or_kept():
    assert _unused_public_names() == set(KEEP)
    for name in rsplab.__all__:
        assert hasattr(rsplab, name), name
