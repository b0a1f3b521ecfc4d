"""Every MuellerKitError subclass is raised somewhere in the library.

An error class that nothing raises is API that no caller can meet; it
belongs deleted with its export. The scan parses the sources with
``ast``; it imports and runs nothing.

Rules of the scan:

- The classes are those of ``errors.py`` derived, directly or through
  another such class, from ``MuellerKitError``.
- A class is raised by ``raise C(...)``, ``raise C`` or
  ``raise module.C(...)`` in any module of ``src/muellerkit``.
"""

import ast
from pathlib import Path

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "muellerkit"


def error_classes():
    tree = ast.parse((LIBRARY / "errors.py").read_text())
    found = {"MuellerKitError"}
    grew = True
    while grew:
        grew = False
        for node in tree.body:
            if (isinstance(node, ast.ClassDef) and node.name not in found
                    and any(getattr(b, "id", None) in found
                            for b in node.bases)):
                found.add(node.name)
                grew = True
    return found - {"MuellerKitError"}


def raised_names():
    names = set()
    for path in LIBRARY.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                names.add(getattr(exc, "id", getattr(exc, "attr", None)))
    return names


def test_every_error_class_is_raised():
    classes = error_classes()
    assert len(classes) >= 10  # the scan found the hierarchy
    unraised = sorted(classes - raised_names())
    assert not unraised, (
        "MuellerKitError subclasses that nothing in src/ raises: "
        + ", ".join(unraised))
