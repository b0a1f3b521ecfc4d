"""Every optional parameter of the library is set by a caller outside the
tests.

A default that no call in ``src/`` or ``perfbench/`` overrides is a
configuration only the tests exercise; it belongs in a module constant,
which a test that needs another value monkeypatches. The scan parses the
sources with ``ast``; it imports and runs nothing.

Rules of the scan:

- A call is matched to a definition by name (``f(...)`` and
  ``obj.f(...)`` both match every ``def f`` their arguments fit); a class
  name matches its ``__init__`` or ``__new__`` or, for a dataclass, its
  fields.
- A parameter is set by a call that passes it by keyword or reaches its
  position. Arguments spread from ``*args`` or ``**kwargs`` are not
  assumed to reach it.
- An argument that only forwards an optional parameter of the enclosing
  function (``def g(tol=1e-9): f(tol)``) sets nothing unless that
  parameter is set in turn.
- A ``**kw`` parameter is set by a call that passes a keyword the
  definition does not name.
"""

import ast
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "muellerkit").glob("*.py"))
SOURCES = sorted(p for d in ("src", "perfbench")
                 for p in (ROOT / d).rglob("*.py"))

# (function, parameter) kept although no call sets it.
ALLOWED = {
    # Every generator takes the same (seed, rng) pair; the callers of
    # these happen to pass only one of the two.
    ("rotation_dataset", "seed"),
    ("random_lorentz", "seed"),
    ("sample_little", "rng"),
    # The one-pair reference that the tests compare the stacked _validate
    # against.
    ("k_from_expansion", "normalize"),
    # Set by lorentz.apply through from_array's cls(...) call, which the
    # name match cannot see.
    ("StokesVector", "validate"),
}


def _is_dataclass(cls):
    for d in cls.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


# pos: positional names (self dropped); optional: the defaulted names;
# named: every name; kwarg: the **kw name or None; varargs: has *args.
Def = namedtuple("Def", "name pos optional named kwarg varargs")


def _function(fn, name, method):
    a = fn.args
    pos = [p.arg for p in a.posonlyargs + a.args]
    optional = pos[len(pos) - len(a.defaults):] if a.defaults else []
    optional += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                 if d is not None]
    if method and not any(getattr(d, "id", None) == "staticmethod"
                          for d in fn.decorator_list):
        pos = pos[1:]
    named = set(pos) | {p.arg for p in a.kwonlyargs}
    return Def(name, pos, optional, named, a.kwarg.arg if a.kwarg else None,
               a.vararg is not None)


def _scan(tree):
    """Definitions and calls of one module.

    A call is (name, positional args, {keyword: arg}, the definition the
    call sits in or None).
    """
    defs, calls = [], []

    def visit(node, cls, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = (cls.name if cls is not None
                        and child.name in ("__init__", "__new__")
                        else child.name)
                d = _function(child, name, cls is not None)
                defs.append(d)
                visit(child, None, d)
                continue
            if isinstance(child, ast.ClassDef) and _is_dataclass(child):
                fields = [s for s in child.body
                          if isinstance(s, ast.AnnAssign)
                          and isinstance(s.target, ast.Name)]
                pos = [s.target.id for s in fields]
                defs.append(Def(child.name, pos,
                                [s.target.id for s in fields
                                 if s.value is not None], set(pos), None,
                                False))
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(
                    f, "attr", None)
                if name is not None:
                    calls.append((
                        name,
                        [a for a in child.args
                         if not isinstance(a, ast.Starred)],
                        {k.arg: k.value for k in child.keywords
                         if k.arg is not None},
                        enclosing))
            visit(child, child if isinstance(child, ast.ClassDef) else cls,
                  enclosing)

    visit(tree, None, None)
    return defs, calls


def _fits(call, fn):
    _, args, kws, _ = call
    return ((len(args) <= len(fn.pos) or fn.varargs)
            and (set(kws) <= fn.named or fn.kwarg is not None))


def unset_options():
    """Sorted 'module.function(parameter)' for every defaulted parameter
    of the library that no call sets."""
    library, defs, calls = [], [], {}
    for path in SOURCES:
        d, c = _scan(ast.parse(path.read_text(), str(path)))
        defs += d
        if path in LIBRARY:
            library += [(path.stem, fn) for fn in d]
        for call in c:
            calls.setdefault(call[0], []).append(call)

    def sets(call, fn, p, is_set):
        _, args, kws, enclosing = call
        arg = kws.get(p)
        if arg is None and p in fn.pos and fn.pos.index(p) < len(args):
            arg = args[fn.pos.index(p)]
        if arg is None:
            return False
        if (enclosing is not None and isinstance(arg, ast.Name)
                and arg.id in enclosing.optional):
            return (enclosing.name, arg.id) in is_set
        return True

    def sites(fn):
        return [c for c in calls.get(fn.name, []) if _fits(c, fn)]

    is_set = set(ALLOWED)
    grew = True
    while grew:
        grew = False
        for fn in defs:
            for p in fn.optional:
                if (fn.name, p) not in is_set and any(
                        sets(c, fn, p, is_set) for c in sites(fn)):
                    is_set.add((fn.name, p))
                    grew = True

    unset = []
    for module, fn in library:
        unset += [f"{module}.{fn.name}({p})" for p in fn.optional
                  if (fn.name, p) not in is_set]
        if fn.kwarg and not any(set(c[2]) - fn.named for c in sites(fn)):
            unset.append(f"{module}.{fn.name}(**{fn.kwarg})")
    return sorted(unset)


def test_every_optional_parameter_is_set_by_a_caller():
    unset = unset_options()
    assert not unset, (
        f"{len(unset)} optional parameter(s) that no call sets; make each "
        "a module constant or justify it in ALLOWED: " + ", ".join(unset))


def test_allowed_entries_still_exist():
    # A stale entry would hide a future parameter of the same name.
    defs = {(fn.name, p) for path in LIBRARY
            for fn in _scan(ast.parse(path.read_text(), str(path)))[0]
            for p in fn.optional}
    assert ALLOWED <= defs
