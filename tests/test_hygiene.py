"""Static checks on the package source: no unused import, no dead code,
no unread parameter, no refusal that hides its stage.

Every module of ``src/supportmonoids`` is parsed with ``ast``.  An
import is used when the module reads the name it binds, or lists it in
its ``__all__``.  A module-level function, class or constant (a name
bound by a plain or annotated assignment, dunders aside) is alive when
the package's ``__all__`` lists it, or when some module of the package
reads or imports its name outside the definition itself.  A parameter
of a function or lambda is alive when its body reads it.
"""

import ast
import collections
import pathlib

PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "supportmonoids"


def _modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _exported(tree) -> set:
    """The string entries of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)}
    return set()


def _public() -> set:
    """The package's ``__all__``, read from the package: the names of its
    lazy exports are the keys of ``_LAZY``, not string entries."""
    import supportmonoids
    return set(supportmonoids.__all__)


def _references(node) -> collections.Counter:
    """Names read, attributes taken and names imported below node."""
    seen = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            seen[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            seen[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            seen.update(alias.name for alias in sub.names)
    return seen


def _bound_imports(tree):
    """(line, bound name) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_every_import_is_used():
    unused = []
    for name, tree in _modules().items():
        reads = {sub.id for sub in ast.walk(tree)
                 if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        used = reads | _exported(tree)
        unused += [f"{name}:{line}: {bound}"
                   for line, bound in _bound_imports(tree) if bound not in used]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _defined_names(node):
    """The names a module-level statement defines: a function or class,
    or the plain names an assignment binds, dunders such as __all__ or a
    module's __getattr__, which the interpreter reads, excluded."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [] if node.name.startswith("__") else [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for t in targets
            if isinstance(t, ast.Name) and not t.id.startswith("__")]


def test_every_module_level_definition_is_used():
    modules = _modules()
    public = _public()
    everywhere = collections.Counter()
    for tree in modules.values():
        everywhere.update(_references(tree))
    dead = []
    for name, tree in modules.items():
        for node in tree.body:
            for defined in _defined_names(node):
                if defined in public:
                    continue
                outside = everywhere[defined] - _references(node)[defined]
                if outside <= 0:
                    dead.append(f"{name}:{node.lineno}: {defined}")
    assert not dead, "definitions nothing uses:\n" + "\n".join(dead)


def _parameters(node):
    args = node.args
    every = (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
    return [a.arg for a in every if a is not None]


def test_every_parameter_is_read():
    """A parameter that its function's body never reads is a knob nobody
    turns.  Dunder methods, the receivers ``self`` and ``cls``, and
    parameters whose name starts with an underscore are exempt."""
    unread = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Lambda):
                label, body = "lambda", [node.body]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                label, body = node.name, node.body
            else:
                continue
            reads = {sub.id for stmt in body for sub in ast.walk(stmt)
                     if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            unread += [f"{name}:{node.lineno}: {label}({p})" for p in _parameters(node)
                       if p not in reads and not p.startswith("_")
                       and p not in ("self", "cls")]
    assert not unread, "parameters nothing reads:\n" + "\n".join(unread)


# Parameters that take vectors from a caller; ``semiring`` is exempt, as
# its arithmetic and format helpers leave entries unchecked.
VECTOR_PARAMETERS = {"x", "gens", "m1", "m2", "a", "b"}


def test_every_public_query_is_in_the_boundary_table():
    """A public function outside ``semiring`` that takes a vector from its
    caller is listed in ``test_boundary.BOUNDARY``, so a new public query
    cannot skip the entry test."""
    from test_boundary import BOUNDARY
    listed = {name for name, *_ in BOUNDARY}
    modules = _modules()
    public = _public()
    missing = [f"{name}:{node.lineno}: {node.name}"
               for name, tree in modules.items() if name != "semiring.py"
               for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name in public
               and VECTOR_PARAMETERS & set(_parameters(node)) and node.name not in listed]
    assert not missing, "public queries missing from the boundary table:\n" + "\n".join(missing)


# Parameters that take a count from a caller: a bound or a state cap.
COUNT_PARAMETERS = {"bound", "max_states"}


def test_every_public_count_is_in_the_boundary_table():
    """A public function that takes a count is listed in
    ``test_boundary.COUNTS``, so a new one cannot skip its entry check."""
    from test_boundary import COUNTS
    listed = {name for name, *_ in COUNTS}
    modules = _modules()
    public = _public()
    missing = [f"{name}:{node.lineno}: {node.name}"
               for name, tree in modules.items()
               for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name in public
               and COUNT_PARAMETERS & set(_parameters(node)) and node.name not in listed]
    assert not missing, "public counts missing from the boundary table:\n" + "\n".join(missing)


def _names_a_stage(message) -> bool:
    """Does a message start with a stage name and ": ", as a literal or
    as the field ``{stage}``?"""
    if isinstance(message, ast.JoinedStr):
        head, *rest = message.values
        if isinstance(head, ast.FormattedValue):
            return (isinstance(head.value, ast.Name) and head.value.id == "stage"
                    and bool(rest) and isinstance(rest[0], ast.Constant)
                    and rest[0].value.startswith(": "))
        message = head
    if not (isinstance(message, ast.Constant) and isinstance(message.value, str)):
        return False
    stage, colon, _ = message.value.partition(": ")
    return bool(colon) and stage.isidentifier()


def test_every_refusal_names_its_stage():
    """Every ``ResourceLimitError(...)`` built in the package says which
    stage refused, so a refusal read from the CLI or a log points at its
    loop.  A re-raise of a stored refusal's ``*args`` is exempt."""
    nameless = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "ResourceLimitError"):
                continue
            if any(isinstance(arg, ast.Starred) for arg in node.args):
                continue
            if not (node.args and _names_a_stage(node.args[0])):
                nameless.append(f"{name}:{node.lineno}")
    assert not nameless, "refusals that name no stage:\n" + "\n".join(nameless)


def _exits(node) -> set:
    """Lines below node that name ``_exit``: an attribute, a name or an import."""
    return {sub.lineno for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and sub.attr == "_exit"
            or isinstance(sub, ast.Name) and sub.id == "_exit"
            or isinstance(sub, ast.ImportFrom) and any(a.name == "_exit" for a in sub.names)}


def test_only_cli_run_ends_the_process():
    """``os._exit`` skips every flush, exit handler and finalizer, so only
    ``cli.run``, the entry point of a cold run, may call it.  A fast exit
    in ``main`` or in library code would end the test process, or a
    launcher that calls ``main`` and writes its own record afterwards."""
    modules = _modules()
    run = next(node for node in modules["cli.py"].body
               if isinstance(node, ast.FunctionDef) and node.name == "run")
    inside = {f"cli.py:{line}" for line in _exits(run)}
    everywhere = {f"{name}:{line}" for name, tree in modules.items() for line in _exits(tree)}
    assert inside, "cli.run no longer ends the process with os._exit"
    outside = sorted(everywhere - inside)
    assert not outside, "os._exit outside cli.run:\n" + "\n".join(outside)


# The methods of ``SystemOfSupports`` that build its sets of coordinates.
# The record methods of ``semiring.Record`` read ``families`` by name.
SETS_BOUNDARY = {"S", "families", "to_json"}


def test_systems_of_supports_are_read_through_their_masks():
    """Inside the package, only the boundary of ``SystemOfSupports``
    reads ``.S`` or ``.families``: every other reader of a system of
    supports goes through its mask listing, ``_masks``, and ``_family``,
    so no library call builds a frozenset per support set."""
    modules = _modules()
    allowed = set()
    for node in modules["supports.py"].body:
        if isinstance(node, ast.ClassDef) and node.name == "SystemOfSupports":
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and method.name in SETS_BOUNDARY:
                    allowed.update(map(id, ast.walk(method)))
    readers = [f"{name}:{sub.lineno}: .{sub.attr}"
               for name, tree in modules.items() for sub in ast.walk(tree)
               if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
               and sub.attr in ("S", "families") and id(sub) not in allowed]
    assert not readers, "sets read outside the boundary:\n" + "\n".join(readers)


def _bit_tests(node, names):
    """The nodes below node of the form ``m >> j & 1`` with j in names."""
    return [sub for sub in ast.walk(node)
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.BitAnd)
            and isinstance(sub.right, ast.Constant) and sub.right.value == 1
            and isinstance(sub.left, ast.BinOp) and isinstance(sub.left.op, ast.RShift)
            and isinstance(sub.left.right, ast.Name) and sub.left.right.id in names]


def test_masks_are_projected_and_injected_in_semiring():
    """Outside ``semiring``, no comprehension tests a bit of a mask with
    its own loop variable (``h >> j & 1``): a vector over the complement
    of a mask is read only by ``semiring._inject_all`` and
    ``_project_all``, so no module re-derives the coordinate layout.
    ``hilbert._Fields.unpack_truncated`` is exempt: its ``key >> j & 1``
    reads a packed-word key, not a support mask."""
    modules = _modules()
    exempt = set()
    for node in modules["hilbert.py"].body:
        if isinstance(node, ast.ClassDef) and node.name == "_Fields":
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and method.name == "unpack_truncated":
                    exempt.update(map(id, ast.walk(method)))
    comprehensions = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
    found = set()
    for name, tree in modules.items():
        if name == "semiring.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, comprehensions) and id(node) not in exempt:
                own = {sub.id for gen in node.generators for sub in ast.walk(gen.target)
                       if isinstance(sub, ast.Name)}
                found.update(f"{name}:{sub.lineno}" for sub in _bit_tests(node, own))
    assert not found, "mask layouts read outside semiring:\n" + "\n".join(sorted(found))
