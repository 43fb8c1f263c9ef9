"""Every public name of the package has a caller besides its unit tests.

Each name in a module's ``__all__`` must be imported from that module by
another module of the package that loads it, or be loaded by name in its
own module outside its own definition.  A load inside an argument, return
or variable annotation does not count: it runs nothing.  A name that only
tests call is surface with no user, and goes.  So does a public method of
a public class that nothing under ``src/`` uses outside the method itself,
a module-level UPPER_CASE constant that nothing under ``src/`` reads, and
a dataclass field that nothing there reads as an attribute outside its own
class's ``__post_init__``.  A default that no call under ``src/``
overrides is an option with no user: every defaulted parameter of a public
function, and every defaulted init field of a public dataclass, is passed
by some call there.  README's list of config keys
names exactly the keys the code reads.  Only ``cli.main`` checks that a
plan read every key, and no run holds the config.
"""

import ast
import re
from pathlib import Path

import pytest

from ifsdim.cli import COMMANDS
from ifsdim.config import RunConfig, parse_config

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ifsdim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.glob("*.py"))
README = PACKAGE.parent.parent / "README.md"

# acceptance criterion c8 checks that the coding-space metric is an ultrametric
ALLOWED = {"comparison_distance"}


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _runtime_loads(tree: ast.Module, skip: frozenset[int] = frozenset()) -> set[str]:
    """Names loaded outside argument, return and variable annotations and
    outside the nodes of ``skip``."""
    roots = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    roots += [n.returns for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    hidden = skip | {id(node) for root in roots if root is not None for node in ast.walk(root)}
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and id(node) not in hidden
    }


def _imported_from(module: str, paths) -> set[str]:
    """Names imported from ``module`` (``.module`` or ``ifsdim.module``) by
    a module that loads them outside annotations."""
    names = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        loaded = _runtime_loads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in (module, f"ifsdim.{module}"):
                names.update(alias.name for alias in node.names if alias.name in loaded)
    return names


def _loaded_outside_definition(tree: ast.Module, name: str) -> bool:
    inside = frozenset(
        id(node)
        for definition in ast.walk(tree)
        if isinstance(definition, (ast.FunctionDef, ast.ClassDef)) and definition.name == name
        for node in ast.walk(definition)
    )
    return name in _runtime_loads(tree, inside)


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_every_public_name_has_a_caller_besides_its_tests(module):
    tree = ast.parse(module.read_text())
    exports = _exports(tree)
    assert exports, f"{module.name} declares no __all__"
    others = [p for p in SOURCES if p != module]
    imported = _imported_from(module.stem, others)
    unused = [
        name
        for name in exports
        if name not in imported
        and not _loaded_outside_definition(tree, name)
        and name not in ALLOWED
    ]
    assert unused == []


# public methods that only the tests call
UNCALLED = {
    "Report.canonical_body": "the determinism contract: the report tests pin it",
}


def _public_methods(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """``Class.method`` for every method of a class in ``__all__`` whose name
    has no leading underscore, with its definition."""
    public = set(_exports(tree))
    return {
        f"{cls.name}.{item.name}": item
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name in public
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    }


def test_every_public_method_is_used_outside_its_definition():
    # a use is an attribute load of the method's name under src/, matched by
    # name alone, outside the method's own body: a sibling method that calls
    # it counts, since that sibling is checked in turn
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    loads = [
        (node.attr, id(node))
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]
    unused = set()
    for tree in trees:
        for method, definition in _public_methods(tree).items():
            inside = {id(node) for node in ast.walk(definition)}
            name = method.split(".")[1]
            if not any(attr == name and at not in inside for attr, at in loads):
                unused.add(method)
    assert sorted(set(UNCALLED) - unused) == []  # every allowance is still needed
    assert sorted(unused - set(UNCALLED)) == []


def _constants(tree: ast.Module) -> list[str]:
    """Module-level assignments to UPPER_CASE names (a leading _ allowed)."""
    names = []
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names += [
            t.id
            for t in targets
            if isinstance(t, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id)
        ]
    return names


def _own_checks(tree: ast.Module) -> set[int]:
    """The ``self.<name>`` loads inside a class's own ``__post_init__``: a
    field only its own validation reads is still unread."""
    return {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and method.name == "__post_init__"
        for node in ast.walk(method)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }


def _reads() -> tuple[set[str], set[str]]:
    """Names read as variables, and names read as attributes, under src/.
    Attribute reads match by name alone, except that a class's
    ``__post_init__`` reading its own fields does not count."""
    names, attributes = set(), set()
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        own = _own_checks(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in own:
                attributes.add(node.attr)
    return names, attributes


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_every_module_constant_is_read(module):
    loaded = set.union(*_reads())
    unread = [name for name in _constants(ast.parse(module.read_text())) if name not in loaded]
    assert unread == []


def _dataclass_fields(tree: ast.Module) -> list[str]:
    """``Class.field`` for every annotated field of a ``@dataclass`` class."""
    fields = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            ast.unparse(d).startswith("dataclass") for d in node.decorator_list
        ):
            fields += [
                f"{node.name}.{item.target.id}"
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]
    return fields


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_every_dataclass_field_is_read(module):
    read = _reads()[1]
    fields = _dataclass_fields(ast.parse(module.read_text()))
    assert [f for f in fields if f.split(".")[1] not in read] == []


# defaults that only the tests override
UNPASSED = {
    "main.argv": "the console script calls main() on sys.argv; tests pass their own",
}


def _defaulted_parameters(tree: ast.Module) -> dict[str, list[tuple[str, int | None]]]:
    """Per public function or dataclass of ``__all__``, its defaulted
    parameters or init fields, each with its positional index (None when
    keyword-only)."""
    public = set(_exports(tree))
    defaulted = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in public:
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted[node.name] = [(a.arg, i) for i, a in enumerate(positional) if i >= first] + [
                (a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
        elif isinstance(node, ast.ClassDef) and node.name in public and any(
            ast.unparse(d).startswith("dataclass") for d in node.decorator_list
        ):
            fields = []
            for item in node.body:
                if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
                    continue
                value, options = item.value, {}
                if isinstance(value, ast.Call) and ast.unparse(value.func) == "field":
                    options = {k.arg: ast.unparse(k.value) for k in value.keywords}
                if options.get("init") == "False":
                    continue
                has_default = value is not None and (
                    not options or "default" in options or "default_factory" in options
                )
                fields.append((item.target.id, has_default))
            defaulted[node.name] = [(name, i) for i, (name, has) in enumerate(fields) if has]
    return defaulted


def _callee(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _passed_parameters(defaulted: dict) -> set[str]:
    """``function.parameter`` for each defaulted parameter that a call under
    src/ passes by position, by keyword, through ``**`` or ``*`` unpacking,
    or through ``functools.partial``.  Callees match by name alone."""
    passed = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name, args = _callee(node.func), node.args
            if name == "partial" and args:
                name, args = _callee(args[0]), args[1:]
            unpacked = any(isinstance(a, ast.Starred) for a in args) or any(
                k.arg is None for k in node.keywords
            )
            keywords = {k.arg for k in node.keywords}
            for parameter, index in defaulted.get(name, ()):
                if unpacked or parameter in keywords or (index is not None and index < len(args)):
                    passed.add(f"{name}.{parameter}")
    return passed


def test_every_default_is_passed_by_some_call():
    defaulted = {}
    for module in SOURCES:
        defaulted.update(_defaulted_parameters(ast.parse(module.read_text())))
    every = {f"{name}.{p}" for name, params in defaulted.items() for p, _ in params}
    unpassed = every - _passed_parameters(defaulted)
    assert sorted(set(UNPASSED) - unpassed) == []  # every allowance is still needed
    assert sorted(unpassed - set(UNPASSED)) == []


def test_readme_lists_exactly_the_config_keys_the_code_reads():
    # the code's keys are its "<section>.<key>" string literals; README's are
    # the backticked ones of its "Config keys" section, where
    # `dimension.r_min/r_max/r_count` stands for three
    read = {
        node.value
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and re.fullmatch(r"[a-z]+\.[a-z_]+", node.value)
    }
    section = README.read_text().split("### Config keys\n", 1)[1].split("\n## ", 1)[0]
    listed = {
        f"{m[1]}.{key}"
        for token in re.findall(r"`([^`]+)`", section)
        if (m := re.fullmatch(r"([a-z]+)\.([a-z_]+(?:/[a-z_]+)*)", token))
        for key in m[2].split("/")
    }
    assert sorted(read - listed) == [] and sorted(listed - read) == []


def test_only_main_checks_that_the_plan_read_every_key():
    sites = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        # ast.walk goes breadth first, so a nested function renames the owner
        # its enclosing function gave the nodes inside it
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), fn.name) for node in ast.walk(fn))
        sites += [
            (path.name, owner.get(id(node)))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "check_read"
        ]
    assert sites == [("cli.py", "main")]


# one plan per distinct run: bowen, scan, converge on a map family and on a
# gallery family, dimension and gibbs
PLANS = [
    ("bowen", "system.family = cantor\nsystem.ratios = 0.3,0.3"),
    ("scan", "system.family = golden\nscan.levels = 2:4"),
    ("converge", "system.family = golden"),
    ("converge", "system.family = gallery:leaking-block"),
    ("dimension", "system.family = cantor\nsystem.ratios = 0.3,0.3\nsample.seed = 1"),
    ("gibbs", "system.family = cantor\nsystem.ratios = 0.3,0.3"),
]


def test_no_run_holds_the_config():
    # a function nested in a run that read cfg would make it a free
    # variable of the run too
    free = {}
    for command, text in PLANS:
        run = COMMANDS[command](RunConfig(parse_config(text)))
        free[run.__qualname__] = run.__code__.co_freevars
    assert len(free) == len(PLANS)
    assert [name for name, names in free.items() if "cfg" in names] == []
