"""The package holds only what runs use: every public top-level function and
class of `src/fedme` is referenced by the package's own code, a demo, or
the benchmark's tracer, and every private one by the package's own code.
Code that only tests use lives in `tests/reference.py`."""
import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "fedme")
DEMOS = os.path.join(ROOT, "demos")

# the checkpoint format's reader: users load `client_<i>.model` with it
EXEMPT = {"nn.deserialize_model"}


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _referenced(tree):
    """The names and attribute names the code refers to; a name inside a
    string or docstring does not count."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def _traced():
    """'layer.function' for every function in the tracer's `TARGETS`."""
    tree = _parse(os.path.join(ROOT, "perfbench", "tracer.py"))
    (targets,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["TARGETS"]]
    return {f"{layer}.{name}" for layer, names in ast.literal_eval(targets).items()
            for name in names}


def _modules():
    """Each package module but `__init__.py`, parsed, by module name."""
    return {name[:-3]: _parse(os.path.join(PACKAGE, name))
            for name in sorted(os.listdir(PACKAGE))
            if name.endswith(".py") and name != "__init__.py"}


def _unused(modules, used, private):
    """'module.name' of each top-level function and class of `modules`,
    private or public as `private` says, whose name is not in `used`."""
    return [f"{module}.{node.name}" for module, tree in modules.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private and node.name not in used]


def test_every_public_function_and_class_is_used_outside_the_tests():
    modules = _modules()
    used = set().union(*map(_referenced, modules.values()),
                       *(_referenced(_parse(os.path.join(DEMOS, name)))
                         for name in os.listdir(DEMOS) if name.endswith(".py")))
    allowed = _traced() | EXEMPT
    assert [name for name in _unused(modules, used, private=False)
            if name not in allowed] == []


def test_every_private_function_and_class_has_a_caller_in_the_package():
    modules = _modules()
    assert _unused(modules, set().union(*map(_referenced, modules.values())),
                   private=True) == []
