"""The package holds only what runs use: every public top-level function,
class, method and property of `src/fedme` is referenced by the package's own
code, a demo, or the benchmark's tracer, and every private one by the
package's own code. Code that only tests use lives in `tests/reference.py`.
Names are matched without their receiver's type, so each public method or
property name that several classes define is listed with its uses."""
import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "fedme")
DEMOS = os.path.join(ROOT, "demos")

# the checkpoint format's reader: users load `client_<i>.model` with it
EXEMPT = {"nn.deserialize_model"}

# Each public method or property name that several package classes define,
# with a use of each class's. A new shared name fails the test below until
# its uses are reviewed and listed here.
SHARED = {
    "n": {"data.Dataset": "data.dirichlet_partition reads dataset.n",
          "data.ClientShard": "cli._cmd_partition reads shard.n"},
}


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


def _attributes(tree):
    """The attribute names the code refers to: a method or property is only
    reached as one. A name that arrays share, such as `copy`, counts as used
    wherever an array's is."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _methods(modules):
    """('module.Class', name) of each non-dunder method or property of the
    classes of `modules`."""
    return [(f"{module}.{cls.name}", node.name) for module, tree in modules.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, ast.FunctionDef)
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _unused_methods(modules, used, private):
    """'module.Class.name' of each method or property of `_methods`, private
    or public as `private` says, whose name is not in `used`."""
    return [f"{cls}.{name}" for cls, name in _methods(modules)
            if name.startswith("_") == private and name not in used]


def _used_outside_the_tests(modules, referenced=_referenced):
    return set().union(*map(referenced, modules.values()),
                       *(referenced(_parse(os.path.join(DEMOS, name)))
                         for name in os.listdir(DEMOS) if name.endswith(".py")))


def test_every_public_function_and_class_is_used_outside_the_tests():
    modules = _modules()
    allowed = _traced() | EXEMPT
    assert [name for name in _unused(modules, _used_outside_the_tests(modules),
                                     private=False)
            if name not in allowed] == []


def test_every_private_function_and_class_has_a_caller_in_the_package():
    modules = _modules()
    assert _unused(modules, set().union(*map(_referenced, modules.values())),
                   private=True) == []


def test_every_public_method_and_property_is_used_outside_the_tests():
    modules = _modules()
    traced = {name.split(".")[1] for name in _traced()}
    used = _used_outside_the_tests(modules, _attributes) | traced
    assert _unused_methods(modules, used, private=False) == []


def test_every_private_method_has_a_caller_in_the_package():
    modules = _modules()
    assert _unused_methods(modules, set().union(*map(_attributes, modules.values())),
                           private=True) == []


def test_every_shared_public_method_name_is_listed():
    owners = {}
    for cls, name in _methods(_modules()):
        if not name.startswith("_"):
            owners.setdefault(name, set()).add(cls)
    assert {name: classes for name, classes in owners.items() if len(classes) > 1} == {
        name: set(uses) for name, uses in SHARED.items()}
