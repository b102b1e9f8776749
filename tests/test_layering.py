"""Package structure: every module imports at its top level, the package
needs only numpy at run time, and every public name (top-level, or a
member of a top-level class) is used by the package, and so is every
dataclass field: some module reads it as an attribute.

An import inside a function or under `if TYPE_CHECKING` is how a cycle
between modules gets hidden; the package keeps its imports acyclic instead.
Importing scipy costs more than a second of start-up per command, so the
package does not use it (tests may, as a reference). A public name that
nothing in the package references is code only tests call, and it belongs
in the tests; an exception would be listed with its reason.
"""

import ast
import importlib.util
import inspect
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "handcam"


def misplaced_imports(source: str) -> list[int]:
    """Line numbers of imports inside a function or an `if TYPE_CHECKING` block."""
    found = []

    def visit(node: ast.AST, nested: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if nested and isinstance(child, (ast.Import, ast.ImportFrom)):
                found.append(child.lineno)
            visit(
                child,
                nested
                or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                or (isinstance(child, ast.If) and "TYPE_CHECKING" in ast.dump(child.test)),
            )

    visit(ast.parse(source), False)
    return found


def test_detector_finds_each_form():
    source = (
        "import os\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from x import y\n"
        "def f():\n"
        "    import z\n"
        "class C:\n"
        "    def m(self):\n"
        "        from . import w\n"
    )
    assert misplaced_imports(source) == [4, 6, 9]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_at_module_top(path):
    assert misplaced_imports(path.read_text()) == []


def scipy_imports(source: str) -> list[int]:
    """Line numbers of imports of scipy or a scipy submodule."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(m == "scipy" or m.startswith("scipy.") for m in modules):
            found.append(node.lineno)
    return found


def test_scipy_detector():
    source = (
        "import scipy\n"
        "import numpy, scipy.fft\n"
        "from scipy.signal import fftconvolve\n"
        "from . import scipy_like\n"
        "import scipyx\n"
    )
    assert scipy_imports(source) == [1, 2, 3]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_import(path):
    assert scipy_imports(path.read_text()) == []


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, handcam.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), *sys.path]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# The in-package imports of every module: the import graph, declared. A module
# imports exactly what its row names, so a new edge between stages (or a
# module added) is a change to this table. The segment DP takes plain frame
# indices, so inference needs no stage but core.
IMPORTS = {
    "__init__": {"core"},
    "core": set(),
    "media": set(),
    "features": {"core", "media"},
    "synth": {"core", "media"},
    "alignment": {"core", "media"},
    "classify": {"core"},
    "change": {"classify", "core"},
    "inference": {"core"},
    "evaluation": {"core"},
    "discovery": {"core"},
    "crossval": {"change", "classify", "core", "inference"},
    "cli": {"__init__", "alignment", "change", "classify", "core", "crossval", "discovery",
            "evaluation", "features", "inference", "media", "synth"},
}


def package_imports(source: str, modules: set[str]) -> set[str]:
    """The modules of the package (named in `modules`; `__init__` for the
    package itself) that source imports, relatively or as `handcam`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name.split(".") for alias in node.names]
            found.update(parts[1] if len(parts) > 1 else "__init__"
                         for parts in names if parts[0] == "handcam")
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "handcam"
                                                   or node.module.startswith("handcam.")):
            module = (node.module or "").removeprefix("handcam").lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:  # `from . import x`: a module, or a name of the package itself
                found.update(a.name if a.name in modules else "__init__" for a in node.names)
    return found


def test_package_imports_detector():
    source = (
        "import numpy as np\n"
        "from . import __version__, change\n"
        "from .core import FeatureStream\n"
        "from handcam.media import load_ppm\n"
        "import handcam.features\n"
        "def f():\n"
        "    from .classify import train\n"
        "from handcamx import y\n"
    )
    assert package_imports(source, {"change", "classify", "core", "features", "media"}) == {
        "__init__", "change", "classify", "core", "features", "media"}


def test_imports_follow_the_declared_graph():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert sorted(sources) == sorted(IMPORTS)
    got = {module: package_imports(source, set(sources)) for module, source in sources.items()}
    assert got == IMPORTS


# public names nothing in the package references, each kept for a reason: none
UNREFERENCED_ALLOWED = {}


def name_uses(node: ast.AST) -> Counter:
    """How often each identifier appears as a name, an attribute or an import."""
    uses = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            uses[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            uses[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            uses[sub.name] += 1
    return uses


def public_definitions(tree: ast.Module) -> dict[str, tuple[str, ast.AST]]:
    """Top-level functions, classes and assigned names not starting with '_',
    and the methods, properties and static methods of each top-level class
    not starting with '_' (so no dunder): `qualified name -> (name, node)`."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            found.update((f"{node.name}.{member.name}", (member.name, member))
                         for member in node.body
                         if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and not member.name.startswith("_"))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        found.update((name, (name, node)) for name in names if not name.startswith("_"))
    return found


def unreferenced_names(sources: dict[str, str]) -> list[str]:
    """`module.name` (or `module.Class.member`) of each public definition
    whose name no module uses outside the definition itself."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = sum((name_uses(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for qualified, (name, node) in public_definitions(tree).items():
            if total[name] - name_uses(node)[name] == 0:
                found.append(f"{module}.{qualified}")
    return sorted(found)


def test_unreferenced_detector():
    sources = {
        "a": "def used():\n    return 1\ndef recursive(n):\n    return recursive(n)\n"
             "LIMIT = 3\ndef _private():\n    pass\n",
        "b": "from .a import used\nclass Kept:\n    pass\nx = Kept()\n",
    }
    assert unreferenced_names(sources) == ["a.LIMIT", "a.recursive", "b.x"]


def test_unreferenced_member_detector():
    # methods, properties and static methods count; dunders and private ones do not
    sources = {
        "core": "class LabelSpace:\n"
                "    def __post_init__(self):\n        self._check()\n"
                "    def _check(self):\n        pass\n"
                "    @property\n    def num_labels(self):\n        return 2\n"
                "    @property\n    def free_label(self):\n        return self.labels[0]\n"
                "    @staticmethod\n    def free_active():\n        return LabelSpace()\n",
        "cli": "from .core import LabelSpace\nprint(LabelSpace().num_labels)\n",
    }
    assert unreferenced_names(sources) == ["core.LabelSpace.free_active",
                                           "core.LabelSpace.free_label"]


def test_every_public_name_is_used():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_names(sources) == sorted(UNREFERENCED_ALLOWED)


def is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def unread_fields(sources: dict[str, str]) -> list[str]:
    """`module.Class.field` of each public field of a top-level dataclass
    whose name no module reads as an attribute: a field that is only ever
    stored is state nothing uses."""
    trees = [ast.parse(source) for source in sources.values()]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{module}.{node.name}.{field.target.id}"
                  for module, tree in zip(sources, trees) for node in tree.body
                  if isinstance(node, ast.ClassDef) and is_dataclass(node)
                  for field in node.body
                  if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
                  and not field.target.id.startswith("_") and field.target.id not in read)


def test_unread_field_detector():
    # a field only stored (by the constructor, or assigned) is unread; a read
    # through any object counts, and so does a read in another module
    sources = {
        "a": "from dataclasses import dataclass\n"
             "@dataclass(frozen=True)\nclass Box:\n"
             "    size: int\n    mask: object\n    _cache: int = 0\n    label: str = ''\n"
             "    def __post_init__(self):\n        self.mask = None\n"
             "@dataclass\nclass Pair:\n    left: int\n    right: int\n"
             "class Plain:\n    hidden: int\n",
        "b": "from .a import Box, Pair\n"
             "def area(b):\n    return b.size * Pair(1, 2).left\n"
             "print(area(Box(1, None)).label)\n",
    }
    assert unread_fields(sources) == ["a.Box.mask", "a.Pair.right"]


def test_every_dataclass_field_is_read():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_fields(sources) == []


# `run_pipeline` and every subcommand handler (`_cmd_*`) reach these modules
# only through the subcommands' stage functions, so each stage has one code
# path; CrossValPlan is a parameter type they may build
STAGE_MODULES = ("classify", "change", "inference", "evaluation", "crossval",
                 "alignment", "discovery", "features", "media", "synth")
PARAMETER_TYPES = ("CrossValPlan",)


def stage_module_uses(source: str, function: str) -> list[str]:
    """Each name of a stage module (other than a parameter type) that the
    body of the top-level `function` references, as `module.name` (through
    the module's own name or the alias it is imported as) or as imported."""
    tree = ast.parse(source)
    modules = dict(zip(STAGE_MODULES, STAGE_MODULES))
    modules.update((alias.asname, alias.name) for node in tree.body
                   if isinstance(node, ast.ImportFrom) for alias in node.names
                   if alias.name in STAGE_MODULES and alias.asname)
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module in STAGE_MODULES
                for alias in node.names}
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    found = []
    for node in ast.walk(body):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr not in PARAMETER_TYPES):
            found.append(f"{modules[node.value.id]}.{node.attr}")
        elif isinstance(node, ast.Name) and node.id in imported:
            found.append(node.id)
    return sorted(found)


def test_stage_module_detector():
    source = (
        "from . import classify, crossval\n"
        "from .evaluation import build_report as report\n"
        "def run_pipeline():\n"
        "    crossval.CrossValPlan(c_grid=crossval.CrossValPlan.c_grid)\n"
        "    classify.train(x)\n"
        "    report(a)\n"
        "    crossval.cross_validate(y)\n"
        "def other():\n"
        "    classify.save_model(x)\n"
    )
    assert stage_module_uses(source, "run_pipeline") == [
        "classify.train", "crossval.cross_validate", "report"]


def test_stage_module_detector_in_a_handler():
    # a module imported under another name counts; a parameter type does not
    source = (
        "from . import crossval, discovery\n"
        "from . import features as features_mod\n"
        "def _cmd_discover(args):\n"
        "    plan = crossval.CrossValPlan(folds=args.folds)\n"
        "    history = discovery.average_linkage(features_mod.read_features(args.path))\n"
        "    return run_discover(args.manifest)\n"
    )
    assert stage_module_uses(source, "_cmd_discover") == [
        "discovery.average_linkage", "features.read_features"]


def test_pipeline_runs_only_stage_functions():
    assert stage_module_uses((SRC / "cli.py").read_text(), "run_pipeline") == []


HANDLERS = sorted(node.name for node in ast.parse((SRC / "cli.py").read_text()).body
                  if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_"))


@pytest.mark.parametrize("handler", HANDLERS)
def test_handler_runs_only_stage_functions(handler):
    assert stage_module_uses((SRC / "cli.py").read_text(), handler) == []


# A stream read from a `.feat` file is a view of the file's mapping, and a
# function that reads its `.values` gives the pages back with the release
# helper, directly or through a function that calls it (`segment_means`).
# These read `.values` and keep the pages, each for its reason
RELEASE_HELPER = "release_pages"
KEEPS_PAGES_ALLOWED = {
    "core.FeatureStream.n_frames": "reads the shape only",
    "core.FeatureStream.dim": "reads the shape only",
    "features.write_features": "the CLI writes only streams it made in memory (extract, fuse, "
                               "synth)",
    "features.fuse_concat": "copies every input whole into the fused stream it makes",
}


def functions(tree: ast.Module) -> dict[str, ast.AST]:
    """Top-level functions and the methods of top-level classes, by
    `name` or `Class.name`; a nested function or lambda counts as part of
    the function it is in."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            found.update((f"{node.name}.{member.name}", member) for member in node.body
                         if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return found


def called_names(node: ast.AST) -> set[str]:
    return {call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, (ast.Name, ast.Attribute))}


def reads_values(node: ast.AST) -> bool:
    """Whether node reads a `.values` attribute other than as a `.values()` call."""
    called = {id(call.func) for call in ast.walk(node) if isinstance(call, ast.Call)}
    return any(isinstance(sub, ast.Attribute) and sub.attr == "values"
               and isinstance(sub.ctx, ast.Load) and id(sub) not in called
               for sub in ast.walk(node))


def pages_kept(sources: dict[str, str]) -> list[str]:
    """`module.function` of each function that reads `.values` and calls
    neither the release helper nor a function that calls it."""
    funcs = {f"{module}.{name}": node for module, source in sources.items()
             for name, node in functions(ast.parse(source)).items()}
    releasers = {RELEASE_HELPER} | {qualified.rsplit(".", 1)[-1]
                                    for qualified, node in funcs.items()
                                    if RELEASE_HELPER in called_names(node)}
    return sorted(qualified for qualified, node in funcs.items()
                  if reads_values(node) and not called_names(node) & releasers)


def test_pages_kept_detector():
    # a direct call or a call of a releasing function gives the pages back;
    # a `.values()` call is a dict's, not a stream's
    sources = {
        "core": "def release_pages(rows):\n    pass\n"
                "def means(values):\n    release_pages(values[:2])\n    return values\n",
        "a": "from .core import means, release_pages\n"
             "def kept(s):\n    return s.values.sum()\n"
             "def given_back(s):\n    x = s.values[0:2]\n    release_pages(x)\n"
             "def through(s):\n    return means(s.values)\n"
             "def in_a_lambda(s):\n    return lambda: s.values\n"
             "def a_dict(d):\n    return list(d.values())\n"
             "class C:\n    @property\n    def size(self):\n        return self.values.size\n",
    }
    assert pages_kept(sources) == ["a.C.size", "a.in_a_lambda", "a.kept"]


def test_every_stream_reader_gives_its_pages_back():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert pages_kept(sources) == sorted(KEEPS_PAGES_ALLOWED)


# A pipeline stage directory is made, marked INCOMPLETE while its stage runs
# and given its manifest by one context manager, so each stage added to the
# chain goes through that protocol
STAGE_PROTOCOL = "_stage"
MARKER = "INCOMPLETE"
WRITES = ("write_text", "write_bytes", "touch", "open")


def stage_protocol_users(source: str) -> list[str]:
    """Each top-level function that calls `write_manifest`, or writes a
    path built from the INCOMPLETE marker (through a Path method or `open`)."""
    def marker_in(node: ast.AST) -> bool:
        return any(isinstance(sub, ast.Constant) and sub.value == MARKER
                   for sub in ast.walk(node))

    found = []
    for name, node in functions(ast.parse(source)).items():
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if (callee == "write_manifest"
                    or isinstance(func, ast.Attribute) and func.attr in WRITES
                    and marker_in(func.value)
                    or callee == "open" and call.args and marker_in(call.args[0])):
                found.append(name)
                break
    return sorted(found)


def test_stage_protocol_detector():
    # reading the marker's name (to leave it out of a listing) is not writing it
    source = (
        "def write_manifest(out_dir):\n"
        "    return [p for p in out_dir.iterdir() if p.name != 'INCOMPLETE']\n"
        "def _stage(d):\n"
        "    (d / 'INCOMPLETE').write_text('x')\n"
        "    write_manifest(d)\n"
        "def by_hand(d):\n"
        "    cli.write_manifest(d)\n"
        "def marker_touched(d):\n"
        "    (d / 'INCOMPLETE').touch()\n"
        "def marker_opened(d):\n"
        "    open(os.path.join(d, 'INCOMPLETE'), 'w')\n"
        "def unrelated(d):\n"
        "    (d / 'report.json').write_text('{}')\n"
    )
    assert stage_protocol_users(source) == ["_stage", "by_hand", "marker_opened",
                                            "marker_touched"]


def test_only_the_stage_protocol_writes_manifests_and_markers():
    assert stage_protocol_users((SRC / "cli.py").read_text()) == [STAGE_PROTOCOL]


# bench/tracing.py wraps package functions by name, and sizes some calls by
# the name of their first argument. A renamed function or parameter would
# drop its span or counter with no error, so the names the bench reads are
# pinned here. The bench still lists three names of code that is gone; its
# metrics read 0 until the bench retires them, and this table empties then.
BENCH_TRACING = SRC.parents[1] / "bench" / "tracing.py"
RETIRED_BENCH_NAMES = {
    "media.save_video_dir": "deleted: frames are written one at a time by `save_ppm`",
    "alignment.compute_pixel_stats": "replaced by `alignment.pixel_stats(stack)`",
    "core.cosine_similarity": "replaced by `core.unit_rows` and one product",
}
SIZED_FIRST_PARAMETERS = {
    "inference.decode": "problem",
    "classify.train": "streams",
    "classify.train_binary": "x",
    "change.detect_candidates": "stream",
    "features.read_features": "path",
    "cli.write_manifest": "out_dir",
}


def bench_tracing():
    """bench/tracing.py, loaded from its file under a name of its own, and
    the package imported as a traced CLI run has it: `Tracer._resolve`
    finds a name outside its layer's module (`classify.cross_validate` is
    in `crossval`) only in a module already imported."""
    importlib.import_module("handcam.cli")
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH_TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_traces_names_the_package_defines():
    tracing = bench_tracing()
    tracer = tracing.Tracer()
    names = [f"{layer}.{attr}" for table in (tracing.SPANNED, tracing.COUNTED)
             for layer, attrs in table.items() for attr in attrs]
    unresolved = {name for name in names if tracer._resolve(*name.split(".")) is None}
    assert unresolved == set(RETIRED_BENCH_NAMES)


@pytest.mark.parametrize("name", sorted(SIZED_FIRST_PARAMETERS))
def test_bench_sizes_read_first_parameters_by_their_names(name):
    tracing = bench_tracing()
    assert name in tracing.SIZES
    fn = tracing.Tracer()._resolve(*name.split("."))
    assert fn is not None
    assert next(iter(inspect.signature(fn).parameters)) == SIZED_FIRST_PARAMETERS[name]
