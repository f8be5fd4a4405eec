import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pursuitlab

PROBE = """
import importlib, pkgutil, sys
import pursuitlab
for info in pkgutil.walk_packages(pursuitlab.__path__, "pursuitlab."):
    importlib.import_module(info.name)
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""


def test_pursuitlab_imports_no_scipy():
    """numpy and pyyaml are the only dependencies; importing scipy.sparse
    alone would cost most of the lab's start-up time."""
    src = str(Path(pursuitlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, env=env, check=True)
    assert done.stdout.strip() == "[]"


def _file_writes(tree):
    """Yield (line, what) for every call in ``tree`` that opens a file for
    writing or renames one."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name in ("replace", "rename") and isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) and func.value.id == "os":
            yield node.lineno, f"os.{name}"
        elif name == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            if mode is None:
                continue  # the default mode reads
            literal = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
            if not literal or set(mode.value) & set("wax+"):
                yield node.lineno, "open for writing"


def test_only_files_py_writes_files():
    """Every output goes through files.atomic_open, so each appears whole."""
    package = Path(pursuitlab.__file__).resolve().parent
    writes = {path.name: list(_file_writes(ast.parse(path.read_text(encoding="utf-8"))))
              for path in sorted(package.rglob("*.py"))}
    writer = writes.pop("files.py", [])
    assert {name: found for name, found in writes.items() if found} == {}
    assert {what for _, what in writer} == {"os.replace", "open for writing"}


def _scopes(tree, matches):
    """Yield the qualified name of the function around each node of ``tree``
    for which ``matches(node)`` holds."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, scope + (child.name,))
                continue
            if matches(child):
                yield ".".join(scope)
            yield from walk(child, scope)
    yield from walk(tree, ())


def _package_scopes(matches, skip=()):
    """``_scopes`` over every module of the package but ``skip``, each scope
    prefixed with its module's name."""
    package = Path(pursuitlab.__file__).resolve().parent
    return {f"{path.stem}.{scope}"
            for path in sorted(package.rglob("*.py")) if path.name not in skip
            for scope in _scopes(ast.parse(path.read_text(encoding="utf-8")), matches)}


def _package_call_scopes(module, *names, skip=()):
    """The scopes of every ``module.name`` call, for each of ``names``."""
    def matches(node):
        func = getattr(node, "func", None)
        return isinstance(node, ast.Call) and isinstance(func, ast.Attribute) \
            and func.attr in names \
            and isinstance(func.value, ast.Name) and func.value.id == module
    return _package_scopes(matches, skip)


def test_per_step_traces_have_one_writer():
    """Outside files.py only the whole-file writers use the csv module's
    writers; a per-step trace goes through files.trace_csv."""
    scopes = _package_call_scopes("csv", "writer", "DictWriter", skip=("files.py",))
    assert scopes == {"evaluation.write_laps_csv", "evaluation.write_comparison_csv",
                      "ppo.PPOTrainer.write_metrics"}


def test_only_the_lap_runner_writes_a_per_step_trace():
    """The training env returns each step's values from step() instead of
    writing them; the lap runner's trace is the one per-step file."""
    def matches(node):
        func = getattr(node, "func", None)
        return isinstance(node, ast.Call) and "trace_csv" in (
            getattr(func, "id", None), getattr(func, "attr", None))
    assert _package_scopes(matches) == {"evaluation.run_laps"}


def _unhinted_track_queries(tree):
    """Yield the line of every ``rl.locate`` or ``rl.nearest_index`` call in
    ``tree`` that passes no ``near`` hint, by keyword or third argument."""
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if isinstance(node, ast.Call) and isinstance(func, ast.Attribute) \
                and func.attr in ("locate", "nearest_index") \
                and isinstance(func.value, ast.Name) and func.value.id == "rl" \
                and len(node.args) < 3 and "near" not in {k.arg for k in node.keywords}:
            yield node.lineno


def test_every_track_query_passes_its_hint():
    """Each per-step caller hands the query its previous waypoint, so the
    query searches near it instead of scanning the whole loop."""
    package = Path(pursuitlab.__file__).resolve().parent
    unhinted = {path.name: found for path in sorted(package.rglob("*.py"))
                if (found := list(_unhinted_track_queries(
                    ast.parse(path.read_text(encoding="utf-8")))))}
    assert unhinted == {}


def test_only_pose_owners_query_the_track():
    """A controller core takes the located waypoint as an argument; only the
    code that carries a pose from one step to the next asks the track where
    it is."""
    assert _package_call_scopes("rl", "locate", "nearest_index") == {
        "evaluation.run_laps", "env.RacingEnv.reset", "env.RacingEnv.step",
        "controllers.PurePursuitAdapter.step", "mpc.MPCTracker.step"}


def test_one_writer_of_the_stored_track_answer():
    """Only locate reads or replaces the raceline's stored answer, which the
    raceline sets up empty, so no other code can store a wrong one."""
    assert _package_scopes(lambda node: isinstance(node, ast.Attribute)
                           and node.attr == "_located") == {
        "raceline.locate", "raceline.Raceline.__init__"}


def _calls(name):
    """Whether a node is a call of the bare name ``name``."""
    return lambda node: isinstance(node, ast.Call) \
        and getattr(node.func, "id", None) == name


def test_one_writer_of_the_horizon_memo():
    """Only the fill function reaches the MPC's memo of condensed horizons,
    so no other code can store an entry under a wrong key; and no cache keys
    on ``id()``, which a later object can reuse."""
    assert _package_scopes(_calls("_horizon_memo")) == {"mpc._condensed_horizon"}
    assert _package_scopes(_calls("id")) == set()


def _clips_to_action_bounds(node):
    """Whether ``node`` is a clip, min or max call that reads an action bound."""
    func = getattr(node, "func", None)
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    return isinstance(node, ast.Call) \
        and name in ("_clip", "clip", "min", "max", "minimum", "maximum") \
        and any(isinstance(arg, ast.Name) and arg.id in ("LOOKAHEAD_BOUNDS", "GAIN_BOUNDS")
                for arg in ast.walk(node))


def test_one_clipper_to_the_action_bounds():
    """A policy action and every source's pair reach the law through
    pure_pursuit.clip_params; only the teacher schedules clip on their own."""
    assert _package_scopes(_clips_to_action_bounds) == {
        "pure_pursuit.clip_params", "pure_pursuit.teacher_lookahead",
        "pure_pursuit.teacher_gain"}


def _uses(tree):
    """Yield every name that ``tree`` reads: a bare name, an attribute, or a
    word of a string that is not a docstring (code that a subprocess runs)."""
    docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings:
            yield from re.findall(r"\w+", node.value)


def test_every_public_name_has_a_use():
    """Each module-level public function and class of the package is read
    somewhere in src/, tests/ or bench/ outside its own definition."""
    package = Path(pursuitlab.__file__).resolve().parent
    root = package.parent.parent
    uses = {}
    for path in sorted(p for part in ("src", "tests", "bench")
                       for p in (root / part).rglob("*.py")):
        for name in _uses(ast.parse(path.read_text(encoding="utf-8"))):
            uses[name] = uses.get(name, 0) + 1
    unused = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_") \
                    and uses.get(node.name, 0) == sum(1 for name in _uses(node)
                                                       if name == node.name):
                unused.append(f"{path.stem}.{node.name}")
    assert unused == []
