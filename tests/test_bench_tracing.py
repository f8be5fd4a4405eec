"""The benchmark's span wrappers (bench/tracing.py) find every pursuitlab
target and put the originals back on exit.

A renamed or moved function or method then fails here, in-process and in
well under a second, not only in the slow traced runs of
bench/test_smoke.py.
"""

import importlib.util
import sys
from pathlib import Path

from pursuitlab import mpc
from pursuitlab import raceline as rl
from pursuitlab.vehicle import Command, VehicleState

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings() -> dict:
    """Every attribute of the pursuitlab modules and of the classes they define."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name != "pursuitlab" and not name.startswith("pursuitlab."):
            continue
        for attr, value in vars(module).items():
            found[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, inner in vars(value).items():
                    found[(name, attr, member)] = inner
    return found


def test_instrumentation_wraps_every_target_and_restores_the_originals():
    tracing = load_tracing()
    made = []

    class RecordingTracer(tracing.Tracer):
        def span(self, *args, **kwargs):
            made.append(super().span(*args, **kwargs))
            return made[-1]

    before = bindings()
    tracer = RecordingTracer()
    with tracing.Instrumentation(tracer) as instrumentation:
        # Each wrapper replaced its target somewhere, and wraps what it replaced.
        replaced = {id(vars(owner)[attr]): original
                    for owner, attr, original in instrumentation._saved}
        assert made
        for wrapper in made:
            assert replaced.get(id(wrapper)) is wrapper.__wrapped__

        # The MPC step reaches its layers through the module globals.
        track = rl.synthesize_track("oval", straight=10.0, radius=3.0, v_cap=2.5)
        state = VehicleState(2.0, 0.3, 0.0, 2.5)
        mpc.mpc_step(track, state, rl.nearest_index(track, state.position),
                     Command(0.0, 2.5), mpc.MPCConfig())
        assert {"mpc.step", "mpc.build_reference", "mpc.linearize",
                "mpc.assemble_qp", "qp.problem"} <= set(tracer.names)

    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
