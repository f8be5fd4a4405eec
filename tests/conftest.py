import math

import numpy as np
import pytest
from hypothesis import settings

from pursuitlab import raceline as rl

# A failing example is printed with a blob that ``@reproduce_failure``
# replays; deadlines and example counts keep hypothesis's defaults.
settings.register_profile("pursuitlab", print_blob=True)
settings.load_profile("pursuitlab")


@pytest.fixture(scope="session")
def oval_track():
    return rl.synthesize_track("oval", straight=10.0, radius=3.0, spacing=0.25,
                               v_cap=8.0, a_lat_max=3.0)


@pytest.fixture(scope="session")
def rect_track():
    return rl.synthesize_track("rounded_rectangle", length_x=12.0, length_y=6.0,
                               radius=2.5, spacing=0.25, v_cap=8.0, a_lat_max=3.0)


@pytest.fixture
def track_queries(monkeypatch):
    """Live counts of ``raceline.nearest_index``, ``locate``, ``lateral_error``
    and ``taps`` calls."""
    calls = {"nearest_index": 0, "locate": 0, "lateral_error": 0, "taps": 0}
    for name in calls:
        def counted(*args, _fn=getattr(rl, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(rl, name, counted)
    return calls


@pytest.fixture
def track_scans(monkeypatch):
    """The hint of every track query that scans: one entry per ``_span``
    call, which a query answered from the stored answer does not make."""
    scans = []
    span = rl._span

    def spy(raceline, px, py, near):
        scans.append(near)
        return span(raceline, px, py, near)

    monkeypatch.setattr(rl, "_span", spy)
    return scans


@pytest.fixture
def full_scans(monkeypatch):
    """The hint of each track query that scans more than a window: the
    whole loop, or nothing for a NaN or infinite position."""
    scans = []
    span = rl._span

    def spy(raceline, px, py, near):
        start, end = span(raceline, px, py, near)
        if end - start != 2 * rl.NEAR_WINDOW + 1:
            scans.append(near)
        return start, end

    monkeypatch.setattr(rl, "_span", spy)
    return scans


def make_circle_csv(n=100, radius=3.0, v=5.0, kappa=None):
    """CSV content for a circle raceline with optional per-row v overrides."""
    lines = ["x,y,kappa,v_max"]
    k = kappa if kappa is not None else 1.0 / radius
    for i in range(n):
        a = 2.0 * math.pi * i / n
        vi = v[i] if hasattr(v, "__len__") else v
        lines.append(f"{radius * math.cos(a)},{radius * math.sin(a)},{k},{vi}")
    return "\n".join(lines) + "\n"


def make_square_raceline(side=1.5, spacing=0.25, v=5.0, half_width=1.1):
    """Axis-aligned square loop with exactly representable coordinates."""
    per_side = int(round(side / spacing))
    xs, ys = [], []
    for i in range(per_side):
        xs.append(i * spacing)
        ys.append(0.0)
    for i in range(per_side):
        xs.append(side)
        ys.append(i * spacing)
    for i in range(per_side):
        xs.append(side - i * spacing)
        ys.append(side)
    for i in range(per_side):
        xs.append(0.0)
        ys.append(side - i * spacing)
    n = len(xs)
    return rl.Raceline(np.array(xs), np.array(ys), np.zeros(n),
                       np.full(n, v), half_width)
