import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pursuitlab import raceline as rl

from conftest import make_circle_csv, make_square_raceline
from test_mpc import heldout_rect


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------

def test_load_well_formed_file():
    track = rl.load_raceline(make_circle_csv(n=100), half_width=1.1)
    assert track.n == 100
    assert track.half_width == 1.1
    np.testing.assert_allclose(track.kappa, 1.0 / 3.0)


def test_load_preserves_order():
    track = rl.load_raceline(make_circle_csv(n=60, radius=2.0))
    assert track.x[0] == 2.0 and track.y[0] == 0.0
    angle1 = math.atan2(track.y[1], track.x[1])
    assert angle1 > 0  # counter-clockwise ordering kept


def test_load_rejects_zero_speed_with_row_number():
    speeds = [5.0] * 100
    speeds[6] = 0.0  # data row 7, 1-based
    with pytest.raises(ValueError, match="row 7"):
        rl.load_raceline(make_circle_csv(n=100, v=speeds))


def test_load_rejects_malformed_and_nonfinite_rows():
    good = make_circle_csv(n=40)
    lines = good.strip().split("\n")
    lines[3] = "not_a_number,0.0,0.1,5.0"  # data row 3
    with pytest.raises(ValueError, match="row 3"):
        rl.load_raceline("\n".join(lines))
    lines = good.strip().split("\n")
    lines[5] = lines[5].replace("5.0", "nan")
    with pytest.raises(ValueError, match="row 5"):
        rl.load_raceline("\n".join(lines))


def test_load_rejects_missing_column():
    content = "x,y,kappa\n" + "\n".join("0.1,0.2,0.0" for _ in range(25))
    with pytest.raises(ValueError, match="v_max"):
        rl.load_raceline(content)


def test_load_rejects_open_path_as_loop_closure_error():
    # Synthesize an open arc (300 degrees of a circle) and measure its gap.
    n, radius = 80, 3.0
    angles = np.linspace(0.0, np.deg2rad(300.0), n)
    xs = radius * np.cos(angles)
    ys = radius * np.sin(angles)
    spacing = np.hypot(np.diff(xs), np.diff(ys))
    closure = math.hypot(xs[-1] - xs[0], ys[-1] - ys[0])
    assert closure > 3.0 * spacing.mean()  # the oracle for the rejection
    lines = ["x,y,kappa,v_max"]
    lines += [f"{x},{y},{1/radius},5.0" for x, y in zip(xs, ys)]
    with pytest.raises(ValueError, match="loop-closure"):
        rl.load_raceline("\n".join(lines))


def test_load_rejects_duplicate_consecutive_waypoint():
    lines = make_circle_csv(n=50).strip().split("\n")
    lines.insert(10, lines[9])
    with pytest.raises(ValueError, match="row 10"):
        rl.load_raceline("\n".join(lines))


def test_raceline_rejects_too_few_waypoints():
    with pytest.raises(ValueError, match="at least"):
        rl.load_raceline(make_circle_csv(n=10))


# ----------------------------------------------------------------------
# Synthesis
# ----------------------------------------------------------------------

def segment_kind_at(s, straight, radius):
    """Independent oval segmentation: which segment arc length s falls in."""
    half_turn = math.pi * radius
    bounds = [straight, straight + half_turn, 2 * straight + half_turn,
              2 * straight + 2 * half_turn]
    if s < bounds[0]:
        return "line"
    if s < bounds[1]:
        return "arc"
    if s < bounds[2]:
        return "line"
    return "arc"


def test_synthesized_oval_curvature_is_exact():
    straight, radius, spacing = 10.0, 3.0, 0.1
    track = rl.synthesize_track("oval", straight=straight, radius=radius,
                                spacing=spacing)
    perimeter = 2 * straight + 2 * math.pi * radius
    ds = perimeter / track.n
    eps = 1e-9
    for i in range(track.n):
        s = i * ds
        kind = segment_kind_at(s + eps, straight, radius)
        if kind == "arc":
            assert abs(track.kappa[i]) == pytest.approx(1.0 / 3.0, abs=1e-15)
        else:
            assert track.kappa[i] == 0.0


def test_synthesized_speed_profile():
    track = rl.synthesize_track("oval", straight=10.0, radius=3.0, spacing=0.1,
                                v_cap=12.0, a_lat_max=3.0)
    on_arc = track.kappa != 0.0
    np.testing.assert_allclose(track.v_max[on_arc], 3.0)  # sqrt(3 * 3)
    np.testing.assert_allclose(track.v_max[~on_arc], 12.0)


def test_synthesized_rounded_rectangle_closes():
    track = rl.synthesize_track("rounded_rectangle", length_x=12.0, length_y=6.0,
                                radius=2.0, spacing=0.25)
    assert track.seg_len[-1] <= 3.0 * track.mean_spacing
    arcs = track.kappa != 0.0
    np.testing.assert_allclose(np.abs(track.kappa[arcs]), 0.5)


def test_synthesize_rejects_oversized_spacing():
    # Quarter arc of radius 0.2 is ~0.314 m long; 0.5 m spacing cannot sample it.
    with pytest.raises(ValueError, match="spacing"):
        rl.synthesize_track("rounded_rectangle", length_x=12.0, length_y=6.0,
                            radius=0.2, spacing=0.5)


# ----------------------------------------------------------------------
# Nearest index
# ----------------------------------------------------------------------

def test_nearest_index_on_waypoint(oval_track):
    p = (oval_track.x[17], oval_track.y[17])
    assert rl.nearest_index(oval_track, p) == 17


def test_nearest_index_tie_takes_smaller():
    track = make_square_raceline()
    # Waypoints 4 and 5 sit at x = 1.0 and 1.25 on y = 0; the query point is
    # exactly between them, with exactly representable coordinates.
    assert track.x[4] == 1.0 and track.x[5] == 1.25
    assert rl.nearest_index(track, (1.125, -0.5)) == 4
    # Across the seam: waypoints n - 1 and 0 sit at (0, 0.25) and (0, 0).
    assert rl.nearest_index(track, (-0.5, 0.125)) == 0
    # A hint on either side, or across the seam, breaks each tie the same way.
    for near in (5, 4, 6, 0, track.n - 1):
        for p, index in (((1.125, -0.5), 4), ((-0.5, 0.125), 0)):
            assert rl.nearest_index(track, p, near=near) == index
            assert rl.locate(track, p, near=near)[0] == index


def test_nearest_index_matches_exhaustive_scan(oval_track):
    rng = np.random.default_rng(42)
    for _ in range(1000):
        p = rng.uniform(-10.0, 25.0, size=2)
        d = np.hypot(oval_track.x - p[0], oval_track.y - p[1])
        assert rl.nearest_index(oval_track, p) == int(np.argmin(d))


# ----------------------------------------------------------------------
# Curvature taps
# ----------------------------------------------------------------------

def make_indexed_kappa_circle(n=100):
    angles = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    xs, ys = 4.0 * np.cos(angles), 4.0 * np.sin(angles)
    return rl.Raceline(xs, ys, np.arange(n, dtype=float) / n,
                       np.full(n, 5.0), 1.1)


def test_taps_wrap_modulo():
    track = make_indexed_kappa_circle(100)
    t = rl.taps(track, 98)
    assert t.kappa0 == 98 / 100
    assert t.kappa1 == 3 / 100   # (98 + 5) mod 100
    assert t.kappa2 == 10 / 100  # (98 + 12) mod 100
    assert t.dkappa == t.kappa1 - t.kappa0
    assert t.kappa_max == max(t.kappa0, t.kappa1, t.kappa2)


def test_taps_on_straight_are_zero():
    track = make_square_raceline()
    t = rl.taps(track, 0)
    assert (t.kappa0, t.kappa1, t.kappa2, t.dkappa) == (0.0, 0.0, 0.0, 0.0)


def test_taps_take_absolute_curvature():
    track = make_indexed_kappa_circle(100)
    kappa = track.kappa.copy()
    kappa.setflags(write=True)
    kappa[15] = -0.5
    track2 = rl.Raceline(track.x, track.y, kappa, track.v_base, 1.1)
    assert rl.taps(track2, 10).kappa1 == 0.5


def test_taps_shift_consistency():
    track = make_indexed_kappa_circle(90)
    rng = np.random.default_rng(7)
    for _ in range(50):
        shift = int(rng.integers(1, 90))
        i = int(rng.integers(90))
        rolled = rl.Raceline(np.roll(track.x, -shift), np.roll(track.y, -shift),
                             np.roll(track.kappa, -shift),
                             np.roll(track.v_base, -shift), 1.1)
        assert rl.taps(track, i) == rl.taps(rolled, (i - shift) % 90)


def taps_formula(track, i):
    """Per-call taps: three wrapped kappa reads."""
    k0, k1, k2 = (abs(float(track.kappa[(i + off) % track.n])) for off in rl.TAP_OFFSETS)
    return rl.CurvatureTaps(k0, k1, k2, k1 - k0, max(k0, k1, k2))


def local_curvature_formula(track, i):
    """Per-call local curvature: the mean of a wrapped 5-waypoint window."""
    return float(np.mean(np.abs(track.kappa[(i + rl.LOCAL_CURVATURE_OFFSETS) % track.n])))


@given(n=st.integers(rl.MIN_WAYPOINTS, 120),
       kappa=st.lists(st.floats(-1e3, 1e3), min_size=120, max_size=120))
def test_curvature_tables_match_the_per_call_formulas(n, kappa):
    circle = rl.load_raceline(make_circle_csv(n=n, radius=n * 0.25 / (2.0 * math.pi)))
    track = rl.Raceline(circle.x, circle.y, kappa[:n], circle.v_base, 1.1)
    for i in range(-n, 2 * n):  # every waypoint, and indices past either seam
        assert rl.taps(track, i) == taps_formula(track, i)
        table = rl.local_curvature(track, i)
        assert table == local_curvature_formula(track, i)
        assert math.copysign(1.0, table) == 1.0


def test_local_curvature_is_zero_on_a_straight(oval_track):
    assert not oval_track.kappa[8:13].any()
    assert rl.local_curvature(oval_track, 10) == 0.0


def test_local_curvature_inside_an_arc_is_one_over_radius(oval_track):
    arc_start = int(np.argmax(oval_track.kappa != 0.0))
    assert rl.local_curvature(oval_track, arc_start + 10) == pytest.approx(
        1.0 / 3.0, abs=1e-15)


def test_local_curvature_averages_across_the_seam():
    track = make_indexed_kappa_circle(100)  # kappa[i] = i / 100
    assert rl.local_curvature(track, 0) == pytest.approx(
        (0.98 + 0.99 + 0.0 + 0.01 + 0.02) / 5, abs=1e-15)
    assert rl.local_curvature(track, 99) == pytest.approx(
        (0.97 + 0.98 + 0.99 + 0.0 + 0.01) / 5, abs=1e-15)


# ----------------------------------------------------------------------
# Lookahead target
# ----------------------------------------------------------------------

def polyline_walk_oracle(track, start_index, distance):
    """Brute-force arc-length accumulation from a waypoint."""
    i = start_index
    remaining = distance
    while remaining > track.seg_len[i]:
        remaining -= track.seg_len[i]
        i = (i + 1) % track.n
    j = (i + 1) % track.n
    frac = remaining / track.seg_len[i]
    return np.array([track.x[i] + frac * (track.x[j] - track.x[i]),
                     track.y[i] + frac * (track.y[j] - track.y[i])])


def test_lookahead_on_straight_is_collinear():
    track = make_square_raceline()
    target = rl.lookahead_target(track, 0, 0.8)
    np.testing.assert_allclose(target, [0.8, 0.0], atol=1e-12)


def test_lookahead_interpolates_within_first_segment():
    track = make_square_raceline()
    # 0.1 into the first 0.25-long segment: hand interpolation gives (0.1, 0).
    target = rl.lookahead_target(track, 0, 0.1)
    np.testing.assert_allclose(target, [0.1, 0.0], atol=1e-12)


def test_lookahead_wraps_across_seam(oval_track):
    n = oval_track.n
    target = rl.lookahead_target(oval_track, n - 1, 2.0)
    oracle = polyline_walk_oracle(oval_track, n - 1, 2.0)
    np.testing.assert_allclose(target, oracle, atol=1e-9)


def test_lookahead_arc_length_property(oval_track):
    track = oval_track
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = rng.uniform(-5.0, 20.0, size=2)
        lookahead = float(rng.uniform(0.05, 4.0))
        i = rl.nearest_index(track, p)
        target = rl.lookahead_target(track, i, lookahead)
        # Walk forward from waypoint i until the segment containing the
        # target (triangle equality), accumulating polyline length.
        walked = None
        acc = 0.0
        j = i
        for _ in range(track.n + 1):
            jn = (j + 1) % track.n
            seg = float(track.seg_len[j])
            d_a = math.hypot(target[0] - track.x[j], target[1] - track.y[j])
            d_b = math.hypot(target[0] - track.x[jn], target[1] - track.y[jn])
            if abs(d_a + d_b - seg) < 1e-9:
                walked = acc + d_a
                break
            acc += seg
            j = jn
        assert walked is not None
        assert walked == pytest.approx(lookahead, abs=1e-9)


def test_lookahead_rejects_nonpositive():
    track = make_square_raceline()
    with pytest.raises(ValueError):
        rl.lookahead_target(track, 0, 0.0)


NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda t: rl.Raceline(t.x, t.y, t.kappa, t.v_base, half_width=NAN),
    lambda t: rl.scale_speeds(t, NAN),
    lambda t: rl.lookahead_target(t, 0, NAN),
    lambda t: rl.synthesize_track("oval", half_width=NAN),
    lambda t: rl.synthesize_track("oval", spacing=NAN),
    lambda t: rl.synthesize_track("oval", v_cap=NAN),
    lambda t: rl.synthesize_track("oval", a_lat_max=NAN),
    lambda t: rl.synthesize_track("oval", radius=NAN),
    lambda t: rl.synthesize_track("oval", straight=NAN),
    lambda t: rl.synthesize_track("rounded_rectangle", length_x=NAN),
    lambda t: rl.synthesize_track("rounded_rectangle", length_y=NAN),
], ids=["half_width", "scale_speeds", "lookahead", "synth_half_width",
        "spacing", "v_cap", "a_lat_max", "radius", "straight", "length_x", "length_y"])
def test_positive_settings_reject_nan(oval_track, build):
    """A NaN passes ``x <= 0`` checks; a NaN half-width would make every
    collision check false, so no lap could fail."""
    with pytest.raises(ValueError):
        build(oval_track)


@pytest.mark.parametrize("name", ["straight", "radius", "length_x", "length_y", "spacing"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, NAN])
def test_synthesized_track_dimensions_must_be_finite(name, value):
    """An infinite radius or side makes the perimeter infinite, whose
    waypoint count overflows; the error names the dimension, of either
    layout, since a config passes all of them."""
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        rl.synthesize_track("rounded_rectangle", **{name: value})


# ----------------------------------------------------------------------
# Speed scaling
# ----------------------------------------------------------------------

def test_scale_identity(oval_track):
    scaled = rl.scale_speeds(oval_track, 1.0)
    assert np.array_equal(scaled.v_max, oval_track.v_max)
    assert np.array_equal(scaled.x, oval_track.x)


def test_scale_shares_the_geometry_tables(oval_track):
    scaled = rl.scale_speeds(oval_track, 1.3)
    shared = {name for name, value in vars(oval_track).items()
              if vars(scaled)[name] is value}
    assert set(vars(scaled)) == set(vars(oval_track))
    assert set(vars(oval_track)) - shared == {"speed_scale", "v_max"}


def test_scale_thirty_percent_hits_reference_maximum():
    track = rl.synthesize_track("oval", straight=10.0, radius=3.0, spacing=0.25,
                                v_cap=12.0, a_lat_max=3.0)
    assert float(track.v_max.max()) == 12.0
    scaled = rl.scale_speeds(track, 1.3)
    assert float(scaled.v_max.max()) == pytest.approx(15.6, abs=1e-12)


def test_scale_composition_is_exact(oval_track):
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b = rng.uniform(0.5, 1.5, size=2)
        once = rl.scale_speeds(oval_track, a * b)
        twice = rl.scale_speeds(rl.scale_speeds(oval_track, a), b)
        assert np.array_equal(once.v_max, twice.v_max)


def test_every_cached_array_is_read_only(oval_track):
    for track in (oval_track, rl.scale_speeds(oval_track, 1.2)):
        arrays = {k: v for k, v in vars(track).items() if isinstance(v, np.ndarray)}
        assert {"x", "y", "kappa", "v_base", "v_max", "seg_len", "cum_s"} == set(arrays)
        for name, a in arrays.items():
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0


def test_scale_down(oval_track):
    scaled = rl.scale_speeds(oval_track, 0.9)
    np.testing.assert_allclose(scaled.v_max, oval_track.v_max * 0.9, rtol=0)


# ----------------------------------------------------------------------
# Progress counting
# ----------------------------------------------------------------------

def test_progress_examples():
    assert rl.progress_count(10, 13, 100) == 3
    assert rl.progress_count(98, 2, 100) == 4
    assert rl.progress_count(10, 5, 100) == 0  # (5-10) mod 100 = 95 > 50


def test_progress_full_lap_sums_to_n():
    n = 157
    # Unit steps all the way around land exactly back at the start.
    total = 0
    index = 0
    for _ in range(n):
        new = (index + 1) % n
        total += rl.progress_count(index, new, n)
        index = new
    assert total == n


def test_progress_counts_match_true_forward_advance():
    n = 157
    rng = np.random.default_rng(5)
    index = 0
    counted = 0
    advanced = 0
    for _ in range(500):
        step = int(rng.integers(0, 5))
        new = (index + step) % n
        counted += rl.progress_count(index, new, n)
        advanced += step
        index = new
    assert counted == advanced


# ----------------------------------------------------------------------
# Lateral error
# ----------------------------------------------------------------------

def lateral_error_oracle(track, p):
    """Exhaustive scalar point-to-segment scan."""
    best = None
    for i in range(track.n):
        j = (i + 1) % track.n
        ax, ay = track.x[i], track.y[i]
        bx, by = track.x[j], track.y[j]
        dx, dy = bx - ax, by - ay
        t = ((p[0] - ax) * dx + (p[1] - ay) * dy) / (dx * dx + dy * dy)
        t = min(1.0, max(0.0, t))
        px, py = ax + t * dx, ay + t * dy
        d = math.hypot(p[0] - px, p[1] - py)
        if best is None or d < best[0]:
            cross = dx * (p[1] - ay) - dy * (p[0] - ax)
            best = (d, 1.0 if cross >= 0 else -1.0)
    return best[1] * best[0]


def lateral_error_formula(track, p):
    """Vectorized point-to-segment scan, written out independently of locate."""
    rx = p[0] - track.x
    ry = p[1] - track.y
    dx = np.roll(track.x, -1) - track.x
    dy = np.roll(track.y, -1) - track.y
    t = np.clip((rx * dx + ry * dy) / (track.seg_len * track.seg_len), 0.0, 1.0)
    ex = rx - t * dx
    ey = ry - t * dy
    d2 = ex * ex + ey * ey
    k = int(np.argmin(d2))
    sign = 1.0 if dx[k] * ry[k] - dy[k] * rx[k] >= 0.0 else -1.0
    return sign * math.sqrt(float(d2[k]))


def unqueried(track):
    """A raceline built from ``track``'s arrays, with no stored answer."""
    return rl.Raceline(track.x, track.y, track.kappa, track.v_base, track.half_width)


def make_hairpin_csv(gap=0.1, spacing=0.25):
    """CSV content for a 6 x 4 m loop with a 3.5 m deep slot cut into its
    top side: the slot's two walls are ``gap`` apart, so positions in it lie
    near both walls, which are far apart along the loop."""
    corners = [(0.0, 0.0), (6.0, 0.0), (6.0, 4.0), (3.0 + gap / 2.0, 4.0),
               (3.0 + gap / 2.0, 0.5), (3.0 - gap / 2.0, 0.5),
               (3.0 - gap / 2.0, 4.0), (0.0, 4.0)]
    ends = np.array(corners + corners[:1])
    sides = np.hypot(*np.diff(ends, axis=0).T)
    along = np.concatenate(([0.0], np.cumsum(sides)))
    s = np.linspace(0.0, along[-1], int(round(along[-1] / spacing)), endpoint=False)
    xs = np.interp(s, along, ends[:, 0])
    ys = np.interp(s, along, ends[:, 1])
    return "x,y,kappa,v_max\n" + "".join(f"{x!r},{y!r},0.0,5.0\n"
                                          for x, y in zip(xs.tolist(), ys.tolist()))


def hairpin_track():
    """The hairpin loop with its slot's walls 0.1 m apart."""
    return rl.load_raceline(make_hairpin_csv(gap=0.1))


spacings = st.floats(0.1, 0.5)
layouts = st.one_of(
    st.builds(lambda straight, radius, spacing: rl.synthesize_track(
                  "oval", straight=straight, radius=radius, spacing=spacing),
              st.floats(1.0, 20.0), st.floats(1.0, 6.0), spacings),
    st.builds(lambda lx, ly, radius, spacing: rl.synthesize_track(
                  "rounded_rectangle", length_x=lx, length_y=ly, radius=radius,
                  spacing=spacing),
              st.floats(1.0, 15.0), st.floats(1.0, 15.0), st.floats(1.0, 5.0), spacings),
    st.builds(lambda n, spacing: rl.load_raceline(make_circle_csv(
                  n=n, radius=n * spacing / (2.0 * math.pi))),
              st.integers(rl.MIN_WAYPOINTS, 200), spacings),
    st.builds(lambda gap, spacing: rl.load_raceline(make_hairpin_csv(gap, spacing)),
              st.floats(0.05, 0.3), st.floats(0.1, 0.3)),
)


def beside(track, i, along, offset):
    """The position ``offset`` metres to the left of the point ``along`` the
    way down segment ``i``."""
    heading = rl.tangent_heading(track, i)
    return (float(track.x[i] + along * track.seg_len[i] * math.cos(heading)
                  - offset * math.sin(heading)),
            float(track.y[i] + along * track.seg_len[i] * math.sin(heading)
                  + offset * math.cos(heading)))


@given(track=layouts, waypoint=st.integers(0, 10**6), along=st.floats(0.0, 1.0),
       offset=st.one_of(st.floats(-1.5, 1.5), st.floats(-30.0, 30.0)),
       hint=st.one_of(st.integers(-12, 12), st.integers(0, 10**6)))
def test_locate_is_nearest_index_and_lateral_error(track, waypoint, along, offset, hint):
    # A pose near the line, and far off it on either side.
    i = waypoint % track.n
    p = beside(track, i, along, offset)
    near = i + hint if -12 <= hint <= 12 else hint
    index, lateral_error = rl.locate(track, p, near=near)
    assert lateral_error == lateral_error_formula(track, p)
    assert rl.nearest_index(track, p) == index
    assert rl.lateral_error(track, p) == lateral_error
    # A hint near the pose or anywhere on the loop changes no bit of either:
    # the unhinted query runs on a raceline that has no stored answer.
    unhinted_index, unhinted_error = rl.locate(unqueried(track), p)
    assert (unhinted_index, unhinted_error.hex()) == (index, lateral_error.hex())


def test_hinted_queries_near_the_line_scan_only_their_window(oval_track, full_scans):
    expected = {}
    for i in range(0, oval_track.n, 7):
        heading = rl.tangent_heading(oval_track, i)
        p = (oval_track.x[i] - 0.3 * math.sin(heading), oval_track.y[i] + 0.3 * math.cos(heading))
        expected[p, i] = (rl.nearest_index(oval_track, p), rl.locate(oval_track, p))
    full_scans.clear()
    for (p, i), (index, located) in expected.items():
        assert rl.nearest_index(oval_track, p, near=i - 2) == index
        assert rl.locate(oval_track, p, near=i - 2) == located
    assert full_scans == []


def test_hinted_queries_between_close_corridors_match_the_full_scan(full_scans):
    track = hairpin_track()
    # Positions in and around the slot, each hinted from waypoints up to
    # 2 NEAR_WINDOW away along the loop, on its own wall or across the slot.
    expected = {}
    for px in np.linspace(2.85, 3.15, 16).tolist():
        for py in np.linspace(0.3, 4.2, 40).tolist():
            expected[px, py] = (rl.nearest_index(track, (px, py)), rl.locate(track, (px, py)))
    full_scans.clear()
    served = []  # per hinted query: answered without a full scan
    # Consecutive queries are of different positions, so each one scans.
    for offset in range(-2 * rl.NEAR_WINDOW, 2 * rl.NEAR_WINDOW + 1, 3):
        for p, (index, located) in expected.items():
            scans = len(full_scans)
            assert rl.locate(track, p, near=index + offset) == located
            served.append(len(full_scans) == scans)
    # Near the slot's walls only the full scan can answer; elsewhere the window does.
    assert any(served) and not all(served)


def training_oval():
    """The oval of configs/transfer_train.yaml."""
    return rl.synthesize_track("oval", straight=10.0, radius=3.0, spacing=0.25,
                               v_cap=8.0, a_lat_max=3.0)


def radius_limits(track):
    """Per radius k = 1 .. NEAR_WINDOW, each waypoint's limit written out
    on its own: half its distance, less the slack, to the nearest segment
    more than k indices away, squared. Row NEAR_WINDOW - 1 is the single
    limit per waypoint that the whole window once had."""
    n = track.n
    dx = np.roll(track.x, -1) - track.x
    dy = np.roll(track.y, -1) - track.y
    rx = track.x[:, None] - track.x
    ry = track.y[:, None] - track.y
    t = np.clip((rx * dx + ry * dy) / (track.seg_len * track.seg_len), 0.0, 1.0)
    gap = np.hypot(rx - t * dx, ry - t * dy)
    apart = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    apart = np.minimum(apart, n - apart)
    slack = 1e-9 * (1.0 + max(np.max(np.abs(track.x)), np.max(np.abs(track.y))))
    limits = []
    for k in range(1, rl.NEAR_WINDOW + 1):
        reach = np.maximum(np.where(apart > k, gap, np.inf).min(axis=1) - slack, 0.0) / 2.0
        limits.append((reach * reach).tolist())
    return limits


TIGHT_TRACKS = {"training_oval": training_oval, "heldout_rect": heldout_rect,
                "hairpin": hairpin_track}


@pytest.mark.parametrize("make_track", TIGHT_TRACKS.values(), ids=TIGHT_TRACKS)
def test_anchor_limits_grow_with_the_radius_to_the_whole_window_limit(make_track):
    track = make_track()
    limits = track._anchor_limit
    assert len(limits) == track.n
    assert all(len(row) == rl.NEAR_WINDOW for row in limits)
    assert all(list(row) == sorted(row) for row in limits)
    expected = radius_limits(track)
    # Each radius's limit, the whole window's included, to the bit.
    for k in range(rl.NEAR_WINDOW):
        assert [row[k].hex() for row in limits] == [v.hex() for v in expected[k]]


@pytest.mark.parametrize("make_track", TIGHT_TRACKS.values(), ids=TIGHT_TRACKS)
def test_hinted_queries_scan_the_narrowest_window_that_holds(make_track):
    track = make_track()
    x, y = track.x.tolist(), track.y.tolist()
    radii = []
    for i in range(track.n):
        for along, offset in ((0.0, 0.0), (0.5, -1.5), (0.5, -0.3), (0.5, -0.05),
                              (0.5, 0.0), (0.5, 0.1), (0.5, 0.6)):
            px, py = beside(track, i, along, offset)
            start, end = rl._span(track, px, py, i + 3)
            if end - start == track.n:
                continue
            # The window of radius k around the anchor c.
            k = (end - start - 1) // 2
            c = start - rl.NEAR_WINDOW + k
            assert end - start == 2 * k + 1 and 0 <= c < track.n
            rx, ry = px - x[c], py - y[c]
            d2 = rx * rx + ry * ry
            assert d2 < track._anchor_limit[c][k - 1]
            assert k == 1 or not d2 < track._anchor_limit[c][k - 2]
            radii.append(k)
    assert min(radii) == 1 < max(radii)


SPECIAL_COORDINATES = (0.0, -0.0, math.nan, math.inf, -math.inf)


def one_step(args):
    """A seen position as it was (axis None), or one float step towards
    ``towards`` on ``axis``."""
    p, axis, towards = args
    return p if axis is None else tuple(math.nextafter(c, towards) if k == axis else c
                                        for k, c in enumerate(p))


@given(data=st.data())
def test_stored_answers_match_a_fresh_unhinted_query(data):
    # Waypoint 0 of each sits at (0, 0); the rectangle's corners are 2 m
    # curves and the hairpin's slot walls 0.1 m apart.
    track = data.draw(st.sampled_from((lambda: rl.synthesize_track("oval", spacing=0.5),
                                       heldout_rect, hairpin_track)))()
    tracks = (track, rl.scale_speeds(track, 1.3), rl.scale_speeds(track, 0.7))
    fresh = {}  # position bits -> the answer on a raceline queried once, unhinted
    waypoint = st.integers(0, track.n - 1)
    on = waypoint.map(lambda i: ((float(track.x[i]), float(track.y[i])), i))
    # Across the segment leaving a waypoint, out to the corridor and beyond.
    across = st.builds(lambda i, along, offset: (beside(track, i, along, offset), i),
                       waypoint, st.floats(0.0, 1.0),
                       st.floats(-2.0 * track.half_width, 2.0 * track.half_width))
    coordinate = st.one_of(st.sampled_from(SPECIAL_COORDINATES),
                           st.sampled_from(track.x.tolist() + track.y.tolist()),
                           st.floats(-15.0, 25.0))
    anywhere = st.tuples(coordinate, coordinate).map(lambda p: (p, None))
    seen = []
    for _ in range(data.draw(st.integers(1, 30))):
        positions = [on, across, anywhere]
        if seen:
            positions.append(st.tuples(st.sampled_from(seen), st.sampled_from((None, 0, 1)),
                                       st.sampled_from((math.inf, -math.inf)))
                             .map(lambda args: (one_step(args), None)))
        p, i = data.draw(st.one_of(*positions))
        seen.append(p)
        which = data.draw(st.sampled_from(tracks))
        hints = [st.none(), st.integers(-2 * track.n, 2 * track.n)]
        if i is not None:  # within NEAR_WINDOW of the waypoint the position is beside
            hints.append(st.integers(i - rl.NEAR_WINDOW, i + rl.NEAR_WINDOW))
        near = data.draw(st.one_of(*hints))
        key = tuple(float(c).hex() for c in p)
        if key not in fresh:
            index, lateral_error = rl.locate(unqueried(track), p)
            fresh[key] = (index, lateral_error.hex())
        if data.draw(st.booleans()):
            assert rl.nearest_index(which, p, near=near) == fresh[key][0]
        else:
            index, lateral_error = rl.locate(which, p, near=near)
            assert (index, lateral_error.hex()) == fresh[key]


@pytest.mark.filterwarnings("error")
def test_hinted_queries_of_a_nan_position_match_the_full_scan(oval_track):
    for p in ((math.nan, 0.0), (0.0, math.nan), (math.inf, 1.0), (0.0, -math.inf)):
        index, lateral_error = rl.locate(oval_track, p)
        assert index == rl.nearest_index(oval_track, p) == 0
        assert math.isnan(lateral_error)
        for near in (0, 17, oval_track.n - 1):
            assert rl.nearest_index(oval_track, p, near=near) == index
            hinted_index, hinted_error = rl.locate(oval_track, p, near=near)
            assert (hinted_index, hinted_error.hex()) == (index, lateral_error.hex())


def test_lateral_error_zero_on_line(oval_track):
    for i in (0, 10, oval_track.n - 2):
        p = (oval_track.x[i], oval_track.y[i])
        assert rl.lateral_error(oval_track, p) == pytest.approx(0.0, abs=1e-12)


def test_lateral_error_sign_left_positive():
    track = make_square_raceline()
    # First side runs along +x, so +y is the left side.
    assert rl.lateral_error(track, (0.7, 0.3)) == pytest.approx(0.3, abs=1e-12)
    assert rl.lateral_error(track, (0.7, -0.3)) == pytest.approx(-0.3, abs=1e-12)


def test_lateral_error_matches_bruteforce(oval_track):
    rng = np.random.default_rng(9)
    for _ in range(300):
        p = rng.uniform(-6.0, 20.0, size=2)
        assert rl.lateral_error(oval_track, p) == pytest.approx(
            lateral_error_oracle(oval_track, p), abs=1e-9)


def test_lookahead_two_metres_on_long_straight(oval_track):
    # Vehicle exactly on a waypoint early in the 10 m straight.
    p = (float(oval_track.x[2]), float(oval_track.y[2]))
    target = rl.lookahead_target(oval_track, 2, 2.0)
    np.testing.assert_allclose(target, [p[0] + 2.0, 0.0], atol=1e-9)
