"""Closed reference racelines: loading, synthesis, and geometric queries.

A raceline is a closed loop of waypoints, each carrying position, signed
curvature, and a reference speed. It is the shared reference for every
controller in this package: Pure Pursuit walks it for lookahead targets,
the curvature taps feed the learned policy's observation, and the MPC
tracker samples it for its horizon reference.

The track query :func:`locate` (:func:`nearest_index` is its index) takes
an optional hint ``near``: the waypoint index that the previous query of
the same moving pose returned. Each query is one loop over a span of
waypoints and segments: the window around the hint where the track's
clearance proves the window's answer global, and the whole loop otherwise.
The hint changes only the cost: every query returns the same index and
lateral error, to the bit, with any hint or none.

Racelines are immutable after construction but for :func:`locate`'s last
answer, one tuple replaced whole, and are safe to query concurrently.
"""

from __future__ import annotations

import bisect
import copy
import csv
import io
import math
from dataclasses import dataclass

import numpy as np

# Waypoint-index offsets of the near/mid/far curvature preview taps.
TAP_OFFSETS = (0, 5, 12)

# Waypoint-index offsets of the 5-waypoint window, centred on the nearest
# index, that smooths the local curvature reported to the reward.
LOCAL_CURVATURE_OFFSETS = np.arange(-2, 3)

MIN_WAYPOINTS = 20
# Corridor half-width [m] of a track that does not give its own.
HALF_WIDTH = 1.1
SPACING_RANGE = (0.05, 1.0)
CLOSURE_FACTOR = 3.0

# A hinted track query walks at most NEAR_WINDOW waypoints each way downhill
# in distance from its hint to an anchor waypoint c, then scans the
# waypoints and segments c - NEAR_WINDOW .. c + NEAR_WINDOW. NEAR_WINDOW is
# below MIN_WAYPOINTS // 2, so every loop has segments outside the window.
NEAR_WINDOW = 8


@dataclass(frozen=True)
class CurvatureTaps:
    """Absolute curvature previews at the fixed near/mid/far index offsets."""

    kappa0: float
    kappa1: float
    kappa2: float
    dkappa: float
    kappa_max: float


class Raceline:
    """A closed loop of waypoints with a scaled reference speed profile.

    Args:
        x, y: waypoint positions [m], arrays of equal length N >= 20.
        kappa: signed curvature at each waypoint [1/m] (left turns positive).
        v_base: unscaled reference speed at each waypoint [m/s], all > 0.
        half_width: lateral corridor half-width [m].

    ``speed_scale`` is the uniform multiplier applied to ``v_base``, 1 here;
    :func:`scale_speeds` sets it on its copy, kept separate from ``v_base``
    so that repeated scaling composes exactly.
    """

    def __init__(self, x, y, kappa, v_base, half_width):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        kappa = np.asarray(kappa, dtype=float)
        v_base = np.asarray(v_base, dtype=float)

        n = len(x)
        if not (len(y) == len(kappa) == len(v_base) == n):
            raise ValueError("waypoint arrays must have equal length")
        if n < MIN_WAYPOINTS:
            raise ValueError(f"raceline needs at least {MIN_WAYPOINTS} waypoints, got {n}")
        for name, arr in (("x", x), ("y", y), ("kappa", kappa), ("v_max", v_base)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite value in column {name}")
        if np.any(v_base <= 0.0):
            raise ValueError("every v_max must be > 0")
        if not half_width > 0.0:
            raise ValueError("half_width must be > 0")

        # Segment i joins waypoint i to (i+1) mod N; the last entry closes
        # the loop across the seam.
        dx = np.roll(x, -1) - x
        dy = np.roll(y, -1) - y
        seg_len = np.hypot(dx, dy)
        if np.any(seg_len <= 0.0):
            bad = int(np.argmin(seg_len))
            raise ValueError(f"zero-length segment after waypoint {bad} (duplicate point?)")

        mean_spacing = float(np.mean(seg_len[:-1]))
        if not (SPACING_RANGE[0] <= mean_spacing <= SPACING_RANGE[1]):
            raise ValueError(
                f"mean waypoint spacing {mean_spacing:.4f} m outside "
                f"[{SPACING_RANGE[0]}, {SPACING_RANGE[1]}] m"
            )
        closure = float(seg_len[-1])
        if closure > CLOSURE_FACTOR * mean_spacing:
            raise ValueError(
                f"loop-closure violation: last-to-first distance {closure:.4f} m "
                f"exceeds {CLOSURE_FACTOR}x mean spacing {mean_spacing:.4f} m"
            )

        self.x = x
        self.y = y
        self.kappa = kappa
        self.v_base = v_base
        self.speed_scale = 1.0
        self.v_max = v_base * self.speed_scale
        self.half_width = float(half_width)
        self.n = n
        self.seg_len = seg_len
        self.mean_spacing = mean_spacing
        # Cumulative arc length at each waypoint, plus the total lap length.
        self.cum_s = np.concatenate(([0.0], np.cumsum(seg_len)))
        self.total_length = float(self.cum_s[-1])

        for a in (self.x, self.y, self.kappa, self.v_base, self.v_max,
                  self.seg_len, self.cum_s):
            a.setflags(write=False)
        # Direction of the segment leaving each waypoint, for :func:`tangent_heading`.
        self._heading = tuple(math.atan2(sy, sx)
                              for sx, sy in zip(dx.tolist(), dy.tolist()))
        # Float copies for :func:`lookahead_target`'s per-step walk.
        self._walk = (self.cum_s.tolist(), x.tolist(), y.tolist(), seg_len.tolist())
        # Float copies for the track queries' scan, padded by NEAR_WINDOW
        # entries on both sides so that no window wraps: entry e is waypoint
        # (or segment) ring[e] = (e - NEAR_WINDOW) mod n, the window around c
        # is entries c .. c + 2 NEAR_WINDOW, and the whole loop is entries
        # NEAR_WINDOW .. NEAR_WINDOW + n - 1, waypoints 0 .. n - 1 in order.
        seg_len2 = seg_len * seg_len
        ring = np.arange(-NEAR_WINDOW, n + NEAR_WINDOW) % n
        self._ring = (ring.tolist(), *(a[ring].tolist() for a in
                                       (x, y, dx, dy, seg_len2)))
        self._anchor_limit = _anchor_limits(x, y, dx, dy, seg_len2)
        self._located = (math.nan,) * 4  # locate's last (px, py, index, lateral error)

        # Per-waypoint curvature previews, looked up by :func:`taps` and
        # :func:`local_curvature`. The windows wrap across the seam.
        abs_kappa = np.abs(kappa)
        waypoints = np.arange(n)[:, None]
        previews = abs_kappa[(waypoints + TAP_OFFSETS) % n]
        dkappa = previews[:, 1] - previews[:, 0]
        self._taps = tuple(
            CurvatureTaps(*row) for row in
            np.column_stack((previews, dkappa, previews.max(axis=1))).tolist())
        self._local_curvature = tuple(
            abs_kappa[(waypoints + LOCAL_CURVATURE_OFFSETS) % n].mean(axis=1).tolist())


def _anchor_limits(x, y, dx, dy, seg_len2) -> list:
    """Per waypoint c, the squared distance from c below which a position's
    track queries have their answers inside the window around c.

    The clearance of c is its distance to the nearest segment more than
    NEAR_WINDOW indices away. A position p at distance r from waypoint c is
    within r of c and of segments c - 1 and c, and at least clearance - r
    from every waypoint and segment outside the window (each waypoint starts
    its segment). So if 2 r < clearance, nothing outside the window beats or
    ties the window's nearest waypoint or segment. The slack, 1e-9 of the
    coordinates' scale, covers the rounding of the distances.
    """
    n = len(x)
    index = np.arange(n)
    clearance = np.empty(n)
    block = max(1, (1 << 20) // n)  # rows per pass, bounding the temporaries
    for start in range(0, n, block):
        rows = index[start:start + block]
        rx = x[rows, None] - x
        ry = y[rows, None] - y
        t = np.clip((rx * dx + ry * dy) / seg_len2, 0.0, 1.0)
        gap = np.hypot(rx - t * dx, ry - t * dy)
        apart = (rows[:, None] - index) % n
        gap[np.minimum(apart, n - apart) <= NEAR_WINDOW] = np.inf
        clearance[rows] = gap.min(axis=1)
    slack = 1e-9 * (1.0 + max(np.max(np.abs(x)), np.max(np.abs(y))))
    reach = np.maximum(clearance - slack, 0.0) / 2.0
    return (reach * reach).tolist()


def load_raceline(source: str, half_width: float = HALF_WIDTH) -> Raceline:
    """Parse delimited-text raceline content into a :class:`Raceline`.

    ``source`` is the file content (not a path): comma-separated with a
    header row naming columns ``x, y, kappa, v_max`` (extra columns are
    ignored) and one waypoint per data row. Do not duplicate the closing
    waypoint; the loop seam is implicit.

    Raises ``ValueError`` naming the offending 1-based data row for
    malformed rows, missing columns, non-finite values, or non-positive
    speeds; structural problems (too few rows, loop-closure violations)
    are reported without a row index.
    """
    reader = csv.reader(io.StringIO(source))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty raceline source") from None
    header = [h.strip() for h in header]
    required = ("x", "y", "kappa", "v_max")
    missing = [c for c in required if c not in header]
    if missing:
        raise ValueError(f"missing column(s): {', '.join(missing)}")
    cols = {c: header.index(c) for c in required}

    rows = {c: [] for c in required}
    for row_idx, row in enumerate(reader, start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < len(header):
            raise ValueError(f"row {row_idx}: expected {len(header)} fields, got {len(row)}")
        for c in required:
            cell = row[cols[c]].strip()
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(f"row {row_idx}: malformed {c} value {cell!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"row {row_idx}: non-finite {c} value")
            rows[c].append(value)
        if rows["v_max"][-1] <= 0.0:
            raise ValueError(f"row {row_idx}: v_max must be > 0")
        if row_idx >= 2:
            dx = rows["x"][-1] - rows["x"][-2]
            dy = rows["y"][-1] - rows["y"][-2]
            if dx == 0.0 and dy == 0.0:
                raise ValueError(f"row {row_idx}: duplicates the previous waypoint")

    return Raceline(rows["x"], rows["y"], rows["kappa"], rows["v_max"], half_width)


def load_raceline_file(path, half_width: float = HALF_WIDTH) -> Raceline:
    """Read ``path`` and parse it with :func:`load_raceline`."""
    with open(path, "r", encoding="utf-8") as f:
        return load_raceline(f.read(), half_width)


def _segment_plan(kind, straight, radius, length_x, length_y):
    """Return [(type, length, signed curvature), ...] for a closed layout."""
    if not radius > 0.0:
        raise ValueError("radius must be > 0")
    k = 1.0 / radius
    if kind == "oval":
        if not straight > 0.0:
            raise ValueError("straight length must be > 0")
        half_turn = math.pi * radius
        return [("line", straight, 0.0), ("arc", half_turn, k),
                ("line", straight, 0.0), ("arc", half_turn, k)]
    if kind == "rounded_rectangle":
        if not (length_x > 0.0 and length_y > 0.0):
            raise ValueError("side lengths must be > 0")
        quarter_turn = 0.5 * math.pi * radius
        plan = []
        for side in (length_x, length_y, length_x, length_y):
            plan.append(("line", side, 0.0))
            plan.append(("arc", quarter_turn, k))
        return plan
    raise ValueError(f"unknown track kind {kind!r}")


def _segment_pose(start, kind, kappa, local):
    """Pose (x, y, heading) ``local`` metres into a line or arc segment of
    signed curvature ``kappa`` that starts at pose ``start``."""
    x, y, heading = start
    if kind == "line":
        return x + local * math.cos(heading), y + local * math.sin(heading), heading
    r = 1.0 / kappa
    cx = x - r * math.sin(heading)
    cy = y + r * math.cos(heading)
    sweep = local * kappa
    a = (heading - math.pi / 2.0) + sweep
    return cx + r * math.cos(a), cy + r * math.sin(a), heading + sweep


def synthesize_track(kind: str, *, straight: float = 10.0, radius: float = 3.0,
                     length_x: float = 12.0, length_y: float = 6.0,
                     spacing: float = 0.25, half_width: float = HALF_WIDTH,
                     v_cap: float = 8.0, a_lat_max: float = 3.0) -> Raceline:
    """Build a closed analytic raceline with an exact curvature profile.

    Two layouts are supported: ``oval`` (two straights of length ``straight``
    joined by half-circle arcs of ``radius``) and ``rounded_rectangle``
    (straights ``length_x``/``length_y`` joined by quarter-circle arcs).
    Curvature is exactly 0 on straights and 1/radius on arcs (left-handed
    loop, so arcs are positive). The reference speed at each waypoint is
    ``min(v_cap, sqrt(a_lat_max / |kappa|))``.

    The requested ``spacing`` is adjusted slightly so the perimeter divides
    into a whole number of uniform steps and the loop closes exactly. The
    keyword defaults are also the config's track defaults.
    """
    for name, value in (("straight", straight), ("radius", radius), ("length_x", length_x),
                        ("length_y", length_y), ("spacing", spacing)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not spacing > 0.0:
        raise ValueError("spacing must be > 0")
    if not (v_cap > 0.0 and a_lat_max > 0.0):
        raise ValueError("v_cap and a_lat_max must be > 0")

    plan = _segment_plan(kind, straight, radius, length_x, length_y)
    min_arc = min(length for seg, length, _ in plan if seg == "arc")
    if spacing > min_arc:
        raise ValueError(
            f"spacing {spacing} m exceeds the shortest arc length {min_arc:.4f} m"
        )

    perimeter = sum(length for _, length, _ in plan)
    n = max(int(round(perimeter / spacing)), MIN_WAYPOINTS)
    ds = perimeter / n

    xs = np.empty(n)
    ys = np.empty(n)
    ks = np.empty(n)

    # March the plan once to record each segment's start pose and arc offset.
    segments = []
    pose = (0.0, 0.0, 0.0)
    s_acc = 0.0
    for seg_kind, seg_length, seg_kappa in plan:
        segments.append((s_acc, pose, seg_kind, seg_kappa))
        pose = _segment_pose(pose, seg_kind, seg_kappa, seg_length)
        s_acc += seg_length

    ptr = 0
    boundaries = [seg[0] for seg in segments] + [perimeter]
    for i in range(n):
        s = i * ds
        while ptr + 1 < len(segments) and s >= boundaries[ptr + 1] - 1e-12:
            ptr += 1
        s0, start, seg_kind, seg_kappa = segments[ptr]
        xs[i], ys[i], _ = _segment_pose(start, seg_kind, seg_kappa, s - s0)
        ks[i] = seg_kappa

    with np.errstate(divide="ignore"):
        v = np.where(ks == 0.0, v_cap, np.minimum(v_cap, np.sqrt(a_lat_max / np.abs(ks))))

    return Raceline(xs, ys, ks, v, half_width)


def _span(raceline: Raceline, px: float, py: float, near: int | None) -> tuple[int, int]:
    """Entries ``start .. end - 1`` of ``raceline._ring`` that the track
    queries of (px, py) scan.

    With a hint, walk downhill in squared distance from waypoint ``near``
    to a waypoint c, and return the window around c if it holds the
    queries' answers (see :func:`_anchor_limits`). Otherwise return every
    waypoint, or none for a NaN or infinite position, which is nowhere on
    the track (the walk rejects it too).
    """
    if near is not None:
        _, x, y, _ = raceline._walk
        n = raceline.n
        c = near % n
        rx = px - x[c]
        ry = py - y[c]
        d2 = rx * rx + ry * ry
        for step in (1, n - 1):
            for _ in range(NEAR_WINDOW):
                j = (c + step) % n
                rx = px - x[j]
                ry = py - y[j]
                dj = rx * rx + ry * ry
                if not dj < d2:
                    break
                c, d2 = j, dj
        if d2 < raceline._anchor_limit[c]:
            return c, c + 2 * NEAR_WINDOW + 1
    if math.isfinite(px) and math.isfinite(py):
        return NEAR_WINDOW, NEAR_WINDOW + raceline.n
    return 0, 0


def nearest_index(raceline: Raceline, p, near: int | None = None) -> int:
    """Index of the waypoint closest to ``p``: :func:`locate`'s, hint and all."""
    return locate(raceline, p, near)[0]


def tangent_heading(raceline: Raceline, i: int) -> float:
    """Direction [rad] of the segment leaving waypoint ``i``."""
    return raceline._heading[i]


def taps(raceline: Raceline, i: int) -> CurvatureTaps:
    """Absolute curvature at the preview offsets ahead of waypoint ``i``."""
    return raceline._taps[i % raceline.n]


def local_curvature(raceline: Raceline, i: int) -> float:
    """Mean absolute curvature over the 5 waypoints centred on ``i``."""
    return raceline._local_curvature[i % raceline.n]


def lookahead_target(raceline: Raceline, i: int, lookahead: float):
    """Point ``lookahead`` metres along the polyline ahead of waypoint ``i``.

    Walks forward from waypoint ``i`` (the pose's nearest), wrapping across
    the loop seam, and interpolates linearly inside the segment where the
    accumulated arc length crosses ``lookahead``. Returns an (x, y) tuple
    of floats.
    """
    if not lookahead > 0.0:
        raise ValueError("lookahead must be > 0")
    cum_s, x, y, seg_len = raceline._walk
    s = (cum_s[i] + lookahead) % raceline.total_length
    j = min(bisect.bisect_right(cum_s, s) - 1, raceline.n - 1)
    frac = (s - cum_s[j]) / seg_len[j]
    jn = (j + 1) % raceline.n
    return (x[j] + frac * (x[jn] - x[j]), y[j] + frac * (y[jn] - y[j]))


def scale_speeds(raceline: Raceline, multiplier: float) -> Raceline:
    """New raceline with every reference speed multiplied; geometry is shared.

    The new raceline shares the source's arrays and tables, which no speed
    enters, instead of building them again; only ``v_max`` is its own.
    """
    if not multiplier > 0.0:
        raise ValueError("multiplier must be > 0")
    speed_scale = float(raceline.speed_scale * multiplier)
    if not speed_scale > 0.0:
        raise ValueError("speed_scale must be > 0")
    scaled = copy.copy(raceline)
    scaled.speed_scale = speed_scale
    scaled.v_max = raceline.v_base * speed_scale
    scaled.v_max.setflags(write=False)
    return scaled


def progress_count(prev_index: int, new_index: int, n: int) -> int:
    """Waypoints newly passed going from ``prev_index`` to ``new_index``.

    Forward advance with wrap; apparent advances larger than half the loop
    are treated as backward motion and count as 0.
    """
    d = (new_index - prev_index) % n
    return 0 if d > n // 2 else d


def locate(raceline: Raceline, p, near: int | None = None) -> tuple[int, float]:
    """Nearest waypoint index and signed lateral error of position ``p``.

    The index is the waypoint closest to ``p`` (ties take the smaller
    index). The lateral error is the signed perpendicular distance from
    ``p`` to the nearest raceline segment (ties take the smaller segment
    index), positive on the left of the local travel direction. Both come
    from one loop over the offsets of ``p`` from the waypoints.

    ``near`` is an optional hint: the index that the previous query of this
    pose returned. With it the query walks downhill from ``near`` to an
    anchor waypoint, as Pure Pursuit's search near the previous closest
    point does (Coulter 1992), and loops over the window around the anchor
    only where the anchor is closer than half the track's clearance there,
    which proves the window's answer global (see :func:`_anchor_limits`).
    Without a hint, or where that check fails, the same loop runs over
    every waypoint and segment. So the result never depends on ``near``;
    only the cost does.

    A repeat query of the last finite position located (``==`` on both
    coordinates) returns the stored answer and scans nothing: the answer
    depends only on the position and the geometry, which
    :func:`scale_speeds` copies share.

    A position with a NaN or infinite coordinate is nowhere on the track:
    it gets index 0 and a NaN lateral error, and is not stored.
    """
    px, py = float(p[0]), float(p[1])
    located_x, located_y, index, lateral = raceline._located
    if px == located_x and py == located_y:
        return index, lateral
    start, end = _span(raceline, px, py, near)
    if start == end:
        return 0, math.nan
    ring, x, y, dx, dy, len2 = raceline._ring
    best, index = math.inf, 0
    best_seg, k, cross = math.inf, 0, 0.0
    for i, wx, wy, sx, sy, s2 in zip(ring[start:end], x[start:end], y[start:end],
                                     dx[start:end], dy[start:end], len2[start:end]):
        rx = px - wx
        ry = py - wy
        d2 = rx * rx + ry * ry
        if d2 < best or d2 == best and i < index:
            best, index = d2, i
        t = (rx * sx + ry * sy) / s2
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        ex = rx - t * sx
        ey = ry - t * sy
        d2 = ex * ex + ey * ey
        if d2 < best_seg or d2 == best_seg and i < k:
            best_seg, k, cross = d2, i, sx * ry - sy * rx
    lateral = (1.0 if cross >= 0.0 else -1.0) * math.sqrt(best_seg)
    raceline._located = (px, py, index, lateral)
    return index, lateral


def lateral_error(raceline: Raceline, p) -> float:
    """Signed perpendicular distance from ``p`` to the nearest raceline segment.

    Positive on the left of the local travel direction; see :func:`locate`.
    """
    return locate(raceline, p)[1]
