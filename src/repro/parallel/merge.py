"""Comparing merged reports modulo volatile fields.

Callers merge job results keyed and ordered by *job key* (equivalently,
by submission order), never by completion order, so the artifacts a
parallel run produces are byte-identical to what the serial front-ends
write outside explicitly volatile fields (wall-clock, timestamps,
worker counts). :data:`VOLATILE_KEYS` names those fields once, and
:func:`strip_volatile` / :func:`bench_diff` implement the "identical
modulo wall time" comparison the CI gate and the tests use.
"""

from __future__ import annotations

import copy
from typing import Iterable, List, Optional

__all__ = ["VOLATILE_KEYS", "WALL_KEYS", "strip_volatile", "bench_diff"]

# Report fields that legitimately differ between two otherwise
# equivalent runs: wall-clock measurements and run-metadata stamps.
# "throughput" is the region-scale benchmark's wall-derived subtree
# (placements/sec, peak RSS, ...) — volatile as a whole.
VOLATILE_KEYS = frozenset({
    "wall_s",
    "total_wall_s",
    "elapsed_wall_s",
    "timestamp",
    "git_commit",
    "jobs",
    "attempts",
    "throughput",
})

# The wall-clock subset of VOLATILE_KEYS: with a tolerance these are
# *compared* (within a relative bound) instead of ignored.
WALL_KEYS = frozenset({"wall_s", "total_wall_s", "elapsed_wall_s"})

# Report header blocks that name the configuration a report was
# produced under, with what a mismatch means.
CONFIG_HEADERS = (("queue_config", "multi-queue configurations"),
                  ("topology", "fabric topologies"))


def strip_volatile(report: dict) -> dict:
    """Deep-copy ``report`` with every volatile field removed."""

    def scrub(node):
        if isinstance(node, dict):
            return {key: scrub(value) for key, value in node.items()
                    if key not in VOLATILE_KEYS}
        if isinstance(node, list):
            return [scrub(item) for item in node]
        return node

    return scrub(copy.deepcopy(report))


def _zero_like(value) -> bool:
    """True for values equivalent to "no traffic recorded".

    Older BENCH files wrote all-zero ``events``/``queue_depth`` blocks
    for analytic experiments that never touch the kernel; newer ones
    omit the blocks entirely. A key present on one side only is not a
    difference when its value carries no information: numeric zero, or
    a container of (recursively) zero-like values. Booleans and strings
    are never zero-like — ``False``/``""`` are statements, not absence.
    """
    if isinstance(value, bool):
        return False
    if isinstance(value, (int, float)):
        return value == 0
    if isinstance(value, dict):
        return all(_zero_like(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_zero_like(v) for v in value)
    return False


def bench_diff(a: dict, b: dict,
               wall_tolerance: Optional[float] = None,
               ignore_keys: Iterable[str] = (),
               wall_floor_s: float = 0.0) -> List[str]:
    """Differences between two BENCH reports modulo volatile fields.

    Returns human-readable difference lines; empty means equivalent.

    With ``wall_tolerance`` (a relative fraction, e.g. ``0.25`` for
    25%), the wall-clock fields are no longer ignored: each pair must
    agree within ``tolerance * max(|a|, |b|)``. That turns the
    comparison from "identical modulo wall time" into "identical, and
    no slower than X%" — the regression gate
    ``scripts/diff_bench.py --tolerance`` exposes.

    ``ignore_keys`` adds report keys to the ignored set, e.g. a
    header field one side of the comparison predates.

    ``wall_floor_s`` is an absolute noise floor for the tolerance
    comparison: wall differences below it always pass. A relative
    bound alone is meaningless for millisecond-scale experiments,
    where scheduler jitter routinely exceeds any sane percentage.
    """
    differences: List[str] = []
    ignored = VOLATILE_KEYS if wall_tolerance is None else (
        VOLATILE_KEYS - WALL_KEYS)
    if ignore_keys:
        ignored = ignored | frozenset(ignore_keys)

    # Reports produced under a different multi-queue datapath shape or
    # fabric topology are incomparable: every row legitimately differs
    # (a routed Clos suite times every transfer hop-by-hop), so a
    # row-by-row diff would bury the real cause in noise. Surface the
    # config mismatch alone and stop.
    for key, what in CONFIG_HEADERS:
        if key in ignored:
            continue
        config_a, config_b = a.get(key), b.get(key)
        if (config_a is not None and config_b is not None
                and config_a != config_b):
            changed = sorted(
                name for name in set(config_a) | set(config_b)
                if config_a.get(name) != config_b.get(name))
            return [
                f"{key} mismatch — reports were produced under "
                f"different {what} and are not comparable: "
                + ", ".join(
                    f"{name}: {config_a.get(name)!r} vs "
                    f"{config_b.get(name)!r}"
                    for name in changed)
            ]

    def walk(path: str, left, right) -> None:
        if isinstance(left, dict) and isinstance(right, dict):
            for key in sorted(set(left) | set(right)):
                if key in ignored:
                    continue
                child = f"{path}.{key}" if path else key
                if key not in left:
                    if not _zero_like(right[key]):
                        differences.append(f"{child}: only in second")
                elif key not in right:
                    if not _zero_like(left[key]):
                        differences.append(f"{child}: only in first")
                elif (key in WALL_KEYS and wall_tolerance is not None
                      and isinstance(left[key], (int, float))
                      and isinstance(right[key], (int, float))):
                    l, r = left[key], right[key]
                    limit = max(wall_tolerance * max(abs(l), abs(r), 1e-9),
                                wall_floor_s)
                    if abs(l - r) > limit:
                        differences.append(
                            f"{child}: {l!r} vs {r!r} differs by more "
                            f"than {wall_tolerance:.0%}")
                else:
                    walk(child, left[key], right[key])
        elif isinstance(left, list) and isinstance(right, list):
            if len(left) != len(right):
                differences.append(
                    f"{path}: length {len(left)} != {len(right)}")
                return
            for index, (l, r) in enumerate(zip(left, right)):
                walk(f"{path}[{index}]", l, r)
        elif left != right:
            differences.append(f"{path}: {left!r} != {right!r}")

    walk("", a, b)
    return differences
