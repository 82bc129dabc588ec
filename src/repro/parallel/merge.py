"""Comparing merged reports modulo volatile fields.

Callers merge job results keyed and ordered by *job key* (equivalently,
by submission order), never by completion order, so the artifacts a
parallel run produces are byte-identical to what the serial front-ends
write outside explicitly volatile fields (wall-clock, timestamps,
worker counts). :data:`VOLATILE_KEYS` names those fields once, and
:func:`bench_diff` implements the "identical modulo wall time"
comparison the CI gate and the tests use.
"""

from __future__ import annotations

from typing import Iterable, List

__all__ = ["VOLATILE_KEYS", "bench_diff"]

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
    "throughput",
})

# Report header blocks that name the configuration a report was
# produced under, with what a mismatch means.
CONFIG_HEADERS = (("queue_config", "multi-queue configurations"),
                  ("topology", "fabric topologies"))


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
               ignore_keys: Iterable[str] = ()) -> List[str]:
    """Differences between two BENCH reports modulo volatile fields.

    Returns human-readable difference lines; empty means equivalent.

    ``ignore_keys`` adds report keys to the ignored set, e.g. a
    header field one side of the comparison predates.
    """
    differences: List[str] = []
    ignored = VOLATILE_KEYS | frozenset(ignore_keys)

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
