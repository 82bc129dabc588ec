#!/usr/bin/env python3
"""Report which functions under ``src/repro`` no entry point reaches.

A reachability pass, standard library only. It installs a profile hook
(``sys.setprofile`` and ``threading.setprofile``) that records the code
object of every call, runs each entry point of the repository, and
compares the recorded ``(co_filename, co_firstlineno)`` pairs with an
``ast`` walk of every ``def`` under ``src/repro``. A def's first line
is its first decorator line, which is what ``co_firstlineno`` reports.

    PYTHONPATH=src python scripts/reachability.py
    PYTHONPATH=src python scripts/reachability.py --out unreached.json

The entries are the quick suite, perfbench's three workloads (short,
untraced and traced), the chaos sweep with an injected regression, a
checkpointed chaos campaign, the seed sweep, the hotspot profiler, the
figure exporter, the EXPERIMENTS.md generator, a BENCH export and diff,
the CI gate snippets, every example and ``python -m repro
list|run|catalog``. Each runs in a fresh temporary working directory,
so nothing lands in the checkout, and prints to standard error.
Worker processes are not traced, so code that only runs in a pool
worker shows as unreached. The seed sweep runs with two jobs, as CI
runs it with four, so the parent side of the fan-out is traced; every
other entry runs with one job.
``refresh_perf_golden.py`` is left out because it rewrites a tracked
golden file.

The table counts *def lines*, from a def's first line to its last, for
each def not nested in another def (methods count). A def is reached
when its own code object ran. The JSON lists every unreached def,
nested ones included.
"""

import argparse
import ast
import contextlib
import json
import os
import pstats
import runpy
import sys
import tempfile
import threading
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"


@dataclass(frozen=True)
class Def:
    file: str          # relative to the repository root
    line: int          # first line: the first decorator, else the def
    name: str          # qualified, e.g. ``Class.method``
    lines: int         # first line to last line, inclusive
    outermost: bool    # not nested inside another def


def collect_defs():
    """Every ``def``/``async def`` under ``src/repro``, in file order."""
    defs = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        _walk(tree, rel, prefix="", in_def=False, out=defs)
    return defs


def _walk(node, rel, prefix, in_def, out):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno]
                        + [d.lineno for d in child.decorator_list])
            out.append(Def(rel, first, prefix + child.name,
                           child.end_lineno - first + 1, not in_def))
            _walk(child, rel, f"{prefix}{child.name}.", True, out)
        elif isinstance(child, ast.ClassDef):
            _walk(child, rel, f"{prefix}{child.name}.", in_def, out)
        else:
            _walk(child, rel, prefix, in_def, out)


class CallRecorder:
    """Profile hook that keeps every code object it sees called."""

    def __init__(self):
        self.codes = set()
        self.extra = set()   # (filename, firstlineno) from cProfile dumps

    def _hook(self, frame, event, arg):
        if event == "call":
            self.codes.add(frame.f_code)

    def __enter__(self):
        self._previous = sys.getprofile(), threading.getprofile()
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(self._previous[0])
        threading.setprofile(self._previous[1])
        return False

    def keys(self):
        """``(absolute filename, first line)`` of every recorded call."""
        keys = {(os.path.realpath(code.co_filename), code.co_firstlineno)
                for code in self.codes}
        return keys | {(os.path.realpath(f), n) for f, n in self.extra}


def trace(entries):
    """Run each ``(name, fn)`` entry in a fresh temporary directory.

    The hook is installed anew for every entry, because an entry that
    runs cProfile replaces it.
    """
    recorder = CallRecorder()
    cwd = os.getcwd()
    for name, fn in entries:
        with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
            os.chdir(tmp)
            try:
                with contextlib.redirect_stdout(sys.stderr), recorder:
                    fn(recorder)
            finally:
                os.chdir(cwd)
        print(f"traced {name}", file=sys.stderr)
    return recorder


def analyze(recorder):
    """Pair every def with whether the recorder saw it called."""
    keys = recorder.keys()
    return [(d, (os.path.realpath(ROOT / d.file), d.line) in keys)
            for d in collect_defs()]


def summarize(pairs):
    """Per-file ``[file, total, unreached]`` rows over outermost defs."""
    table = {}
    for d, reached in pairs:
        if not d.outermost:
            continue
        row = table.setdefault(d.file, [d.file, 0, 0])
        row[1] += d.lines
        if not reached:
            row[2] += d.lines
    return sorted(table.values(), key=lambda row: (-row[2], row[0]))


# -- entry points ----------------------------------------------------------
def _run_path(path, *argv):
    """Run a script as ``__main__``; a non-zero exit is an error."""
    saved = sys.argv
    sys.argv = [str(path), *argv]
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        if exc.code not in (None, 0):
            raise RuntimeError(f"{path.name} {' '.join(argv)} exited "
                               f"with {exc.code!r}") from None
    finally:
        sys.argv = saved


def _run_cli(*argv):
    saved = sys.argv
    sys.argv = ["repro", *argv]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        if exc.code not in (None, 0):
            raise RuntimeError(f"python -m repro {' '.join(argv)} exited "
                               f"with {exc.code!r}") from None
    finally:
        sys.argv = saved


def _quick_suite(_rec):
    from repro.experiments import run_all

    run_all(seed=0, quick=True)


def _perfbench(trace_layers):
    def run(_rec):
        sys.path.insert(0, str(ROOT))
        try:
            from perfbench import bench
            from perfbench.workloads import WORKLOADS
        finally:
            sys.path.remove(str(ROOT))
        for name in sorted(WORKLOADS):
            bench.run(WORKLOADS[name](), seed=0, seconds=0.1,
                      trace=trace_layers, out_dir=Path.cwd(), root=ROOT)
    return run


def _checkpointed_campaign(_rec):
    from repro.chaos import CampaignRunner

    CampaignRunner().run(seed=3, checkpoint=True)


def _profile_hotspots(rec):
    # cProfile replaces the profile hook while it runs; read back the
    # functions it saw from its own dump instead.
    _run_path(ROOT / "scripts" / "profile_hotspots.py", "--top", "5",
              "--dump", "hotspots.prof")
    stats = pstats.Stats("hotspots.prof").stats
    rec.extra.update((filename, line) for filename, line, _ in stats)


def _export_and_diff_bench(_rec):
    scripts = ROOT / "scripts"
    _run_path(scripts / "export_bench.py", "table3", "region_resilience",
              "region_scale", "--out", "bench.json")
    _run_path(scripts / "diff_bench.py", "bench.json", "bench.json")


def _ci_gates(_rec):
    """The inline snippets of the CI ``gates`` job, one seed each."""
    from repro.chaos import CampaignConfig, CampaignRunner
    from repro.chaos.region import RegionCampaignRunner
    from repro.experiments import mq_ablation
    from repro.fleet import RegionSpec

    config = CampaignConfig(kind_weights=(
        ("link_flap", 1.0), ("switch_crash", 0.5)))
    CampaignRunner(config=config).run(0)
    mq_ablation.run(seed=0, quick=True)
    region = RegionCampaignRunner(spec=RegionSpec(duration_s=8.0)).run(0)
    region.report_json()


def _examples(_rec):
    for path in sorted((ROOT / "examples").glob("*.py")):
        # With no arguments reproduce_paper runs the quick suite again.
        argv = ("table3",) if path.name == "reproduce_paper.py" else ()
        _run_path(path, *argv)


def _cli(_rec):
    _run_cli("list")
    _run_cli("run", "table3")
    _run_cli("catalog")


def _script(name, *argv):
    return lambda _rec: _run_path(ROOT / "scripts" / f"{name}.py", *argv)


ENTRIES = [
    ("quick suite", _quick_suite),
    ("perfbench untraced", _perfbench(False)),
    ("perfbench traced", _perfbench(True)),
    ("chaos_sweep --inject-regression",
     _script("chaos_sweep", "--seeds", "3", "--inject-regression")),
    ("checkpointed campaign", _checkpointed_campaign),
    ("sweep fig13 --jobs 2",
     _script("sweep", "fig13", "--seeds", "2", "--jobs", "2")),
    ("profile_hotspots", _profile_hotspots),
    ("export_figures", _script("export_figures")),
    ("generate_experiments_md", _script("generate_experiments_md")),
    ("export_bench + diff_bench", _export_and_diff_bench),
    ("CI gates", _ci_gates),
    ("examples", _examples),
    ("python -m repro", _cli),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the unreached defs as a JSON list")
    args = parser.parse_args(argv)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    out = Path(args.out).resolve() if args.out else None

    pairs = analyze(trace(ENTRIES))
    rows = summarize(pairs)
    print(f"{'def lines':>9} {'unreached':>9}  file")
    for file, total, unreached in rows:
        print(f"{total:>9} {unreached:>9}  {file}")
    total = sum(row[1] for row in rows)
    unreached = sum(row[2] for row in rows)
    print(f"{total:>9} {unreached:>9}  TOTAL "
          f"({unreached / total:.1%} unreached)")
    if out is not None:
        missed = [asdict(d) for d, reached in pairs if not reached]
        out.write_text(json.dumps(missed, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
