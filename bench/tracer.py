"""Run one `hkt` command with every public hktcalc function traced.

    python bench/tracer.py SPANS.json ARG...

runs `hktcalc.cli.main([ARG...])` in this process and, at exit, writes the
spans it recorded to SPANS.json.  Each public function and each public
method of each public class is wrapped once, and the wrapper is bound
under every name that referred to the original in any hktcalc module, so
`from .forms import apply_operator` call sites are traced too.  Methods
are patched on their class.  `scalars` holds the leaf arithmetic, so there
only constructor calls of `Polynomial` and `GaussianRational` are counted
(no spans).  No file of the package is modified.

A span is `[id, parent_id, name_index, start_s, end_s]`; parent 0 is the
root.  Two layer boundaries are labelled by argument: the table build as
`salamon.ProjectorTable.n<n>` and the solve as `elliptic.solve_potential.m<m>`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time

LEAF_MODULE = "scalars"
COUNTED = ("Polynomial", "GaussianRational")


class Recorder:
    """In-memory span stack and records; written out once at exit."""

    def __init__(self):
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = [0]
        self.next_id = 1
        self.counts: dict[str, int] = {}

    def span(self, fn, name: str, label=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            full = name
            if label is not None:
                try:
                    full = label(*args, **kwargs)
                except Exception:  # a label must never change the program's behaviour
                    full = name
            idx = self.index.get(full)
            if idx is None:
                idx = self.index[full] = len(self.names)
                self.names.append(full)
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1]
            self.stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                self.spans.append([sid, parent, idx, start, end])

        return traced

    def counter(self, fn, name: str):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"names": self.names, "spans": self.spans, "counts": self.counts}, handle)


def _table_label(self, model, *args, **kwargs):
    return f"salamon.ProjectorTable.n{model.n}"


def _solve_label(spec, m, *args, **kwargs):
    return f"elliptic.solve_potential.m{m}"


LABELS = {
    "salamon.ProjectorTable.__init__": _table_label,
    "elliptic.solve_potential": _solve_label,
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def instrument(package: str = "hktcalc") -> Recorder:
    """Wrap the package's public functions and methods; return the recorder."""
    pkg = importlib.import_module(package)
    modules = [pkg] + [importlib.import_module(f"{package}.{info.name}")
                       for info in pkgutil.iter_modules(pkg.__path__)]
    rec = Recorder()
    replaced: dict[int, object] = {}
    for mod in modules[1:]:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__ or not _public(attr):
                continue
            name = f"{short}.{attr}"
            if short == LEAF_MODULE:
                if attr in COUNTED:
                    obj.__init__ = rec.counter(obj.__init__, f"{name}.calls")
            elif inspect.isfunction(obj):
                replaced[id(obj)] = rec.span(obj, name, LABELS.get(name))
            elif inspect.isclass(obj):
                _wrap_methods(rec, obj, name)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])
    return rec


def _wrap_methods(rec: Recorder, cls: type, prefix: str) -> None:
    for attr, raw in list(vars(cls).items()):
        name = f"{prefix}.{attr}"
        if not (_public(attr) or name in LABELS):
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(cls, attr, type(raw)(rec.span(raw.__func__, name)))
        elif inspect.isfunction(raw):
            setattr(cls, attr, rec.span(raw, name, LABELS.get(name)))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.json ARG...", file=sys.stderr)
        return 2
    out, args = argv[0], argv[1:]
    rec = instrument()
    from hktcalc import cli

    try:
        return cli.main(args)
    finally:
        rec.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
