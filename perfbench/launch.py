"""
Traced launcher: run one ``fuzzball`` CLI invocation with every public
function of the library wrapped in a span recorder.

    python3 perfbench/launch.py SPANS.json ARG...

runs ``fuzzball.cli.main([ARG...])`` and writes ``{"import_s", "spans"}``
to SPANS.json when the command ends, however it ends.  Spans stay in memory
until then.  Each wrapper is installed on every module attribute that binds
the function, because ``cli`` and ``spectra`` import names directly.  The
parent of a span started in a ``ThreadPoolExecutor`` worker is the span that
submitted the work.
"""

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from layers import LAYERS

_current = contextvars.ContextVar("perfbench_span", default=None)


def _sizes(args):
    """(N, element count) of the first argument, as far as it has them."""
    if not args:
        return 0, 0
    a = args[0]
    if isinstance(a, bool):
        return 0, 0
    if isinstance(a, int):
        return a, 0
    if isinstance(a, (list, tuple)) and a and all(isinstance(v, int) for v in a):
        return max(a), 0
    shape = getattr(a, "shape", None)
    if isinstance(shape, tuple):
        size = int(getattr(a, "size", 0))
        if len(shape) == 2 and shape[0] == shape[1]:
            return int(shape[0]), size
        return size, size
    for attr in ("dim", "size"):
        v = getattr(a, attr, None)
        if isinstance(v, int) and not isinstance(v, bool):
            return v, 0
    return 0, 0


class Recorder:
    """Owns the span list and the wrappers that fill it."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)

    def wrap(self, fn, name):
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = _current.get()
            token = _current.set(sid)
            error = False
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = time.perf_counter()
                _current.reset(token)
                n, size = _sizes(args)
                spans.append(
                    {
                        "id": sid,
                        "parent": parent,
                        "name": name,
                        "start": start,
                        "end": end,
                        "thread": threading.get_ident(),
                        "n": n,
                        "size": size,
                        "error": error,
                    }
                )

        return traced

    def install(self, modules, extra_modules=()):
        """Wrap the public functions defined in ``modules`` ({layer: module})
        and rebind them in those modules and in ``extra_modules``."""
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
        for mod in list(modules.values()) + list(extra_modules):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    setattr(mod, attr, wrapped[id(obj)][1])
        return len(wrapped)


def propagate_context_to_pools():
    """Make ``ThreadPoolExecutor`` workers inherit the submitter's span."""
    original = ThreadPoolExecutor.submit

    def submit(self, fn, /, *args, **kwargs):
        return original(self, contextvars.copy_context().run, fn, *args, **kwargs)

    ThreadPoolExecutor.submit = submit


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    cli = importlib.import_module("fuzzball.cli")
    import_s = time.perf_counter() - t0

    modules = {layer: importlib.import_module(f"fuzzball.{layer}") for layer in LAYERS}
    recorder = Recorder()
    propagate_context_to_pools()
    recorder.install(modules, [importlib.import_module("fuzzball")])
    try:
        return cli.main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": recorder.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
