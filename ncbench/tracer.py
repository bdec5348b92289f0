"""Per-layer tracing from outside the package.

`Tracer.install()` replaces every public function of the ncfree modules, and
every public method of their public classes, with a timing wrapper.  A name
imported into another module (`from .partitions import enumerate_nc12`) is
rebound there too, so calls between modules are seen.  Self time of a span is
its wall time minus the wall time of the wrapped spans it contains.
Generators are timed one resume at a time and count the items they yield.
Nothing is recorded while `active` is false, so input generation and the
correctness checks stay out of the numbers.
"""

from __future__ import annotations

import functools
import inspect
from time import perf_counter

LAYERS = ("algebra", "partitions", "jacobi", "joint", "scalar", "cli")


class Stat:
    __slots__ = ("calls", "self_s", "yielded")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.yielded = 0


class Tracer:
    def __init__(self):
        self.active = False
        self.stats: dict[str, Stat] = {}
        self._child = [0.0]  # wall time of finished child spans, one slot per open span
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        child = self._child

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                if not self.active:
                    return it
                stat.calls += 1
                return self._resumes(stat, it)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            child.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = perf_counter() - t0
                stat.calls += 1
                stat.self_s += span - child.pop()
                child[-1] += span

        return wrapper

    def _resumes(self, stat: Stat, it):
        child = self._child
        while True:
            child.append(0.0)
            t0 = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                span = perf_counter() - t0
                stat.self_s += span - child.pop()
                child[-1] += span
            stat.yielded += 1
            yield item

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the public callables of each layer module of `package`."""
        modules = [getattr(package, layer) for layer in LAYERS]
        replaced = {}  # id(original function) -> wrapper
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_methods(f"{layer}.{name}", obj)
        for mod in [package, *modules]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    self._set(mod, name, replaced[id(obj)])

    def _wrap_methods(self, prefix: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(attr, (classmethod, staticmethod)):
                self._set(cls, name, type(attr)(self._wrap(f"{prefix}.{name}", attr.__func__)))
            elif inspect.isfunction(attr):
                self._set(cls, name, self._wrap(f"{prefix}.{name}", attr))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for name, s in self.stats.items() if name.split(".", 1)[0] == layer)

    def get(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()
