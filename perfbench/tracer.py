"""In-process tracer: wraps layer entry points from outside the program.

Nothing under src/ knows about tracing.  `Tracer.install` rebinds each
registered function or method in every fgap module (and on its class) that
holds a reference to it, so `from .algnum import isolate_real_roots` copies
are covered too; `Tracer.uninstall` restores the original objects and
`leftover_wrappers` proves that none remain, so untraced runs pay nothing.

Every wrapped call is aggregated into a calling-context tree (one node per
call path: count, inclusive time, self time).  Boundaries marked cold also
keep one span per call: id, name, layer, thread, start, end, parent span and
self time.  Hot boundaries (kernels, Surd arithmetic, per-leaf calls) are
crossed 10^5-10^6 times per run and are only aggregated.

Times come from the per-thread CPU clock, so time the host gives to other
processes is not charged to a layer.  A layer's self time is its spans'
time minus the time their direct child calls cover; in one thread the
children run one after another, so the covered time is the sum of their
durations.  A call made on another thread starts a call path of its own.

A wrapper's own work is split by its clock readings: the part before t0
and after t1 lands in the caller's self time, the part between them in the
callee's.  `install` measures both per call on a no-op boundary
(`overhead`), and `contexts` subtracts count x cost from every self and
inclusive time, clamping a self time at zero.  Spans keep raw times.
"""

import itertools
import statistics
import sys
import threading
import time

_MARK = "__perfbench_wrapped__"


class Boundary:
    """One traced entry point: `owner.attr` in layer `layer`."""

    __slots__ = ("owner", "attr", "name", "layer", "hot", "adapter")

    def __init__(self, owner, attr, layer, hot, adapter=None):
        self.owner = owner          # module or class
        self.attr = attr
        prefix = owner.__name__.rsplit(".", 1)[-1]
        self.name = "%s.%s" % (prefix, attr)
        self.layer = layer
        self.hot = hot
        self.adapter = adapter      # fn -> fn with the same signature


class _Node:
    """Calling-context tree node, private to the thread that created it.
    A thread's root (anchor) has key None."""

    __slots__ = ("key", "parent", "children", "count", "total", "self_time")

    def __init__(self, key, parent):
        self.key = key
        self.parent = parent
        self.children = {}
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0

    def full_path(self):
        keys = []
        node = self
        while node.key is not None:
            keys.append(node.key)
            node = node.parent
        return tuple(reversed(keys))


class Tracer:
    """Install wrappers, collect the calling-context tree and spans."""

    def __init__(self, boundaries, clock=time.thread_time):
        self.boundaries = list(boundaries)
        self.layer_of = {b.name: b.layer for b in self.boundaries}
        self.clock = clock
        # seconds per wrapped call: (charged to the caller, to the callee)
        self.overhead = (0.0, 0.0)
        self.spans = []
        self._anchors = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches = []          # (holder, attr, original raw value)
        self.missing = []           # boundaries the program no longer has

    # -- per-thread state -------------------------------------------------

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            anchor = _Node(None, None)
            self._anchors.append(anchor)
            # frame: [node, child time, span id, thread id]
            stack = [[anchor, 0.0, 0, threading.get_ident()]]
            self._local.stack = stack
            return stack

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, boundary):
        clock = self.clock
        key = boundary.name
        layer = boundary.layer
        keep_span = not boundary.hot
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        inner = boundary.adapter(fn) if boundary.adapter else fn

        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1]
            pnode = parent[0]
            node = pnode.children.get(key)
            if node is None:
                node = pnode.children[key] = _Node(key, pnode)
            sid = next(ids) if keep_span else parent[2]
            frame = [node, 0.0, sid, parent[3]]
            stack.append(frame)
            t0 = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                own = d - frame[1]
                node.count += 1
                node.total += d
                node.self_time += own
                parent[1] += d
                if keep_span:
                    spans.append((sid, key, layer, frame[3], t0, t1,
                                  parent[2], own))

        setattr(wrapper, _MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", boundary.attr)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def measure_overhead(self, calls=20000, repeats=3):
        """Per-call wrapper cost, read on a no-op boundary with this clock.

        outer: the caller's self time with `calls` wrapped calls minus the
        same with plain calls, per call.  inner: the no-op's own self time
        per call, all of it the wrapper's.
        """
        outer, inner = [], []
        for _ in range(repeats):
            own = {}
            for wrapped in (True, False):
                probe = Tracer([], clock=self.clock)
                child = _noop
                if wrapped:
                    child = probe._wrap(_noop, Boundary(_Probe, "child",
                                                        "probe", hot=True))
                loop = probe._wrap(_loop, Boundary(_Probe, "loop", "probe",
                                                   hot=True))
                loop(child, calls)
                (node,) = probe._anchors[0].children.values()
                own[wrapped] = node.self_time
                if wrapped:
                    (leaf,) = node.children.values()
                    inner.append(leaf.self_time / calls)
            outer.append((own[True] - own[False]) / calls)
        self.overhead = (max(0.0, statistics.median(outer)),
                         max(0.0, statistics.median(inner)))
        return self.overhead

    # -- install / uninstall ----------------------------------------------

    def _rebind(self, holders, original, replacement):
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, attr, value))
                    setattr(holder, attr, replacement)

    def install(self):
        modules = fgap_modules()
        self.measure_overhead()
        self._stack()
        for b in self.boundaries:
            raw = vars(b.owner).get(b.attr)
            if raw is None:
                self.missing.append(b.name)
                continue
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, b))
            elif isinstance(raw, property):
                new = property(self._wrap(raw.fget, b), raw.fset, raw.fdel,
                               raw.__doc__)
            else:
                new = self._wrap(raw, b)
            if isinstance(b.owner, type):
                self._patches.append((b.owner, b.attr, raw))
                setattr(b.owner, b.attr, new)
            else:
                self._rebind(modules, raw, new)

    def uninstall(self):
        for holder, attr, value in reversed(self._patches):
            setattr(holder, attr, value)
        self._patches = []
        try:
            del self._local.stack
        except AttributeError:
            pass

    # -- results ----------------------------------------------------------

    def contexts(self):
        """{call path (tuple of boundary names): [count, total, self]},
        with the wrappers' measured cost taken out (see `overhead`)."""
        outer, inner = self.overhead
        out = {}
        below = {}      # id(node) -> calls made anywhere under it
        order = []
        todo = list(self._anchors)
        while todo:
            node = todo.pop()
            order.append(node)
            todo.extend(node.children.values())
        for node in reversed(order):        # children before parents
            kids = node.children.values()
            child_calls = sum(k.count for k in kids)
            below[id(node)] = child_calls + sum(below[id(k)] for k in kids)
            if node.key is None:
                continue
            agg = out.setdefault(node.full_path(), [0, 0.0, 0.0])
            agg[0] += node.count
            agg[1] += (node.total - node.count * inner
                       - below[id(node)] * (inner + outer))
            agg[2] += max(0.0, node.self_time - node.count * inner
                          - child_calls * outer)
        return out

    def layer_edges(self, contexts=None):
        """Roll the context tree up to (layer, parent layer) rows."""
        contexts = self.contexts() if contexts is None else contexts
        rows = {}
        for path, (count, total, own) in contexts.items():
            layer = self.layer_of[path[-1]]
            parent = self.layer_of[path[-2]] if len(path) > 1 else None
            row = rows.setdefault((layer, parent), [0, 0.0, 0.0])
            row[0] += count
            row[1] += total
            row[2] += own
        return rows


class _Probe:
    """Owner of the no-op boundaries measure_overhead times."""


def _noop():
    pass


def _loop(fn, n):
    for _ in range(n):
        fn()


def fgap_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fgap" or name.startswith("fgap."))]


def leftover_wrappers():
    """Names of any traced wrapper still reachable from fgap modules."""
    found = []
    for module in fgap_modules():
        for attr, value in vars(module).items():
            holders = [(attr, value)]
            if isinstance(value, type) and value.__module__ == module.__name__:
                holders += [("%s.%s" % (attr, k), v)
                            for k, v in vars(value).items()]
            for name, v in holders:
                for f in (v, getattr(v, "__func__", None),
                          getattr(v, "fget", None)):
                    if f is not None and hasattr(f, _MARK):
                        found.append("%s.%s" % (module.__name__, name))
    return sorted(set(found))
