"""Scaling measured times to a reference machine speed.

On a shared machine the same Python code runs up to twice as slow while
other tenants load the host, in phases of a fraction of a second to minutes,
and process CPU time slows just as much.  While a SpeedProbe is entered, a
SIGALRM timer (no thread) runs a fixed probe -- benchmark code that no change
to the library can change -- every PROBE_INTERVAL_S, also in the middle of a
library call.  A measured interval, minus the probe time inside it, is
multiplied by PROBE_REF_S over the probe time around it.  Reported times are
thus seconds at the speed where the probe takes PROBE_REF_S, about its time
on an idle 2.0 GHz Xeon VM core; raw times are kept next to them in the run
record.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

from checks import arcs_strong

PROBE_REF_S = 0.00082
PROBE_INTERVAL_S = 0.05
_BFS_N = 64
_BFS_ARCS = sorted({(v, (v + s) % _BFS_N) for v in range(_BFS_N) for s in (1, 5, 17)})
_FLOW_N = 6
_FLOW_ARCS = [(u, (u + s) % _FLOW_N) for u in range(_FLOW_N) for s in (1, 2, 3)]


def _unit_flow(arcs, n: int, s: int, t: int) -> int:
    """Arc-disjoint s-t paths by BFS augmentation over dict capacities."""
    cap: dict = {}
    adj = [set() for _ in range(n)]
    for u, v in arcs:
        cap[(u, v)] = 1
        cap.setdefault((v, u), 0)
        adj[u].add(v)
        adj[v].add(u)
    flow = 0
    while True:
        prev = {s: s}
        queue = [s]
        while queue and t not in prev:
            nxt = []
            for u in queue:
                for v in sorted(adj[u]):
                    if v not in prev and cap[(u, v)] > 0:
                        prev[v] = u
                        nxt.append(v)
            queue = nxt
        if t not in prev:
            return flow
        v = t
        while v != s:
            cap[(prev[v], v)] -= 1
            cap[(v, prev[v])] += 1
            v = prev[v]
        flow += 1


def _probe_work() -> None:
    """Graph search and small max-flows with fresh dicts and sets: the kind of
    work the library's hot paths do, written here so no change to the
    library can change it."""
    for _ in range(6):
        arcs_strong(_BFS_N, _BFS_ARCS)
    arcs = frozenset(_FLOW_ARCS)
    for s in range(_FLOW_N):
        for t in range(_FLOW_N):
            if s != t:
                _unit_flow(arcs, _FLOW_N, s, t)


class SpeedProbe:
    def __init__(self):
        self.events: list[tuple[float, float]] = []  # (start, end) of each probe
        self._mids: list[float] = []  # probe midpoints and times, filled lazily
        self._times: list[float] = []
        self._previous_handler = None

    def __enter__(self):
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.probe()
        return False

    def _on_alarm(self, signum, frame) -> None:
        self.probe()

    def probe(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _probe_work()
            self.events.append((start, time.perf_counter()))
        finally:
            if enabled:
                gc.enable()

    def _inside(self, start: float, end: float) -> list:
        i = bisect.bisect_left(self.events, (start,))
        j = bisect.bisect_left(self.events, (end,))
        return self.events[i:j]

    def busy(self, start: float, end: float) -> float:
        """Probe time inside [start, end]."""
        return sum(b - a for a, b in self._inside(start, end))

    def _probe_time_at(self, t: float) -> float:
        """Probe time at t, interpolated linearly between probe midpoints."""
        mids = [(a + b) / 2 for a, b in self.events[len(self._mids):]]
        self._mids += mids
        self._times += [b - a for a, b in self.events[len(self._times):]]
        i = bisect.bisect_left(self._mids, t)
        if i == 0:
            return self._times[0]
        if i == len(self._mids):
            return self._times[-1]
        m0, m1 = self._mids[i - 1], self._mids[i]
        w = (t - m0) / (m1 - m0)
        return self._times[i - 1] * (1 - w) + self._times[i] * w

    def scaled(self, start: float, end: float) -> float:
        """Seconds at reference speed of [start, end], probe time excluded."""
        cuts = [start]
        for a, b in self._inside(start, end):
            cuts += [a, b]
        cuts.append(end)
        total = 0.0
        for a, b in zip(cuts[::2], cuts[1::2]):
            if b > a:
                total += (b - a) * PROBE_REF_S / self._probe_time_at((a + b) / 2)
        return total
