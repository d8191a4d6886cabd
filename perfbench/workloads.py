"""The four workloads: seeded inputs, one timed pass, and correctness gates.

Each workload is a ``make_inputs(lib, rng, tiny)`` that builds the inputs, a
``run_pass(lib, inputs, runner)`` that times every instance and keeps its outputs,
and a ``check(inputs, instances)`` that runs after the pass, outside the timed
window, and returns ``(instance index or None, message)`` for every miss.
``lib`` holds the library modules; every call goes through a module attribute
so that the tracer's wrappers see it.  ``tiny`` selects the self-check sizes.

Why these workloads:

* census -- the only one that runs ``oracle.enumerate_semicomplete``; its time
  goes to enumeration and ``arc_connectivity`` on tiny dense digraphs.
* sweep -- many small calls; the oracle's arc-connectivity precheck
  dominates, then the search kernel, ``compose`` rebuilding and the
  characterization.
* search -- the oracle alone on larger digraphs, with heavy-tailed search
  trees cut by a node budget: the largest kernel share of any workload.
* construct -- the constructors and the CLI on large sparse hosts; it bypasses
  the search and arc-connectivity code, so changes there should not move it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from checks import arcs_strong, isomorphic, parse_decomposition_doc

INSTANCE_DIR = Path(__file__).resolve().parent / "instances"


@dataclass
class Instance:
    label: str
    start: float
    seconds: float  # as measured, probe time excluded after the pass
    output: Any = None
    error: Optional[str] = None
    reports: tuple = ()  # oracle reports made for this instance
    scaled: float = 0.0  # seconds at reference speed, set after the pass


class Runner:
    """Times one instance at a time and labels the tracer's spans with it."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def attempt(self, label: str, fn: Callable[[], Any], reports=lambda out: ()) -> Instance:
        """An exception is recorded, not raised, so a leaked ConstructionError
        or RecursionError fails the instance, not the run."""
        if self.tracer is not None:
            self.tracer.instance = label
        start = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # noqa: BLE001 - every raise is a failed instance
            error = f"{type(exc).__name__}: {exc}"
            return Instance(label, start, time.perf_counter() - start, error=error)
        return Instance(label, start, time.perf_counter() - start, out, reports=reports(out))


def check_decomposition(dec, host_n: int, host_arcs) -> Optional[str]:
    """Independent of decomp.verify: both sides inside the host, disjoint,
    and strong spanning."""
    a1, a2, host = set(dec.a1), set(dec.a2), set(host_arcs)
    if dec.host.n != host_n or set(dec.host.arcs) != host:
        return "decomposition host differs from the input"
    if not (a1 <= host and a2 <= host) or a1 & a2:
        return "sides leave the host or overlap"
    if not (arcs_strong(host_n, a1) and arcs_strong(host_n, a2)):
        return "a side is not strong spanning"
    return None


# ---------------------------------------------------------------------------
# census: acceptance criterion 2

CENSUS_CLASSES = {2: 0, 3: 1, 4: 7, 5: 196}
S4_ARCS = {(0, 1), (1, 0), (2, 3), (3, 2), (0, 3), (1, 2), (3, 1), (2, 0)}


@dataclass
class CensusInputs:
    orders: tuple
    perms: dict  # order -> vertex relabellings, one per expected class


def census_inputs(lib, rng, tiny):
    orders = (2, 3, 4) if tiny else (2, 3, 4, 5)
    perms = {n: [rng.sample(range(n), n) for _ in range(CENSUS_CLASSES[n] + 1)] for n in orders}
    return CensusInputs(orders, perms)


def census_pass(lib, inp, run):
    out = []
    for n in inp.orders:
        gen = lib.oracle.enumerate_semicomplete(n, 2)
        perms = inp.perms[n]

        def step(i):
            d = next(gen, None)
            if d is None:
                return None
            p = perms[i % len(perms)]
            d = lib.digraph.Digraph(n, [(p[u], p[v]) for u, v in d.arcs])
            return d, lib.oracle.oracle_good_decomposition(d)

        for i in itertools.count():
            inst = run.attempt(f"census/{n}/{i}", lambda: step(i), lambda o: (o[1],) if o else ())
            if inst.output is None and inst.error is None:
                break  # enumeration exhausted: this step is not an instance
            out.append(inst)
            if inst.error:
                break
    return out


def census_check(inp, instances):
    misses = []
    per_order = {n: 0 for n in inp.orders}
    nones = []
    for k, inst in enumerate(instances):
        if inst.error:
            misses.append((k, inst.error))
            continue
        d, rep = inst.output
        per_order[d.n] += 1
        if rep.outcome == "none":
            nones.append(k)
        elif rep.outcome != "found":
            misses.append((k, f"outcome {rep.outcome}"))
        else:
            why = check_decomposition(rep.decomposition, d.n, d.arcs)
            if why:
                misses.append((k, why))
    for n in inp.orders:
        if per_order[n] != CENSUS_CLASSES[n]:
            msg = f"order {n}: {per_order[n]} classes, expected {CENSUS_CLASSES[n]}"
            misses.append((None, msg))
    if len(nones) != 1:
        misses.append((None, f"{len(nones)} classes without a decomposition, expected 1 (S4)"))
    for k in nones:
        d = instances[k].output[0]
        if not isomorphic(d.n, d.arcs, 4, S4_ARCS):
            misses.append((k, "a class other than S4 has no decomposition"))
    return misses


# ---------------------------------------------------------------------------
# sweep: acceptance criterion 3 on a seeded systematic sample


def spec_space():
    """All 5,440 labelled specs: outer a strong semicomplete digraph on 3
    vertices, inner orders in {2, 3}, at most 2 inner arcs in total."""
    base = ((0, 1), (1, 2), (2, 0))
    extras = [(u, v) for u in range(3) for v in range(3) if u != v and (u, v) not in base]
    outers = [
        base + combo for k in range(len(extras) + 1) for combo in itertools.combinations(extras, k)
    ]
    for outer in outers:
        for sizes in itertools.product((2, 3), repeat=3):
            slots = [
                (i, a) for i, n in enumerate(sizes) for a in itertools.permutations(range(n), 2)
            ]
            for r in range(3):
                for chosen in itertools.combinations(slots, r):
                    yield outer, sizes, chosen


SWEEP_STRIDE = 4
SWEEP_STRIDE_TINY = 170


def sweep_inputs(lib, rng, tiny):
    """One spec drawn from every block of SWEEP_STRIDE consecutive specs, so
    every seed samples the space evenly."""
    stride = SWEEP_STRIDE_TINY if tiny else SWEEP_STRIDE
    space = list(spec_space())
    specs = []
    for start in range(0, len(space), stride):
        outer, sizes, chosen = space[start + rng.randrange(min(stride, len(space) - start))]
        inner_arcs = [[] for _ in sizes]
        for i, a in chosen:
            inner_arcs[i].append(a)
        specs.append(
            lib.builders.CompositionSpec(
                lib.digraph.Digraph(3, outer),
                tuple(lib.digraph.Digraph(n, arcs) for n, arcs in zip(sizes, inner_arcs)),
            )
        )
    return specs


def sweep_pass(lib, specs, run):
    def one(spec):
        res = lib.decomp.characterize_semicomplete_composition(spec)
        q = lib.builders.compose(spec).digraph
        rep = lib.oracle.oracle_good_decomposition(q)
        ok = None
        if res.decomposition is not None:
            ok = lib.decomp.verify_decomposition(res.decomposition).ok
        return res, q, rep, ok

    return [
        run.attempt(f"sweep/{k}", lambda: one(spec), lambda o: (o[2],))
        for k, spec in enumerate(specs)
    ]


def sweep_check(specs, instances):
    misses = []
    for k, inst in enumerate(instances):
        if inst.error:
            misses.append((k, inst.error))
            continue
        res, q, rep, ok = inst.output
        if rep.outcome not in ("found", "none"):
            misses.append((k, f"oracle outcome {rep.outcome}"))
        elif res.is_exception != (rep.outcome == "none"):
            misses.append((k, "characterization and oracle disagree"))
        elif not res.is_exception and not ok:
            misses.append((k, "characterization decomposition fails verify"))
        for dec in (res.decomposition, rep.decomposition):
            why = dec is not None and check_decomposition(dec, q.n, q.arcs)
            if why:
                misses.append((k, why))
    return misses


# ---------------------------------------------------------------------------
# search: the oracle on random 3-regular digraphs under a node budget

#: a larger budget raises the kernel's share of the time, but the pass time
#: then depends more on which digraphs the seed draws
SEARCH_ORDER, SEARCH_COUNT, SEARCH_BUDGET = 24, 200, 5000
SEARCH_ORDER_TINY, SEARCH_COUNT_TINY = 12, 4


def random_regular3(rng, n):
    """Union of three derangements that send no vertex to the same place,
    kept when strong."""
    while True:
        perms = []
        while len(perms) < 3:
            p = rng.sample(range(n), n)
            if all(p[v] != v and all(p[v] != q[v] for q in perms) for v in range(n)):
                perms.append(p)
        arcs = {(v, p[v]) for p in perms for v in range(n)}
        if arcs_strong(n, arcs):
            return n, arcs


def search_inputs(lib, rng, tiny):
    """(label, digraph, expected outcome or None) for every instance."""
    dg, b = lib.digraph, lib.builders
    fixed = [
        (f"exception/{tag}", lib.decomp.exception_digraph(tag), "none")
        for tag in lib.decomp.EXCEPTION_TAGS
    ]
    c5k2 = b.compose(b.CompositionSpec(dg.cycle(5), tuple(dg.empty(2) for _ in range(5)))).digraph
    fixed += [
        ("C5[K2,K2,K2,K2,K2]", c5k2, "none"),
        ("K5", dg.complete(5), "found"),
        ("K6", dg.complete(6), "found"),
    ]
    n, count = (SEARCH_ORDER_TINY, SEARCH_COUNT_TINY) if tiny else (SEARCH_ORDER, SEARCH_COUNT)
    randoms = [
        (f"regular3/{n}/{k}", dg.Digraph(*random_regular3(rng, n)), None) for k in range(count)
    ]
    return fixed + randoms


def search_pass(lib, inp, run):
    return [
        run.attempt(
            label,
            lambda: lib.oracle.oracle_good_decomposition(d, budget=SEARCH_BUDGET),
            lambda r: (r,),
        )
        for label, d, _ in inp
    ]


def search_check(inp, instances):
    misses = []
    for k, ((label, d, expected), inst) in enumerate(zip(inp, instances)):
        if inst.error:
            misses.append((k, inst.error))
            continue
        rep = inst.output
        if expected is not None and rep.outcome != expected:
            misses.append((k, f"{label}: outcome {rep.outcome}, expected {expected}"))
        if rep.outcome == "found":
            why = check_decomposition(rep.decomposition, d.n, d.arcs)
            if why:
                misses.append((k, why))
    return misses


# ---------------------------------------------------------------------------
# construct: constructor scaling series and in-process CLI runs

#: CLI runs on the fixed files in instances/: arguments, exit code, and the
#: SHA-256 of stdout; every document stays byte-identical across changes
CLI_RUNS = [
    ("cartesian-power", ["hub5.txt", "--strategy", "cartesian-power", "--power", "3"], 0,
     "64c5e3c37847dcda78d35622bf1aa73b03fbc4628b737f72bc71bf98de02e172"),
    ("strong-product", ["hub8.txt", "--strategy", "strong-product", "--factor", "hub6.txt"], 0,
     "e331ec48b00915449d83b243345b56b5fcc355a7e1e73aa1490e6285af242d58"),
    ("lex", ["hub6.txt", "--strategy", "lex", "--factor", "hub5.txt"], 0,
     "b85c1753198ce2c89f347178291b6f22fd4d23f882b3a9727ca25542667c3f85"),
    ("composition", ["comp_host.txt", "--strategy", "composition", "--spec", "comp.spec"], 0,
     "c8199741928d23a51b3738dcb6350800a55fbc85f2f3530a5d9e64b319e6e85d"),
    ("auto-refusal", ["c3_k2_k2_k3.txt"], 1,
     "9f67ae080b86e9f39e84b45b7127a5deba0740c82ea142a59416c985247fc46f"),
]


def hub_digraph(rng, n, chords):
    """Strong digraph on a Hamiltonian cycle through vertex 0 plus random
    chords, all of whose cycles pass through vertex 0: every arc-disjoint
    cycle cover then has a connected union, as the Cartesian constructions
    need.  Vertices are relabelled at random."""
    order = rng.sample(range(1, n), n - 1)
    arcs = {(0, order[0]), (order[-1], 0)} | {(order[i], order[i + 1]) for i in range(n - 2)}
    candidates = [(order[i], order[j]) for i in range(n - 1) for j in range(i + 2, n - 1)]
    candidates += [(0, v) for v in order[1:]] + [(v, 0) for v in order[:-1]]
    arcs |= set(rng.sample(candidates, chords))
    perm = rng.sample(range(n), n)
    return n, {(perm[u], perm[v]) for u, v in arcs}


@dataclass
class Job:
    label: str
    call: Callable
    order: int = 0  # host order
    size: int = 0  # host arc count, from the product formulas
    host: frozenset = frozenset()  # host arcs of a lexicographic product
    expect: tuple = ()  # CLI exit code and stdout SHA-256


def lex_host(g, h) -> frozenset:
    """Arcs of the lexicographic product, vertex (x, z) numbered x * |H| + z."""
    k = h.n
    between = {(x * k + z, y * k + w) for x, y in g.arcs for z in range(k) for w in range(k)}
    return frozenset(between | {(x * k + z, x * k + w) for x in range(g.n) for z, w in h.arcs})


def construct_inputs(lib, rng, tiny):
    dg, d = lib.digraph, lib.decomp

    def hub(n, chords):
        return dg.Digraph(*hub_digraph(rng, n, chords))

    jobs = []
    for n in (8, 12) if tiny else range(8, 33, 4):
        jobs.append(Job(f"cn_square/{n}", lambda n=n: d.decompose_cn_square(n), n * n, 2 * n * n))
    g = hub(5, 3)
    for k in (2, 3) if tiny else (2, 3, 4):
        jobs.append(Job(f"cartesian_power/{k}", lambda k=k: d.decompose_cartesian_power(g, k),
                        g.n ** k, k * g.m * g.n ** (k - 1)))
    sizes = [((4, 1), (3, 1))] if tiny else [((10, 4), (12, 4)), ((16, 6), (16, 6))]
    for g1, h1 in [(hub(*a), hub(*b)) for a, b in sizes]:
        tag, order = f"{g1.n}x{h1.n}", g1.n * h1.n
        strong = g1.m * h1.n + g1.n * h1.m + g1.m * h1.m
        lex = g1.m * h1.n ** 2 + g1.n * h1.m
        jobs.append(Job(f"strong_product/{tag}",
                        lambda g1=g1, h1=h1: d.decompose_strong_product(g1, h1), order, strong))
        jobs.append(Job(f"lexicographic/{tag}",
                        lambda g1=g1, h1=h1: d.decompose_lexicographic(g1, h1), order, lex,
                        lex_host(g1, h1)))
    for n, m in ((4, 4),) if tiny else ((8, 8), (16, 16), (24, 24), (32, 32)):
        jobs.append(Job(f"boxtimes/{n}x{m}", lambda n=n, m=m: d.decompose_cn_boxtimes_cm(n, m),
                        n * m, 3 * n * m))
    for name, args, code, digest in CLI_RUNS:
        files = [str(INSTANCE_DIR / a) if a.endswith((".txt", ".spec")) else a for a in args]
        argv = ["decompose"] + files
        jobs.append(Job(f"cli/{name}", lambda argv=argv: run_cli(lib, argv), expect=(code, digest)))
    return jobs


def run_cli(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.run_command(argv)
    return code, out.getvalue()


def construct_pass(lib, inp, run):
    return [run.attempt(job.label, job.call) for job in inp]


def check_cli(job, code, text) -> Optional[str]:
    digest = hashlib.sha256(text.encode()).hexdigest()
    if (code, digest) != job.expect:
        return f"exit {code}, stdout sha256 {digest}"
    if code != 0:
        return None
    try:
        n, host, a1, a2 = parse_decomposition_doc(text)
    except (ValueError, KeyError):
        return "unreadable decomposition document"
    if a1 <= host and a2 <= host and not a1 & a2 and arcs_strong(n, a1) and arcs_strong(n, a2):
        return None
    return "document is not a good decomposition"


def check_parts(job, out) -> Optional[str]:
    """A Decomposition, or the list of parts of a lexicographic product."""
    if isinstance(out, list):
        host, parts = job.host, out
        if len(parts) < 2:
            return "fewer than two parts"
    else:
        host, parts = out.host.arcs, [out.a1, out.a2]
        if out.host.n != job.order:
            return "host has the wrong order"
    if len(host) != job.size:
        return "host has the wrong size"
    seen: set = set()
    for part in map(set, parts):
        if seen & part or not part <= host or not arcs_strong(job.order, part):
            return "parts overlap, leave the host or are not strong spanning"
        seen |= part
    return None


def construct_check(inp, instances):
    misses = []
    for k, (job, inst) in enumerate(zip(inp, instances)):
        if inst.error:
            why = inst.error
        elif job.expect:
            why = check_cli(job, *inst.output)
        else:
            why = check_parts(job, inst.output)
        if why:
            misses.append((k, f"{job.label}: {why}"))
    return misses


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable
    run_pass: Callable
    check: Callable
    pass_seconds: float  # nominal time of one pass; sets the pass count


WORKLOADS = {
    w.name: w
    for w in (
        Workload("census", census_inputs, census_pass, census_check, 10.0),
        Workload("sweep", sweep_inputs, sweep_pass, sweep_check, 6.5),
        Workload("search", search_inputs, search_pass, search_check, 20.0),
        Workload("construct", construct_inputs, construct_pass, construct_check, 0.2),
    )
}


def input_sizes(name: str, inputs) -> dict:
    """Instance count and input sizes, for the run metadata."""
    if name == "census":
        return {"orders": list(inputs.orders)}
    if name == "sweep":
        return {"specs": len(inputs), "max_order": max(sum(h.n for h in s.inners) for s in inputs)}
    if name == "search":
        orders = sorted({d.n for _, d, _ in inputs})
        return {"digraphs": len(inputs), "orders": orders, "budget": SEARCH_BUDGET}
    return {"jobs": len(inputs), "max_host_arcs": max(job.size for job in inputs)}
