"""One pass of a benchmark workload, in the fresh interpreter run.py starts.

A pass has three phases:

1. set-up: import rmx and generate the workload's inputs from the seed and
   the tables in ``data/inputs.json`` (no rmx call is made here);
2. the timed phase: one operation at a time, each under a hard time limit;
3. verification of every answer, after the clock has stopped.

The pass reports on standard output, one JSON object a line, so that run.py
still sees the finished operations of a pass it had to kill:

    {"ready": <monotonic clock>, "planned": <operations>}
    {"op": <name>, "s": <seconds>, "error": <null or reason>}    (per op)
    {"done": true, "wall_s": ..., "peak_rss_mb": ..., "bad": {op: reason},
     "answers": {op: answer},
     "scale": ..., "scales": {op: factor}     (untraced)  or  "layers": {...}}

A set-up-only pass (``--deadline 0``) reports ``{"scale": ...}`` after
"ready".  Times are the process's own seconds; "scale" turns them into
reference seconds (see SLICE_EVERY_S).

``python3 benchmarks/workloads.py --write-data`` regenerates
``data/inputs.json`` and the reference answers ``data/reference.json``
for the default seed; both are committed.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import csv
import hashlib
import io
import json
import random
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
INPUTS = HERE / "data" / "inputs.json"
REFERENCE = HERE / "data" / "reference.json"

DEFAULT_SEED = 1
OP_TIMEOUT_S = 60.0

# Sizes per configuration; "smoke" runs each workload in about a second.
COMBINATORICS_TYPES = {"full": ("A32", "D20", "E7", "E8"),
                       "smoke": ("A4", "D4", "E6")}
IRREDUCIBLE_QUERIES = {"full": 250, "smoke": 20}
DOREY_TYPES = {"full": ("E6", "D6"), "smoke": ("A3", "D4")}
DOREY_PAIRS_PER_TYPE = {"full": 25, "smoke": 3}
SELFCHECK_SCOPE = {"full": "full", "smoke": "fast"}

# The shared hosts this runs on change speed by tens of per cent from one
# minute to the next, for all Python code alike.  So an untraced pass runs a
# fixed reference slice of exact arithmetic after every SLICE_EVERY_S of CPU
# time, takes the slices out of its timings, and reports factors
# REFERENCE_SLICE_S / (mean slice time) for the pass and for each operation.
# run.py multiplies the times by them: they then read as on a host where one
# slice takes 4 ms.
SLICE_EVERY_S = 0.1
REFERENCE_SLICE_S = 0.004
SPEED_WINDOW_S = 1.0  # an operation's factor uses the slices this close to it

LRU_CACHES = (
    ("root_system", "positive_roots"),
    ("quantum_cartan", "ctilde_table"),
    ("ar_quiver", "default_height"),
    ("ar_quiver", "coxeter_word"),
    ("ar_quiver", "module_strip"),
)
ORACLE_CALLS = ("indec_rep", "hom_dim_rep", "ext1_dim_rep")
ORACLE_SELF = ("decompose", "nonsplit_extension")


class Exceeded(BaseException):
    """An operation ran past its time limit.

    A BaseException, so that rmx's own ``except Exception`` handlers (the
    selfcheck runner has one) cannot swallow it.
    """


def _alarm(signum, frame):
    raise Exceeded()


def reference_slice() -> float:
    """Seconds one fixed stretch of Fraction arithmetic takes right now."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 2000):
        total += Fraction(1, k % 97 + 1)
    return time.perf_counter() - t0


class Speedometer:
    """Runs reference slices on a CPU-time timer, inside whatever executes."""

    def __init__(self):
        self.starts: list[float] = []  # monotonic clock at each slice's start
        self.slices: list[float] = []  # each slice's seconds
        self.spent = 0.0  # seconds spent in slices so far

    def tick(self, signum=None, frame=None) -> None:
        self.starts.append(time.monotonic())
        took = reference_slice()
        self.slices.append(took)
        self.spent += took

    def _between(self, t0: float, t1: float) -> list[float]:
        """The slices that started between t0 and t1 (monotonic clock)."""
        return self.slices[bisect.bisect_left(self.starts, t0):
                           bisect.bisect_right(self.starts, t1)]

    def spent_in(self, t0: float, t1: float) -> float:
        return sum(self._between(t0, t1))

    def __enter__(self):
        signal.signal(signal.SIGVTALRM, self.tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, SLICE_EVERY_S, SLICE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def scale(self, t0: float, t1: float) -> float | None:
        """Factor that turns this process's seconds into reference seconds,
        from the slices between t0 and t1; None if there are none."""
        chosen = self._between(t0, t1)
        return REFERENCE_SLICE_S / statistics.mean(chosen) if chosen else None

    def pass_scale(self) -> float:
        """The factor over all of a pass's slices, taking a few if needed."""
        while len(self.slices) < 5:
            self.tick()
        return self.scale(float("-inf"), float("inf"))


def digest(value) -> str:
    text = value if isinstance(value, str) else repr(value)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def import_rmx() -> dict:
    sys.path.insert(0, str(SRC))
    import importlib

    return {name: importlib.import_module(f"rmx.{name}") for name in (
        "root_system", "quantum_cartan", "ar_quiver", "denominators",
        "schur_weyl", "rep_oracle", "linalg", "cli", "selfcheck")}


def cli_call(cli, argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"rmx {' '.join(argv)} exited {code}")
    return buf.getvalue()


class Pass:
    """Runs timed operations and keeps what they returned."""

    def __init__(self, out, deadline: float):
        signal.signal(signal.SIGALRM, _alarm)
        self.out = out
        self.deadline = deadline  # on the monotonic clock
        self.results: dict = {}  # op name -> output of an op that finished
        self.seconds: dict = {}  # op name -> seconds
        self.intervals: dict = {}  # op name -> (start, end), monotonic clock
        self.speed = Speedometer()  # started only for untraced passes

    def emit(self, **record) -> None:
        self.out.write(json.dumps(record) + "\n")
        self.out.flush()

    def call(self, fn, limit: float = OP_TIMEOUT_S):
        """(output, error, seconds) of fn() under the op and pass limits.

        The seconds leave out reference slices.  The call's start and end
        on the monotonic clock are left in ``self.op_start`` and
        ``self.op_end``.
        """
        self.op_start = self.op_end = t0 = time.monotonic()
        left = self.deadline - t0
        if left <= 0:
            return None, "exceeded", 0.0

        def took():
            self.op_end = time.monotonic()
            return self.op_end - t0 - self.speed.spent_in(t0, self.op_end)

        try:
            signal.setitimer(signal.ITIMER_REAL, min(limit, left))
            try:
                return fn(), None, took()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Exceeded:
            return None, "exceeded", took()
        except Exception as exc:  # an operation that raised is a failed op
            return None, f"{type(exc).__name__}: {exc}", took()

    def record(self, name: str, output, error, seconds: float, start: float,
               end: float) -> None:
        if error is None:
            self.results[name] = output
        self.seconds[name] = seconds
        self.intervals[name] = (start, end)
        self.emit(op=name, s=seconds, error=error)

    def op(self, name: str, fn):
        output, error, seconds = self.call(fn)
        self.record(name, output, error, seconds, self.op_start, self.op_end)
        return output

    def scales(self) -> dict:
        """Each operation's factor, from the slices within SPEED_WINDOW_S of
        it (the pass's factor where there are none)."""
        whole = self.speed.pass_scale()
        return {name: self.speed.scale(t0 - SPEED_WINDOW_S, t1 + SPEED_WINDOW_S) or whole
                for name, (t0, t1) in self.intervals.items()}


# ---------------------------------------------------------------------------
# combinatorics-large: the combinatorics route at large rank


def combinatorics_inputs(data, rng, config):
    types = []
    for label in COMBINATORICS_TYPES[config]:
        t = data["types"][label]
        n, h, eps = t["rank"], t["h"], t["eps"]

        def vertex():
            i = rng.randint(1, n)
            p = rng.randint(-h, h)
            if (p - eps[i - 1]) % 2:
                p += 1 if p < h else -1
            return (i, p)

        queries = [(vertex(), vertex()) for _ in range(IRREDUCIBLE_QUERIES[config])]
        types.append(dict(t, label=label, queries=queries))
    return {"types": types}


def combinatorics_plan(inputs) -> int:
    return sum(5 + t["rank"] ** 2 for t in inputs["types"])


def combinatorics_run(m, inputs, run: Pass) -> None:
    """Per type: the Cartan data, the ct table through the CLI, every
    denominator as its own operation, the batch of irreducibility queries,
    then the two graph exports through the CLI.

    One operation per denominator puts the latency percentiles inside one
    kind of operation, the largest type's denominator queries, instead of at
    a boundary between kinds, where they would jump from run to run.
    """
    rs, dn, cli = m["root_system"], m["denominators"], m["cli"]
    for t in inputs["types"]:
        label, fam, n, h = t["label"], t["family"], str(t["rank"]), t["h"]
        cd = run.op(f"{label}.build_cartan", lambda: rs.build_cartan(fam, t["rank"]))
        run.op(f"{label}.ctilde", lambda: cli_call(
            cli, ["ctilde", "--type", fam, "--rank", n, "--format", "csv"]))
        for i in range(1, t["rank"] + 1):
            for j in range(1, t["rank"] + 1):
                run.op(f"{label}.d{i},{j}", lambda: dn.denominator(cd, i, j).factors)
        run.op(f"{label}.irreducible", lambda: [
            dn.is_tensor_irreducible(cd, x, y) for x, y in t["queries"]])
        run.op(f"{label}.gamma", lambda: cli_call(cli, [
            "export", "gamma", "--type", fam, "--rank", n,
            "--p-lo", "0", "--p-hi", str(h), "--format", "json"]))
        run.op(f"{label}.ar-quiver", lambda: cli_call(cli, [
            "export", "ar-quiver", "--type", fam, "--rank", n,
            "--p-lo", str(-(h // 2)), "--p-hi", str(h // 2), "--format", "json"]))


def combinatorics_answer(name: str, output) -> str:
    """CLI output as a digest of its bytes, anything else as its repr."""
    if name.endswith(".build_cartan"):
        output = digest((output.family, output.rank, output.cartan, output.edges,
                         output.h, output.star, output.eps))
    return digest(output) if isinstance(output, str) else repr(output)


def combinatorics_verify(m, inputs, results, todo, rng) -> dict:
    """Checks through the Coxeter-element route, independent of the table."""
    ar, qc = m["ar_quiver"], m["quantum_cartan"]
    bad = {}
    for t in inputs["types"]:
        label, h = t["label"], t["h"]

        def get(op):
            return results[f"{label}.{op}"] if f"{label}.{op}" in todo else None

        cd = results.get(f"{label}.build_cartan")
        if cd is None:
            continue
        if (cd.family, cd.rank, cd.h, list(cd.eps)) != (
                t["family"], t["rank"], h, t["eps"]):
            bad[f"{label}.build_cartan"] = "type data differ"
            continue
        Q = ar.monotone_quiver(cd)
        xi = ar.default_height(Q)

        def ct(i, j, l):
            return qc.ctilde_coxeter(cd, Q, xi, i, j, l)

        def pole(x, y):
            (i, p), (j, r) = x, y
            return ct(i, j, r - p - 1) if 1 <= r - p - 1 <= h - 1 else 0

        verts = list(cd.vertices)
        text = get("ctilde")
        if text is not None:
            rows = list(csv.reader(io.StringIO(text)))
            table = {(int(r[0]), int(r[1])): [int(v) for v in r[2:]] for r in rows[1:]}
            if len(rows[0]) != 2 + 2 * h or len(table) != cd.rank ** 2:
                bad[f"{label}.ctilde"] = "table shape"
            else:
                for _ in range(60):
                    i, j, l = rng.choice(verts), rng.choice(verts), rng.randint(1, 2 * h)
                    if table[(i, j)][l - 1] != ct(i, j, l):
                        bad[f"{label}.ctilde"] = f"ct_{i}{j}({l})"
                        break
        new = [(i, j) for i in verts for j in verts if get(f"d{i},{j}") is not None]
        for i, j in new:
            factors = results[f"{label}.d{i},{j}"]
            if factors != results.get(f"{label}.d{j},{i}", factors):
                bad[f"{label}.d{i},{j}"] = f"d_{i}{j} != d_{j}{i}"
            elif any(k <= 0 or mult <= 0 or (k + cd.eps_of(i) + cd.eps_of(j)) % 2
                     for k, mult in factors):
                bad[f"{label}.d{i},{j}"] = "zero off its parity or multiplicity <= 0"
        for i, j in rng.sample(new, min(20, len(new))):
            want = tuple((l + 1, ct(i, j, l)) for l in range(1, h) if ct(i, j, l))
            if results[f"{label}.d{i},{j}"] != want:
                bad[f"{label}.d{i},{j}"] = "multiplicities differ from the Coxeter route"
        answers = get("irreducible")
        if answers is not None:
            for (x, y), got in zip(t["queries"], answers):
                if got != (pole(x, y) == 0 and pole(y, x) == 0):
                    bad[f"{label}.irreducible"] = f"{x}, {y} differs from the Coxeter route"
                    break
        text = get("gamma")
        if text is not None:
            graph = json.loads(text)
            arrows = {(a["from"], a["to"]): a["mult"] for a in graph["arrows"]}
            keys = graph["vertices"]
            for _ in range(300):
                u, v = rng.choice(keys), rng.choice(keys)
                x = tuple(int(c) for c in u.split(","))
                y = tuple(int(c) for c in v.split(","))
                if arrows.get((u, v), 0) != pole(y, x):
                    bad[f"{label}.gamma"] = f"arrow {u} -> {v}"
                    break
        text = get("ar-quiver")
        if text is not None:
            graph = json.loads(text)
            want = sum(1 for i in verts for p in range(-(h // 2), h // 2 + 1)
                       if (p - cd.eps_of(i)) % 2 == 0)
            if len(graph["vertices"]) != want:
                bad[f"{label}.ar-quiver"] = "vertex count"
            for vert in graph["vertices"]:
                root = [int(c) for c in vert["root"].split(",")]
                tits = sum(c * c for c in root) - sum(
                    root[u - 1] * root[v - 1] for u, v in cd.edges)
                if tits != 1 or min(root) < 0:
                    bad[f"{label}.ar-quiver"] = f"{vert['root']} is not a positive root"
                    break
    return bad


# ---------------------------------------------------------------------------
# dorey-sweep: the linear-algebra route


def dorey_inputs(data, rng, config):
    """Simple-pole pairs drawn so that every seed does about the same work.

    The pool groups the pairs by the orientation whose module category holds
    both, and sorts each group by the matrix cells a query eliminates once
    the group's Hom Gram matrix is built.  A draw takes one pair from every
    group but the monotone one, so each seed builds the same Hom Gram
    matrices (one per orientation), and fills up with one pair from each of
    equal slices of the sorted monotone group, so each seed draws the same
    spread of cheap and costly queries.
    """
    pairs = []
    per_type = DOREY_PAIRS_PER_TYPE[config]
    for label in DOREY_TYPES[config]:
        groups = data["dorey_pools"][label]
        picks = [rng.choice(g["pairs"]) for g in groups[1:per_type]]
        common = groups[0]["pairs"]
        slices = per_type - len(picks)
        picks += [rng.choice(common[k * len(common) // slices:(k + 1) * len(common) // slices])
                  for k in range(slices)]
        pairs += [(label, tuple(x), tuple(y)) for x, y in picks]
    rng.shuffle(pairs)
    return {"types": {label: data["types"][label] for label in DOREY_TYPES[config]},
            "pairs": pairs}


def dorey_name(label, x, y) -> str:
    return f"{label}:{x[0]},{x[1]}>{y[0]},{y[1]}"


def dorey_plan(inputs) -> int:
    return len(inputs["pairs"])


def dorey_run(m, inputs, run: Pass) -> None:
    rs, ar, dn = m["root_system"], m["ar_quiver"], m["denominators"]
    quivers = {}
    for label, t in inputs["types"].items():
        cd = rs.build_cartan(t["family"], t["rank"])
        Q = ar.monotone_quiver(cd)
        quivers[label] = (cd, Q, ar.default_height(Q))
    for label, x, y in inputs["pairs"]:
        cd, Q, xi = quivers[label]
        run.op(dorey_name(label, x, y), lambda: dn.dorey_middle_term(cd, Q, xi, x, y))


def dorey_answer(name: str, output) -> str:
    return output.render()


def dorey_verify(m, inputs, results, todo, rng) -> dict:
    """The middle term lies strictly below Y_x Y_y in the monomial order."""
    rs, dn = m["root_system"], m["denominators"]
    cds = {label: rs.build_cartan(t["family"], t["rank"]) for label, t in inputs["types"].items()}
    bad = {}
    for label, x, y in inputs["pairs"]:
        name = dorey_name(label, x, y)
        if name not in todo:
            continue
        mono = results[name]
        cd = cds[label]
        top = dn.Monomial.y(*x) * dn.Monomial.y(*y)
        if not dn.monomial_leq(cd, mono, top) or dn.monomial_leq(cd, top, mono):
            bad[name] = f"{mono.render()} is not strictly below {top.render()}"
    return bad


# ---------------------------------------------------------------------------
# selfcheck-full: what users run to certify results


def selfcheck_inputs(data, rng, config):
    return {"scope": SELFCHECK_SCOPE[config], "checks": data["selfcheck"][config]}


def selfcheck_plan(inputs) -> int:
    return len(inputs["checks"])


def selfcheck_run(m, inputs, run: Pass) -> None:
    """One ``selfcheck.run`` call; each of its checks is one operation."""
    report, error, seconds = run.call(lambda: m["selfcheck"].run(inputs["scope"]),
                                      limit=OP_TIMEOUT_S * len(inputs["checks"]))
    if report is None:
        for name in inputs["checks"]:
            run.record(name, None, error, seconds / len(inputs["checks"]),
                       run.op_start, run.op_end)
        return
    # the checks ran back to back from the start of the call
    start = run.op_start
    for check in report["checks"]:
        end = start + check["seconds"]
        run.record(check["name"], check["detail"],
                   None if check["passed"] else check["detail"],
                   check["seconds"] - run.speed.spent_in(start, end), start, end)
        start = end


def selfcheck_answer(name: str, output) -> str:
    return "passed"


def selfcheck_verify(m, inputs, results, todo, rng) -> dict:
    return {name: "check missing from the report"
            for name in inputs["checks"] if name not in results}


WORKLOADS = {
    "combinatorics-large": (combinatorics_inputs, combinatorics_plan, combinatorics_run,
                            combinatorics_answer, combinatorics_verify),
    "dorey-sweep": (dorey_inputs, dorey_plan, dorey_run, dorey_answer, dorey_verify),
    "selfcheck-full": (selfcheck_inputs, selfcheck_plan, selfcheck_run,
                       selfcheck_answer, selfcheck_verify),
}


# ---------------------------------------------------------------------------
# tracing


def layer_metrics(tracer, caches: dict, before: dict, wall_s: float) -> dict:
    out = tracer.layer_totals()
    out["root_system.build_cartan.calls"] = tracer.calls["root_system.build_cartan"]
    for key, cache in caches.items():
        info = cache.cache_info()
        hits = info.hits - before[key].hits
        misses = info.misses - before[key].misses
        out[f"{key}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for name in ORACLE_CALLS:
        out[f"rep_oracle.{name}.calls"] = tracer.calls[f"rep_oracle.{name}"]
    for name in ORACLE_SELF:
        out[f"rep_oracle.{name}.self_s"] = tracer.self_s[f"rep_oracle.{name}"]
    out["linalg.cells"] = tracer.cells
    out["linalg.max_rows"] = tracer.max_rows
    layers_s = sum(v for k, v in out.items() if k.count(".") == 1 and k.endswith(".self_s"))
    out["bench.self_s"] = wall_s - layers_s
    return out


# ---------------------------------------------------------------------------
# entry points


def generate(workload: str, seed: int, config: str):
    """Import rmx and make the inputs: the set-up phase of a pass."""
    modules = import_rmx()
    data = json.loads(INPUTS.read_text())
    rng = random.Random(seed)
    inputs = WORKLOADS[workload][0](data, rng, config)
    return modules, inputs


def run_pass(workload: str, seed: int, config: str, deadline_s: float,
             traced: bool, spans_path: str | None, known: dict, out) -> None:
    start = time.monotonic()
    modules, inputs = generate(workload, seed, config)
    _, plan, timed, answer, verify = WORKLOADS[workload]
    run = Pass(out, start + deadline_s)
    run.emit(ready=time.monotonic(), planned=plan(inputs))
    if deadline_s <= 0:  # set-up only
        run.emit(scale=run.speed.pass_scale())
        return
    tracer = None
    if traced:  # imported here to keep it out of the set-up time of a pass
        from tracing import Tracer

        tracer = Tracer(modules)
        caches = {f"{layer}.{name}": getattr(modules[layer], name)
                  for layer, name in LRU_CACHES}
        before = {key: cache.cache_info() for key, cache in caches.items()}
        tracer.install()
    t0 = time.perf_counter()
    try:
        with run.speed if tracer is None else contextlib.nullcontext():
            timed(modules, inputs, run)
    finally:
        wall_s = time.perf_counter() - t0 - run.speed.spent
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    done = {"done": True, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
    if tracer is None:
        done["scale"] = run.speed.pass_scale()
        done["scales"] = run.scales()
    else:
        done["layers"] = layer_metrics(tracer, caches, before, wall_s)
        if spans_path:
            tracer.write_spans(spans_path)

    # An answer equal to one an earlier pass of this run checked is known
    # good; the rest go through the workload's checks.
    answers = {name: answer(name, output) for name, output in run.results.items()}
    todo = {name for name, a in answers.items() if known.get(name) != a}
    bad = verify(modules, inputs, run.results, todo, random.Random(seed))
    if seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())[config][workload]
        for name, a in answers.items():
            if name not in bad and a != reference.get(name):
                bad[name] = "differs from the reference answer"
    done["bad"] = bad
    done["answers"] = answers
    run.emit(**done)


def query_cells(m, cd, Q, xi, x, y) -> int:
    """Matrix cells a Dorey query eliminates: a deterministic cost measure."""
    from tracing import Tracer

    tracer = Tracer({"linalg": m["linalg"]})
    tracer.install()
    try:
        m["denominators"].dorey_middle_term(cd, Q, xi, x, y)
    finally:
        tracer.uninstall()
    return tracer.cells


def write_data() -> None:
    """Regenerate data/inputs.json and data/reference.json from rmx."""
    m = import_rmx()
    rs, ar, dn, sc = m["root_system"], m["ar_quiver"], m["denominators"], m["selfcheck"]
    labels = sorted({lab for conf in (COMBINATORICS_TYPES, DOREY_TYPES)
                     for labs in conf.values() for lab in labs})
    types, pools = {}, {}
    for label in labels:
        cd = rs.build_cartan(label[0], int(label[1:]))
        types[label] = {"family": cd.family, "rank": cd.rank, "h": cd.h, "eps": list(cd.eps)}
    for label in sorted({lab for labs in DOREY_TYPES.values() for lab in labs}):
        cd = rs.build_cartan(label[0], int(label[1:]))
        verts = ar.delta_vertices(cd, 0, cd.h)
        groups: dict = {ar.monotone_quiver(cd).arrows: []}
        for x in verts:
            for y in verts:
                if y[1] - x[1] != cd.h and dn.pole_order(cd, x, y) == 1:
                    placement = dn.common_heart(cd, x, y)
                    if placement is not None:
                        groups.setdefault(placement[0].arrows, []).append((x, y))
        Q = ar.monotone_quiver(cd)
        xi = ar.default_height(Q)
        for pairs in groups.values():
            for x, y in pairs:  # the first query of a group builds its Hom Gram
                dn.dorey_middle_term(cd, Q, xi, x, y)
            pairs.sort(key=lambda pair: query_cells(m, cd, Q, xi, *pair))
        pools[label] = [{"quiver": [list(a) for a in arrows],
                         "pairs": [list(pair) for pair in pairs]}
                        for arrows, pairs in groups.items()]
    checks = {config: [c["name"] for c in sc.run(scope)["checks"]]
              for config, scope in SELFCHECK_SCOPE.items()}
    INPUTS.parent.mkdir(exist_ok=True)
    INPUTS.write_text(json.dumps(
        {"types": types, "dorey_pools": pools, "selfcheck": checks}) + "\n")

    reference = {"seed": DEFAULT_SEED}
    for config in ("full", "smoke"):
        reference[config] = {}
        for workload, (make, _, timed, answer, verify) in WORKLOADS.items():
            inputs = make(json.loads(INPUTS.read_text()), random.Random(DEFAULT_SEED), config)
            run = Pass(io.StringIO(), time.monotonic() + 3600)
            timed(m, inputs, run)
            bad = verify(m, inputs, run.results, set(run.results),
                         random.Random(DEFAULT_SEED))
            if bad or len(run.results) != len(run.seconds):
                raise SystemExit(f"{config} {workload}: answers fail their checks: {bad}")
            reference[config][workload] = {
                name: answer(name, out) for name, out in sorted(run.results.items())}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--config", choices=("full", "smoke"), default="full")
    p.add_argument("--deadline", type=float, default=0.0,
                   help="seconds the pass may take; 0 stops after set-up")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", default=None, help="file for the span log of a traced pass")
    p.add_argument("--known", default=None,
                   help="JSON file of answers that earlier passes of the run checked")
    p.add_argument("--write-data", action="store_true")
    args = p.parse_args(argv)
    if args.write_data:
        write_data()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    known = json.loads(Path(args.known).read_text()) if args.known else {}
    run_pass(args.workload, args.seed, args.config, args.deadline, args.trace,
             args.spans, known, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
