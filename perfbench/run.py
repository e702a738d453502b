"""fgap benchmark: the certified searches and ring analysis, end to end and
per layer.

Run from the repository root:

    python3 perfbench/run.py --workload gap_surd --seed 1 --seconds 15 --trace 0

Every operation goes through `fgap.cli.main` inside this one process, with
FGAP_THREADS=1, fgap's default (see THREADS below).  `--workload all` runs
the four workloads in turn in one process (peak_rss_mb is then the
process's high-water mark so far).  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; the lines
before it print each metric by name and unit and the run's context (kernel
backend, Python version, nproc, thread count, seed).  The same record goes to
perfbench/out/, under a name that includes the backend.  Results from
different kernel backends are different programs: compare runs only when
their `backend` matches.  FGAP_PURE=1 in the environment forces the pure
kernels, as in fgap itself.

Workloads (the seed is an argument; fgap receives only generated inputs)
------------------------------------------------------------------------
gap_surd        `search gap --dmax 4sqrt(3)/5`, the paper's certified window.
                The irrational endpoint sends each leaf's window test through
                AlgebraicNumber.cmp_surd bisection: gapsearch.leaf and
                algnum.isolate do about 2/3 of the work, gapsearch.walk 1/3.
gap_rational    `search gap --dmax 277/200`.  Same tree as gap_surd (7,043
                interior nodes, 4,810 leaves, same survivor), but a rational
                endpoint is settled by two Sturm counts and cmp_surd never
                runs.  The walk does most of the work: the control for any
                leaf or isolation change.
cubic_appendix  `search cubic` (default window, a <= 45).  No tree walk and
                no isolation: Surd.ceil/floor and Surd arithmetic for the
                window bounds do almost all of the work; filtering 18,393
                candidates is under 1%.
ring_batch      A seeded closed loop of `analyze` requests (one client, the
                next request after the previous reply) over commutative based
                rings of rank 2-16 (K_n, Z_m, near-group Z_n + k, tensor
                products), plus `dnumber` on each orbit polynomial of degree
                >= 2 named in the reply.  No search code runs: fusionring
                (validation, commutativity, spectra) and obstruct dominate,
                algnum serves codegree spectra, kernels.resultant gets calls.

For a search workload the seed picks one of several spellings of the same
window (`4sqrt(3)/5`, `4*sqrt(3)/5`, `4√3/5`, ...): the output bytes are the
same for all of them.  For ring_batch it fills the deck (see rings.py).

End-to-end metrics (--trace 0; tracing is off)
----------------------------------------------
An operation is one certified search, or one ring_batch request; every
metric is reported on every workload, so on a search workload
request_p50_ms is 1000 x solve_s.  Search stdout must equal, byte for byte,
perfbench/expected/<workload>.txt.  Each ring_batch reply is checked after
the timed loop: `analyze` against the sympy characteristic polynomial and
the numpy eigenvalues of Z = sum_i N_i N_i^T, `dnumber` against the
coefficient criterion for d-numbers (rings.py), and the obstruction
battery of each `analyze` reply (orbit checks, global checks, surviving
orbits, verdict) against the battery the unchanged program printed for the
same ring, perfbench/expected/ring_battery.txt.  Operation times are wall
times scaled to a reference host speed (see CALIBRATION_REF_S); the
unscaled figures are printed on the `unscaled` line and kept in
perfbench/out/.
solve_s         median wall seconds per operation (sample count printed)
request_p50_ms  median operation latency
request_p90_ms  0.9 quantile of operation latency; ring_batch runs whole
                decks of 55 requests for --seconds, so well over ten
                samples lie beyond it
requests_per_s  operations completed per wall second, closed loop
setup_s         a fresh interpreter up to `fgap.cli` imported and ready:
                median wall time of SETUP_SAMPLES launches, unscaled
peak_rss_mb     peak resident memory of this process, read before the
                output oracle imports sympy
error_rate is printed with the metrics and carried in `failed`/`attempted`:
a wrong output byte, a wrong verdict, an exception or an unexpected exit
code counts as a failure and makes the command exit 1.

Per-layer metrics (--trace 1) and what each should move
-------------------------------------------------------
cli.self_s: parsing and rendering; moves request_p50_ms on ring_batch,
    negligible on the searches.
gapsearch.walk.{self_s, nodes, box_prunes, empty_ranges, leaf_ratio,
    surd_bound_s}: solve_s mostly on gap_rational, partly on gap_surd,
    never on cubic_appendix.
gapsearch.leaf.{calls, self_s, survivors, first_fail.<filter>}: solve_s on
    gap_surd and cubic_appendix, barely on gap_rational.
algnum.surd.{calls, self_s, floor_ceil.calls, floor_ceil_s, approx.calls}:
    floor/ceil move solve_s on cubic_appendix; approx moves it on both gap
    workloads through _surd_eval_bound.
algnum.isolate.{calls, self_s, cmp_surd.calls, cmp_surd_s,
    varcounts_per_cmp}: solve_s on gap_surd only; no change predicted on
    gap_rational and cubic_appendix.
algnum.factor.{calls, self_s}: request_p50_ms on ring_batch.
kernels.{calls, self_s, sturm_chain.calls, varcount.calls, eval_qnum.calls,
    resultant.calls}: solve_s on gap_surd (about 4% of it), latencies on
    ring_batch.
fusionring.{self_s, validate_s, commutativity_checks_per_request,
    spectra_per_request}: request_p90_ms and requests_per_s on ring_batch,
    nothing on the searches.
obstruct.{calls, self_s}: request_p50_ms on ring_batch.
process.cpu_s, process.parallel_efficiency (cpu / (wall x threads)) and
    trace.overhead_ratio (traced wall / untraced wall), on every workload.

A traced run makes one untraced reference pass (one search, or one deck in
slot order), then two traced passes, then removes every wrapper.  Exact
counts must repeat between the two traced passes, and on the searches the
leaf counts must match the `rejected:` and `first-fail histogram` lines of
the same search run with --audit.  `<layer>.calls` counts calls entering
the layer from another one; the named `.calls` count every call.  Self
and inclusive times are thread CPU seconds, less the tracer's own per-call
cost as measured when it is installed (see tracer.py; the cost is printed
as wrapper_cost_us); `*_per_request` divides by the number of `analyze`
requests.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

import layers
import rings
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
HOSTSPEED = os.path.join(HERE, "hostspeed.py")
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected")
BATTERIES = os.path.join(EXPECTED, "ring_battery.txt")
# Search threads.  On a 2-vCPU virtual machine, searches interleaved with 1
# and with 2 threads took the same median time (gap_rational 3.61 s against
# 3.60 s, cubic 6.81 s against 6.74 s) but 2 threads spread two to four
# times wider (IQR/median 0.08 against 0.32, 0.12 against 0.25): the pool
# runs under the interpreter lock, and every hand-off of the lock waits on
# the other vCPU.  So the benchmark runs fgap's default of one thread.
THREADS = 1
SETUP_SAMPLES = 60
# Host speed.  Times on a shared virtual machine drift by a third or more
# within minutes (the same 20 s run of gap_rational read 2.4 s one minute
# and 3.7 s a few minutes later; each virtual CPU also changes speed within
# a second, independently of the other) while the program stays the same.
# The timed passes therefore run pinned to one CPU, beside hostspeed.py: a
# fresh interpreter, pinned to the same CPU, that never imports fgap and
# samples that CPU's speed every PROBE_EVERY_S (its samples take about 2% of
# the CPU, a fixed share of every pass).  A pass's times are reported at the
# speed where the mean sample reads CALIBRATION_REF_S, a fixed reference
# near the sampler's fastest readings on a 2-vCPU x86-64 VM.
# setup_s is a process launch, mostly exec and imports, and is measured
# before pinning and reported unscaled.
CALIBRATION_REF_S = 0.0036
PROBE_EVERY_S = 0.2

SEARCHES = {
    "gap_surd": (["search", "gap", "--dmax"],
                 [["4sqrt(3)/5"], ["4*sqrt(3)/5"], ["4√3/5"], ["4sqrt3/5"],
                  ["sqrt(48)/5"]]),
    "gap_rational": (["search", "gap", "--dmax"],
                     [["277/200"], ["1.385"], ["554/400"], ["1385/1000"],
                      ["1.3850"]]),
    "cubic_appendix": (["search", "cubic"],
                       [[], ["--amax", "45"],
                        ["--window", "4sqrt(34)/17,4sqrt(3)/5"],
                        ["--amax", "45", "--window",
                         "4*sqrt(34)/17,4*sqrt(3)/5"]]),
}
WORKLOADS = tuple(SEARCHES) + ("ring_batch",)

END_TO_END = (("solve_s", "s"), ("request_p50_ms", "ms"),
              ("request_p90_ms", "ms"), ("requests_per_s", "1/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


class SetupError(Exception):
    """The program under test could not be imported or started."""


class Tally:
    """Attempted and failed operations, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problems, what):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append("%s: %s" % (what, "; ".join(problems)))

    def extra(self, problem):
        """A check that is not one operation (counts, wrapper removal)."""
        self.record([problem], "check")


def load_fgap():
    if not os.path.isfile(os.path.join(SRC, "fgap", "__init__.py")):
        raise SetupError("no fgap sources under %s" % SRC)
    sys.path.insert(0, SRC)
    os.environ["FGAP_THREADS"] = str(THREADS)
    import fgap.cli
    import fgap.kernels
    if not fgap.cli.__file__.startswith(SRC):
        raise SetupError("fgap imported from %s, not from the checkout"
                         % fgap.cli.__file__)
    return fgap


def call(fgap, argv, stdin_text=None):
    """Run one CLI command in-process: (exit code or exception, stdout, s)."""
    out = io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                rc = fgap.cli.main(argv)
            except Exception as exc:  # a traceback is a failed operation
                rc = exc
            t1 = time.perf_counter()
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), t1 - t0


def measure_setup():
    """Median seconds from launching python3 to `fgap.cli` imported."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = ("import sys, fgap.cli; sys.stdout.write('ready\\n'); "
            "sys.stdout.flush()")
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                              env=env, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if line != b"ready\n" or proc.returncode != 0:
            raise SetupError("fresh interpreter could not import fgap.cli")
        times.append(t1 - t0)
    return statistics.median(times)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# workloads

class SearchWorkload:
    """One certified search, repeated; stdout must match the bytes stored in
    perfbench/expected/, which the unchanged program printed."""

    analyze_requests = 0

    def __init__(self, name, seed):
        base, spellings = SEARCHES[name]
        self.name = name
        self.argv = base + random.Random(seed).choice(spellings)
        with open(os.path.join(EXPECTED, name + ".txt"), "rb") as fh:
            self.expected = fh.read().decode("utf-8")

    def run_pass(self, fgap, tally, shuffle=None):
        rc, out, dt = call(fgap, self.argv)
        problems = []
        if rc != 0:
            problems.append("exit %r" % (rc,))
        if out != self.expected:
            problems.append("stdout differs from perfbench/expected/%s.txt"
                            % self.name)
        tally.record(problems, " ".join(self.argv))
        return [dt]

    def warm_up(self, fgap, tally):
        """Nothing to warm: one search costs seconds and caches nothing."""

    def finish(self, tally):
        """Nothing left: each search was checked as it returned."""

    def audit_check(self, fgap, tally, counts, leaf_calls):
        """Traced leaf counts against `--audit` on the same search."""
        rc, out, _ = call(fgap, self.argv + ["--audit"])
        fields = dict(line.split(": ", 1) for line in out.splitlines()
                      if line.startswith(("survivors: ", "rejected: ",
                                          "first-fail histogram: ")))
        try:
            rejected = int(fields["rejected"])
            survivors = int(fields["survivors"])
            hist = json.loads(fields["first-fail histogram"])
        except (KeyError, ValueError) as exc:
            tally.record(["unreadable audit output (%s)" % exc], "audit")
            return
        traced = {k: v for k, v in counts.first_fail.items() if v}
        problems = []
        if rc != 0:
            problems.append("exit %r" % (rc,))
        if leaf_calls - counts.survivors != rejected:
            problems.append("leaf calls %d - survivors %d != rejected %d"
                            % (leaf_calls, counts.survivors, rejected))
        if counts.survivors != survivors:
            problems.append("survivors %d != %d"
                            % (counts.survivors, survivors))
        if traced != hist:
            problems.append("first-fail %s != audit %s" % (traced, hist))
        tally.record(problems, "audit cross-check")


class RingWorkload:
    """Closed loop over a seeded deck of rings; see rings.py."""

    def __init__(self, seed):
        self.deck = rings.make_deck(seed)
        self.texts = [r.text() for r in self.deck]
        self.analyze_requests = len(self.deck)
        self.batteries = rings.read_batteries(BATTERIES)
        self.replies = []       # (key, exit code, stdout), checked at the end

    def warm_up(self, fgap, tally):
        """One deck before timing: lazy imports inside fgap run here."""
        self.run_pass(fgap, tally)

    def run_pass(self, fgap, tally, shuffle=None):
        order = list(range(len(self.deck)))
        if shuffle is not None:
            shuffle(order)
        lat = []
        for idx in order:
            rc, out, dt = call(fgap, ["analyze", "-"], self.texts[idx])
            lat.append(dt)
            self.replies.append((idx, rc, out))
            if rc != 0:
                continue
            try:
                polys = rings.orbit_polys(out)
            except ValueError:
                continue        # the oracle reports the unreadable reply
            for desc in polys:
                csv = ",".join(map(str, desc))
                rc, out, dt = call(fgap, ["dnumber", "--poly", csv])
                lat.append(dt)
                self.replies.append((tuple(desc), rc, out))
        return lat

    def finish(self, tally):
        """Check every reply against the oracle, outside the timed loop."""
        oracle = rings.RingOracle()
        first = {}
        verdicts = {}
        for key, rc, out in self.replies:
            problems = [] if rc == 0 else ["exit %r" % (rc,)]
            if first.setdefault(key, out) != out:
                problems.append("reply differs from an earlier identical "
                                "request")
            if (key, out) not in verdicts:
                if isinstance(key, int):
                    ring = self.deck[key]
                    verdicts[key, out] = (
                        oracle.check_analyze(ring, out)
                        + rings.check_battery(self.batteries, ring, out))
                else:
                    verdicts[key, out] = rings.check_dnumber(key, out)
            problems += verdicts[key, out]
            what = ("analyze %s" % self.deck[key].label
                    if isinstance(key, int)
                    else "dnumber %s" % ",".join(map(str, key)))
            tally.record(problems, what)
        self.replies = []


def make_workload(name, seed):
    if name == "ring_batch":
        return RingWorkload(seed)
    return SearchWorkload(name, seed)


# ---------------------------------------------------------------------------
# runs

def quantile(values, q):
    """The q-quantile (q in hundredths), interpolated inside the data."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


class HostSpeed:
    """hostspeed.py sampling while the `with` body runs; on exit, `seconds`
    is the mean sample, which is proportional to the CPU's seconds per unit
    of work averaged over the body's run."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-I", HOSTSPEED, "--every", repr(PROBE_EVERY_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        return self

    def __exit__(self, *exc_info):
        self.proc.stdin.close()         # the sampler stops at end of input
        out = self.proc.stdout.read()
        self.proc.stdout.close()
        rc = self.proc.wait()
        try:
            self.samples = [float(x) for x in out.split()]
        except ValueError:
            self.samples = []
        if exc_info[0] is None and (rc != 0 or not self.samples):
            raise SetupError("host speed sampler failed (exit %d)" % rc)
        self.seconds = statistics.mean(self.samples or [float("nan")])
        return False


def end_to_end(lat, wall, setup, rss):
    return {
        "solve_s": statistics.median(lat),
        "request_p50_ms": 1000 * statistics.median(lat),
        "request_p90_ms": 1000 * quantile(lat, 0.9),
        "requests_per_s": len(lat) / wall,
        "setup_s": setup,
        "peak_rss_mb": rss,
    }


def timed_run(fgap, wl, seed, seconds, tally):
    """End-to-end metrics, in seconds at the reference host speed.

    A pass's times are scaled by CALIBRATION_REF_S over the mean host speed
    sample taken on the same CPU while it ran.  setup_s is not scaled.  The
    unscaled figures go to the details.
    """
    setup = measure_setup()
    rng = random.Random(seed)
    lat, lat_ref, speeds = [], [], []
    wall_ref = 0.0
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        wl.warm_up(fgap, tally)
        start = time.perf_counter()
        while True:
            with HostSpeed() as host:
                t0 = time.perf_counter()
                got = wl.run_pass(fgap, tally, rng.shuffle)
                pass_wall = time.perf_counter() - t0
            scale = CALIBRATION_REF_S / host.seconds
            speeds += host.samples
            lat += got
            lat_ref += [x * scale for x in got]
            wall_ref += pass_wall * scale
            wall = time.perf_counter() - start
            if wall >= seconds:
                break
    finally:
        os.sched_setaffinity(0, cpus)
    rss = peak_rss_mb()
    wl.finish(tally)
    values = end_to_end(lat_ref, wall_ref, setup, rss)
    raw = end_to_end(lat, wall, setup, rss)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    return metrics, {"samples": len(lat),
                     "host_speed_s": "mean %.6f of %d samples"
                                     % (statistics.mean(speeds), len(speeds)),
                     "unscaled": " ".join("%s=%.6g" % kv
                                          for kv in raw.items())}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_cmp", "_per_request", "_efficiency")):
        return "ratio"
    return "count"


def exact_counts(tr, counts):
    """Everything a traced pass counts, without its times."""
    ctx = {" > ".join(p): v[0] for p, v in tr.contexts().items()}
    return ctx, counts.snapshot()


def traced_run(fgap, wl, tally):
    wl.warm_up(fgap, tally)
    c0, w0 = time.process_time(), time.perf_counter()
    wl.run_pass(fgap, tally)
    ref_wall = time.perf_counter() - w0
    ref_cpu = time.process_time() - c0

    passes = []
    for _ in range(2):
        counts = layers.Counts()
        tr = layers.make_tracer(counts)
        try:
            tr.install()
            w0 = time.perf_counter()
            wl.run_pass(fgap, tally)
            wall = time.perf_counter() - w0
        finally:
            tr.uninstall()
        passes.append((tr, counts, wall))
    leftover = tracer.leftover_wrappers()
    if leftover:
        tally.extra("wrappers left installed: %s" % ", ".join(leftover))
    (tr, counts, wall), (tr2, counts2, _) = passes
    if exact_counts(tr, counts) != exact_counts(tr2, counts2):
        tally.extra("exact counts differ between the two traced passes")
    values = layers.layer_metrics(tr, counts, wl.analyze_requests)
    if isinstance(wl, SearchWorkload):
        wl.audit_check(fgap, tally, counts, values["gapsearch.leaf.calls"])
    wl.finish(tally)
    values["process.cpu_s"] = ref_cpu
    values["process.parallel_efficiency"] = ref_cpu / (ref_wall * THREADS)
    values["trace.overhead_ratio"] = wall / ref_wall
    metrics = {name: {"value": values[name], "unit": layer_unit(name)}
               for name in sorted(values)}
    trace = {
        "spans": [dict(zip(("id", "name", "layer", "thread", "start",
                            "end", "parent", "self"), s)) for s in tr.spans],
        "layer_edges": [{"layer": lay, "parent_layer": par, "count": n,
                         "total_s": t, "self_s": own}
                        for (lay, par), (n, t, own)
                        in sorted(tr.layer_edges().items(), key=str)],
        "contexts": [{"path": " > ".join(p), "count": n, "total_s": t,
                      "self_s": own}
                     for p, (n, t, own) in sorted(tr.contexts().items())],
    }
    extra = {"trace": trace, "untraced_wall_s": ref_wall,
             "traced_wall_s": wall,
             "wrapper_cost_us": "caller %.3f callee %.3f"
                                % tuple(1e6 * x for x in tr.overhead)}
    if tr.missing:
        # the program moved or renamed these; metrics built on them read 0
        extra["boundaries_not_found"] = ", ".join(tr.missing)
    return metrics, extra


def context(fgap, workload, args):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"workload": workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "backend": fgap.kernels.BACKEND,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": nproc, "threads": THREADS}


def run_workload(fgap, name, args):
    """Run one workload, print its report and store it; return the result."""
    wl = make_workload(name, args.seed)
    tally = Tally()
    if args.trace:
        metrics, extra = traced_run(fgap, wl, tally)
    else:
        metrics, extra = timed_run(fgap, wl, args.seed, args.seconds, tally)
    ctx = context(fgap, name, args)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    # the backend is part of the file name, so results of the pure and the
    # compiled kernels never overwrite or pass for one another
    stem = "%s-seed%d-trace%d-%s" % (name, args.seed, args.trace,
                                     ctx["backend"])
    trace = extra.pop("trace", None)
    if trace is not None:
        with open(os.path.join(OUT, "trace-%s.json" % stem), "w") as fh:
            json.dump(dict(context=ctx, **trace), fh)
    with open(os.path.join(OUT, "result-%s.json" % stem), "w") as fh:
        json.dump({"context": ctx, "result": result, "details": extra}, fh,
                  indent=1, sort_keys=True)

    print("context: " + json.dumps(ctx, sort_keys=True))
    for metric, m in metrics.items():
        value = m["value"]
        text = "%d" % value if isinstance(value, int) else "%.6f" % value
        print("%-48s %16s %s" % (metric, text, m["unit"]))
    print("%-48s %16.6f ratio  (%d failed of %d attempted)"
          % ("error_rate", tally.failed / max(tally.attempted, 1),
             tally.failed, tally.attempted))
    for key, value in extra.items():
        print("%-48s %s" % (key, value))
    for problem in tally.problems:
        sys.stderr.write("FAILED %s: %s\n" % (name, problem))
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all four in turn in this process "
                         "(the final line then names metrics workload.metric)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    results = {}
    try:
        fgap = load_fgap()
        for name in names:
            results[name] = run_workload(fgap, name, args)
    except (SetupError, ImportError, OSError) as exc:
        sys.stderr.write("perfbench: cannot run: %s\n" % exc)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {"%s.%s" % (name, metric): m
                             for name, r in results.items()
                             for metric, m in r["metrics"].items()}}
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
