"""Self-tests of the benchmark harness: python3 -m pytest perfbench"""

import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import rings  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

FGAP = run.load_fgap()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_on_a_synthetic_call_tree():
    clock = FakeClock()

    class Work:
        def top(self):          # 1 + leaf-heavy children + 2
            clock.now += 1
            self.mid()
            self.mid()
            self.leaf()
            clock.now += 2

        def mid(self):          # 3 of its own around one leaf
            clock.now += 3
            self.leaf()

        def leaf(self):
            clock.now += 5

    tr = tracer.Tracer([tracer.Boundary(Work, "top", "A", hot=False),
                        tracer.Boundary(Work, "mid", "B", hot=False),
                        tracer.Boundary(Work, "leaf", "C", hot=True)],
                       clock=clock)
    tr.install()
    try:
        Work().top()
    finally:
        tr.uninstall()

    ctx = tr.contexts()
    assert ctx[("Work.top",)] == [1, 24.0, 3.0]
    assert ctx[("Work.top", "Work.mid")] == [2, 16.0, 6.0]
    assert ctx[("Work.top", "Work.mid", "Work.leaf")] == [2, 10.0, 10.0]
    assert ctx[("Work.top", "Work.leaf")] == [1, 5.0, 5.0]
    assert tr.layer_edges() == {("A", None): [1, 24.0, 3.0],
                                ("B", "A"): [2, 16.0, 6.0],
                                ("C", "B"): [2, 10.0, 10.0],
                                ("C", "A"): [1, 5.0, 5.0]}
    # cold boundaries keep one span per call, hot ones only aggregate
    spans = {s[0]: s for s in tr.spans}
    assert sorted(s[1] for s in tr.spans) == ["Work.mid", "Work.mid",
                                              "Work.top"]
    top = next(s for s in tr.spans if s[1] == "Work.top")
    for sid, name, layer, thread, start, end, parent, own in tr.spans:
        if name == "Work.mid":
            assert parent == top[0] and (end - start, own) == (8.0, 3.0)
    # a span's self time is its duration minus what its children cover
    covered = sum(s[5] - s[4] for s in spans.values() if s[6] == top[0])
    assert top[7] == (top[5] - top[4]) - covered - 5.0     # minus the leaf
    assert Work.top.__name__ == "top" and not hasattr(Work.top,
                                                      tracer._MARK)


def test_wrapper_cost_is_taken_out_of_self_and_inclusive_times():
    clock = FakeClock()

    class Work:
        def top(self):
            clock.now += 10
            self.leaf()
            self.leaf()

        def leaf(self):
            clock.now += 4

    tr = tracer.Tracer([tracer.Boundary(Work, "top", "A", hot=False),
                        tracer.Boundary(Work, "leaf", "B", hot=True)],
                       clock=clock)
    tr.install()
    try:
        assert tr.overhead == (0.0, 0.0)    # a clock that stands still
        Work().top()
    finally:
        tr.uninstall()
    tr.overhead = (1.0, 0.5)        # caller, callee, per wrapped call
    ctx = tr.contexts()
    # top: 10 own, less 0.5 inside its own window, less 1 per leaf call
    assert ctx[("Work.top",)] == [1, 18.0 - 0.5 - 2 * 1.5, 10.0 - 0.5 - 2.0]
    assert ctx[("Work.top", "Work.leaf")] == [2, 8.0 - 1.0, 8.0 - 1.0]
    tr.overhead = (100.0, 0.0)
    assert tr.contexts()[("Work.top",)][2] == 0.0   # clamped at zero


def test_host_speed_sampler_runs_beside_a_pass_and_stops():
    with run.HostSpeed() as host:
        run.time.sleep(0.5)
    assert host.proc.returncode == 0
    assert 2 <= len(host.samples) and 0 < host.seconds < 1


def test_wrapper_cost_is_measured_on_the_thread_clock():
    outer, inner = tracer.Tracer([]).measure_overhead(calls=5000)
    assert inner > 0 and 0 <= outer < 1e-4 and inner < 1e-4


def _bindings(boundaries):
    """Every (holder, attr) -> object that install() may replace."""
    out = {}
    modules = tracer.fgap_modules()
    for b in boundaries:
        raw = vars(b.owner)[b.attr]
        out[(b.owner, b.attr)] = raw
        if not isinstance(b.owner, type):
            for m in modules:
                for attr, value in vars(m).items():
                    if value is raw:
                        out[(m, attr)] = value
    return out


def test_every_wrapper_is_removed_after_a_traced_run():
    counts = layers.Counts()
    tr = layers.make_tracer(counts)
    before = _bindings(tr.boundaries)
    tr.install()
    try:
        assert tracer.leftover_wrappers()       # the check sees wrappers
        rc, out, _ = run.call(FGAP, ["search", "quadratic"])
    finally:
        tr.uninstall()
    assert rc == 0 and "survivors: 1" in out
    paths = {p for p in tr.contexts() if p[-1] == "gapsearch._quad_candidate"}
    assert paths == {("cli.main", "gapsearch.search_quadratic",
                      "gapsearch._quad_candidate")}
    assert tracer.leftover_wrappers() == []
    for (holder, attr), raw in before.items():
        assert vars(holder)[attr] is raw, (holder, attr)
    assert counts.survivors == 1
    assert layers.layer_metrics(tr, counts, 0)["cli.calls"] == 1


def test_battery_check_rejects_a_changed_verdict():
    stored = rings.read_batteries(run.BATTERIES)
    ring = rings.relabel(rings.neargroup(3, 1), [0, 2, 3, 1])
    rc, report, _ = run.call(FGAP, ["analyze", "-"], ring.text())
    assert rc == 0 and rings.check_battery(stored, ring, report) == []
    for old, new in (("verdict: no spherical categorification",
                      "verdict: no obstruction"),
                     ("surviving orbits: [1]", "surviving orbits: []"),
                     ("orbit-mean-at-least-rank: fail",
                      "orbit-mean-at-least-rank: pass"),
                     ("global codegrees-are-d-numbers: fail",
                      "global codegrees-are-d-numbers: pass")):
        assert old in report
        assert rings.check_battery(stored, ring, report.replace(old, new))
    dropped = report.replace("verdict: no spherical categorification\n", "")
    assert rings.check_battery(stored, ring, dropped)
    assert rings.check_battery({}, ring, report)


def test_every_ring_a_deck_draws_has_a_stored_battery():
    stored = rings.read_batteries(run.BATTERIES)
    assert [r.label for r in rings.every_ring()] == list(stored)
    for seed in range(50):
        for ring in rings.make_deck(seed):
            assert ring.label in stored, (seed, ring.label)


def test_ring_stream_is_a_function_of_the_seed():
    first = [r.text() for r in rings.make_deck(7)]
    again = [r.text() for r in rings.make_deck(7)]
    other = [r.text() for r in rings.make_deck(8)]
    assert first == again
    assert first != other
    ranks = [r.rank for r in rings.make_deck(7)]
    assert ranks == [r.rank for r in rings.make_deck(8)]
    assert min(ranks) == 2 and max(ranks) == 16


def test_generated_rings_pass_fgap_validation():
    from fgap.fusionring import parse_ring_file
    for ring in rings.make_deck(3):
        parsed = parse_ring_file(ring.text())
        assert parsed.is_commutative


def test_oracle_accepts_fgap_and_rejects_a_changed_report():
    ring = rings.relabel(rings.neargroup(3, 1), [0, 3, 1, 2])
    rc, report, _ = run.call(FGAP, ["analyze", "-"], ring.text())
    oracle = rings.RingOracle()
    assert rc == 0 and oracle.check_analyze(ring, report) == []
    lines = report.splitlines()
    bad = [line + "1" if line.startswith("codegree charpoly:") else line
           for line in lines]
    assert oracle.check_analyze(ring, "\n".join(bad))
    bad = [line.replace("[", "[1.5, ", 1) if line.startswith("codegrees ~")
           else line for line in lines]
    assert oracle.check_analyze(ring, "\n".join(bad))


@pytest.mark.parametrize("poly", ["1,-5,5", "1,-7,7", "1,-6,3", "1,-3,1",
                                  "1,-9,18,-9", "1,-4,3,-2",
                                  "1,-8,20,-16,2", "1,-2,2,-2,6"])
def test_d_number_criterion_matches_fgap(poly):
    # irreducible inputs; degree 4 reaches fgap's resultant path
    desc = [int(c) for c in poly.split(",")]
    rc, out, _ = run.call(FGAP, ["dnumber", "--poly", poly])
    assert rc == 0
    assert rings.check_dnumber(desc, out) == []


def test_parse_poly_reads_fgap_polynomials():
    from fgap.algnum import IntPoly
    for desc in ([1, -5, 5], [1, 0, -3, 0, 2], [2, 1], [-1, 7, 0, 0, -12]):
        text = IntPoly(list(reversed(desc))).to_str()
        assert rings.parse_poly(text) == desc


def test_metric_names_match_benchmark_json():
    with io.open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    counts = layers.Counts()
    tr = tracer.Tracer(layers.boundaries(counts))
    names = set(layers.layer_metrics(tr, counts, 0))
    names |= {"process.cpu_s", "process.parallel_efficiency",
              "trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == names
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"]), m["name"]


def test_timed_run_reports_times_at_the_reference_speed(monkeypatch):
    class Fixed:
        """A workload whose operations take 1 s and 3 s of host time."""

        def warm_up(self, fgap, tally):
            pass

        def run_pass(self, fgap, tally, shuffle=None):
            tally.record([], "op")
            tally.record([], "op")
            return [1.0, 3.0]

        def finish(self, tally):
            pass

    class SlowHost:
        """A host twice as slow as the reference: every time is halved."""

        samples = [2 * run.CALIBRATION_REF_S]
        seconds = samples[0]

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

    monkeypatch.setattr(run, "HostSpeed", SlowHost)
    monkeypatch.setattr(run, "measure_setup", lambda: 0.25)
    tally = run.Tally()
    metrics, details = run.timed_run(FGAP, Fixed(), 1, 0, tally)
    assert metrics["solve_s"]["value"] == 1.0
    assert metrics["request_p50_ms"]["value"] == 1000.0
    assert metrics["setup_s"]["value"] == 0.25     # a launch is not scaled
    assert "solve_s=2 " in details["unscaled"]
    assert (tally.attempted, tally.failed) == (2, 0)
