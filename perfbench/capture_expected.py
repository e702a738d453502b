"""Write perfbench/expected/ from the program as it stands.

    python3 perfbench/capture_expected.py

Run it only on a commit whose outputs are trusted: every later benchmark
run is checked against what this writes.  It stores the stdout of each
search workload and, for every ring the ring_batch deck can draw, the
obstruction battery `fgap analyze` prints for the unrelabeled ring.  It
then checks that relabeling the basis leaves every battery unchanged, on
the decks of the seeds in RELABEL_SEEDS.
"""

import os
import sys

import rings
import run

RELABEL_SEEDS = range(1, 11)


def main():
    fgap = run.load_fgap()
    for name, (base, spellings) in run.SEARCHES.items():
        rc, out, _ = run.call(fgap, base + spellings[0])
        if rc != 0:
            sys.exit("%s exited %r" % (name, rc))
        with open(os.path.join(run.EXPECTED, name + ".txt"), "wb") as fh:
            fh.write(out.encode("utf-8"))

    batteries = {}
    for ring in rings.every_ring():
        rc, out, _ = run.call(fgap, ["analyze", "-"], ring.text())
        if rc != 0 or not rings.battery(out):
            sys.exit("analyze %s exited %r" % (ring.label, rc))
        batteries[ring.label] = rings.battery(out)
    rings.write_batteries(run.BATTERIES, batteries)

    stored = rings.read_batteries(run.BATTERIES)
    for seed in RELABEL_SEEDS:
        for ring in rings.make_deck(seed):
            _, out, _ = run.call(fgap, ["analyze", "-"], ring.text())
            problems = rings.check_battery(stored, ring, out)
            if problems:
                sys.exit("seed %d, %s: %s" % (seed, ring.label, problems[0]))
    print("wrote %d searches and %d batteries"
          % (len(run.SEARCHES), len(stored)))


if __name__ == "__main__":
    main()
