#!/usr/bin/env python3
"""Walk through the stabilization comparison on the unknot diagram.

Prints the stabilized diagram's class enumeration, the pushed-down
differential, and the graded homology of both sides of the mapping-cone
formula.
"""

import sys

from sfkit import corpus
from sfkit.cf import DiagramData
from sfkit.cones import verify_stabilization
from sfkit.diskcount import enumerate_mu1_classes
from sfkit.stabilize import stabilize_diagram


def main():
    d = corpus.load_diagram("unknot")
    dhat = stabilize_diagram(d, 1)
    print("stabilized unknot:", len(dhat.generators()), "generators,",
          len(dhat.regions), "regions,", dhat.num_marks, "marked points")

    data = DiagramData.build(dhat)
    gens = dhat.generators()
    for i, x in enumerate(gens):
        for y in gens:
            for c in enumerate_mu1_classes(data.lattice_of(i), [x], [y], data.tilde):
                print(f"  {x.label()} -> {y.label()}: {c.classification:16s}"
                      f" D={list(c.domain)} n_z={list(c.n_z)}")

    rep = verify_stabilization(d, 1)
    print("homology match:", rep.ok, "graded:", rep.graded_match)
    print("stabilized side:", rep.stabilized_hom_pieces)
    print("cone side:      ", rep.cone_hom_pieces)
    for n in rep.notes:
        print("note:", n)
    return 0 if rep.ok else 1


if __name__ == "__main__":
    sys.exit(main())
