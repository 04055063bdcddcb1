"""Record the reference answers the benchmark checks against.

    python3 bench/record_reference.py

Run at the commit whose answers are the reference (the seed commit);
writes bench/reference.json with the basis-independent fields of every
excision report the workloads ask for and the homology tables of the
presets.  The benchmark never rewrites this file.
"""

from __future__ import annotations

import json
import sys

import run

run.import_alghom()

from alghom import corpus                                    # noqa: E402
from alghom.algebra import preset                            # noqa: E402
from alghom.excision import excision_report                  # noqa: E402
from alghom.hochschild import trace_space                    # noqa: E402

import workloads                                             # noqa: E402


def record() -> dict:
    ref = {"excision": {}, "homology": {}}
    wanted = [(name, workloads.corpus_degree(corpus.build(name).A.dim))
              for name in corpus.CORPUS]
    wanted += [(name, workloads.REBASED_DEGREE) for name in workloads.REBASED]
    for name, n in wanted:
        report = json.loads(json.dumps(excision_report(corpus.build(name), n)))
        ref["excision"].setdefault(name, {})[str(n)] = workloads.summarize(report)
        print("excision %s degree %d: %s" % (name, n, report["verdict"]),
              file=sys.stderr)
    for name, params, n_top in workloads.PRESETS:
        table = {}
        for theory in workloads.THEORIES:
            hom, coh = workloads._run_homology(theory, n_top, preset(name, **params))
            table[theory] = {"homology": hom, "cohomology": coh}
        table["trace"] = trace_space(preset(name, **params)).dim
        ref["homology"][name] = table
        print("homology %s: %r" % (name, table), file=sys.stderr)
    return ref


def dump(ref: dict, fh):
    """JSON with one line per extension or preset, so diffs stay local."""
    sections = []
    for section in sorted(ref):
        items = ",\n".join("  %s: %s" % (json.dumps(k), json.dumps(v, sort_keys=True))
                           for k, v in sorted(ref[section].items()))
        sections.append(" %s: {\n%s\n }" % (json.dumps(section), items))
    fh.write("{\n%s\n}\n" % ",\n".join(sections))


if __name__ == "__main__":
    reference = record()
    with open(workloads.REFERENCE_PATH, "w") as fh:
        dump(reference, fh)
