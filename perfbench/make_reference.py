"""Regenerate perfbench/reference.json, the benchmark's answer table.

    python3 perfbench/make_reference.py

The table holds (h0, h1) for every ordered rank <= 2 corpus pair, which
checks ``hom_corpus`` and ``oracle_corpus`` under any seed, and the
critical-value eliminants of the ``mirror_random`` draws at the default
seed.  Regenerate it only when an answer is meant to change, and say
why in the change that does.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

DEFAULT_SEED = 1


def main():
    table = {"hom": {}, "mirror": {}}
    unchecked = {"hom": {}, "mirror": {}}
    for item in workloads.hom_corpus_items(workloads.setup_corpus(), unchecked, DEFAULT_SEED):
        if item.key[0] == "hom":
            table["hom"][workloads.pair_key(*item.key[1:])] = list(item.call())
    for item in workloads.mirror_random_items(workloads.setup_mirror(), unchecked, DEFAULT_SEED):
        if item.key[0] == "critical_values":
            table["mirror"][item.key[1]] = item.call()[1]
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print("wrote %d hom pairs and %d eliminants to %s"
          % (len(table["hom"]), len(table["mirror"]), workloads.REFERENCE_PATH))


if __name__ == "__main__":
    main()
