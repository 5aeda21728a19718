"""Machine locality: the algorithm modules compute on machine state only
through `Cluster.local`, so each machine computes from its own memory.

A module reaches a `Machine` and its `state` only through the cluster's
`machines` attribute, so every `machines` access in these modules must be
one of the reads that need a protocol change before they can be local.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hetmpc"

# module -> {function: (accesses allowed, why it is not local yet)}
ALLOWED = {
    "mst": {
        "_finish_by_sampling": (
            2, "snapshots and restores 'E' through the host (ROADMAP item 3)"),
    },
    "matching": {
        "phase1_low_degree": (
            3, "routes by the host set v_low and reads host dicts (ROADMAP item 5)"),
    },
    "spanner": {
        "clustering_graphs": (
            1, "reads every machine's level records for the bucket_sizes "
               "report (ROADMAP item 3)"),
        "modified_baswana_sen": (
            1, "collects the vertex set from every machine (ROADMAP item 3)"),
    },
    "connectivity": {
        "_sketch_components": (
            1, "builds one CoordTable from every machine's edges "
               "(ROADMAP item 3)"),
    },
    "primitives": {
        "het_sort": (1, "the sort moves the records it routes between machines"),
    },
}


def machines_accesses(source):
    """Counter of `machines` attribute accesses in `source`, and of the
    string "machines" (as getattr would take it), by enclosing top-level
    function (or "<module>")."""
    tree = ast.parse(source)
    found = Counter()
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr == "machines"
                    or isinstance(node, ast.Constant) and node.value == "machines"):
                found[name] += 1
    return found


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_machines_reached_only_where_allowed(module):
    allowed = ALLOWED[module]
    source = (SRC / f"{module}.py").read_text()
    for fn, count in machines_accesses(source).items():
        assert fn in allowed, f"{module}.{fn} reaches cluster.machines"
        assert count <= allowed[fn][0], (
            f"{module}.{fn} reaches cluster.machines {count} times, "
            f"allowed {allowed[fn][0]}: {allowed[fn][1]}")


def test_guard_sees_every_access():
    source = (
        "def f(cluster):\n"
        "    def g(i):\n"
        "        return cluster.machines[i].state\n"
        "    m = cluster.machines\n"
        "    return getattr(cluster, 'machines'), m\n"
        "X = object().machines\n"
    )
    assert machines_accesses(source) == {"f": 3, "<module>": 1}
