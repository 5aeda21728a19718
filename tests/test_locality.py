"""Machine locality: the algorithm modules compute on machine state only
through `Cluster.local` and the other cluster steps, so each machine
computes from its own memory.

A module reaches a `Machine` and its `state` only through the cluster's
`machines` attribute, so every `machines` access in these modules must be
one of the reads that need a protocol change before they can be local,
and each allowance must match its reads exactly: one that outlives its
read would hide a new one.

Machine state is written only in `simcore`: no other module writes a
machine's `state` or reaches the metering internals of a `Cluster`, and a
`Machine` has no method that writes its state, so every store is made,
and metered, by a cluster step.  Inside `simcore`, one method,
`Cluster._store`, writes every key's batch, its cut and the metering
fields.

Records have one form: the record primitives (`primitives`) and the MST
steps (`mst`) test no value for being Records or a list, so no second
path for record batches can grow back there.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hetmpc"

# module -> {function: (accesses allowed, why it is not local yet)}
ALLOWED = {
    "matching": {
        "phase1_low_degree": (1, "routes by the host set v_low (ROADMAP item 5)"),
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


def allowance_errors(source, allowed):
    """What breaks the allowances `allowed` ({function: (count, why)}) in
    `source`: an allowance naming no top-level function, and a function
    whose `machines` accesses are not exactly its allowance (none
    without one)."""
    found = machines_accesses(source)
    defined = {getattr(top, "name", None) for top in ast.parse(source).body}
    errors = [f"{fn} is allowed but not defined" for fn in sorted(allowed)
              if fn not in defined | {"<module>"}]
    for fn in sorted(found.keys() | allowed.keys()):
        count, why = allowed.get(fn, (0, "none allowed"))
        if found[fn] != count:
            errors.append(f"{fn} reaches cluster.machines {found[fn]} times, "
                          f"allowed {count}: {why}")
    return errors


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")
                                          if p.stem != "simcore"))
def test_machines_reached_only_where_allowed(module):
    # a module without an entry (primitives among them) may reach none
    source = (SRC / f"{module}.py").read_text()
    assert allowance_errors(source, ALLOWED.get(module, {})) == []


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
    assert allowance_errors(source, {"f": (3, ""), "<module>": (1, "")}) == []
    # an unallowed read, a stale allowance, and one whose function is gone
    assert allowance_errors(source, {"f": (4, "stale"), "h": (1, "gone")}) == [
        "h is allowed but not defined",
        "<module> reaches cluster.machines 1 times, allowed 0: none allowed",
        "f reaches cluster.machines 3 times, allowed 4: stale",
        "h reaches cluster.machines 0 times, allowed 1: gone"]


# attributes that only simcore's metering reads and writes
METERING = frozenset({"_batches", "_resident", "_changed", "_store"})
# dict methods that change a dict in place
MUTATORS = frozenset({"update", "pop", "popitem", "setdefault", "clear",
                      "__setitem__", "__delitem__"})


def _is_state(node):
    return isinstance(node, ast.Attribute) and node.attr == "state"


def metering_reaches(source):
    """(line, what) of each reach to metering internals in `source`: an
    access to a METERING attribute (or the string of its name, as getattr
    would take it), and a write to a `state`: an item store or delete, an
    in-place dict method, or an assignment of the attribute itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            if node.attr in METERING:
                found.append((node.lineno, "." + node.attr))
            elif _is_state(node) and not isinstance(node.ctx, ast.Load):
                found.append((node.lineno, "state assigned"))
            elif node.attr in MUTATORS and _is_state(node.value):
                found.append((node.lineno, f"state.{node.attr}"))
        elif isinstance(node, ast.Constant) and node.value in METERING:
            found.append((node.lineno, repr(node.value)))
        elif (isinstance(node, ast.Subscript) and _is_state(node.value)
                and not isinstance(node.ctx, ast.Load)):
            found.append((node.lineno, "state[...] written"))
    return sorted(found)


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")
                                          if p.stem != "simcore"))
def test_metering_stays_in_simcore(module):
    assert metering_reaches((SRC / f"{module}.py").read_text()) == []


def test_metering_guard_sees_every_reach():
    source = (
        "def f(cluster, m, key, v):\n"
        "    m.state[key] = v\n"
        "    del m.state[key]\n"
        "    m.state.update({key: v})\n"
        "    m.state = {}\n"
        "    cluster._batches[key] = v\n"
        "    cluster._store(key)\n"
        "    t = cluster._resident[0] + len(cluster._changed)\n"
        "    return getattr(cluster, '_batches'), m.state.get(key), m.state[key]\n"
    )
    assert [what for _, what in metering_reaches(source)] == [
        "state[...] written", "state[...] written", "state.update",
        "state assigned", "._batches", "._store", "._changed", "._resident",
        "'_batches'"]


def metering_names(source):
    """(line, name) of each import of a METERING name, or use of it as a
    plain name, in `source`: `from .simcore import _store` would call the
    write path without an attribute access."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias) and node.name.split(".")[-1] in METERING:
            found.append((node.lineno, node.name))
        elif isinstance(node, ast.Name) and node.id in METERING:
            found.append((node.lineno, node.id))
    return sorted(found)


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")
                                          if p.stem != "simcore"))
def test_metering_names_stay_in_simcore(module):
    assert metering_names((SRC / f"{module}.py").read_text()) == []


def test_name_guard_sees_every_import_and_call():
    source = ("from .simcore import Records, _store as put\n"
              "from .simcore import _store\n"
              "_store('E', [])\n")
    assert metering_names(source) == [(1, "_store"), (2, "_store"), (3, "_store")]


# the metering fields (the batch of each key, every machine's resident
# words, the delta since the last round) and the fields of a key's batch
# whose arrays could be written in place, and the simcore functions that
# may write them: every store goes through `Cluster._store`, which meters
# it
FIELDS = frozenset({"_batches", "_resident", "_changed", "cut", "held", "words"})
WRITERS = {
    "Cluster._store": FIELDS,
    # a cluster starts with no batch, and each round takes the delta into
    # its row and empties it
    "Cluster.__init__": {"_batches", "_resident", "_changed"},
    "Cluster.round": {"_changed"},
}
# the cluster steps, the only simcore functions that call `_store`
STEPS = frozenset({"Cluster.local", "Cluster.segmented", "Cluster.drop",
                   "Cluster.store", "distribute_edges"})
# dict and set methods, and the in-place numpy methods, that change them
IN_PLACE = MUTATORS | {"add", "discard", "remove", "fill", "put", "sort", "resize"}


def _functions(source):
    """(name, node) of `source`'s functions, named `f` or `Class.f`
    (other code as "<module>" or "Class.<body>")."""
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef):
            for item in top.body:
                yield f"{top.name}.{getattr(item, 'name', '<body>')}", item
        else:
            yield getattr(top, "name", "<module>"), top


def field_writes(source):
    """{function: the FIELDS it writes} over `source`'s functions (see
    `_functions`).  A field is written by assigning or deleting it,
    storing or deleting one of its items, or calling one of its in-place
    methods."""
    found = {}
    for name, node in _functions(source):
        for sub in ast.walk(node):
            field = None
            if isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Load):
                field = sub.attr
            elif (isinstance(sub, ast.Subscript) and not isinstance(sub.ctx, ast.Load)
                    and isinstance(sub.value, ast.Attribute)):
                field = sub.value.attr
            elif (isinstance(sub, ast.Attribute) and sub.attr in IN_PLACE
                    and isinstance(sub.value, ast.Attribute)):
                field = sub.value.attr
            if field in FIELDS:
                found.setdefault(name, set()).add(field)
    return found


def stray_writes(source):
    """{function: the FIELDS it writes beyond WRITERS} over `source`."""
    found = {fn: fields - WRITERS.get(fn, set())
             for fn, fields in field_writes(source).items()}
    return {fn: fields for fn, fields in found.items() if fields}


def store_callers(source):
    """The functions of `source` (see `_functions`) that name `_store`,
    as a name or an attribute."""
    return {name for name, node in _functions(source) for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and sub.id == "_store"
            or isinstance(sub, ast.Attribute) and sub.attr == "_store"}


SIMCORE = (SRC / "simcore.py").read_text()


def test_only_store_writes_machine_state():
    assert stray_writes(SIMCORE) == {}
    assert field_writes(SIMCORE)["Cluster._store"] >= {"_batches", "_resident",
                                                        "_changed"}


def test_only_cluster_steps_store():
    # no Machine method, and no other function, writes machine state
    assert store_callers(SIMCORE) == STEPS
    source = ("class M:\n"
              "    def put(self, k, v):\n"
              "        self.cluster._store(k, v)\n"
              "def f(items):\n"
              "    return _store\n")
    assert store_callers(source) == {"M.put", "f"}


def test_write_guard_sees_every_write():
    source = (
        "class M:\n"
        "    def f(self, k, v):\n"
        "        self._batches[k] = v\n"
        "        self._resident += 1\n"
        "        self._batches[k].cut[0] = 1\n"
        "        return self._batches.get(k), self._changed[k]\n"
        "    def g(self):\n"
        "        del self._changed[0]\n"
        "        self._batches.pop(0)\n"
        "        self._resident.fill(0)\n"
        "def h(b):\n"
        "    b.held[1:] = False\n"
        "    b.words.sort()\n"
    )
    assert field_writes(source) == {
        "M.f": {"_batches", "_resident", "cut"},
        "M.g": {"_changed", "_batches", "_resident"}, "h": {"held", "words"}}
    # one write planted in simcore outside `_store`: the read
    # `Cluster.batch` replaces a batch
    tree = ast.parse(SIMCORE)
    cluster = next(n for n in tree.body if getattr(n, "name", None) == "Cluster")
    read = next(n for n in cluster.body if getattr(n, "name", None) == "batch")
    read.body.insert(1, ast.parse("self._batches[key] = None").body[0])
    assert stray_writes(ast.unparse(tree)) == {"Cluster.batch": {"_batches"}}


# the modules whose record batches are always Records, and the type names
# that a second record path would test for
ONE_FORM = ("primitives", "mst")
RECORD_FORMS = frozenset({"Records", "list"})


def _type_names(node):
    """The names in `node`: a name, an attribute, or a tuple, list or set
    of them."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return set().union(*map(_type_names, node.elts))
    return set()


def record_form_tests(source):
    """(line, form) of each test of a value's type against Records or
    list in `source`: a comparison of `type(x)` with them (`is`, `is
    not`, `==`, `!=`, `in`) or an `isinstance` call naming them."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(x, ast.Call) and _type_names(x.func) == {"type"}
                   for x in operands):
                for x in operands:
                    found += [(node.lineno, f) for f in _type_names(x) & RECORD_FORMS]
        elif (isinstance(node, ast.Call) and _type_names(node.func) == {"isinstance"}
                and len(node.args) == 2):
            found += [(node.lineno, f) for f in _type_names(node.args[1]) & RECORD_FORMS]
    return sorted(found)


@pytest.mark.parametrize("module", ONE_FORM)
def test_record_batches_have_one_form(module):
    assert record_form_tests((SRC / f"{module}.py").read_text()) == []


def test_form_guard_sees_every_test():
    source = (
        "def f(x, y, key):\n"
        "    if type(x) is Records or type(y) is not simcore.Records:\n"
        "        return list(x)\n"
        "    if type(x) == list or type(key) is tuple:\n"
        "        return x\n"
        "    if type(x) in (list, tuple) or isinstance(y, (Records, dict)):\n"
        "        return y\n"
        "    return isinstance(x, list) and type(key) is not Records\n"
    )
    assert record_form_tests(source) == [
        (2, "Records"), (2, "Records"), (4, "list"), (6, "Records"), (6, "list"),
        (8, "Records"), (8, "list")]
