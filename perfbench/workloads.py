"""Seeded inputs, expected outputs and output checks of the three workloads.

All of this is the benchmark's own code.  Semigroup tables and graphs come
from closed forms, and expected outputs come from small reference
implementations here, so a defect in ``pigraphs`` cannot hide in its own
oracle.  Seeds change only relabellings and random edges; the orders, sizes
and document kinds are fixed, so every seed asks for the same work.
"""

import json
import random
from itertools import combinations, permutations

ISN5_ARGV = ["verify", "--suite", "isn", "--n", "5"]
ISN5_CHECKS = 14

GRAPH_OPS = (("left", "pig"), ("left", "spig"), ("right", "pig"),
             ("right", "spig"))
TABLE_OPS = tuple(f"graph {s} {v}" for s, v in GRAPH_OPS) + ("classes",)


# --- tables: canonical semigroups (table, labels, zero) -------------------

def _is3():
    n = 3
    elems = []
    for k in range(n + 1):
        for dom in combinations(range(n), k):
            for img in permutations(range(n), k):
                mapping = [None] * n
                for i, v in zip(dom, img):
                    mapping[i] = v
                elems.append(tuple(mapping))
    index = {e: i for i, e in enumerate(elems)}
    # left-to-right composition: apply x first, then y
    table = [[index[tuple(None if v is None else y[v] for v in x)]
              for y in elems] for x in elems]
    labels = ["(" + ",".join(f"{i}>{v}" for i, v in enumerate(e)
                             if v is not None) + ")"
              if any(v is not None for v in e) else "empty" for e in elems]
    return table, labels, index[(None,) * n]


def _brandt(m, r):
    """Brandt semigroup over the cyclic group Z_m with r indices."""
    triples = [(i, a, j) for i in range(r) for a in range(m) for j in range(r)]
    index = {t: k for k, t in enumerate(triples)}
    zero = len(triples)
    table = [[index[(i, (a + b) % m, l)] if j == k else zero
              for (k, b, l) in triples] + [zero] for (i, a, j) in triples]
    table.append([zero] * (zero + 1))
    return table, [f"({i},{a},{j})" for i, a, j in triples] + ["0"], zero


def _semilattice(n):
    size = 1 << n
    table = [[x & y for y in range(size)] for x in range(size)]
    labels = ["{" + ",".join(str(i) for i in range(n) if x >> i & 1) + "}"
              for x in range(size)]
    return table, labels, 0


def _with_zero(n, product, prefix):
    """n elements under product, plus an adjoined zero as element n."""
    table = [[product(x, y) for y in range(n)] + [n] for x in range(n)]
    table.append([n] * (n + 1))
    return table, [f"{prefix}{x}" for x in range(n)] + ["0"], n


# name -> (builder, Brandt parameters (group order, indices) or None)
TABLE_BASES = {
    "is3": (_is3, None),
    "semilattice5": (lambda: _semilattice(5), None),
    "brandt_z2_r4": (lambda: _brandt(2, 4), (2, 4)),
    "brandt_z3_r4": (lambda: _brandt(3, 4), (3, 4)),
    "brandt_z2_r6": (lambda: _brandt(2, 6), (2, 6)),
    "brandt_z4_r5": (lambda: _brandt(4, 5), (4, 5)),
    "brandt_z1_r11": (lambda: _brandt(1, 11), (1, 11)),
    "brandt_z5_r5": (lambda: _brandt(5, 5), (5, 5)),
    "leftzero40": (lambda: _with_zero(40, lambda x, y: x, "a"), None),
    "leftzero95": (lambda: _with_zero(95, lambda x, y: x, "a"), None),
    "cyclic60": (lambda: _with_zero(60, lambda x, y: (x + y) % 60, "g"), None),
    "cyclic127": (lambda: _with_zero(127, lambda x, y: (x + y) % 127, "g"),
                  None),
}

# Two documents of each malformed kind on every seed.  The first two kinds
# end in exit 2; "short_labels" and "not_object" end in a traceback today.
MALFORMED = (
    ("non_associative", "brandt_z3_r4"), ("non_associative", "leftzero40"),
    ("out_of_range", "is3"), ("out_of_range", "cyclic60"),
    ("short_labels", "semilattice5"), ("short_labels", "brandt_z2_r6"),
    ("not_object", "is3"), ("not_object", "brandt_z2_r4"),
)


def _relabel(table, labels, perm):
    n = len(table)
    new = [[0] * n for _ in range(n)]
    new_labels = [None] * n
    for x in range(n):
        new_labels[perm[x]] = labels[x]
        row = new[perm[x]]
        for y in range(n):
            row[perm[y]] = perm[table[x][y]]
    return {"order": n, "table": new, "labels": new_labels}


def _break_associativity(table, rng):
    """Change one entry of row 0 so that a violation has x = 0.

    The exhaustive scan visits x = 0 first, so it stops within n^2 triples
    and every seed pays about the same for the rejection.
    """
    n = len(table)
    row = table[0]
    for y in rng.sample(range(n), n):
        old = row[y]
        row[y] = rng.choice([w for w in range(n) if w != old])
        if any(table[row[b]][c] != row[table[b][c]]
               for b in range(n) for c in range(n)):
            return
        row[y] = old
    raise RuntimeError("no entry of row 0 breaks associativity")


def tables_corpus(seed):
    """The seed's documents: every base relabelled, then the malformed ones.

    Each entry has ``name``, ``kind`` ("well-formed" or a malformed kind),
    ``base``, ``perm`` and ``doc`` (the JSON value written to disk).
    """
    rng = random.Random(seed)
    bases = {name: build() for name, (build, _) in TABLE_BASES.items()}
    plan = [("well-formed", name) for name in TABLE_BASES] + list(MALFORMED)
    corpus = []
    for kind, base in plan:
        table, labels, _ = bases[base]
        n = len(table)
        perm = rng.sample(range(n), n)
        doc = _relabel(table, labels, perm)
        if kind == "non_associative":
            _break_associativity(doc["table"], rng)
        elif kind == "out_of_range":
            doc["table"][rng.randrange(n)][rng.randrange(n)] = n
        elif kind == "short_labels":
            doc["labels"] = doc["labels"][: n // 2]
        elif kind == "not_object":
            doc = doc["table"]
        corpus.append({"name": f"{kind}-{base}", "kind": kind, "base": base,
                       "perm": perm, "doc": doc})
    return corpus


def _mask(values):
    m = 0
    for v in values:
        m |= 1 << v
    return m


def _graph_doc(verts, adjacent, labels):
    edges = [[i, j] for i in range(len(verts))
             for j in range(i + 1, len(verts)) if adjacent(verts[i], verts[j])]
    return {"order": len(verts), "labels": labels, "edges": edges}


def expected_table_outputs(base, perm):
    """Reference ``pig graph`` documents and ``pig classes`` text.

    Computed on the un-relabelled table and mapped through ``perm``:
    vertices are nonzero elements, adjacent when their principal ideals
    share a nonzero element; classes group elements with equal ideals.
    """
    table, labels, zero = TABLE_BASES[base][0]()
    n = len(table)
    nonzero = ((1 << n) - 1) & ~(1 << zero)
    ideals_by_side = {
        "left": [1 << a | _mask(table[x][a] for x in range(n))
                 for a in range(n)],
        "right": [1 << a | _mask(table[a]) for a in range(n)],
    }
    canon = {perm[x]: x for x in range(n)}
    new_labels = [labels[canon[v]] for v in range(n)]
    verts = sorted(perm[x] for x in range(n) if x != zero)
    out = {}
    for side, ideals in ideals_by_side.items():
        def adjacent(u, v, ideals=ideals):
            return bool(ideals[canon[u]] & ideals[canon[v]] & nonzero)

        out[side, "pig"] = _graph_doc(verts, adjacent,
                                      [new_labels[v] for v in verts])
        groups = {}
        for v in range(n):
            groups.setdefault(ideals[canon[v]], []).append(v)
        classes = sorted(groups.values())
        blocks = [c for c in classes if perm[zero] not in c]
        out[side, "spig"] = _graph_doc([b[0] for b in blocks], adjacent,
                                       [f"[{new_labels[b[0]]}]"
                                        for b in blocks])
        if side == "left":
            out["classes"] = "".join(
                f"class {i}: {', '.join(new_labels[x] for x in c)}\n"
                for i, c in enumerate(classes))
    return out


# --- twins: graphs with planted closed-twin classes -----------------------

# The largest blow-up goes in twice per pass, under two relabellings.  The
# tail is a run's eleventh-slowest item: with one order-54 graph per pass it
# would fall on the order-48 graph below 11 passes and on the order-54 one
# above, and jump by 70 % as the pass count crossed 11.  With two it stays
# on the order-54 graph from 6 passes up.
BLOWUP_BASES = (12, 15, 18, 21, 24, 27)      # blown up to orders 24..54
# Twin-free graphs of order 8 make the brute force walk all 4,140 vertex
# partitions, so they set a steady median; planted twins stop it early.
SMALL_GRAPHS = ((8, False),) * 12 + ((7, True), (8, True)) * 2


def _blowup_sizes(base_order):
    return [1 + j % 3 for j in range(base_order)]


def _random_twin_free(order, rng):
    """G(order, 1/2) redrawn until no two vertices are closed twins."""
    while True:
        adj = [1 << v for v in range(order)]
        for u, v in combinations(range(order), 2):
            if rng.random() < 0.5:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        if len(set(adj)) == order:
            return adj


def _edges(adj):
    return [[u, v] for u, v in combinations(range(len(adj)), 2)
            if adj[u] >> v & 1]


def twins_items(seed):
    """The seed's graphs with what each one must yield.

    Blow-ups replace every vertex of a twin-free base graph by a clique of
    fixed size; their closed-twin classes are exactly those cliques.  Small
    graphs are twin-free, or twin-free plus one planted closed twin.
    Vertices are relabelled by a seeded permutation.
    """
    rng = random.Random(seed)
    items = []
    bases = [(k, _random_twin_free(k, rng)) for k in BLOWUP_BASES]
    for base_order, base in bases + bases[-1:]:
        owner = [v for v, k in enumerate(_blowup_sizes(base_order))
                 for _ in range(k)]
        n = len(owner)
        perm = rng.sample(range(n), n)
        adj = [0] * n
        for a, b in combinations(range(n), 2):
            if base[owner[a]] >> owner[b] & 1:
                adj[perm[a]] |= 1 << perm[b]
                adj[perm[b]] |= 1 << perm[a]
        blocks = [sorted(perm[k] for k in range(n) if owner[k] == v)
                  for v in range(base_order)]
        items.append({"kind": "blowup", "order": n, "edges": _edges(adj),
                      "blocks": blocks})
    for order, planted in SMALL_GRAPHS:
        adj = _random_twin_free(order - planted, rng)
        if planted:
            v = rng.randrange(order - 1)
            twin = order - 1
            adj.append(adj[v] | 1 << twin)
            for u in range(order - 1):
                if adj[twin] >> u & 1:
                    adj[u] |= 1 << twin
        perm = rng.sample(range(order), order)
        relabelled = [0] * order
        for u, v in _edges(adj):
            relabelled[perm[u]] |= 1 << perm[v]
            relabelled[perm[v]] |= 1 << perm[u]
        items.append({"kind": "small", "order": order,
                      "edges": _edges(relabelled), "skeleton": not planted})
    return items


# --- inputs for one run ---------------------------------------------------

def make_inputs(workload, seed, work):
    """Write the seed's inputs under ``work``.

    Returns ``(items, expected)``: the worker's item list and, per item,
    what the benchmark checks its outputs against.
    """
    if workload == "isn5":
        return [{"ops": [ISN5_ARGV]}], [{"input": "well-formed"}]
    if workload == "twins":
        items = twins_items(seed)
        return ([{k: it[k] for k in ("kind", "order", "edges")}
                 for it in items], items)
    docs, out = work / "docs", work / "out"
    docs.mkdir(parents=True)
    out.mkdir()
    items, expected = [], []
    for i, entry in enumerate(tables_corpus(seed)):
        path = docs / f"{i:02d}-{entry['name']}.json"
        path.write_text(json.dumps(entry["doc"]))
        outs = [str(out / f"{i:02d}-{s}-{v}.json") for s, v in GRAPH_OPS]
        ops = [["graph", "--input", str(path), "--side", s, "--variant", v,
                "--out", o] for (s, v), o in zip(GRAPH_OPS, outs)]
        ops.append(["classes", "--input", str(path)])
        items.append({"ops": ops})
        exp = {"input": "well-formed" if entry["kind"] == "well-formed"
               else "malformed", "outs": outs, "base": entry["base"]}
        if exp["input"] == "well-formed":
            exp["reference"] = expected_table_outputs(entry["base"],
                                                      entry["perm"])
        expected.append(exp)
    return items, expected


# --- checks ---------------------------------------------------------------

def _edge_diff(got, want):
    extra = sorted(set(map(tuple, got)) - set(map(tuple, want)))
    missing = sorted(set(map(tuple, want)) - set(map(tuple, got)))
    if extra and (not missing or extra[0] < missing[0]):
        return f"unexpected edge {list(extra[0])}"
    if missing:
        return f"missing edge {list(missing[0])}"
    return "edges repeated or out of order"


def _graph_diff(got, want):
    if not isinstance(got, dict) or set(got) != set(want):
        return "not a graph document"
    if got["order"] != want["order"]:
        return f"order {got['order']} != {want['order']}"
    if got["edges"] != want["edges"]:
        return _edge_diff(got["edges"], want["edges"])
    if got["labels"] != want["labels"]:
        pairs = list(zip(got["labels"] or [], want["labels"]))
        i = next((i for i, (a, b) in enumerate(pairs) if a != b), len(pairs))
        return f"label {i} differs"
    return None


def _brandt_diff(side_variant, got, group_order, indices):
    """Closed forms: left graph = one complete component per index."""
    if side_variant == ("left", "spig"):
        if got["order"] != indices or got["edges"]:
            return "left quotient is not a null graph on r vertices"
        return None
    adj = [0] * got["order"]
    for u, v in got["edges"]:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    closed = {adj[v] | 1 << v for v in range(got["order"])}
    size = indices * group_order
    full = _mask(range(got["order"]))
    if (len(closed) != indices or any(c.bit_count() != size for c in closed)
            or _union(closed) != full):
        return "left graph is not one complete component per index"
    return None


def _union(masks):
    m = 0
    for x in masks:
        m |= x
    return m


def _op_failure(res, want_exit):
    if res["traceback"] is not None:
        return "traceback", res["traceback"].strip().splitlines()[-1]
    if res["exit"] != want_exit:
        return "exit", f"exit {res['exit']}, expected {want_exit}"
    return None


def _check_tables(exp, ops):
    want_exit = 0 if exp["input"] == "well-formed" else 2
    failures = []
    for i, (name, res) in enumerate(zip(TABLE_OPS, ops)):
        bad = _op_failure(res, want_exit)
        if bad is None and want_exit == 0:
            if i < len(GRAPH_OPS):
                bad = _check_graph_file(exp, i)
            elif res["stdout"] != exp["reference"]["classes"]:
                got = res["stdout"].splitlines()
                want = exp["reference"]["classes"].splitlines()
                j = next((j for j, (a, b) in enumerate(zip(got, want))
                          if a != b), min(len(got), len(want)))
                bad = "output", f"classes line {j} differs"
        if bad:
            failures.append((name, *bad))
    return len(TABLE_OPS), failures


def _check_graph_file(exp, i):
    try:
        with open(exp["outs"][i]) as fh:
            got = json.load(fh)
    except (OSError, ValueError) as exc:
        return "output", f"no graph document: {exc}"
    diff = _graph_diff(got, exp["reference"][GRAPH_OPS[i]])
    brandt = TABLE_BASES[exp["base"]][1]
    if diff is None and brandt and GRAPH_OPS[i][0] == "left":
        diff = _brandt_diff(GRAPH_OPS[i], got, *brandt)
    return ("output", diff) if diff else None


def _check_isn5(exp, ops):
    res = ops[0]
    bad = _op_failure(res, 0)
    if bad is None:
        lines = res["stdout"].splitlines()
        passed = sum(line.startswith("[PASS]") for line in lines)
        if passed != ISN5_CHECKS:
            first = next((ln for ln in lines if not ln.startswith("[PASS]")),
                         "")
            bad = "output", f"{passed} of {ISN5_CHECKS} checks passed: {first}"
    return 1, [("verify", *bad)] if bad else []


def _check_twins(exp, ops):
    if exp["kind"] == "small":
        names = ("is_skeleton", "brute_force_has_proper_skeletal")
        wants = (exp["skeleton"], not exp["skeleton"])
    else:
        names = ("twin_spectral_report", "max_skeletal", "verify_skeletal",
                 "embedded_copy")
        wants = _blowup_expected(exp)
    failures = []
    for name, res, want in zip(names, ops, wants):
        if res["traceback"] is not None:
            failures.append((name, "traceback",
                             res["traceback"].strip().splitlines()[-1]))
        elif res["out"] != want:
            failures.append((name, "output",
                             f"got {_short(res['out'])}, "
                             f"expected {_short(want)}"))
    return len(names), failures


def _short(value, limit=160):
    text = json.dumps(value)
    return text if len(text) <= limit else text[:limit] + "..."


def _blowup_expected(exp):
    """What each call must return for a blow-up with planted blocks."""
    n = exp["order"]
    adj = [0] * n
    for u, v in exp["edges"]:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    blocks = sorted(exp["blocks"])
    block_of = [0] * n
    for i, b in enumerate(blocks):
        for v in b:
            block_of[v] = i
    reps = [b[0] for b in blocks]
    quotient = [[i, j] for i, j in combinations(range(len(blocks)), 2)
                if adj[reps[i]] >> reps[j] & 1]
    report = {"all_pass": True,
              "classes": [[b, adj[b[0]].bit_count()] for b in blocks
                          if len(b) >= 2]}
    return (report,
            {"order": len(blocks), "edges": quotient, "map": block_of},
            True,
            {"order": len(blocks), "edges": quotient,
             "bijection": list(range(len(blocks)))})


CHECKERS = {"isn5": _check_isn5, "tables": _check_tables,
            "twins": _check_twins}


def check_pass(workload, seed, pass_index, expected, result):
    """Check one pass; returns (attempted operations, failure witnesses)."""
    attempted, failures = 0, []
    for i, (exp, item) in enumerate(zip(expected, result["items"])):
        count, bad = CHECKERS[workload](exp, item["ops"])
        attempted += count
        failures += [{"workload": workload, "seed": seed, "pass": pass_index,
                      "item": i, "input": exp.get("input", "well-formed"),
                      "op": op, "kind": kind, "detail": detail}
                     for op, kind, detail in bad]
    missing = len(expected) - len(result["items"])
    if missing:
        attempted += missing
        failures.append({"workload": workload, "seed": seed,
                         "pass": pass_index, "item": len(result["items"]),
                         "input": "well-formed", "op": "pass",
                         "kind": "exit", "detail": f"{missing} items not run"})
    return attempted, failures
