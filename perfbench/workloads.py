"""Workload inputs, made from a seed, and the checks on the program's outputs.

Each workload is one *pass*: a fixed sequence of operations that a fresh
interpreter runs cold (see worker.py).  `make_inputs(name, seed)` builds
the pass's inputs; `check(name, inputs, outputs)` returns a list of
problems, empty when every output is right.  An output is None for an
operation that failed; the checks skip those, since failures are counted
on their own.

The seed changes which shapes and samples a pass uses but not how much
work it holds: sizes come from fixed grids and each kind of operation has
a fixed count, so two seeds give passes of the same cost.
"""

from __future__ import annotations

import json
import random
from math import factorial

import oracles

WORKLOADS = ("exponent-table", "fiber-character", "character-tables", "orbit-queries")

EXPONENT_SIZES = (10, 15)
FIBER_MAX_M = 7
HOOK_OPS = 40
HOOK_SIZES = (90, 110)
TABLE_SIZES = tuple(range(16, 22))
ORTHOGONALITY_PAIRS = 6
PART_MAX = 60
SCAN_MAX = 20

# Count of each one-shot command per orbit-queries pass.  No kind's share of
# the 182 commands lies near 10 % or 50 %, so no percentile of the latency
# sits on the step between two kinds.
QUERY_MIX = (
    ("part info", 22),
    ("cm tangent", 34),
    ("cm orbit", 30),
    ("hilb orbit", 30),
    ("hilb ideal", 26),
    ("cm fixed", 14),
    ("hilb closure", 26),
)


def random_partition(rng: random.Random, size: int) -> tuple:
    """A partition of `size` with parts drawn up to 2*sqrt(size), transposed
    half of the time, so that long rows and long columns both occur."""
    cap = max(1, round(2 * size**0.5))
    parts, rest = [], size
    while rest:
        part = rng.randint(1, min(rest, cap))
        parts.append(part)
        rest -= part
    lam = tuple(sorted(parts, reverse=True))
    return oracles.transpose(lam) if rng.random() < 0.5 else lam


def grid(lo: int, hi: int, count: int) -> list:
    """`count` integers spread evenly over lo..hi."""
    return [lo + (i * (hi - lo + 1)) // count for i in range(count)]


def _csv(lam: tuple) -> str:
    return ",".join(map(str, lam))


def make_inputs(name: str, seed: int) -> dict:
    rng = random.Random(f"{name}:{seed}")
    if name == "exponent-table":
        return {"partitions": [list(lam) for n in EXPONENT_SIZES for lam in oracles.partitions(n)]}
    if name == "fiber-character":
        sizes = grid(*HOOK_SIZES, HOOK_OPS)
        rng.shuffle(sizes)
        return {
            "max_m": FIBER_MAX_M,
            "hook_partitions": [list(random_partition(rng, s)) for s in sizes],
        }
    if name == "character-tables":
        tables = []
        for n in TABLE_SIZES:
            lams = oracles.partitions(n)
            pairs = [sorted(rng.sample(range(len(lams)), 2)) for _ in range(ORTHOGONALITY_PAIRS)]
            diagonal = rng.randrange(len(lams))
            pairs.append([diagonal, diagonal])
            rows = sorted({0, len(lams) - 1} | {i for pair in pairs for i in pair})
            tables.append({"n": n, "rows": rows, "pairs": pairs})
        return {"tables": tables}
    if name == "orbit-queries":
        return {"argvs": _query_stream(rng)}
    raise ValueError(f"unknown workload {name!r}")


def _query_stream(rng: random.Random) -> list:
    """The kinds interleaved in a fixed order, each spread evenly over the
    pass.  Only the shapes are seeded: the order of the commands sets how
    fragmented the heap is when the largest scan runs, and with it the
    peak RSS, so a seeded order would make memory vary from seed to seed."""
    slots = []
    for rank, (kind, count) in enumerate(QUERY_MIX):
        words = kind.split()
        if kind == "cm fixed":
            argvs = [
                words + [str(n), "--format", ("text", "json")[i % 2]]
                for i, n in enumerate(grid(1, SCAN_MAX, count))
            ]
        elif kind == "hilb closure":
            argvs = [
                words + [str(n), "--space", ("hilbert", "calogero-moser")[i % 2], "--format", ("text", "json", "dot")[i % 3]]
                for i, n in enumerate(grid(1, SCAN_MAX, count))
            ]
        else:
            argvs = [
                words + [_csv(random_partition(rng, size)), "--format", ("text", "json")[i % 2]]
                for i, size in enumerate(grid(1, PART_MAX, count))
            ]
        slots += [((i + 0.5) / count, rank, argv) for i, argv in enumerate(argvs)]
    return [argv for _, _, argv in sorted(slots)]


def check(name: str, inputs: dict, outputs: list) -> list:
    return _CHECKERS[name](inputs, outputs)


# -- exponent-table -----------------------------------------------------------


def _check_exponent_table(inputs: dict, outputs: list) -> list:
    """Each output is the exponent tuple run-length encoded: [[e, count], ...]."""
    problems = []
    table = {tuple(lam): out for lam, out in zip(inputs["partitions"], outputs)}
    for lam, runs in table.items():
        if runs is None:
            continue
        values = [e for e, _ in runs]
        if values != sorted(set(values)) or any(e < 0 or c < 1 for e, c in runs):
            problems.append(f"exponents of {lam} are not ascending and nonnegative: {runs}")
        if sum((e + 1) * c for e, c in runs) != oracles.dim(lam):
            problems.append(f"sum(e+1) over exponents of {lam} is not dim {oracles.dim(lam)}")
        mate = table.get(oracles.transpose(lam))
        if mate is not None and mate != runs:
            problems.append(f"exponents of {lam} and its transpose differ")
    for n in EXPONENT_SIZES:
        rows = [(lam, runs) for lam, runs in table.items() if sum(lam) == n]
        if any(runs is None for _, runs in rows):
            continue
        total = {}
        for lam, runs in rows:
            for e, c in runs:
                oracles.add_into(total, oracles.sl2_irreducible(e), c * oracles.dim(lam))
        if total != oracles.fiber_character(oracles.triangular_root(n)):
            problems.append(f"n={n}: sum of dim * V(e) is not the fiber character")
    return problems


# -- fiber-character ----------------------------------------------------------


def fiber_ops(inputs: dict) -> list:
    """Operation list shared by the worker and the checker."""
    ops = []
    for m in range(1, inputs["max_m"] + 1):
        ops += [("regular_fiber_character", m), ("layered_fiber_character", m)]
    ops += [("hook_polynomial", lam) for lam in inputs["hook_partitions"]]
    return ops


def _check_fiber_character(inputs: dict, outputs: list) -> list:
    problems = []
    for (func, arg), pairs in zip(fiber_ops(inputs), outputs):
        if pairs is None:
            continue
        got = oracles.from_pairs(pairs)
        if func == "hook_polynomial":
            if got != oracles.hook_product(tuple(arg)):
                problems.append(f"hook_polynomial({arg}) is not the product of (1 - q^h)")
            continue
        n = arg * (arg + 1) // 2
        if got != oracles.fiber_character(arg):
            problems.append(f"{func}({arg}) is not the prefix-sum quotient")
        if oracles.value_at_one(got) != factorial(n):
            problems.append(f"{func}({arg}) does not take the value {n}! at q = 1")
        if not oracles.is_palindromic(got):
            problems.append(f"{func}({arg}) is not palindromic")
    return problems


# -- character-tables ---------------------------------------------------------


def _check_character_tables(inputs: dict, outputs: list) -> list:
    """Each output is {"count": p(n) as the table has it, "rows": {index: row},
    "column": chi^lam(1^n) for every lam}, indices into oracles.partitions(n)."""
    problems = []
    for spec, out in zip(inputs["tables"], outputs):
        if out is None:
            continue
        n = spec["n"]
        lams = oracles.partitions(n)
        rows = {int(i): row for i, row in out["rows"].items()}
        nfact = factorial(n)
        if out["count"] != oracles.partition_count(n):
            problems.append(f"n={n}: table has {out['count']} partitions, p(n) = {oracles.partition_count(n)}")
        if out["column"] != [oracles.dim(lam) for lam in lams]:
            problems.append(f"n={n}: chi(1^n) is not the hook-length dimension")
        if sum(d * d for d in out["column"]) != nfact:
            problems.append(f"n={n}: sum of dim^2 is not n!")
        if sorted(rows) != spec["rows"]:
            problems.append(f"n={n}: rows {sorted(rows)} returned, {spec['rows']} asked")
            continue
        if any(v != 1 for v in rows[0]):
            problems.append(f"n={n}: chi^(n) is not the trivial character")
        if rows[len(lams) - 1] != [oracles.sign_character(mu) for mu in lams]:
            problems.append(f"n={n}: chi^(1^n) is not the sign character")
        weights = [nfact // oracles.z(mu) for mu in lams]
        for i, j in spec["pairs"]:
            inner = sum(w * a * b for w, a, b in zip(weights, rows[i], rows[j]))
            if inner != (nfact if i == j else 0):
                problems.append(f"n={n}: rows {lams[i]} and {lams[j]} fail orthogonality")
    return problems


# -- orbit-queries ------------------------------------------------------------


def _parse_kv(text: str) -> dict:
    """The CLI's two-column text: key, two or more spaces, value."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("  ")
        if not sep:
            raise ValueError(f"not a key-value line: {line!r}")
        out[key.strip()] = value.strip()
    return out


def _parts(text: str) -> tuple:
    return tuple(int(p) for p in text.split(","))


def _report_problems(lam: tuple, space: str, rep: dict) -> list:
    """Checks one orbit report, given as JSON-style fields."""
    problems = []
    stab = oracles.stabilizer(lam, space)
    closed = space == "calogero-moser" or oracles.hilbert_closed(lam)
    if rep["stabilizer"] != stab:
        problems.append(f"{space} {lam}: stabiliser {rep['stabilizer']}, derivation test gives {stab}")
    if rep["orbit_model"] != oracles.ORBIT_MODEL[stab]:
        problems.append(f"{space} {lam}: orbit model {rep['orbit_model']} for stabiliser {stab}")
    if rep["closed"] is not closed:
        problems.append(f"{space} {lam}: closed is {rep['closed']}, expected {closed}")
    boundary = rep.get("boundary")
    if (boundary is not None) != (not closed):
        problems.append(f"{space} {lam}: boundary present exactly when not closed fails")
    elif boundary is not None:
        if not oracles.is_steep(boundary) or oracles.diagonals(boundary) != oracles.diagonals(lam):
            problems.append(f"{space} {lam}: boundary {boundary} is not steep with lam's diagonals")
    if space == "calogero-moser":
        mate = oracles.transpose(lam)
        partner = rep.get("partner")
        want = mate if stab == "T" else None
        if partner != want:
            problems.append(f"{space} {lam}: partner {partner}, expected {want}")
    return problems


def _text_report(kv: dict) -> dict:
    rep = {
        "stabilizer": kv["stabilizer"],
        "orbit_model": kv["orbit model"],
        "closed": {"True": True, "False": False}.get(kv["closed"]),
    }
    if "boundary" in kv:
        body, _, model = kv["boundary"].partition(" ")
        rep["boundary"] = _parts(body) if model == "(model P1)" else None
    if "partner" in kv:
        rep["partner"] = _parts(kv["partner"])
    return rep


def _json_report(obj: dict) -> dict:
    rep = dict(obj)
    if "boundary" in obj:
        rep["boundary"] = tuple(obj["boundary"]["partition"]) if obj["boundary"]["model"] == "P1" else None
    if "partner" in obj:
        rep["partner"] = tuple(obj["partner"])
    return rep


def _check_query(argv: list, text: str) -> list:
    kind = " ".join(argv[:2])
    fmt = argv[argv.index("--format") + 1]
    if kind in ("cm fixed", "hilb closure"):
        return _check_scan(kind, argv, fmt, text)
    lam = _parts(argv[2])
    n = sum(lam)
    if fmt == "json":
        obj = json.loads(text)
    elif kind != "cm tangent":
        obj = _parse_kv(text)
    if kind == "part info":
        return _check_part_info(lam, fmt, obj)
    if kind == "cm tangent":
        if fmt == "json":
            chi, odd = oracles.from_pairs(obj["character"]), obj["weights_all_odd"]
        else:
            first, second = text.splitlines()
            chi = oracles.parse_laurent(first)
            odd = {"all weights odd: True": True, "all weights odd: False": False}.get(second)
        want = {}
        for h in oracles.hooks(lam):
            oracles.add_into(want, {h: 1, -h: 1})
        problems = []
        if chi != want or oracles.value_at_one(chi) != 2 * n:
            problems.append(f"tangent {lam}: character is not sum of q^h + q^-h (value {2 * n} at 1)")
        if odd is not (lam == oracles.staircase(len(lam))):
            problems.append(f"tangent {lam}: all-odd flag {odd} disagrees with staircase test")
        return problems
    if kind in ("cm orbit", "hilb orbit"):
        space = "calogero-moser" if kind == "cm orbit" else "hilbert"
        rep = _json_report(obj) if fmt == "json" else _text_report(obj)
        return _report_problems(lam, space, rep)
    if kind == "hilb ideal":
        if fmt == "json":
            gens = {tuple(g) for g in obj["generators"]}
            dims = obj["graded_dims"]
        else:
            gens = {_monomial(word) for word in obj["generators"].split(", ")}
            dims = [int(d) for d in obj["graded dims"].split(",")]
        problems = []
        if gens != oracles.ideal_generators(lam):
            problems.append(f"ideal {lam}: generators are not the minimal outside monomials")
        if not dims or dims != oracles.graded_dims(lam, len(dims)) or len(dims) < len(oracles.diagonals(lam)):
            problems.append(f"ideal {lam}: graded dims are not k + 1 - d_k")
        return problems
    raise ValueError(f"unknown query {argv}")


def _monomial(word: str) -> tuple:
    a = b = 0
    for factor in word.split():
        var, _, exp = factor.partition("^")
        value = int(exp) if exp else 1
        if var == "x":
            a = value
        elif var == "y":
            b = value
        elif factor != "1":
            raise ValueError(f"not a monomial: {word!r}")
    return a, b


def _check_part_info(lam: tuple, fmt: str, obj: dict) -> list:
    t = oracles.transpose(lam)
    want = {
        "size": sum(lam),
        "transpose": t,
        "steep": oracles.is_steep(lam),
        "staircase": lam == oracles.staircase(len(lam)),
        "hooks odd": all(h % 2 for h in oracles.hooks(lam)),
        "hooks": tuple(oracles.hooks(lam)),
        "hook polynomial": oracles.hook_product(lam),
        "n stat": oracles.n_stat(lam),
        "dim": oracles.dim(lam),
        "diagonals": oracles.diagonals(lam),
        "borel": oracles.derivation_stable(lam, 1),
    }
    if fmt == "json":
        got = {
            "size": obj["size"],
            "transpose": tuple(obj["transpose"]),
            "steep": obj["is_steep"],
            "staircase": obj["is_staircase"],
            "hooks odd": obj["all_hooks_odd"],
            "hooks": tuple(obj["hooks"]),
            "hook polynomial": oracles.from_pairs(obj["hook_polynomial"]),
            "n stat": obj["n_stat"],
            "dim": obj["dim_irrep"],
            "diagonals": tuple(obj["diagonals"]),
            "borel": obj["is_borel_stable"],
        }
        u = tuple(obj["u_map"])
    else:
        flag = {"True": True, "False": False}.get
        got = {
            "size": int(obj["size"]),
            "transpose": _parts(obj["transpose"]),
            "steep": flag(obj["steep"]),
            "staircase": flag(obj["staircase"]),
            "hooks odd": flag(obj["all hooks odd"]),
            "hooks": _parts(obj["hooks"]),
            "hook polynomial": oracles.parse_laurent(obj["hook polynomial"]),
            "n stat": int(obj["n statistic"]),
            "dim": int(obj["irreducible dim"]),
            "diagonals": _parts(obj["diagonals"]),
            "borel": flag(obj["Borel stable"]),
        }
        u = _parts(obj["u_map"])
    problems = [f"part info {lam}: {key} is {got[key]!r}" for key in want if got[key] != want[key]]
    if not oracles.is_steep(u) or oracles.diagonals(u) != want["diagonals"]:
        problems.append(f"part info {lam}: u_map {u} is not steep with lam's diagonals")
    return problems


def _check_scan(kind: str, argv: list, fmt: str, text: str) -> list:
    n = int(argv[2])
    lams = oracles.partitions(n)
    if len(lams) != oracles.partition_count(n):
        return [f"benchmark enumeration of n={n} disagrees with p(n)"]
    if kind == "cm fixed":
        root = oracles.triangular_root(n)
        want = [oracles.staircase(root)] if root is not None else []
        if fmt == "json":
            got = [tuple(lam) for lam in json.loads(text)["fixed"]]
        else:
            lines = text.splitlines()
            got = [] if lines == ["(empty)"] else [_parts(line) for line in lines]
        return [] if got == want else [f"cm fixed {n}: {got}, expected {want}"]
    space = argv[argv.index("--space") + 1]
    want_sources = [lam for lam in lams if space == "hilbert" and not oracles.hilbert_closed(lam)]
    problems = []
    if fmt == "json":
        obj = json.loads(text)
        nodes = obj["nodes"]
        if len(nodes) != oracles.partition_count(n):
            problems.append(f"closure {n} {space}: {len(nodes)} nodes, p(n) = {oracles.partition_count(n)}")
        if sorted(tuple(node["partition"]) for node in nodes) != sorted(lams):
            problems.append(f"closure {n} {space}: nodes are not the partitions of {n}")
        for node in nodes:
            lam = tuple(node["partition"])
            problems += _report_problems(lam, space, _json_report(node))
        edges = [(tuple(s), tuple(d)) for s, d in obj["edges"]]
    elif fmt == "dot":
        lines = text.splitlines()
        node_lines = [line for line in lines if "[shape=" in line]
        if len(node_lines) != oracles.partition_count(n):
            problems.append(f"closure {n} {space}: {len(node_lines)} dot nodes, p(n) = {oracles.partition_count(n)}")
        if sorted(_parts(line.split('"')[1]) for line in node_lines) != sorted(lams):
            problems.append(f"closure {n} {space}: dot nodes are not the partitions of {n}")
        for line in node_lines:
            lam = _parts(line.split('"')[1])
            closed = "doublecircle" in line
            if closed != (space == "calogero-moser" or oracles.hilbert_closed(lam)):
                problems.append(f"closure {n} {space}: node {lam} drawn with closed={closed}")
        edges = [tuple(_parts(p) for p in line.split('"')[1::2]) for line in lines if "->" in line]
    else:
        lines = text.splitlines()
        edges = [] if lines == ["(no edges)"] else [tuple(_parts(p) for p in line.split(" -> ")) for line in lines]
    if sorted(src for src, _ in edges) != sorted(want_sources):
        problems.append(f"closure {n} {space}: edge sources are not the non-closed orbits")
    for src, dst in edges:
        if not oracles.is_steep(dst) or oracles.diagonals(dst) != oracles.diagonals(src):
            problems.append(f"closure {n} {space}: edge {src} -> {dst} target not steep with same diagonals")
    return problems


def _check_orbit_queries(inputs: dict, outputs: list) -> list:
    problems = []
    for argv, text in zip(inputs["argvs"], outputs):
        if text is None:
            continue
        try:
            problems += _check_query(argv, text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"{' '.join(argv)}: unreadable output ({type(exc).__name__}: {exc})")
    return problems


_CHECKERS = {
    "exponent-table": _check_exponent_table,
    "fiber-character": _check_fiber_character,
    "character-tables": _check_character_tables,
    "orbit-queries": _check_orbit_queries,
}
