"""Answer checks that do not trust the program under test.

Each response is projected down to its mathematics (per-degree ranks and
torsion, per-degree counts, summand multiplicities with witness counts)
and compared with the committed expected table.  Independently of that
table, every rank and count is recomputed here with plain ints from the
loop-homology Hilbert series 1/(1 - sum_i t^(|a_i|-1) + t^(|top|-2)), and
every torsion entry must be supported on the bad primes of the form.
"""

import functools
import json
from math import gcd


def hilbert_coefficients(generator_degrees, top_degree, order):
    """Coefficients 0..order of 1/(1 - sum_i t^(g_i - 1) + t^(top - 2))."""
    h = [0] * (order + 1)
    h[0] = 1
    for d in range(1, order + 1):
        acc = sum(h[d - g + 1] for g in generator_degrees if g - 1 <= d)
        if top_degree - 2 <= d:
            acc -= h[d - top_degree + 2]
        h[d] = acc
    return h


def lie_ranks(h):
    """l_d with prod_d (1 - t^d)^(-l_d) = sum_d h_d t^d, by PBW matching."""
    order = len(h) - 1
    product = [1] + [0] * order
    ranks = [0] * (order + 1)
    for d in range(1, order + 1):
        l_d = h[d] - product[d]
        if l_d < 0:
            raise ValueError(f"negative PBW multiplicity at degree {d}")
        ranks[d] = l_d
        if l_d:
            # multiply by (1 - t^d)^(-l_d) = sum_k C(l_d + k - 1, k) t^(dk)
            factor = [1]
            for k in range(1, order // d + 1):
                factor.append(factor[-1] * (l_d + k - 1) // k)
            product = [
                sum(product[i - d * k] * factor[k] for k in range(i // d + 1))
                for i in range(order + 1)
            ]
    return ranks


def prime_factors(n):
    n = abs(n)
    out = set()
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


def bad_primes(matrix):
    """Primes dividing every 2x2 minor of the form."""
    g = 0
    size = len(matrix)
    for i in range(size):
        for j in range(i + 1, size):
            for k in range(size):
                for m in range(k + 1, size):
                    minor = matrix[i][k] * matrix[j][m] - matrix[i][m] * matrix[j][k]
                    g = gcd(g, minor)
    return prime_factors(g)


def _matrix(text):
    return [[int(x) for x in row.split(",")] for row in text.strip('"').split(";")]


def _option(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def space_model(argv):
    """(generator degrees, top degree, form) of the request's space.

    The form is the cup-product matrix of a two-cell complex and None for
    the unimodular families.  Returns None for the Betti-one models, which
    are not quadratic and have no Hilbert-series prediction here.
    """
    command = argv[0]
    if command == "manifold":
        n, r = int(_option(argv, "--n")), int(_option(argv, "--betti"))
        return (n,) * r, 2 * n, None
    if command == "connected-sum":
        return _csum(_option(argv, "--factors"))
    if command == "cw":
        n, form = int(_option(argv, "--n")), _matrix(_option(argv, "--matrix"))
        return (n,) * len(form), 2 * n, form
    if command == "betti-one":
        return None
    text = _option(argv, "--space")
    family, _, rest = text.partition(":")
    if family == "manifold":
        n, r = (int(x) for x in rest.split(":"))
        return (n,) * r, 2 * n, None
    if family == "csum":
        return _csum(rest.split(":")[0])
    if family == "cw":
        n, _, form = rest.partition(":")
        form = _matrix(form)
        return (int(n),) * len(form), 2 * int(n), form
    return None


def _csum(factors):
    degrees = []
    for item in factors.split(","):
        p, _, q = item.partition("x")
        degrees += [int(p), int(q)]
    return tuple(degrees), degrees[0] + degrees[1], None


def command_of(argv):
    return " ".join(argv[:2]) if argv[0] == "verify" else argv[0]


def project(argv, payload):
    """The mathematics of one JSON response, free of layout and prose."""
    command = command_of(argv)
    if command == "verify cobar":
        return {
            "rows": [[r["degree"], r["rank"], r["torsion"]] for r in payload["rows"]],
            "ok": payload["ok"],
        }
    if command == "verify counts":
        return {
            "rows": [[r["degree"], r["moebius"], r["pbw"], r["lyndon"]] for r in payload["rows"]],
            "ok": payload["ok"],
        }
    if command == "hilbert":
        return {
            "rows": [[r["degree"], r["enumerated"], r["closed_form"]] for r in payload["rows"]],
            "ok": payload["ok"],
        }
    if command == "lie-basis":
        return {"basis": [[b["degree"], b["count"], len(b["brackets"])] for b in payload["basis"]]}
    if command == "moore":
        return {"verdict": payload["verdict"]}
    return {
        "summands": [
            [s["sphere_dim"], s["multiplicity"], len(s["witnesses"])] for s in payload["summands"]
        ],
        "inverted_primes": payload["inverted_primes"],
    }


@functools.lru_cache(maxsize=None)
def _predictions(degrees, top, order):
    h = hilbert_coefficients(degrees, top, order)
    return h, lie_ranks(h)


def predicted_problems(argv, projection):
    """Disagreements of a projection with the plain-int recurrence and the
    bad-prime support rule; empty when the answer is consistent."""
    model = space_model(argv)
    command = command_of(argv)
    if model is None or command == "moore":
        return []
    degrees, top, form = model
    allowed = bad_primes(form) if form is not None else set()
    problems = []
    if command in ("manifold", "connected-sum", "cw"):
        max_dim = int(_option(argv, "--max-dim"))
        _, ranks = _predictions(degrees, top, max_dim - 1)
        predicted = {d + 1: ranks[d] for d in range(1, max_dim) if ranks[d]}
        have = {dim: mult for dim, mult, _ in projection["summands"]}
        if have != predicted:
            problems.append(f"summands {have}, recurrence gives {predicted}")
        for dim, mult, witnesses in projection["summands"]:
            if witnesses not in (0, mult):
                problems.append(f"{witnesses} witnesses for {mult} summands of S^{dim}")
        if projection["inverted_primes"] != sorted(allowed):
            problems.append(
                f"inverted primes {projection['inverted_primes']}, bad primes {sorted(allowed)}"
            )
        return problems
    h, ranks = _predictions(degrees, top, int(_option(argv, "--max-degree")))
    if command == "verify cobar":
        for degree, rank, torsion in projection["rows"]:
            if rank != h[degree]:
                problems.append(f"rank {rank} at degree {degree}, recurrence gives {h[degree]}")
            for t in torsion:
                if not prime_factors(t) <= allowed:
                    problems.append(
                        f"torsion Z/{t} at degree {degree} off the bad primes {sorted(allowed)}"
                    )
    elif command == "hilbert":
        for degree, enumerated, closed in projection["rows"]:
            if not enumerated == closed == h[degree]:
                problems.append(
                    f"hilbert {enumerated}/{closed} at degree {degree}, recurrence gives {h[degree]}"
                )
    elif command == "verify counts":
        for degree, *counts in projection["rows"]:
            if any(c != ranks[degree] for c in counts):
                problems.append(
                    f"counts {counts} at degree {degree}, recurrence gives {ranks[degree]}"
                )
    elif command == "lie-basis":
        for degree, count, witnesses in projection["basis"]:
            if not count == witnesses == ranks[degree]:
                problems.append(
                    f"basis {count}/{witnesses} at degree {degree}, recurrence gives {ranks[degree]}"
                )
    return problems


def check(argv, code, stdout, expected):
    """Reasons the response fails; empty when it passes every check."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        payload = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"]
    problems = []
    if "ok" in payload and payload["ok"] is not True:
        problems.append("JSON ok is not true")
    try:
        projection = project(argv, payload)
    except (KeyError, TypeError) as exc:
        return problems + [f"response lacks {exc}"]
    if projection != expected:
        problems.append("projection differs from the expected table")
    try:
        return problems + predicted_problems(argv, projection)
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        return problems + [f"response does not fit the recurrence check: {exc!r}"]
