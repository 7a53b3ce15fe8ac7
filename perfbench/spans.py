"""In-memory span recorder and the per-layer wrappers of the traced pass.

The traced pass never edits the program: it rebinds module attributes of
looptop to wrappers that record a span (name, start, end, parent, request)
around the original function.  Each wrapper is bound where the caller looks
the name up at call time, so a function imported by name into another
module (``looptop.cli.verify_loop_homology``, ``looptop.cobar._dense_snf``)
gets a wrapper in that module too.

Per-layer metrics are self times: a span's duration minus the part of it
that its child spans cover.  Counters are taken at the same boundaries,
inside a ``trace.count`` span so that their cost is not charged to a layer.
"""

import importlib
import time
from collections import Counter

# (module, attribute, span name).  A class attribute is "module:Class".
SPAN_SITES = (
    ("looptop.cli", "run", "cli.self"),
    ("looptop.cli", "verify_loop_homology", "cobar.verify"),
    ("looptop.cli", "pbw_match_ungraded", "series.pbw"),
    ("looptop.lyndon", "pbw_match_ungraded", "series.pbw"),
    ("looptop.spaces", "pbw_match_graded", "series.pbw"),
    ("looptop.series", "lie_ranks_from_denominator", "series.log_moebius"),
    ("looptop.series:PowerSeries", "inverse", "series.inverse"),
    ("looptop.series", "closed_form_lie_rank", "series.closed_form"),
    ("looptop.algebra", "relation_from_space", "algebra.normalize"),
    ("looptop.algebra", "normalize_relation", "algebra.normalize"),
    ("looptop.rewriting", "irreducible_counts", "rewriting.enumerate"),
    ("looptop.lyndon", "standard_lyndon_words", "lyndon.generate"),
    ("looptop.lyndon", "bracket_expand", "lyndon.bracket_expand"),
    ("looptop.lyndon", "bracket_string", "lyndon.bracket_string"),
    ("looptop.lyndon", "lie_basis", "lyndon.basis"),
    ("looptop.lyndon", "_necklace_count", "lyndon.necklace"),
    ("looptop.cobar", "build_cobar", "cobar.build"),
    ("looptop.cobar", "_assert_d_squared_zero", "cobar.dd_check"),
    ("looptop.cobar", "_sparse_rank_and_torsion", "cobar.rank"),
    ("looptop.cobar", "homology", "cobar.homology"),
    ("looptop.cobar", "_euler_audit", "cobar.euler"),
    ("looptop.cobar", "_dense_snf", "linalg.snf"),
    ("looptop.spaces", "smith_normal_form", "linalg.snf"),
    ("looptop.spaces", "decomposition_report", "spaces.report"),
    ("looptop.spaces", "betti_one_report", "spaces.report"),
    ("looptop.spaces", "classify_rational", "spaces.classify"),
    ("looptop.spaces", "moore_report", "spaces.classify"),
    ("looptop.spaces", "report_to_json", "spaces.to_json"),
    ("looptop.spaces", "space_to_json", "spaces.to_json"),
    ("looptop.spaces", "bad_primes", "spaces.bad_primes"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPAN_SITES))

# Counts, sizes and ratios taken at the span boundaries; cobar.euler_rank_s is
# the rank and Smith-form self time spent on profiles only the Euler audit uses.
COUNTER_NAMES = (
    "series.order_max",
    "algebra.commutator_calls",
    "algebra.tensor_terms",
    "lyndon.words_walked",
    "lyndon.words_kept",
    "lyndon.walk_tables_built",
    "lyndon.necklace_degrees",
    "cobar.cells",
    "cobar.cells_above_cutoff",
    "cobar.useful_cell_frac",
    "cobar.diff_nnz",
    "cobar.profiles_euler_only",
    "cobar.euler_rank_s",
    "cobar.pivots",
    "cobar.aside_cols",
    "linalg.snf_calls",
    "linalg.snf_rows_max",
    "linalg.snf_cols_max",
    "linalg.snf_dense_cells",
    "linalg.snf_nnz",
)

METRIC_NAMES = tuple(f"{name}_s" for name in SPAN_NAMES) + COUNTER_NAMES


class Recorder:
    """Spans and counters of one worker process, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or None, request]
        self.stack = []
        self.counters = Counter()
        self.request = 0

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, self.clock(), None, parent, self.request])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = self.clock()

    def current(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def inside(self, name):
        return any(self.spans[i][0] == name for i in self.stack)

    def wrap(self, fn, name, after=None):
        """`fn` inside a span; a call nested directly in a span of the same
        name (recursion) joins that span instead of opening a new one."""

        def wrapper(*args, **kwargs):
            if self.current() == name:
                return fn(*args, **kwargs)
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                self.open("trace.count")
                try:
                    after(args, result)
                finally:
                    self.close()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, fn, after):
        """`fn` with a counter hook and no span."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def span_self_times(spans):
    """Self time of each span, in order.

    Self time is the span's duration minus the union of its children's
    intervals, clipped to the span.  Spans are (name, start, end, parent).
    """
    children = {}
    for i, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(i)
    out = []
    for i, (_name, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def self_times(spans):
    """Total self time per span name."""
    totals = {}
    for span, own in zip(spans, span_self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0.0) + own
    return totals


def _lyndon_word_count(r, max_length):
    """Lyndon words of length <= max_length over r letters (Witt's formula)."""
    total = 0
    for n in range(1, max_length + 1):
        acc = 0
        for d in range(1, n + 1):
            if n % d == 0:
                acc += _mu(d) * r ** (n // d)
        total += acc // n
    return total


def _mu(n):
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def install(rec):
    """Rebind every span site and counter hook of looptop to `rec` wrappers."""
    c = rec.counters

    def order(args, _result):
        c["series.order_max"] = max(c["series.order_max"], args[1])

    def lyndon_words(args, result):
        alphabet, _forbidden, max_degree = args
        max_length = max_degree // min(alphabet.degrees)
        c["lyndon.words_walked"] += _lyndon_word_count(alphabet.size, max_length)
        c["lyndon.words_kept"] += sum(len(words) for words in result.values())

    def cobar_cells(args, cx):
        cutoff = args[1]
        for (_s, d), words in cx.spots.items():
            c["cobar.cells"] += len(words)
            if d > cutoff + 1:
                c["cobar.cells_above_cutoff"] += len(words)
        c["cobar.diff_nnz"] += sum(len(col) for cols in cx.diffs.values() for col in cols)

    def rank(_args, result):
        c["cobar.rank_sum"] += result[0]
        if rec.inside("cobar.euler"):
            c["cobar.profiles_euler_only"] += 1

    def snf(args, result):
        matrix = args[0]
        rows, cols = len(matrix), len(matrix[0]) if matrix else 0
        c["linalg.snf_calls"] += 1
        c["linalg.snf_rows_max"] = max(c["linalg.snf_rows_max"], rows)
        c["linalg.snf_cols_max"] = max(c["linalg.snf_cols_max"], cols)
        c["linalg.snf_dense_cells"] += rows * cols
        c["linalg.snf_nnz"] += sum(1 for row in matrix for v in row if v)
        if rec.inside("cobar.rank"):
            c["cobar.aside_cols"] += cols
            c["cobar.snf_invariants"] += len(result[0])

    def commutator(_args, result):
        c["algebra.commutator_calls"] += 1
        c["algebra.tensor_terms"] += len(result.terms)

    def walk_table(_args, _result):
        c["lyndon.walk_tables_built"] += 1

    def necklace(_args, _result):
        c["lyndon.necklace_degrees"] += 1

    hooks = {
        "series.pbw": order,
        "series.log_moebius": order,
        "lyndon.generate": lyndon_words,
        "lyndon.necklace": necklace,
        "cobar.build": cobar_cells,
        "cobar.rank": rank,
        "linalg.snf": snf,
    }
    for where, attr, name in SPAN_SITES:
        owner = _resolve(where)
        setattr(owner, attr, rec.wrap(getattr(owner, attr), name, hooks.get(name)))
    tensor = _resolve("looptop.algebra:TensorElement")
    tensor.commutator = rec.count(tensor.commutator, commutator)
    lyndon = _resolve("looptop.lyndon")
    lyndon._closed_walk_counts = rec.count(lyndon._closed_walk_counts, walk_table)


def _resolve(where):
    module, _, cls = where.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def layer_metrics(spans, counters):
    """Per-layer metrics of one traced pass: self times plus counters."""
    selfs = self_times(spans)
    out = {f"{name}_s": selfs.get(name, 0.0) for name in SPAN_NAMES}
    for name in COUNTER_NAMES:
        out[name] = counters.get(name, 0)
    out["cobar.pivots"] = counters.get("cobar.rank_sum", 0) - counters.get("cobar.snf_invariants", 0)
    cells = counters.get("cobar.cells", 0)
    out["cobar.useful_cell_frac"] = (
        (cells - counters.get("cobar.cells_above_cutoff", 0)) / cells if cells else 0.0
    )
    out["cobar.euler_rank_s"] = _self_time_under(spans, ("cobar.rank", "linalg.snf"), "cobar.euler")
    return out


def _self_time_under(spans, names, ancestor):
    """Self time of spans named in `names` that run inside an `ancestor` span."""
    flagged = []
    for _name, _start, _end, parent, *_rest in spans:
        flagged.append(parent is not None and (flagged[parent] or spans[parent][0] == ancestor))
    return sum(
        own
        for span, own, under in zip(spans, span_self_times(spans), flagged)
        if under and span[0] in names
    )
