"""Core data model: instances, flow solutions, variant tags, and text formats.

All cost quantities are exact rationals (``fractions.Fraction``); floating
point never enters a correctness-critical path.  Linear costs may carry the
distinguished marker :data:`INF` for forbidden edges; fixed costs are always
finite.  Instances and solutions are immutable values, so every operation in
this package is a pure function.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import lcm

from .errors import FctpError, ParseError


class _Infinity(Enum):
    """Forbidden-edge marker, permitted only in linear costs: one object, also
    through copy.deepcopy and pickle, that refuses arithmetic and ordering,
    so accidental use in a cost sum or a comparison fails loudly."""

    INF = "inf"

    def __repr__(self):
        return "inf"

    __str__ = __repr__  # print(INF) shows inf, not Enum's _Infinity.INF


INF = _Infinity.INF

# A linear cost: a finite nonnegative Fraction or the INF marker.
Cost = Fraction | _Infinity


def integer_scaled(*matrices):
    """Scale matrices to ints by the lcm of their finite entries' denominators.

    Returns (scale, scaled): each matrix as rows of scale * x, None for INF.
    Raises FctpError for an entry that is not an int, a Fraction or INF; the
    check costs valid input nothing per entry.
    """
    try:
        scale = lcm(
            *{x.denominator for rows in matrices for row in rows for x in row if x is not INF}
        )
        scaled = [
            [[None if x is INF else x.numerator * (scale // x.denominator) for x in row]
             for row in rows]
            for rows in matrices
        ]
    except (AttributeError, TypeError):
        raise FctpError("cost entries must be ints, Fractions or inf") from None
    return scale, scaled


def subset_sums(values) -> list:
    """sums[mask] = the sum of values[k] over the set bits k of mask."""
    sums = [0]
    for v in values:
        sums += [s + v for s in sums]
    return sums


def two_pointer_steps(supplies, demands) -> list:
    """The two-pointer sweep, in the given orders: [(p, q, amount)], each step
    shipping min(rest of supply p, rest of demand q) and moving past every side it empties."""
    rem_a, rem_b = list(supplies), list(demands)
    steps = []
    p = q = 0
    while p < len(rem_a) and q < len(rem_b):
        amount = min(rem_a[p], rem_b[q])
        steps.append((p, q, amount))
        rem_a[p] -= amount
        rem_b[q] -= amount
        if rem_a[p] == 0:
            p += 1
        if rem_b[q] == 0:
            q += 1
    return steps


def format_rational(value) -> str:
    """Render a cost as ``p``, ``p/q``, or ``inf``; inverse of parsing.

    A Fraction, such as each entry of an Instance (shared, immutable
    Fractions), is printed from its own numerator and denominator, with no
    new object built; an int or any other value is converted with Fraction()
    first.
    """
    if value is INF:
        return "inf"
    if not isinstance(value, Fraction):
        value = Fraction(value)
    num, den = value.numerator, value.denominator
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # more digits than Python converts to a string
        raise FctpError("rational too long to print") from None


@dataclass(frozen=True)
class Instance:
    """A bipartite fixed charge transportation instance.

    ``supplies`` has length n (sources), ``demands`` length m (sinks);
    ``fixed`` and ``linear`` are n x m cost matrices.  Construction only
    checks matrix shapes; use :func:`validate_instance` for the full
    invariant report.
    """

    supplies: tuple[int, ...]
    demands: tuple[int, ...]
    fixed: tuple[tuple[Fraction, ...], ...]
    linear: tuple[tuple[Cost, ...], ...]

    def __post_init__(self):
        n, m = len(self.supplies), len(self.demands)
        if len(self.fixed) != n or len(self.linear) != n:
            raise ValueError("cost matrices must have one row per source")
        if any(len(row) != m for row in self.fixed) or any(
            len(row) != m for row in self.linear
        ):
            raise ValueError("cost matrices must have one column per sink")

    @property
    def n(self) -> int:
        return len(self.supplies)

    @property
    def m(self) -> int:
        return len(self.demands)

    def edges(self):
        """All (i, j) pairs with a usable (finite linear cost) edge."""
        for i in range(self.n):
            for j in range(self.m):
                if self.linear[i][j] is not INF:
                    yield (i, j)


def _is_int(x) -> bool:
    """An int that is not a bool, as check_epsilon reads them."""
    return isinstance(x, int) and not isinstance(x, bool)


def _ints(values, what: str) -> tuple[int, ...]:
    try:
        values = tuple(values)
    except TypeError:
        raise FctpError(f"{what} must be a sequence of ints, not {type(values).__name__}") from None
    for x in values:
        if not _is_int(x):
            raise FctpError(f"{what} must be ints, not {type(x).__name__}")
    return tuple(map(int, values))


class _SharedFractions(dict):
    """int -> Fraction(int), each built on first use."""

    def __missing__(self, x):
        value = self[x] = Fraction(x)
        return value


def make_instance(supplies, demands, fixed, linear) -> Instance:
    """Build an Instance from int supplies and demands and int or Fraction
    costs; linear costs may also be INF.

    Each entry equals Fraction(x) and is shared: a Fraction is kept as the
    same object, and equal ints become one Fraction, as parse_instance keeps
    one object per distinct token.  Instances are immutable, so sharing is
    safe.  Raises FctpError for any other type, bools included, and for a
    side or a matrix that is not a sequence (of rows); a negative cost still
    constructs, and validate_instance reports it, as Instance reports a
    matrix of the wrong shape with ValueError.
    """
    shared = _SharedFractions()

    def entry(x, allow_inf):
        # Off the fast path: INF, subclasses of Fraction and int, refusals.
        if isinstance(x, Fraction) or (allow_inf and x is INF):
            return x
        if _is_int(x):
            return shared[int(x)]
        want = "ints, Fractions or inf" if allow_inf else "ints or Fractions"
        got = "inf" if x is INF else type(x).__name__
        raise FctpError(f"{'linear' if allow_inf else 'fixed'} costs must be {want}, not {got}")

    def matrix(rows, allow_inf):
        try:
            return tuple(
                tuple([x if type(x) is Fraction else shared[x] if type(x) is int
                       else entry(x, allow_inf) for x in row])
                for row in rows
            )
        except TypeError:
            what = "linear" if allow_inf else "fixed"
            raise FctpError(f"{what} costs must be a sequence of rows") from None

    return Instance(
        supplies=_ints(supplies, "supplies"),
        demands=_ints(demands, "demands"),
        fixed=matrix(fixed, False),
        linear=matrix(linear, True),
    )


def pure_instance(supplies, demands, fixed) -> Instance:
    """Instance with all linear costs zero (the PFCT family)."""
    supplies, demands = tuple(supplies), tuple(demands)
    return make_instance(supplies, demands, fixed, [[0] * len(demands)] * len(supplies))


def uniform_pure_instance(supplies, demands) -> Instance:
    """PFCT-U instance scaffold: f == 1, c == 0."""
    supplies, demands = tuple(supplies), tuple(demands)
    return pure_instance(supplies, demands, [[1] * len(demands)] * len(supplies))


def signed_weights(inst: Instance) -> list[int]:
    """Vertex weights in the one vertex numbering: source i is vertex i with
    weight a_i, sink j is vertex n + j with weight -b_j."""
    return list(inst.supplies) + [-b for b in inst.demands]


def _sides_report(inst: Instance) -> str | None:
    """The first violation among n, m >= 1 and positive int supplies and demands."""
    if inst.n < 1:
        return "n must be >= 1"
    if inst.m < 1:
        return "m must be >= 1"
    for i, a in enumerate(inst.supplies):
        if not isinstance(a, int) or a <= 0:
            return f"a_{i + 1} not positive"
    for j, b in enumerate(inst.demands):
        if not isinstance(b, int) or b <= 0:
            return f"b_{j + 1} not positive"
    return None


def validate_instance(inst: Instance) -> str | None:
    """Return None if all instance invariants hold, else the first violation.

    Indices in messages are 1-based to match the file format.
    """
    report = _sides_report(inst)
    if report is not None:
        return report
    for i, row in enumerate(inst.fixed):
        for j, f in enumerate(row):
            if f is INF or not isinstance(f, Fraction):
                return f"f_{i + 1},{j + 1} must be a finite rational"
            if f.numerator < 0:
                return f"f_{i + 1},{j + 1} negative"
    for i, row in enumerate(inst.linear):
        for j, c in enumerate(row):
            if c is INF:
                continue
            if not isinstance(c, Fraction):
                return f"c_{i + 1},{j + 1} must be a rational or inf"
            if c.numerator < 0:
                return f"c_{i + 1},{j + 1} negative"
    return balance_report(inst)


def balance_report(inst: Instance) -> str | None:
    """The O(n + m) part of validate_instance, with its messages: sizes,
    positive int supplies and demands, balance.  It is the whole report for
    a parsed instance, since parse_instance refuses every cost that the
    matrix checks would."""
    report = _sides_report(inst)
    if report is None and sum(inst.supplies) != sum(inst.demands):
        report = "sum(a) != sum(b)"
    return report


def check_instance(inst: Instance) -> None:
    """Raise FctpError when validate_instance reports a violation."""
    report = validate_instance(inst)
    if report is not None:
        raise FctpError(f"invalid instance: {report}")


def check_epsilon(eps) -> Fraction:
    """eps as a Fraction; FctpError unless it is an int (not a bool) or a
    Fraction, so a float's binary expansion never becomes an exact eps."""
    if not (_is_int(eps) or isinstance(eps, Fraction)):
        raise FctpError(f"epsilon must be an int or a Fraction, not {type(eps).__name__}")
    return Fraction(eps)


def check_balanced(inst: Instance) -> None:
    """Raise FctpError when balance_report reports a violation; for solvers
    too hot for the full check."""
    report = balance_report(inst)
    if report is not None:
        raise FctpError(f"invalid instance: {report}")


@dataclass(frozen=True)
class VariantTag:
    """Which restricted variants an instance belongs to.

    ``pure_modulo_forbidden`` marks instances whose linear costs are all 0 or
    INF; reductions produce these to express missing edges in an otherwise
    pure instance.
    """

    pure: bool
    sink_independent: bool
    uniform: bool
    pure_modulo_forbidden: bool


def classify_variant(inst: Instance) -> VariantTag:
    """Compute variant tags exactly from the cost matrices, in one pass.

    A row whose last entry is its first object, as in a parsed row, where
    one object stands for each distinct token, is tested as a whole with
    row.count(row[0]) == len(row): exact, since count compares with ==, and
    at C speed, since it compares by identity first.  make_instance maps
    equal ints to one object, so a constant row it built from ints takes
    this path too.  Other rows are read entry by entry: comparing numerators
    and denominators costs less than the Fraction.__eq__ that count would
    call on each entry.  A row that settles a tag ends the scan for that tag.
    An entry without a numerator, such as INF in f or a float, raises
    validate_instance's FctpError.
    """
    pure = pure_mod = sink_independent = uniform = True
    try:
        for frow, crow in zip(inst.fixed, inst.linear):
            if sink_independent and frow:
                first = frow[0]
                num, den = first.numerator, first.denominator
                if frow[-1] is first:
                    sink_independent = frow.count(first) == len(frow)
                else:
                    for f in frow:
                        if f is not first and (f.numerator != num or f.denominator != den):
                            sink_independent = False
                            break
                uniform = uniform and sink_independent and num == 1 and den == 1
            if pure_mod:
                if crow and crow[-1] is crow[0] and crow.count(crow[0]) == len(crow):
                    crow = crow[:1]
                for c in crow:
                    if c is INF:
                        pure = False
                    elif c.numerator:
                        pure = pure_mod = False
                        break
    except AttributeError:
        check_instance(inst)
        raise
    return VariantTag(
        pure=pure,
        sink_independent=sink_independent,
        uniform=uniform,
        pure_modulo_forbidden=pure_mod,
    )


@dataclass(frozen=True)
class FlowSolution:
    """Sparse nonnegative flow: (source, sink) -> positive Fraction.

    ``relaxation`` is the bicriteria tag: when set to eps, column sums may lie
    anywhere in [(1-eps) b_j, (1+eps) b_j] instead of hitting b_j exactly.
    """

    entries: dict[tuple[int, int], Fraction] = field(default_factory=dict)
    relaxation: Fraction | None = None

    def row_sums(self, n: int) -> list[Fraction]:
        sums = [Fraction(0)] * n
        for (i, _), x in self.entries.items():
            sums[i] += x
        return sums

    def col_sums(self, m: int) -> list[Fraction]:
        sums = [Fraction(0)] * m
        for (_, j), x in self.entries.items():
            sums[j] += x
        return sums


def make_flow(entries, relaxation=None) -> FlowSolution:
    """Build a FlowSolution from pairs of nonnegative int indices and int or
    Fraction flows, dropping explicit zeros; FctpError for any other key or
    type, bools included.  The relaxation tag goes through check_epsilon, so
    a float is refused."""
    flows = {}
    try:
        items = dict(entries).items()
    except (TypeError, ValueError):
        raise FctpError("flow entries must map (source, sink) pairs to flows") from None
    for edge, x in items:
        try:
            i, j = edge
        except (TypeError, ValueError):
            raise FctpError(f"flow keys must be (source, sink) pairs, not {edge!r}") from None
        if not (_is_int(i) and _is_int(j)):
            raise FctpError(f"flow indices must be ints, not ({i!r}, {j!r})")
        if i < 0 or j < 0:
            raise FctpError(f"edge ({i + 1}, {j + 1}) out of range")
        if not isinstance(x, Fraction):
            if not _is_int(x):
                raise FctpError(f"flows must be ints or Fractions, not {type(x).__name__}")
            x = Fraction(x)
        if x < 0:
            raise FctpError(f"negative flow on edge ({i + 1}, {j + 1})")
        if x > 0:
            flows[(int(i), int(j))] = x
    tag = None if relaxation is None else check_epsilon(relaxation)
    return FlowSolution(entries=flows, relaxation=tag)


def validate_solution(inst: Instance, sol: FlowSolution) -> str | None:
    """Exact marginal check; returns None or the first violation.

    Relaxation-tagged solutions keep exact row sums but only need column sums
    inside the (1 +/- eps) band, for a tag eps in (0, 1).
    """
    if sol.relaxation is not None and not 0 < sol.relaxation < 1:
        return f"relaxation tag {sol.relaxation} outside (0, 1)"
    for (i, j), x in sol.entries.items():
        if not (0 <= i < inst.n and 0 <= j < inst.m):
            return f"edge ({i + 1}, {j + 1}) out of range"
        if inst.linear[i][j] is INF:
            return f"flow on forbidden edge ({i + 1}, {j + 1})"
        if x <= 0:
            return f"flow on edge ({i + 1}, {j + 1}) not positive"
    rows = sol.row_sums(inst.n)
    for i in range(inst.n):
        if rows[i] != inst.supplies[i]:
            return f"row sum of source {i + 1} is {rows[i]}, expected {inst.supplies[i]}"
    cols = sol.col_sums(inst.m)
    for j in range(inst.m):
        b = inst.demands[j]
        if sol.relaxation is None:
            if cols[j] != b:
                return f"column sum of sink {j + 1} is {cols[j]}, expected {b}"
        else:
            eps = sol.relaxation
            if not ((1 - eps) * b <= cols[j] <= (1 + eps) * b):
                return (
                    f"column sum of sink {j + 1} is {cols[j]}, "
                    f"outside [(1-{eps})*{b}, (1+{eps})*{b}]"
                )
    return None


def evaluate_cost(inst: Instance, sol: FlowSolution) -> Fraction:
    """Total cost sum(f_ij + c_ij * x_ij) over the support, exact.

    Sums int numerators per denominator, f as (f.num, f.den) and c * x as
    (c.num * x.num, c.den * x.den), and builds one Fraction per distinct
    denominator at the end; the support is read in its own order.  Raises
    FctpError for an edge out of range, for a flow or cost that is not an
    int or a Fraction, and when the support touches a forbidden (c = inf)
    edge, naming the lowest such edge.
    """
    n, m = inst.n, inst.m
    fixed, linear = inst.fixed, inst.linear
    entries = sol.entries.items()
    sums: dict[int, int] = {}
    forbidden = []
    try:
        for (i, j), x in entries:
            if not (0 <= i < n and 0 <= j < m):
                raise FctpError(f"edge ({i + 1}, {j + 1}) out of range")
            c = linear[i][j]
            if c is INF:
                forbidden.append((i, j))
                continue
            f = fixed[i][j]
            den = f.denominator
            sums[den] = sums.get(den, 0) + f.numerator
            den = c.denominator * x.denominator
            sums[den] = sums.get(den, 0) + c.numerator * x.numerator
    except AttributeError:
        if not isinstance(x, (int, Fraction)):
            raise FctpError(f"flows must be ints or Fractions, not {type(x).__name__}") from None
        raise FctpError("cost entries must be ints, Fractions or inf") from None
    if forbidden:
        i, j = min(forbidden)
        raise FctpError(f"infeasible edge used: ({i + 1}, {j + 1})")
    return sum((Fraction(num, den) for den, num in sums.items()), Fraction(0))


# ---------------------------------------------------------------------------
# Text formats (see README for the grammar).


def serialize_instance(inst: Instance) -> str:
    """The FCT v1 text; each distinct cost object is formatted once per call,
    keyed by id, which is stable while inst holds the object."""
    lines = ["FCT v1", f"{inst.n} {inst.m}"]
    lines.append(" ".join(str(a) for a in inst.supplies))
    lines.append(" ".join(str(b) for b in inst.demands))
    texts = {}
    for row in inst.fixed + inst.linear:
        out = []
        for x in row:
            text = texts.get(id(x))
            if text is None:
                text = texts[id(x)] = format_rational(x)
            out.append(text)
        lines.append(" ".join(out))
    return "\n".join(lines) + "\n"


class LineReader:
    """The lines of a text format: header checked, trailing blank lines dropped."""

    def __init__(self, text: str, header: str):
        self.lines = text.splitlines()
        while self.lines and not self.lines[-1].strip():
            self.lines.pop()
        if not self.lines or self.lines[0].strip() != header:
            raise ParseError(1, f"expected header {header!r}")

    def line(self, lineno: int, what: str) -> str:
        """Line `lineno` (1-based) as written."""
        if lineno > len(self.lines):
            raise ParseError(lineno, f"missing {what} line")
        return self.lines[lineno - 1]

    def fields(self, lineno: int, what: str, expected: int | None = None) -> list[str]:
        """Line `lineno` (1-based) split on whitespace; exactly `expected` fields if given."""
        parts = self.line(lineno, what).split()
        if expected is not None and len(parts) != expected:
            raise ParseError(lineno, f"expected {expected} {what} fields, got {len(parts)}")
        return parts


# Digits allowed in an integer token, and in p and in q of a cost token p or p/q.
MAX_COST_DIGITS = 100
_INT_TOKEN = re.compile(rf"[0-9]{{1,{MAX_COST_DIGITS}}}")


def parse_int_token(token: str, lineno: int, what: str) -> int:
    """An integer token of every line-oriented format: 1 to MAX_COST_DIGITS digits 0-9."""
    if _INT_TOKEN.fullmatch(token) is None:
        raise ParseError(
            lineno,
            f"{what} must be an integer of 1 to {MAX_COST_DIGITS} digits 0-9, got {token!r}",
        )
    return int(token)


# The grammar of a cost token; a leading minus is matched only so that a
# negative cost gets its own message.
_COST_TOKEN = re.compile(rf"-?[0-9]{{1,{MAX_COST_DIGITS}}}(/[0-9]{{1,{MAX_COST_DIGITS}}})?")


def _parse_cost(token: str, lineno: int, allow_inf: bool) -> Cost:
    if token == "inf":
        if not allow_inf:
            raise ParseError(lineno, "Infinity not allowed in f")
        return INF
    if _COST_TOKEN.fullmatch(token) is None:
        raise ParseError(
            lineno,
            f"malformed rational {token!r}: expected p or p/q, "
            f"at most {MAX_COST_DIGITS} digits each",
        )
    try:
        value = Fraction(token)
    except ZeroDivisionError:
        raise ParseError(lineno, f"zero denominator in {token!r}") from None
    if value < 0:
        raise ParseError(lineno, f"negative cost {token!r}")
    return value


def parse_instance(text: str) -> Instance:
    """Parse the FCT v1 format; raises ParseError with a 1-based line number."""
    reader = LineReader(text, "FCT v1")
    n_m = reader.fields(2, "dimension", 2)
    n = parse_int_token(n_m[0], 2, "n")
    m = parse_int_token(n_m[1], 2, "m")
    if n < 1 or m < 1:
        raise ParseError(2, "n and m must be >= 1")
    supplies = tuple(
        parse_int_token(tok, 3, "supply") for tok in reader.fields(3, "supply", n)
    )
    demands = tuple(
        parse_int_token(tok, 4, "demand") for tok in reader.fields(4, "demand", m)
    )
    fixed = _parse_cost_matrix(reader, 5, n, m, "fixed cost", allow_inf=False)
    linear = _parse_cost_matrix(reader, 5 + n, n, m, "linear cost", allow_inf=True)
    if len(reader.lines) > 4 + 2 * n:
        raise ParseError(5 + 2 * n, "trailing content after cost matrices")
    return Instance(supplies=supplies, demands=demands, fixed=fixed, linear=linear)


def _parse_cost_matrix(reader, first: int, n: int, m: int, what: str, allow_inf: bool):
    """Rows first .. first + n - 1 as costs, each distinct line parsed once.

    A line whose text appeared earlier in the matrix reuses the row tuple
    built for it, so equal lines share one object.  A new line is split
    once, and of its distinct tokens only those new to the matrix are
    parsed, so each distinct token becomes one object.  A line that fails
    ends the parse before it is recorded, so every error names its own line.
    """
    values: dict[str, Cost] = {}
    parsed: dict[str, tuple[Cost, ...]] = {}
    rows = []
    for lineno in range(first, first + n):
        text = reader.line(lineno, what)
        row = parsed.get(text)
        if row is None:
            tokens = reader.fields(lineno, what, m)
            if tokens[0] in values:  # false on every pfct-s fixed-cost line
                try:
                    row = tuple(map(values.__getitem__, tokens))
                except KeyError:
                    pass
            if row is None:
                for tok in dict.fromkeys(tokens):
                    if tok not in values:
                        values[tok] = _parse_cost(tok, lineno, allow_inf)
                row = tuple(map(values.__getitem__, tokens))
            parsed[text] = row
        rows.append(row)
    return tuple(rows)


def serialize_solution(sol: FlowSolution) -> str:
    lines = ["SOL v1"]
    if sol.relaxation is not None:
        lines.append(f"relaxed {format_rational(sol.relaxation)}")
    for (i, j) in sorted(sol.entries):
        lines.append(f"{i + 1} {j + 1} {format_rational(sol.entries[(i, j)])}")
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> FlowSolution:
    """Parse the SOL v1 format; raises ParseError with a 1-based line number."""
    lines = LineReader(text, "SOL v1").lines
    relaxation = None
    start = 1
    if len(lines) > 1 and lines[1].startswith("relaxed"):
        parts = lines[1].split()
        if len(parts) != 2:
            raise ParseError(2, "expected 'relaxed p/q'")
        relaxation = _parse_cost(parts[1], 2, allow_inf=False)
        if not 0 < relaxation < 1:
            raise ParseError(2, "relaxation tag must lie in (0, 1)")
        start = 2
    entries: dict[tuple[int, int], Fraction] = {}
    for offset, line in enumerate(lines[start:]):
        lineno = start + offset + 1
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(lineno, f"expected 'i j flow', got {line!r}")
        i = parse_int_token(parts[0], lineno, "source index")
        j = parse_int_token(parts[1], lineno, "sink index")
        if i < 1 or j < 1:
            raise ParseError(lineno, "indices are 1-based")
        x = _parse_cost(parts[2], lineno, allow_inf=False)
        if x <= 0:
            raise ParseError(lineno, "flow must be positive")
        if (i - 1, j - 1) in entries:
            raise ParseError(lineno, f"duplicate edge ({i}, {j})")
        entries[(i - 1, j - 1)] = x
    return FlowSolution(entries=entries, relaxation=relaxation)
