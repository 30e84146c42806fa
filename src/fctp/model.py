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

from .errors import FctpError, InstanceError, ParseError


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
    """A bipartite fixed charge transportation instance, valid by construction.

    ``supplies`` has length n >= 1 (sources), ``demands`` length m >= 1
    (sinks), both positive ints (not bools) with equal sums; ``fixed`` and
    ``linear`` are n x m matrices of nonnegative Fractions, with INF allowed
    in ``linear`` only.  Construction, dataclasses.replace included, reads
    the parts once: it raises InstanceError on the first violation, or
    stores the instance's :class:`VariantTag`, which classify_variant
    returns.  The tag is a private attribute, not a field, so repr, ==,
    hash and dataclasses.fields ignore it; copies and pickles keep it.
    """

    supplies: tuple[int, ...]
    demands: tuple[int, ...]
    fixed: tuple[tuple[Fraction, ...], ...]
    linear: tuple[tuple[Cost, ...], ...]

    def __post_init__(self):
        report, tag = _read_instance(self)
        if report is not None:
            raise InstanceError(report)
        object.__setattr__(self, "_tag", tag)

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
    one object per distinct token; a row object given twice becomes one
    tuple, as parse_instance keeps one per distinct line.  Instances are
    immutable, so sharing is safe.  Raises FctpError for any other type,
    bools included, and for a side or a matrix that is not a sequence (of
    rows); Instance then raises InstanceError for the rest of the contract:
    a matrix of the wrong shape, a side that is not positive, a negative
    cost, imbalance.
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
        # A row object given twice becomes one tuple; holding each row keeps
        # its id from being reused while built is alive.
        built, out = {}, []
        try:
            for row in rows:
                if id(row) not in built:
                    built[id(row)] = row, tuple(
                        [x if type(x) is Fraction else shared[x] if type(x) is int
                         else entry(x, allow_inf) for x in row]
                    )
                out.append(built[id(row)][1])
        except TypeError:
            what = "linear" if allow_inf else "fixed"
            raise FctpError(f"{what} costs must be a sequence of rows") from None
        return tuple(out)

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


@dataclass(frozen=True)
class VariantTag:
    """Which restricted variants an instance belongs to, read exactly from
    its cost matrices: ``pure`` (c == 0), ``sink_independent`` (f_ij = f_i),
    ``uniform`` (f == 1).  ``pure_modulo_forbidden`` marks instances whose
    linear costs are all 0 or INF, which pure implies; reductions produce
    these to express missing edges in an otherwise pure instance.
    """

    pure: bool
    sink_independent: bool
    uniform: bool
    pure_modulo_forbidden: bool


def _read_instance(inst) -> tuple[str | None, VariantTag | None]:
    """The one reading of an instance's parts: (first violation, None), or
    (None, its VariantTag).

    Shapes come first, then sizes, each supply, each demand, each fixed
    cost, each linear cost and balance; indices in messages are 1-based to
    match the file format.  Each distinct row object is read once, in the
    order of its first index.  A row that starts and ends with one object, as a parsed
    row of one token does, is constant when it equals a tuple of its last
    entry and holds only allowed types, on which == is exact (1, 1.0 and
    True all equal Fraction(1)); its sign and its tags come from that one
    entry.  Other rows are read entry by entry, without Fraction.__eq__; a
    row that settles a tag ends the scan for that tag.
    """
    supplies, demands = inst.supplies, inst.demands
    n, m = len(supplies), len(demands)
    if len(inst.fixed) != n or len(inst.linear) != n:
        return "cost matrices must have one row per source", None
    if n and {*map(len, inst.fixed), *map(len, inst.linear)} != {m}:
        return "cost matrices must have one column per sink", None
    if n < 1:
        return "n must be >= 1", None
    if m < 1:
        return "m must be >= 1", None
    for name, side in ("a", supplies), ("b", demands):
        if set(map(type, side)) != {int} or min(side) <= 0:
            for k, x in enumerate(side, 1):
                if not _is_int(x) or x <= 0:
                    return f"{name}_{k} not positive", None
    pure = pure_mod = sink_independent = uniform = True
    for name, rows, allowed in (
        ("f", inst.fixed, {Fraction}),
        ("c", inst.linear, {Fraction, _Infinity}),
    ):
        for row in dict(zip(map(id, rows), rows)).values():
            last = row[-1]
            constant = row[0] is last and row == (last,) * m and allowed.issuperset(map(type, row))
            entries = (last,) if constant else row
            for x in entries:
                if not (isinstance(x, Fraction) and x.numerator >= 0 or x is INF and name == "c"):
                    # Every entry before x's first occurrence, and every row before, passed.
                    i = next(i for i, r in enumerate(rows, 1) if r is row)
                    j = next(j for j, y in enumerate(row, 1) if y is x)
                    if isinstance(x, Fraction):
                        return f"{name}_{i},{j} negative", None
                    kind = "a finite rational" if name == "f" else "a rational or inf"
                    return f"{name}_{i},{j} must be {kind}", None
            if name == "f" and sink_independent:
                num, den = last.numerator, last.denominator
                if not constant:
                    for f in row:
                        if f is not last and (f.numerator != num or f.denominator != den):
                            sink_independent = uniform = False
                            break
                uniform = uniform and num == den == 1
            elif name == "c" and pure_mod:
                for c in entries:
                    if c is INF:
                        pure = False
                    elif c.numerator:
                        pure = pure_mod = False
                        break
    if sum(supplies) != sum(demands):
        return "sum(a) != sum(b)", None
    return None, VariantTag(pure, sink_independent, uniform, pure_mod)


def validate_instance(inst) -> str | None:
    """None, or the first violation of the input contract that the one
    reading of inst's parts finds; any object with supplies, demands, fixed
    and linear is read.  On a constructed Instance this returns None."""
    return _read_instance(inst)[0]


def check_instance(inst) -> None:
    """Raise InstanceError with validate_instance's report, if there is one."""
    report = validate_instance(inst)
    if report is not None:
        raise InstanceError(report)


def classify_variant(inst: Instance) -> VariantTag:
    """inst's variant tag, read once when inst was built."""
    return inst._tag


def check_epsilon(eps) -> Fraction:
    """eps as a Fraction; FctpError unless it is an int (not a bool) or a
    Fraction, so a float's binary expansion never becomes an exact eps."""
    if not (_is_int(eps) or isinstance(eps, Fraction)):
        raise FctpError(f"epsilon must be an int or a Fraction, not {type(eps).__name__}")
    return Fraction(eps)


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
    FctpError for an edge out of range, for a flow that is not an int or a
    Fraction, and when the support touches a forbidden (c = inf) edge,
    naming the lowest such edge.
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
    except AttributeError:  # costs are Fractions by construction, so x lacks one
        raise FctpError(f"flows must be ints or Fractions, not {type(x).__name__}") from None
    if forbidden:
        i, j = min(forbidden)
        raise FctpError(f"infeasible edge used: ({i + 1}, {j + 1})")
    return sum((Fraction(num, den) for den, num in sums.items()), Fraction(0))


# ---------------------------------------------------------------------------
# Text formats (see README for the grammar).


def serialize_instance(inst: Instance) -> str:
    """The FCT v1 text; each distinct cost object is formatted once per call,
    keyed by id, which is stable while inst holds the object.  FctpError for
    a side or a cost with more digits than Python converts to a string."""
    lines = ["FCT v1", f"{inst.n} {inst.m}"]
    try:
        lines += [" ".join(map(str, inst.supplies)), " ".join(map(str, inst.demands))]
    except ValueError:  # more digits than Python converts to a string
        raise FctpError("supply or demand too long to print") from None
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
