"""Named structural checks behind the command-line verify table.

Each check runs against one field order and reports PASS / FAIL /
EXPECTED-FAIL / SKIP together with the classical result it exercises.
EXPECTED-FAIL marks outcomes the theory predicts to fail (grids at odd
q); SKIP marks checks whose hypotheses or size policy exclude the
requested q.  Only FAIL is a problem.

Every check is computed by a pure function of the geometry (counts,
index sets, dimensions, reports), and a thin ``_check_<group>``
formatter turns those values into table rows.  The acceptance suite
calls the same pure functions, so each check has one implementation.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from lu3q.fields import GF, factor_prime_power, field_for_order
from lu3q.formulas import predict
from lu3q.geometry import NoGridFoundError, Quadrangle, enumerate_quadrangle, torus_and_swap
from lu3q.gf2 import BitMatrix, rank2
from lu3q.incidence import (
    EquivalenceMismatchError,
    EquivalenceReport,
    IncidenceMatrix,
    LineSetSelection,
    SpanMismatchError,
    SpanningReport,
    build_incidence,
    check_kim_equivalence,
    select_Z,
    verify_spanning,
)
from lu3q.ldpc import GirthReport, girth_check
from lu3q.polyfn import (
    NormalFormViolationError,
    NotInKernelError,
    code_coefficients,
    compose_exponents,
    delta_line,
    digitize_exponents,
    evaluate,
    kernel_normal_form,
    reduce_against_beta,
    vec_to_poly,
)

CHECK_GROUPS = (
    "counts",
    "gq",
    "grid",
    "spans",
    "kernel",
    "poly",
    "iso",
    "girth",
    "rank",
    "formulas",
)


@dataclass
class CheckOutcome:
    group: str
    name: str
    anchor: str
    status: str  # PASS, FAIL, EXPECTED-FAIL, SKIP
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "FAIL"


def _status(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


class _Context:
    """Lazily built shared objects for one verification run.

    ``selection``, ``spanning`` and ``equivalence`` hold a value or the
    exception their call raised, so a failed identity gives FAIL rows."""

    def __init__(self, q: int, irr=None, seed: int = 0):
        self.q = q
        self.seed = seed
        self.irr = irr
        self._mats: dict[str, IncidenceMatrix] = {}

    @cached_property
    def field(self) -> GF:
        return field_for_order(self.q, self.irr)

    @cached_property
    def quad(self) -> Quadrangle:
        return enumerate_quadrangle(self.field)

    def matrix(self, system: str) -> IncidenceMatrix:
        if system not in self._mats:
            self._mats[system] = build_incidence(self.quad, system)
        return self._mats[system]

    @cached_property
    def selection(self) -> LineSetSelection | SpanMismatchError:
        return _attempt(select_Z, self.matrix("p1l1"), self.quad)

    @cached_property
    def spanning(self) -> SpanningReport | SpanMismatchError | None:
        """None at odd q, where the identities are not claimed."""
        if self.field.p != 2:
            return None
        sel = self.selection
        if isinstance(sel, Exception):
            return sel
        # verify_spanning spends the selection's elimination: keep Z only
        self.selection = replace(sel, head=None)
        return _attempt(verify_spanning, self.quad, sel)

    @cached_property
    def equivalence(self) -> EquivalenceReport | EquivalenceMismatchError:
        return _attempt(
            check_kim_equivalence, self.quad, self.matrix("kim"), self.matrix("p1l1")
        )

    def rank(self, system: str) -> int:
        """GF(2) rank read off work the run already does: rank(p1l1) =
        |Z|, rank(kim) = rank(p1l1) by the verified map, rank(pl) =
        dim C(P,L) at even q.  Otherwise the matrix is eliminated."""
        if system == "kim" and isinstance(self.equivalence, EquivalenceReport):
            return self.rank("p1l1")
        if system == "p1l1" and isinstance(self.selection, LineSetSelection):
            return len(self.selection.Z)
        if system == "pl" and isinstance(self.spanning, SpanningReport):
            return self.spanning.dim_pl
        return rank2(self.matrix(system).bits)


def _attempt(fn, *args):
    try:
        return fn(*args)
    except (SpanMismatchError, EquivalenceMismatchError) as exc:
        return exc


def run_checks(q: int, groups, irr=None, seed: int = 0) -> list[CheckOutcome]:
    factor_prime_power(q)  # raises on invalid q
    ctx = _Context(q, irr=irr, seed=seed)
    out: list[CheckOutcome] = []
    runners = {
        "counts": _check_counts,
        "gq": _check_gq,
        "grid": _check_grid,
        "spans": _check_spans,
        "kernel": _check_kernel,
        "poly": _check_poly,
        "iso": _check_iso,
        "girth": _check_girth,
        "rank": _check_rank,
        "formulas": _check_formulas,
    }
    for g in CHECK_GROUPS:
        if g in groups:
            out.extend(runners[g](ctx))
    return out


# -- pure checks ----------------------------------------------------------


class QuadrangleCounts(NamedTuple):
    n_points: int
    n_lines: int
    totals_ok: bool  # both equal q^3+q^2+q+1
    regular: bool  # q+1 points per line and q+1 lines per point
    restricted: tuple[int, int, int, int]  # |P1|, |L1|, |X0|, |Y|
    restricted_ok: bool

    @property
    def ok(self) -> bool:
        return self.totals_ok and self.regular and self.restricted_ok


def quadrangle_counts(Q: Quadrangle) -> QuadrangleCounts:
    q = Q.q
    expected = q**3 + q**2 + q + 1
    rs = Q.restricted_sets
    sizes = (len(rs.P1), len(rs.L1), len(rs.X0), len(rs.Y))
    return QuadrangleCounts(
        Q.n_points,
        Q.n_lines,
        Q.n_points == expected and Q.n_lines == expected,
        bool((np.diff(Q.line_pts, axis=1) > 0).all())  # q+1 distinct points a line
        and bool((np.bincount(Q.line_pts.ravel(), minlength=Q.n_points) == q + 1).all()),
        sizes,
        sizes == (q**3, q**3, q, q),
    )


class GqAxioms(NamedTuple):
    scope: str  # "exhaustive" or "sampled" line pairs
    pairs: int
    violations: int  # line pairs sharing two points
    perp_ok: bool
    connector_ok: bool

    @property
    def ok(self) -> bool:
        return self.violations == 0 and self.perp_ok and self.connector_ok


def gq_axioms(Q: Quadrangle, seed: int = 0) -> GqAxioms:
    """The quadrangle axiom, the perp description and unique connectors.

    Line pairs and perps are checked exhaustively for q <= 5 and
    connectors for q <= 4; larger q samples them with the seed.  Each
    check is one array pass over the sampled or exhaustive inputs.
    """
    q = Q.q
    if q <= 5:
        scope = "exhaustive"
        line_pairs = np.transpose(np.triu_indices(Q.n_lines, 1))
        probe = np.arange(Q.n_points)
    else:
        scope = "sampled"
        rng, lines = random.Random(seed), range(Q.n_lines)
        line_pairs = np.array([rng.sample(lines, 2) for _ in range(2000)])
        probe = np.array(random.Random(seed).sample(range(Q.n_points), 25))
    # the points two lines share: each point of one against each of the other
    a, b = Q.line_pts[line_pairs[:, 0]], Q.line_pts[line_pairs[:, 1]]
    shared = (a[:, :, None] == b[:, None, :]).sum(axis=(1, 2))
    pairs, violations = len(line_pairs), int((shared > 1).sum())
    # each probe's perp, against the points of the lines through it
    perp = Q.perps(probe)
    collinear = np.zeros_like(perp)
    on_lines = Q.line_pts[Q.point_lines[probe]].reshape(len(probe), -1)
    collinear[np.arange(len(probe))[:, None], on_lines] = True
    perp_ok = bool((perp.sum(axis=1) == q**2 + q + 1).all() and (perp == collinear).all())
    if q <= 4:
        on = np.zeros((Q.n_lines, Q.n_points), dtype=bool)
        on[np.arange(Q.n_lines)[:, None], Q.line_pts] = True
        l, p = np.nonzero(~on)
    else:
        # the first 300 (point, line) draws with the point off the line;
        # each pass draws as many as are missing, so the draws are those
        # of a loop that draws one pair at a time
        rng = random.Random(seed + 1)
        p, l = np.empty(0, dtype=int), np.empty(0, dtype=int)
        while len(p) < 300:
            draws = np.array([
                (rng.randrange(Q.n_points), rng.randrange(Q.n_lines)) for _ in range(300 - len(p))
            ])
            off = ~(Q.line_pts[draws[:, 1]] == draws[:, :1]).any(axis=1)
            p, l = np.append(p, draws[off, 0]), np.append(l, draws[off, 1])
    connector_ok = bool((Q.connectors(p, l).sum(axis=-1) == 1).all())
    return GqAxioms(scope, pairs, violations, perp_ok, connector_ok)


def concurrent_pairs(Q: Quadrangle) -> list[tuple[int, int, int]]:
    """(l, l', p) for every two lines other than ell0 through a point p of ell0."""
    pairs = []
    for p in sorted(Q.line_points(Q.ell0)):
        through = [l for l in Q.point_lines[p].tolist() if l != Q.ell0]
        pairs.extend((l, lp, p) for l, lp in itertools.combinations(through, 2))
    return pairs


class GridSums(NamedTuple):
    pairs: int
    no_grid: int  # pairs whose grid search failed

    @property
    def ok(self) -> bool:
        return self.no_grid == 0


def grid_sums(Q: Quadrangle, seed: int = 0) -> GridSums:
    """Grid decompositions of at most 20 seeded concurrent pairs.  A
    grid is found only when its 2q lines sum to chi_l + chi_l'."""
    pairs = concurrent_pairs(Q)
    rng = random.Random(20_000 + seed + Q.q)
    sample = pairs if len(pairs) <= 20 else rng.sample(pairs, 20)
    no_grid = 0
    for pair in sample:
        try:
            Q.grid_decompose(*pair)
        except NoGridFoundError:
            no_grid += 1
    return GridSums(len(sample), no_grid)


def digit_roundtrip_failures(F: GF) -> int:
    """Monomials of F_q^4 that do not survive digitize then compose, all
    q^4 of them in one array pass.  uint8 exponents keep the q=8 arrays
    near 50 KB; as int64 they raised a verify --q 8 process's peak RSS."""
    exps = np.indices((F.q,) * 4, dtype=np.uint8).reshape(4, -1).T
    return int((compose_exponents(digitize_exponents(exps, F)) != exps).any(axis=1).sum())


def line_profile_failures(Q: Quadrangle) -> int:
    """Lines whose indicator polynomial misevaluates at some point."""
    F = Q.F
    points = Q.points.tolist()
    bad = 0
    for l in range(Q.n_lines):
        d = delta_line(l, Q)
        pts = Q.line_points(l)
        if any(
            evaluate(d, v, F) != (1 if i in pts else 0) for i, v in enumerate(points)
        ):
            bad += 1
    return bad


def line_span_residuals(Q: Quadrangle) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient vectors of every line indicator, one row per line, and
    their digit-span syndromes: line l escapes the span iff syndrome row
    l is nonzero."""
    vecs = code_coefficients(Q, Q.chi_lines(range(Q.n_lines)))
    return vecs, reduce_against_beta(vecs, Q.F)


def line_orbit_escapes(Q: Quadrangle) -> int:
    """The number of lines whose indicator escapes the digit span, from one
    line per orbit of ``torus_and_swap``.  Each map is a similitude of the
    form, so it permutes the lines; substituting it scales or permutes the
    ten digit choices, so it maps the digit span onto itself, and a line
    escapes iff every line of its orbit does."""
    reps, sizes = Q.line_orbits(torus_and_swap(Q.F))
    escaped = reduce_against_beta(code_coefficients(Q, Q.chi_lines(reps)), Q.F).any(axis=1)
    return int(sizes[escaped].sum())


class KernelForms(NamedTuple):
    size: int  # vectors in the kernel basis
    nf_violations: int  # basis vectors without the x3-free normal form
    outside_span: int  # basis vectors whose interpolation escapes the digit span


def kernel_forms(Q: Quadrangle, kernel: BitMatrix) -> KernelForms:
    """Normal form and digit-span membership on a basis of the
    restriction kernel inside C(P,L), ``SpanningReport.kernel``."""
    P1 = Q.restricted_sets.P1
    vecs = code_coefficients(Q, kernel)
    violations = 0
    for c, v in zip(kernel.to_numpy(), vecs):
        try:
            kernel_normal_form(c, vec_to_poly(v, Q.q), Q, P1)
        except (NormalFormViolationError, NotInKernelError):
            violations += 1
    outside = int(reduce_against_beta(vecs, Q.F).any(axis=1).sum())
    return KernelForms(kernel.n_rows, violations, outside)


def girth_reports(
    matrix: Callable[[str], IncidenceMatrix]
) -> list[tuple[str, GirthReport]]:
    """Four-cycle search on each constructed matrix, given by system name."""
    return [(s, girth_check(matrix(s).cols, matrix(s).n_cols)) for s in ("kim", "pl", "p1l1")]


# -- table rows -------------------------------------------------------------


def _check_counts(ctx: _Context) -> list[CheckOutcome]:
    q = ctx.q
    c = quadrangle_counts(ctx.quad)
    return [
        CheckOutcome(
            "counts", "point/line totals", "the (P,L) enumeration", _status(c.totals_ok),
            f"{c.n_points} points, {c.n_lines} lines, expected {q**3 + q**2 + q + 1}",
        ),
        CheckOutcome(
            "counts", "degree regularity", "q+1 points per line", _status(c.regular),
            f"all degrees q+1 = {q + 1}" if c.regular else "degree defect",
        ),
        CheckOutcome(
            "counts", "restricted set sizes", "P1, L1, X0, Y", _status(c.restricted_ok),
            "|P1|={}, |L1|={}, |X0|={}, |Y|={}".format(*c.restricted),
        ),
    ]


def _check_gq(ctx: _Context) -> list[CheckOutcome]:
    q = ctx.q
    g = gq_axioms(ctx.quad, ctx.seed)
    return [
        CheckOutcome(
            "gq", "no two lines share two points", "the quadrangle axiom",
            _status(g.violations == 0),
            f"{g.scope}, {g.pairs} pairs, {g.violations} violations",
        ),
        CheckOutcome(
            "gq", "perp = union of lines through the point", "the perp description",
            _status(g.perp_ok), f"size q^2+q+1 = {q**2 + q + 1}",
        ),
        CheckOutcome(
            "gq", "unique connector through an off-line point", "the GQ connector property",
            _status(g.connector_ok), "exhaustive" if q <= 4 else "300 sampled pairs",
        ),
    ]


def _check_grid(ctx: _Context) -> list[CheckOutcome]:
    g = grid_sums(ctx.quad, ctx.seed)
    if ctx.field.p == 2:
        return [
            CheckOutcome(
                "grid", "grid sum of 2q lines equals the two-line sum", "the grid decomposition",
                _status(g.ok),
                f"{g.pairs} pairs, {g.no_grid} without grid",
            )
        ]
    return [
        CheckOutcome(
            "grid", "grid search under the even-order hypothesis", "the grid decomposition",
            "EXPECTED-FAIL" if g.no_grid > 0 else "PASS",
            f"odd q: {g.no_grid} of {g.pairs} pairs have no grid (failure expected)",
        )
    ]


def _check_spans(ctx: _Context) -> list[CheckOutcome]:
    sel = ctx.selection
    failed = isinstance(sel, Exception)
    rows = [
        CheckOutcome(
            "spans", "X0 u Y u Z is linearly independent", "the independence of the selection",
            _status(not failed),
            str(sel) if failed else f"rank {2 * ctx.q + len(sel.Z)} = 2q + |Z|",
        )
    ]
    if failed:
        return rows
    rep = ctx.spanning
    if rep is None:
        rows.append(
            CheckOutcome(
                "spans", "span identities for the full code", "the spanning argument",
                "SKIP", "stated under the even-order hypothesis",
            )
        )
    else:
        failed = isinstance(rep, Exception)
        rows.append(
            CheckOutcome(
                "spans", "X0 u Y u L1 spans every line and the all-ones vector",
                "the spanning argument", _status(not failed and rep.ok),
                str(rep) if failed else f"dim C(P,L) = {rep.dim_pl} = {rep.dim_p1l1} + 2q",
            )
        )
    return rows


def _check_kernel(ctx: _Context) -> list[CheckOutcome]:
    q = ctx.q
    if ctx.field.p != 2 or q > 8:
        return [
            CheckOutcome(
                "kernel", "restriction-kernel dimensions", "the kernel dimension counts",
                "SKIP",
                "stated under the even-order hypothesis" if ctx.field.p != 2
                else "size policy caps this check at q <= 8",
            )
        ]
    rep = ctx.spanning
    if isinstance(rep, Exception):
        ok, detail = False, str(rep)
    else:
        d1, d2 = rep.dim_ker_pl, rep.dim_ker_pl1
        ok = d1 == q + 1 and d2 == q - 1
        detail = f"dim(ker in C(P,L)) = {d1}, dim(ker in C(P,L1)) = {d2}"
    return [
        CheckOutcome(
            "kernel", "kernel meets the codes in dimensions q+1 and q-1",
            "the kernel dimension counts", _status(ok), detail,
        )
    ]


def _check_poly(ctx: _Context) -> list[CheckOutcome]:
    q = ctx.q
    if ctx.field.p != 2 or q > 8:
        return [
            CheckOutcome(
                "poly", "digit calculus", "the polynomial representation", "SKIP",
                "even characteristic only" if ctx.field.p != 2
                else "size policy caps this check at q <= 8",
            )
        ]
    Q = ctx.quad
    bad = digit_roundtrip_failures(ctx.field)
    rows = [
        CheckOutcome(
            "poly", "digit decomposition round-trip", "the 2-adic digit expansion",
            _status(bad == 0), f"all {q**4} monomials" if bad == 0 else f"{bad} failures",
        )
    ]
    if q <= 4:
        rows.append(
            CheckOutcome(
                "poly", "line indicator polynomials evaluate correctly",
                "the line indicator formula", _status(line_profile_failures(Q) == 0),
                f"{Q.n_lines} lines checked exhaustively",
            )
        )
    escapes = line_orbit_escapes(Q)
    rows.append(
        CheckOutcome(
            "poly", "every line class lies in the digit-tuple span",
            "the digit-span containment", _status(escapes == 0),
            f"{escapes} of {Q.n_lines} line classes escape the span"
            + ("" if escapes == 0 else
               " (the stated containment fails beyond q=2; see README)"),
        )
    )
    rep = ctx.spanning
    if isinstance(rep, Exception):
        nf_ok = span_ok = False
        detail = str(rep)
    else:
        k = kernel_forms(Q, rep.kernel)
        nf_ok, span_ok = k.nf_violations == 0, k.outside_span == 0
        detail = f"{k.size} kernel basis vectors"
    rows.append(
        CheckOutcome(
            "poly", "kernel elements admit the x3-free normal form",
            "the kernel normal form", _status(nf_ok), detail,
        )
    )
    rows.append(
        CheckOutcome(
            "poly", "kernel elements lie in the digit-tuple span",
            "the digit-span containment", _status(span_ok), detail,
        )
    )
    return rows


def _check_iso(ctx: _Context) -> list[CheckOutcome]:
    rep = ctx.equivalence
    mapped = isinstance(rep, EquivalenceReport)
    return [
        CheckOutcome(
            "iso", "two-equation system and restricted system have equal rank",
            "the equivalence of the two systems", _status(mapped),
            f"rank {ctx.rank('kim')} vs {ctx.rank('p1l1')}; "
            + (f"the coordinate map matches all {len(rep.row_perm)} rows"
               if mapped else str(rep)),
        )
    ]


def _check_girth(ctx: _Context) -> list[CheckOutcome]:
    if ctx.q > 8:
        return [
            CheckOutcome(
                "girth", "no four-cycles in any constructed matrix", "the four-cycle-free property",
                "SKIP", "size policy caps this check at q <= 8",
            )
        ]
    return [
        CheckOutcome(
            "girth", f"no two rows of {system} share two columns",
            "the four-cycle-free property", _status(rep.ok),
            "" if rep.ok else f"rows {rep.rows} share columns {rep.cols}",
        )
        for system, rep in girth_reports(ctx.matrix)
    ]


def _check_rank(ctx: _Context) -> list[CheckOutcome]:
    pred = predict(ctx.q)
    rows = []
    for system, want in (
        ("pl", pred.rank_pl),
        ("p1l1", pred.rank_p1l1),
        ("kim", pred.rank_p1l1),
    ):
        got = ctx.rank(system)
        rows.append(
            CheckOutcome(
                "rank", f"computed rank of {system} matches the closed form",
                "the rank formulas", _status(got == want), f"rank {got}, predicted {want}",
            )
        )
    return rows


def _check_formulas(ctx: _Context) -> list[CheckOutcome]:
    r1 = (1 + math.sqrt(17)) / 2
    r2 = (1 - math.sqrt(17)) / 2
    from lu3q.formulas import lucas17, predict_even

    surd_ok = all(abs(lucas17(n) - (r1**n + r2**n)) < 0.5 for n in range(21))
    rows = [
        CheckOutcome(
            "formulas", "recurrence matches the surd expression", "the closed-form rank",
            "PASS" if surd_ok else "FAIL", "n <= 20, absolute error < 0.5",
        )
    ]
    ident_ok = all(
        predict_even(t).dim_lu == 2 ** (3 * t) - predict_even(t).rank_p1l1
        for t in range(1, 11)
    )
    gap_ok = all(
        pred.rank_pl - pred.rank_p1l1 == 2 * pred.q
        for pred in map(predict, _prime_powers(1024))
    )
    rows.append(
        CheckOutcome(
            "formulas", "dimension identity and 2q rank gap", "the dimension identity",
            "PASS" if (ident_ok and gap_ok) else "FAIL", "t <= 10; q <= 1024",
        )
    )
    return rows


def _prime_powers(n: int) -> list[int]:
    """The prime powers up to n, ascending: a sieve marks the primes, and
    then the higher powers of each prime up to sqrt(n)."""
    prime = np.ones(n + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if prime[p]:
            prime[p * p :: p] = False
    power = prime.copy()
    for p in np.flatnonzero(prime[: math.isqrt(n) + 1]).tolist():
        pk = p * p
        while pk <= n:
            power[pk] = True
            pk *= p
    return np.flatnonzero(power).tolist()
