"""The auxiliary-RSS kernel against a 50-digit projection, across a conditioning sweep.

The diagnostics read the RSS of every column on all the others off one QR
factor with unit-length columns, R of ``[D_S, 1]`` for a column set S:
off its inverse where the factor's Frobenius condition is under the guard
(``_INVERSE_KAPPA``, 1e10), off its SVD elsewhere. The reference here
projects each column on the span of the others by twice-iterated modified
Gram-Schmidt in 50-digit ``mpmath`` arithmetic, dropping a column whose
residual is below 1e-30 of its norm (an exact relation).

The sweep draws n from 8 to 30 and k from 3 to 6, scales each column by
10^U(-6, 6), and plants one relation among the columns:

* ``near``: the last column is a combination of others plus noise, sized
  so that the design with unit-length columns has condition 1e2 .. 1e14.
  Up to 1e12 the relation is kept and every RSS must match the reference
  on the stored data. At 1e14 it falls under the rank cut: the columns in
  the relation must read 0, and the rest must match the reference with
  the relation made exact.
* ``exact``: the last column is the combination, rounded once.
* ``mixed``: an exact relation among three columns beside a near relation
  (condition 1e2 .. 1e12) between two others. The near pair must stay
  finite; a fixed null-weight cut of 1e-26 would turn it to 0 from
  condition 1e4 up.

Routes. Every design is checked three times, against the same reference
and bounds. On the factor route, ``_Factor(X).rss``, X's RSS are the
through-origin half that ``_halves`` reads off the leading block of R of
``[X, 1]`` (``X = Q R[:k, :k]``). On the subset route, which is how every
VIF, VIFnc and report row reads the kernel, X sits among three extra
columns of mixed scale, in shuffled order, in a DataMatrix D, and its RSS
are the through-origin half of R of ``[D_S, 1]``, taken from R of
``[D, 1]`` at S, the positions of X's columns in D, and the ones column.
On the spectral route the SVD route (``_spectral_rss``) reads R of X
alone, whatever the guard would pick. The factor route's centered half,
the RSS of every column of ``[X, 1]``, is checked against the reference
of those k + 1 columns with the bound of ``[X, 1]``. A design under the
guard is also checked on the inverse route alone: the through-origin
``(triangle, rss, kappa)`` of ``_halves`` on R of ``[X, 1]``. Such a
design must hold no relation the rank cut would remove, and the SVD route
must give it rank k and no zero RSS as well. Of the 63 designs here, the
20 near relations at condition 1e2 .. 1e8 are under the guard (computed
``kappa_F`` at most 1.6 times the condition), and the rest are above it
(2.4e10 at the least, 6e15 beside an exact relation).

Tolerance. A backward-stable route gets an RSS to about eps times the
condition of the kept part of the spectrum. While the kernel took the
SVD of every design, over 340 designs from these generators, the 63 of
this file among them, the worst error of the kernel on X and on R of
``[1, X]`` was 1.6 and 2.3 eps * cond where every relation was kept, 2.0
and 2.5 eps * cond beside an exact relation, and 4.4 and 4.8 eps * cond
where a near relation at 1e14 was cut. On R of ``[X, 1]``, the 63 designs
here gave at most 1.0, 1.1 and 3.9 eps * cond on the through-origin half
(the factor route) and 0.96, 2.1 and 2.8 on the centered half, in the
same three classes. An earlier 350-design run of the kernel on X reached
2.1, 7.4 and 11.5 eps * cond. On the subset route, 315 designs of these
generators (the 63 among them) gave at most 6.3, 12.0 and 9.0 eps * cond
in the same three classes. On the SVD route alone, 495 designs (the 63
among them) gave at most 4.8, 3.9 and 7.1 eps * cond in the three
classes. On the inverse route alone, the same 495 designs gave at most
0.89 eps * cond on R of X (the 180 under the guard, all with every
relation kept), and the 20 here under the guard 1.02 eps * cond on the
leading block of R of ``[X, 1]``.
TOL_FACTOR = 100 leaves an 8x margin over the worst of these; a defect
such as a missing rescale or a wrong null-weight rule moves an RSS by
orders of magnitude or to 0.

The same designs fix the kernel's two cut-offs (see ``_spectral_rss``):
the numerical rank at 1e-13 of the largest singular value, and the
null-weight rule ``w_j > (1e-13 s_1)^2 g_j``, a factor (1e-13/eps)^2 =
2e5 above ``(eps s_1)^2 g_j``. Columns outside a relation carried at
most 169 (eps s_1)^2 g_j of null weight (15 beside an exact relation),
and columns inside one at least 1.5e13 (eps s_1)^2 g_j. On the factor
and subset routes of R of ``[1, X]`` and ``[1, D]``, 160 and 125 designs
with a cut relation gave at most 92 and 72, and at least 1.1e13 and
3.0e13.
"""

import zlib

import numpy as np
import pytest

from vifnc import DataMatrix, ScenarioSpec, run_scenario, vifnc
from vifnc.diagnostics import _Factor, _factor
from vifnc.errors import TooFewObservations
from vifnc.linalg import _INVERSE_KAPPA, SCALED_RANK_RTOL, _halves, _spectral_rss

from test_montecarlo import one_replication

mpmath = pytest.importorskip("mpmath")

DPS = 50
EPS = float(np.finfo(float).eps)
TOL_FACTOR = 100.0


def reference_rss(columns):
    """50-digit RSS of each column (lists of mpf) on the span of the others."""
    out = []
    with mpmath.workdps(DPS):
        drop = mpmath.mpf(10) ** -30

        def reduce(vector, basis):
            for _ in range(2):
                for b in basis:
                    dot = mpmath.fdot(b, vector)
                    vector = [v - dot * e for v, e in zip(vector, b)]
            return vector

        for j in range(len(columns)):
            basis = []
            for i, column in enumerate(columns):
                if i == j:
                    continue
                q = reduce(list(column), basis)
                norm = mpmath.sqrt(mpmath.fdot(q, q))
                if norm > drop * mpmath.sqrt(mpmath.fdot(column, column)):
                    basis.append([v / norm for v in q])
            residual = reduce(list(columns[j]), basis)
            out.append(float(mpmath.fdot(residual, residual)))
    return np.array(out)


def as_mp(column):
    return [mpmath.mpf(float(v)) for v in column]


def combination(columns, members, coef):
    """The exact (50-digit) combination of float columns with float coefficients."""
    with mpmath.workdps(DPS):
        return [
            mpmath.fsum(mpmath.mpf(float(c)) * columns[m][r] for c, m in zip(coef, members))
            for r in range(len(columns[0]))
        ]


def sweep_design(seed, log_cond, kind):
    """Float design, reference columns, and the columns of the relation that must read 0."""
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(8, 31)), int(rng.integers(3, 7))
    X = rng.normal(rng.uniform(-3, 3, k), rng.uniform(0.5, 3, k), (n, k))
    X *= 10.0 ** rng.uniform(-6, 6, k)
    norms = np.linalg.norm(X, axis=0)
    columns = [as_mp(c) for c in X.T]
    members = rng.choice(k - 1, size=int(rng.integers(1, k)), replace=False)
    # comparable contributions: a relation carried below rounding is no relation
    coef = rng.normal(size=members.size) * norms[-1] / norms[members]
    exact = combination(columns, members, coef)
    X[:, -1] = [float(v) for v in exact]
    if kind == "near":
        noise = rng.normal(size=n) * 10.0**-log_cond * np.linalg.norm(X[:, -1]) / np.sqrt(n)
        X[:, -1] += noise
    cut = kind == "exact" or log_cond > 13
    columns[-1] = exact if cut else as_mp(X[:, -1])
    zero = set(members.tolist()) | {k - 1} if cut else set()
    return X, columns, zero


def mixed_design(seed, log_cond):
    """Exact relation x2 = c0 x0 + c1 x1 beside the near relation x4 ~ 2.5 x3."""
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(10, 31)), int(rng.integers(5, 8))
    X = rng.normal(rng.uniform(-3, 3, k), rng.uniform(0.5, 3, k), (n, k))
    X *= 10.0 ** rng.uniform(-6, 6, k)
    norms = np.linalg.norm(X, axis=0)
    X[:, 4] = 2.5 * X[:, 3] * (1.0 + 10.0**-log_cond * rng.normal(size=n))
    columns = [as_mp(c) for c in X.T]
    columns[2] = combination(columns, [0, 1], rng.normal(size=2) * norms[2] / norms[:2])
    X[:, 2] = [float(v) for v in columns[2]]
    return X, columns, {0, 1, 2}


def kept_condition(X, rank):
    s = np.linalg.svd(X / np.linalg.norm(X, axis=0), compute_uv=False)
    return s[0] / s[rank - 1]


def with_ones(X):
    return np.column_stack([X, np.ones(len(X))])


def factor_route(X, centered=False):
    """The RSS of every column of X on the others, and the rank, as the diagnostics read them.

    The factor of X alone is R of ``[X, 1]``. Through the origin, X's RSS
    are the half off its leading block; ``centered``, the RSS of every
    column of ``[X, 1]``, the ones column last.
    """
    return _Factor(X).rss(range(X.shape[-1]), centered)


def subset_route(X):
    """X's RSS read off the factor of a DataMatrix that holds X among other columns.

    Three extra columns of mixed scale join X in a shuffled order; the
    diagnostics' factor of ``[D, 1]`` then reads X's positions S with the
    ones column, which is how every diagnostic reads a column set.
    """
    n, k = X.shape
    rng = np.random.default_rng(zlib.crc32(X.tobytes()))
    extra = rng.normal(rng.uniform(-3, 3, 3), 1.0, (n, 3)) * 10.0 ** rng.uniform(-6, 6, 3)
    order = rng.permutation(k + 3)
    data = DataMatrix(tuple(f"d{i}" for i in range(k + 3)), np.column_stack([X, extra])[:, order])
    return _factor(data).rss(np.argsort(order)[:k].tolist(), centered=False)


def spectral_route(X):
    """The SVD route alone on R of X, whatever the guard would pick."""
    return _spectral_rss(np.linalg.qr(X, mode="r"))


ROUTES = {
    "factor": factor_route,
    "subset": subset_route,
    "spectral": spectral_route,
}


def check_against_reference(X, columns, zero):
    reference = reference_rss(columns)
    for route, kernel in ROUTES.items():
        rss, rank = kernel(X)
        assert rank == X.shape[1] - (1 if zero else 0), route
        bound = TOL_FACTOR * EPS * kept_condition(X, rank)
        for j in range(X.shape[1]):
            if j in zero:
                assert rss[j] == 0.0, f"{route}: column {j} of the relation reads {rss[j]!r}"
            else:
                assert rss[j] == pytest.approx(reference[j], rel=bound), f"{route}: column {j}"
    check_centered_half(X, columns, zero)
    check_inverse_route(X, reference, zero)


def check_centered_half(X, columns, zero):
    """The centered half of the factor route: every column of ``[X, 1]`` on the others."""
    A = with_ones(X)
    reference = reference_rss(columns + [as_mp(A[:, -1])])
    rss, rank = factor_route(X, centered=True)
    assert rank == A.shape[1] - (1 if zero else 0)
    bound = TOL_FACTOR * EPS * kept_condition(A, rank)
    for j in range(A.shape[1]):
        if j in zero:
            assert rss[j] == 0.0, f"centered: column {j} of the relation reads {rss[j]!r}"
        else:
            assert rss[j] == pytest.approx(reference[j], rel=bound), f"centered: column {j}"


def check_inverse_route(X, reference, zero):
    """The inverse route alone, through the origin on R of ``[X, 1]``, for a design under the guard.

    Such a design must have no relation to cut, match the reference, and
    get rank k and no zero RSS on the SVD route as well.
    """
    r, rss, kappa = _halves(np.linalg.qr(with_ones(X), mode="r"))[1]
    if not kappa < _INVERSE_KAPPA:
        return
    assert not zero, "a relation under the rank cut passed the guard"
    k = X.shape[1]
    assert rss == pytest.approx(reference, rel=TOL_FACTOR * EPS * kept_condition(X, k))
    spectral, rank = _spectral_rss(r)
    assert rank == k and np.all(spectral > 0.0)


@pytest.mark.parametrize("log_cond", [2, 4, 6, 8, 10, 12, 14])
@pytest.mark.parametrize("seed", range(5))
def test_near_relations_match_reference(seed, log_cond):
    check_against_reference(*sweep_design(100 * seed + log_cond, log_cond, "near"))


@pytest.mark.parametrize("seed", range(10))
def test_exact_relations_read_zero_and_leave_the_rest_exact(seed):
    check_against_reference(*sweep_design(1000 + seed, 0, "exact"))


@pytest.mark.parametrize("log_cond", [2, 4, 6, 8, 10, 12])
@pytest.mark.parametrize("seed", range(3))
def test_near_relation_beside_exact_one_stays_finite(seed, log_cond):
    check_against_reference(*mixed_design(7 * seed + log_cond, log_cond))


def cond_4e16_design(n=20, seed=4):
    """``[1, a, 5 + 1e-8 c, c]``: b carries c only in its last eight digits."""
    rng = np.random.default_rng(seed)
    a, c = rng.normal(size=n), rng.normal(size=n)
    return np.column_stack([np.ones(n), a, 5.0 + 1e-8 * c, c])


def test_relation_at_rounding_level_reads_zero():
    X = cond_4e16_design()
    assert np.linalg.cond(X) > 1e16
    rss, rank = factor_route(X)
    assert rank == 3
    assert rss[[0, 2, 3]].tolist() == [0.0, 0.0, 0.0]
    # a lies outside the relation: its RSS is that of a on [1, c]
    reference = reference_rss([as_mp(X[:, i]) for i in (1, 0, 3)])[0]
    assert rss[1] == pytest.approx(reference, rel=1e-12)


def test_partial_duplicate_leaves_the_other_column_exact():
    rng = np.random.default_rng(11)
    x1, x3 = rng.normal(3.0, 1.0, 20), rng.normal(-1.0, 2.0, 20)
    X = np.column_stack([np.ones(20), x1, 2.0 * x1, x3])
    rss, rank = factor_route(X)
    assert rank == 3
    assert rss[[1, 2]].tolist() == [0.0, 0.0]
    _, residual, *_ = np.linalg.lstsq(X[:, :2], x3, rcond=None)
    assert rss[3] == pytest.approx(float(residual[0]), rel=1e-10)


def test_zero_column_among_others_is_not_divided_by():
    rng = np.random.default_rng(2)
    a, c = rng.normal(size=12), rng.normal(size=12)
    with np.errstate(all="raise"):
        rss, rank = factor_route(np.column_stack([a, np.zeros(12), c]))
        alone, _ = factor_route(np.column_stack([a, c]))
    assert rank == 2
    assert rss[1] == 0.0
    assert rss[[0, 2]] == pytest.approx(alone, rel=1e-13)


def test_stack_matches_one_design_at_a_time():
    rng = np.random.default_rng(9)
    stack = rng.normal(4.0, 4.0, (6, 15, 3))
    stack[2, :, 2] = stack[2, :, 0]  # one replication with a duplicate column
    rss, rank = factor_route(stack)
    assert rss.shape == (6, 3) and rank.shape == (6,)
    for design, row, r in zip(stack, rss, rank):
        single, single_rank = factor_route(design)
        assert single_rank == r
        assert row.tolist() == single.tolist()


def test_stack_takes_each_route_design_by_design():
    rng = np.random.default_rng(21)
    stack = rng.normal(4.0, 4.0, (6, 15, 3))
    relation = 0.5 * stack[:, :, 0] + stack[:, :, 1]
    stack[1, :, 2] = relation[1] + 1e-6 * rng.normal(size=15)  # near relation under the guard
    stack[2, :, 2] = relation[2] + 1e-11 * rng.normal(size=15)  # near relation above it, kept
    stack[3, :, 2] = relation[3]  # exact relation
    stack[4, :, 1] = 0.0  # zero column
    with np.errstate(all="raise"):
        factor = _Factor(stack)
        # the through-origin half of R of [X, 1] on the inverse route alone
        triangle, inverse, kappa = _halves(factor.r)[1]
        rss, rank = factor.rss(range(3), centered=False)
        singles = [factor_route(design) for design in stack]
    fast = kappa < _INVERSE_KAPPA
    assert fast.tolist() == [True, True, False, False, False, True]
    assert rss[fast].tolist() == inverse[fast].tolist()
    assert rss[~fast].tolist() == _spectral_rss(triangle[~fast])[0].tolist()
    assert rank.tolist() == [3, 3, 3, 2, 2, 3]
    assert rss[3].tolist() == [0.0, 0.0, 0.0] and rss[4, 1] == 0.0
    for row, design_rank, (single, single_rank) in zip(rss, rank, singles):
        assert single_rank == design_rank
        assert row.tolist() == single.tolist()


def test_rank_cut_follows_the_scaled_spectrum():
    # one relative cut on unit-length columns: the units of a column do not move it
    rng = np.random.default_rng(5)
    x = rng.normal(size=(30, 2))
    near = x @ [1.0, 2.0] + 1e-11 * rng.normal(size=30)
    for scale in (1e-6, 1.0, 1e6):
        X = np.column_stack([x, scale * near])
        assert factor_route(X)[1] == 3
    assert SCALED_RANK_RTOL < 1e-12


def test_too_few_observations():
    rng = np.random.default_rng(1)
    # two rows, three columns: every auxiliary regression is square and fits exactly
    rss, rank = factor_route(rng.normal(size=(2, 3)))
    assert rank == 2 and rss.tolist() == [0.0, 0.0, 0.0]
    with pytest.raises(TooFewObservations):
        factor_route(rng.normal(size=(2, 4)))


@pytest.mark.parametrize("noise_sd", [1e-6, 1e-7, 1e-9, 1e-11])
def test_small_noise_monte_carlo_vifnc_matches_reference(noise_sd):
    """Non-essential draws at VIFnc 5e11 .. 5e21 are finite and as exact as the sweep above.

    Each draw is replication 0 of its own master seed, so the summary of a
    one-replication ``run_scenario`` carries that replication's VIFnc.
    """
    for seed in range(5):
        spec = ScenarioSpec(
            kind="nonessential", n=20, replications=1, master_seed=seed, base=1.0, noise_sd=noise_sd
        )
        data, j = one_replication(spec, 0)
        value = vifnc(data, j, [o for o in data.names if o != j])
        assert run_scenario(spec).vifnc_stats.max == value
        X, i = data.values, data.names.index(j)
        expected = float(X[:, i] @ X[:, i]) / reference_rss([as_mp(c) for c in X.T])[i]
        assert value == pytest.approx(expected, rel=TOL_FACTOR * EPS * kept_condition(X, 2))
