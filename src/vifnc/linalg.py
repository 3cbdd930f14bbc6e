"""Dense least-squares core: QR solve, the auxiliary-RSS kernel, and the overflow rule.

All operations are pure functions over validated inputs; nothing here keeps
state, so concurrent use is safe. The Belsley-style data this package
targets is near-singular by construction, which is why the solver goes
through an orthogonal decomposition instead of the normal equations: the
squared condition number of a Gram matrix would wipe out the digits the
replication targets depend on.

The solver has one path at every rank. One Householder R of ``[A, b]``
holds R of A in its leading block and ``Q'b`` in its last column
(Golub & Van Loan, *Matrix Computations*, 4th ed., section 5.3), so no Q
is formed. The SVD of that block with unit-length columns gives the rank
and, cut at it, the solution.

Column sums. A column's ``x'x`` comes from :func:`_column_xtx`, and its
constant flag, mean and centered TSS from :func:`_centered`, on every
route: the diagnostics' factor, ``fit`` and ``stewart_index``. So the
paper's two numerators read the same bits wherever they are read.

Overflow. A column whose ``x'x`` exceeds :data:`_XTX_MAX` has column
norms that cannot be squared, so :func:`_column_xtx` raises
:class:`_TooLarge` for it, and every route that reads columns calls it
before any product: the diagnostics' factor, the solver (by its position
in ``[A, b]``), and, by name, ``stewart_index`` (``fit`` through the
solver).

The kernel gives the RSS of every column of a design regressed on all the
other columns, and fits no regression. The RSS depend on the design only
through ``A'A``, so any triangular R with ``R'R = A'A`` gives them. It has
one path: the diagnostics' factor forms R of ``[D_S, 1]`` for a column set
S, :func:`_halves` reads the centered and through-origin RSS off one
back-substitution of it, and :func:`_guarded` routes each half.

1. The columns of R are scaled to unit length (the design's column norms
   d), ``U = R D^-1``. The scaling makes the rank test and the weights
   below independent of the columns' units (Belsley, Kuh & Welsch 1980,
   ch. 3).
2. Inverse route, for every design (:func:`_unit_inverse`). ``U`` is
   triangular, so one back-substitution gives ``U^-1``; ``g_j``, the
   squared norm of its row j, is ``[(U'U)^-1]_jj``, and
   ``RSS_j = d_j^2 / g_j``. It also gives the Frobenius condition
   ``kappa_F = sqrt(k * sum_j g_j)``.
3. SVD route (:func:`_spectral_rss`), only for a design whose ``kappa_F``
   is not below ``1e-3 / SCALED_RANK_RTOL`` (1e10), or not finite. It
   reads the numerical rank, and a column with weight in the numerical
   null space reads 0: it is an exact combination of the others.

The solver and the kernel read the numerical rank the same way: from the
SVD of the triangular factor with unit-length columns, cut at
:data:`SCALED_RANK_RTOL`, so a column's units never move it. Under the
guard the SVD would find full rank as well (see :func:`_guarded`).

Too few rows. An auxiliary regression of a design of k columns has k - 1
regressors, so the diagnostics' factor raises
:class:`~vifnc.errors.TooFewObservations` for a design of fewer than
k - 1 rows. With exactly k - 1 rows every auxiliary regression is square,
and a column the others span reads 0. Where R has fewer rows than
columns, zero rows make it square; they leave ``R'R``, and so every RSS,
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, TooFewObservations

#: A singular value of the design with unit-length columns below this
#: fraction of the largest counts as zero (numerical rank test); in
#: :func:`_spectral_rss` it also bounds the rounding in the null-space weights.
SCALED_RANK_RTOL = 1e-13
#: The largest ``x'x`` a column may have: its norm, rounded, must square to a finite value.
_XTX_MAX = np.finfo(float).max / 2


class _TooLarge(ValueError):
    """A column whose ``x'x`` exceeds :data:`_XTX_MAX`, at ``position`` in the design."""

    def __init__(self, position: int, name: str | None = None):
        super().__init__(
            f"column {position if name is None else repr(name)} is too large:"
            " its sum of squares exceeds half the float64 range"
        )
        self.position = position


def _column_xtx(a: np.ndarray, names=None) -> np.ndarray:
    """Each column's ``x'x`` over ``(..., n, K)``, after the overflow rule.

    Every ``x'x`` the package reads comes from here, each summed on the
    strided column itself (BLAS sums a contiguous copy in another order),
    so a column reads the same bits on every route. Raises
    :class:`_TooLarge` for the first column whose ``x'x`` exceeds
    :data:`_XTX_MAX` in any design of a stack, NaN included, named from
    ``names`` when given, else by its position.
    """
    with np.errstate(over="ignore"):
        xtx = [(v[..., None, :] @ v[..., :, None])[..., 0, 0] for v in np.moveaxis(a, -1, 0)]
    xtx = np.stack(xtx, axis=-1)
    too_large = ~(xtx <= _XTX_MAX).reshape(-1, xtx.shape[-1]).all(axis=0)
    if too_large.any():
        position = int(np.argmax(too_large))
        raise _TooLarge(position, None if names is None else names[position])
    return xtx


def _centered(x: np.ndarray):
    """A column's constant flag, mean and centered TSS, over ``(..., n)``; ``x`` is overwritten.

    ``x`` is a contiguous buffer, as the sums' floating-point order needs,
    and it ends up holding the squared deviations. A constant column's
    float mean can miss its value by an ulp, which would leave a centered
    TSS of ~1e-33 in place of the exact zero, so its mean is its value.
    """
    constant = x.min(axis=-1) == x.max(axis=-1)
    mean = np.where(constant, x[..., 0], x.mean(axis=-1))
    x -= mean[..., None]
    return constant, mean, np.multiply(x, x, out=x).sum(axis=-1)


@dataclass(frozen=True, eq=False)
class LeastSquaresSolution:
    """Output of :func:`solve_least_squares`; equality is identity, as it holds an array.

    Attributes
    ----------
    coefficients : ndarray
        Least-squares solution, one per design column (see :func:`solve_least_squares`).
    rank : int
        Numerical rank: the number of singular values of the design with
        unit-length columns above :data:`SCALED_RANK_RTOL` times the largest.
    residual_norm : float
        Euclidean norm of ``b - A @ coefficients``.
    rank_deficient : bool
        True when ``rank`` is below the number of columns. Deliberately a
        flag rather than an exception; callers decide how to react.
    """

    coefficients: np.ndarray
    rank: int
    residual_norm: float
    rank_deficient: bool


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 2-d array; 1-d input becomes one column."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionMismatch(
            f"{name} must be 2-d with at least one row and one column, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput(f"{name} contains NaN or infinite entries")
    return arr


def as_vector(b, name: str = "vector") -> np.ndarray:
    """Coerce to a finite float64 1-d array."""
    arr = np.asarray(b, dtype=float).reshape(-1)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput(f"{name} contains NaN or infinite entries")
    return arr


def _unit_columns(r: np.ndarray):
    """Column norms of ``r`` and ``r`` with unit-length columns; a zero column stays zero."""
    norms = np.linalg.norm(r, axis=-2)
    return norms, r / np.where(norms > 0.0, norms, 1.0)[..., None, :]


def _scaled_spectrum(r: np.ndarray):
    """Column norms of ``r``, the SVD ``U, s, V'`` of ``r`` with unit-length columns, and its rank.

    The rank counts singular values above :data:`SCALED_RANK_RTOL` times
    the largest. A zero column stays zero instead of being divided by its norm.
    """
    norms, unit = _unit_columns(r)
    u, s, vh = np.linalg.svd(unit)
    return norms, u, s, vh, np.count_nonzero(s > SCALED_RANK_RTOL * s[..., :1], axis=-1)


#: :func:`_guarded` sends a design whose Frobenius condition with unit-length
#: columns is not below this bound to the SVD route. Under it, the smallest
#: singular value is at least 1,000 times the rank cut.
_INVERSE_KAPPA = 1e-3 / SCALED_RANK_RTOL


def _unit_inverse(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column norms ``d`` of the triangular ``r``, and ``U^-1`` for ``U = R D^-1``.

    ``U^-1`` takes one back-substitution over the stack; its row j has
    ``[(U'U)^-1]_jj`` as its squared norm. A singular ``U`` (a zero column,
    an exact relation) gives inf or NaN there, without a warning.
    """
    norms, unit = _unit_columns(r)
    k = r.shape[-1]
    inverse = np.zeros_like(unit)
    identity = np.eye(k)
    with np.errstate(all="ignore"):
        for i in range(k - 1, -1, -1):
            # row i of U^-1 from the rows below it, summed elementwise rather than by
            # matmul, so a design sums in the same order in a stack as alone
            done = (unit[..., i, i + 1 :, None] * inverse[..., i + 1 :, i:]).sum(axis=-2)
            inverse[..., i, i:] = (identity[i, i:] - done) / unit[..., i, i, None]
    return norms, inverse


def _inverse_read(norms: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``RSS_j = d_j^2 / g_j`` and the Frobenius condition ``sqrt(k * sum_j g_j)``, k = len(g)."""
    with np.errstate(all="ignore"):
        return norms * norms / g, np.sqrt(g.shape[-1] * g.sum(axis=-1))


def _guarded(r: np.ndarray, rss: np.ndarray, kappa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The inverse route's ``rss`` and full rank, or the SVD route's where ``kappa`` fails.

    ``rss`` and ``kappa`` are a half of :func:`_halves`, read off the
    triangle ``r``. The guard is ``kappa < _INVERSE_KAPPA``, which a NaN
    condition fails too: a zero column or an exact relation makes ``U^-1``
    inf or NaN.

    The guard keeps the routes' verdicts equal. ``s_1 / s_k = kappa_2 <=
    kappa_F``, so under the guard the smallest singular value is above
    1e-10 of the largest, 1,000 times the rank cut, and the SVD route
    would find rank k and weigh no column as null: its RSS is the same
    ``d_j^2 / g_j``, and the routes differ only by rounding. The factor
    1,000 covers the rounding of both the computed ``kappa_F`` (relative
    error about k eps kappa_F, under 1e-5) and the computed singular
    values (about eps s_1 each). Each design of a stack takes its route
    alone, so a design reads the same bits in a stack as by itself.
    """
    rank = np.full(kappa.shape, r.shape[-1])
    spectral = ~(kappa < _INVERSE_KAPPA)
    if spectral.any():
        rss[spectral], rank[spectral] = _spectral_rss(r[spectral])
    return rss, rank[()]  # a scalar for one design


def _spectral_rss(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """RSS and numerical rank off the SVD of ``r`` with unit-length columns.

    With ``U = R D^-1 = W S V'``, the numerical rank r counts singular
    values above :data:`SCALED_RANK_RTOL` times the largest, and
    ``g_j = sum_{i<=r} V_ji^2 / s_i^2`` is the diagonal of the
    pseudo-inverse of ``U'U``; ``RSS_j = d_j^2 / g_j``. A column with
    weight in the numerical null space reads 0, and a zero column reads 0
    without being divided by its norm.

    The null-space weight of column j is ``w_j = sum_{i>r} V_ji^2``.
    Rounding perturbs the factor by about ``eps * s_1``, which turns the
    computed null space towards the kept directions and puts on column j
    a weight of order ``(eps * s_1)^2 * g_j`` (first-order perturbation
    of the singular vectors). A weight counts as real only above
    ``(SCALED_RANK_RTOL * s_1)^2 * g_j``.

    Both cut-offs rest on the sweep in ``tests/test_aux_rss.py``, which
    holds the kernel to a 50-digit projection:

    * Rank, 1e-13 (about 450 eps). The singular values that exact
      relations leave behind reached 2 eps of the largest for general
      combinations and 53 eps (1.2e-14) for a constant column beside the
      ones column at n = 100,000. Near relations up to condition 1e12
      are kept and match the reference to 2.1 eps * cond.
    * Null weight. Columns outside a relation carried at most
      ``169 (eps s_1)^2 g_j``, columns inside one at least
      ``1.5e13 (eps s_1)^2 g_j``; the cut sits at 2e5. The weakest real
      weight met is c in ``[1, a, 5 + 1e-8 c, c]``: 1.9e-18, or 1.8e13 on
      that scale. A fixed cut such as 1e-26 instead zeroes the columns of
      a near relation at condition 1e4 once the design also holds an
      exact relation elsewhere.
    """
    norms, _, s, vh, rank = _scaled_spectrum(r)
    kept = np.arange(r.shape[-1]) < rank[..., None]
    weights = vh * vh
    inverse = np.divide(1.0, s * s, out=np.zeros_like(s), where=kept)
    g = (inverse[..., None] * weights).sum(axis=-2)
    null = (~kept[..., None] * weights).sum(axis=-2)
    real = null > (SCALED_RANK_RTOL * s[..., :1]) ** 2 * g
    return np.divide(norms * norms, g, out=np.zeros_like(g), where=~real), rank


def _halves(r: np.ndarray):
    """The centered and through-origin inverse-route reads of a square triangular R of ``[D, 1]``.

    ``r`` is R of ``[D, 1] = QR`` (or of a matrix with the same ``A'A``),
    D of k columns and the ones column last. Its leading k x k block is R
    of D, and the inverse of that block is the leading block of ``U^-1``.
    So one back-substitution (:func:`_unit_inverse`) gives both of the
    paper's auxiliary regressions: ``g_nc,j``, row j's squared norm up to
    the ones column, for D's through-origin RSS, and
    ``g_c,j = g_nc,j + t_j^2``, with ``t_j`` that row's entry in the ones
    column, for the centered RSS of the k + 1 columns of ``[D, 1]``. Since ``g_c,j >= g_nc,j`` after
    rounding too, ``rss_c <= rss_nc`` holds exactly wherever both halves
    take the inverse route.

    Each half is ``(triangle, rss, kappa)``, ready for :func:`_guarded`:
    ``r`` and ``sqrt((k + 1) sum g_c)`` for the centered half, the leading
    block and ``sqrt(k sum g_nc)`` for the through-origin one. So each half
    takes the SVD route alone, and only when it is read.
    """
    norms, inverse = _unit_inverse(r)
    with np.errstate(all="ignore"):
        g = (inverse[..., :-1] * inverse[..., :-1]).sum(axis=-1)  # 0 on the ones row
        g_c = g + inverse[..., -1] * inverse[..., -1]
    centered = (r, *_inverse_read(norms, g_c))
    return centered, (r[..., :-1, :-1], *_inverse_read(norms[..., :-1], g[..., :-1]))


def solve_least_squares(A, b) -> LeastSquaresSolution:
    """Solve ``min ||A x - b||`` by Householder QR with rank detection.

    One QR of ``[A, b]`` gives R of A, its leading block, and ``Q'b``, its
    last column. The SVD of that block with unit-length columns,
    ``R D^-1 = U S V'``, gives the numerical rank r, the kernel's (see
    :func:`_spectral_rss`): singular values cut at
    :data:`SCALED_RANK_RTOL` times the largest, so rescaling a column does
    not change it. Cut at r it also gives the solution,
    ``D x = V_r S_r^-1 U_r' Q'b``.

    Parameters
    ----------
    A : array-like, shape (n, k)
        Design matrix, n >= k.
    b : array-like, shape (n,)
        Right-hand side.

    Returns
    -------
    LeastSquaresSolution
        At full rank the unique OLS estimator. A rank-deficient system is
        *flagged*, not refused: the residual is the reported rank's, and
        the coefficients times their columns' lengths have the least norm.

    Raises
    ------
    NonFiniteInput
        If ``A`` or ``b`` contains NaN or infinities.
    DimensionMismatch
        If row counts disagree.
    TooFewObservations
        If there are fewer rows than columns.
    ValueError
        If a column's sum of squares exceeds half the float64 range; it is
        named by its position in ``[A, b]``, so ``b`` is column k.
    """
    A = as_matrix(A, "A")
    b = as_vector(b, "b")
    n, k = A.shape
    if b.shape[0] != n:
        raise DimensionMismatch(f"A has {n} rows but b has {b.shape[0]} entries")
    if n < k:
        raise TooFewObservations(f"{n} observations for {k} design columns")
    augmented = np.column_stack([A, b])
    _column_xtx(augmented)  # the overflow rule; b is column k

    r = np.linalg.qr(augmented, mode="r")
    norms, u, s, vh, rank = _scaled_spectrum(r[:k, :k])
    scaled = vh[:rank].T @ ((u[:, :rank].T @ r[:k, k]) / s[:rank])
    coef = scaled / np.where(norms > 0.0, norms, 1.0)
    residual_norm = float(np.linalg.norm(b - A @ coef))
    return LeastSquaresSolution(
        coefficients=coef,
        rank=int(rank),
        residual_norm=residual_norm,
        rank_deficient=bool(rank < k),
    )
