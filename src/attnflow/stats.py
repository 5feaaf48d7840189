"""Scaling-law fits, concentration measures, audience overlap filtering,
and a small OLS harness for regressing outcomes on flow features.

All fits are least squares on natural logarithms; zero or negative values
are dropped and counted rather than offset-shifted, since offsets bias
power-law exponents.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from operator import itemgetter

import numpy as np
import scipy.sparse as sp

from .errors import (
    AllZero,
    DegenerateX,
    InsufficientData,
    NegativeValue,
    SingularDesign,
    TooFewPoints,
    TooFewRows,
)
from .flowcalc import NodeFlowStats
from .ingest import SessionLog
from .network import _EdgeRows, reprs, write_csv

# Relative singular-value cutoff below which a design matrix is treated as
# rank deficient.
_RANK_TOL = 1e-10

# Fewest rows regression_feature_table keeps without raising TooFewRows.
_MIN_ROWS = 6


@dataclass(frozen=True)
class PowerLawFit:
    """y = exp(intercept) * x**exponent fitted by OLS on logs."""

    exponent: float
    intercept: float
    r_squared: float
    stderr_exponent: float
    n_points: int
    dropped_nonpositive: int

    def to_dict(self) -> dict:
        return {
            "exponent": self.exponent,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "stderr_exponent": self.stderr_exponent,
            "n_points": self.n_points,
            "dropped_nonpositive": self.dropped_nonpositive,
        }


def fit_power_law(x, y) -> PowerLawFit:
    """Fit ln y = intercept + exponent * ln x over strictly positive pairs.

    Pairs with a nonpositive coordinate are dropped and counted. Raises
    TooFewPoints (< 3 usable pairs) or DegenerateX (no spread in x).
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError("x and y must have the same length")
    keep = (x > 0) & (y > 0) & np.isfinite(x) & np.isfinite(y)
    dropped = int(x.size - keep.sum())
    if keep.sum() < 3:
        raise TooFewPoints(f"need >= 3 positive pairs, have {int(keep.sum())}")
    lx = np.log(x[keep])
    ly = np.log(y[keep])
    if np.ptp(lx) == 0.0:
        raise DegenerateX("all x values identical; slope undefined")
    n = lx.size
    design = np.column_stack([np.ones(n), lx])
    coef, _, _, _ = np.linalg.lstsq(design, ly, rcond=None)
    intercept, slope = float(coef[0]), float(coef[1])
    resid = ly - design @ coef
    ssr = float(resid @ resid)
    sst = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if sst == 0.0 else 1.0 - ssr / sst
    sigma2 = ssr / (n - 2)
    sxx = float(((lx - lx.mean()) ** 2).sum())
    stderr = math.sqrt(sigma2 / sxx)
    return PowerLawFit(
        exponent=slope,
        intercept=intercept,
        r_squared=r2,
        stderr_exponent=stderr,
        n_points=n,
        dropped_nonpositive=dropped,
    )


def gini(values) -> float:
    """Population Gini of non-negative values via the sorted-rank identity,
    equal to the mean-absolute-difference form sum |x_i - x_j| / (2 n^2 mu).
    """
    x = np.asarray(values, dtype=float).ravel()
    if x.size == 0:
        raise AllZero("empty input")
    if np.any(x < 0):
        raise NegativeValue("gini requires non-negative values")
    total = x.sum()
    if total == 0.0:
        raise AllZero("all values are zero; gini undefined")
    xs = np.sort(x)
    n = xs.size
    ranks = np.arange(1, n + 1)
    return float(((2 * ranks - n - 1) * xs).sum() / (n * total))


def zipf_table(values, labels: tuple[str, ...] | None = None) -> list[tuple]:
    """Rank-ordered values, descending, ties kept in original id order.

    Returns (rank, value) pairs, or (rank, label, value) when labels are
    given.
    """
    x = np.asarray(values, dtype=float).ravel()
    if x.size == 0:
        raise AllZero("empty input")
    order = np.argsort(-x, kind="stable")
    ranks = range(1, x.size + 1)
    if labels is None:
        return list(zip(ranks, x[order].tolist()))
    return list(zip(ranks, map(labels.__getitem__, order.tolist()), x[order].tolist()))


@dataclass(frozen=True)
class ConcentrationReport:
    gini: float
    zipf: list[tuple]

    def to_dict(self) -> dict:
        return {"gini": self.gini, "zipf": [list(row) for row in self.zipf]}


def concentration(values, labels: tuple[str, ...] | None = None) -> ConcentrationReport:
    return ConcentrationReport(gini=gini(values), zipf=zipf_table(values, labels))


@dataclass(frozen=True)
class DuplicationReport:
    """Audience-overlap network and its independence-filtered version.

    Edges are unordered item pairs weighted by the number of shared users;
    a pair is kept when the observed overlap is at least the expected
    overlap under independent audiences, users_a * users_b / total_users.
    """

    items: tuple[str, ...]
    n_users: int
    audience_sizes: dict[str, int]
    observed: Mapping[tuple[str, str], int]
    expected: Mapping[tuple[str, str], float]
    kept: Mapping[tuple[str, str], int]

    @property
    def degrees_before(self) -> dict[str, int]:
        return dict(zip(self.items, self._degrees(self.observed).tolist()))

    @property
    def degrees_after(self) -> dict[str, int]:
        return dict(zip(self.items, self._degrees(self.kept).tolist()))

    def _degrees(self, edges: _EdgeRows) -> np.ndarray:
        return np.bincount(edges.codes.ravel(), minlength=len(self.items))

    def retained_fraction(self) -> float:
        return len(self.kept) / len(self.observed) if self.observed else 0.0


def _sorted_codes(labels: tuple[str, ...]) -> tuple[tuple[str, ...], np.ndarray]:
    """``labels`` sorted, and the position there of each label's code."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    rank = np.empty(len(labels), dtype=np.intp)
    rank[order] = np.arange(len(labels))
    return tuple(map(labels.__getitem__, order)), rank


def duplication_filter(log: SessionLog) -> DuplicationReport:
    """Build the audience overlap network and drop independence-level pairs.

    Overlap is counted from distinct users, not visits; items sharing no
    users never form an edge and so are filtered implicitly.
    """
    items, item_rank = _sorted_codes(log.items)
    if len(items) < 2:
        raise InsufficientData("duplication filter needs at least 2 items")
    # users numbered by sorted id, so that the product's entries keep their order
    _, user_rank = _sorted_codes(log.users)
    n_users = len(user_rank)
    rows = user_rank[log.visit_users()]
    cols = item_rank[log.visits]
    # one entry per (user, item): the CSR sums a user's repeat visits
    member = sp.csr_matrix(
        (np.ones(cols.size, dtype=np.int64), (rows, cols)), shape=(n_users, len(items))
    )
    member.data[:] = 1
    # the pairs i < j in the order of the product's entries
    overlap = (member.T @ member).tocoo()
    upper = overlap.row < overlap.col
    i, j, count = overlap.row[upper], overlap.col[upper], overlap.data[upper]
    pairs = np.stack((i, j), axis=1)
    sizes = np.asarray(member.sum(axis=0)).ravel()
    expected = sizes[i] * sizes[j] / n_users
    kept = count >= expected
    return DuplicationReport(
        items=items,
        n_users=n_users,
        audience_sizes=dict(zip(items, sizes.tolist())),
        observed=_EdgeRows(items, pairs, count),
        expected=_EdgeRows(items, pairs, expected),
        kept=_EdgeRows(items, pairs[kept], count[kept]),
    )


@dataclass(frozen=True)
class RegressionResult:
    """OLS estimates with classical (homoskedastic) standard errors."""

    names: tuple[str, ...]
    estimates: np.ndarray
    stderr: np.ndarray
    t_stats: np.ndarray
    r_squared: float
    n_observations: int

    def to_dict(self) -> dict:
        return {
            "coefficients": [
                {
                    "name": name,
                    "estimate": float(est),
                    "stderr": float(se),
                    "t": float(t),
                }
                for name, est, se, t in zip(
                    self.names, self.estimates, self.stderr, self.t_stats
                )
            ],
            "r_squared": self.r_squared,
            "n_observations": self.n_observations,
        }

    def table(self) -> str:
        width = max(len(n) for n in self.names)
        lines = [
            f"{'term':<{width}}  {'estimate':>12}  {'std err':>10}  {'t':>9}",
        ]
        for name, est, se, t in zip(self.names, self.estimates, self.stderr, self.t_stats):
            lines.append(f"{name:<{width}}  {est:>12.4f}  {se:>10.4f}  {t:>9.2f}")
        lines.append(f"n = {self.n_observations}, R^2 = {self.r_squared:.4f}")
        return "\n".join(lines)


def _collinear_columns(X: np.ndarray, names: tuple[str, ...]) -> list[str]:
    """Names of columns involved in the closest-to-null direction of X."""
    _, svals, vt = np.linalg.svd(X, full_matrices=False)
    null_dir = np.abs(vt[-1])
    involved = null_dir > 1e-8 * null_dir.max()
    return [name for name, flag in zip(names, involved) if flag]


def ols_regress(response, features: dict[str, np.ndarray], intercept: bool = True) -> RegressionResult:
    """Least squares of response on named feature columns.

    Raises InsufficientData when observations do not exceed parameters and
    SingularDesign naming the collinear columns on rank deficiency.
    """
    y = np.asarray(response, dtype=float).ravel()
    names = tuple(features)
    cols = [np.asarray(features[name], dtype=float).ravel() for name in names]
    for name, col in zip(names, cols):
        if col.size != y.size:
            raise ValueError(f"feature {name!r} length {col.size} != response {y.size}")
    if intercept:
        names = ("const",) + names
        cols = [np.ones(y.size)] + cols
    X = np.column_stack(cols)
    n, k = X.shape
    if n <= k:
        raise InsufficientData(f"{n} observations for {k} parameters")
    svals = np.linalg.svd(X, compute_uv=False)
    if svals[-1] < _RANK_TOL * svals[0]:
        raise SingularDesign(_collinear_columns(X, names))
    beta, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    ssr = float(resid @ resid)
    sigma2 = ssr / (n - k)
    cov = sigma2 * np.linalg.inv(X.T @ X)
    stderr = np.sqrt(np.diag(cov))
    if intercept:
        sst = float(((y - y.mean()) ** 2).sum())
    else:
        sst = float((y**2).sum())
    r2 = 1.0 if sst == 0.0 else 1.0 - ssr / sst
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(stderr > 0, beta / stderr, np.inf)
    return RegressionResult(
        names=names,
        estimates=beta,
        stderr=stderr,
        t_stats=t_stats,
        r_squared=r2,
        n_observations=n,
    )


@dataclass(frozen=True)
class FeatureTable:
    """Log-flow regression features with the rows that survived drops."""

    items: tuple[str, ...]
    columns: dict[str, np.ndarray]
    response: np.ndarray
    dropped: int


def regression_feature_table(stats: NodeFlowStats, source_distance: np.ndarray) -> FeatureTable:
    """Feature columns ln_D, ln_S, ln_C and unlogged l per node.

    Nodes with any nonpositive value among D, S, C, or without a finite
    source distance, are dropped and counted; the response column is ln_A.
    Raises TooFewRows when fewer than _MIN_ROWS (6) rows survive.
    """
    D = stats.dissipation
    S = stats.source_inflow
    C = stats.impact
    A = stats.through_flow
    l0 = np.asarray(source_distance, dtype=float).ravel()
    if l0.size != len(stats):
        raise ValueError("source_distance length does not match stats")
    keep = (D > 0) & (S > 0) & (C > 0) & (A > 0) & np.isfinite(l0)
    dropped = int(len(stats) - keep.sum())
    if keep.sum() < _MIN_ROWS:
        raise TooFewRows(
            f"{int(keep.sum())} usable rows after dropping {dropped}; need {_MIN_ROWS}"
        )
    items = tuple(item for item, k in zip(stats.items, keep) if k)
    columns = {
        "ln_D": np.log(D[keep]),
        "ln_S": np.log(S[keep]),
        "ln_C": np.log(C[keep]),
        "l": l0[keep],
    }
    return FeatureTable(items=items, columns=columns, response=np.log(A[keep]), dropped=dropped)


def write_zipf_csv(path, table: list[tuple]) -> None:
    """Two-column rank,value plot data (labels, if present, are dropped)."""
    values = np.fromiter(map(itemgetter(-1), table), dtype=float, count=len(table))
    write_csv(path, ["rank", "value"], [list(map(str, map(itemgetter(0), table))), reprs(values)])


def write_duplication_csv(path, report: DuplicationReport) -> None:
    columns = [
        report.items,
        list(map(str, map(report.audience_sizes.__getitem__, report.items))),
        list(map(str, report._degrees(report.observed).tolist())),
        list(map(str, report._degrees(report.kept).tolist())),
    ]
    write_csv(path, ["item", "audience", "degree_before", "degree_after"], columns)
