"""Reproducible Monte Carlo experiments around the recovery threshold.

A sweep is a grid of joint-label distributions; each cell runs a fixed
number of alignment trials.  Trial t of a cell uses seed (master + t) mod
2^64, and every trial is a pure function of (n, p, seed), so serial and
parallel runs produce byte-identical CSV output.
"""

from __future__ import annotations

import json
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import log
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .errors import ConfigError, ParameterError
from .estimator import (automorphism_count, map_estimate, runner_up_distance, scan_fits, scan_order,
                        unit_fraction)
from .genfunc import (
    WMatrix,
    bin_pgf,
    block_gf,
    cycle_gf,
    cycle_gf_enum,
    double_type_sum,
    hyp_pgf,
    shift_type_sum,
)
from .model import (
    Graph, PVec, SubsamplingParams, count, intersection, real, sample_bits, subsampling_to_pvec,
)
from .perms import DEFAULT_ENUM_CAP, require_cap

CSV_COLUMNS = ("n", "p11", "p10", "p01", "p00", "trials", "strict_rate", "mean_eta", "mean_q",
               "mean_aut", "seed")
CSV_HEADER = ",".join(CSV_COLUMNS)

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True, slots=True)
class TrialResult:
    """Outcome of one alignment trial.

    min_delta_nonid is half the score gap from the planted alignment to the
    best other one.  For an identical pair it is 0 unless the graph is
    rigid, and then half its runner_up_distance; past the n! scan's reach
    it is None (on 30 rigid graphs at n = 16, ten each at c = 1, 2, 3, that
    search took a median of 0.00-0.03 s per c, up to 0.8 s and 272 MB peak
    process RSS, on a 2-vCPU VM).
    """

    cell: str
    seed: int
    strict_success: bool
    q_size: int
    eta: Fraction
    min_delta_nonid: Optional[int]
    m_intersection: int
    aut_intersection: int
    wall_time: float


@dataclass(frozen=True)
class SweepCell:
    cell_id: str
    p: PVec


def _cell(cell_id: str, make, *args) -> SweepCell:
    """SweepCell(cell_id, make(*args)), an invalid cell raising ConfigError."""
    try:
        return SweepCell(cell_id, make(*args))
    except (ParameterError, TypeError) as exc:
        raise ConfigError(f"grid cell {cell_id!r} is invalid: {exc}") from exc


def _c_pvec(c: float, noise: float, n: int) -> PVec:
    p11 = c * log(n) / n
    p00 = 1.0 - p11 - 2 * noise
    return PVec(p11, noise, noise, p00)


@dataclass(frozen=True)
class CGrid:
    """Cells with p11 = c * ln(n)/n, symmetric noise p01 = p10, rest on p00."""

    c: Tuple[float, ...]
    noise: float = 0.0

    def cells(self, n: int) -> List[SweepCell]:
        return [_cell(f"c={c:g}", _c_pvec, c, self.noise, n) for c in self.c]


@dataclass(frozen=True)
class ExplicitGrid:
    """Cells given directly as (p11, p10, p01, p00) tuples."""

    cells_spec: Tuple[Tuple[float, float, float, float], ...]

    def cells(self, n: int) -> List[SweepCell]:
        return [_cell(f"p[{k}]", PVec, *cell) for k, cell in enumerate(self.cells_spec)]


@dataclass(frozen=True)
class SubsamplingGrid:
    """Product grid over parent density r and retention rates sa, sb."""

    r: Tuple[float, ...]
    sa: Tuple[float, ...]
    sb: Tuple[float, ...]

    def cells(self, n: int) -> List[SweepCell]:
        def pvec(*rates):
            return subsampling_to_pvec(SubsamplingParams(*rates))

        return [_cell(f"r={r:g},sa={sa:g},sb={sb:g}", pvec, r, sa, sb)
                for r in self.r for sa in self.sa for sb in self.sb]


GridSpec = Union[CGrid, ExplicitGrid, SubsamplingGrid]


def read_text(path, what: str) -> str:
    """The text of the UTF-8 file at path; other bytes raise ConfigError naming what."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path} is not UTF-8 text: {exc}") from exc


def require_writable(path) -> None:
    """Refuse with ConfigError a non-path, an empty path, a directory or a path in a missing one."""
    if not isinstance(path, (str, os.PathLike)):
        raise ConfigError(f"out must be a path, got {path!r}")
    if not os.fspath(path):
        raise ConfigError("cannot write '': an empty path names no file")
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: it is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"cannot write {path}: no directory {os.path.dirname(path)}")


def read_config(path) -> Dict:
    """The JSON object in the file at path; anything else raises ConfigError."""
    try:
        d = json.loads(read_text(path, "config"))
    except ValueError as exc:  # malformed JSON, or an integer past the digit limit of int()
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(d, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return d


@dataclass(frozen=True)
class SweepConfig:
    n: int
    trials: int
    seed: int
    grid: GridSpec
    out: Optional[str] = None
    threads: int = 1
    cap: int = DEFAULT_ENUM_CAP

    def __post_init__(self):
        for name, low in (("trials", 1), ("n", 2), ("threads", 1), ("cap", 1)):
            count(name, getattr(self, name), low, error=ConfigError)
        count("seed", self.seed, 0, ("2^64 - 1", _MASK64), error=ConfigError)
        if self.out is not None:
            require_writable(self.out)

    def cells(self) -> List[SweepCell]:
        return self.grid.cells(self.n)

    @classmethod
    def from_dict(cls, d: Dict) -> "SweepConfig":
        try:
            grid_spec = d["grid"]
            kind = grid_spec["kind"]
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"config missing grid.kind: {exc}") from exc
        def listed(what, value):
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{what} must be a list, got {value!r}")
            return tuple(value)

        def reals(what, value):
            """listed(what, value), each entry a real that a float can hold."""
            for v in listed(what, value):
                real(v, lambda x: True, f"{what} has a malformed entry", ConfigError)
            return tuple(value)

        grid: GridSpec
        if kind == "c_grid":
            noise = real(grid_spec.get("noise", 0.0), lambda x: True, "grid.noise must be a number",
                         ConfigError)
            grid = CGrid(reals("grid.c", grid_spec.get("c")), noise)
        elif kind == "pvec":
            cells = listed("grid.cells", grid_spec.get("cells"))
            grid = ExplicitGrid(tuple(reals(f"grid.cells[{k}]", c) for k, c in enumerate(cells)))
        elif kind == "subsampling":
            grid = SubsamplingGrid(
                *(reals(f"grid.{key}", grid_spec.get(key)) for key in ("r", "sa", "sb"))
            )
        else:
            raise ConfigError(f"unknown grid kind {kind!r}")
        try:
            return cls(n=d["n"], trials=d["trials"], seed=d.get("seed", 0), grid=grid,
                       out=d.get("out"), threads=d.get("threads", 1),
                       cap=d.get("cap", DEFAULT_ENUM_CAP))
        except KeyError as exc:
            raise ConfigError(f"malformed sweep config: missing {exc}") from exc


def run_trial(n: int, p: PVec, seed: int, cap: int = DEFAULT_ENUM_CAP, cell_id: str = "") -> TrialResult:
    """One alignment trial: sample a pair and score its MAP alignment.

    The graphs match ``sample_pair(n, p, seed)`` exactly and are scored as
    sampled, with the identity as the planted alignment: relabelling the
    first graph by a uniform permutation would only permute the n! scores,
    so no field would change.  CapExceededError is raised before anything
    is drawn when n > cap or the draw would pass SCAN_BYTE_BUDGET.

    An identical pair (every noiseless trial) is scored without a scan: the
    planted alignment scores 0, so Q is the coset of Aut(gb) through it and
    |Q| = |Aut(gb)|, which automorphism_count finds by a rigidity
    certificate or by refinement.  The gap is half of
    runner_up_distance(gb), found where the scan would fit and None past
    it; that search is handed |Aut(gb)|, so gb is refined once per trial.
    Noisy pairs are scanned in scan_order, so past the scan's byte budget
    they raise CapExceededError.
    """
    t0 = time.perf_counter()
    require_cap(n, cap, "a trial")
    ga_bits, gb_bits = sample_bits(n, p, seed)
    gb = Graph(n, gb_bits)
    if np.array_equal(ga_bits, gb_bits):
        aut = automorphism_count(gb, cap=cap)
        gap = runner_up_distance(gb, aut=aut) // 2 if scan_fits(n) else None
        q_size, strict, eta, gw = aut, aut == 1, unit_fraction(aut), gb
    else:
        ga = Graph(n, ga_bits)
        res = map_estimate(*scan_order(ga, gb), cap=cap)
        gw = intersection(ga, gb)
        aut = automorphism_count(gw, cap=cap)
        q_size, strict, eta, gap = res.q_size, res.strict_success, res.eta, res.min_delta_nonid
    return TrialResult(
        cell=cell_id,
        seed=seed,
        strict_success=strict,
        q_size=q_size,
        eta=eta,
        min_delta_nonid=gap,
        m_intersection=gw.edge_count,
        aut_intersection=aut,
        wall_time=time.perf_counter() - t0,
    )


@dataclass(frozen=True)
class SweepResult:
    rows: Tuple[Dict, ...]
    csv_text: str
    path: Optional[str]
    trial_results: Tuple[Tuple[TrialResult, ...], ...]


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Run every cell of the grid and write the aggregate CSV.

    Deterministic for a fixed config and master seed, independent of the
    thread count: results are gathered in (cell, trial) order before any
    aggregation.
    """
    cells = cfg.cells()
    results: List[List[Optional[TrialResult]]] = [[None] * cfg.trials for _ in cells]

    def run_share(k: int) -> None:
        """Trials k, k + threads, ... of the (cell, trial) order."""
        for task in range(k, len(cells) * cfg.trials, cfg.threads):
            ci, ti = divmod(task, cfg.trials)
            cell = cells[ci]
            results[ci][ti] = run_trial(
                cfg.n, cell.p, (cfg.seed + ti) & _MASK64, cap=cfg.cap, cell_id=cell.cell_id
            )

    if cfg.threads > 1:
        # one strided share per worker: no future or task tuple per trial
        with ThreadPoolExecutor(max_workers=cfg.threads) as ex:
            for fut in [ex.submit(run_share, k) for k in range(cfg.threads)]:
                fut.result()
    else:
        run_share(0)

    rows: List[Dict] = []
    for cell, trs in zip(cells, results):
        trials = cfg.trials
        strict_rate = Fraction(sum(1 for tr in trs if tr.strict_success), trials)
        mean_eta = sum((tr.eta for tr in trs), Fraction(0)) / trials
        mean_q = Fraction(sum(tr.q_size for tr in trs), trials)
        mean_aut = Fraction(sum(tr.aut_intersection for tr in trs), trials)
        values = (cfg.n, *cell.p.as_floats(), trials, float(strict_rate), float(mean_eta),
                  float(mean_q), float(mean_aut), cfg.seed)
        rows.append({"cell": cell.cell_id, **dict(zip(CSV_COLUMNS, values))})

    # repr of an int is its str, and of a float the shortest round-trip form
    lines = [CSV_HEADER] + [",".join(repr(r[k]) for k in CSV_COLUMNS) for r in rows]
    csv_text = "\n".join(lines) + "\n"
    path = None
    if cfg.out is not None:
        path = str(cfg.out)
        with open(path, "w", newline="") as fh:
            fh.write(csv_text)
    return SweepResult(
        rows=tuple(rows),
        csv_text=csv_text,
        path=path,
        trial_results=tuple(tuple(trs) for trs in results),
    )


# ---------------------------------------------------------------------------
# SVG emission

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_VIEW_W, _VIEW_H = 800, 600
_ML, _MR, _MT, _MB = 70, 150, 40, 60


def emit_plot(rows, out_path) -> str:
    """Render sweep rows (dicts with n, p11 and strict_rate) as an SVG threshold plot.

    x is p11 * n / ln(n) (so the predicted threshold sits at x = 1, marked
    by a dashed reference line), y is the strict recovery rate, one
    polyline per n.
    """
    pts_by_n: Dict[int, List[Tuple[float, float]]] = {}
    for r in rows:
        x = r["p11"] * r["n"] / log(r["n"])
        pts_by_n.setdefault(r["n"], []).append((x, r["strict_rate"]))

    xs = [x for pts in pts_by_n.values() for x, _ in pts] + [1.0]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi - x_lo < 1e-9:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    pad = 0.05 * (x_hi - x_lo)
    x_lo, x_hi = x_lo - pad, x_hi + pad
    if not rows:
        x_lo, x_hi = 0.0, 2.0

    w_in = _VIEW_W - _ML - _MR
    h_in = _VIEW_H - _MT - _MB

    def sx(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * w_in

    def sy(y: float) -> float:
        return _MT + (1.0 - y) * h_in

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_VIEW_W} {_VIEW_H}" '
        f'width="{_VIEW_W}" height="{_VIEW_H}">',
        f'<rect x="0" y="0" width="{_VIEW_W}" height="{_VIEW_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{w_in}" height="{h_in}" fill="none" '
        f'stroke="#333" stroke-width="1"/>',
    ]
    # axes ticks
    for k in range(5):
        yv = k / 4
        y = sy(yv)
        parts.append(
            f'<line x1="{_ML - 5}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_ML - 10}" y="{y + 4:.1f}" text-anchor="end" font-size="12">{yv:.2f}</text>'
        )
    for k in range(6):
        xv = x_lo + k * (x_hi - x_lo) / 5
        x = sx(xv)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_MT + h_in}" x2="{x:.1f}" y2="{_MT + h_in + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_MT + h_in + 20}" text-anchor="middle" font-size="12">{xv:.2f}</text>'
        )
    parts.append(
        f'<text x="{_ML + w_in / 2:.1f}" y="{_VIEW_H - 15}" text-anchor="middle" '
        f'font-size="14">p11 &#183; n / ln n</text>'
    )
    parts.append(
        f'<text x="20" y="{_MT + h_in / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 20 {_MT + h_in / 2:.1f})">strict recovery rate</text>'
    )
    # threshold reference
    xr = sx(1.0)
    parts.append(
        f'<line class="threshold-ref" x1="{xr:.1f}" y1="{_MT}" x2="{xr:.1f}" '
        f'y2="{_MT + h_in}" stroke="#d62728" stroke-width="1" stroke-dasharray="6 4"/>'
    )
    parts.append(
        f'<text x="{xr + 4:.1f}" y="{_MT + 14}" font-size="12" fill="#d62728">x=1</text>'
    )
    # data
    legend_y = _MT + 10
    for idx, n in enumerate(sorted(pts_by_n)):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = sorted(pts_by_n[n])
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        if len(pts) > 1:
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
            )
        for x, y in pts:
            parts.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3.5" fill="{color}"/>'
            )
        lx = _VIEW_W - _MR + 15
        parts.append(
            f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 25}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 32}" y="{legend_y + 4}" font-size="12">n={n}</text>'
        )
        legend_y += 18
    parts.append("</svg>")
    svg = "\n".join(parts) + "\n"
    with open(out_path, "w") as fh:
        fh.write(svg)
    return svg


# ---------------------------------------------------------------------------
# Generating-function verification suite

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    checks: Tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> List[str]:
        return [
            f"{'PASS' if c.passed else 'FAIL'} {c.name}" + (f"  ({c.detail})" if c.detail else "")
            for c in self.checks
        ]


def _random_wmatrix(rnd: random.Random) -> WMatrix:
    return WMatrix(
        *(Fraction(rnd.randint(1, 9), rnd.randint(1, 9)) for _ in range(4))
    )


def verify_gf(depth: int = 8) -> VerifyReport:
    """Run the generating-function identity and inequality suites up to `depth`."""
    depth = count("depth", depth, 1, ("8", 8))
    rnd = random.Random(0x5EED5)
    checks: List[CheckResult] = []

    def run_check(name, fn):
        try:
            detail = fn()
            checks.append(CheckResult(name, True, detail or ""))
        except AssertionError as exc:
            checks.append(CheckResult(name, False, str(exc)))

    def closed_vs_enum():
        for ell in range(1, depth + 1):
            for _ in range(3):
                w = _random_wmatrix(rnd)
                got = cycle_gf(ell, w)
                want = cycle_gf_enum(ell, w)
                assert got == want, f"cycle length {ell}: closed form != enumeration"
        return f"lengths 1..{depth}"

    def double_vs_shift():
        for ell in range(1, depth + 1):
            x, y = _random_wmatrix(rnd), _random_wmatrix(rnd)
            lhs = double_type_sum(ell, x, y)
            rhs = shift_type_sum(ell, x.matmul_transpose(y))
            assert lhs == rhs, f"cycle length {ell}: pair sum != product-matrix sum"
        return f"lengths 1..{depth}"

    def shift_vs_block():
        for ell in range(1, depth + 1):
            x = _random_wmatrix(rnd)
            lhs = shift_type_sum(ell, x)
            rhs = block_gf(ell, x.trace, -x.det)
            assert lhs == rhs, f"cycle length {ell}: shift-type sum != block closed form"
        return f"lengths 1..{depth}"

    def reweight_equiv():
        for ell in range(1, depth + 1):
            x, y = _random_wmatrix(rnd), _random_wmatrix(rnd)
            z = (y.w01 * y.w10) / (y.w00 * y.w11)
            lhs = cycle_gf(ell, x.hadamard(y)).evaluate(z)
            rhs = double_type_sum(ell, x, y)
            assert lhs == rhs, f"cycle length {ell}: reweighted evaluation != pair sum"
        return f"lengths 1..{depth}"

    def two_cycle_domination():
        zs = [Fraction(1, 16), Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3), Fraction(4)]
        for ell in range(2, depth + 1):
            for _ in range(3):
                w = _random_wmatrix(rnd)
                a2 = cycle_gf(2, w)
                al = cycle_gf(ell, w)
                for z in zs:
                    lhs = al.evaluate(z)
                    rhs = a2.evaluate(z)
                    assert lhs >= 0 and rhs >= 0
                    assert lhs**2 <= rhs**ell, (
                        f"cycle length {ell} at z={z}: single-cycle value exceeds "
                        f"two-cycle power"
                    )
        return f"lengths 2..{depth}, 7-point z grid"

    def hyp_vs_bin():
        zs = [Fraction(1, 8), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(8)]
        top = 10
        for m in range(1, top + 1):
            for a in range(m + 1):
                for b in range(m + 1):
                    h = hyp_pgf(a, b, m)
                    g = bin_pgf(a, b, m)
                    for z in zs:
                        assert h.evaluate(z) <= g.evaluate(z), (
                            f"Hyp({a},{b},{m}) > Bin at z={z}"
                        )
        return f"all a,b <= n <= {top}, 5-point z grid"

    run_check("cycle-closed-vs-enum", closed_vs_enum)
    run_check("double-type-vs-shift-type", double_vs_shift)
    run_check("shift-type-vs-block", shift_vs_block)
    run_check("reweight-equivalence", reweight_equiv)
    run_check("two-cycle-domination", two_cycle_domination)
    run_check("hyp-vs-bin", hyp_vs_bin)
    return VerifyReport(tuple(checks))
