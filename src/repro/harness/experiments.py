"""The paper's experiments, parameterized and reusable.

Each ``experiment_*`` function returns a structured result whose
``format()`` prints the same rows/series the paper reports. Benchmarks in
``benchmarks/`` call these; EXPERIMENTS.md records paper-vs-measured.

Calibration note (see DESIGN.md §2/§6): the meta-application's matrix
dimensions are not given in the paper, so the two Table 1 configurations
are calibrated workloads — the reproduced quantities are the execution-time
*scale* and the offloading speedup (paper: 14 % / 13 %).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..apps.convolution import ConvolutionConfig, run_convolution
from ..apps.overlap import OverlapConfig, run_overlap
from ..config import EngineKind, TimingModel
from ..units import KiB
from .executors import ExecutionConfig, make_executor
from .parallel import ExecutionLike, run_grid
from .report import ascii_plot, format_series_table, format_table

__all__ = [
    "FigureResult",
    "Table1Result",
    "FIG5_SIZES",
    "FIG6_SIZES",
    "TABLE1_CONFIGS",
    "experiment_fig5",
    "experiment_fig6",
    "experiment_table1",
    "run_all_experiments",
    "save_results_json",
]

#: Fig. 5 x-axis: 1K … 32K (the MX eager domain)
FIG5_SIZES: tuple[int, ...] = tuple(KiB(1 << i) for i in range(0, 6))  # 1K..32K
#: Fig. 6 x-axis: 8K … 512K (crosses the 32K rendezvous threshold)
FIG6_SIZES: tuple[int, ...] = tuple(KiB(8 << i) for i in range(0, 7))  # 8K..512K

#: Table 1 calibrated configurations: (label, grid, msg, frontier, interior)
TABLE1_CONFIGS: tuple[tuple[str, tuple[int, int], int, float, float], ...] = (
    ("4 threads", (2, 2), 6144, 45.0, 310.0),
    ("16 threads", (4, 4), 2560, 105.0, 860.0),
)


@dataclass
class FigureResult:
    """Data behind one figure: x values and named series."""

    name: str
    title: str
    x_values: list[int]
    series: dict[str, list[float]] = field(default_factory=dict)
    compute_us: float = 0.0

    def to_dict(self) -> dict:
        """JSON-serializable form (machine-readable CI artifacts)."""
        return {
            "name": self.name,
            "title": self.title,
            "x_values": list(self.x_values),
            "series": {k: list(v) for k, v in self.series.items()},
            "compute_us": self.compute_us,
            "crossover_size": self.crossover_size(),
        }

    def format(self, plot: bool = True) -> str:
        out = format_series_table(self.x_values, self.series, title=self.title)
        if plot:
            out += "\n\n" + ascii_plot(self.x_values, self.series, title=f"{self.name} (shape)")
        return out

    def crossover_size(self, reference: str = "No computation (reference)") -> Optional[int]:
        """First size where the reference communication time exceeds the
        computation time — where the paper measures the 2 µs overhead."""
        ref = self.series.get(reference)
        if ref is None:
            return None
        for x, y in zip(self.x_values, ref):
            if y >= self.compute_us:
                return x
        return None


@dataclass
class Table1Result:
    """Rows of Table 1: per-configuration times and speedups."""

    rows: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-serializable form (machine-readable CI artifacts)."""
        return {"name": "table1", "rows": [dict(r) for r in self.rows]}

    def format(self) -> str:
        headers = ["", *[r["label"] for r in self.rows]]
        no_off = ["No offloading", *[f"{r['no_offloading_us']:.0f}µs" for r in self.rows]]
        off = ["Offloading", *[f"{r['offloading_us']:.0f}µs" for r in self.rows]]
        sp = ["Speedup", *[f"{r['speedup_pct']:.0f} %" for r in self.rows]]
        return format_table(
            headers,
            [no_off, off, sp],
            title="Table 1. Impact of the number of threads on the communication offloading.",
        )

    def speedup(self, label: str) -> float:
        for r in self.rows:
            if r["label"] == label:
                return r["speedup_pct"]
        raise KeyError(label)


def _overlap_point(
    engine: str,
    size: int,
    compute_us: float,
    iterations: int,
    timing: Optional[TimingModel],
) -> float:
    """One overlap grid point (top-level so parallel workers can import it)."""
    return run_overlap(
        OverlapConfig(
            engine=engine, size=size, compute_us=compute_us,
            iterations=iterations, timing=timing,
        )
    ).per_iteration_us


def _overlap_series(
    sizes: Sequence[int],
    compute_us: float,
    iterations: int,
    timing: Optional[TimingModel],
    execution: ExecutionLike,
) -> tuple[list[float], list[float], list[float]]:
    tasks = [
        dict(engine=engine, size=size, compute_us=c, iterations=iterations, timing=timing)
        for engine, c in (
            (EngineKind.SEQUENTIAL, 0.0),
            (EngineKind.SEQUENTIAL, compute_us),
            (EngineKind.PIOMAN, compute_us),
        )
        for size in sizes
    ]
    times = run_grid(_overlap_point, tasks, execution=execution)
    n = len(sizes)
    return times[:n], times[n : 2 * n], times[2 * n :]


def experiment_fig5(
    sizes: Sequence[int] = FIG5_SIZES,
    compute_us: float = 20.0,
    iterations: int = 20,
    timing: Optional[TimingModel] = None,
    execution: ExecutionLike = None,
) -> FigureResult:
    """§4.1 / Fig. 5 — small-message submission offloading.

    Series: *No computation (reference)*, *No copy offloading* (sequential
    baseline), *copy offloading* (PIOMan). Expected shapes: baseline =
    reference + compute; PIOMan = max(reference, compute) (+≈2 µs at the
    crossover). ``execution`` may run the grid points on a process pool
    (results identical to serial — see :mod:`repro.harness.parallel`).
    """
    ref, base, piom = _overlap_series(sizes, compute_us, iterations, timing, execution)
    return FigureResult(
        name="fig5",
        title="Figure 5. Small messages offloading results.",
        x_values=list(sizes),
        series={
            "No computation (reference)": ref,
            "No copy offloading": base,
            "copy offloading": piom,
        },
        compute_us=compute_us,
    )


def experiment_fig6(
    sizes: Sequence[int] = FIG6_SIZES,
    compute_us: float = 100.0,
    iterations: int = 20,
    timing: Optional[TimingModel] = None,
    execution: ExecutionLike = None,
) -> FigureResult:
    """§4.2 / Fig. 6 — rendezvous handshake progression.

    Series: *No RDV progression* (sequential baseline), *RDV progression*
    (PIOMan), *No computation (reference)*. Expected: baseline =
    sum(compute, comm), PIOMan = max(compute, comm).
    """
    ref, base, piom = _overlap_series(sizes, compute_us, iterations, timing, execution)
    return FigureResult(
        name="fig6",
        title="Figure 6. Offloading of rendezvous progression results.",
        x_values=list(sizes),
        series={
            "No RDV progression": base,
            "RDV progression": piom,
            "No computation (reference)": ref,
        },
        compute_us=compute_us,
    )


def _convolution_point(
    engine: str,
    grid_rows: int,
    grid_cols: int,
    msg_size: int,
    frontier_compute_us: float,
    interior_compute_us: float,
    iterations: int,
    timing: Optional[TimingModel],
) -> float:
    """One Table 1 cell (top-level so parallel workers can import it)."""
    return run_convolution(
        ConvolutionConfig(
            engine=engine,
            grid_rows=grid_rows,
            grid_cols=grid_cols,
            msg_size=msg_size,
            frontier_compute_us=frontier_compute_us,
            interior_compute_us=interior_compute_us,
            iterations=iterations,
            timing=timing,
        )
    ).per_iteration_us


def experiment_table1(
    configs=TABLE1_CONFIGS,
    iterations: int = 1,
    timing: Optional[TimingModel] = None,
    execution: ExecutionLike = None,
) -> Table1Result:
    """§4.3 / Table 1 — convolution meta-application, offloading on/off."""
    engines = (EngineKind.SEQUENTIAL, EngineKind.PIOMAN)
    tasks = [
        dict(
            engine=engine, grid_rows=rows, grid_cols=cols, msg_size=msg,
            frontier_compute_us=frontier, interior_compute_us=interior,
            iterations=iterations, timing=timing,
        )
        for _label, (rows, cols), msg, frontier, interior in configs
        for engine in engines
    ]
    times = run_grid(_convolution_point, tasks, execution=execution)
    result = Table1Result()
    for i, (label, *_rest) in enumerate(configs):
        base = times[i * len(engines)]
        piom = times[i * len(engines) + 1]
        result.rows.append(
            {
                "label": label,
                "no_offloading_us": base,
                "offloading_us": piom,
                "speedup_pct": (base - piom) / base * 100.0,
            }
        )
    return result


def run_all_experiments(
    iterations: int = 20,
    timing: Optional[TimingModel] = None,
    execution: ExecutionLike = None,
) -> dict[str, "FigureResult | Table1Result"]:
    """Run the paper's full evaluation; returns results keyed by name.

    ``execution`` selects the engine for every sub-experiment. A config
    is turned into one executor shared by all three, so a pool is
    spawned at most once."""
    owned = execution is None or isinstance(execution, ExecutionConfig)
    exe = make_executor(execution) if owned else execution
    try:
        return {
            "fig5": experiment_fig5(iterations=iterations, timing=timing, execution=exe),
            "fig6": experiment_fig6(iterations=iterations, timing=timing, execution=exe),
            "table1": experiment_table1(timing=timing, execution=exe),
        }
    finally:
        if owned:
            exe.close()


def save_results_json(results: dict, path: str) -> None:
    """Write experiment results as JSON (machine-readable CI artifact)."""
    import json

    doc = {name: res.to_dict() for name, res in results.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
