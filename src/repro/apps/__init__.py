"""The paper's evaluation applications.

* :mod:`repro.apps.overlap` — the Fig. 4 microbenchmark
  (``isend → compute → swait`` on both sides) used for §4.1 (small-message
  offloading, Fig. 5) and §4.2 (rendezvous progression, Fig. 6);
* :mod:`repro.apps.convolution` — the §4.3 meta-application: a
  convolution-like stencil with one MPI process per node and several
  computing threads, mixing intra-node (shared-memory) and inter-node (NIC)
  traffic (Fig. 7/8, Table 1);
* :mod:`repro.apps.workloads` — generic synthetic workload generators used
  by extra examples and ablation benches.
"""

from .convolution import ConvolutionConfig, ConvolutionResult, run_convolution
from .overlap import OverlapConfig, OverlapResult, run_overlap
from .workloads import Phase, irregular_phases, master_worker_plan, uniform_phases

__all__ = [
    "OverlapConfig",
    "OverlapResult",
    "run_overlap",
    "ConvolutionConfig",
    "ConvolutionResult",
    "run_convolution",
    "Phase",
    "uniform_phases",
    "irregular_phases",
    "master_worker_plan",
]
