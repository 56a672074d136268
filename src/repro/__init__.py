"""repro — a reproduction of "The OpenMP Cluster Programming Model"
(Yviquel et al., ICPP 2022).

OMPC distributes OpenMP ``target`` tasks across cluster nodes by hiding
MPI data movement and HEFT scheduling behind task dependences.  This
package rebuilds the complete system on a deterministic discrete-event
cluster simulator:

* :mod:`repro.sim` — the simulation kernel;
* :mod:`repro.cluster` — nodes, the fair-share network, tracing;
* :mod:`repro.mpi` — simulated MPI (matching, reliable transport, VCIs);
* :mod:`repro.omp` — the OpenMP programming model and host runtime;
* :mod:`repro.core` — OMPC itself: event system, data manager, HEFT
  scheduler, runtime, fault tolerance;
* :mod:`repro.runtimes` — the comparator runtimes (MPI, StarPU-like,
  Charm++-like) of the paper's evaluation;
* :mod:`repro.taskbench` — Task Bench, CCR sizing, METG;
* :mod:`repro.apps.awave` — RTM seismic imaging;
* :mod:`repro.bench` — OMPC Bench (configs, launcher, stats, reports).

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

__version__ = "1.0.0"
