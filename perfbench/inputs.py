"""The benchmark's workloads: which programs run, at what scale, under
which configurations, and how ``--seed`` regenerates their inputs.

Seed ``DEFAULT_SEED`` runs the registered programs unchanged. Any other
seed rebuilds the seed-dependent inputs here, in builders the benchmark
owns: the GAP graph behind ``bfs`` and the pointer-chase permutation
behind ``ptr-chase``/``ptr-chase-dep``. The builders use the programs'
public kernels and register the result under a new workload name, so
the simulator only ever receives a generated program through the same
registry path the registered ones take.
"""

import dataclasses

from repro.compiler import Module, array_ref
from repro.harness.jobs import SimJob
from repro.workloads.gap.bfs import bfs_kernel
from repro.workloads.gap.common import (graph_args, graph_for_scale,
                                        module_with_graph)
from repro.workloads.microbench import (ptr_chase_dep_kernel,
                                        ptr_chase_kernel)
from repro.workloads.registry import get_workload, register, workload_names

DEFAULT_SEED = 0

#: Pointer-chase chain length: 16384 8-byte words (128 KiB), twice the
#: default 64 KiB L1D, as in the registered ``ptr-chase`` programs.
CHASE_WORDS = 16384

#: MSSR configuration of every ``mssr`` job (the paper's 4 streams).
MSSR_PARAMS = {"streams": 4}

#: Sampling spec of the ``sampled`` workload.
SAMPLING = {"interval_insts": 6000}


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload: every round runs ``programs`` (name,
    scale) under each of ``kinds``. ``sampled`` workloads run each
    program sampled under every kind; before the first round, each
    program also gets one untimed full detailed ``baseline`` run, the
    accuracy reference."""

    programs: tuple
    kinds: tuple
    config: tuple = ()
    sampled: bool = False


WORKLOADS = {
    # Frontend, rename, squash and the MSSR controller do the work. The
    # scales are the ones the repository's own experiments use: 0.2 for
    # the Table-1 microbenchmarks (``table1_microbench``), the harness
    # default 0.15 for the others.
    "detail-branchy": Workload(
        programs=(("nested-mispred", 0.2), ("linear-mispred", 0.2),
                  ("leela", 0.15), ("xz", 0.15), ("bfs", 0.15),
                  ("gobmk", 0.15)),
        kinds=("baseline", "mssr")),
    # L1D-missing chains on the ported memory system; MSSR idles.
    "detail-membound": Workload(
        programs=(("ptr-chase", 2.0), ("ptr-chase-dep", 2.0),
                  ("mcf", 0.5)),
        kinds=("baseline",),
        config=(("mem.model", "ported"),)),
    # Emulator profiling, SimPoint and checkpoint capture, then short
    # warm-started intervals; the mssr run reads the baseline's
    # checkpoints.
    "sampled": Workload(
        programs=(("leela", 2.0), ("xz", 2.0), ("mcf", 2.0)),
        kinds=("baseline", "mssr"),
        sampled=True),
}

@dataclasses.dataclass(frozen=True)
class Op:
    """One operation: one :class:`SimJob`."""

    program: str
    job: SimJob

    @property
    def sampled(self):
        return self.job.sampling is not None


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------
def _mix(seed, salt):
    """A 64-bit input seed derived from the benchmark seed (splitmix64)."""
    z = (seed * 0x9E3779B97F4A7C15 + salt) & (2 ** 64 - 1)
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (2 ** 64 - 1)
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (2 ** 64 - 1)
    return (z ^ (z >> 31)) or 1


def chase_permutation(seed, words=CHASE_WORDS):
    """One full cycle over ``range(words)`` by Sattolo's algorithm,
    driven by a 64-bit LCG started at ``seed``."""
    perm = list(range(words))
    state = seed
    for i in range(words - 1, 0, -1):
        state = (state * 6364136223846793005 + 1442695040888963407) \
            % (1 << 64)
        j = state % i
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _bfs_builder(seed):
    def build(scale=1.0):
        graph = graph_for_scale(scale, seed=_mix(seed, 11))
        mod = module_with_graph(graph, bfs_kernel)
        mod.array("parent", graph.num_nodes)
        mod.array("queue", graph.num_nodes + 1)
        prog = mod.build("bfs_kernel", graph_args() + [
            graph.num_nodes, array_ref("parent"), array_ref("queue"), 0])
        return mod, prog
    return build


def _chase_builder(kernel, seed):
    def build(scale=1.0):
        mod = Module()
        mod.add_function(kernel)
        mod.array("chain", chase_permutation(_mix(seed, 0xC0FFEE)))
        iterations = max(16, int(350 * scale))
        prog = mod.build(kernel.__name__, [array_ref("chain"), iterations])
        return mod, prog
    return build


def _seeded_builders(seed):
    return {
        "bfs": ("gap", _bfs_builder(seed)),
        "ptr-chase": ("mem", _chase_builder(ptr_chase_kernel, seed)),
        "ptr-chase-dep": ("mem", _chase_builder(ptr_chase_dep_kernel,
                                                seed)),
    }


#: Programs whose input ``--seed`` regenerates.
SEEDED = frozenset(_seeded_builders(DEFAULT_SEED))


def program_name(program, seed):
    """Registry name of ``program``'s input under ``seed`` (registering
    the generated program on first use)."""
    builders = _seeded_builders(seed)
    if seed == DEFAULT_SEED or program not in builders:
        return program
    name = "%s-seed%d" % (program, seed)
    if name not in workload_names():
        suite, builder = builders[program]
        register(name, suite, "%s regenerated from benchmark seed %d"
                 % (program, seed))(builder)
    return name


def workload_ops(workload_name, seed):
    """The operations of one round of ``workload_name``, in order."""
    spec = WORKLOADS[workload_name]
    ops = []
    for program, scale in spec.programs:
        name = program_name(program, seed)
        for kind in spec.kinds:
            params = MSSR_PARAMS if kind == "mssr" else {}
            ops.append(Op(program, SimJob(
                name, kind, scale, params=params, config=spec.config,
                sampling=SAMPLING if spec.sampled else None)))
    return ops


def reference_ops(workload_name, seed):
    """The full detailed ``baseline`` run of every program of a sampled
    workload: the accuracy reference, run once per process."""
    spec = WORKLOADS[workload_name]
    if not spec.sampled:
        return []
    return [Op(program, SimJob(program_name(program, seed), "baseline",
                               scale, config=spec.config))
            for program, scale in spec.programs]


def build_programs(ops):
    """Cold-build every program the operations use: drop the registry's
    cached images, compile, and predecode. Returns ``{(registry name,
    scale): (module, program)}``."""
    built = {}
    for op in ops:
        key = (op.job.workload, op.job.scale)
        if key in built:
            continue
        workload = get_workload(op.job.workload)
        workload.clear_cache()
        mod, prog = workload.build(op.job.scale)
        prog.predecode()
        built[key] = (mod, prog)
    return built
