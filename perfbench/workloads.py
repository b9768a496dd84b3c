"""The benchmark's workloads: input synthesis and pipeline config.

Every workload runs ``RnnotatorPipeline().run`` with the default
``CostModel``; only the dataset and the ``PipelineConfig`` differ.  The
reads are synthesized from the benchmark seed alone, so the same seed
gives the same input.  ``tiny=True`` shrinks every input to 500
fragments, which keeps the benchmark's own tests fast while running the
identical pipeline path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.rnnotator import PipelineConfig
from repro.seq.datasets import Dataset, tiny_dataset
from repro.seq.reads import ReadSimulator

#: The four assemblers of the Fig. 4 MAMP run.
MAMP_ASSEMBLERS = ("ray", "abyss", "velvet", "trinity")

#: Pool size of the process-backend workloads (the 2-core reference host).
POOL_WORKERS = 2

#: Seed of the synthetic organism: the genome and expression profile of
#: ``tiny_dataset``.  The benchmark seed re-sequences this one organism,
#: so the reads differ from seed to seed while the transcripts, and with
#: them the amount of assembly work, stay the same.
ORGANISM_SEED = 0

#: Fragments sequenced in tiny mode.
TINY_FRAGMENTS = 500


@dataclass(frozen=True)
class Workload:
    name: str
    paired: bool
    #: Sequenced fragments (read pairs when ``paired``).
    fragments: int
    assemblers: tuple[str, ...] = MAMP_ASSEMBLERS
    #: None: the data-dependent k list (51..63 for 100 bp reads).
    kmer_list: tuple[int, ...] | None = (25, 31)
    #: "process" runs the fan-out on a POOL_WORKERS pool.
    executor: str = "process"
    #: Every timed run replays a checkpoint directory that an untimed
    #: seeding run filled first.
    resumes: bool = False
    #: Every timed run gets a fresh, empty checkpoint directory.
    fresh_checkpoint: bool = False

    def dataset(self, seed: int, tiny: bool = False) -> Dataset:
        # The smallest boost: only the organism is kept from this call.
        organism = tiny_dataset(
            paired=self.paired, seed=ORGANISM_SEED, coverage_boost=0.1
        )
        reads = replace(
            organism.run.spec,
            n_reads=TINY_FRAGMENTS if tiny else self.fragments,
            seed=seed,
        )
        run = ReadSimulator(organism.transcriptome, reads).run()
        return replace(organism, run=run)

    def config(self, checkpoint_dir: str | None) -> PipelineConfig:
        # The assembly cache would turn every warm run into cache hits.
        return PipelineConfig(
            assemblers=self.assemblers,
            kmer_list=self.kmer_list,
            executor=self.executor,
            executor_workers=POOL_WORKERS if self.executor == "process" else None,
            assembly_cache=False,
            checkpoint_dir=checkpoint_dir,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # 2 x 4k reads, a third of tiny_dataset(paired=True,
        # coverage_boost=3), so that the five rounds of an execution
        # (2.5-5 s runs) fit the benchmark's time budget.
        Workload(
            "pe_highk_serial",
            paired=True,
            fragments=4_000,
            assemblers=("ray",),
            kmer_list=None,
            executor="serial",
            fresh_checkpoint=True,
        ),
        # The Fig. 4 MAMP run on the read count of
        # tiny_dataset(coverage_boost=10), 40k.
        Workload("ckpt_resume", paired=False, fragments=40_000, resumes=True),
    )
}
