"""Declarative multi-job pipelines over a pluggable filesystem.

The paper's system is a pipeline of MapReduce jobs wired through the
distributed filesystem (similarity join: term-bounds → candidates →
verify; matching: one job per iteration).  :class:`Pipeline` captures
that wiring declaratively so stages can be inspected, re-run, and
tested individually — the shape a production Hadoop driver would have.

Stages read and write named datasets on any
:class:`~repro.mapreduce.storage.FileSystem` — the in-memory simulator
store or the out-of-core disk store — inherited from the runtime
(``MapReduceRuntime(storage=...)``) or passed as ``filesystem=`` (an
instance).  Pipeline results are bit-identical across storage
backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from .errors import MapReduceError
from .job import MapReduceJob
from .runtime import MapReduceRuntime
from .storage import FileSystem

__all__ = ["PipelineStage", "Pipeline"]

#: Lazily computed side data: receives the filesystem, returns the
#: mapping shipped to the stage's tasks (e.g. a dict built from a
#: previous stage's output).
SideDataFactory = Callable[[FileSystem], Mapping[str, Any]]


@dataclass
class PipelineStage:
    """One MapReduce job with its input paths and output path."""

    job: MapReduceJob
    inputs: Sequence[str]
    output: str
    side_data: Optional[SideDataFactory] = None

    def describe(self) -> str:
        """One-line human-readable summary of the stage."""
        inputs = ", ".join(self.inputs)
        return f"{self.job.name}: [{inputs}] -> {self.output}"


class Pipeline:
    """Run a sequence of stages on a runtime + filesystem pair.

    Without a runtime the pipeline builds a default one (serial
    backend, in-memory storage).  The runtime brings its own backend
    *and* its own filesystem; pass ``filesystem=`` to override the
    latter.

    >>> pipeline = Pipeline()
    >>> _ = pipeline.filesystem.write("/in", [(0, "a b a")])
    >>> # pipeline.add(job, ["/in"], "/out"); pipeline.run()
    """

    def __init__(
        self,
        runtime: Optional[MapReduceRuntime] = None,
        filesystem: Optional[FileSystem] = None,
    ) -> None:
        self.runtime = runtime or MapReduceRuntime()
        self.filesystem: FileSystem = (
            filesystem
            if filesystem is not None
            else self.runtime.filesystem
        )
        self.stages: List[PipelineStage] = []
        self.records_out: Dict[str, int] = {}

    def add(
        self,
        job: MapReduceJob,
        inputs: Sequence[str],
        output: str,
        side_data: Optional[SideDataFactory] = None,
    ) -> "Pipeline":
        """Append a stage; returns ``self`` for chaining."""
        self.stages.append(
            PipelineStage(
                job=job,
                inputs=list(inputs),
                output=output,
                side_data=side_data,
            )
        )
        return self

    def validate(self) -> None:
        """Check stage wiring before running anything.

        Every stage's inputs must exist on the filesystem already or be
        produced by an *earlier* stage, and no two stages may write the
        same output.
        """
        produced = set()
        for stage in self.stages:
            for path in stage.inputs:
                if path not in produced and not self.filesystem.exists(
                    path
                ):
                    raise MapReduceError(
                        f"stage {stage.job.name!r} reads {path!r}, which "
                        "no earlier stage produces and which does not "
                        "exist"
                    )
            if stage.output in produced:
                raise MapReduceError(
                    f"two stages write to {stage.output!r}"
                )
            produced.add(stage.output)

    def run(self) -> List[tuple]:
        """Execute all stages in order; returns the last stage's output.

        Stage outputs *stream* from the runtime's reduce tasks straight
        into ``filesystem.write`` (:meth:`~repro.mapreduce.runtime.
        MapReduceRuntime.run_iter`) — no stage's output is ever
        materialized as one driver-side list, which is what lets a
        disk-backed pipeline honor the out-of-core storage contract.
        ``records_out`` is the count each ``filesystem.write`` returns
        (equal to ``du(path).records``, without asking the filesystem
        to size the dataset); the return value is the last stage's
        dataset read back (bit-identical to the reduce output by the
        storage codec contract).
        """
        self.validate()
        last_output: Optional[str] = None
        for stage in self.stages:
            # A stage span wraps the job's whole lifecycle, including
            # streaming the reduce output into the filesystem — the
            # write cost belongs to the stage, not to any phase.
            with self.runtime._span(
                f"stage:{stage.job.name}",
                kind="stage",
                output=stage.output,
            ):
                records = self.filesystem.read_many(stage.inputs)
                side = (
                    stage.side_data(self.filesystem)
                    if stage.side_data is not None
                    else None
                )
                stream = self.runtime.run_iter(
                    stage.job, records, side_data=side
                )
                self.records_out[stage.output] = self.filesystem.write(
                    stage.output, stream, overwrite=True
                )
                last_output = stage.output
        if last_output is None:
            return []
        return self.filesystem.read(last_output)

    def describe(self) -> str:
        """Multi-line summary of the pipeline's wiring and storage use.

        For every stage whose output dataset exists (i.e. after
        :meth:`run`), the line carries the dataset's ``du`` stats —
        record and byte counts — the numbers that guide
        ``spill_threshold`` tuning::

            simjoin-candidates: [/simjoin/documents] -> /simjoin/candidates  [464 records, 93.2 kB]
        """
        lines = []
        for stage in self.stages:
            line = stage.describe()
            if self.filesystem.exists(stage.output):
                stats = self.filesystem.du(stage.output)
                line += (
                    f"  [{stats.records} records, "
                    f"{_human_bytes(stats.bytes)}]"
                )
            lines.append(line)
        return "\n".join(lines)


def _human_bytes(count: int) -> str:
    """``1234567 -> '1.2 MB'`` (SI units, one decimal)."""
    size = float(count)
    for unit in ("B", "kB", "MB", "GB"):
        if size < 1000 or unit == "GB":
            if unit == "B":
                return f"{int(size)} {unit}"
            return f"{size:.1f} {unit}"
        size /= 1000.0
    return f"{int(count)} B"  # pragma: no cover - unreachable
