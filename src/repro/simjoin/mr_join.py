"""The MapReduce similarity join (adaptation of Baraglia et al., §5.1).

Pipeline (each step one MapReduce job):

1. **term-bounds** — scan the consumer collection and compute, per term,
   the maximum weight (the pruning bound of the pruned inverted index);
2. **candidates** — build the inverted index: items whose prefix (see
   :mod:`repro.simjoin.prefix_filter`) is non-empty post all their
   terms with weights, consumers post all their terms with weights;
   each reduce hands on its term's two sorted posting lists (item
   postings tagged with whether the term is in the item's prefix);
3. **verify** — each map crosses one term's posting lists into one
   *stripe* per posted item, the list of its per-consumer weight
   products ``w_t(j) · w_c(j)``; the shuffle groups the stripes by
   item, a combiner merges one map task's stripes per item, and the
   reduce sums each consumer's products and keeps the pairs that
   co-occurred on at least one prefix term and reach ``σ``.

The verify stage is a *partial-score kernel* in the style of Vernica
et al. / DISCO (see PAPERS.md): the exact dot product of a pair is
assembled in the shuffle as the sum of its per-term weight products.
Earlier revisions instead shipped both full document stores to every
verify task as side data — the DistributedCache anti-pattern, whose
cost (replicating the corpus to every reduce task) dwarfs the shuffle
it saved.  The trade: candidate map output grows from prefix-only to
all item terms, while verify needs no side data beyond ``σ``.  Jobs 2
and 3 hand over one posting-list record per term, and verify's
shuffle is keyed by item (the "stripes" form of the sum, not one
record per pair): it carries at most one stripe per item per map
task, O(items × map tasks), while the O(pairs) products travel inside
the stripes and are pre-summed per map task.

Pruning still earns its keep in two places: an item whose prefix is
*empty* cannot reach ``σ`` against any consumer and posts nothing at
all, and the prefix-hit count gates verification exactly like the
pruned index used to — a pair sharing no prefix term is provably
sub-threshold (the bound of :mod:`repro.simjoin.prefix_filter`) and is
discarded without a threshold comparison.

The paper reports two MapReduce iterations for the self-join of
Baraglia et al. (term statistics precomputed); our bipartite variant
spends one extra job on the term bounds, which we report honestly in
the job counts.

The join is *exact up to float summation order*: it evaluates the same
mathematical dot product as :func:`repro.simjoin.allpairs.
exact_similarity_join`, but sums each pair's per-term products in
term order within a map task, then in map-task order, rather than in
dict-iteration order, so scores can differ in the last ulp — and a
pair whose true score sits within an ulp of ``σ`` could in principle
land on the other side of the threshold.  One property test draws
weights from an exactly-representable grid, where every summation is
exact and the outputs are bit-identical.  Only cross-side (item,
consumer) pairs are produced — the modification of the self-join
algorithm described in §5.1.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..mapreduce import (
    FileSystem,
    KeyValue,
    MapReduceJob,
    MapReduceRuntime,
    Pipeline,
)
from .prefix_filter import prefix_terms

__all__ = [
    "TermBoundsJob",
    "CandidateJob",
    "VerifyJob",
    "mapreduce_similarity_join",
    "similarity_join_pipeline",
]

ITEM_TAG = "T"
CONSUMER_TAG = "C"

JoinRow = Tuple[str, str, float]


class TermBoundsJob(MapReduceJob):
    """Job 1: per-term maximum weight over the consumer collection."""

    name = "simjoin-term-bounds"
    has_combiner = True

    def map(self, doc_id, tagged) -> Iterable[KeyValue]:
        tag, vector = tagged
        if tag == CONSUMER_TAG:
            for term, weight in vector.items():
                yield term, weight

    def combine(self, term, weights: List[float]) -> Iterable[KeyValue]:
        yield term, max(weights)

    def reduce(self, term, weights: List[float]) -> Iterable[KeyValue]:
        yield term, max(weights)


class CandidateJob(MapReduceJob):
    """Job 2: inverted index, one posting-list record per term.

    Side data: ``max_weights`` (output of job 1) and ``sigma``.

    Each term's reduce emits ``(term, (items, consumers))``: the sorted
    ``(doc_id, weight, is_prefix)`` item and ``(doc_id, weight)``
    consumer postings, and nothing when a side is empty.  Items that
    cannot reach ``sigma`` against any consumer (empty prefix) post
    nothing.
    """

    name = "simjoin-candidates"

    def map(self, doc_id, tagged) -> Iterable[KeyValue]:
        tag, vector = tagged
        if tag == ITEM_TAG:
            bounds = self.side_data["max_weights"]
            sigma = self.side_data["sigma"]
            prefix = set(prefix_terms(vector, bounds, sigma))
            if not prefix:
                return  # provably below sigma against every consumer
            for term, weight in vector.items():
                yield term, (ITEM_TAG, doc_id, weight, term in prefix)
        else:
            for term, weight in vector.items():
                yield term, (CONSUMER_TAG, doc_id, weight)

    def reduce(self, term, postings: List) -> Iterable[KeyValue]:
        items = sorted(p[1:] for p in postings if p[0] == ITEM_TAG)
        consumers = sorted(p[1:] for p in postings if p[0] == CONSUMER_TAG)
        if items and consumers:
            yield term, (items, consumers)


class VerifyJob(MapReduceJob):
    """Job 3: cross each term's postings into item stripes, sum, threshold.

    Side data: ``sigma`` — a scalar, not the document stores.  The map
    crosses a term's posting lists into one *stripe* per posted item,
    ``(item, [(consumer, product, prefix_hit), ...])``; grouping by item
    gathers every per-term product of each of its pairs, and the
    per-consumer sum is the exact dot product.  The combiner merges one
    map task's stripes for an item into one (addition is associative
    and commutative), so the shuffle carries at most one record per
    item per map task — O(items × map tasks), not O(pairs).  Combiner
    and reduce share the stripe value type, so the combiner is an
    optimisation only.  With it, each pair's products are added in term
    order within a map task, and those partial sums in map-task order.
    Pairs with no prefix co-occurrence are discarded — by the
    prefix-filter bound they are provably below ``sigma``, so this
    reproduces the pruned index's candidate set exactly.
    """

    name = "simjoin-verify"
    has_combiner = True

    def map(self, term, postings) -> Iterable[KeyValue]:
        items, consumers = postings
        for item, item_weight, is_prefix in items:
            hit = 1 if is_prefix else 0
            yield item, [
                (consumer, item_weight * consumer_weight, hit)
                for consumer, consumer_weight in consumers
            ]

    def combine(self, item, stripes: List) -> Iterable[KeyValue]:
        scores, hits = _merge_stripes(stripes)
        yield item, list(zip(scores, scores.values(), hits.values()))

    def reduce(self, item, stripes: List) -> Iterable[KeyValue]:
        sigma = self.side_data["sigma"]
        scores, hits = _merge_stripes(stripes)
        for consumer in sorted(scores):
            score = scores[consumer]
            if hits[consumer] and score >= sigma:
                yield (item, consumer), score


def _merge_stripes(
    stripes: List,
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Sum stripes per consumer in arrival order: ``(scores,
    prefix_hits)``, two dicts with the same key order."""
    scores: Dict[str, float] = {}
    hits: Dict[str, int] = {}
    for stripe in stripes:
        for consumer, score, hit in stripe:
            if consumer in scores:
                scores[consumer] += score
                hits[consumer] += hit
            else:
                scores[consumer] = score
                hits[consumer] = hit
    return scores, hits


def mapreduce_similarity_join(
    items: Mapping[str, Mapping[str, float]],
    consumers: Mapping[str, Mapping[str, float]],
    sigma: float,
    runtime: Optional[MapReduceRuntime] = None,
    filesystem: Optional[FileSystem] = None,
) -> List[JoinRow]:
    """Run the three-job pipeline; returns sorted ``(t, c, w)`` rows.

    The jobs are wired through the runtime's filesystem (see
    :func:`similarity_join_pipeline`), so a runtime built with
    ``storage="disk"`` runs the whole join out of core — inputs,
    intermediates, and the verified edges live on disk, and a
    ``spill_threshold`` additionally bounds the shuffle buffers.  The
    returned rows are bit-identical across storage backends, spill
    thresholds, and execution backends (scores may differ in the last
    ulp across *map task counts*, which change which terms' products
    the verify combiner sums together).

    On the default in-memory filesystem (no explicit ``filesystem``)
    the ``/simjoin/*`` datasets are deleted before returning, so this
    function retains no duplicate of the corpus in RAM — matching its
    pre-pipeline behavior.  On-disk datasets (or an explicitly passed
    filesystem) are kept for inspection; use
    :func:`similarity_join_pipeline` directly when you want the
    intermediates regardless of backend.
    """
    pipeline = similarity_join_pipeline(
        items, consumers, sigma, runtime=runtime, filesystem=filesystem
    )
    verified = pipeline.run()
    if filesystem is None and pipeline.filesystem.name == "memory":
        # Exactly the datasets this pipeline wrote — never a prefix
        # sweep, which could catch caller data under /simjoin/*.
        for path in (
            "/simjoin/documents",
            "/simjoin/term_bounds",
            "/simjoin/candidates",
            "/simjoin/edges",
        ):
            if pipeline.filesystem.exists(path):
                pipeline.filesystem.delete(path)
    rows = sorted(
        (item, consumer, weight)
        for (item, consumer), weight in verified
    )
    return rows


def similarity_join_pipeline(
    items: Mapping[str, Mapping[str, float]],
    consumers: Mapping[str, Mapping[str, float]],
    sigma: float,
    runtime: Optional[MapReduceRuntime] = None,
    filesystem: Optional[FileSystem] = None,
) -> Pipeline:
    """The three jobs, wired as a DFS-backed :class:`Pipeline`.

    This is the deployment shape of the computation: each stage reads
    and writes named datasets on the (simulated or on-disk) distributed
    filesystem — by default the runtime's own (``storage=`` at runtime
    construction) — so intermediate results — the term bounds under
    ``/simjoin/term_bounds``, the per-term posting lists under
    ``/simjoin/candidates`` — are inspectable after the run.  Running
    the returned pipeline produces the verified edges at
    ``/simjoin/edges`` (and as ``Pipeline.run()``'s return value);
    output is identical to :func:`mapreduce_similarity_join`, which
    delegates here.

    No stage ships a document store as side data: job 2 reads the term
    bounds (one scalar per term) and job 3 only ``sigma`` — the corpus
    itself flows exclusively through datasets and the shuffle.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    pipeline = Pipeline(runtime=runtime, filesystem=filesystem)
    documents: List[KeyValue] = [
        (doc, (ITEM_TAG, vector)) for doc, vector in sorted(items.items())
    ] + [
        (doc, (CONSUMER_TAG, vector))
        for doc, vector in sorted(consumers.items())
    ]
    pipeline.filesystem.write(
        "/simjoin/documents", documents, overwrite=True
    )
    pipeline.add(
        TermBoundsJob(), ["/simjoin/documents"], "/simjoin/term_bounds"
    )
    pipeline.add(
        CandidateJob(),
        ["/simjoin/documents"],
        "/simjoin/candidates",
        side_data=lambda fs: {
            "max_weights": dict(fs.read("/simjoin/term_bounds")),
            "sigma": sigma,
        },
    )
    pipeline.add(
        VerifyJob(),
        ["/simjoin/candidates"],
        "/simjoin/edges",
        side_data=lambda fs: {"sigma": sigma},
    )
    return pipeline
