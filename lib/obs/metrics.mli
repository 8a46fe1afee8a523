(** Cross-cutting observability: trace spans, typed counters and
    histogram summaries for the query pipeline.

    One [Metrics.t] travels through an execution — engine phases,
    refinement, search, the algebra operators and the storage layer all
    write into it — and is rendered afterwards as the per-phase tree of
    [gqlsh explain --analyze] (or its [--json] form), or folded into the
    benchmark trajectory.

    There are three kinds of instance: {!disabled} records nothing,
    {!counting} records counters, histograms and drift, and {!create}
    records spans as well.

    The design rule is that observability must cost nothing when it is
    off: every operation on {!disabled} is a single load-and-branch, no
    allocation, and the instrumented modules keep their hot loops free
    of metrics calls by accumulating into the local state they already
    maintain and flushing once per phase. Instances are single-domain;
    parallel workers each get their own (int refs, no atomics on the
    hot path) and the per-domain results are {!merge}d after the join —
    the pattern [Gql_matcher.Ws.search] uses. *)

(** {1 Counters} *)

type counter =
  | Retrieval_scanned  (** nodes considered by retrieval before pruning *)
  | Retrieval_candidates  (** feasible mates surviving retrieval *)
  | Profile_hits  (** profile containment tests that kept a candidate *)
  | Profile_misses  (** profile containment tests that pruned one *)
  | Refine_levels  (** refinement iterations run *)
  | Refine_pairs_checked  (** semi-perfect matchings computed *)
  | Refine_removed  (** candidate pairs pruned by refinement *)
  | Search_visited  (** search-tree nodes expanded (Check calls) *)
  | Search_backtracks  (** Check calls that failed (dead ends) *)
  | Search_matches  (** complete mappings delivered *)
  | Parallel_steals  (** subtree tasks taken from a victim's deque *)
  | Parallel_tasks_spawned  (** subtree tasks exposed for stealing *)
  | Parallel_idle_polls  (** idle-loop iterations waiting for work *)
  | Pages_read  (** 4 KiB pages read from disk *)
  | Pages_written  (** 4 KiB pages written to disk *)
  | Pool_hits  (** buffer-pool lookups served from a frame *)
  | Pool_misses  (** buffer-pool lookups that went to the pager *)
  | Pool_evictions  (** frames evicted (written back when dirty) *)
  | Exec_cache_hit  (** exec-service cache lookups served (all caches) *)
  | Exec_cache_miss  (** exec-service cache lookups that computed fresh *)
  | Exec_cache_evictions  (** retrieval-LRU entries evicted by byte budget *)
  | Exec_queue_submitted  (** queries admitted to the batch scheduler *)
  | Exec_queue_completed  (** queries that finished (any stop reason) *)
  | Exec_queue_yields  (** quantum expirations that re-enqueued a query *)
  | Exec_queue_deadline_stops  (** queries stopped by their budget *)
  | Planner_replans  (** mid-query suffix re-orders taken by the adaptive search *)
  | Exec_plan_stale  (** cached plans bypassed because their stats epoch aged out *)
  | Exec_writes  (** DML write operations applied by the service *)
  | Exec_watermark_waits  (** scheduler waits for a write watermark (read-your-writes) *)
  | Storage_txn_appended  (** transaction-log records appended to a store *)
  | Index_incremental  (** index maintenances done incrementally (vs full rebuild) *)
  | Rpq_segments_checked  (** path-segment existence checks evaluated *)
  | Rpq_fast_path  (** segment checks answered by the reachability index *)
  | Rpq_product_visited  (** (node, counter) product states expanded by RPQ BFS *)
  | Views_incremental  (** view refreshes served by the O(delta) incremental path *)
  | Views_full  (** view refreshes that fell back to full re-evaluation *)
  | Views_reads  (** queries answered from a materialized view *)

val counter_name : counter -> string
(** Stable dotted name, e.g. ["search.visited"] — the key used by the
    text report, the JSON output and the bench snapshots. *)

val all_counters : counter list
(** Every counter, in declaration order. *)

(** {1 Histograms} *)

type histogram =
  | Candidate_set_size  (** |Φ(u)| per pattern node after retrieval *)
  | Matches_per_graph  (** mappings found per (pattern, graph) run *)

val histogram_name : histogram -> string
val all_histograms : histogram list

type histo_summary = {
  count : int;
  min : int;
  max : int;
  mean : float;
  p50 : int;  (** bucket lower bound — log2 buckets, so approximate *)
  p90 : int;
  p99 : int;
}

(** {1 Instances} *)

type t

val disabled : t
(** The shared no-op instance: every operation returns immediately.
    This is the default everywhere a [?metrics] parameter is offered. *)

val create : unit -> t
(** A fresh tracing instance: counters, histograms, drift and spans.
    Not domain-safe: share one per domain and {!merge} after joining. *)

val counting : unit -> t
(** A fresh counting instance: counters, histograms and drift rows like
    {!create}, but no spans — {!with_span} is exactly [f ()] and
    {!span_count} stays 0. What a service job runs with: the service
    aggregate merges counts only, so a span per (pattern, graph) run
    would be clock reads and a growing array that nothing reads. *)

val like : t -> t
(** A fresh instance of the same kind — {!disabled} itself, counting or
    tracing. For per-domain instances that are {!merge}d back. *)

val enabled : t -> bool
(** [true] for counting and tracing instances. Lets instrumented code
    skip preparation work (e.g. building a counting closure) that only
    feeds the metrics. *)

val add : t -> counter -> int -> unit
val incr : t -> counter -> unit
val get : t -> counter -> int

val observe : t -> histogram -> int -> unit
(** Record a sample (clamped to ≥ 0) into log2 buckets. *)

val histo_summary : t -> histogram -> histo_summary option
(** [None] when the histogram has no samples. *)

val histogram_quantile : t -> histogram -> float -> int option
(** [histogram_quantile m h q] for [q] in [0, 1]: the lower bound of the
    log2 bucket holding the q-quantile sample, clamped to the exact
    recorded min/max. [None] when the histogram has no samples; raises
    [Invalid_argument] outside [0, 1]. [p50]/[p90]/[p99] of
    {!histo_summary} are this at 0.5 / 0.9 / 0.99. *)

(** {1 Cardinality drift} *)

val record_drift : t -> position:int -> estimated:float -> actual:float -> unit
(** Accumulate one search's estimated vs observed partial-result
    cardinality at the given order position (positions ≥ 64 are
    dropped). Rendered by {!pp} / {!to_json} as the estimated-vs-actual
    column of [explain --analyze]. *)

val drift : t -> (int * int * float * float) list
(** The non-empty drift rows as [(position, runs, Σ estimated,
    Σ actual)], in position order. *)

(** {1 Spans} *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named span nested under the currently open
    one. Timestamps come from the wall clock and are recorded start and
    stop, so a span's elapsed time is monotone in its children's. On
    {!disabled} and counting instances this is exactly [f ()].
    Exception-safe: the span is closed (and the parent restored) even
    when [f] raises. *)

val span_count : t -> int

val merge : into:t -> t -> unit
(** Add [m]'s counters and histograms into [into] and graft its span
    forest under [into]'s currently open span. Used to fold per-domain
    metrics back into the caller's after a parallel join. No-op when
    either side is disabled; a counting [into] takes the counts and no
    spans. *)

val merge_counts : into:t -> t -> unit
(** {!merge} without the spans: counters, histograms and drift only.
    For long-lived aggregates, whose size must not grow with the number
    of executions folded in. *)

(** {1 Reporting} *)

type span_tree = {
  s_name : string;
  s_count : int;  (** sibling spans with the same name are aggregated *)
  s_total : float;  (** summed elapsed seconds across the [s_count] spans *)
  s_children : span_tree list;
}

val span_forest : t -> span_tree list
(** The recorded spans as a forest, siblings aggregated by name (a
    selection over a 500-graph collection renders as one ["match"] node
    with [s_count = 500], not 500 lines). *)

val pp : Format.formatter -> t -> unit
(** Human-readable report: span tree with timings, then every counter,
    then the non-empty histogram summaries. *)

val to_json : t -> string
(** The same report as one JSON object, schema ["gql-obs/v1"]:
    [{"schema":..., "spans":[{"name","count","ms","children"}...],
    "counters":{...all counters...}, "histograms":{...}}]. *)
