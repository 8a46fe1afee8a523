(** The concurrent query service: a batch scheduler over a fixed domain
    pool with shared cross-query caches.

    Queries are submitted as source text and run by a pool of worker
    domains against one shared document set. All queries of a service
    share the {!Cache} (profile indexes, search-order plans, retrieval
    rows) and a parse cache, so repeated or similar queries amortize
    the per-query setup that dominates a sequential [Gql.run_query]
    loop.

    {b One pipeline.} Each query runs the ordinary selection loop
    ({!Gql_core.Algebra.select_governed}, installed through
    [Eval.run ~selector]). The service adds two things to it: a plan
    source that hands {!Gql_matcher.Engine.run} the cached plan of each
    (pattern, graph) pair, and a hook after each pair.

    {b Fairness.} Execution is cooperative: the hook performs a
    [Yield] effect after a (pattern, graph) engine run once the query
    has expanded [quantum] search-tree nodes in its current slice
    {e and} other work is queued. The captured continuation is
    re-enqueued at the back of the work queue and may be resumed by a
    different domain — so a single exponential query cannot starve
    cheap ones even on a one-domain pool.

    {b Admission and deadlines.} A per-query [deadline] is converted to
    an absolute budget at submit time, so time spent waiting in the
    queue counts against it; a query whose deadline expires before it
    starts is rejected without running. Budget stops surface in the
    outcome, never as exceptions.

    {b Errors.} A failing query never kills the pool: known errors are
    classified through [Error.classify]; unknown exceptions are wrapped
    as [Error.Eval "internal: ..."] so the batch completes and the
    failure is visible in its outcome.

    {b Warm path.} A text is parsed at {!submit}, through a parse
    cache, once for as long as it stays cached. The parse cache is an
    {!Lru} with a fixed budget of a few MiB, charged each AST's
    reachable heap size, so a stream of never-repeated texts evicts the
    coldest instead of growing the process. A (pattern, graph) run
    whose plan is cached goes straight to search. Only a search on a newly built plan feeds the
    shared learned statistics: repeating a search on an immutable graph
    observes nothing new, so warm plans stay fresh.

    Instrumentation: each job writes to its own [Metrics.t] (domain
    safety), engine spans included. At completion its counters,
    histograms and drift rows — not its spans — are added to the
    service aggregate, which therefore stays the same size however
    many queries it has counted. *)

type status =
  | Done of Gql_core.Eval.result
      (** Check [result.stopped] — a deadline can still have truncated
          the selections. *)
  | Rejected of Gql_matcher.Budget.stop_reason
      (** Deadline expired (or budget cancelled) before the query
          started running. *)
  | Failed of Gql_core.Error.t  (** Parse/eval/corrupt failure. *)

type outcome = {
  o_id : int;  (** as returned by {!submit}; drain order *)
  o_query : string;  (** the submitted source text *)
  o_status : status;
  o_yields : int;  (** times this query was preempted *)
  o_wall_ms : float;  (** submit → completion, queue wait included *)
}

type t

val create :
  ?jobs:int ->
  ?search_domains:int ->
  ?quantum:int ->
  ?strategy:Gql_matcher.Engine.strategy ->
  ?plan_capacity:int ->
  ?retrieval_budget_bytes:int ->
  ?docs:Gql_core.Eval.docs ->
  ?on_write:(Gql_core.Eval.write -> unit) ->
  unit ->
  t
(** Spawn the worker pool. [jobs] defaults to
    [min 8 (Domain.recommended_domain_count ())]; [quantum] (default
    4096) is the per-slice visited-node allowance before a query offers
    to yield. [strategy] (default [Engine.optimized]) is fixed for the
    whole service — the plan cache is only sound for a single strategy.
    [`Subgraphs] retrieval bypasses the caches entirely.

    [search_domains] splits the machine between inter- and intra-query
    parallelism: when a query reaches its search phase with {e nothing
    else queued} and a non-trivial candidate space, the search runs on
    the work-stealing engine with this many workers instead of
    sequentially — one on the job's own domain, the others on the
    parked helper domains of {!Gql_matcher.Pool}, which the first such
    search starts and later ones reuse (no domain is spawned per
    search). Defaults to
    [max 1 (Domain.recommended_domain_count () / jobs)] — the cores the
    job pool leaves idle. Cached (warm-plan) searches use it too; the
    [`Subgraphs] fallback path stays sequential. *)

val submit :
  t -> ?deadline:float -> ?cancel:Gql_matcher.Budget.token -> ?after:int ->
  string -> int
(** Enqueue a query (source text), returning its job id. [deadline] is
    in seconds from now, inclusive of queue wait. Never blocks.

    [cancel] threads a cooperative cancellation token into the query's
    budget: {!Gql_matcher.Budget.cancel} from any domain stops the
    query at its next poll — this is what the server's
    [kill query <id>] pulls on.

    [after] is a watermark gate: the query does not {e start} until at
    least that many writes have been applied — pass {!watermark}[ t]
    to read your own (and every earlier) submitted write. Programs
    containing DML statements are gated automatically on all
    previously staged writes, so writes serialize in submission order;
    pure reads run ungated on the document snapshot current when they
    dequeue. Time spent gated counts [exec.queue.watermark_waits] and
    against the deadline. *)

val wait : t -> int -> outcome
(** Block until the job with this id (from {!submit}) completes and
    return its outcome, removing it from the result set — the
    per-query counterpart of {!drain} a server needs to answer each
    client as its own query finishes. Waiting twice on the same id, or
    on an id a concurrent {!drain} already consumed, blocks forever —
    one consumer per job. *)

val drain : t -> outcome list
(** Wait for every submitted query to complete and return their
    outcomes in submission order. The service stays usable — submit
    more or {!shutdown}. *)

val watermark : t -> int
(** The staged watermark: total DML statements reserved by every
    {!submit} so far. [submit ~after:(watermark t)] gives
    read-your-writes over all previously submitted programs. *)

val applied : t -> int
(** The applied watermark: writes applied (or abandoned by failed /
    truncated jobs) so far. [applied t >= w] means a gate of [w] is
    open; [applied t = watermark t] means no write is in flight. *)

val graph_epoch : t -> Gql_graph.Graph.t -> int option
(** Per-graph write epoch of a registered document graph (see
    {!Cache.graph_epoch}) — a write to one graph bumps only that
    graph's epoch, leaving every other graph's warm plans valid. *)

val install_view : t -> View.t -> unit
(** Mount a view (typically decoded from a store's view records) into
    the service: it becomes readable as [view("name")] and is kept
    fresh by subsequent writes to its source collection. Materialized
    views adopt their persisted result graphs as-is (no evaluation);
    plain views are re-derived from the current source collection now.
    Replaces an existing view of the same name. Views created by
    [create view] statements inside queries register themselves — this
    is only for pre-loading. *)

type view_info = {
  vi_name : string;
  vi_materialized : bool;
  vi_source : string;  (** the source collection the definition reads *)
  vi_epoch : int;  (** refresh generation (0 = never refreshed) *)
  vi_graphs : int;  (** graphs in the current materialization *)
  vi_incremental : bool;  (** delta-rule eligible definition *)
  vi_incr_refreshes : int;  (** refreshes served by the O(delta) path *)
  vi_full_refreshes : int;  (** refreshes that fell back to full re-eval *)
}

val views : t -> view_info list
(** The registered views, in registration order — the staleness /
    maintenance report behind [explain --analyze] and the server's
    status page. *)

val metrics : t -> Gql_obs.Metrics.t
(** The service aggregate: [exec.cache.*], [exec.queue.*] and every
    other counter, histogram and drift row of the completed queries. It
    records no spans. Only read it when no query is in flight (after
    {!drain}) — completions merge into it concurrently. *)

val cache_stats : t -> Cache.stats

val parse_stats : t -> Lru.stats
(** The parse cache: entries, charged bytes against its constant
    budget, hits, misses and evictions. *)

val shutdown : t -> unit
(** Stop the workers (after finishing queued work) and join them. Call
    {!drain} first; idempotent. *)

val run_batch :
  ?jobs:int ->
  ?search_domains:int ->
  ?quantum:int ->
  ?strategy:Gql_matcher.Engine.strategy ->
  ?plan_capacity:int ->
  ?retrieval_budget_bytes:int ->
  ?docs:Gql_core.Eval.docs ->
  ?on_write:(Gql_core.Eval.write -> unit) ->
  ?deadline:float ->
  string list ->
  outcome list * t
(** Convenience: create, submit all (sharing one per-query [deadline]
    setting), drain, shutdown. The returned service is already shut
    down — use it for {!metrics} / {!cache_stats}. *)
