(** Work-stealing parallel search engine.

    Sits below {!Engine} so both the single-query pipeline and
    {!Parallel.search} (which delegates here) can fan a search out
    across OCaml 5 domains. [~domains:n] runs worker 0 on the calling
    domain and workers 1..n-1 on parked helpers of the process-wide
    {!Pool}: once the pool has grown to the widest fan-out seen, a
    search spawns no domain. Each worker owns a {!Deque} of subtree
    tasks (prefix assignment + candidate range), expands depth-first
    with the shared {!Search.node_check}, lazily exposes the shallowest
    untouched siblings for thieves, and steals the shallowest pending
    subtree when idle. See DESIGN.md §13 for the protocol.

    Semantics match {!Search.run} up to mapping order: the returned
    mapping {e set}, [n_found], and the [stopped] classification are
    identical; [visited] sums per-worker Check calls. [limit] is a
    global cap enforced exactly via atomic tickets; when any worker
    raises, siblings are cancelled, the call waits until every worker
    has finished, and the first exception is re-raised with its
    backtrace.

    Per-worker metrics (merged once all have finished) additionally
    record [parallel.steals], [parallel.tasks_spawned] and
    [parallel.idle_polls]. *)

open Gql_graph

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()] — no cap. *)

type report = {
  r_replans : int;  (** re-plans applied across all domains *)
  r_order : int array;  (** the final shared plan's order *)
  r_profile : Search.profile;
  (** descents/checks observed under the final plan, all domains
        merged — positions are those of [r_order] *)
  r_estimates : float array;
  (** {!Cost.position_estimates} of the final plan *)
}

val search :
  ?domains:int ->
  ?order:int array ->
  ?limit:int ->
  ?limit_per_domain:int ->
  ?budget:Budget.t ->
  ?metrics:Gql_obs.Metrics.t ->
  ?adapt:Adapt.config ->
  ?model:Cost.model ->
  ?report:(report -> unit) ->
  Flat_pattern.t ->
  Graph.t ->
  Feasible.space ->
  Search.outcome
(** Falls back to the sequential {!Search.run} when [domains <= 1] or
    the pattern is empty ({!Adapt.run} instead when [adapt] is given).

    With [adapt], the current (order, back-edges, estimates) plan lives
    in an [Atomic]: workers profile their own descents per order
    position, and one whose observations diverge from the estimates
    (see {!Adapt}) installs a re-planned suffix by compare-and-set.
    Depth-0 tasks — root ranges, whose empty prefix is order-agnostic —
    always adopt the freshest plan; deeper tasks stay glued to the plan
    their prefix was captured under, so the match set is exactly that
    of the static search. [model] is the γ source for re-planning
    estimates (default [Constant]); [report] receives the final plan,
    merged profile and re-plan count once every worker has finished. *)
