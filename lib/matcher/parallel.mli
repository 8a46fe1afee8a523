(** Parallel graph pattern matching (OCaml 5 domains).

    §7's scalability direction: the Algorithm 4.1 search parallelizes
    naturally over the Φ(u₁) × … product space. The engine is
    {e work-stealing} ({!Ws}): workers start from seed slices of Φ(u₁)
    but rebalance by stealing the shallowest pending subtree from a
    busy sibling, so a skewed Φ(u₁) does not strand the work on one
    domain. Worker 0 runs on the calling domain; the others run on the
    parked helpers of the process-wide {!Pool}, so a search spawns no
    domain once the pool has grown to the widest fan-out seen.

    Retrieval, refinement and ordering stay sequential (they are a
    small fraction of the time on selective queries); only the search
    fans out.

    Governance: the caller's {!Budget.t} is shared by every worker,
    extended with an internal cancellation token so that reaching the
    global [limit] — or a worker dying — stops the siblings at their
    next poll instead of letting them run to exhaustion. *)

open Gql_graph

val search :
  ?domains:int ->
  ?order:int array ->
  ?limit:int ->
  ?limit_per_domain:int ->
  ?budget:Budget.t ->
  ?metrics:Gql_obs.Metrics.t ->
  Flat_pattern.t ->
  Graph.t ->
  Feasible.space ->
  Search.outcome
(** Work-stealing engine (alias of {!Ws.search}). [domains] defaults to
    [Domain.recommended_domain_count ()] — uncapped, and an explicit
    [?domains] above that is honored. Mapping order differs from the
    sequential search (subtrees complete independently); the mapping
    {e set} and counts are identical.

    [limit] is a {e global} cap: the merged outcome holds exactly
    [min limit total] mappings, enforced with an atomic ticket counter
    shared by all domains (a mapping is kept iff its ticket is below
    the limit), and the remaining domains are cancelled once the limit
    is reached. [stopped] is then [Hit_limit].

    [limit_per_domain] is the historical {e per-domain} cap: each of
    the [d] slices may report up to that many mappings, so the merged
    outcome can hold up to [d × limit_per_domain] results. Use it to
    bound per-worker latency; combine with [limit] for an exact global
    cap.

    If a worker raises, the siblings are cancelled, the call waits for
    {e every} worker to finish, and the first captured exception is
    re-raised with its original backtrace — no helper is left running
    the search.

    When the budget stops the search, [stopped] is the worst reason
    across domains ([Cancelled] > [Deadline] > [Step_budget]) and
    [mappings] holds whatever each domain had found; [visited] sums the
    per-domain Check calls.

    [metrics]: each worker records into a private instance (no shared
    mutable state on the hot path) and the per-domain counters —
    including [parallel.steals] / [parallel.tasks_spawned] /
    [parallel.idle_polls] — are merged into the caller's metrics after
    every worker has finished. *)

val count_matches :
  ?domains:int ->
  ?budget:Budget.t ->
  ?strategy:Engine.strategy ->
  Flat_pattern.t ->
  Graph.t ->
  int
(** Full pipeline with the parallel search phase. *)
