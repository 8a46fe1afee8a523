(** The search driver: work-stealing at any width, adaptive on request.

    {!Engine.run}'s search phase is one call of {!search}, at every
    width, static or adaptive; the width is always the caller's (the
    engine passes its strategy's [search_domains]). [~domains:n] runs
    worker 0 on the calling domain and workers 1..n-1 on parked helpers
    of the process-wide {!Pool}: once the pool has grown to the widest
    fan-out seen, a search spawns no domain. A process that never asks
    for [n > 1] never starts a helper. Each worker owns a {!Deque} of
    subtree tasks (prefix assignment + candidate range), runs each
    through the one descend loop ({!Search.descend}), lazily exposes the
    shallowest untouched siblings for thieves through the loop's
    exposure hook, and steals the shallowest pending subtree when idle.
    One worker takes none of that machinery: no deque, no exposure, no
    pool, no match tickets. See DESIGN.md §13 for the protocol.

    Retrieval, refinement and ordering stay sequential (they are a
    small fraction of the time on selective queries); only the search
    fans out. *)

open Gql_graph

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
  domains:int ->
  ?order:int array ->
  ?limit:int ->
  ?budget:Budget.t ->
  ?metrics:Gql_obs.Metrics.t ->
  ?adapt:Adapt.config ->
  ?model:Cost.model ->
  ?report:(report -> unit) ->
  Flat_pattern.t ->
  Graph.t ->
  Feasible.space ->
  Search.outcome
(** [domains] is the width, honored above the core count too. With
    [domains <= 1], an empty pattern or an empty candidate set the
    search runs on the calling domain as one worker.

    Semantics match {!Search.run} up to mapping order (at one worker
    the order is {!Search.run}'s too): subtrees complete independently,
    but the mapping {e set}, [n_found] and the [stopped] classification
    are identical; [visited] sums the per-worker Check calls.

    - [limit] is a {e global} cap: the merged outcome holds exactly
      [min limit total] mappings, enforced across workers with an
      atomic ticket counter (a mapping is kept iff its ticket is below
      the limit). The siblings are cancelled once the limit is reached,
      and [stopped] is then [Hit_limit].
    - The caller's [budget] is shared by every worker, extended with an
      internal sibling token. When the budget stops the search,
      [stopped] is the worst reason across workers ([Cancelled] >
      [Deadline] > [Step_budget]) and [mappings] holds whatever each
      worker had found.
    - If a worker raises, the siblings are cancelled, the call waits
      for {e every} worker to finish, and the first exception is
      re-raised with its original backtrace: no helper is left running
      the search.
    - [metrics]: each fanned-out worker records into a private instance
      (no shared mutable state on the hot path), and the per-worker
      counters — including [parallel.steals], [parallel.tasks_spawned]
      and [parallel.idle_polls] — are merged into [metrics] after every
      worker has finished. One worker records into [metrics] directly.

    With [adapt] (and a pattern of two nodes or more), the current
    (order, back-edges, estimates) plan lives in an [Atomic]: workers
    profile their own descents per order position, and one whose
    observations diverge from the estimates installs
    {!Adapt.replan}'s plan by compare-and-set, at a task boundary while
    tasks remain. One worker runs the roots as geometrically growing
    slices (the first [max 8 min_samples] roots, then doubling), so it
    reaches a task boundary early. Root tasks, whose empty prefix is
    order-agnostic, always adopt the freshest plan; deeper tasks stay
    glued to the plan their prefix was captured under, so the match set
    is exactly that of the static search.

    [model] is the source of the plan's {!Cost.position_estimates}: the
    re-planner's γ (default [Constant] when adaptive) and the
    [r_estimates] of the report. A static search without [model] leaves
    [r_estimates] empty.

    [report], when given, is always called, once, after every worker
    has finished, at any width and in either mode: it receives the
    final plan, the re-plan count and the per-position profile of every
    worker merged (only the descents counted under the final plan). A
    static search is profiled only when [report] is given. *)
