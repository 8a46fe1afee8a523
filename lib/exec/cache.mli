(** The shared cross-query caches of the batch service.

    Three caches and the shared learned planner statistics, under one
    mutex:

    - a {b profile-index cache}: data graph → its [Label_index] +
      [Profile_index], built once and reused by every query that scans
      the graph — the dominant win on repeated workloads, since index
      construction is linear in the graph and queries are often
      sublinear;
    - a {b plan cache}: (graph, pattern) → the refined candidate space
      and the optimized search order, so a repeated query skips
      retrieval, refinement and ordering and goes straight to search.
      It is two-level — graph, then (retrieval mode, refine flag,
      pattern text) — so retiring a graph drops its plans in one
      removal. A collection scan renders its key once ({!plan_key});
      the per-call wrappers memoize the text per pattern object,
      weakly;
    - a bounded {b retrieval cache}: (graph, retrieval mode, pattern-node
      signature) → the feasible-mate row Φ(u), an {!Lru} under a byte
      budget.

    Graphs are identified {e physically} ([==], hashed by
    [Graph.stamp], O(1)): the service registers
    the document graphs it owns, and only registered graphs hit the
    caches — a graph bound to a query variable mid-run falls back to
    the uncached engine. A write retires exactly the written graph
    ({!replace}, {!drop}): the new version gets a fresh gid, so nothing
    cached for the old one can be found again. Stale reuse is
    impossible because lookups happen under the same mutex.

    Row signatures are textual: the pattern node's tuple constraints,
    its local predicate and its radius-[r] pattern profile, rendered
    with the canonical printers. Two syntactically different queries
    whose pattern nodes constrain identically therefore share rows.
    [`Subgraphs] retrieval is never cached (its neighborhood
    memoization is not domain-safe to share); callers must bypass the
    cache for it.

    Every operation is thread-safe and counts [exec.cache.hit] /
    [exec.cache.miss] (and eviction / invalidation events) into the
    metrics instance passed by the calling job. *)

open Gql_graph

type t

val create : unit -> t
(** Room for 4096 plans and 64 MiB of retrieval rows. The plan table is
    reset wholesale when adding a plan finds it at capacity (plans are
    cheap to recompute and capacity overrun indicates an adversarial
    workload); the retrieval cache evicts LRU entries continuously. *)

val register : t -> Graph.t list -> unit
(** Make these graphs cacheable. Idempotent per graph (physical
    identity). *)

val registered : t -> Graph.t -> bool

val replace :
  t ->
  metrics:Gql_obs.Metrics.t ->
  old_graph:Graph.t ->
  new_graph:Graph.t ->
  delta:Gql_graph.Mutate.delta option ->
  unit
(** A write produced [new_graph] from [old_graph]: retire {e only} the
    old graph's registration, indexes and plans, register the new
    graph under a fresh gid, and bump its per-graph epoch — every
    other graph's warm state is untouched. When the old indexes were
    cached and the write carried a dirty-set [delta], the new graph's
    indexes are derived incrementally ([Label_index.update] /
    [Profile_index.update], counting [exec.cache.index_updates])
    instead of being rebuilt from scratch on next use. *)

val drop : t -> Graph.t -> unit
(** Retire one graph (document deletion): forget its registration,
    indexes, plans and epoch. Other graphs are untouched. *)

val graph_epoch : t -> Graph.t -> int option
(** How many times this document slot has been replaced by writes
    ([0] for a freshly registered graph, [None] if unregistered). A
    write to one graph bumps only that graph's epoch. *)

val indexes :
  t ->
  metrics:Gql_obs.Metrics.t ->
  Graph.t ->
  (Gql_index.Label_index.t * Gql_index.Profile_index.t) option
(** The label and radius-1 profile indexes of a registered graph,
    building and caching them on first use. [None] when the graph is
    not registered. The profile index is shared across domains: only
    its precomputed profiles may be read ([`Node_attrs] / [`Profiles]
    retrieval) — never its lazily-memoized neighborhoods. *)

type plan = {
  p_space : int array array;
      (** the {e refined} candidate rows Φ(u) — retrieval and joint
          reduction already applied; treat as immutable *)
  p_order : int array;  (** the search order used with that space *)
  p_epoch : int;
      (** the learned-stats epoch the order was planned under (0 when
          the planner does not consult the learned stats) *)
}

type key
(** A plan's key within its graph's table: the retrieval mode, the
    refine flag and the pattern's [Flat_pattern.pp] text. *)

val plan_key :
  retrieval:[ `Node_attrs | `Profiles ] ->
  refine:bool ->
  Gql_matcher.Flat_pattern.t ->
  key
(** Render the key once per collection scan; pure, takes no lock. *)

val plan_lookup :
  t ->
  metrics:Gql_obs.Metrics.t ->
  epoch:int ->
  Graph.t ->
  key ->
  [ `Fresh of plan | `Stale of plan ] option
(** {!plan_find} with a key made by {!plan_key}: one locked probe. *)

val plan_store : t -> Graph.t -> key -> plan -> unit
(** {!plan_add} with a key made by {!plan_key}. *)

val plan_find :
  t ->
  metrics:Gql_obs.Metrics.t ->
  retrieval:[ `Node_attrs | `Profiles ] ->
  refine:bool ->
  ?epoch:int ->
  Graph.t ->
  Gql_matcher.Flat_pattern.t ->
  [ `Fresh of plan | `Stale of plan ] option
(** The cached plan for (graph, pattern) under the given engine
    settings: on a [`Fresh] hit the caller skips retrieval, refinement
    and ordering and goes straight to search. [`Stale] means the plan
    was ordered under an older learned-stats epoch than [epoch]
    (default 0): its candidate space is still exact and reusable, but
    the order should be recomputed (counts [exec.cache.stale_plans]).
    [None] for unregistered graphs or cold patterns. The pattern text
    is memoized per pattern object, so a per-graph loop renders it
    once. *)

val plan_add :
  t ->
  retrieval:[ `Node_attrs | `Profiles ] ->
  refine:bool ->
  Graph.t ->
  Gql_matcher.Flat_pattern.t ->
  plan ->
  unit
(** Store a freshly computed plan. No-op for unregistered graphs. *)

val row :
  t ->
  metrics:Gql_obs.Metrics.t ->
  retrieval:[ `Node_attrs | `Profiles ] ->
  Graph.t ->
  Gql_matcher.Flat_pattern.t ->
  int ->
  compute:(unit -> int array) ->
  int array
(** The cached feasible-mate row Φ(u), or [compute ()] — inserted into
    the LRU (which may evict colder rows). Treat the returned array as
    immutable: it is shared. *)

val learned_epoch : t -> int
(** Current epoch of the shared learned statistics (bumps every
    [epoch_every] observed runs — see {!Gql_matcher.Stats}). *)

val learned_snapshot : t -> Gql_matcher.Stats.t
(** A deep copy of the shared learned statistics, safe to plan from on
    any domain while jobs keep feeding the original. The copy is taken
    once per {!learned_epoch} and shared by every caller in that epoch
    (physically the same value — do not mutate it): observations folded
    in since are seen from the next epoch on, the same granularity at
    which cached plans age. *)

val observe_learned : t -> f:(Gql_matcher.Stats.t -> unit) -> unit
(** Run [f] on the shared learned statistics under the cache mutex —
    how jobs fold their per-run observations in. Keep [f] short. *)

type stats = {
  graphs : int;  (** registered graphs *)
  indexes : int;  (** index pairs actually built *)
  plans : int;  (** cached plans, over every graph *)
  retrieval : Lru.stats;
  observations : int;  (** searches folded into the learned statistics *)
}

val stats : t -> stats
