(** Regular path queries: unbounded repetition evaluated exactly.

    A {!pattern} is a flat core pattern plus {e path segments} —
    requirements of the form "a walk of length in [min, max] whose
    edges all satisfy a constraint connects the images of two core
    nodes". Bounded repetition never reaches this module (the motif
    layer unrolls it lazily into flat chains); unbounded repetition
    ([edge e (a, b) *1..;]) becomes a segment, which this module
    evaluates as the product of the data graph with the counter
    automaton of [c{min,}] — a BFS over (node, hops-capped-at-min)
    states, so correctness does not depend on any unrolling depth.
    This is what fixes the silent depth-16 truncation of recursive
    reachability motifs.

    Fast paths:
    - an unconstrained segment with [min <= 1] is answered in O(1)
      from {!Gql_index.Reachability} (built lazily per graph, shared
      through a {!ctx});
    - bidirectional BFS halves the explored product for single-pair
      existence checks when both endpoint degrees are available.

    Everything polls the {!Budget} at the usual granularity
    ({!Budget.check_interval} product states) and reports into
    {!Gql_obs.Metrics} ([rpq.*] counters). *)

open Gql_graph

type segment = {
  seg_src : int;  (** core pattern node id *)
  seg_dst : int;  (** core pattern node id *)
  seg_min : int;  (** minimum number of hops, >= 0 *)
  seg_max : int option;  (** [None]: unbounded *)
  seg_tuple : Tuple.t;  (** implicit equality constraints on every step edge *)
  seg_pred : Pred.t;  (** local predicate on every step edge *)
}

type pattern = {
  core : Flat_pattern.t;
  segments : segment list;
}

val flat : Flat_pattern.t -> pattern
(** A pattern with no segments — the embedding of the existing matcher
    input. *)

val is_flat : pattern -> bool

val segment_unconstrained : segment -> bool
(** No tuple constraints and predicate [True]: every data edge is a
    valid step, so the reachability fast path applies. *)

val pp : Format.formatter -> pattern -> unit
(** The core pattern followed by one [path u -*min..max*-> v] line per
    segment — also the cache identity used by the exec service. *)

(** {1 Per-graph evaluation context} *)

type ctx
(** Caches the lazily built reachability index (and the graph) so that
    many segment checks against one graph share one O(V+E) build. *)

val ctx : Graph.t -> ctx
val reach : ctx -> Gql_index.Reachability.t
(** Forces the index build. *)

(** {1 Segment evaluation} *)

val segment_holds :
  ?budget:Budget.t ->
  ?metrics:Gql_obs.Metrics.t ->
  ctx ->
  segment ->
  src:int ->
  dst:int ->
  bool * Budget.stop_reason
(** Does a walk from [src] to [dst] with the segment's length bounds
    and edge constraints exist? Walks may revisit nodes and edges (RPQ
    semantics). On a budget stop the result is [false] with the stop
    reason — partial answers err on the side of omission, like the
    search engine. *)

val shortest_walk :
  ?budget:Budget.t ->
  ?metrics:Gql_obs.Metrics.t ->
  ctx ->
  segment ->
  src:int ->
  dst:int ->
  (int list * int list) option * Budget.stop_reason
(** A shortest witness walk as ([nodes], [edges]): [nodes] has one more
    element than [edges], starts at [src] and ends at [dst]. [None]
    when no walk satisfies the segment (or the budget stopped the
    search). *)

(** {1 Whole-pattern evaluation} *)

val run :
  ?strategy:Engine.strategy ->
  ?exhaustive:bool ->
  ?limit:int ->
  ?budget:Budget.t ->
  ?metrics:Gql_obs.Metrics.t ->
  ?ctx:ctx ->
  ?source:Engine.source ->
  pattern ->
  Graph.t ->
  Search.outcome
(** Match the core with {!Engine.run} (handing it [source], the core's
    cached plan if the caller keeps one), then keep the core mappings
    whose segment checks all hold. With no segments this is exactly an
    engine run (limit pushed down). With segments the core runs
    exhaustively, since a core mapping that fails its segments must
    not count against the limit, and [exhaustive]/[limit] apply after
    filtering. [ctx] (default: a fresh one) shares the reachability
    index across runs on one graph. *)
