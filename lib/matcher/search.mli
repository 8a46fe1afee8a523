(** The backtracking search of Algorithm 4.1 (second phase).

    Depth-first search over Φ(u₁) × … × Φ(u_k) in a given node order.
    [Check(uᵢ, v)] verifies the pattern edges from [uᵢ] to
    already-mapped nodes (existence, orientation, and the edge
    predicate Fe); the graph-wide predicate F is evaluated on complete
    mappings only.

    Every entry point takes an optional {!Budget.t}: the search then
    stops cooperatively at a wall-clock deadline, a Check-call budget
    or a cancellation token, returning the partial mappings found so
    far plus the structured reason in [stopped]. *)

open Gql_graph

type outcome = {
  mappings : int array list;
  (** Complete mappings φ (pattern node → data node), in discovery
      order. Truncated at [limit] or a budget stop. *)
  n_found : int;
  visited : int;  (** search-tree nodes expanded (Check calls) *)
  stopped : Budget.stop_reason;
  (** [Exhausted]: the space was fully explored (all mappings
      delivered). [Hit_limit]: stopped at [limit] or, with
      [~exhaustive:false], at the first mapping. Otherwise the budget
      stopped the search and [mappings] is the prefix found so far. *)
}

type profile = {
  pr_checked : int array;  (** Check calls per order position *)
  pr_descents : int array;  (** successful extensions per order position *)
}
(** Per-position observation arrays for the adaptive planner: comparing
    [pr_descents] against {!Cost.position_estimates} is how estimate /
    actual drift is detected. Pass a fresh one per search; the search
    adds into it. *)

val profile_create : int -> profile
(** [profile_create k]: zeroed arrays for a k-node pattern. *)

val profile_reset : profile -> unit

type back
(** Precomputed back-edges (pattern edges into earlier order positions)
    for one order position, as flat parallel arrays. *)

val back_edges : Flat_pattern.t -> int array -> back array
(** [back_edges p order]: one entry per order position. Immutable once
    built — safe to share across domains. *)

val node_check :
  g:Graph.t ->
  p:Flat_pattern.t ->
  pattern_directed:bool ->
  back array ->
  int array ->
  int ->
  int ->
  bool
(** [node_check ~g ~p ~pattern_directed back phi i v]: may [order.(i)]
    be mapped to [v] given the partial mapping [phi]? The structural
    part of Check(uᵢ, v) — budget accounting is the caller's job.
    [pattern_directed] caches [Graph.directed p.structure]. Used by the
    work-stealing engine ({!Ws}), which runs its own visit loop. *)

val run :
  ?exhaustive:bool ->
  ?limit:int ->
  ?budget:Budget.t ->
  ?metrics:Gql_obs.Metrics.t ->
  ?order:int array ->
  ?profile:profile ->
  Flat_pattern.t ->
  Graph.t ->
  Feasible.space ->
  outcome
(** [run p g space] searches for pattern matchings within the candidate
    space. [exhaustive] (default true): all mappings, else stop at the
    first (§3.3's [exhaustive] option). [limit] caps the number of
    reported mappings regardless (the experiments stop at 1000).
    [order] defaults to the input order [0..k-1].

    [metrics] (default disabled) receives the visited / backtrack /
    match counters after the search — one flush, nothing on the hot
    path. *)

val run_raw :
  ?budget:Budget.t ->
  ?metrics:Gql_obs.Metrics.t ->
  ?order:int array ->
  ?profile:profile ->
  ?root_range:int * int ->
  on_match:(int array -> [ `Continue | `Stop ]) ->
  Flat_pattern.t ->
  Graph.t ->
  Feasible.space ->
  int * Budget.stop_reason
(** The primitive under {!run}: streams each mapping (array reused) and
    returns [(visited, stopped)] — [Hit_limit] when [on_match] returned
    [`Stop], [Exhausted] on a full exploration, a budget reason
    otherwise. [root_range] restricts position 0 to the candidate
    indices [lo, hi) — the slice primitive {!Adapt.run} re-plans
    between. *)
