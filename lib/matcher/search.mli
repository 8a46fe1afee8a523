(** The backtracking search of Algorithm 4.1 (second phase).

    Depth-first search over Φ(u₁) × … × Φ(u_k) in a given node order.
    [Check(uᵢ, v)] verifies the pattern edges from [uᵢ] to
    already-mapped nodes (existence, orientation, and the edge
    predicate Fe); the graph-wide predicate F is evaluated on complete
    mappings only.

    Every entry point takes an optional {!Budget.t}: the search then
    stops cooperatively at a wall-clock deadline, a Check-call budget
    or a cancellation token, returning the partial mappings found so
    far plus the structured reason in [stopped].

    The descend loop below is the only one ({!Reference} aside,
    the oracle). {!Ws.search}, the search phase of every
    {!Engine.run}, runs its tasks through it and always calls its
    [~report], when given, with the merged {!profile}: at one static
    worker that is the profile {!run} fills. *)

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
    space: one {!descend} over every root. [exhaustive] (default true):
    all mappings, else stop at the first (§3.3's [exhaustive] option).
    [limit] caps the number of reported mappings regardless (the
    experiments stop at 1000). [order] defaults to the input order
    [0..k-1]. [profile], when given, receives the per-position Check
    and descent counts.

    [metrics] (default disabled) receives the visited / backtrack /
    match counters after the search — one flush, nothing on the hot
    path. *)

(** {1 The descend loop}

    Algorithm 4.1's visit loop exists once, here. A {!walker} holds one
    search thread's state; {!run} descends it over all roots, and each
    {!Ws} task descends one over the task's prefix and candidate
    range. *)

type walker

val walker :
  ?budget:Budget.t ->
  ?profile:profile ->
  ?expose:(int array -> int -> int -> int -> bool) ->
  on_match:(int array -> bool) ->
  Flat_pattern.t ->
  Graph.t ->
  Feasible.space ->
  walker
(** A fresh walker; polls [budget] once, so an already-expired deadline
    or cancelled token halts it before any work. [on_match phi] is
    called on each complete mapping that satisfies the graph-wide
    predicate ([phi] is reused: copy to keep it) and returns whether to
    go on; [false] halts the walker with [Hit_limit]. [profile]
    (default none) receives Check calls and descents per order
    position while profiling is on (initially on when given).

    [expose phi depth lo hi] is the sibling-exposure hook: called before
    each candidate at [depth] while more than one remains, at every
    order position but the last (a leaf is one Check call), with the
    untouched candidate indices [lo, hi) under the prefix in [phi]. If
    it returns [true] it has taken that range and the level ends after
    the current candidate. Without it the loop never splits. *)

val descend :
  walker ->
  order:int array ->
  back:back array ->
  prefix:int array ->
  int ->
  int ->
  unit
(** [descend w ~order ~back ~prefix lo hi]: assign [prefix] to order
    positions [0 .. d-1] (values already checked), then explore
    candidates [lo, hi) of [order.(d)] depth-first, with [back] the
    {!back_edges} of [order]. Returns, with the prefix released, when
    the range is exhausted or the walker halts. *)

val halted : walker -> bool

val stop : walker -> Budget.stop_reason -> unit
(** Halt with this reason; the loop returns at its next candidate. *)

val reason : walker -> Budget.stop_reason
(** [Exhausted] until the walker is halted. *)

val visited : walker -> int
(** Check calls so far. *)

val set_profiling : walker -> bool -> unit
(** Turn profile counting on or off (no effect without a profile). *)

val flush : walker -> Gql_obs.Metrics.t -> unit
(** Add the walker's visited / backtrack / match counts to the
    metrics. *)
