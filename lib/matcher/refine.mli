(** Joint reduction of the search space (§4.3, Algorithm 4.2).

    Pseudo subgraph isomorphism: iteratively remove [v] from Φ(u)
    whenever the bipartite graph B(u,v) between the neighbors of [u]
    (in the pattern) and of [v] (in the data graph) — with an edge
    (u', v') iff v' ∈ Φ(u') — has no semi-perfect matching.

    Includes the paper's two implementation improvements: pairs are
    marked/unmarked in a worklist so a bipartite matching is recomputed
    only when a neighboring pair was invalidated, and the pair table is
    hashed rather than materialized as a k×n matrix. *)

open Gql_graph

type stats = {
  levels_run : int;
  pairs_checked : int;  (** semi-perfect matchings computed *)
  removed : int;  (** candidate pairs pruned *)
}

val refine :
  ?metrics:Gql_obs.Metrics.t ->
  Flat_pattern.t ->
  Graph.t ->
  Feasible.space ->
  Feasible.space * stats
(** [refine p g space]: the reduced space, after at most as many
    levels as the pattern has nodes (the setting of the experiments,
    §5.1). The input space is not mutated. [metrics] (default disabled) receives the
    returned {!stats} as counters.

    Each semi-perfect check picks its kernel from the data node's
    neighbor count: small rows go through the consed-list
    Hopcroft–Karp (the packed rows' setup cost dominates tiny
    bipartite problems), larger rows through the word-packed
    {!Bipartite.kuhn_packed}. Both kernels compute the same predicate,
    so the fixpoint is identical whichever is picked. *)

val refine_packed :
  ?metrics:Gql_obs.Metrics.t ->
  Flat_pattern.t ->
  Graph.t ->
  Feasible.space ->
  Feasible.space * stats
(** Always the word-packed kernel: rows built as packed bit words in a
    reused scratch (no consing), an isolated left vertex aborts the
    check before any matching runs, and {!Bipartite.kuhn_packed}
    intersects rows with the visited mask a word at a time. Kept for
    the kernel-crossover benchmark. *)

val refine_lists :
  ?metrics:Gql_obs.Metrics.t ->
  Flat_pattern.t ->
  Graph.t ->
  Feasible.space ->
  Feasible.space * stats
(** The PR1-era engine: bipartite rows consed as int lists, matched
    with Hopcroft–Karp. Same worklist, same fixpoint — kept as the
    bench baseline for the word-packed {!refine} and as an independent
    implementation for equivalence tests. *)

val refine_naive :
  ?metrics:Gql_obs.Metrics.t ->
  Flat_pattern.t ->
  Graph.t ->
  Feasible.space ->
  Feasible.space * stats
(** The textbook refinement procedure {e without} the worklist
    improvement: every surviving pair is re-checked at every level.
    Same fixpoint; kept for the ablation benchmark and as a test
    oracle. *)
