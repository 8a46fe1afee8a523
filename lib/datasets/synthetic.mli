(** Synthetic graph generators for the experimental study (§5.2).

    "The synthetic graphs are generated using a simple Erdős–Rényi
    random graph model: generate n nodes, and then generate m edges by
    randomly choosing two end nodes. Each node is assigned a label (100
    distinct labels in total). The distribution of the labels follows
    Zipf's law." *)

open Gql_graph

val erdos_renyi :
  ?n_labels:int -> ?zipf_exponent:float -> Rng.t -> n:int -> m:int -> Graph.t
(** [erdos_renyi rng ~n ~m]: [n] nodes, [m] distinct edges with
    uniformly random endpoints (self-loops and duplicate edges are
    redrawn). Labels ["L0" .. "L<k-1>"] (default 100) assigned
    Zipf-distributed, most frequent first. *)

val hub :
  ?hub_label:string ->
  ?leaf_label:string ->
  ?mesh_label:string ->
  Rng.t ->
  n_hubs:int ->
  n_leaves:int ->
  n_mesh:int ->
  Graph.t
(** A hub-skewed graph for the adaptive-planner experiments: [n_hubs]
    hub nodes, [n_leaves] leaf nodes each attached to one hub chosen
    Zipf-distributed (rank 0 owns the most), and [n_mesh] mesh nodes
    each connected to {e every} hub. Per-edge reduction factors are
    therefore wildly non-uniform: hub–mesh joins do not reduce at all
    (γ = 1) while hub–leaf joins reduce by orders of magnitude — the
    shape that makes a static frequency-estimated order wrong and
    mid-query re-planning profitable. *)
