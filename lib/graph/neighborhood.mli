(** Neighborhood subgraphs (Definition 4.10).

    Given graph [g], node [v] and radius [r], the neighborhood subgraph
    of [v] consists of all nodes within distance [r] (number of hops)
    from [v] and all edges between them. Radius 0 degenerates to the
    node itself.

    The matcher uses neighborhood subgraphs for local pruning (§4.2):
    [v] is a feasible mate of pattern node [u] only if the neighborhood
    subgraph of [u] is sub-isomorphic to that of [v] with [u] mapped to
    [v]. *)

type t = {
  center : int;  (** id of the center node {e in the subgraph}. *)
  graph : Graph.t;
  original : int array;  (** subgraph node id -> id in the host graph. *)
}

val nodes_within : Graph.t -> int -> r:int -> int list
(** BFS ball: all nodes at distance <= [r] from the given node (treating
    edges as undirected even in directed graphs, following the paper's
    hop-count definition). Sorted ascending. *)

val make : Graph.t -> int -> r:int -> t
(** The neighborhood subgraph of one node. *)
