(** Per-node neighborhood profiles and subgraphs (§4.2).

    Built once over a data graph for a fixed radius [r]: profiles are
    precomputed for every node (they are cheap — one BFS ball each);
    full neighborhood subgraphs are materialized lazily and memoized,
    since only nodes that survive profile pruning ever need one. *)

type t

val build : ?r:int -> Gql_graph.Graph.t -> t
(** Default radius 1, as in the experimental study. *)

val update : t -> Gql_graph.Graph.t -> Gql_graph.Mutate.delta -> t * int
(** [update t g delta] is the index of the post-mutation graph [g],
    recomputing only the profiles of the delta's dirty nodes and of
    the appended nodes; the surviving nodes' profiles are copied in
    order, less the removed ones. Returns the new index
    and the number of profiles actually recomputed. Falls back to a
    full rebuild (recomputing all [n]) when the delta was tracked at a
    radius narrower than the index's. [t] is untouched. *)

val radius : t -> int
val graph : t -> Gql_graph.Graph.t
val profile : t -> int -> Gql_graph.Profile.t
val neighborhood : t -> int -> Gql_graph.Neighborhood.t
