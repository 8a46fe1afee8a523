(** Matched graphs (Definition 4.3).

    Given an injective mapping φ between a pattern P and a graph G, a
    matched graph is the triple ⟨φ, P, G⟩. It has all characteristics
    of a graph (we expose the underlying G) {e plus} the binding, which
    lets templates and predicates access the matched elements by their
    pattern variable names. *)

open Gql_graph

type t = {
  pattern : Gql_matcher.Flat_pattern.t;
  graph : Graph.t;
  phi : int array;  (** pattern node id -> data node id *)
}

val make : Gql_matcher.Flat_pattern.t -> Graph.t -> int array -> t

val var_index : Gql_matcher.Flat_pattern.t -> string -> int option
(** Pattern node id of the first variable with that name. *)

val node : t -> string -> int option
(** Data node bound to the pattern variable of that name:
    [phi.(u)] for [var_index m.pattern name = Some u]. *)

val node_tuple : t -> string -> Tuple.t option

val edge : t -> string -> int option
(** Data edge matched by the named pattern edge (any one, if the data
    graph has parallel candidates). *)

val env : t -> Pred.env
(** Resolves [v1.attr] paths through the binding: pattern node and edge
    variables map to the matched elements' tuples; unknown single-
    component paths fall back to the data graph's own tuple. *)

val to_graph : t -> Graph.t
(** The matched subgraph, materialized: one node per pattern variable
    (carrying the {e data} node's tuple, named by the pattern variable)
    and one edge per pattern edge. *)

val same_binding : t -> t -> bool
