(** Node-label index.

    §4.2: "If the node attributes are selective, e.g., many unique
    attribute values, then one can index the node attributes using a
    B-tree or hashtable". This index maps each label to the ids of the
    nodes carrying it, stored in a {!Btree} keyed by label, and keeps the
    label frequencies needed by both the cost model (§4.4) and the
    experimental workload generator ("top 40 most frequent labels"). *)

type t

val build : Gql_graph.Graph.t -> t

val update :
  t ->
  old_graph:Gql_graph.Graph.t ->
  Gql_graph.Graph.t ->
  Gql_graph.Mutate.delta ->
  t
(** Incremental maintenance after a mutation of [old_graph] into the new
    graph. Structure is shared with [t] (the B-tree is persistent);
    [t] itself is untouched and stays valid for [old_graph]. Falls back
    to a full {!build} when the delta removed a node, which renumbers
    the ids after it. *)

val nodes_with_label : t -> string -> int list
(** Ascending node ids; [[]] for unknown labels. *)

val frequency : t -> string -> int

val labels : t -> string list
(** All distinct labels, ascending. *)

val distinct_labels : t -> int

val top_frequent : t -> int -> string list
(** [top_frequent idx k]: the [k] most frequent labels, most frequent
    first (ties broken by label order). *)

val range : t -> lo:string -> hi:string -> (string * int list) list
(** Labels within the inclusive range, via a B-tree range scan. *)
