(** Neighborhood profiles (§4.2).

    A profile is a light-weight representation of a neighborhood
    subgraph: the sequence of its node labels in lexicographic order.
    The pruning condition is multiset containment ("whether a profile is
    a subsequence of the other"): pattern node [u] can match data node
    [v] only if [profile u] is contained in [profile v].

    Pattern nodes whose label is unconstrained contribute nothing to the
    pattern profile, which keeps the test sound (they can match any data
    label). *)

type t
(** A sorted multiset of labels. *)

val of_labels : string list -> t

val of_node : Graph.t -> r:int -> int -> t
(** Profile of a single node's radius-[r] neighborhood — one BFS, used
    by incremental index maintenance to recompute only dirty nodes. *)

val all : Graph.t -> r:int -> t array
(** Per-node profiles of radius [r], computed directly by BFS (no
    subgraph materialization). *)

val contains : big:t -> small:t -> bool
(** Multiset containment, O(|big| + |small|). *)

val size : t -> int
val labels : t -> string list
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
(** Prints the label sequence comma-separated, e.g. [A,B,C] for the
    paper's Figure 4.17 profile {i ABC}. The separator keeps distinct
    profiles distinct for multi-character labels ([["ab"; "c"]] and
    [["a"; "bc"]] would otherwise both print as [abc]). *)
