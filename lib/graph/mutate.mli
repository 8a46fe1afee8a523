(** Point mutations over immutable graphs, with change tracking.

    Appends and tuple replacements derive the new graph copy-on-write
    (only the touched adjacency rows are new; see {!Graph.add_edge});
    deletions renumber ids and rebuild the CSR graph, keeping the
    survivors in their order. The returned {!delta} records the
    deleted ids and the {e dirty set}:
    the nodes whose radius-r neighborhood profile may differ from
    before. Index maintenance uses the dirty set to recompute only the
    affected profiles instead of rebuilding from scratch. *)

type op =
  | Add_node of { name : string option; tuple : Tuple.t }
      (** Append a node; its id is [n_nodes] of the pre-op graph. *)
  | Add_edge of { name : string option; src : int; dst : int; tuple : Tuple.t }
      (** Append an edge between existing nodes. *)
  | Set_node of { v : int; tuple : Tuple.t }  (** Replace node [v]'s tuple. *)
  | Set_edge of { e : int; tuple : Tuple.t }  (** Replace edge [e]'s tuple. *)
  | Del_node of int  (** Remove a node and all incident edges. *)
  | Del_edge of int  (** Remove a single edge. *)

type delta = {
  d_r : int;  (** Radius the dirty set was computed for. *)
  removed : int array;
      (** The deleted nodes of the pre-state, as ascending old ids.
          Nodes keep their order, so these fix the renumbering: see
          {!renumber}. Empty when no node of the pre-state was
          deleted, whatever was appended. *)
  dirty : int array;
      (** Sorted, deduplicated {e new} node ids whose radius-[d_r]
          profile may have changed. Sound over-approximation: every
          changed profile is listed; listed profiles may be unchanged. *)
}

val renumber : delta -> int -> int
(** [renumber d u] is the new id of node [u] of the pre-state, or [-1]
    if the write deleted it: [u] less the number of removed ids below
    it. O(log (removed)). Nodes appended by the write have no old id. *)

val apply : ?r:int -> Graph.t -> op -> Graph.t * delta
(** Apply one operation. [r] (default 1) is the profile radius tracked
    by the dirty set. Raises [Invalid_argument] on out-of-range ids or
    duplicate node/edge names. *)

val apply_all : ?r:int -> Graph.t -> op list -> Graph.t * delta
(** Apply a batch left to right; the dirty set is carried across the
    ops, and [removed] lists the nodes of the original graph that the
    batch deleted, in its ids. *)
