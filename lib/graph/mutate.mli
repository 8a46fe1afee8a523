(** Point mutations over immutable graphs, with change tracking.

    Appends and tuple replacements derive the new graph copy-on-write
    (only the touched adjacency rows are new; see {!Graph.add_edge});
    deletions renumber ids and rebuild the CSR graph. The returned
    {!delta} records the id renumbering and the {e dirty set}:
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
  node_map : int array;
      (** Old node id → new node id, [-1] if the node was deleted. *)
  edge_map : int array;
      (** Old edge id → new edge id, [-1] if the edge was deleted
          (directly or via an endpoint deletion). *)
  dirty : int array;
      (** Sorted, deduplicated {e new} node ids whose radius-[d_r]
          profile may have changed. Sound over-approximation: every
          changed profile is listed; listed profiles may be unchanged. *)
}

val apply : ?r:int -> Graph.t -> op -> Graph.t * delta
(** Apply one operation. [r] (default 1) is the profile radius tracked
    by the dirty set. Raises [Invalid_argument] on out-of-range ids or
    duplicate node/edge names. *)

val apply_all : ?r:int -> Graph.t -> op list -> Graph.t * delta
(** Apply a batch left to right; maps and dirty set are composed across
    the ops (maps relate the original graph to the final one). *)
