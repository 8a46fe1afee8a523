(** Attributed graphs — the basic unit of information in GraphQL.

    A graph is a set of nodes and a set of edges, each annotated with an
    attribute {!Tuple.t}; the graph itself also carries a tuple (Section
    3.1). Nodes are dense integer ids [0 .. n_nodes-1]; edges are dense
    integer ids [0 .. n_edges-1]. Nodes and edges may additionally carry
    the variable names they were declared with ([v1], [e1], …) so that
    bindings and the text format can refer to them.

    Graphs are immutable once built. Construction goes through
    {!Builder}, which freezes into a compact representation with
    CSR-style adjacency so that the access methods of Section 4 can scan
    neighborhoods without allocation; {!add_node}, {!add_edge} and
    {!set_edge_tuple} derive a changed graph that shares every
    untouched row with its source. Undirected graphs store each edge
    once but list it in both endpoints' adjacency. *)

type edge = {
  src : int;
  dst : int;
  etuple : Tuple.t;
}

type t

(** {1 Basic accessors} *)

val directed : t -> bool
val name : t -> string option
val tuple : t -> Tuple.t
(** The graph-level attribute tuple. *)

val stamp : t -> int
(** A number unique to this value's construction: {!Builder.build},
    {!with_name}, {!map_node_tuples} and the copy-on-write extensions
    each draw a fresh one, so two
    structurally equal graphs have different stamps. Identity only — an
    O(1) hash for tables keyed by physical identity ([==]); it is never
    persisted, printed or compared for equality. *)

val n_nodes : t -> int
val n_edges : t -> int

val node_tuple : t -> int -> Tuple.t
val label : t -> int -> string
(** [label g v] is [Tuple.label (node_tuple g v)] — the canonical label
    used by the experiments. *)

val node_name : t -> int -> string option
val node_by_name : t -> string -> int option
val edge : t -> int -> edge
val edge_name : t -> int -> string option
val edge_by_name : t -> string -> int option

(** {1 Adjacency} *)

val degree : t -> int -> int
(** Number of incident edges (out-degree for directed graphs). *)

val in_degree : t -> int -> int
(** Equal to [degree] on undirected graphs. *)

val adj_nbrs : t -> int -> int array
(** [adj_nbrs g v] are the ids of [v]'s neighbors (outgoing for
    directed graphs), one entry per incident edge, sorted by neighbor
    id then edge id — parallel edges to the same neighbor form a
    contiguous run. Owned by the graph: do not mutate. *)

val adj_eids : t -> int -> int array
(** Edge ids aligned with {!adj_nbrs}: entry [i] is the edge to
    neighbor [(adj_nbrs g v).(i)]. Owned by the graph. *)

val in_nbrs : t -> int -> int array
(** The in-row of [v] on directed graphs, sorted like {!adj_nbrs}:
    the sources of the edges into [v]. The same array as {!adj_nbrs}
    on undirected graphs. Owned by the graph. *)

val in_eids : t -> int -> int array
(** Edge ids aligned with {!in_nbrs}. Owned by the graph. *)

val iter_incident : t -> int -> f:(int -> int -> unit) -> unit
(** [iter_incident g v ~f] calls [f neighbor edge_id] for the out-row
    of [v] in order, then, on directed graphs, for its in-row. *)

val undirected_neighbor_ids : t -> int -> int array
(** Distinct neighbor ids of [v] ignoring orientation and parallel
    edges, ascending. Fresh array; safe to keep. *)

val has_edge : t -> int -> int -> bool
(** [has_edge g u v] — for undirected graphs, orientation-insensitive.
    A binary search over [u]'s sorted adjacency row. *)

val find_edge : t -> int -> int -> int option
(** Smallest edge id connecting [u] to [v] (if parallel edges, the
    first). *)

val find_all_edges : t -> int -> int -> int list
(** Ascending edge ids. For directed graphs only edges oriented
    [u -> v]; for undirected graphs both storage orientations. *)

(** {1 Iteration} *)

val fold_nodes : t -> init:'a -> f:('a -> int -> 'a) -> 'a
val iter_nodes : t -> f:(int -> unit) -> unit
val fold_edges : t -> init:'a -> f:('a -> int -> edge -> 'a) -> 'a
val iter_edges : t -> f:(int -> edge -> unit) -> unit

(** {1 Derived graphs} *)

val with_name : t -> string option -> t

val map_node_tuples : t -> f:(int -> Tuple.t -> Tuple.t) -> t
(** Same nodes, edges, names and adjacency (shared, not copied); only
    the node tuples are replaced. *)

val induced_subgraph : t -> int list -> t * int array
(** [induced_subgraph g vs] keeps the listed nodes (deduplicated) and all
    edges between them. Returns the subgraph and the array mapping new
    node ids to old ones. *)

val disjoint_union : ?name:string -> ?tuple:Tuple.t -> t -> t -> t * int array * int array
(** Cartesian-product support (Section 3.3): both graphs side by side,
    unconnected. Also returns the node renumberings of each operand.
    Variable names are prefixed with ["l:"] / ["r:"] on clash. *)

val label_histogram : t -> (string, int) Hashtbl.t
(** Frequency of each node label; used by the cost model (§4.4). *)

val edge_label_histogram : t -> (string * string, int) Hashtbl.t
(** Frequency of each unordered (ordered if directed) endpoint-label pair. *)

(** {1 Equality} *)

val equal_structure : t -> t -> bool
(** Same directedness, node count, and identical edge set under identity
    node mapping, with equal tuples — {e not} isomorphism (see {!Iso}). *)

val pp : Format.formatter -> t -> unit
(** Prints in GraphQL textual syntax ([graph G <...> { node ...; edge ...; }]):
    a header line, one line per node then edge declaration indented by
    two, and a closing brace. A declaration is never split across lines,
    however long. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Appends the text of [Format.asprintf "%a" pp g], without the
    formatter. *)

val to_string : t -> string
(** The text {!add_to_buffer} appends, as a string. *)

val prints_as : t -> t -> bool
(** A sufficient test that two graphs print the same text: the same
    skeleton — physically equal name, graph tuple, node names, edges and
    edge names, and equal directedness — and node tuples that pairwise
    {!Tuple.prints_as}. Graphs one compiled template returns
    ([Gql_core.Template.compile]) share their skeleton, so the test is
    a few pointer compares plus one pass over the node tuples; any two
    graphs built separately fail it, whatever their text. *)

(** {1 Copy-on-write extension}

    Each returns a new graph equal to the one {!Builder} would build
    from the source graph's nodes and edges plus the change, adjacency
    row order included, and leaves the source graph unchanged. Only
    the changed rows are new: a node append copies the outer node
    arrays, an edge append replaces the endpoints' adjacency rows, and
    everything else is shared. *)

val add_node : t -> ?name:string -> Tuple.t -> t * int
(** Appends a node with no edges; returns the new graph and the node's
    id ([n_nodes] of the source). Raises [Invalid_argument] on a
    duplicate node name. *)

val add_edge : t -> ?name:string -> ?tuple:Tuple.t -> int -> int -> t * int
(** [add_edge g u v] appends an edge; returns the new graph and the
    edge's id ([n_edges] of the source). Raises [Invalid_argument] on
    an endpoint out of range or a duplicate edge name. *)

val set_edge_tuple : t -> int -> Tuple.t -> t
(** Replaces one edge's tuple; adjacency and names are shared. Raises
    [Invalid_argument] on an edge id out of range. *)

(** {1 Construction} *)

module Builder : sig
  type graph := t
  type t

  val create : ?directed:bool -> ?name:string -> ?tuple:Tuple.t -> unit -> t

  val add_node : t -> ?name:string -> Tuple.t -> int
  (** Returns the new node's id. Raises [Invalid_argument] on duplicate
      node name. *)

  val add_labeled_node : t -> ?name:string -> string -> int
  (** Node whose tuple is [<label=l>]. *)

  val add_edge : t -> ?name:string -> ?tuple:Tuple.t -> int -> int -> int
  (** [add_edge b u v] returns the new edge's id. Endpoints must already
      exist. *)

  val n_nodes : t -> int

  val build : t -> graph
  (** Freezes the builder. The builder must not be used afterwards. *)
end

val of_edges : ?directed:bool -> n:int -> (int * int) list -> t
(** Unlabeled-graph helper (every node tuple empty): [n] nodes and the
    given edges. *)

val of_labeled :
  ?directed:bool -> labels:string array -> (int * int) list -> t
(** Nodes [0..Array.length labels - 1] with [<label=...>] tuples. *)
