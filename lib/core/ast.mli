(** Abstract syntax of GraphQL (Appendix 4.A).

    The same [graph { ... }] body syntax serves three roles:
    - a {e data graph} literal (all attributes constant, no predicates);
    - a {e graph pattern} (Definition 4.1) — the motif language of
      Section 2, with nested motif references, disjunction, repetition
      (recursion by name), unification, exports, and predicates;
    - a {e graph template} (Definition 4.4) inside FLWR expressions,
      whose member declarations may reference the formal parameters.

    Beyond the appendix grammar, the parser accepts the constructs used
    throughout the chapter's figures: [graph G1 as X;] aliases
    (Fig 4.4), [{ ... } | { ... }] disjunction blocks (Fig 4.5),
    [export Path.v2 as v2;] (Fig 4.6), and [unify ... where ...]
    conditional unification in templates (Fig 4.12). *)

open Gql_graph

type path = string list
(** A dotted name, [P.v1.name] = [["P"; "v1"; "name"]]. *)

type tuple_lit = {
  tag : string option;
  fields : (string * Pred.t) list;
      (** field values are expressions: constant in patterns/data,
          parameter-dependent in templates *)
}

type node_decl = {
  n_name : string option;
  n_tuple : tuple_lit option;
  n_where : Pred.t option;
  n_copy : path option;
      (** templates only: [node P.v1] copies a matched node and is
          exclusive with the other fields *)
}

type edge_decl = {
  e_name : string option;
  e_src : path;
  e_dst : path;
  e_rep : (int * int option) option;
      (** repetition bounds [*min..max] on the edge ([edge e (a, b)
          *1..3;]); [None] in the max means unbounded ([*1..]), [None]
          overall means a plain single edge. A repeated edge stands for
          a walk, so it cannot be named. *)
  e_tuple : tuple_lit option;
  e_where : Pred.t option;
}

type member =
  | Nodes of node_decl list
  | Edges of edge_decl list
  | Graph_refs of (string * string option) list
      (** [graph G1 as X, G2;] — nested motif / parameter / variable
          references with optional aliases *)
  | Unify of path list * Pred.t option
      (** [unify a, b, c [where p];] *)
  | Exports of (path * string) list  (** [export X.v2 as v2;] *)
  | Alt of member list list
      (** disjunction of anonymous blocks; a single block is grouping *)

type graph_decl = {
  g_name : string option;
  g_tuple : tuple_lit option;
  g_members : member list;
  g_where : Pred.t option;
}

type flwr = {
  f_pattern : [ `Named of string | `Inline of graph_decl ];
  f_exhaustive : bool;
  f_source : string;  (** the [doc("...")] collection name *)
  f_where : Pred.t option;
  f_body : body;
}

and body =
  | Return of template
  | Let of string * template

and template =
  | Tgraph of graph_decl
  | Tvar of string  (** a template that is just a variable reference *)

(** {1 DML}

    NebulaGraph-style write statements over document collections:
    {[
      insert node a <label="C"> into doc("mols").G1;
      insert edge b1 (a, b) <w=1> into doc("mols").G1;
      insert graph G9 { node x <label="C">; } into doc("mols");
      update node doc("mols").G1.a set <label="N">;
      update edge doc("mols").G1.b1 set <w=2>;
      delete node doc("mols").G1.a;
      delete edge doc("mols").G1.b1;
      delete graph doc("mols").G1;
    ]}
    Nodes and edges are addressed by their declared names within the
    named graph; [update ... set] merges the tuple (new fields win). *)

type doc_ref = {
  d_doc : string;  (** the [doc("...")] collection name *)
  d_graph : string;  (** graph name within the collection *)
}

type dml =
  | Insert_node of {
      i_name : string;
      i_tuple : tuple_lit option;
      i_into : doc_ref;
    }
  | Insert_edge of {
      i_name : string option;
      i_src : string;
      i_dst : string;
      i_tuple : tuple_lit option;
      i_into : doc_ref;
    }
  | Insert_graph of { i_decl : graph_decl; i_doc : string }
      (** the decl must be a data graph (constant attributes) *)
  | Update_node of { u_ref : doc_ref; u_node : string; u_tuple : tuple_lit }
  | Update_edge of { u_ref : doc_ref; u_edge : string; u_tuple : tuple_lit }
  | Delete_node of { x_ref : doc_ref; x_node : string }
  | Delete_edge of { x_ref : doc_ref; x_edge : string }
  | Delete_graph of doc_ref

(** {1 Path queries}

    NebulaGraph-style traversal verbs:
    {[
      find path from a where label == "N0" to b where label == "N9"
        in doc("D");
      find shortest path from <person> to <person name="bo"> over <knows> *1..
        in doc("D");
      get subgraph from a where label == "Hub" within 2 in doc("D");
    ]}
    Endpoints are anonymous node declarations (tuple constraints plus a
    [where] predicate); [over] constrains every step edge and gives the
    hop bounds (default [*1..]). *)

type path_query = {
  q_kind : [ `Path of bool  (** shortest? *) | `Subgraph of int  (** radius *) ];
  q_from : node_decl;
  q_to : node_decl option;  (** [None] only for [`Subgraph] *)
  q_edge : tuple_lit option;  (** constraint on every step edge *)
  q_rep : int * int option;  (** hop bounds; default [(1, None)] *)
  q_source : string;  (** the [doc("...")] collection name *)
}

(** {1 Views}

    [create [materialized] view v as <flwr>;] names a graph-returning
    query. A materialized view keeps its result graphs (incrementally
    maintained off the transaction log by the exec service); a plain
    view is re-evaluated on every read. Either kind is read with the
    [view("v")] source form, encoded as a ["view:v"]-prefixed
    [f_source]/[q_source] so doc resolution applies unchanged. *)

type view_def = {
  v_name : string;
  v_materialized : bool;
  v_query : flwr;
}

type statement =
  | Sgraph of graph_decl  (** named pattern / data graph definition *)
  | Sassign of string * template  (** [C := graph {...};] *)
  | Sflwr of flwr
  | Sdml of dml
  | Spath of path_query
  | Screate_view of view_def
  | Sdrop_view of string

type program = statement list

val view_source : string -> string
(** [view_source "v"] is the ["view:v"] source-name encoding. *)

val view_of_source : string -> string option
(** The view name of a ["view:..."]-encoded source, [None] for a doc. *)

val is_dml : statement -> bool
(** DML and view DDL both consume a write slot. *)

val count_dml : program -> int
(** Number of write statements (DML plus view create/drop) — the write
    slots a program can consume, used by the service to reserve log
    sequence numbers at submit. *)

(** {1 Pretty printing} *)

val pp_tuple_lit : Format.formatter -> tuple_lit -> unit
val pp_graph_decl : Format.formatter -> graph_decl -> unit
val pp_source : Format.formatter -> string -> unit
(** [doc("D")] or [view("v")] from the encoded source name. *)

val pp_flwr : Format.formatter -> flwr -> unit
val pp_dml : Format.formatter -> dml -> unit
val pp_path_query : Format.formatter -> path_query -> unit
val pp_statement : Format.formatter -> statement -> unit
