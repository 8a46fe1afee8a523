open Gql_graph

type path = string list

type tuple_lit = {
  tag : string option;
  fields : (string * Pred.t) list;
}

type node_decl = {
  n_name : string option;
  n_tuple : tuple_lit option;
  n_where : Pred.t option;
  n_copy : path option;
}

type edge_decl = {
  e_name : string option;
  e_src : path;
  e_dst : path;
  e_rep : (int * int option) option;
      (** repetition bounds [*min..max]; [None] in the max means
          unbounded, [None] overall means a plain single edge *)
  e_tuple : tuple_lit option;
  e_where : Pred.t option;
}

type member =
  | Nodes of node_decl list
  | Edges of edge_decl list
  | Graph_refs of (string * string option) list
  | Unify of path list * Pred.t option
  | Exports of (path * string) list
  | Alt of member list list

type graph_decl = {
  g_name : string option;
  g_tuple : tuple_lit option;
  g_members : member list;
  g_where : Pred.t option;
}

type flwr = {
  f_pattern : [ `Named of string | `Inline of graph_decl ];
  f_exhaustive : bool;
  f_source : string;
  f_where : Pred.t option;
  f_body : body;
}

and body =
  | Return of template
  | Let of string * template

and template =
  | Tgraph of graph_decl
  | Tvar of string

(* DML (NebulaGraph-style): a doc_ref names a graph inside a document
   collection; nodes and edges inside it are addressed by their
   declared names. *)
type doc_ref = {
  d_doc : string;  (** document/collection name, as in [doc("...")] *)
  d_graph : string;  (** graph name within the document *)
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
  | Update_node of { u_ref : doc_ref; u_node : string; u_tuple : tuple_lit }
  | Update_edge of { u_ref : doc_ref; u_edge : string; u_tuple : tuple_lit }
  | Delete_node of { x_ref : doc_ref; x_node : string }
  | Delete_edge of { x_ref : doc_ref; x_edge : string }
  | Delete_graph of doc_ref

(* Path queries (NebulaGraph-style verbs): endpoint candidates are
   given as anonymous node declarations, the walk constraint as an
   optional edge tuple plus repetition bounds. *)
type path_query = {
  q_kind : [ `Path of bool (* shortest *) | `Subgraph of int (* radius *) ];
  q_from : node_decl;
  q_to : node_decl option;  (** [None] only for [`Subgraph] *)
  q_edge : tuple_lit option;  (** constraint on every step edge *)
  q_rep : int * int option;  (** hop bounds; default [1, None] *)
  q_source : string;  (** document collection, as in [in doc("...")] *)
}

(* Materialized views (ROADMAP "graph-returning queries as a product
   surface"): a named, stored FLWR result. [CREATE MATERIALIZED VIEW v
   AS <flwr>] evaluates the query once and keeps the result graphs;
   later statements read them with the [view("v")] source form, which
   is encoded as an [f_source]/[q_source] of ["view:v"] so the whole
   doc-resolution machinery applies unchanged. *)
type view_def = {
  v_name : string;
  v_materialized : bool;
  v_query : flwr;
}

type statement =
  | Sgraph of graph_decl
  | Sassign of string * template
  | Sflwr of flwr
  | Sdml of dml
  | Spath of path_query
  | Screate_view of view_def
  | Sdrop_view of string

type program = statement list

let view_source name = "view:" ^ name

let view_of_source s =
  if String.length s > 5 && String.sub s 0 5 = "view:" then
    Some (String.sub s 5 (String.length s - 5))
  else None

let is_dml = function
  | Sdml _ | Screate_view _ | Sdrop_view _ -> true
  | _ -> false

let count_dml program = List.length (List.filter is_dml program)

(* --- pretty printing ---------------------------------------------------- *)

let pp_path ppf p = Format.pp_print_string ppf (String.concat "." p)

let pp_tuple_lit ppf t =
  Format.pp_print_char ppf '<';
  (match t.tag with
  | Some tag ->
    Format.pp_print_string ppf tag;
    if t.fields <> [] then Format.pp_print_char ppf ' '
  | None -> ());
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ' ')
    (fun ppf (k, e) -> Format.fprintf ppf "%s=%a" k Pred.pp e)
    ppf t.fields;
  Format.pp_print_char ppf '>'

let pp_opt_tuple ppf = function
  | None -> ()
  | Some t -> Format.fprintf ppf " %a" pp_tuple_lit t

let pp_opt_where ppf = function
  | None -> ()
  | Some p -> Format.fprintf ppf " where %a" Pred.pp p

let pp_node ppf (n : node_decl) =
  match n.n_copy with
  | Some p -> pp_path ppf p
  | None ->
    Format.fprintf ppf "%s%a%a"
      (Option.value n.n_name ~default:"")
      pp_opt_tuple n.n_tuple pp_opt_where n.n_where

let pp_rep ppf = function
  | None -> ()
  | Some (min, max) ->
    Format.fprintf ppf " *%d..%s" min
      (match max with Some m -> string_of_int m | None -> "")

let pp_edge ppf (e : edge_decl) =
  Format.fprintf ppf "%s (%a, %a)%a%a%a"
    (Option.value e.e_name ~default:"")
    pp_path e.e_src pp_path e.e_dst pp_rep e.e_rep pp_opt_tuple e.e_tuple
    pp_opt_where e.e_where

let comma ppf () = Format.fprintf ppf ",@ "

let rec pp_member ppf = function
  | Nodes ns ->
    Format.fprintf ppf "@[<h>node %a;@]"
      (Format.pp_print_list ~pp_sep:comma pp_node)
      ns
  | Edges es ->
    Format.fprintf ppf "@[<h>edge %a;@]"
      (Format.pp_print_list ~pp_sep:comma pp_edge)
      es
  | Graph_refs rs ->
    let pp_ref ppf (name, alias) =
      match alias with
      | None -> Format.pp_print_string ppf name
      | Some a -> Format.fprintf ppf "%s as %s" name a
    in
    Format.fprintf ppf "@[<h>graph %a;@]"
      (Format.pp_print_list ~pp_sep:comma pp_ref)
      rs
  | Unify (paths, where) ->
    Format.fprintf ppf "@[<h>unify %a%a;@]"
      (Format.pp_print_list ~pp_sep:comma pp_path)
      paths pp_opt_where where
  | Exports exps ->
    Format.fprintf ppf "@[<h>export %a;@]"
      (Format.pp_print_list ~pp_sep:comma (fun ppf (p, name) ->
           Format.fprintf ppf "%a as %s" pp_path p name))
      exps
  | Alt blocks ->
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf " |@ ")
      (fun ppf ms ->
        Format.fprintf ppf "@[<v 2>{@,%a@]@,}"
          (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_member)
          ms)
      ppf blocks;
    Format.pp_print_char ppf ';'

and pp_graph_decl ppf g =
  Format.fprintf ppf "@[<v 2>graph%s%a {@,%a@]@,}%a"
    (match g.g_name with Some n -> " " ^ n | None -> "")
    pp_opt_tuple g.g_tuple
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_member)
    g.g_members pp_opt_where g.g_where

let pp_template ppf = function
  | Tgraph g -> pp_graph_decl ppf g
  | Tvar v -> Format.pp_print_string ppf v

let pp_doc_ref ppf r = Format.fprintf ppf "doc(%S).%s" r.d_doc r.d_graph

let pp_dml ppf = function
  | Insert_node { i_name; i_tuple; i_into } ->
    Format.fprintf ppf "insert node %s%a into %a;" i_name pp_opt_tuple i_tuple
      pp_doc_ref i_into
  | Insert_edge { i_name; i_src; i_dst; i_tuple; i_into } ->
    Format.fprintf ppf "insert edge %s(%s, %s)%a into %a;"
      (match i_name with Some n -> n ^ " " | None -> "")
      i_src i_dst pp_opt_tuple i_tuple pp_doc_ref i_into
  | Insert_graph { i_decl; i_doc } ->
    Format.fprintf ppf "@[<v>insert %a into doc(%S);@]" pp_graph_decl i_decl
      i_doc
  | Update_node { u_ref; u_node; u_tuple } ->
    Format.fprintf ppf "update node %a.%s set %a;" pp_doc_ref u_ref u_node
      pp_tuple_lit u_tuple
  | Update_edge { u_ref; u_edge; u_tuple } ->
    Format.fprintf ppf "update edge %a.%s set %a;" pp_doc_ref u_ref u_edge
      pp_tuple_lit u_tuple
  | Delete_node { x_ref; x_node } ->
    Format.fprintf ppf "delete node %a.%s;" pp_doc_ref x_ref x_node
  | Delete_edge { x_ref; x_edge } ->
    Format.fprintf ppf "delete edge %a.%s;" pp_doc_ref x_ref x_edge
  | Delete_graph r -> Format.fprintf ppf "delete graph %a;" pp_doc_ref r

(* [doc("D")] or, for a ["view:v"]-prefixed source, [view("v")]. *)
let pp_source ppf s =
  match view_of_source s with
  | Some v -> Format.fprintf ppf "view(%S)" v
  | None -> Format.fprintf ppf "doc(%S)" s

let pp_path_query ppf q =
  let pp_over ppf q =
    match (q.q_edge, q.q_rep) with
    | None, (1, None) -> ()
    | edge, (min, max) ->
      Format.fprintf ppf " over%a%a" pp_opt_tuple edge pp_rep
        (Some (min, max))
  in
  match q.q_kind with
  | `Path shortest ->
    Format.fprintf ppf "find%s path from %a to %a%a in %a;"
      (if shortest then " shortest" else "")
      pp_node q.q_from
      (fun ppf -> function
        | Some n -> pp_node ppf n
        | None -> Format.pp_print_string ppf "?")
      q.q_to pp_over q pp_source q.q_source
  | `Subgraph r ->
    Format.fprintf ppf "get subgraph from %a within %d%a in %a;" pp_node
      q.q_from r pp_over q pp_source q.q_source

let pp_flwr ppf f =
  let pp_pattern ppf = function
    | `Named n -> Format.pp_print_string ppf n
    | `Inline g -> pp_graph_decl ppf g
  in
  Format.fprintf ppf "@[<v>for %a%s in %a%a@,%a@]" pp_pattern f.f_pattern
    (if f.f_exhaustive then " exhaustive" else "")
    pp_source f.f_source pp_opt_where f.f_where
    (fun ppf -> function
      | Return t -> Format.fprintf ppf "return %a" pp_template t
      | Let (v, t) -> Format.fprintf ppf "let %s := %a" v pp_template t)
    f.f_body

let pp_statement ppf = function
  | Sdml d -> pp_dml ppf d
  | Spath q -> pp_path_query ppf q
  | Sgraph g -> Format.fprintf ppf "%a;" pp_graph_decl g
  | Sassign (v, t) -> Format.fprintf ppf "@[<v>%s := %a;@]" v pp_template t
  | Sflwr f -> Format.fprintf ppf "%a;" pp_flwr f
  | Screate_view v ->
    Format.fprintf ppf "@[<v>create %sview %s as@,%a;@]"
      (if v.v_materialized then "materialized " else "")
      v.v_name pp_flwr v.v_query
  | Sdrop_view name -> Format.fprintf ppf "drop view %s;" name
