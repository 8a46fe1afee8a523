module M = Gql_obs.Metrics
module FP = Gql_matcher.Flat_pattern
module Rpq = Gql_matcher.Rpq
module Feasible = Gql_matcher.Feasible
module Search = Gql_matcher.Search
module Order = Gql_matcher.Order
module Ast = Gql_core.Ast
module Eval = Gql_core.Eval
module Matched = Gql_core.Matched
module Template = Gql_core.Template
module Motif = Gql_core.Motif
module Codec = Gql_storage.Codec
open Gql_graph

(* One cached match: the mapping phi (pattern node -> data node, in the
   current source graph's ids) and its instantiated output graph. A
   surviving match keeps [cm_out] verbatim across a write — the whole
   point: no search, no template instantiation. *)
type cached = { cm_phi : int array; cm_out : Graph.t }

type t = {
  v_name : string;
  v_materialized : bool;
  v_def : Ast.flwr;
  v_pname : string;
  v_compose : Template.env -> Graph.t;
      (* the return template (views reject Tvar/Let), compiled once *)
  v_patterns : Rpq.pattern list;  (* compiled derivations of the pattern *)
  v_incremental : bool;
  mutable v_epoch : int;
  mutable v_graphs : Graph.t list;
  (* per source graph (collection order), per derivation: the cached
     matches. Only maintained for incremental-capable views. *)
  mutable v_matches : cached list array list;
  mutable v_seeded : bool;  (* are v_matches trustworthy? *)
  mutable v_incr : int;
  mutable v_full : int;
}

let error fmt = Format.kasprintf (fun s -> raise (Eval.Error s)) fmt

let make ~name ~materialized ?(epoch = 0) (def : Ast.flwr) =
  let decl, pname =
    match def.Ast.f_pattern with
    | `Inline d -> (d, Option.value d.Ast.g_name ~default:"P")
    | `Named n ->
      error "view %s: pattern %s is not resolved inline (the definition \
             must be self-contained)" name n
  in
  let tmpl =
    match def.Ast.f_body with
    | Ast.Return (Ast.Tgraph d) -> d
    | Ast.Return (Ast.Tvar v) ->
      error "view %s: the return template references variable %s (the \
             definition must be self-contained)" name v
    | Ast.Let _ -> error "view %s: let folds cannot be maintained" name
  in
  let patterns =
    List.of_seq (Motif.path_patterns ~defs:(fun _ -> None) decl)
  in
  let incremental =
    (* the delta rule needs: every match enumerated (exhaustive) and
       every constraint radius-local (flat cores, no path segments) *)
    def.Ast.f_exhaustive
    && patterns <> []
    && List.for_all (fun p -> p.Rpq.segments = []) patterns
  in
  {
    v_name = name;
    v_materialized = materialized;
    v_def = def;
    v_pname = pname;
    v_compose = Template.compile tmpl;
    v_patterns = patterns;
    v_incremental = incremental;
    v_epoch = epoch;
    v_graphs = [];
    v_matches = [];
    v_seeded = false;
    v_incr = 0;
    v_full = 0;
  }

let name t = t.v_name
let materialized t = t.v_materialized
let source t = t.v_def.Ast.f_source
let def t = t.v_def
let epoch t = t.v_epoch
let graphs t = t.v_graphs
let incremental t = t.v_incremental
let refreshes t = (t.v_incr, t.v_full)

type indexes =
  Graph.t -> (Gql_index.Label_index.t * Gql_index.Profile_index.t) option

(* --- evaluating one source graph (the scratch path, phi-retaining) --- *)

let keep_match t m =
  match t.v_def.Ast.f_where with
  | None -> true
  | Some pred ->
    let env = Pred.env_extend (Matched.env m) [ (t.v_pname, Matched.env m) ] in
    Pred.holds env pred

let instantiate t m = t.v_compose [ (t.v_pname, Template.Pmatched m) ]

(* Turn raw mappings into cached matches: where-filter, instantiate. *)
let searched t core g phis =
  List.filter_map
    (fun phi ->
      let m = Matched.make core g phi in
      if keep_match t m then Some { cm_phi = phi; cm_out = instantiate t m }
      else None)
    phis

(* All matches of every derivation against one source graph, from
   scratch. The search runs the same access methods as the engine
   (feasible-mate retrieval, greedy order, Algorithm 4.1 search) but
   keeps the phi arrays — the incremental path's working state. *)
let eval_graph t ?(metrics = M.disabled) ?(indexes = fun _ -> None) g =
  let label_index, profile_index =
    match indexes g with
    | Some (l, p) -> (Some l, Some p)
    | None -> (None, None)
  in
  Array.of_list
    (List.map
       (fun p ->
         let core = p.Rpq.core in
         let space =
           Feasible.compute ~metrics ?label_index ?profile_index core g
         in
         let order = Order.greedy core ~sizes:(Feasible.sizes space) in
         let o = Search.run ~exhaustive:true ~metrics ~order core g space in
         searched t core g o.Search.mappings)
       t.v_patterns)

(* Canonical materialization order: derivation-major, then source
   collection order, then discovery order — multiset-equal to a scratch
   evaluation (which orders derivations by estimated cost). *)
let recompose t =
  let np = List.length t.v_patterns in
  t.v_graphs <-
    List.concat
      (List.init np (fun pi ->
           List.concat_map
             (fun per_pattern ->
               List.map (fun c -> c.cm_out) per_pattern.(pi))
             t.v_matches))

let rebuild t ?metrics ?indexes ~docs () =
  t.v_matches <- List.map (fun g -> eval_graph t ?metrics ?indexes g) docs;
  t.v_seeded <- true;
  recompose t

(* Full re-evaluation through the real evaluator — by construction the
   same semantics as dropping and re-creating the view. The fallback
   for definitions the delta rule cannot cover. *)
let full_eval t ?strategy ~docs () =
  let res =
    Eval.run ?strategy
      ~docs:[ (t.v_def.Ast.f_source, docs) ]
      [ Ast.Sflwr t.v_def ]
  in
  t.v_graphs <- Eval.returned res;
  t.v_matches <- [];
  t.v_seeded <- false

let attach ?strategy ?metrics ?indexes ?graphs t ~docs =
  match graphs with
  | Some gs ->
    (* adopt a ready materialization (persisted, or just computed by
       the creating evaluation); the match caches stay lazy and the
       first refresh rebuilds them *)
    t.v_graphs <- gs;
    t.v_matches <- [];
    t.v_seeded <- false
  | None ->
    if t.v_incremental then rebuild t ?metrics ?indexes ~docs ()
    else full_eval t ?strategy ~docs ()

(* --- the incremental path --- *)

type change =
  | Update of { index : int; new_graph : Graph.t; delta : Mutate.delta }
  | Insert of { new_graph : Graph.t }
  | Remove of { index : int }

let replace_nth l i x = List.mapi (fun j y -> if j = i then x else y) l
let remove_nth l i = List.filteri (fun j _ -> j <> i) l

(* Survivors: remap phi through the node map; a match loses a node
   (deleted) or touches the dirty ball -> dropped (the pivot search
   re-finds it if it still holds). A wholly clean match survives with
   its output graph reused verbatim. *)
let survivors cached ~(delta : Mutate.delta) ~is_dirty =
  List.filter_map
    (fun c ->
      let k = Array.length c.cm_phi in
      let phi' = Array.make k (-1) in
      let ok = ref true in
      let u = ref 0 in
      while !ok && !u < k do
        let v = c.cm_phi.(!u) in
        let v' =
          if v >= 0 && v < Array.length delta.Mutate.node_map then
            delta.Mutate.node_map.(v)
          else -1
        in
        if v' < 0 || is_dirty.(v') then ok := false
        else begin
          phi'.(!u) <- v';
          incr u
        end
      done;
      if !ok then Some { c with cm_phi = phi' } else None)
    cached

(* New matches must touch the dirty ball. Pivot partition: for pivot
   position i, restrict row i to dirty nodes and rows before i to clean
   nodes — each new match is found exactly once, at its first dirty
   position. *)
let pivot_matches ~metrics ~label_index ~profile_index core g ~is_dirty =
  let k = FP.size core in
  let rows =
    Array.init k (fun u ->
        Feasible.compute_row ~metrics ?label_index ?profile_index core g u)
  in
  let partition row =
    let d = ref [] and c = ref [] in
    Array.iter (fun v -> if is_dirty.(v) then d := v :: !d else c := v :: !c) row;
    (Array.of_list (List.rev !d), Array.of_list (List.rev !c))
  in
  let parts = Array.map partition rows in
  let out = ref [] in
  for i = 0 to k - 1 do
    let dirty_i, _ = parts.(i) in
    if Array.length dirty_i > 0 then begin
      let candidates =
        Array.init k (fun j ->
            if j = i then dirty_i else if j < i then snd parts.(j) else rows.(j))
      in
      let space = { Feasible.candidates } in
      if Feasible.log10_size space <> neg_infinity then begin
        let order = Order.greedy core ~sizes:(Feasible.sizes space) in
        let o = Search.run ~exhaustive:true ~metrics ~order core g space in
        out := List.rev_append o.Search.mappings !out
      end
    end
  done;
  List.rev !out

let refresh_update t ~metrics ~indexes ~index ~new_graph ~(delta : Mutate.delta)
    =
  let n = Graph.n_nodes new_graph in
  let is_dirty = Array.make (max 1 n) false in
  Array.iter
    (fun v -> if v >= 0 && v < n then is_dirty.(v) <- true)
    delta.Mutate.dirty;
  let label_index, profile_index =
    match indexes new_graph with
    | Some (l, p) -> (Some l, Some p)
    | None -> (None, None)
  in
  let old_entry = List.nth t.v_matches index in
  let entry =
    Array.of_list
      (List.mapi
         (fun pi p ->
           let core = p.Rpq.core in
           let kept = survivors old_entry.(pi) ~delta ~is_dirty in
           let found =
             pivot_matches ~metrics ~label_index ~profile_index core new_graph
               ~is_dirty
           in
           kept @ searched t core new_graph found)
         t.v_patterns)
  in
  t.v_matches <- replace_nth t.v_matches index entry;
  recompose t

let refresh ?strategy ?(metrics = M.disabled) ?(max_dirty_frac = 0.5)
    ?(indexes = fun _ -> None) t ~docs change =
  let full () =
    if t.v_incremental then rebuild t ~metrics ~indexes ~docs ()
    else full_eval t ?strategy ~docs ();
    `Full
  in
  let kind =
    if not (t.v_incremental && t.v_seeded) then full ()
    else
      match change with
      | Insert { new_graph } ->
        t.v_matches <-
          t.v_matches @ [ eval_graph t ~metrics ~indexes new_graph ];
        recompose t;
        `Incremental
      | Remove { index } ->
        if index < 0 || index >= List.length t.v_matches then full ()
        else begin
          t.v_matches <- remove_nth t.v_matches index;
          recompose t;
          `Incremental
        end
      | Update { index; new_graph; delta } ->
        let n = Graph.n_nodes new_graph in
        let overflow =
          delta.Mutate.d_r < 1
          || index < 0
          || index >= List.length t.v_matches
          || float_of_int (Array.length delta.Mutate.dirty)
             > max_dirty_frac *. float_of_int (max 1 n)
        in
        if overflow then begin
          (* re-derive only the written graph; the other entries'
             caches stay warm *)
          if index >= 0 && index < List.length t.v_matches then begin
            t.v_matches <-
              replace_nth t.v_matches index
                (eval_graph t ~metrics ~indexes new_graph);
            recompose t;
            `Full
          end
          else full ()
        end
        else begin
          refresh_update t ~metrics ~indexes ~index ~new_graph ~delta;
          `Incremental
        end
  in
  t.v_epoch <- t.v_epoch + 1;
  (match kind with
  | `Incremental ->
    t.v_incr <- t.v_incr + 1;
    M.incr metrics M.Views_incremental
  | `Full ->
    t.v_full <- t.v_full + 1;
    M.incr metrics M.Views_full);
  kind

(* --- persistence ----------------------------------------------------------

   blob := flags:1            bit 0: materialized, bit 1: graphs present
           epoch:uvarint
           def:string         query text, Ast.pp_flwr, re-parsed on load
           [n:uvarint graph*] when bit 1 is set *)

let def_text (f : Ast.flwr) = Format.asprintf "%a" Ast.pp_flwr f

let encode t =
  let buf = Buffer.create 256 in
  let with_graphs = t.v_materialized in
  let flags =
    (if t.v_materialized then 1 else 0) lor if with_graphs then 2 else 0
  in
  Buffer.add_char buf (Char.chr flags);
  Codec.write_uvarint buf t.v_epoch;
  Codec.write_string buf (def_text t.v_def);
  if with_graphs then begin
    Codec.write_uvarint buf (List.length t.v_graphs);
    List.iter (fun g -> Codec.write_graph buf g) t.v_graphs
  end;
  Buffer.contents buf

let corrupt fmt = Format.kasprintf (fun s -> raise (Codec.Corrupt s)) fmt

let parse_def ~name text =
  match Gql_core.Gql.parse_program (text ^ ";") with
  | [ Ast.Sflwr f ] -> f
  | _ -> corrupt "view %s: stored definition is not a single query" name
  | exception Gql_core.Error.E e ->
    corrupt "view %s: stored definition no longer parses: %s" name
      (Gql_core.Error.to_string e)

let decode_raw blob =
  if String.length blob < 1 then corrupt "view blob: empty";
  let flags = Char.code blob.[0] in
  let epoch, o = Codec.read_uvarint blob 1 in
  let text, o = Codec.read_string blob o in
  let graphs =
    if flags land 2 = 0 then []
    else begin
      let n, o = Codec.read_uvarint blob o in
      let o = ref o in
      List.init n (fun _ ->
          let g, o' = Codec.read_graph blob !o in
          o := o';
          g)
    end
  in
  (flags land 1 = 1, epoch, text, graphs)

let decode ~name blob =
  let materialized, epoch, text, graphs = decode_raw blob in
  let t = make ~name ~materialized ~epoch (parse_def ~name text) in
  if materialized then t.v_graphs <- graphs;
  t

let decoded_graphs blob =
  let _, _, _, graphs = decode_raw blob in
  graphs
