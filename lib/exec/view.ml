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
module Plan = Gql_core.Plan
module Codec = Gql_storage.Codec
open Gql_graph

(* One cached match: the mapping phi (pattern node -> data node, in the
   current source graph's ids) and its instantiated output graph. A
   surviving match keeps [cm_out] verbatim across a write — the whole
   point: no search, no template instantiation. *)
type cached = { cm_phi : int array; cm_out : Graph.t }

type t = {
  v_plan : Plan.view;
      (* the compiled definition: derivations, where filter, template *)
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

let make ~name ~materialized ?(epoch = 0) (def : Ast.flwr) =
  let plan =
    Plan.compile_view
      { Ast.v_name = name; v_materialized = materialized; v_query = def }
  in
  {
    v_plan = plan;
    v_incremental =
      (* the delta rule needs: every match enumerated (exhaustive) and
         every constraint radius-local (flat cores, no path segments) *)
      plan.sel.exhaustive
      && List.for_all (fun p -> p.Rpq.segments = []) plan.sel.patterns;
    v_epoch = epoch;
    v_graphs = [];
    v_matches = [];
    v_seeded = false;
    v_incr = 0;
    v_full = 0;
  }

let name t = t.v_plan.name
let materialized t = t.v_plan.materialized
let source t = t.v_plan.sel.source
let def t = t.v_plan.def
let epoch t = t.v_epoch
let graphs t = t.v_graphs
let incremental t = t.v_incremental
let refreshes t = (t.v_incr, t.v_full)

type indexes =
  Graph.t -> (Gql_index.Label_index.t * Gql_index.Profile_index.t) option

(* --- evaluating one source graph (the scratch path, phi-retaining) --- *)

let instantiate t m =
  t.v_plan.compose [ (t.v_plan.sel.pname, Template.Pmatched m) ]

(* Turn raw mappings into cached matches: where-filter, instantiate. *)
let searched t core g phis =
  List.filter_map
    (fun phi ->
      let m = Matched.make core g phi in
      if Plan.admits t.v_plan.sel m then
        Some { cm_phi = phi; cm_out = instantiate t m }
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
       t.v_plan.sel.patterns)

(* Canonical materialization order: derivation-major, then source
   collection order, then discovery order — multiset-equal to a scratch
   evaluation (which orders derivations by estimated cost). *)
let recompose t =
  let np = List.length t.v_plan.sel.patterns in
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
      ~docs:[ (source t, docs) ]
      [ Ast.Sflwr t.v_plan.def ]
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

(* Survivors: renumber phi through the delta; a match loses a node
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
        let v' = Mutate.renumber delta v in
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
         t.v_plan.sel.patterns)
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
  let with_graphs = t.v_plan.materialized in
  let flags =
    (if t.v_plan.materialized then 1 else 0) lor if with_graphs then 2 else 0
  in
  Buffer.add_char buf (Char.chr flags);
  Codec.write_uvarint buf t.v_epoch;
  Codec.write_string buf (def_text t.v_plan.def);
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

(* --- deltas -----------------------------------------------------------------

   One refresh as an edit script from the previous persisted list:

   delta := epoch:uvarint n_runs:uvarint run*
   run   := 0 start:uvarint len:uvarint   previous positions [start, start+len)
          | 1 n:uvarint graph*            n new graphs

   The diff is keyed by [Graph.stamp]: a refresh hands a surviving
   match's output graph on verbatim, so survivors are found without
   comparing contents. Each previous position is copied at most once,
   which bounds a delta's output by its source list plus its own
   bytes. *)

type run = Copy of int * int | Lit of Graph.t list  (* Lit is reversed *)

let encode_delta ~prev ~epoch graphs =
  let pos = Hashtbl.create (Array.length prev) in
  Array.iteri (fun i g -> Hashtbl.replace pos (Graph.stamp g) i) prev;
  let used = Array.make (Array.length prev) false in
  let copied = ref false in
  let runs =
    List.fold_left
      (fun runs g ->
        match Hashtbl.find_opt pos (Graph.stamp g) with
        | Some i when not used.(i) -> (
          used.(i) <- true;
          copied := true;
          match runs with
          | Copy (s, l) :: rest when s + l = i -> Copy (s, l + 1) :: rest
          | _ -> Copy (i, 1) :: runs)
        | _ -> (
          match runs with
          | Lit gs :: rest -> Lit (g :: gs) :: rest
          | _ -> Lit [ g ] :: runs))
      [] graphs
  in
  if graphs <> [] && not !copied then None
  else begin
    let buf = Buffer.create 64 in
    Codec.write_uvarint buf epoch;
    Codec.write_uvarint buf (List.length runs);
    List.iter
      (function
        | Copy (s, l) ->
          Codec.write_uvarint buf 0;
          Codec.write_uvarint buf s;
          Codec.write_uvarint buf l
        | Lit gs ->
          Codec.write_uvarint buf 1;
          Codec.write_uvarint buf (List.length gs);
          List.iter (Codec.write_graph buf) (List.rev gs))
      (List.rev runs);
    Some (Buffer.contents buf)
  end

let apply_delta prev blob =
  let epoch, o = Codec.read_uvarint blob 0 in
  let n_runs, o = Codec.read_uvarint blob o in
  let used = Array.make (Array.length prev) false in
  let out = ref [] and o = ref o in
  for _ = 1 to n_runs do
    let tag, o' = Codec.read_uvarint blob !o in
    match tag with
    | 0 ->
      let s, o' = Codec.read_uvarint blob o' in
      let l, o' = Codec.read_uvarint blob o' in
      if s < 0 || l < 1 || s > Array.length prev - l then
        corrupt "view delta: copy [%d, +%d) outside %d graph(s)" s l
          (Array.length prev);
      for i = s to s + l - 1 do
        if used.(i) then corrupt "view delta: position %d copied twice" i;
        used.(i) <- true;
        out := prev.(i) :: !out
      done;
      o := o'
    | 1 ->
      let n, o' = Codec.read_uvarint blob o' in
      if n < 1 || n > String.length blob - o' then
        corrupt "view delta: %d literal graph(s) in %d byte(s)" n
          (String.length blob - o');
      o := o';
      for _ = 1 to n do
        let g, o' = Codec.read_graph blob !o in
        out := g :: !out;
        o := o'
      done
    | k -> corrupt "view delta: unknown run kind %d" k
  done;
  if !o <> String.length blob then corrupt "view delta: trailing bytes";
  (epoch, Array.of_list (List.rev !out))

let decode ?(deltas = []) ~name blob =
  let materialized, epoch, text, graphs = decode_raw blob in
  let t = make ~name ~materialized ~epoch (parse_def ~name text) in
  if materialized then begin
    let epoch, gs =
      List.fold_left
        (fun (_, prev) d -> apply_delta prev d)
        (epoch, Array.of_list graphs)
        deltas
    in
    t.v_epoch <- epoch;
    t.v_graphs <- Array.to_list gs
  end;
  t

let decoded_graphs blob =
  let _, _, _, graphs = decode_raw blob in
  graphs
