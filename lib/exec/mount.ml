(* A doc source is either a .gql text file or a .store disk store. A
   .store-backed doc keeps its store open read-write, with the
   doc-position -> gid mapping that lets evaluator writes flow back into
   the transaction log. A .gql text doc has no durability — its writes
   live only for the process. *)

open Gql_core
open Gql_graph
module Store = Gql_storage.Store

(* What the store holds for one materialized view: the list the log's
   records decode to, and the byte counts the full-record rule reads. *)
type chain = {
  mutable c_last : Graph.t array;
  mutable c_full : int;  (* bytes of the newest full blob *)
  mutable c_deltas : int;  (* bytes of the deltas logged after it *)
}

type t = {
  m_name : string;
  m_store : Store.t option;
  mutable m_gids : int array;  (* doc position -> gid; store-backed only *)
  mutable m_len : int;  (* live prefix of [m_gids] *)
  m_chains : (string, chain) Hashtbl.t;  (* view name -> persisted state *)
}

let store m = m.m_store

let load_collection path =
  Gql.collection_of_string (In_channel.with_open_bin path In_channel.input_all)

let open_docs ?metrics specs =
  List.split
    (List.map
       (fun spec ->
         match String.index_opt spec '=' with
         | None ->
           Error.raise_
             (Error.Usage
                (Printf.sprintf "bad --doc %S, expected NAME=FILE" spec))
         | Some i ->
           let name = String.sub spec 0 i in
           let path = String.sub spec (i + 1) (String.length spec - i - 1) in
           if Filename.check_suffix path ".store" then begin
             let store = Store.open_existing path in
             Option.iter (Store.set_metrics store) metrics;
             let gids = ref [] and graphs = ref [] in
             Store.iter store ~f:(fun gid g ->
                 gids := gid :: !gids;
                 graphs := g :: !graphs);
             let gids = Array.of_list (List.rev !gids) in
             ( {
                 m_name = name;
                 m_store = Some store;
                 m_gids = gids;
                 m_len = Array.length gids;
                 m_chains = Hashtbl.create 4;
               },
               (name, List.rev !graphs) )
           end
           else
             ( {
                 m_name = name;
                 m_store = None;
                 m_gids = [||];
                 m_len = 0;
                 m_chains = Hashtbl.create 1;
               },
               (name, load_collection path) ))
       specs)

let push_gid m gid =
  if m.m_len = Array.length m.m_gids then begin
    let bigger = Array.make (max 16 (2 * m.m_len)) 0 in
    Array.blit m.m_gids 0 bigger 0 m.m_len;
    m.m_gids <- bigger
  end;
  m.m_gids.(m.m_len) <- gid;
  m.m_len <- m.m_len + 1

let gid_at m index =
  if index < 0 || index >= m.m_len then
    invalid_arg (Printf.sprintf "doc %s has no position %d" m.m_name index);
  m.m_gids.(index)

(* a removal shifts the later doc positions down by one *)
let remove_gid m index =
  let gid = gid_at m index in
  Array.blit m.m_gids (index + 1) m.m_gids index (m.m_len - index - 1);
  m.m_len <- m.m_len - 1;
  gid

(* A view event's record. A refresh of a materialized view (epoch > 0)
   over a list this mount persisted is logged as a delta, unless the
   deltas since the newest full record would then outweigh it; a
   create, a plain view, a refresh with no persisted list or one that
   shares no graph with it is a full record, which starts a new chain.
   So replay reads at most twice one full record, and an append costs
   the refresh's delta amortized. *)
let persist_view m store ~name ~materialized ~def ~graphs ~epoch =
  let delta =
    match Hashtbl.find_opt m.m_chains name with
    | Some c when materialized && epoch > 0 -> (
      match View.encode_delta ~prev:c.c_last ~epoch graphs with
      | Some d when c.c_deltas + String.length d <= c.c_full -> Some (c, d)
      | _ -> None)
    | _ -> None
  in
  match delta with
  | Some (c, d) ->
    Store.add_view_delta store ~name d;
    c.c_last <- Array.of_list graphs;
    c.c_deltas <- c.c_deltas + String.length d
  | None ->
    let v = View.make ~name ~materialized ~epoch def in
    View.attach ~graphs v ~docs:[];
    let blob = View.encode v in
    Store.set_view store ~name blob;
    if materialized then
      Hashtbl.replace m.m_chains name
        {
          c_last = Array.of_list graphs;
          c_full = String.length blob;
          c_deltas = 0;
        }
    else Hashtbl.remove m.m_chains name

(* The durability sink: one evaluator write -> one transaction-log
   record (or base-record append / tombstone) in the backing store.
   The store adopts the evaluator's post-state graph, so the two hold
   the same graph value and node/edge ids in later ops stay aligned.
   Callers serialize writes (gqlsh run is sequential; the batch service
   gates DML jobs on the watermark). Applied to its mounts once, it
   indexes them by name (the first mount of a name wins, as in doc
   lookup). *)
let persist mounts =
  let by_name = Hashtbl.create 8 in
  List.iter
    (fun m ->
      if not (Hashtbl.mem by_name m.m_name) then Hashtbl.add by_name m.m_name m)
    mounts;
  let mount source = Hashtbl.find_opt by_name source in
  function
  | Eval.W_update { source; index; ops; new_graph; _ } -> (
    match mount source with
    | Some ({ m_store = Some store; _ } as m) ->
      Store.adopt_txn store ~gid:(gid_at m index) ~post:new_graph ops
    | _ -> ())
  | Eval.W_insert { source; new_graph } -> (
    match mount source with
    | Some ({ m_store = Some store; _ } as m) ->
      push_gid m (Store.add_graph store new_graph)
    | _ -> ())
  | Eval.W_remove { source; index; _ } -> (
    match mount source with
    | Some ({ m_store = Some store; _ } as m) ->
      Store.remove_graph store (remove_gid m index)
    | _ -> ())
  | Eval.W_create_view { name; materialized; def; graphs; epoch } -> (
    (* the view record travels with the store of its source doc; a
       maintainer refresh re-emits this event with a bumped epoch *)
    match mount def.Ast.f_source with
    | Some ({ m_store = Some store; _ } as m) ->
      persist_view m store ~name ~materialized ~def ~graphs ~epoch
    | _ -> ())
  | Eval.W_drop_view { name } ->
    (* a drop does not say which doc the definition read — tombstone
       wherever the record lives (drop_view is a no-op elsewhere) *)
    List.iter
      (fun m ->
        Hashtbl.remove m.m_chains name;
        Option.iter
          (fun store -> ignore (Store.drop_view store name))
          m.m_store)
      mounts

(* Closing commits: every store close groups the staged records under
   one superblock swap. *)
let close_all mounts =
  List.iter (fun m -> Option.iter Store.close m.m_store) mounts

(* Decoding a view's chain also seeds the mount's persisted state, so
   the next refresh can be logged as a delta over it. *)
let views mounts =
  List.concat_map
    (fun m ->
      match m.m_store with
      | None -> []
      | Some store ->
        List.map
          (fun (name, blob) ->
            let deltas = Store.view_deltas store name in
            let v = View.decode ~deltas ~name blob in
            if View.materialized v then
              Hashtbl.replace m.m_chains name
                {
                  c_last = Array.of_list (View.graphs v);
                  c_full = String.length blob;
                  c_deltas =
                    List.fold_left (fun a d -> a + String.length d) 0 deltas;
                };
            v)
          (Store.views store))
    mounts
