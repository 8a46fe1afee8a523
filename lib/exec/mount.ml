(* A doc source is either a .gql text file or a .store disk store. A
   .store-backed doc keeps its store open read-write, with the
   doc-position -> gid mapping that lets evaluator writes flow back into
   the transaction log. A .gql text doc has no durability — its writes
   live only for the process. *)

open Gql_core
module Store = Gql_storage.Store

type t = {
  m_name : string;
  m_store : Store.t option;
  mutable m_gids : int array;  (* doc position -> gid; store-backed only *)
  mutable m_len : int;  (* live prefix of [m_gids] *)
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
               },
               (name, List.rev !graphs) )
           end
           else
             ( { m_name = name; m_store = None; m_gids = [||]; m_len = 0 },
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
       maintainer refresh re-emits this event with a bumped epoch, so
       newest-committed-wins replay restores the latest materialization *)
    match mount def.Ast.f_source with
    | Some { m_store = Some store; _ } ->
      let v = View.make ~name ~materialized ~epoch def in
      View.attach ~graphs v ~docs:[];
      Store.set_view store ~name (View.encode v)
    | _ -> ())
  | Eval.W_drop_view { name } ->
    (* a drop does not say which doc the definition read — tombstone
       wherever the record lives (drop_view is a no-op elsewhere) *)
    List.iter
      (fun m ->
        Option.iter
          (fun store -> ignore (Store.drop_view store name))
          m.m_store)
      mounts

(* Closing commits: every store close groups the staged records under
   one superblock swap. *)
let close_all mounts =
  List.iter (fun m -> Option.iter Store.close m.m_store) mounts

let views mounts =
  List.concat_map
    (fun m ->
      match m.m_store with
      | None -> []
      | Some store ->
        List.map
          (fun (name, blob) -> View.decode ~name blob)
          (Store.views store))
    mounts
