open Gql_graph
module M = Gql_obs.Metrics

(* Documents are identified physically: the service owns the graphs it
   registered, and a rebuilt document is a new allocation, so [==] is
   exactly "same version of the same document". The hash is the
   graph's construction stamp, one load; structural [Hashtbl.hash]
   walked a bounded prefix of the record, ~190 ns per lookup. *)
module GraphTbl = Hashtbl.Make (struct
  type t = Graph.t

  let equal = ( == )
  let hash = Graph.stamp
end)

(* Rendering a pattern with [Flat_pattern.pp] is the expensive part of
   key construction. The service renders once per scan ({!plan_key});
   the per-graph wrappers {!plan_find} / {!plan_add} memoize the text
   per pattern object, weakly, so ephemeral per-query derivations don't
   accumulate. *)
module PatTbl = Ephemeron.K1.Make (struct
  type t = Gql_matcher.Flat_pattern.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type plan = {
  p_space : int array array;
  p_order : int array;
  p_epoch : int;
}

(* a plan's key within its graph's table: retrieval mode, refine flag,
   pattern text *)
type key = char * bool * string

type t = {
  mutex : Mutex.t;
  mutable next_gid : int;
  gids : int GraphTbl.t;
  indexes : (int, Gql_index.Label_index.t * Gql_index.Profile_index.t) Hashtbl.t;
  (* gid -> that graph's plans, so retiring a graph is one removal *)
  plans : (int, (key, plan) Hashtbl.t) Hashtbl.t;
  mutable n_plans : int;  (* total over the per-graph tables *)
  rows : int array Lru.t;
  pkeys : string PatTbl.t;
  (* per-graph epochs: gid -> how many times this document slot has been
     replaced by a write. Gids are never reused, so a stale retrieval
     row keyed by a dead gid can never be found again — it just ages out
     of the LRU. *)
  epochs : (int, int) Hashtbl.t;
  (* the shared learned planner statistics: only ever touched under the
     mutex ([Stats.t] is not domain-safe); planners read {!Stats.snapshot}s *)
  learned : Gql_matcher.Stats.t;
  (* the copy planners read, and the learned epoch it was taken at *)
  mutable snapshot : (int * Gql_matcher.Stats.t) option;
}

type stats = {
  graphs : int;
  indexes : int;
  plans : int;
  retrieval : Lru.stats;
  observations : int;
}

let plan_capacity = 4096
let retrieval_budget_bytes = 64 * 1024 * 1024

let create () =
  {
    mutex = Mutex.create ();
    next_gid = 0;
    gids = GraphTbl.create 64;
    indexes = Hashtbl.create 64;
    plans = Hashtbl.create 256;
    n_plans = 0;
    rows =
      Lru.create ~budget_bytes:retrieval_budget_bytes ~weight:Lru.entry_bytes;
    pkeys = PatTbl.create 64;
    epochs = Hashtbl.create 64;
    learned = Gql_matcher.Stats.create ();
    snapshot = None;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* call under the mutex *)
let reset_plans (t : t) =
  Hashtbl.reset t.plans;
  t.n_plans <- 0

let register t graphs =
  locked t (fun () ->
      List.iter
        (fun g ->
          if not (GraphTbl.mem t.gids g) then begin
            GraphTbl.add t.gids g t.next_gid;
            t.next_gid <- t.next_gid + 1
          end)
        graphs)

let registered t g = locked t (fun () -> GraphTbl.mem t.gids g)

let gid_opt t g = GraphTbl.find_opt t.gids g

(* call under the mutex: forget one graph's registration, indexes and
   plans. Retrieval rows keyed by the dead gid are unreachable (gids
   are monotonic) and age out of the LRU on their own. *)
let drop_gid t g gid =
  GraphTbl.remove t.gids g;
  Hashtbl.remove t.indexes gid;
  match Hashtbl.find_opt t.plans gid with
  | None -> ()
  | Some tbl ->
    t.n_plans <- t.n_plans - Hashtbl.length tbl;
    Hashtbl.remove t.plans gid

(* call under the mutex *)
let add_gid t g =
  let gid = t.next_gid in
  t.next_gid <- t.next_gid + 1;
  GraphTbl.add t.gids g gid;
  gid

let graph_epoch t g =
  locked t (fun () ->
      match gid_opt t g with
      | None -> None
      | Some gid ->
        Some (Option.value ~default:0 (Hashtbl.find_opt t.epochs gid)))

let replace t ~metrics ~old_graph ~new_graph ~delta =
  locked t (fun () ->
      match gid_opt t old_graph with
      | None ->
        (* the old version was never cached — just make the new one
           cacheable *)
        if not (GraphTbl.mem t.gids new_graph) then ignore (add_gid t new_graph)
      | Some gid ->
        let epoch = Option.value ~default:0 (Hashtbl.find_opt t.epochs gid) in
        let idx = Hashtbl.find_opt t.indexes gid in
        drop_gid t old_graph gid;
        Hashtbl.remove t.epochs gid;
        let gid' = add_gid t new_graph in
        Hashtbl.replace t.epochs gid' (epoch + 1);
        (* incremental index maintenance: when the old graph's indexes
           were warm and the write tracked its dirty set, carry them
           forward instead of letting the next query rebuild from
           scratch *)
        (match (idx, delta) with
        | Some (li, pi), Some d ->
          let li' = Gql_index.Label_index.update li ~old_graph new_graph d in
          let pi', _recomputed = Gql_index.Profile_index.update pi new_graph d in
          Hashtbl.add t.indexes gid' (li', pi');
          M.incr metrics M.Index_incremental
        | _ -> ()))

let drop t g =
  locked t (fun () ->
      match gid_opt t g with
      | None -> ()
      | Some gid ->
        drop_gid t g gid;
        Hashtbl.remove t.epochs gid)

let indexes t ~metrics g =
  locked t (fun () ->
      match gid_opt t g with
      | None -> None
      | Some gid -> (
        match Hashtbl.find_opt t.indexes gid with
        | Some pair ->
          M.incr metrics M.Exec_cache_hit;
          Some pair
        | None ->
          M.incr metrics M.Exec_cache_miss;
          (* Built under the mutex: concurrent first users of a big
             graph wait rather than duplicate a linear build. *)
          let pair =
            (Gql_index.Label_index.build g, Gql_index.Profile_index.build ~r:1 g)
          in
          Hashtbl.add t.indexes gid pair;
          Some pair))

let mode_char = function `Node_attrs -> 'a' | `Profiles -> 'p'
let render p = Format.asprintf "%a" Gql_matcher.Flat_pattern.pp p

let plan_key ~retrieval ~refine p : key =
  (mode_char retrieval, refine, render p)

(* call under the mutex *)
let memo_key t ~retrieval ~refine p : key =
  let text =
    match PatTbl.find_opt t.pkeys p with
    | Some s -> s
    | None ->
      let s = render p in
      PatTbl.add t.pkeys p s;
      s
  in
  (mode_char retrieval, refine, text)

(* call under the mutex *)
let lookup t ~metrics ~epoch g key =
  match gid_opt t g with
  | None -> None
  | Some gid -> (
    match
      Option.bind (Hashtbl.find_opt t.plans gid) (fun tbl ->
          Hashtbl.find_opt tbl key)
    with
    | Some plan when plan.p_epoch = epoch ->
      M.incr metrics M.Exec_cache_hit;
      Some (`Fresh plan)
    | Some plan ->
      (* the learned stats moved on since this plan was ordered: the
         candidate space is still exact (it only depends on the graph),
         but the order deserves a re-plan *)
      M.incr metrics M.Exec_plan_stale;
      Some (`Stale plan)
    | None ->
      M.incr metrics M.Exec_cache_miss;
      None)

(* call under the mutex *)
let store t g key plan =
  match gid_opt t g with
  | None -> ()
  | Some gid ->
    if t.n_plans >= plan_capacity then reset_plans t;
    let tbl =
      match Hashtbl.find_opt t.plans gid with
      | Some tbl -> tbl
      | None ->
        let tbl = Hashtbl.create 8 in
        Hashtbl.add t.plans gid tbl;
        tbl
    in
    if not (Hashtbl.mem tbl key) then t.n_plans <- t.n_plans + 1;
    Hashtbl.replace tbl key plan

let plan_lookup t ~metrics ~epoch g key =
  locked t (fun () -> lookup t ~metrics ~epoch g key)

let plan_store t g key plan = locked t (fun () -> store t g key plan)

let plan_find t ~metrics ~retrieval ~refine ?(epoch = 0) g p =
  locked t (fun () ->
      lookup t ~metrics ~epoch g (memo_key t ~retrieval ~refine p))

let plan_add t ~retrieval ~refine g p plan =
  locked t (fun () -> store t g (memo_key t ~retrieval ~refine p) plan)

(* Everything the row depends on, textually: the retrieval mode, the
   node's tuple constraints, its local predicate, and its radius-1
   pattern profile (which [`Profiles] retrieval prunes against).
   [required_label] is derived from the tuple or the predicate, so it
   is covered. Two different patterns whose nodes constrain identically
   share the row. *)
let row_key gid ~retrieval p u =
  let mode = match retrieval with `Node_attrs -> 'a' | `Profiles -> 'p' in
  Format.asprintf "g%d|%c|%a|%a|%a" gid mode Tuple.pp
    (Graph.node_tuple p.Gql_matcher.Flat_pattern.structure u)
    Pred.pp
    p.Gql_matcher.Flat_pattern.node_preds.(u)
    Profile.pp
    (Gql_matcher.Flat_pattern.profile p ~r:1 u)

let row t ~metrics ~retrieval g p u ~compute =
  let key =
    locked t (fun () ->
        Option.map (fun gid -> row_key gid ~retrieval p u) (gid_opt t g))
  in
  match key with
  | None -> compute ()
  | Some key -> (
    match locked t (fun () -> Lru.find t.rows key) with
    | Some row ->
      M.incr metrics M.Exec_cache_hit;
      row
    | None ->
      M.incr metrics M.Exec_cache_miss;
      let row = compute () in
      locked t (fun () ->
          let before = (Lru.stats t.rows).Lru.evictions in
          Lru.add t.rows key row;
          let after = (Lru.stats t.rows).Lru.evictions in
          if after > before then
            M.add metrics M.Exec_cache_evictions (after - before));
      row)

let learned_epoch t = locked t (fun () -> Gql_matcher.Stats.epoch t.learned)

(* One copy per epoch: plans are keyed by the epoch, so a plan made
   from this copy is as fresh as the cache will treat it anyway. *)
let learned_snapshot t =
  locked t (fun () ->
      let epoch = Gql_matcher.Stats.epoch t.learned in
      match t.snapshot with
      | Some (e, s) when e = epoch -> s
      | _ ->
        let s = Gql_matcher.Stats.snapshot t.learned in
        t.snapshot <- Some (epoch, s);
        s)

let observe_learned t ~f = locked t (fun () -> f t.learned)

let stats t =
  locked t (fun () ->
      {
        graphs = GraphTbl.length t.gids;
        indexes = Hashtbl.length t.indexes;
        plans = t.n_plans;
        retrieval = Lru.stats t.rows;
        observations = Gql_matcher.Stats.observations t.learned;
      })
