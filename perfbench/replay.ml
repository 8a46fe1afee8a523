(* The traced run: the workload's warm-up and request sequence replayed
   in this process, with the calls into each layer's public functions
   timed from outside — no span is recorded inside the program.

   Each request goes through two pipelines:
   - a direct pipeline that mirrors the service's: parse (once per
     distinct text, like its parse cache), [Eval.run] with a selector
     that looks plans and rows up in a [Gql_exec.Cache] and runs
     retrieval, refinement, ordering and search on a miss, and a writer
     that re-applies the write with [Mutate], maintains the indexes,
     refreshes views and appends to a private copy of the store, flushed
     after every write; then the response rendering and framing;
   - an in-process [Service] with the same documents: its
     submit-to-wait time minus the direct pipeline's equivalent work is
     the service layer's own cost (queue handoff, double parse, job
     metrics and their merge into the never-trimmed aggregate).

   Per-request layer times are means over the timed sequence; set-up
   layers (document load, index builds) are totals over warm-up and
   load. [unattributed_ms] is what the direct pipeline spent outside
   every timed call. *)

open Gql_graph
module Ast = Gql_core.Ast
module Eval = Gql_core.Eval
module Gql = Gql_core.Gql
module Motif = Gql_core.Motif
module Algebra = Gql_core.Algebra
module Matched = Gql_core.Matched
module Budget = Gql_matcher.Budget
module Engine = Gql_matcher.Engine
module Feasible = Gql_matcher.Feasible
module Search = Gql_matcher.Search
module Order = Gql_matcher.Order
module Refine = Gql_matcher.Refine
module Rpq = Gql_matcher.Rpq
module Flat_pattern = Gql_matcher.Flat_pattern
module Cache = Gql_exec.Cache
module Service = Gql_exec.Service
module Server = Gql_exec.Server
module Protocol = Gql_exec.Protocol
module View = Gql_exec.View
module Store = Gql_storage.Store
module LI = Gql_index.Label_index
module PI = Gql_index.Profile_index
module M = Gql_obs.Metrics

(* Graphs are keyed physically, as the service's cache does. *)
module Phys = Hashtbl.Make (struct
  type t = Graph.t

  let equal = ( == )
  let hash g = Hashtbl.hash (Graph.name g, Graph.n_nodes g, Graph.n_edges g)
end)

type acc = {
  mutable parse : float;
  mutable eval : float;
  mutable retrieve : float;
  mutable refine : float;
  mutable order : float;
  mutable search : float;
  mutable stats : float;
  mutable visited : int;
  mutable cache : float;
  mutable index_build : float;
  mutable index_update : float;
  mutable mutate : float;
  mutable view_refresh : float;
  mutable append : float;
  mutable commit : float;
  mutable render : float;
  mutable response_bytes : int;
  mutable service : float;
  mutable total : float;
  mutable inside : float;  (* time inside the selector and writer callbacks *)
  mutable plan_lookups : int;
  mutable plan_fresh : int;
  mutable plan_stale : int;
  mutable row_lookups : int;
  mutable row_misses : int;
  mutable plan_wipes : int;
  mutable view_incr : int;
  mutable view_full : int;
}

let fresh_acc () =
  {
    parse = 0.; eval = 0.; retrieve = 0.; refine = 0.; order = 0.; search = 0.;
    stats = 0.; visited = 0; cache = 0.; index_build = 0.; index_update = 0.;
    mutate = 0.; view_refresh = 0.; append = 0.; commit = 0.; render = 0.;
    response_bytes = 0; service = 0.; total = 0.; inside = 0.; plan_lookups = 0;
    plan_fresh = 0; plan_stale = 0; row_lookups = 0; row_misses = 0;
    plan_wipes = 0; view_incr = 0; view_full = 0;
  }

type mount = { store : Store.t; gids : int array }

type state = {
  mutable a : acc;
  strategy : Engine.strategy;
  search_domains : int;
  cache : Cache.t;
  idx : (LI.t * PI.t) Phys.t;
  parsed : (string, Ast.program) Hashtbl.t;
  mutable docs : Eval.docs;
  mounts : (string * mount) list;
  mutable views : View.t list;
}

(* [clock field f]: run [f], add its elapsed seconds via [field]. *)
let clock add f =
  let t0 = Common.now () in
  Fun.protect ~finally:(fun () -> add (Common.now () -. t0)) f

(* --- documents, loaded the way gqlsh loads them ----------------------------- *)

let load_text path =
  let program = Gql.parse_program (Common.read_file path) in
  let decls = List.filter_map (function Ast.Sgraph g -> Some g | _ -> None) program in
  let defs name = List.find_opt (fun d -> d.Ast.g_name = Some name) decls in
  List.map (fun d -> Motif.to_graph ~defs d) decls

(* A .store doc is mounted on a private copy, so the replay's appends
   and flushes never touch the files the server used. *)
let load_doc spec =
  let i = String.index spec '=' in
  let name = String.sub spec 0 i in
  let path = String.sub spec (i + 1) (String.length spec - i - 1) in
  if Filename.check_suffix path ".store" then begin
    let copy = "replay-" ^ path in
    Common.copy_file (Filename.chop_suffix path ".store" ^ ".pristine.store") copy;
    let store = Store.open_existing copy in
    let gids = ref [] and graphs = ref [] in
    Store.iter store ~f:(fun gid g ->
        gids := gid :: !gids;
        graphs := g :: !graphs);
    ((name, List.rev !graphs), Some (name, { store; gids = Array.of_list (List.rev !gids) }))
  end
  else ((name, load_text path), None)

(* --- indexes ----------------------------------------------------------------- *)

let indexes st g =
  match Phys.find_opt st.idx g with
  | Some pair -> pair
  | None ->
    let pair =
      clock
        (fun dt -> st.a.index_build <- st.a.index_build +. dt)
        (fun () -> (LI.build g, PI.build ~r:1 g))
    in
    Phys.replace st.idx g pair;
    pair

(* --- the selector: Service.cached_run's phase structure, timed ---------------- *)

let cache_call st f = clock (fun dt -> st.a.cache <- st.a.cache +. dt) f

let order_model st =
  clock
    (fun dt -> st.a.stats <- st.a.stats +. dt)
    (fun () ->
      Gql_matcher.Cost.Learned
        { learned = Cache.learned_snapshot st.cache; fallback = None })

let greedy st p space =
  let model = order_model st in
  clock
    (fun dt -> st.a.order <- st.a.order +. dt)
    (fun () -> Order.greedy ~model p ~sizes:(Feasible.sizes space))

let feed st p g outcome ~sizes ~order ~profile =
  if outcome.Search.stopped = Budget.Exhausted then
    clock
      (fun dt -> st.a.stats <- st.a.stats +. dt)
      (fun () ->
        Cache.observe_learned st.cache ~f:(fun learned ->
            let k = Array.length order in
            let pd = profile.Search.pr_descents in
            let fanouts = Array.make k nan in
            for i = 1 to k - 1 do
              if pd.(i - 1) > 0 then
                fanouts.(i) <- float_of_int pd.(i) /. float_of_int pd.(i - 1)
            done;
            Gql_matcher.Stats.observe_run learned ~p ~n_nodes:(Graph.n_nodes g)
              ~sizes ~order ~fanouts))

(* With one closed-loop client the service's queue is always empty, so
   it fans a heavy search out over [search_domains] domains. *)
let search st ~exhaustive p g ~order space =
  let heavy =
    Array.length order > 0
    && Array.length space.Feasible.candidates.(order.(0)) > 1
    && Feasible.log10_size space >= 3.0
  in
  let o =
    clock
      (fun dt -> st.a.search <- st.a.search +. dt)
      (fun () ->
        if st.search_domains > 1 && heavy then
          `Parallel
            (Gql_matcher.Ws.search ~domains:st.search_domains
               ?limit:(if exhaustive then None else Some 1)
               ~order p g space)
        else
          let profile = Search.profile_create (Flat_pattern.size p) in
          `Sequential (Search.run ~exhaustive ~order ~profile p g space, profile))
  in
  let outcome =
    match o with
    | `Parallel o -> o
    | `Sequential (o, profile) ->
      feed st p g o ~sizes:(Feasible.sizes space) ~order ~profile;
      o
  in
  st.a.visited <- st.a.visited + outcome.Search.visited;
  outcome

let plan_add st g p plan =
  cache_call st (fun () ->
      let before = (Cache.stats st.cache).Cache.plans in
      Cache.plan_add st.cache ~retrieval:`Profiles ~refine:true g p plan;
      if (Cache.stats st.cache).Cache.plans < before then
        st.a.plan_wipes <- st.a.plan_wipes + 1)

let cached_run st ~exhaustive p g =
  let epoch = cache_call st (fun () -> Cache.learned_epoch st.cache) in
  st.a.plan_lookups <- st.a.plan_lookups + 1;
  match
    cache_call st (fun () ->
        Cache.plan_find st.cache ~metrics:M.disabled ~retrieval:`Profiles
          ~refine:true ~epoch g p)
  with
  | Some (`Fresh { Cache.p_space; p_order; _ }) ->
    st.a.plan_fresh <- st.a.plan_fresh + 1;
    search st ~exhaustive p g ~order:p_order { Feasible.candidates = p_space }
  | Some (`Stale { Cache.p_space; _ }) ->
    st.a.plan_stale <- st.a.plan_stale + 1;
    let space = { Feasible.candidates = p_space } in
    let order = greedy st p space in
    plan_add st g p { Cache.p_space; p_order = order; p_epoch = epoch };
    search st ~exhaustive p g ~order space
  | None ->
    let lidx, pidx = indexes st g in
    let k = Flat_pattern.size p in
    let space =
      {
        Feasible.candidates =
          Array.init k (fun u ->
              st.a.row_lookups <- st.a.row_lookups + 1;
              let computed = ref 0.0 in
              let row =
                cache_call st (fun () ->
                    Cache.row st.cache ~metrics:M.disabled ~retrieval:`Profiles g p u
                      ~compute:(fun () ->
                        st.a.row_misses <- st.a.row_misses + 1;
                        clock
                          (fun dt -> computed := dt)
                          (fun () ->
                            Feasible.compute_row ~retrieval:`Profiles
                              ~label_index:lidx ~profile_index:pidx p g u)))
              in
              (* the row computation ran inside the cache call *)
              st.a.cache <- st.a.cache -. !computed;
              st.a.retrieve <- st.a.retrieve +. !computed;
              row);
      }
    in
    let refined =
      clock
        (fun dt -> st.a.refine <- st.a.refine +. dt)
        (fun () -> fst (Refine.refine p g space))
    in
    let order = greedy st p refined in
    plan_add st g p
      { Cache.p_space = refined.Feasible.candidates; p_order = order; p_epoch = epoch };
    search st ~exhaustive p g ~order refined

let selector st : Eval.selector =
 fun ~exhaustive ~patterns entries ->
  clock
    (fun dt -> st.a.inside <- st.a.inside +. dt)
    (fun () ->
      let pats = Array.of_list patterns in
      let ranked =
        if Array.length pats <= 1 then List.init (Array.length pats) Fun.id
        else
          Algebra.pattern_order ~strategy:st.strategy
            ~n_nodes:
              (List.fold_left
                 (fun m e -> max m (Graph.n_nodes (Algebra.underlying e)))
                 1 entries)
            (List.map (fun p -> p.Rpq.core) patterns)
      in
      let per = Array.make (max 1 (Array.length pats)) [] in
      List.iter
        (fun pi ->
          let p = pats.(pi) in
          if p.Rpq.segments <> [] then failwith "replay: path segments unsupported";
          per.(pi) <-
            List.concat_map
              (fun entry ->
                let g = Algebra.underlying entry in
                let o = cached_run st ~exhaustive p.Rpq.core g in
                List.map
                  (fun phi -> Algebra.M (Matched.make p.Rpq.core g phi))
                  o.Search.mappings)
              entries)
        ranked;
      (List.concat (Array.to_list per), Budget.Exhausted))

(* --- the writer: Service.writer plus gqlsh's store persistence, timed ------- *)

let replace_doc st source f =
  st.docs <- List.map (fun (n, gs) -> if String.equal n source then (n, f gs) else (n, gs)) st.docs

let set_view_doc st v =
  let key = Ast.view_source (View.name v) in
  if List.mem_assoc key st.docs then replace_doc st key (fun _ -> View.graphs v)
  else st.docs <- st.docs @ [ (key, View.graphs v) ]

let persist_view st v =
  match List.assoc_opt (View.source v) st.mounts with
  | Some m when View.materialized v ->
    clock
      (fun dt -> st.a.append <- st.a.append +. dt)
      (fun () -> Store.set_view m.store ~name:(View.name v) (View.encode v))
  | _ -> ()

let refresh_views st ~source ~index ~new_graph ~delta =
  List.iter
    (fun v ->
      if String.equal (View.source v) source then begin
        let old_gs = View.graphs v in
        let path =
          clock
            (fun dt -> st.a.view_refresh <- st.a.view_refresh +. dt)
            (fun () ->
              View.refresh ~strategy:st.strategy
                ~indexes:(fun g -> Phys.find_opt st.idx g)
                v
                ~docs:(Option.value ~default:[] (List.assoc_opt source st.docs))
                (View.Update { index; new_graph; delta }))
        in
        (match path with
        | `Incremental -> st.a.view_incr <- st.a.view_incr + 1
        | `Full -> st.a.view_full <- st.a.view_full + 1);
        cache_call st (fun () ->
            List.iter
              (fun g -> if not (List.memq g (View.graphs v)) then Cache.drop st.cache g)
              old_gs;
            Cache.register st.cache (View.graphs v));
        set_view_doc st v;
        persist_view st v
      end)
    st.views

let writer st (w : Eval.write) =
  clock
    (fun dt -> st.a.inside <- st.a.inside +. dt)
    (fun () ->
      match w with
      | Eval.W_update { source; index; old_graph; new_graph; ops; delta } ->
        ignore
          (clock
             (fun dt -> st.a.mutate <- st.a.mutate +. dt)
             (fun () -> Mutate.apply_all ~r:1 old_graph ops));
        (match Phys.find_opt st.idx old_graph with
        | Some (li, pi) ->
          let pair =
            clock
              (fun dt -> st.a.index_update <- st.a.index_update +. dt)
              (fun () ->
                (LI.update li ~old_graph new_graph delta, fst (PI.update pi new_graph delta)))
          in
          Phys.remove st.idx old_graph;
          Phys.replace st.idx new_graph pair
        | None -> ());
        cache_call st (fun () ->
            Cache.replace st.cache ~metrics:M.disabled ~old_graph ~new_graph ~delta:None);
        replace_doc st source (List.mapi (fun i g -> if i = index then new_graph else g));
        refresh_views st ~source ~index ~new_graph ~delta;
        (match List.assoc_opt source st.mounts with
        | Some m ->
          clock
            (fun dt -> st.a.append <- st.a.append +. dt)
            (fun () -> ignore (Store.append_txn m.store ~gid:m.gids.(index) ops))
        | None -> ())
      | Eval.W_create_view { name; materialized; def; graphs; _ } ->
        let v = View.make ~name ~materialized def in
        View.attach ~strategy:st.strategy ~graphs v
          ~docs:(Option.value ~default:[] (List.assoc_opt (View.source v) st.docs));
        st.views <- st.views @ [ v ];
        cache_call st (fun () -> Cache.register st.cache (View.graphs v));
        set_view_doc st v;
        persist_view st v
      | Eval.W_insert _ | Eval.W_remove _ | Eval.W_drop_view _ ->
        failwith "replay: unsupported write")

(* --- one request through both pipelines ------------------------------------- *)

let commit st =
  List.iter
    (fun (_, m) ->
      clock (fun dt -> st.a.commit <- st.a.commit +. dt) (fun () -> Store.flush m.store))
    st.mounts

let render result =
  let resp =
    {
      Protocol.qr_id = 1;
      qr_qid = 1;
      qr_status = "ok";
      qr_stopped = "exhausted";
      qr_error = None;
      qr_graphs = Server.render_graphs result;
      qr_vars = List.length result.Eval.vars;
      qr_writes = result.Eval.writes;
      qr_wall_ms = 0.0;
      qr_shards_ok = 1;
      qr_shards_failed = [];
    }
  in
  ( resp.Protocol.qr_graphs,
    String.length
      (Protocol.encode (Protocol.Json.to_string (Protocol.query_response_to_json resp))) )

let step st svc (r : Workload.request) =
  let a = st.a in
  let t0 = Common.now () in
  let program, parse_s =
    match Hashtbl.find_opt st.parsed r.src with
    | Some p -> (p, 0.0)
    | None ->
      let p, dt = Common.time (fun () -> Gql.parse_program r.src) in
      Hashtbl.replace st.parsed r.src p;
      (p, dt)
  in
  a.parse <- a.parse +. parse_s;
  let inside0 = a.inside and replayed0 = a.append +. a.mutate in
  let result, eval_s =
    Common.time (fun () ->
        Eval.run ~docs:st.docs ~strategy:st.strategy ~selector:(selector st)
          ~writer:(writer st) program)
  in
  a.eval <- a.eval +. (eval_s -. (a.inside -. inside0));
  (* work inside [Eval.run] that the service does not do: the Mutate
     replay and the store appends (the server persists through gqlsh's
     writer, the in-process service has none) *)
  let replayed = a.append +. a.mutate -. replayed0 in
  if result.Eval.writes > 0 then commit st;
  let (graphs, bytes), render_s = Common.time (fun () -> render result) in
  a.render <- a.render +. render_s;
  a.response_bytes <- a.response_bytes + bytes;
  let direct = Common.now () -. t0 in
  let ok = List.sort String.compare graphs = r.expect && result.Eval.writes = r.writes in
  (* the service pass: the same text through an in-process Service *)
  let outcome, svc_s = Common.time (fun () -> Service.wait svc (Service.submit svc r.src)) in
  let svc_ok = match outcome.Service.o_status with Service.Done _ -> true | _ -> false in
  let overhead = svc_s -. (parse_s +. eval_s -. replayed) in
  a.service <- a.service +. overhead;
  a.total <- a.total +. direct +. overhead;
  if not (ok && svc_ok) then Common.log "replay: wrong answer for %s" r.src;
  ok && svc_ok

(* --- the run ------------------------------------------------------------------- *)

let run (w : Workload.t) =
  let strategy = Engine.optimized in
  let loaded, load_s = Common.time (fun () -> List.map load_doc w.Workload.doc_args) in
  let docs = List.map fst loaded in
  let mounts = List.filter_map snd loaded in
  let st =
    {
      a = fresh_acc ();
      strategy;
      search_domains = max 1 (Domain.recommended_domain_count ());
      cache = Cache.create ();
      idx = Phys.create 1024;
      parsed = Hashtbl.create 1024;
      docs;
      mounts;
      views = [];
    }
  in
  Cache.register st.cache (List.concat_map snd docs);
  let svc = Service.create ~jobs:1 ~strategy ~docs () in
  Fun.protect
    ~finally:(fun () ->
      Service.shutdown svc;
      List.iter (fun (_, m) -> Store.abort m.store) st.mounts)
    (fun () ->
      let run_one r = Drive.count (step st svc r) in
      List.iter run_one w.Workload.warmup;
      let index_build = st.a.index_build in
      st.a <- fresh_acc ();
      st.a.index_build <- index_build;
      let evictions0 = (Cache.stats st.cache).Cache.retrieval.Gql_exec.Lru.evictions in
      Array.iter run_one w.Workload.load;
      let a = st.a in
      let n = float_of_int (Array.length w.Workload.load) in
      let count k = Array.fold_left (fun c r -> if k r.Workload.kind then c + 1 else c) 0 w.Workload.load in
      let reads = float_of_int (max 1 (count (fun k -> k = Workload.Read || k = Workload.View_read))) in
      let writes = float_of_int (max 1 (count (fun k -> k = Workload.Write))) in
      let per_req x = Common.ms x /. n and per_write x = Common.ms x /. writes in
      let ratio num den = if den = 0 then 1.0 else float_of_int num /. float_of_int den in
      let attributed =
        a.parse +. a.eval +. a.retrieve +. a.refine +. a.order +. a.search +. a.stats
        +. a.cache +. a.mutate +. a.index_update +. a.view_refresh +. a.append
        +. a.commit +. a.render +. a.service
        +. (a.index_build -. index_build)
      in
      Common.log "replay: traced %.1f ms/request, unattributed %.3f ms/request"
        (per_req a.total) (per_req (a.total -. attributed));
      [
        ("core.load_s", load_s, "s");
        ("core.parse_ms", per_req a.parse, "ms");
        ("core.eval_ms", per_req a.eval, "ms");
        ("matcher.retrieve_ms", per_req a.retrieve, "ms");
        ("matcher.refine_ms", per_req a.refine, "ms");
        ("matcher.order_ms", per_req a.order, "ms");
        ("matcher.search_ms", per_req a.search, "ms");
        ("matcher.visited", float_of_int a.visited /. reads, "count");
        ("matcher.stats_ms", per_req a.stats, "ms");
        ("index.build_ms", Common.ms a.index_build, "ms");
        ("exec.service_ms", per_req a.service, "ms");
        ("exec.cache_ms", per_req a.cache, "ms");
        ("exec.plan_hit_ratio", ratio (a.plan_fresh + a.plan_stale) a.plan_lookups, "ratio");
        ("exec.plan_stale_ratio", (if a.plan_lookups = 0 then 0.0 else ratio a.plan_stale a.plan_lookups), "ratio");
        ("exec.row_hit_ratio", ratio (a.row_lookups - a.row_misses) a.row_lookups, "ratio");
        ("exec.plan_wipes", float_of_int a.plan_wipes, "count");
        ( "exec.row_evictions",
          float_of_int ((Cache.stats st.cache).Cache.retrieval.Gql_exec.Lru.evictions - evictions0),
          "count" );
        ("exec.render_ms", per_req a.render, "ms");
        ("exec.response_kb", float_of_int a.response_bytes /. 1024.0 /. reads, "kB");
        ("graph.mutate_ms", per_write a.mutate, "ms");
        ("index.update_ms", per_write a.index_update, "ms");
        ("exec.view_refresh_ms", per_write a.view_refresh, "ms");
        ( "exec.view_incremental_frac",
          (if a.view_incr + a.view_full = 0 then 0.0 else ratio a.view_incr (a.view_incr + a.view_full)),
          "ratio" );
        ("storage.append_ms", per_write a.append, "ms");
        ("storage.commit_ms", per_write a.commit, "ms");
        ("unattributed_ms", per_req (a.total -. attributed), "ms");
        ("trace.total_ms", per_req a.total, "ms");
      ])
