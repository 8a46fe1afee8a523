module M = Gql_obs.Metrics
module Budget = Gql_matcher.Budget
module Engine = Gql_matcher.Engine
module Flat_pattern = Gql_matcher.Flat_pattern
module Feasible = Gql_matcher.Feasible
module Search = Gql_matcher.Search
module Eval = Gql_core.Eval
module Algebra = Gql_core.Algebra
module Error = Gql_core.Error

(* Cooperative preemption: the selector performs [Yield] after an
   engine run once the quantum is spent; the captured continuation
   goes to the back of the work queue and any worker domain may resume
   it (one-shot, resumed exactly once — the domainslib pattern). *)
type _ Effect.t += Yield : unit Effect.t

type status =
  | Done of Eval.result
  | Rejected of Budget.stop_reason
  | Failed of Error.t

type outcome = {
  o_id : int;
  o_query : string;
  o_status : status;
  o_yields : int;
  o_wall_ms : float;
}

type job = {
  j_id : int;
  j_src : string;
  j_budget : Budget.t;
  j_metrics : M.t;
  j_submitted : float;
  j_after : int;  (* watermark gate: runs once [applied >= j_after] *)
  j_reserved : int;  (* log positions reserved at submit (DML count) *)
  j_parsed : (Gql_core.Ast.program * bool, exn) result;
      (* parsed at submit; the flag says the parse cache already held it *)
  mutable j_writes : int;  (* writes actually applied; guarded by r_mutex *)
  mutable j_slice : int;  (* visited nodes since the last yield *)
  mutable j_yields : int;
  mutable j_done : bool;  (* guarded by r_mutex; completion idempotence *)
}

type task =
  | Fresh of job
  | Resume of (unit, unit) Effect.Deep.continuation

type t = {
  cache : Cache.t;
  strategy : Engine.strategy;
  quantum : int;
  search_domains : int;  (* intra-query fan-out when the queue is idle *)
  (* work queue *)
  q_mutex : Mutex.t;
  q_cond : Condition.t;
  queue : task Queue.t;
  mutable stopping : bool;
  (* results; also guards docs, pending, next_id, the aggregate *)
  r_mutex : Mutex.t;
  r_cond : Condition.t;
  results : (int, outcome) Hashtbl.t;
  mutable pending : int;
  mutable next_id : int;
  mutable docs : Eval.docs;
  mutable views : View.t list;  (* registered views; guarded by r_mutex *)
  (* the log watermark: [staged] positions are reserved at submit (one
     per DML statement of the program), [applied] advances as writes
     land — or catches up at completion when a job applies fewer writes
     than it reserved (budget stop, failure, rejection), so a gate can
     never wait forever. [staged] is guarded by r_mutex; [applied] is
     atomic so the dequeue path can read it without taking r_mutex
     (q_mutex is held there — no nesting). *)
  mutable staged : int;
  applied : int Atomic.t;
  on_write : (Eval.write -> unit) option;  (* the durability sink *)
  agg : M.t;
  (* parse cache: query text -> AST (ASTs are immutable, sharing is safe) *)
  p_mutex : Mutex.t;
  parsed : Gql_core.Ast.program Lru.t;
  mutable domains : unit Domain.t list;
}

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* --- work queue ----------------------------------------------------------- *)

let push_task t task =
  locked t.q_mutex (fun () ->
      Queue.push task t.queue;
      Condition.signal t.q_cond)

let queue_nonempty t =
  locked t.q_mutex (fun () -> not (Queue.is_empty t.queue))

(* Dequeue the first runnable task. A [Fresh] job whose watermark gate
   is ahead of [applied] is skipped (rotated to the back, counting
   [exec.queue.watermark_waits]); a [Resume] is never gated — its job
   already passed the gate. During shutdown gates are ignored so queued
   work always drains. Gate openers ([writer] / the completion catch-up)
   broadcast [q_cond]. *)
let next_task t =
  locked t.q_mutex (fun () ->
      let runnable = function
        | Resume _ -> true
        | Fresh job ->
          t.stopping || job.j_after <= Atomic.get t.applied
      in
      let rec wait () =
        let found = ref None in
        let n = Queue.length t.queue in
        let i = ref 0 in
        while Option.is_none !found && !i < n do
          incr i;
          let task = Queue.pop t.queue in
          if runnable task then found := Some task
          else begin
            (match task with
            | Fresh job -> M.incr job.j_metrics M.Exec_watermark_waits
            | Resume _ -> ());
            Queue.push task t.queue
          end
        done;
        match !found with
        | Some task -> Some task
        | None ->
          if t.stopping && Queue.is_empty t.queue then None
          else begin
            Condition.wait t.q_cond t.q_mutex;
            wait ()
          end
      in
      wait ())

(* --- the plan source ------------------------------------------------------ *)

(* Where a job's (pattern, graph) runs get their plans: the shared
   cache, when the graph is registered. [None] — a graph bound to a
   query variable, or [`Subgraphs] retrieval — sends the run through
   the uncached engine with the strategy's own model and fan-out. The
   callbacks that do not depend on the pair are built once per job. *)
let source t job =
  let s = t.strategy in
  let metrics = job.j_metrics in
  let refine = s.Engine.refine in
  (* When the caller did not pin a cost model, the service plans with
     the shared learned statistics: γ and selectivity estimates start
     at the static defaults (unseen buckets fall back) and converge on
     what this workload's searches actually observed. *)
  let uses_learned = Option.is_none s.Engine.cost_model in
  let model () =
    match s.Engine.cost_model with
    | Some m -> m
    | None ->
      Gql_matcher.Cost.Learned
        { learned = Cache.learned_snapshot t.cache; fallback = None }
  in
  (* Inter- vs intra-query split: while other work is queued, every
     domain runs its own query (inter-query parallelism, caches hot);
     when this is the only live query and it is about to walk a big
     search space, fan the search itself out over the work-stealing
     engine. Tiny searches stay sequential — handing work to the
     pool's parked helpers and waiting for them costs more than they
     do. *)
  let domains ~order space =
    if
      t.search_domains > 1
      && Array.length order > 0
      && Array.length space.Feasible.candidates.(order.(0)) > 1
      && Feasible.log10_size space >= 3.0
      && not (queue_nonempty t)
    then t.search_domains
    else 1
  in
  (* Fold a new plan's search into the shared stats under the cache
     mutex. Only exhaustive runs: a truncated search undercounts deep
     positions and would bias the γ averages. *)
  let observe p g outcome space ~order profile =
    if
      (uses_learned || s.Engine.adaptive)
      && outcome.Search.stopped = Budget.Exhausted
    then
      Cache.observe_learned t.cache ~f:(fun st ->
          let k = Array.length order in
          let pd = profile.Search.pr_descents in
          let fanouts = Array.make k nan in
          for i = 1 to k - 1 do
            if pd.(i - 1) > 0 then
              fanouts.(i) <- float_of_int pd.(i) /. float_of_int pd.(i - 1)
          done;
          Gql_matcher.Stats.observe_run st ~p
            ~n_nodes:(Gql_graph.Graph.n_nodes g) ~sizes:(Feasible.sizes space)
            ~order ~fanouts)
  in
  match s.Engine.retrieval with
  | `Subgraphs -> fun _ _ -> None
  | (`Node_attrs | `Profiles) as retrieval -> (
    fun p g ->
      let epoch = if uses_learned then Cache.learned_epoch t.cache else 0 in
      let with_plan plan =
        let save ~order space =
          Cache.plan_add t.cache ~retrieval ~refine g p
            {
              Cache.p_space = space.Feasible.candidates;
              p_order = order;
              p_epoch = epoch;
            }
        in
        Some { Engine.plan; save; model; observe = observe p g; domains }
      in
      match Cache.plan_find t.cache ~metrics ~retrieval ~refine ~epoch g p with
      | Some (`Fresh { Cache.p_space; p_order; _ }) ->
        with_plan (Engine.Fresh ({ Feasible.candidates = p_space }, p_order))
      | Some (`Stale { Cache.p_space; _ }) ->
        (* the learned stats crossed an epoch since this plan was
           ordered: the refined space is still exact, only the order is
           redone *)
        with_plan (Engine.Stale { Feasible.candidates = p_space })
      | None -> (
        match Cache.indexes t.cache ~metrics g with
        | None -> None
        | Some (lidx, pidx) ->
          with_plan
            (Engine.Miss
               (fun () ->
                 {
                   Feasible.candidates =
                     Array.init (Flat_pattern.size p) (fun u ->
                         Cache.row t.cache ~metrics ~retrieval g p u
                           ~compute:(fun () ->
                             Feasible.compute_row ~retrieval ~metrics
                               ~label_index:lidx ~profile_index:pidx p g u));
                 }))))

let maybe_yield t job =
  if job.j_slice >= t.quantum && queue_nonempty t then begin
    job.j_slice <- 0;
    job.j_yields <- job.j_yields + 1;
    M.incr job.j_metrics M.Exec_queue_yields;
    Effect.perform Yield
  end

(* The sequential selection loop with the plan cache as its source and
   a yield point after every (pattern, graph) run. Batch results equal
   a sequential [Gql.run_query]'s up to search order: the service plans
   with learned statistics, which may reorder a graph's matches or pick
   a different first match. *)
let selector t job ~exhaustive ~patterns entries =
  Algebra.select_governed ~strategy:t.strategy ~exhaustive
    ~budget:job.j_budget ~metrics:job.j_metrics ~source:(source t job)
    ~after:(fun outcome ->
      job.j_slice <- job.j_slice + outcome.Search.visited + 1;
      maybe_yield t job)
    ~patterns entries

(* --- job execution --------------------------------------------------------- *)

(* The parse happened at submit; count it against the parse cache
   here, on the job's metrics. *)
let parsed_program job =
  match job.j_parsed with
  | Ok (program, cached) ->
    M.incr job.j_metrics
      (if cached then M.Exec_cache_hit else M.Exec_cache_miss);
    program
  | Error e ->
    M.incr job.j_metrics M.Exec_cache_miss;
    raise e

let internalize e =
  match e with
  | Error.E err -> err
  | e -> (
    match Error.classify e with
    | Some err -> err
    | None -> Error.Eval ("internal: " ^ Printexc.to_string e))

(* --- view registry --------------------------------------------------------

   All under r_mutex. A view is visible to queries as the doc entry
   ["view:name"] holding its current materialization; the graphs are
   registered in the cache so view reads get warm indexes and plans.
   Cache state is reconciled per graph (gid-keyed [Cache.drop] /
   [Cache.register]), never wholesale: refreshing a view must not cool
   unrelated documents' plans. *)

let view_key v = Gql_core.Ast.view_source (View.name v)

let set_view_docs t v =
  let key = view_key v in
  let gs = View.graphs v in
  t.docs <-
    (if List.mem_assoc key t.docs then
       List.map
         (fun (n, l) -> if String.equal n key then (n, gs) else (n, l))
         t.docs
     else t.docs @ [ (key, gs) ])

let reconcile_view_cache t ~old_gs ~new_gs =
  List.iter
    (fun g -> if not (List.memq g new_gs) then Cache.drop t.cache g)
    old_gs;
  Cache.register t.cache new_gs

let uninstall_view_locked t name =
  match List.find_opt (fun v -> String.equal (View.name v) name) t.views with
  | None -> ()
  | Some old ->
    List.iter (fun g -> Cache.drop t.cache g) (View.graphs old);
    t.views <- List.filter (fun v -> not (v == old)) t.views;
    t.docs <- List.remove_assoc (view_key old) t.docs

let source_docs_locked t source =
  Option.value ~default:[] (List.assoc_opt source t.docs)

let install_view_locked t ~metrics v =
  uninstall_view_locked t (View.name v);
  t.views <- t.views @ [ v ];
  Cache.register t.cache (View.graphs v);
  set_view_docs t v;
  ignore metrics

(* Refresh every view reading [source] against one committed write.
   Runs after the doc mirror (so [docs] is the post-write collection)
   and inside r_mutex (so readers gated on this write's watermark see
   the refreshed materialization). Returns the synthesized
   [W_create_view] events that re-persist refreshed materialized views
   through the durability sink. *)
let refresh_views_locked t ~metrics ~source change =
  List.filter_map
    (fun v ->
      if not (String.equal (View.source v) source) then None
      else begin
        let old_gs = View.graphs v in
        ignore
          (View.refresh ~strategy:t.strategy ~metrics
             ~indexes:(fun g -> Cache.indexes t.cache ~metrics g)
             v
             ~docs:(source_docs_locked t source)
             change);
        reconcile_view_cache t ~old_gs ~new_gs:(View.graphs v);
        set_view_docs t v;
        if View.materialized v then
          Some
            (Eval.W_create_view
               {
                 name = View.name v;
                 materialized = true;
                 def = View.def v;
                 graphs = View.graphs v;
                 epoch = View.epoch v;
               })
        else None
      end)
    t.views

(* The service-side write sink, called by [Eval.run] once per applied
   DML statement. Under r_mutex: mirror the evaluator's doc change into
   the service's doc list, retire exactly the written graph's cached
   state ([Cache.replace] — other graphs' plans stay warm), and bring
   every view over the written collection up to date (the incremental
   maintainer reuses the delta and the incrementally updated indexes
   that [Cache.replace] just derived). Then, off the lock: hand the
   write — plus one synthesized [W_create_view] per refreshed
   materialized view — to the durability sink ([on_write] — the CLI
   appends them to the store there), and only after it returns advance
   the applied watermark, so a reader gated on this write observes it
   in memory, in the views, and staged in the store. Staged is not
   durable: the store commits its staged records only when the CLI
   closes it at shutdown, so a crash before then loses the write. *)
let writer t job w =
  let refresh_events = ref [] in
  locked t.r_mutex (fun () ->
      let m = job.j_metrics in
      (match w with
      | Eval.W_update { source; index; old_graph; new_graph; delta; ops = _ } ->
        Cache.replace t.cache ~metrics:m ~old_graph ~new_graph
          ~delta:(Some delta);
        t.docs <-
          List.map
            (fun (name, gs) ->
              if String.equal name source then
                (name, List.mapi (fun i g -> if i = index then new_graph else g) gs)
              else (name, gs))
            t.docs
      | Eval.W_insert { source; new_graph } ->
        Cache.register t.cache [ new_graph ];
        t.docs <-
          (if List.mem_assoc source t.docs then
             List.map
               (fun (name, gs) ->
                 if String.equal name source then (name, gs @ [ new_graph ])
                 else (name, gs))
               t.docs
           else t.docs @ [ (source, [ new_graph ]) ])
      | Eval.W_remove { source; index; old_graph } ->
        Cache.drop t.cache old_graph;
        t.docs <-
          List.map
            (fun (name, gs) ->
              if String.equal name source then
                (name, List.filteri (fun i _ -> i <> index) gs)
              else (name, gs))
            t.docs
      | Eval.W_create_view { name; materialized; def; graphs; epoch = _ } ->
        (* the evaluator already computed the creation-time result;
           adopt it — the incremental match caches build lazily on the
           first refresh *)
        let v = View.make ~name ~materialized def in
        View.attach ~strategy:t.strategy ~metrics:m ~graphs v
          ~docs:(source_docs_locked t (View.source v));
        install_view_locked t ~metrics:m v
      | Eval.W_drop_view { name } -> uninstall_view_locked t name);
      (match w with
      | Eval.W_update { source; index; new_graph; delta; _ } ->
        refresh_events :=
          refresh_views_locked t ~metrics:m ~source
            (View.Update { index; new_graph; delta })
      | Eval.W_insert { source; new_graph } ->
        refresh_events :=
          refresh_views_locked t ~metrics:m ~source (View.Insert { new_graph })
      | Eval.W_remove { source; index; _ } ->
        refresh_events :=
          refresh_views_locked t ~metrics:m ~source (View.Remove { index })
      | Eval.W_create_view _ | Eval.W_drop_view _ -> ());
      job.j_writes <- job.j_writes + 1;
      M.incr m M.Exec_writes);
  Option.iter (fun f -> f w) t.on_write;
  List.iter (fun ev -> Option.iter (fun f -> f ev) t.on_write) !refresh_events;
  ignore (Atomic.fetch_and_add t.applied 1);
  locked t.q_mutex (fun () -> Condition.broadcast t.q_cond)

(* Statements whose source is a mounted view: answered straight from
   the materialization (a doc lookup) — the read side of the trade the
   maintainer makes on the write path. *)
let view_reads program =
  List.fold_left
    (fun acc s ->
      match s with
      | Gql_core.Ast.Sflwr f
        when Gql_core.Ast.view_of_source f.Gql_core.Ast.f_source <> None ->
        acc + 1
      | Gql_core.Ast.Spath q
        when Gql_core.Ast.view_of_source q.Gql_core.Ast.q_source <> None ->
        acc + 1
      | _ -> acc)
    0 program

let run_job t job =
  let docs = locked t.r_mutex (fun () -> t.docs) in
  match Budget.poll job.j_budget with
  | Some r -> Rejected r
  | None -> (
    match
      let program = parsed_program job in
      M.add job.j_metrics M.Views_reads (view_reads program);
      Eval.run ~docs ~strategy:t.strategy ~budget:job.j_budget
        ~metrics:job.j_metrics ~selector:(selector t job)
        ~writer:(writer t job) program
    with
    | result -> Done result
    | exception e -> Failed (internalize e))

let complete t job status =
  let wall_ms = (Unix.gettimeofday () -. job.j_submitted) *. 1000.0 in
  let first =
    locked t.r_mutex (fun () ->
        if job.j_done then false
        else begin
          job.j_done <- true;
        M.incr job.j_metrics M.Exec_queue_completed;
        (match status with
        | Rejected _ -> M.incr job.j_metrics M.Exec_queue_deadline_stops
        | Done r -> (
          match r.Eval.stopped with
          | Budget.Deadline | Budget.Cancelled | Budget.Step_budget ->
            M.incr job.j_metrics M.Exec_queue_deadline_stops
          | Budget.Exhausted | Budget.Hit_limit -> ())
        | Failed _ -> ());
        M.merge_counts ~into:t.agg job.j_metrics;
        Hashtbl.replace t.results job.j_id
          {
            o_id = job.j_id;
            o_query = job.j_src;
            o_status = status;
            o_yields = job.j_yields;
            o_wall_ms = wall_ms;
          };
          t.pending <- t.pending - 1;
          Condition.broadcast t.r_cond;
          true
        end)
  in
  (* Catch up the applied watermark when the job reserved more log
     positions than it wrote (budget stop, failure, rejection): gates
     behind it must not wait for writes that will never come. *)
  if first then begin
    let shortfall = job.j_reserved - job.j_writes in
    if shortfall > 0 then begin
      ignore (Atomic.fetch_and_add t.applied shortfall);
      locked t.q_mutex (fun () -> Condition.broadcast t.q_cond)
    end
  end

let exec_fresh t job =
  Effect.Deep.match_with
    (fun () -> complete t job (run_job t job))
    ()
    {
      retc = Fun.id;
      exnc = (fun e -> complete t job (Failed (internalize e)));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                push_task t (Resume k))
          | _ -> None);
    }

let worker t () =
  let rec loop () =
    match next_task t with
    | None -> ()
    | Some (Fresh job) ->
      exec_fresh t job;
      loop ()
    | Some (Resume k) ->
      Effect.Deep.continue k ();
      loop ()
  in
  loop ()

(* --- public API ------------------------------------------------------------ *)

(* The parse cache's budget: a never-repeated workload must not grow the
   process with every text it sends. An entry is charged the AST's
   reachable heap words plus the text; a few KB each on the PPI
   selections, so the budget keeps several hundred texts. *)
let parse_budget_bytes = 4 * 1024 * 1024

let ast_bytes src program =
  String.length src + (8 * Obj.reachable_words (Obj.repr program)) + 64

let create ?jobs ?search_domains ?(quantum = 4096)
    ?(strategy = Engine.optimized) ?plan_capacity ?retrieval_budget_bytes
    ?(docs = []) ?on_write () =
  if quantum <= 0 then invalid_arg "Service.create: quantum <= 0";
  let jobs =
    match jobs with
    | Some n when n > 0 -> n
    | Some _ -> invalid_arg "Service.create: jobs <= 0"
    | None -> min 8 (Domain.recommended_domain_count ())
  in
  let search_domains =
    match search_domains with
    | Some n when n > 0 -> n
    | Some _ -> invalid_arg "Service.create: search_domains <= 0"
    | None ->
      (* split the machine between the two axes: whatever the job pool
         leaves unused goes to intra-query fan-out *)
      max 1 (Domain.recommended_domain_count () / jobs)
  in
  let t =
    {
      cache = Cache.create ?plan_capacity ?retrieval_budget_bytes ();
      strategy;
      quantum;
      search_domains;
      q_mutex = Mutex.create ();
      q_cond = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      r_mutex = Mutex.create ();
      r_cond = Condition.create ();
      results = Hashtbl.create 64;
      pending = 0;
      next_id = 0;
      docs;
      views = [];
      staged = 0;
      applied = Atomic.make 0;
      on_write;
      agg = M.create ();
      p_mutex = Mutex.create ();
      parsed = Lru.create ~budget_bytes:parse_budget_bytes ~weight:ast_bytes;
      domains = [];
    }
  in
  Cache.register t.cache (List.concat_map snd docs);
  t.domains <- List.init jobs (fun _ -> Domain.spawn (worker t));
  t

let submit t ?deadline ?cancel ?after src =
  let now = Unix.gettimeofday () in
  let budget =
    match deadline with
    | None -> Budget.make ?cancel ()
    | Some d -> Budget.make ?cancel ~deadline_at:(now +. d) ()
  in
  (* Parse once, here, through the parse cache: the job runs this AST,
     and its DML statements reserve log positions now. A parse failure
     reserves none; the job reports it when run. *)
  let parsed =
    match locked t.p_mutex (fun () -> Lru.find t.parsed src) with
    | Some program -> Ok (program, true)
    | None -> (
      match Gql_core.Gql.parse_program src with
      | program ->
        locked t.p_mutex (fun () -> Lru.add t.parsed src program);
        Ok (program, false)
      | exception e -> Error e)
  in
  let reserved =
    match parsed with
    | Ok (program, _) -> Gql_core.Ast.count_dml program
    | Error _ -> 0
  in
  let job =
    locked t.r_mutex (fun () ->
        let id = t.next_id in
        t.next_id <- t.next_id + 1;
        t.pending <- t.pending + 1;
        (* DML programs gate on every previously staged write — writes
           serialize in submission order, which keeps the evaluator's
           in-collection indices aligned with the service's doc list.
           Read programs run ungated on the snapshot they dequeue with,
           unless the caller asked to read its writes via [?after]. *)
        let gate =
          match after with
          | Some w -> w
          | None -> if reserved > 0 then t.staged else 0
        in
        t.staged <- t.staged + reserved;
        {
          j_id = id;
          j_src = src;
          j_budget = budget;
          j_metrics = M.create ();
          j_submitted = now;
          j_after = gate;
          j_reserved = reserved;
          j_parsed = parsed;
          j_writes = 0;
          j_slice = 0;
          j_yields = 0;
          j_done = false;
        })
  in
  M.incr job.j_metrics M.Exec_queue_submitted;
  push_task t (Fresh job);
  job.j_id

let wait t id =
  locked t.r_mutex (fun () ->
      let rec go () =
        match Hashtbl.find_opt t.results id with
        | Some o ->
          Hashtbl.remove t.results id;
          o
        | None ->
          Condition.wait t.r_cond t.r_mutex;
          go ()
      in
      go ())

let drain t =
  let out =
    locked t.r_mutex (fun () ->
        while t.pending > 0 do
          Condition.wait t.r_cond t.r_mutex
        done;
        let out = Hashtbl.fold (fun _ o acc -> o :: acc) t.results [] in
        Hashtbl.reset t.results;
        out)
  in
  List.sort (fun a b -> compare a.o_id b.o_id) out

(* Mount a view decoded from a store (or built by the caller) into the
   running service: materialized views adopt their persisted result
   graphs; plain views re-derive from the current source collection. *)
let install_view t v =
  locked t.r_mutex (fun () ->
      let m = M.create () in
      (if View.materialized v then
         View.attach ~strategy:t.strategy ~metrics:m ~graphs:(View.graphs v) v
           ~docs:(source_docs_locked t (View.source v))
       else
         View.attach ~strategy:t.strategy ~metrics:m
           ~indexes:(fun g -> Cache.indexes t.cache ~metrics:m g)
           v
           ~docs:(source_docs_locked t (View.source v)));
      install_view_locked t ~metrics:m v;
      M.merge_counts ~into:t.agg m)

type view_info = {
  vi_name : string;
  vi_materialized : bool;
  vi_source : string;
  vi_epoch : int;
  vi_graphs : int;
  vi_incremental : bool;  (* delta-rule eligible *)
  vi_incr_refreshes : int;
  vi_full_refreshes : int;
}

let views t =
  locked t.r_mutex (fun () ->
      List.map
        (fun v ->
          let incr, full = View.refreshes v in
          {
            vi_name = View.name v;
            vi_materialized = View.materialized v;
            vi_source = View.source v;
            vi_epoch = View.epoch v;
            vi_graphs = List.length (View.graphs v);
            vi_incremental = View.incremental v;
            vi_incr_refreshes = incr;
            vi_full_refreshes = full;
          })
        t.views)

let watermark t = locked t.r_mutex (fun () -> t.staged)
let applied t = Atomic.get t.applied
let graph_epoch t g = Cache.graph_epoch t.cache g
let metrics t = t.agg
let cache_stats t = Cache.stats t.cache
let parse_stats t = locked t.p_mutex (fun () -> Lru.stats t.parsed)

let shutdown t =
  locked t.q_mutex (fun () ->
      t.stopping <- true;
      Condition.broadcast t.q_cond);
  List.iter Domain.join t.domains;
  t.domains <- []

let run_batch ?jobs ?search_domains ?quantum ?strategy ?plan_capacity
    ?retrieval_budget_bytes ?docs ?on_write ?deadline queries =
  let t =
    create ?jobs ?search_domains ?quantum ?strategy ?plan_capacity
      ?retrieval_budget_bytes ?docs ?on_write ()
  in
  List.iter (fun q -> ignore (submit t ?deadline q)) queries;
  let out = drain t in
  shutdown t;
  (out, t)
