(* The concurrent query service: batch/sequential equivalence, cache
   invalidation on document updates, LRU eviction under a byte budget,
   and scheduler liveness when an exponential query shares the pool
   with cheap ones. *)

open Gql_graph
module M = Gql_obs.Metrics
module Budget = Gql_matcher.Budget
module Eval = Gql_core.Eval
module Gql = Gql_core.Gql
module Error = Gql_core.Error
module Service = Gql_exec.Service
module Lru = Gql_exec.Lru

let graph_print g = Format.asprintf "%a" Graph.pp g

(* ---- the retrieval LRU, in isolation ---- *)

let test_lru_eviction () =
  let k i = Printf.sprintf "key%d" i in
  let r = Array.init 4 (fun i -> i) in
  let per = Lru.entry_bytes (k 0) r in
  let lru = Lru.create ~budget_bytes:(2 * per) ~weight:Lru.entry_bytes in
  Lru.add lru (k 0) r;
  Lru.add lru (k 1) r;
  (* touch k0 so k1 is the cold end when k2 arrives *)
  Alcotest.(check bool) "k0 findable" true (Lru.find lru (k 0) <> None);
  Lru.add lru (k 2) r;
  Alcotest.(check bool) "k1 evicted" false (Lru.mem lru (k 1));
  Alcotest.(check bool) "k0 survives (recently used)" true (Lru.mem lru (k 0));
  Alcotest.(check bool) "k2 present" true (Lru.mem lru (k 2));
  let s = Lru.stats lru in
  Alcotest.(check int) "two entries fit" 2 s.Lru.entries;
  Alcotest.(check int) "one eviction" 1 s.Lru.evictions;
  Alcotest.(check bool) "within budget" true (s.Lru.bytes <= s.Lru.budget);
  (* an entry larger than the whole budget is refused, not cached,
     and leaves the resident entries alone *)
  Lru.add lru "huge" (Array.make 4096 0);
  Alcotest.(check bool) "oversized refused" false (Lru.mem lru "huge");
  let s' = Lru.stats lru in
  Alcotest.(check int) "refusal counted as eviction" 2 s'.Lru.evictions;
  Alcotest.(check int) "residents untouched" 2 s'.Lru.entries

let test_lru_counters () =
  let lru = Lru.create ~budget_bytes:(1024 * 1024) ~weight:Lru.entry_bytes in
  Lru.add lru "a" [| 1; 2 |];
  ignore (Lru.find lru "a");
  ignore (Lru.find lru "a");
  ignore (Lru.find lru "nope");
  let s = Lru.stats lru in
  Alcotest.(check int) "hits" 2 s.Lru.hits;
  Alcotest.(check int) "misses" 1 s.Lru.misses

(* ---- version-stamp invalidation ---- *)

let edge_query =
  {|for graph P { node a where label="A"; node b where label="B"; edge e (a, b); }
    exhaustive in doc("D")
    return graph { node m <x=1>; };|}

let returned_count = function
  | Service.Done r -> List.length (Eval.returned r)
  | Service.Rejected _ | Service.Failed _ -> -1

(* ---- uncached fallbacks and error containment ---- *)

let test_variable_doc_fallback () =
  (* the doc source is a query variable, never registered with the
     cache: the service must fall back to the uncached engine *)
  let q =
    {|C := graph { node a <label="A">; node b <label="B">; edge e (a, b); };
      for graph P { node v1 where label="A"; } in doc("C")
      return graph { node out <found=1>; };|}
  in
  let outs, t = Service.run_batch ~jobs:1 [ q ] in
  (match outs with
  | [ o ] -> Alcotest.(check int) "one match" 1 (returned_count o.Service.o_status)
  | _ -> Alcotest.fail "expected one outcome");
  ignore t

let test_error_containment () =
  let t = Service.create ~jobs:1 () in
  let bad = Service.submit t "for graph P {" in
  let good =
    Service.submit t {|C := graph { node a <x=1>; }; for graph P { node v1; } in doc("C") return graph { node m <y=2>; };|}
  in
  let outs = Service.drain t in
  let find id = List.find (fun o -> o.Service.o_id = id) outs in
  (match (find bad).Service.o_status with
  | Service.Failed (Error.Parse _) -> ()
  | _ -> Alcotest.fail "expected a parse failure");
  (match (find good).Service.o_status with
  | Service.Done r ->
    Alcotest.(check int) "pool still alive" 1 (List.length (Eval.returned r))
  | _ -> Alcotest.fail "good query should complete after a bad one");
  Service.shutdown t

(* ---- scheduler liveness ---- *)

(* A same-label complete graph K_n: a 5-node path pattern enumerates
   n!/(n-5)! embeddings per graph (~15k on K_9, tens of milliseconds).
   Many modest bombs (rather than one huge one) give the scheduler
   yield points between per-graph engine runs: the whole collection
   takes seconds, far past the deadline, while any single run finishes
   well within it. *)
let bomb_graph n =
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edges := (i, j) :: !edges
    done
  done;
  Graph.of_labeled ~labels:(Array.make n "A") !edges

let bomb_query =
  {|for graph P { node a where label="A"; node b where label="A";
                  node c where label="A"; node d where label="A";
                  node e where label="A";
                  edge e1 (a, b); edge e2 (b, c); edge e3 (c, d); edge e4 (d, e); }
    exhaustive in doc("BOMB")
    return graph { node m <x=1>; };|}

let cheap_query =
  {|for graph P { node a where label="A"; node b where label="B"; edge e (a, b); }
    exhaustive in doc("SMALL")
    return graph { node m <x=1>; };|}

let test_liveness () =
  let bombs = List.init 60 (fun _ -> bomb_graph 9) in
  let small = Graph.of_labeled ~labels:[| "A"; "B" |] [ (0, 1) ] in
  let t =
    Service.create ~jobs:1 ~quantum:500
      ~docs:[ ("BOMB", bombs); ("SMALL", [ small ]) ]
      ()
  in
  (* the bomb goes in first: on a one-domain pool the cheap queries
     can only complete if the bomb cooperatively yields *)
  let slow_id = Service.submit t ~deadline:0.3 bomb_query in
  let cheap_ids = List.init 10 (fun _ -> Service.submit t cheap_query) in
  let t0 = Unix.gettimeofday () in
  let outs = Service.drain t in
  let elapsed = Unix.gettimeofday () -. t0 in
  let find id = List.find (fun o -> o.Service.o_id = id) outs in
  let slow = find slow_id in
  (match slow.Service.o_status with
  | Service.Done r ->
    Alcotest.(check bool)
      "bomb stopped by its deadline" true
      (r.Eval.stopped = Budget.Deadline)
  | Service.Rejected reason ->
    Alcotest.(check bool)
      "bomb rejected by its deadline" true
      (reason = Budget.Deadline)
  | Service.Failed e -> Alcotest.failf "bomb failed: %s" (Error.to_string e));
  List.iter
    (fun id ->
      match (find id).Service.o_status with
      | Service.Done r ->
        Alcotest.(check bool)
          "cheap query ran to completion" true
          (r.Eval.stopped = Budget.Exhausted);
        Alcotest.(check int) "cheap query found its match" 1
          (List.length (Eval.returned r))
      | _ -> Alcotest.fail "cheap query did not complete")
    cheap_ids;
  Alcotest.(check bool) "bomb was preempted at least once" true
    (slow.Service.o_yields >= 1);
  Alcotest.(check bool) "drain returned promptly" true (elapsed < 10.0);
  let agg = Service.metrics t in
  Alcotest.(check int) "all queries completed" 11
    (M.get agg M.Exec_queue_completed);
  Alcotest.(check bool) "yields counted" true
    (M.get agg M.Exec_queue_yields >= 1);
  Alcotest.(check bool) "deadline stop counted" true
    (M.get agg M.Exec_queue_deadline_stops >= 1);
  Service.shutdown t

(* A workload guaranteed to cross the scheduler quantum with queued
   competitors, so preemption is observable without any deadline: the
   PR4 bench ran cheap queries only and reported `yields: 0` forever —
   this pins the yield path as a hard assertion. *)
let test_quantum_yields () =
  let bombs = List.init 3 (fun _ -> bomb_graph 7) in
  let small = Graph.of_labeled ~labels:[| "A"; "B" |] [ (0, 1) ] in
  let t =
    Service.create ~jobs:1 ~quantum:64
      ~docs:[ ("BOMB", bombs); ("SMALL", [ small ]) ]
      ()
  in
  let heavy_id = Service.submit t bomb_query in
  let cheap_ids = List.init 4 (fun _ -> Service.submit t cheap_query) in
  let outs = Service.drain t in
  let find id = List.find (fun o -> o.Service.o_id = id) outs in
  (match (find heavy_id).Service.o_status with
  | Service.Done r ->
    Alcotest.(check bool)
      "heavy query still ran to completion" true
      (r.Eval.stopped = Budget.Exhausted)
  | _ -> Alcotest.fail "heavy query did not complete");
  List.iter
    (fun id ->
      match (find id).Service.o_status with
      | Service.Done _ -> ()
      | _ -> Alcotest.fail "cheap query did not complete")
    cheap_ids;
  Alcotest.(check bool)
    "quantum crossed: the heavy query was preempted" true
    ((find heavy_id).Service.o_yields > 0);
  Alcotest.(check bool)
    "exec.queue.yields is nonzero" true
    (M.get (Service.metrics t) M.Exec_queue_yields > 0);
  Service.shutdown t

(* ---- batch == sequential (property) ---- *)

let q l1 l2 ex =
  Printf.sprintf
    "for graph P { node a where label=%S; node b where label=%S; edge e (a, \
     b); } %sin doc(\"D\") return graph { node m <x=1>; };"
    l1 l2
    (if ex then "exhaustive " else "")

(* the flat queries above, plus the routes a flat first-match scan
   does not reach: path patterns (RPQ segments over a cached core), a
   two-derivation pattern (costed pattern ranking), and a selection
   over a variable-bound graph (never registered, so no plan source) *)
let batch_queries =
  [ q "A" "B" true; q "B" "C" true; q "A" "A" true; q "A" "C" false;
    q "B" "B" false;
    {|for graph P { node a; node b; edge (a, b) *1..; } exhaustive in doc("D")
      return graph { node P.a, P.b; };|};
    {|for graph P { node a where label="A"; node b; edge (a, b) *2..; }
      in doc("D") return graph { node m <x=1>; };|};
    {|graph Q {
        { node a where label="A"; node b where label="B"; edge e (a, b); }
        | { node a where label="C"; };
      };
      for Q exhaustive in doc("D") return graph { node Q.a; };|};
    {|C := graph {};
      for graph P { node a where label="A"; node b; edge e (a, b); }
      exhaustive in doc("D")
      let C := graph { graph C; node P.a, P.b; edge f (P.a, P.b); };
      for graph Q { node x; node y where label="B"; edge e (x, y); }
      exhaustive in doc("C") return graph { node Q.x, Q.y; };|} ]

(* 32 distinct never-matching patterns over the two graphs: 64 searches
   on new plans, one learned-stats epoch, so every earlier plan is
   stale afterwards *)
let epoch_fillers =
  List.init 32 (fun k ->
      Printf.sprintf
        {|for graph P { node a <k=%d>; } exhaustive in doc("D")
          return graph { node m <x=1>; };|}
        k)

let prop_batch_equals_sequential =
  QCheck.Test.make ~name:"batch service agrees with sequential run_query"
    ~count:25
    (QCheck.make
       QCheck.Gen.(
         pair
           (Test_matcher.gen_labeled_graph ~max_n:6)
           (Test_matcher.gen_labeled_graph ~max_n:6))
       ~print:(fun (g1, g2) -> graph_print g1 ^ "\n---\n" ^ graph_print g2))
    (fun (g1, g2) ->
      let docs = [ ("D", [ g1; g2 ]) ] in
      let seq = List.map (fun src -> Gql.run_query ~docs src) batch_queries in
      (* a tiny quantum so yielding actually happens and provably does
         not perturb results *)
      let t = Service.create ~jobs:2 ~quantum:16 ~docs () in
      let run_all srcs =
        List.iter (fun src -> ignore (Service.submit t src)) srcs;
        Service.drain t
      in
      (* a plan's search order may differ from the sequential run's
         (the service plans with learned statistics), so the returned
         graphs are compared as multisets *)
      let rendered r =
        List.sort compare (List.map graph_print (Eval.returned r))
      in
      let agrees outs =
        List.length outs = List.length seq
        && List.for_all2
             (fun o r ->
               match o.Service.o_status with
               | Service.Done rb ->
                 rb.Eval.stopped = r.Eval.stopped && rendered rb = rendered r
               | Service.Rejected _ | Service.Failed _ -> false)
             outs seq
      in
      let stale () = M.get (Service.metrics t) M.Exec_plan_stale in
      let cold = agrees (run_all batch_queries) in
      (* the same texts again: every cached plan is fresh *)
      let warm = agrees (run_all batch_queries) in
      let stale0 = stale () in
      ignore (run_all epoch_fillers);
      (* and again once the learned stats moved on: stale plans re-order *)
      let restamped = agrees (run_all batch_queries) in
      let went_stale = stale () > stale0 in
      Service.shutdown t;
      cold && warm && restamped && went_stale)

(* ---- plan epochs: learned-stats feedback invalidates cached orders ---- *)

let flat_pattern labels edges =
  let b = Graph.Builder.create () in
  let nodes =
    List.mapi
      (fun i l ->
        Graph.Builder.add_labeled_node b ~name:(Printf.sprintf "v%d" i) l)
      labels
    |> Array.of_list
  in
  List.iter
    (fun (u, v) -> ignore (Graph.Builder.add_edge b nodes.(u) nodes.(v)))
    edges;
  Gql_matcher.Flat_pattern.of_graph (Graph.Builder.build b)

let test_plan_epoch () =
  let module Cache = Gql_exec.Cache in
  let g = Graph.of_labeled ~labels:[| "A"; "B" |] [ (0, 1) ] in
  let p = flat_pattern [ "A"; "B" ] [ (0, 1) ] in
  let c = Cache.create () in
  Cache.register c [ g ];
  let metrics = M.create () in
  let find ?epoch () =
    Cache.plan_find c ~metrics ~retrieval:`Node_attrs ~refine:true ?epoch g p
  in
  Alcotest.(check bool) "cold pattern misses" true (find () = None);
  let plan =
    { Cache.p_space = [| [| 0 |]; [| 1 |] |]; p_order = [| 0; 1 |]; p_epoch = 0 }
  in
  Cache.plan_add c ~retrieval:`Node_attrs ~refine:true g p plan;
  (match find () with
  | Some (`Fresh pl) ->
    Alcotest.(check (array int)) "fresh hit returns the order" [| 0; 1 |]
      pl.Cache.p_order
  | _ -> Alcotest.fail "same-epoch lookup should be a fresh hit");
  (match find ~epoch:1 () with
  | Some (`Stale pl) ->
    Alcotest.(check int) "stale hit keeps the old stamp" 0 pl.Cache.p_epoch
  | _ -> Alcotest.fail "a newer learned epoch should mark the plan stale");
  Alcotest.(check int) "staleness counted" 1 (M.get metrics M.Exec_plan_stale);
  (* re-planning under the new epoch re-stamps the entry *)
  Cache.plan_add c ~retrieval:`Node_attrs ~refine:true g p
    { plan with Cache.p_epoch = 1 };
  (match find ~epoch:1 () with
  | Some (`Fresh _) -> ()
  | _ -> Alcotest.fail "re-stamped plan should be fresh again");
  Alcotest.(check bool) "engine settings are part of the key" true
    (Cache.plan_find c ~metrics ~retrieval:`Profiles ~refine:true g p = None)

(* ---- the write path: per-graph epochs and the watermark ---- *)

let named_graph name nodes edges =
  let b = Graph.Builder.create ~name () in
  let ids =
    List.map
      (fun (n, l) -> Graph.Builder.add_labeled_node b ~name:n l)
      nodes
    |> Array.of_list
  in
  List.iter (fun (u, v) -> ignore (Graph.Builder.add_edge b ids.(u) ids.(v))) edges;
  Graph.Builder.build b

let test_epoch_isolation () =
  (* a write to GA must not evict GB's warm plans or bump its epoch *)
  let ga = named_graph "GA" [ ("a", "A"); ("b", "B") ] [ (0, 1) ] in
  let gb = named_graph "GB" [ ("a", "A"); ("b", "B") ] [ (0, 1) ] in
  let t = Service.create ~jobs:1 ~docs:[ ("D", [ ga; gb ]) ] () in
  ignore (Service.submit t edge_query);
  ignore (Service.submit t edge_query);
  List.iter
    (fun o ->
      Alcotest.(check int) "two matches warm" 2
        (returned_count o.Service.o_status))
    (Service.drain t);
  let s0 = Service.cache_stats t in
  Alcotest.(check bool) "plans warmed for both graphs" true
    (s0.Gql_exec.Cache.plans >= 2);
  Alcotest.(check (option int)) "GA at epoch 0" (Some 0) (Service.graph_epoch t ga);
  Alcotest.(check (option int)) "GB at epoch 0" (Some 0) (Service.graph_epoch t gb);
  ignore (Service.submit t {|insert node c <C x=1> into doc("D").GA;|});
  (match Service.drain t with
  | [ { Service.o_status = Service.Done r; _ } ] ->
    Alcotest.(check int) "one write applied" 1 r.Eval.writes
  | _ -> Alcotest.fail "write program should succeed");
  Alcotest.(check (option int)) "old GA object retired" None
    (Service.graph_epoch t ga);
  Alcotest.(check (option int)) "GB epoch untouched" (Some 0)
    (Service.graph_epoch t gb);
  let s1 = Service.cache_stats t in
  Alcotest.(check bool) "GB's warm plans survive" true
    (s1.Gql_exec.Cache.plans >= 1);
  Alcotest.(check bool) "indexes maintained incrementally" true
    (M.get (Service.metrics t) M.Index_incremental >= 1);
  Alcotest.(check int) "write counted" 1
    (M.get (Service.metrics t) M.Exec_writes);
  ignore (Service.submit t edge_query);
  (match Service.drain t with
  | [ o ] ->
    Alcotest.(check int) "post-write matches still correct" 2
      (returned_count o.Service.o_status)
  | outs -> Alcotest.failf "expected one outcome, got %d" (List.length outs));
  (* view (re)materialization goes through gid-keyed replace/register,
     never a blanket invalidation: GB's epoch and warm plans survive a
     view create and its maintenance on a GA write *)
  ignore
    (Service.submit t
       {|create materialized view hot as
         for graph P { node a where label="A"; node b where label="B";
                       edge e (a, b); }
         exhaustive in doc("D")
         return graph { node P.a, P.b; edge ee (P.a, P.b); };|});
  ignore (Service.submit t {|insert node d <D x=2> into doc("D").GA;|});
  ignore (Service.drain t);
  Alcotest.(check (option int)) "GB epoch survives view maintenance" (Some 0)
    (Service.graph_epoch t gb);
  Alcotest.(check bool) "view refresh counted" true
    (M.get (Service.metrics t) M.Views_incremental
     + M.get (Service.metrics t) M.Views_full
     >= 1);
  Service.shutdown t

let test_watermark_read_your_writes () =
  let g1 = named_graph "G1" [ ("a", "A"); ("b", "B") ] [ (0, 1) ] in
  let t = Service.create ~jobs:2 ~docs:[ ("D", [ g1 ]) ] () in
  Alcotest.(check int) "fresh watermark" 0 (Service.watermark t);
  ignore
    (Service.submit t
       {|insert node c <label="B"> into doc("D").G1;
         insert edge (a, c) into doc("D").G1;|});
  Alcotest.(check int) "two writes staged" 2 (Service.watermark t);
  (* the gate: this read must observe both inserts even on a 2-worker
     pool where it could otherwise dequeue first *)
  ignore (Service.submit t ~after:(Service.watermark t) edge_query);
  (match Service.drain t with
  | [ w; r ] ->
    (match w.Service.o_status with
    | Service.Done _ -> ()
    | _ -> Alcotest.fail "write program should succeed");
    Alcotest.(check int) "gated read sees the writes" 2
      (returned_count r.Service.o_status)
  | outs -> Alcotest.failf "expected two outcomes, got %d" (List.length outs));
  Alcotest.(check int) "applied caught up to staged"
    (Service.watermark t) (Service.applied t);
  Alcotest.(check int) "writes counted" 2
    (M.get (Service.metrics t) M.Exec_writes);
  Service.shutdown t

(* ---- the warm path ---- *)

let test_warm_scan_stays_fresh () =
  (* fewer graphs than a learned-stats epoch (64 observed searches), so
     the cold pass cannot age its own plans *)
  let docs =
    [
      ( "D",
        List.init 40 (fun i ->
            Graph.of_labeled ~labels:[| "A"; "B"; "B" |] [ (0, 1); (0, i mod 3) ])
      );
    ]
  in
  let t = Service.create ~jobs:1 ~docs () in
  let pass () =
    ignore (Service.submit t edge_query);
    match Service.drain t with
    | [ o ] -> returned_count o.Service.o_status
    | _ -> Alcotest.fail "expected one outcome"
  in
  let stale () = M.get (Service.metrics t) M.Exec_plan_stale in
  (* what a warm search must not redo: retrieval, refinement, and the
     profiled search that feeds the drift rows *)
  let planning () =
    let agg = Service.metrics t in
    (M.get agg M.Retrieval_scanned, M.get agg M.Refine_levels, M.drift agg)
  in
  let cold = pass () in
  let observed = (Service.cache_stats t).Gql_exec.Cache.observations in
  Alcotest.(check int) "the cold pass observed every graph's search" 40 observed;
  let stale0 = stale () in
  let scanned0, levels0, drift0 = planning () in
  Alcotest.(check bool) "the cold pass retrieved" true (scanned0 > 0);
  Alcotest.(check bool) "the cold pass recorded drift" true (drift0 <> []);
  let warm = pass () in
  Alcotest.(check int) "same answers warm" cold warm;
  Alcotest.(check int) "no stale plan on the warm pass" stale0 (stale ());
  Alcotest.(check int) "warm searches are not observed again" observed
    (Service.cache_stats t).Gql_exec.Cache.observations;
  let scanned, levels, drift = planning () in
  Alcotest.(check int) "no retrieval on the warm pass" scanned0 scanned;
  Alcotest.(check int) "no refinement on the warm pass" levels0 levels;
  Alcotest.(check bool)
    "no drift recorded on the warm pass" true (drift = drift0);
  Service.shutdown t

(* A cold scan long enough to move the learned epoch while it runs
   (one epoch per 64 observed searches): the plans it made early were
   ordered under an older epoch than its end. Later passes must still
   return the uncached oracle's answers, and once the stale plans have
   been re-ordered a pass finds every plan fresh. *)
let test_cold_scan_across_epochs () =
  let n = 240 in
  let labels = [| "A"; "B"; "C" |] in
  let graphs =
    List.init n (fun i ->
        let k = 3 + (i mod 4) in
        Graph.of_labeled
          ~labels:(Array.init k (fun v -> labels.((i + (v * (i mod 5))) mod 3)))
          (List.init (k - 1) (fun v -> (v, v + 1)) @ [ (0, k - 1) ]))
  in
  let docs = [ ("D", graphs) ] in
  let src =
    {|for graph P { node a where label="A"; node b; edge e (a, b); }
      exhaustive in doc("D")
      return graph { node P.a, P.b; edge f (P.a, P.b); };|}
  in
  let rendered r = List.sort compare (List.map graph_print (Eval.returned r)) in
  let oracle = rendered (Gql.run_query ~docs src) in
  Alcotest.(check bool) "the oracle finds matches" true (oracle <> []);
  let t = Service.create ~jobs:1 ~docs () in
  let pass () =
    ignore (Service.submit t src);
    match Service.drain t with
    | [ { Service.o_status = Service.Done r; _ } ] -> rendered r
    | _ -> Alcotest.fail "expected one finished outcome"
  in
  let stale () = M.get (Service.metrics t) M.Exec_plan_stale in
  ignore (pass ());
  let observed = (Service.cache_stats t).Gql_exec.Cache.observations in
  Alcotest.(check int) "the cold pass observed every search" n observed;
  Alcotest.(check bool) "the epoch moved during the cold pass" true
    (observed >= 64);
  Alcotest.(check (list string)) "second pass = oracle" oracle (pass ());
  Alcotest.(check bool) "plans from the older epoch were stale" true
    (stale () > 0);
  Alcotest.(check (list string)) "third pass = oracle" oracle (pass ());
  let stale1 = stale () in
  ignore (pass ());
  Alcotest.(check int) "no stale plan once re-ordered" stale1 (stale ());
  Service.shutdown t

(* Structurally equal graphs are different documents: the cache keys
   them by identity, so a plan for one is not a plan for the other, and
   replacing one retires only its plans. *)
let test_equal_graphs_stay_apart () =
  let module Cache = Gql_exec.Cache in
  let ga = Graph.of_labeled ~labels:[| "A"; "B" |] [ (0, 1) ] in
  let gb = Graph.of_labeled ~labels:[| "A"; "B" |] [ (0, 1) ] in
  Alcotest.(check bool) "structurally equal" true (Graph.equal_structure ga gb);
  let c = Cache.create () in
  Cache.register c [ ga; gb ];
  Alcotest.(check int) "two registrations" 2 (Cache.stats c).Cache.graphs;
  let key =
    Cache.plan_key ~retrieval:`Profiles ~refine:true
      (flat_pattern [ "A"; "B" ] [ (0, 1) ])
  in
  let plan =
    {
      Cache.p_space = [| [| 0 |]; [| 1 |] |];
      p_order = [| 0; 1 |];
      p_epoch = 0;
    }
  in
  Cache.plan_store c ga key plan;
  let find g = Cache.plan_lookup c ~metrics:M.disabled ~epoch:0 g key in
  (match find ga with
  | Some (`Fresh _) -> ()
  | _ -> Alcotest.fail "ga's plan should be a fresh hit");
  Alcotest.(check bool) "gb has no plan" true (find gb = None);
  Cache.plan_store c gb key plan;
  let ga' = Graph.with_name ga (Some "renamed") in
  Cache.replace c ~metrics:M.disabled ~old_graph:ga ~new_graph:ga' ~delta:None;
  Alcotest.(check bool) "ga retired" false (Cache.registered c ga);
  Alcotest.(check bool) "ga's plan is gone" true (find ga = None);
  Alcotest.(check bool) "the new version starts cold" true (find ga' = None);
  (match find gb with
  | Some (`Fresh _) -> ()
  | _ -> Alcotest.fail "gb's plan should survive ga's replacement");
  Alcotest.(check (option int)) "only the written slot moved" (Some 1)
    (Cache.graph_epoch c ga');
  Alcotest.(check (option int)) "gb's epoch" (Some 0) (Cache.graph_epoch c gb)

let test_aggregate_keeps_no_spans () =
  let g = Graph.of_labeled ~labels:[| "A"; "B" |] [ (0, 1) ] in
  let outs, t =
    Service.run_batch ~jobs:2 ~docs:[ ("D", [ g ]) ]
      (List.init 5 (fun _ -> edge_query))
  in
  Alcotest.(check int) "five outcomes" 5 (List.length outs);
  Alcotest.(check int) "every job counted" 5
    (M.get (Service.metrics t) M.Exec_queue_completed);
  Alcotest.(check int) "no span merged into the aggregate" 0
    (M.span_count (Service.metrics t))

let test_parse_once_per_text () =
  (* the doc is a program variable, so the only cache the service
     consults is the parse cache *)
  let q x =
    Printf.sprintf
      {|C := graph { node a <label="A">; };
        for graph P { node v1 where label="A"; } in doc("C")
        return graph { node m <x=%d>; };|}
      x
  in
  let outs, t = Service.run_batch ~jobs:1 [ q 1; q 2; q 1; q 1 ] in
  List.iter
    (fun o -> Alcotest.(check int) "one match" 1 (returned_count o.Service.o_status))
    outs;
  Alcotest.(check int) "one miss per new text" 2
    (M.get (Service.metrics t) M.Exec_cache_miss);
  Alcotest.(check int) "repeats hit" 2 (M.get (Service.metrics t) M.Exec_cache_hit)

(* A stream of never-repeated texts keeps the parse cache within its
   constant budget: the coldest ASTs are evicted. *)
let test_parse_cache_bounded () =
  let q x =
    Printf.sprintf
      {|C := graph { node a <label="A">; };
        for graph P { node v1 where label="A"; } in doc("C")
        return graph { node m <x=%d>; };|}
      x
  in
  let t = Service.create ~jobs:1 () in
  let n = 5000 in
  for x = 1 to n do
    ignore (Service.submit t (q x));
    let s = Service.parse_stats t in
    if s.Lru.bytes > s.Lru.budget then
      Alcotest.failf "after %d texts: %d bytes > budget %d" x s.Lru.bytes
        s.Lru.budget
  done;
  let outs = Service.drain t in
  Service.shutdown t;
  Alcotest.(check int) "every query found its one match" n
    (List.length
       (List.filter (fun o -> returned_count o.Service.o_status = 1) outs));
  let s = Service.parse_stats t in
  Alcotest.(check int) "every text missed" n s.Lru.misses;
  Alcotest.(check bool) "the coldest were evicted" true (s.Lru.evictions > 0);
  Alcotest.(check int) "entries = texts - evictions" (n - s.Lru.evictions)
    s.Lru.entries

(* Planners share one copy of the learned statistics per epoch. *)
let test_learned_snapshot_per_epoch () =
  let module Cache = Gql_exec.Cache in
  let module Stats = Gql_matcher.Stats in
  let c = Cache.create () in
  let p = flat_pattern [ "A"; "B" ] [ (0, 1) ] in
  let observe () =
    Cache.observe_learned c ~f:(fun st ->
        Stats.observe_run st ~p ~n_nodes:10 ~sizes:[| 3; 3 |] ~order:[| 0; 1 |]
          ~fanouts:[| nan; 0.5 |])
  in
  observe ();
  let s1 = Cache.learned_snapshot c in
  let e1 = Cache.learned_epoch c in
  observe ();
  Alcotest.(check bool) "same epoch, same copy" true
    (Cache.learned_snapshot c == s1);
  let rounds = ref 0 in
  while Cache.learned_epoch c = e1 && !rounds < 10_000 do
    observe ();
    incr rounds
  done;
  Alcotest.(check bool) "the epoch moved" true (Cache.learned_epoch c > e1);
  let s2 = Cache.learned_snapshot c in
  Alcotest.(check bool) "a new epoch, a new copy" true (s2 != s1);
  Alcotest.(check int) "the new copy holds every observation"
    (Stats.observations s2)
    (Cache.stats c).Cache.observations

let test_replace_retires_one_graph () =
  let module Cache = Gql_exec.Cache in
  let ga = Graph.of_labeled ~labels:[| "A"; "B" |] [ (0, 1) ] in
  let gb = Graph.of_labeled ~labels:[| "A"; "B" |] [ (0, 1) ] in
  let p1 = flat_pattern [ "A"; "B" ] [ (0, 1) ] in
  let p2 = flat_pattern [ "B"; "A" ] [ (0, 1) ] in
  let c = Cache.create () in
  Cache.register c [ ga; gb ];
  let plan =
    { Cache.p_space = [| [| 0 |]; [| 1 |] |]; p_order = [| 0; 1 |]; p_epoch = 0 }
  in
  let add g p = Cache.plan_add c ~retrieval:`Profiles ~refine:true g p plan in
  add ga p1;
  add ga p2;
  add gb p1;
  add ga p1 (* a re-stamp replaces, it does not add *);
  Alcotest.(check int) "three plans" 3 (Cache.stats c).Cache.plans;
  let ga' = Graph.of_labeled ~labels:[| "A"; "B"; "B" |] [ (0, 1); (0, 2) ] in
  Cache.replace c ~metrics:M.disabled ~old_graph:ga ~new_graph:ga' ~delta:None;
  Alcotest.(check int) "ga's two plans retired" 1 (Cache.stats c).Cache.plans;
  let find g p =
    Cache.plan_find c ~metrics:M.disabled ~retrieval:`Profiles ~refine:true g p
  in
  (match find gb p1 with
  | Some (`Fresh _) -> ()
  | _ -> Alcotest.fail "gb's plan should still be fresh");
  Alcotest.(check bool) "the new version starts cold" true (find ga' p1 = None);
  Cache.drop c gb;
  Alcotest.(check int) "drop retires gb's plan" 0 (Cache.stats c).Cache.plans

(* |Φ(a)| = |Φ(b)| = 40: log10 of the space is 3.2, a heavy search *)
let heavy_docs () =
  let n = 40 in
  let labels = Array.init (2 * n) (fun v -> if v < n then "A" else "B") in
  let edges =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j -> if (i + j) mod 3 = 0 then Some (i, n + j) else None)
          (List.init n Fun.id))
      (List.init n Fun.id)
  in
  ([ ("D", [ Graph.of_labeled ~labels edges ]) ], List.length edges)

(* Run the edge query once on [t]; returns the graphs it built. *)
let run_heavy_miss t =
  ignore (Service.submit t edge_query);
  match Service.drain t with
  | [ o ] -> returned_count o.Service.o_status
  | _ -> Alcotest.fail "expected one outcome"

(* A heavy miss on a service whose strategy sets a width fans its
   search out over the work-stealing engine; that search must still
   feed the learned statistics, as a sequential miss does. *)
let test_fanned_out_miss_observed () =
  let docs, n_edges = heavy_docs () in
  let t =
    Service.create ~jobs:1
      ~strategy:{ Gql_matcher.Engine.optimized with search_domains = 2 }
      ~docs ()
  in
  Alcotest.(check int) "one graph per edge" n_edges (run_heavy_miss t);
  Alcotest.(check bool) "the search fanned out" true
    (M.get (Service.metrics t) M.Parallel_tasks_spawned > 0);
  Alcotest.(check int) "the fanned-out search was observed" 1
    (Service.cache_stats t).Gql_exec.Cache.observations;
  Service.shutdown t

(* The service adds no width of its own: at the default strategy the
   same heavy miss, alone on an idle pool, runs on its job's domain. *)
let test_default_service_one_domain () =
  let docs, n_edges = heavy_docs () in
  let t = Service.create ~jobs:1 ~docs () in
  Alcotest.(check int) "one graph per edge" n_edges (run_heavy_miss t);
  Alcotest.(check int) "no task was spawned" 0
    (M.get (Service.metrics t) M.Parallel_tasks_spawned);
  Alcotest.(check int) "the search was observed" 1
    (Service.cache_stats t).Gql_exec.Cache.observations;
  Service.shutdown t

let suite =
  [
    Alcotest.test_case "lru eviction under byte budget" `Quick test_lru_eviction;
    Alcotest.test_case "lru recency and counters" `Quick test_lru_counters;
    Alcotest.test_case "variable doc bypasses the caches" `Quick
      test_variable_doc_fallback;
    Alcotest.test_case "a failing query does not kill the pool" `Quick
      test_error_containment;
    Alcotest.test_case "bomb query cannot starve cheap ones" `Quick
      test_liveness;
    Alcotest.test_case "quantum workload yields without a deadline" `Quick
      test_quantum_yields;
    QCheck_alcotest.to_alcotest prop_batch_equals_sequential;
    Alcotest.test_case "plan epochs gate cached orders" `Quick test_plan_epoch;
    Alcotest.test_case "a write to one graph spares the others' plans" `Quick
      test_epoch_isolation;
    Alcotest.test_case "watermark gate gives read-your-writes" `Quick
      test_watermark_read_your_writes;
    Alcotest.test_case "a warm collection scan finds no stale plan" `Quick
      test_warm_scan_stays_fresh;
    Alcotest.test_case "a cold scan across epochs, then warm passes" `Quick
      test_cold_scan_across_epochs;
    Alcotest.test_case "a fanned-out heavy miss feeds the learned stats"
      `Quick test_fanned_out_miss_observed;
    Alcotest.test_case "a default service runs every search on one domain"
      `Quick test_default_service_one_domain;
    Alcotest.test_case "structurally equal graphs stay apart in the cache"
      `Quick test_equal_graphs_stay_apart;
    Alcotest.test_case "the service aggregate keeps no spans" `Quick
      test_aggregate_keeps_no_spans;
    Alcotest.test_case "each new text is parsed once" `Quick
      test_parse_once_per_text;
    Alcotest.test_case "replace retires exactly one graph's plans" `Quick
      test_replace_retires_one_graph;
    Alcotest.test_case "the parse cache stays within its budget" `Quick
      test_parse_cache_bounded;
    Alcotest.test_case "one learned snapshot per epoch" `Quick
      test_learned_snapshot_per_epoch;
  ]
