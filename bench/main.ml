(* Experiment harness: regenerates every figure of the paper's Section 5.
   Run all experiments with `dune exec bench/main.exe`, or one of
   fig4.20 fig4.21 fig4.22 fig4.23 ablation micro, optionally with
   --full for paper-scale query counts. *)

open Gql_graph
module FP = Gql_matcher.Flat_pattern
module Feasible = Gql_matcher.Feasible
module Refine = Gql_matcher.Refine
module Order = Gql_matcher.Order
module Search = Gql_matcher.Search
module Engine = Gql_matcher.Engine
module Cost = Gql_matcher.Cost
open Gql_datasets
open Util

let full_mode = ref false
let hit_limit = 1000  (* §5.1: queries with more than 1000 hits terminate *)

let scale quick full = if !full_mode then full else quick

(* ---------------------------------------------------------------------- *)
(* per-query measurements shared by Figures 4.20-4.23                      *)

type obs = {
  o_answers : int;
  o_high_hits : bool;
  (* log10 reduction ratios w.r.t. the attrs-only space *)
  r_profiles : float;
  r_subgraphs : float;
  r_refined : float;
  (* per-step seconds *)
  t_profiles : float;
  t_subgraphs : float;
  t_refine : float;
  t_order : float;
  t_search_opt : float;
  t_search_noopt : float;
  t_retrieve_base : float;
  t_search_baseline : float;
}

let observe ?(with_subgraphs = true) ~lidx ~pidx pattern g =
  let base, t_retrieve_base =
    time (fun () -> Feasible.compute ~retrieval:`Node_attrs ~label_index:lidx pattern g)
  in
  let prof, t_profiles =
    time (fun () ->
        Feasible.compute ~retrieval:`Profiles ~label_index:lidx ~profile_index:pidx
          pattern g)
  in
  (* subgraph retrieval is only reported by Figures 4.20-4.22; it is
     expensive on frequent labels over large graphs, so callers that do
     not plot it skip it *)
  let subg, t_subgraphs =
    if with_subgraphs then
      time (fun () ->
          Feasible.compute ~retrieval:`Subgraphs ~label_index:lidx
            ~profile_index:pidx pattern g)
    else (prof, nan)
  in
  let (refined, _), t_refine = time (fun () -> Refine.refine pattern g prof) in
  let order, t_order =
    time (fun () -> Order.greedy pattern ~sizes:(Feasible.sizes refined))
  in
  let out_opt, t_search_opt =
    time (fun () -> Search.run ~limit:hit_limit ~order pattern g refined)
  in
  let _, t_search_noopt =
    time (fun () -> Search.run ~limit:hit_limit pattern g refined)
  in
  let _, t_search_baseline =
    time (fun () -> Search.run ~limit:hit_limit pattern g base)
  in
  let log_base = Feasible.log10_size base in
  let ratio space = Feasible.log10_size space -. log_base in
  let n = out_opt.Search.n_found in
  if n = 0 then None  (* "queries having no answers are not counted" *)
  else
    Some
      {
        o_answers = n;
        o_high_hits = n >= 100;
        r_profiles = ratio prof;
        r_subgraphs = ratio subg;
        r_refined = ratio refined;
        t_profiles;
        t_subgraphs;
        t_refine;
        t_order;
        t_search_opt;
        t_search_noopt;
        t_retrieve_base;
        t_search_baseline;
      }

let split_hits obs =
  ( List.filter (fun o -> not o.o_high_hits) obs,
    List.filter (fun o -> o.o_high_hits) obs )

let t_optimized o = o.t_profiles +. o.t_refine +. o.t_order +. o.t_search_opt
let t_baseline o = o.t_retrieve_base +. o.t_search_baseline

(* JSON summary of one observation group (a figure cell): reduction
   ratios plus per-step timings, mirroring the printed tables *)
let obs_summary obs =
  let m f = mean (List.map f obs) in
  Json.Obj
    [
      ("queries", Json.Int (List.length obs));
      ("answers_mean", Json.Float (m (fun o -> float_of_int o.o_answers)));
      ("r_profiles", Json.Float (m (fun o -> o.r_profiles)));
      ("r_subgraphs", Json.Float (m (fun o -> o.r_subgraphs)));
      ("r_refined", Json.Float (m (fun o -> o.r_refined)));
      ("t_profiles_ms", Json.Float (ms (m (fun o -> o.t_profiles))));
      ("t_subgraphs_ms", Json.Float (ms (m (fun o -> o.t_subgraphs))));
      ("t_refine_ms", Json.Float (ms (m (fun o -> o.t_refine))));
      ("t_order_ms", Json.Float (ms (m (fun o -> o.t_order))));
      ("t_search_opt_ms", Json.Float (ms (m (fun o -> o.t_search_opt))));
      ("t_search_noopt_ms", Json.Float (ms (m (fun o -> o.t_search_noopt))));
      ("t_optimized_ms", Json.Float (ms (m t_optimized)));
      ("t_baseline_ms", Json.Float (ms (m t_baseline)));
    ]

let emit_observations name per_size =
  emit_json name
    (Json.List
       (List.filter_map
          (fun (size, obs) ->
            if obs = [] then None
            else
              Some
                (Json.Obj
                   [ ("size", Json.Int size); ("summary", obs_summary obs) ]))
          per_size))

(* ---------------------------------------------------------------------- *)
(* PPI clique workload (Figures 4.20 and 4.21)                             *)

let ppi_env =
  lazy
    (let g = Ppi.generate () in
     let lidx = Gql_index.Label_index.build g in
     let pidx = Gql_index.Profile_index.build ~r:1 g in
     (g, lidx, pidx))

let ppi_observations =
  lazy
    (let g, lidx, pidx = Lazy.force ppi_env in
     let labels = Queries.top_labels lidx 40 in
     let weights = Queries.label_weights lidx labels in
     let rng = Rng.create 20080612 in
     let n_queries = scale 150 1000 in
     List.map
       (fun size ->
         let obs = ref [] in
         for _ = 1 to n_queries do
           let q = Queries.clique ~weights rng ~labels ~size in
           match observe ~lidx ~pidx q g with
           | Some o -> obs := o :: !obs
           | None -> ()
         done;
         (size, List.rev !obs))
       [ 2; 3; 4; 5; 6; 7 ])

let fig_4_20 () =
  let observations = Lazy.force ppi_observations in
  let print_group sub name pick =
    header "Figure 4.20%s: search-space reduction ratio, clique queries (%s)" sub name;
    row "%-6s %10s %12s %12s %12s %10s\n" "size" "queries" "profiles" "subgraphs"
      "refined" "answers";
    List.iter
      (fun (size, obs) ->
        let group = pick obs in
        if group <> [] then begin
          let m f = mean (List.map f group) in
          row "%-6d %10d %12.2f %12.2f %12.2f %10.0f\n" size (List.length group)
            (m (fun o -> o.r_profiles))
            (m (fun o -> o.r_subgraphs))
            (m (fun o -> o.r_refined))
            (m (fun o -> float_of_int o.o_answers))
        end)
      observations;
    row
      "(mean log10 of |space|/|attrs-only space|; more negative = stronger pruning)\n"
  in
  print_group "(a)" "low hits" (fun obs -> fst (split_hits obs));
  print_group "(b)" "high hits" (fun obs -> snd (split_hits obs));
  emit_observations "fig4.20.low_hits"
    (List.map (fun (s, obs) -> (s, fst (split_hits obs))) observations);
  emit_observations "fig4.20.high_hits"
    (List.map (fun (s, obs) -> (s, snd (split_hits obs))) observations)

let sql_time_per_query ~db pattern =
  let _, t =
    time (fun () ->
        Gql_sqlsim.Graphplan.count_matches ~limit:hit_limit ~timeout:2.0 db pattern)
  in
  t

let fig_4_21 () =
  let g, lidx, _pidx = Lazy.force ppi_env in
  let observations = Lazy.force ppi_observations in
  header "Figure 4.21(a): time of individual steps, clique queries, low hits (ms)";
  row "%-6s %10s %12s %10s %12s %14s\n" "size" "profiles" "subgraphs" "refine"
    "search-opt" "search-no-opt";
  List.iter
    (fun (size, obs) ->
      let low, _ = split_hits obs in
      if low <> [] then begin
        let m f = ms (mean (List.map f low)) in
        row "%-6d %10.3f %12.3f %10.3f %12.3f %14.3f\n" size
          (m (fun o -> o.t_profiles))
          (m (fun o -> o.t_subgraphs))
          (m (fun o -> o.t_refine))
          (m (fun o -> o.t_search_opt))
          (m (fun o -> o.t_search_noopt))
      end)
    observations;
  header "Figure 4.21(b): total query processing time, low hits (ms)";
  row "%-6s %12s %12s %12s\n" "size" "Optimized" "Baseline" "SQL-based";
  let db = Gql_sqlsim.Graphplan.db_of_graph g in
  let labels = Queries.top_labels lidx 40 in
  let weights = Queries.label_weights lidx labels in
  let rng = Rng.create 31415 in
  let sql_queries_per_size = scale 10 50 in
  let json_rows = ref [] in
  List.iter
    (fun (size, obs) ->
      let low, _ = split_hits obs in
      if low <> [] then begin
        let m f = ms (mean (List.map f low)) in
        let sql_times = ref [] in
        let tries = ref 0 in
        while
          List.length !sql_times < sql_queries_per_size
          && !tries < 20 * sql_queries_per_size
        do
          incr tries;
          let q = Queries.clique ~weights rng ~labels ~size in
          if Engine.count_matches ~limit:1 q g > 0 then
            sql_times := sql_time_per_query ~db q :: !sql_times
        done;
        row "%-6d %12.3f %12.3f %12.3f\n" size (m t_optimized) (m t_baseline)
          (ms (mean !sql_times));
        json_rows :=
          Json.Obj
            [
              ("size", Json.Int size);
              ("t_optimized_ms", Json.Float (m t_optimized));
              ("t_baseline_ms", Json.Float (m t_baseline));
              ("t_sql_ms", Json.Float (ms (mean !sql_times)));
            ]
          :: !json_rows
      end)
    observations;
  emit_json "fig4.21.totals" (Json.List (List.rev !json_rows));
  row
    "(SQL-based: Figure 4.2 plan on V/E tables with B-tree indexes, limit %d, 2 s timeout)\n"
    hit_limit

(* ---------------------------------------------------------------------- *)
(* synthetic-graph experiments (Figures 4.22 and 4.23)                     *)

let synthetic_env n =
  let rng = Rng.create (97 + n) in
  let g = Synthetic.erdos_renyi rng ~n ~m:(5 * n) in
  let lidx = Gql_index.Label_index.build g in
  let pidx = Gql_index.Profile_index.build ~r:1 g in
  (g, lidx, pidx)

let synthetic_10k = lazy (synthetic_env 10_000)

let synthetic_observations =
  lazy
    (let g, lidx, pidx = Lazy.force synthetic_10k in
     let rng = Rng.create 271828 in
     let n_queries = scale 30 100 in
     List.map
       (fun size ->
         let obs = ref [] in
         for _ = 1 to n_queries do
           let q = Queries.connected_subgraph rng g ~size in
           match observe ~lidx ~pidx q g with
           | Some o -> obs := o :: !obs
           | None -> ()
         done;
         (size, List.rev !obs))
       [ 4; 8; 12; 16; 20 ])

let fig_4_22 () =
  let observations = Lazy.force synthetic_observations in
  header "Figure 4.22(a): search-space reduction, synthetic graph 10K nodes (low hits)";
  row "%-6s %10s %12s %12s %12s\n" "size" "queries" "profiles" "subgraphs" "refined";
  List.iter
    (fun (size, obs) ->
      let low, _ = split_hits obs in
      if low <> [] then begin
        let m f = mean (List.map f low) in
        row "%-6d %10d %12.2f %12.2f %12.2f\n" size (List.length low)
          (m (fun o -> o.r_profiles))
          (m (fun o -> o.r_subgraphs))
          (m (fun o -> o.r_refined))
      end)
    observations;
  header "Figure 4.22(b): time for individual steps, synthetic graph (ms)";
  row "%-6s %10s %12s %10s %12s %14s\n" "size" "profiles" "subgraphs" "refine"
    "search-opt" "search-no-opt";
  List.iter
    (fun (size, obs) ->
      let low, _ = split_hits obs in
      if low <> [] then begin
        let m f = ms (mean (List.map f low)) in
        row "%-6d %10.3f %12.3f %10.3f %12.3f %14.3f\n" size
          (m (fun o -> o.t_profiles))
          (m (fun o -> o.t_subgraphs))
          (m (fun o -> o.t_refine))
          (m (fun o -> o.t_search_opt))
          (m (fun o -> o.t_search_noopt))
      end)
    observations;
  emit_observations "fig4.22.low_hits"
    (List.map (fun (s, obs) -> (s, fst (split_hits obs))) observations)

let fig_4_23 () =
  let g, _, _ = Lazy.force synthetic_10k in
  let observations = Lazy.force synthetic_observations in
  header "Figure 4.23(a): total time vs query size, 10K nodes (ms)";
  row "%-6s %12s %12s %12s\n" "size" "Optimized" "Baseline" "SQL-based";
  let db = Gql_sqlsim.Graphplan.db_of_graph g in
  let rng = Rng.create 1618 in
  let sql_queries = scale 5 20 in
  List.iter
    (fun (size, obs) ->
      let low, _ = split_hits obs in
      if low <> [] then begin
        let m f = ms (mean (List.map f low)) in
        let sql_times =
          List.init sql_queries (fun _ ->
              sql_time_per_query ~db (Queries.connected_subgraph rng g ~size))
        in
        row "%-6d %12.3f %12.3f %12.3f\n" size (m t_optimized) (m t_baseline)
          (ms (mean sql_times))
      end)
    observations;
  header "Figure 4.23(b): total time vs graph size, query size 4 (ms)";
  row "%-10s %12s %12s %12s\n" "nodes" "Optimized" "Baseline" "SQL-based";
  let json_rows = ref [] in
  List.iter
    (fun n ->
      let g, lidx, pidx = synthetic_env n in
      let rng = Rng.create (n + 5) in
      let n_queries = scale 15 50 in
      let obs = ref [] in
      let attempts = ref 0 in
      while List.length !obs < n_queries && !attempts < 5 * n_queries do
        incr attempts;
        let q = Queries.connected_subgraph rng g ~size:4 in
        match observe ~with_subgraphs:false ~lidx ~pidx q g with
        | Some o -> obs := o :: !obs
        | None -> ()
      done;
      let m f = ms (mean (List.map f !obs)) in
      let db = Gql_sqlsim.Graphplan.db_of_graph g in
      let sql_queries = scale 5 20 in
      let sql_times =
        List.init sql_queries (fun _ ->
            sql_time_per_query ~db (Queries.connected_subgraph rng g ~size:4))
      in
      row "%-10d %12.3f %12.3f %12.3f\n" n (m t_optimized) (m t_baseline)
        (ms (mean sql_times));
      json_rows :=
        Json.Obj
          [
            ("nodes", Json.Int n);
            ("t_optimized_ms", Json.Float (m t_optimized));
            ("t_baseline_ms", Json.Float (m t_baseline));
            ("t_sql_ms", Json.Float (ms (mean sql_times)));
          ]
        :: !json_rows)
    [ 10_000; 20_000; 40_000; 80_000; 160_000; 320_000 ];
  emit_json "fig4.23.graph_size" (Json.List (List.rev !json_rows))

(* ---------------------------------------------------------------------- *)
(* ablation: contribution of each §4 technique                             *)

let ablation () =
  let g, lidx, pidx = Lazy.force ppi_env in
  let labels = Queries.top_labels lidx 40 in
  let weights = Queries.label_weights lidx labels in
  let strategies =
    [
      ("baseline (attrs, input order)", Engine.baseline);
      ("attrs + refine", { Engine.baseline with refine = true });
      ("profiles only", { Engine.baseline with retrieval = `Profiles });
      ( "profiles + refine",
        { Engine.baseline with retrieval = `Profiles; refine = true } );
      ("profiles + refine + order (Optimized)", Engine.optimized);
      ("optimized w/o refine", { Engine.optimized with refine = false });
      ("optimized w/o order", { Engine.optimized with optimize_order = false });
      ("subgraphs + refine + order", { Engine.optimized with retrieval = `Subgraphs });
      ( "optimized + frequency cost model",
        {
          Engine.optimized with
          cost_model = Some (Cost.Frequencies (Cost.stats_of_graph g));
        } );
    ]
  in
  header "Ablation: mean total query time on PPI clique queries (ms)";
  row "%-42s %10s %10s %10s\n" "strategy" "size 4" "size 5" "size 6";
  let n_queries = scale 40 200 in
  let json_rows = ref [] in
  List.iter
    (fun (name, s) ->
      let cell size =
        let rng = Rng.create (555 + size) in
        let times = ref [] in
        for _ = 1 to n_queries do
          let q = Queries.clique ~weights rng ~labels ~size in
          let r =
            Engine.run ~strategy:s ~limit:hit_limit ~label_index:lidx
              ~profile_index:pidx q g
          in
          if r.Engine.outcome.Search.n_found > 0 then
            times := Engine.total r.Engine.timings :: !times
        done;
        ms (mean !times)
      in
      let c4 = cell 4 and c5 = cell 5 and c6 = cell 6 in
      row "%-42s %10.3f %10.3f %10.3f\n" name c4 c5 c6;
      json_rows :=
        Json.Obj
          [
            ("strategy", Json.Str name);
            ("size4_ms", Json.Float c4);
            ("size5_ms", Json.Float c5);
            ("size6_ms", Json.Float c6);
          ]
        :: !json_rows)
    strategies;
  emit_json "ablation.strategies" (Json.List (List.rev !json_rows));
  header "Ablation: Algorithm 4.2 worklist vs naive refinement (clique size 5)";
  row "%-12s %16s %14s %12s\n" "variant" "matchings" "removed" "time (ms)";
  let rng = Rng.create 777 in
  let n = scale 30 150 in
  let acc_w = ref [] and acc_n = ref [] in
  for _ = 1 to n do
    let q = Queries.clique ~weights rng ~labels ~size:5 in
    let space =
      Feasible.compute ~retrieval:`Profiles ~label_index:lidx ~profile_index:pidx q g
    in
    let (_, st1), t1 = time (fun () -> Refine.refine q g space) in
    let (_, st2), t2 = time (fun () -> Refine.refine_naive q g space) in
    acc_w := (st1, t1) :: !acc_w;
    acc_n := (st2, t2) :: !acc_n
  done;
  let report name acc =
    let checks = mean (List.map (fun (s, _) -> float_of_int s.Refine.pairs_checked) acc) in
    let removed = mean (List.map (fun (s, _) -> float_of_int s.Refine.removed) acc) in
    let t = ms (mean (List.map snd acc)) in
    row "%-12s %16.1f %14.1f %12.3f\n" name checks removed t
  in
  report "worklist" !acc_w;
  report "naive" !acc_n

(* ---------------------------------------------------------------------- *)
(* extensions: collection filtering, parallel search, disk storage         *)

let collection () =
  (* §4 category 1: a large collection of small graphs — index-filtered
     matching vs scanning every graph *)
  let n_compounds = scale 1500 5000 in
  let compounds = Array.of_list (Chem.generate ~n_compounds ()) in
  header "Collection of %d compounds: path-index filtering vs full scan" n_compounds;
  let idx, t_build = time (fun () -> Gql_index.Path_index.build ~max_len:3 compounds) in
  row "index: %d features over %d graphs, built in %.2f s\n"
    (Gql_index.Path_index.n_features idx)
    (Gql_index.Path_index.n_graphs idx)
    t_build;
  let patterns =
    [
      ("benzene ring", Chem.benzene_like ());
      ("C-N edge", Graph.of_labeled ~labels:[| "C"; "N" |] [ (0, 1) ]);
      ("S-C-S path", Graph.of_labeled ~labels:[| "S"; "C"; "S" |] [ (0, 1); (1, 2) ]);
      ( "N ring of 5",
        Graph.of_labeled
          ~labels:[| "N"; "N"; "N"; "N"; "N" |]
          [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ] );
    ]
  in
  row "%-14s %10s %12s %12s %12s %10s\n" "pattern" "answers" "candidates"
    "scan (ms)" "filter (ms)" "speedup";
  List.iter
    (fun (name, pg) ->
      let p = FP.of_graph pg in
      let contains g = Engine.count_matches ~limit:1 p g > 0 in
      let scan_count, t_scan =
        time (fun () ->
            Array.fold_left (fun n g -> if contains g then n + 1 else n) 0 compounds)
      in
      let (cands, filtered_count), t_filtered =
        time (fun () ->
            let cands = Gql_index.Path_index.candidates idx pg in
            ( cands,
              List.fold_left
                (fun n id -> if contains compounds.(id) then n + 1 else n)
                0 cands ))
      in
      check (scan_count = filtered_count)
        "%s: index-filtered scan found %d graphs, full scan %d" name
        filtered_count scan_count;
      row "%-14s %10d %12d %12.2f %12.2f %9.1fx\n" name scan_count
        (List.length cands) (ms t_scan) (ms t_filtered)
        (t_scan /. t_filtered))
    patterns

(* The work-stealing engine on two workloads, plus its dispatch cost.
   Balanced: PPI clique queries whose Φ(u₁) candidates carry comparable
   subtrees; more domains must not regress them. Skewed: a synthetic
   hub graph where a single Φ(u₁) candidate owns every match (one
   static slice would inherit the whole search); stealing redistributes
   the hub's subtrees. Every width must find the sequential [n_found];
   the steal/spawn counters are emitted so the JSON shows the protocol
   actually engaged (on a single-core runner the wall-clock columns are
   about overhead, not speedup). Dispatch: 2,000 fanned-out searches of
   a triangle on a 6-node graph (two matches), so the time is the
   fan-out itself; the pool's helper count must not grow across them. *)
let parallel () =
  header "Parallel search: work-stealing engine, balanced and skewed";
  let module Ws = Gql_matcher.Ws in
  let module Pool = Gql_matcher.Pool in
  let module M = Gql_obs.Metrics in
  let g, lidx, pidx = Lazy.force ppi_env in
  let labels = Queries.top_labels lidx 40 in
  let weights = Queries.label_weights lidx labels in
  row "balanced workload: PPI clique queries, profile-pruned spaces\n";
  row "%-8s %12s %12s %12s\n" "size" "ws x1" "ws x2" "ws x4";
  List.iter
    (fun size ->
      let rng = Rng.create (9000 + size) in
      let n_queries = scale 30 150 in
      let qs =
        List.init n_queries (fun _ -> Queries.clique ~weights rng ~labels ~size)
      in
      (* search phase only, over the profile-pruned space *)
      let spaces =
        List.map
          (fun q ->
            ( q,
              Gql_matcher.Feasible.compute ~retrieval:`Profiles ~label_index:lidx
                ~profile_index:pidx q g ))
          qs
      in
      let ws domains =
        let _, t =
          time (fun () ->
              List.iter
                (fun (q, space) -> ignore (Ws.search ~domains q g space))
                spaces)
        in
        ms t /. float_of_int n_queries
      in
      let c1 = ws 1 and c2 = ws 2 and c4 = ws 4 in
      row "%-8d %12.3f %12.3f %12.3f\n" size c1 c2 c4;
      emit_json
        (Printf.sprintf "parallel.balanced.size%d" size)
        (Json.Obj
           [
             ("ws1_ms", Json.Float c1);
             ("ws2_ms", Json.Float c2);
             ("ws4_ms", Json.Float c4);
           ]))
    [ 4; 5; 6 ];
  (* skewed workload: 64 candidates for u₁, one hub adjacent to a
     24-node community (4-clique pattern → every match runs through the
     hub), the other 63 are immediate dead ends *)
  let hub_g =
    let b = Graph.Builder.create () in
    let hs = Array.init 64 (fun _ -> Graph.Builder.add_labeled_node b "H") in
    let bs = Array.init 24 (fun _ -> Graph.Builder.add_labeled_node b "B") in
    Array.iter (fun v -> ignore (Graph.Builder.add_edge b hs.(0) v)) bs;
    Array.iteri
      (fun i u ->
        for j = i + 1 to Array.length bs - 1 do
          ignore (Graph.Builder.add_edge b u bs.(j))
        done)
      bs;
    Graph.Builder.build b
  in
  let hub_p = FP.clique [ "H"; "B"; "B"; "B" ] in
  let hub_space = Feasible.compute ~retrieval:`Node_attrs hub_p hub_g in
  let reps = scale 10 30 in
  let expected = (Search.run hub_p hub_g hub_space).Search.n_found in
  let ws_cell domains =
    let out = Ws.search ~domains hub_p hub_g hub_space in
    check (out.Search.n_found = expected)
      "skewed run found %d matches, expected %d"
      out.Search.n_found expected;
    let _, t =
      time (fun () ->
          for _ = 1 to reps do
            ignore (Ws.search ~domains hub_p hub_g hub_space)
          done)
    in
    ms t /. float_of_int reps
  in
  let w1 = ws_cell 1 and w2 = ws_cell 2 and w4 = ws_cell 4 in
  (* counters from one instrumented 4-domain WS run: nonzero spawn and
     steal counts are the proof the skewed search was redistributed *)
  let metrics = M.create () in
  ignore (Ws.search ~domains:4 ~metrics hub_p hub_g hub_space);
  let steals = M.get metrics M.Parallel_steals in
  let spawned = M.get metrics M.Parallel_tasks_spawned in
  let idle = M.get metrics M.Parallel_idle_polls in
  row "skewed workload: hub graph, %d matches, all through Φ(u1)[0]\n" expected;
  row "%-8s %12s %12s %12s\n" "engine" "x1" "x2" "x4";
  row "%-8s %12.3f %12.3f %12.3f\n" "ws" w1 w2 w4;
  row "ws x4 counters: %d task(s) spawned, %d steal(s), %d idle poll(s)\n"
    spawned steals idle;
  check (spawned > 0) "work-stealing run spawned no subtree tasks";
  emit_json "parallel.skewed"
    (Json.Obj
       [
         ( "workload",
           Json.Str
             "hub graph: |Φ(u1)| = 64, one hub owns every 4-clique match \
              (24-node community); one static slice per domain would strand \
              the search in one domain" );
         ("n_found", Json.Int expected);
         ("ws1_ms", Json.Float w1);
         ("ws2_ms", Json.Float w2);
         ("ws4_ms", Json.Float w4);
         ("ws4_tasks_spawned", Json.Int spawned);
         ("ws4_steals", Json.Int steals);
         ("ws4_idle_polls", Json.Int idle);
         ( "note",
           Json.Str
             (Printf.sprintf
                "measured on %d available core(s): speedup columns only mean \
                 anything above 1"
                (Domain.recommended_domain_count ())) );
       ]);
  (* dispatch: the per-search fan-out cost, and the proof that the
     pool's helpers are reused rather than started per search *)
  let tiny_g =
    Graph.of_labeled
      ~labels:[| "A"; "B"; "C"; "A"; "B"; "C" |]
      [ (0, 1); (1, 2); (0, 2); (3, 4); (4, 5); (3, 5) ]
  in
  let tiny_p = FP.clique [ "A"; "B"; "C" ] in
  let tiny_space = Feasible.compute ~retrieval:`Node_attrs tiny_p tiny_g in
  let tiny_expected = (Search.run tiny_p tiny_g tiny_space).Search.n_found in
  let domains = 4 and searches = 2000 in
  let before = Pool.helpers () in
  ignore (Ws.search ~domains tiny_p tiny_g tiny_space);
  let warm = Pool.helpers () in
  let wrong = ref 0 in
  let _, t =
    time (fun () ->
        for _ = 1 to searches do
          let out = Ws.search ~domains tiny_p tiny_g tiny_space in
          if out.Search.n_found <> tiny_expected then incr wrong
        done)
  in
  let after = Pool.helpers () in
  let us = t *. 1e6 /. float_of_int searches in
  row "dispatch: %d searches x%d domains, %.1f us/search, %d helper(s)\n"
    searches domains us after;
  check (!wrong = 0) "%d dispatch search(es) found the wrong count" !wrong;
  check
    (after = warm && after <= max before (domains - 1))
    "the pool grew to %d helper(s) over %d searches (%d after the first, %d \
     before)"
    after searches warm before;
  emit_json "parallel.dispatch"
    (Json.Obj
       [
         ("searches", Json.Int searches);
         ("domains", Json.Int domains);
         ("us_per_search", Json.Float us);
         ("helpers", Json.Int after);
       ])

let storage () =
  header "Disk storage: store/scan a compound collection through the buffer pool";
  let n_compounds = scale 2000 10000 in
  let compounds = Chem.generate ~n_compounds () in
  let path = Filename.temp_file "gql_bench_store" ".db" in
  let st = Gql_storage.Store.create ~pool_capacity:64 path in
  let (), t_write =
    time (fun () ->
        List.iter (fun g -> ignore (Gql_storage.Store.add_graph st g)) compounds)
  in
  Gql_storage.Store.flush st;
  Gql_storage.Store.close st;
  let size_kb = (Unix.stat path).Unix.st_size / 1024 in
  let st = Gql_storage.Store.open_existing ~pool_capacity:64 path in
  let p = FP.path [ "C"; "N" ] in
  let hits = ref 0 in
  let (), t_cold =
    time (fun () ->
        Gql_storage.Store.iter st ~f:(fun _ g ->
            if Engine.count_matches ~limit:1 p g > 0 then incr hits))
  in
  let cold_stats = Gql_storage.Store.pool_stats st in
  let (), t_warm =
    time (fun () ->
        Gql_storage.Store.iter st ~f:(fun _ g ->
            ignore (Engine.count_matches ~limit:1 p g)))
  in
  let warm_stats = Gql_storage.Store.pool_stats st in
  row "%d graphs, %d KiB file, write %.2f s\n" n_compounds size_kb t_write;
  row "cold scan + match: %.2f s (%d C-N hits), pool misses %d\n" t_cold !hits
    cold_stats.Gql_storage.Buffer_pool.misses;
  row "warm scan (memoized graphs) + match: %.2f s, extra misses %d, hits %d\n"
    t_warm
    (warm_stats.Gql_storage.Buffer_pool.misses
    - cold_stats.Gql_storage.Buffer_pool.misses)
    warm_stats.Gql_storage.Buffer_pool.hits;
  Gql_storage.Store.close st;
  Sys.remove path

(* governance smoke: the budget machinery (visited counter, step-budget
   compare, clock poll every 1024 checks) must be invisible on the §5
   workload. Same prepared spaces and orders on both sides; only the
   budget argument differs. Fails loudly if overhead exceeds 2%. *)
let budget_overhead () =
  header "Budget governance overhead: PPI clique search, governed vs ungoverned";
  let g, lidx, pidx = Lazy.force ppi_env in
  let labels = Queries.top_labels lidx 40 in
  let weights = Queries.label_weights lidx labels in
  (* a real budget that never fires: the poll path executes (clock
     reads, token loads) but the search always runs to completion *)
  let governed = Gql_matcher.Budget.make ~deadline:3600.0 ~max_visited:max_int () in
  row "%-6s %10s %16s %16s %10s\n" "size" "queries" "ungoverned (ms)"
    "governed (ms)" "overhead";
  let cells =
    List.map
      (fun size ->
        let rng = Rng.create (60200 + size) in
        let n_queries = scale 80 400 in
        let prepared =
          List.init n_queries (fun _ ->
              let q = Queries.clique ~weights rng ~labels ~size in
              let space =
                Feasible.compute ~retrieval:`Profiles ~label_index:lidx
                  ~profile_index:pidx q g
              in
              let order = Order.greedy q ~sizes:(Feasible.sizes space) in
              (q, space, order))
        in
        let run_all ?budget () =
          List.iter
            (fun (q, space, order) ->
              ignore (Search.run ~limit:hit_limit ?budget ~order q g space))
            prepared
        in
        run_all () (* warmup *);
        run_all ~budget:governed ();
        (* paired rounds: the two sides run back-to-back so GC pauses
           and scheduler noise hit both; the per-round ratio is then
           load-invariant, and the median ratio sheds the outliers *)
        let pairs =
          Array.init 9 (fun _ ->
              let _, a = time (fun () -> run_all ()) in
              let _, b = time (fun () -> run_all ~budget:governed ()) in
              (a, b))
        in
        let t_plain = Array.fold_left (fun m (a, _) -> min m a) infinity pairs in
        let t_gov = Array.fold_left (fun m (_, b) -> min m b) infinity pairs in
        let ratios = Array.map (fun (a, b) -> b /. a) pairs in
        Array.sort compare ratios;
        let med = ratios.(Array.length ratios / 2) in
        row "%-6d %10d %16.3f %16.3f %9.2f%%\n" size n_queries (ms t_plain)
          (ms t_gov)
          (100.0 *. (med -. 1.0));
        (size, n_queries, t_plain, t_gov, ratios))
      [ 4; 5; 6 ]
  in
  let all_ratios =
    Array.concat (List.map (fun (_, _, _, _, rs) -> rs) cells)
  in
  Array.sort compare all_ratios;
  let overhead = all_ratios.(Array.length all_ratios / 2) -. 1.0 in
  row "overall overhead: %.2f%% (budget: 1h deadline + max_int steps, never fires)\n"
    (100.0 *. overhead);
  emit_json "budget.overhead"
    (Json.Obj
       [
         ( "workload",
           Json.Str
             "PPI clique queries, profiles retrieval, greedy order, limit 1000"
         );
         ( "sizes",
           Json.List
             (List.map
                (fun (size, n_queries, t_plain, t_gov, ratios) ->
                  Json.Obj
                    [
                      ("size", Json.Int size);
                      ("queries", Json.Int n_queries);
                      ("t_ungoverned_ms", Json.Float (ms t_plain));
                      ("t_governed_ms", Json.Float (ms t_gov));
                      ( "overhead_pct",
                        Json.Float
                          (100.0
                          *. (ratios.(Array.length ratios / 2) -. 1.0)) );
                    ])
                cells) );
         ("overhead_pct", Json.Float (100.0 *. overhead));
         ("threshold_pct", Json.Float 2.0);
       ]);
  check (overhead < 0.02)
    "budget governance overhead %.2f%% >= 2%%"
    (100.0 *. overhead)

(* observability smoke: the Gql_obs instrumentation must be invisible.
   Same prepared spaces and orders on both sides; one side runs with the
   default disabled instance, the other with a live one (counter flushes
   + phase spans). Asserting the *enabled* side under 2% bounds the
   disabled side too — disabled is strictly cheaper (one load-and-branch
   per operation). A counters snapshot of an instrumented engine run
   goes into the JSON trajectory. *)
let obs_overhead () =
  header
    "Observability overhead: PPI clique search, metrics off vs tracing vs \
     counting";
  let module M = Gql_obs.Metrics in
  let g, lidx, pidx = Lazy.force ppi_env in
  let labels = Queries.top_labels lidx 40 in
  let weights = Queries.label_weights lidx labels in
  row "%-6s %10s %16s %16s %16s %10s %10s\n" "size" "queries" "disabled (ms)"
    "enabled (ms)" "counting (ms)" "enabled" "counting";
  let overhead t t_off = 100.0 *. ((t /. t_off) -. 1.0) in
  let cells =
    List.map
      (fun size ->
        let rng = Rng.create (70300 + size) in
        let n_queries = scale 80 400 in
        let prepared =
          List.init n_queries (fun _ ->
              let q = Queries.clique ~weights rng ~labels ~size in
              let space =
                Feasible.compute ~retrieval:`Profiles ~label_index:lidx
                  ~profile_index:pidx q g
              in
              let order = Order.greedy q ~sizes:(Feasible.sizes space) in
              (q, space, order))
        in
        let run_all metrics =
          List.iter
            (fun (q, space, order) ->
              ignore (Search.run ~limit:hit_limit ~metrics ~order q g space))
            prepared
        in
        (* the three kinds of instance: none (the shared no-op), a
           tracing one (explain --analyze) and a counting one (every
           service job) *)
        let kinds = [| (fun () -> M.disabled); M.create; M.counting |] in
        run_all M.disabled (* warmup *);
        run_all (M.create ());
        (* Per-round times are ~10-20 ms, where a single GC pause is
           several percent: the median of paired ratios (what the budget
           experiment uses over longer rounds) is too noisy here.
           Instead take the minimum over rounds on each side — the
           noise-free estimate of the true cost — and rotate which side
           runs first so allocator/cache state biases none. *)
        let rounds = 25 in
        let best = Array.make 3 infinity in
        for i = 0 to rounds - 1 do
          for j = 0 to 2 do
            let k = (i + j) mod 3 in
            let m = kinds.(k) () in
            let _, dt = time (fun () -> run_all m) in
            best.(k) <- Float.min best.(k) dt
          done
        done;
        let t_off = best.(0) and t_on = best.(1) and t_count = best.(2) in
        row "%-6d %10d %16.3f %16.3f %16.3f %9.2f%% %9.2f%%\n" size n_queries
          (ms t_off) (ms t_on) (ms t_count) (overhead t_on t_off)
          (overhead t_count t_off);
        (size, n_queries, t_off, t_on, t_count))
      [ 4; 5; 6 ]
  in
  let sum f = List.fold_left (fun acc c -> acc +. f c) 0.0 cells in
  let t_off = sum (fun (_, _, t, _, _) -> t) in
  let enabled_pct = overhead (sum (fun (_, _, _, t, _) -> t)) t_off in
  let counting_pct = overhead (sum (fun (_, _, _, _, t) -> t)) t_off in
  row
    "overall overhead: enabled %.2f%% (full counter set + phase spans), \
     counting %.2f%% (counters, no spans)\n"
    enabled_pct counting_pct;
  (* one fully instrumented engine run, for the counters snapshot *)
  let metrics = M.create () in
  let rng = Rng.create 70399 in
  let snap_queries = scale 40 200 in
  for _ = 1 to snap_queries do
    let q = Queries.clique ~weights rng ~labels ~size:5 in
    ignore
      (Engine.run ~limit:hit_limit ~metrics ~label_index:lidx
         ~profile_index:pidx q g)
  done;
  let counters =
    List.map
      (fun c -> (M.counter_name c, Json.Int (M.get metrics c)))
      M.all_counters
  in
  row "instrumented snapshot (%d clique-5 queries):\n" snap_queries;
  List.iter
    (fun (name, v) ->
      match v with
      | Json.Int n when n > 0 -> row "  %-28s %12d\n" name n
      | _ -> ())
    counters;
  emit_json "obs.overhead"
    (Json.Obj
       [
         ( "workload",
           Json.Str
             "PPI clique queries, profiles retrieval, greedy order, limit 1000"
         );
         ( "sizes",
           Json.List
             (List.map
                (fun (size, n_queries, t_off, t_on, t_count) ->
                  Json.Obj
                    [
                      ("size", Json.Int size);
                      ("queries", Json.Int n_queries);
                      ("t_disabled_ms", Json.Float (ms t_off));
                      ("t_enabled_ms", Json.Float (ms t_on));
                      ("t_counting_ms", Json.Float (ms t_count));
                      ("overhead_pct", Json.Float (overhead t_on t_off));
                      ( "counting_overhead_pct",
                        Json.Float (overhead t_count t_off) );
                    ])
                cells) );
         ("overhead_pct", Json.Float enabled_pct);
         ("counting_overhead_pct", Json.Float counting_pct);
         ("threshold_pct", Json.Float 2.0);
         ("snapshot_queries", Json.Int snap_queries);
         ("counters", Json.Obj counters);
       ]);
  check (enabled_pct < 2.0) "observability overhead %.2f%% >= 2%%" enabled_pct;
  check (counting_pct < 2.0) "counting-instance overhead %.2f%% >= 2%%"
    counting_pct

(* ---------------------------------------------------------------------- *)
(* bechamel micro-benchmarks of the core primitives                        *)

(* search phase, array-backed vs the retained seed list-based matcher,
   over identical precomputed candidate spaces and orders — the
   headline number of the BENCH_*.json trajectory *)
let micro_search_comparison () =
  header
    "Search phase: array-backed Search vs seed list-based Reference (PPI cliques)";
  let g, lidx, pidx = Lazy.force ppi_env in
  let labels = Queries.top_labels lidx 40 in
  let weights = Queries.label_weights lidx labels in
  let ref_index = Gql_matcher.Reference.build_index g in
  row "%-6s %10s %18s %18s %10s\n" "size" "queries" "t_search_opt (ms)"
    "t_search_ref (ms)" "speedup";
  let cells =
    List.map
      (fun size ->
        let rng = Rng.create (31337 + size) in
        let n_queries = scale 80 400 in
        let prepared =
          List.init n_queries (fun _ ->
              let q = Queries.clique ~weights rng ~labels ~size in
              let space =
                Feasible.compute ~retrieval:`Profiles ~label_index:lidx
                  ~profile_index:pidx q g
              in
              let order = Order.greedy q ~sizes:(Feasible.sizes space) in
              (q, space, order))
        in
        (* same spaces, same orders: only the inner search differs.
           Each side runs once for warmup/answers, then best-of-3 timed
           passes to shed GC and scheduler noise. *)
        let best_of n f =
          let best = ref infinity in
          for _ = 1 to n do
            let _, t = time f in
            if t < !best then best := t
          done;
          !best
        in
        let opt =
          List.map
            (fun (q, space, order) ->
              Search.run ~limit:hit_limit ~order q g space)
            prepared
        in
        let t_opt =
          best_of 3 (fun () ->
              List.iter
                (fun (q, space, order) ->
                  ignore (Search.run ~limit:hit_limit ~order q g space))
                prepared)
        in
        let refr =
          List.map
            (fun (q, space, order) ->
              Gql_matcher.Reference.run ~index:ref_index ~limit:hit_limit ~order
                q g space)
            prepared
        in
        let t_ref =
          best_of 3 (fun () ->
              List.iter
                (fun (q, space, order) ->
                  ignore
                    (Gql_matcher.Reference.run ~index:ref_index ~limit:hit_limit
                       ~order q g space))
                prepared)
        in
        List.iter2
          (fun (a : Search.outcome) (b : Search.outcome) ->
            check (a.Search.n_found = b.Search.n_found)
              "Search found %d matches, Reference %d" a.Search.n_found
              b.Search.n_found)
          opt refr;
        let speedup = t_ref /. t_opt in
        row "%-6d %10d %18.3f %18.3f %9.2fx\n" size n_queries (ms t_opt)
          (ms t_ref) speedup;
        (size, n_queries, t_opt, t_ref))
      [ 4; 5; 6 ]
  in
  let tot f = List.fold_left (fun acc c -> acc +. f c) 0.0 cells in
  let t_opt_total = tot (fun (_, _, t, _) -> t) in
  let t_ref_total = tot (fun (_, _, _, t) -> t) in
  let speedup = t_ref_total /. t_opt_total in
  row "overall speedup (t_search_ref / t_search_opt): %.2fx\n" speedup;
  emit_json "micro.search_ppi"
    (Json.Obj
       [
         ( "workload",
           Json.Str
             "PPI clique queries, profiles retrieval, greedy order, limit 1000"
         );
         ( "sizes",
           Json.List
             (List.map
                (fun (size, n_queries, t_opt, t_ref) ->
                  Json.Obj
                    [
                      ("size", Json.Int size);
                      ("queries", Json.Int n_queries);
                      ("t_search_opt_ms", Json.Float (ms t_opt));
                      ("t_search_ref_ms", Json.Float (ms t_ref));
                      ("speedup", Json.Float (t_ref /. t_opt));
                    ])
                cells) );
         ("t_search_opt_ms", Json.Float (ms t_opt_total));
         ("t_search_ref_ms", Json.Float (ms t_ref_total));
         ("speedup", Json.Float speedup);
       ])

(* refinement kernels over identical profile-pruned spaces: the
   per-row auto dispatch ([Refine.refine]) vs always-packed vs the
   PR1-era consed lists + Hopcroft–Karp. Same fixpoint by construction
   (asserted row for row). The dispatch exists to fix the small-clique
   regression where packed-row setup cost lost to the lists — so the
   cell hard-fails if auto loses to either pure kernel beyond noise at
   any size. *)
let micro_refine_comparison () =
  header
    "Refine phase: auto kernel dispatch vs packed words vs consed lists (PPI \
     cliques)";
  let g, lidx, pidx = Lazy.force ppi_env in
  let labels = Queries.top_labels lidx 40 in
  let weights = Queries.label_weights lidx labels in
  row "%-6s %10s %6s %14s %14s %14s %10s\n" "size" "queries" "sets"
    "t_auto (ms)" "t_packed (ms)" "t_lists (ms)" "speedup";
  let cells =
    List.map
      (fun size ->
        let rng = Rng.create (51337 + size) in
        let n_queries = scale 60 300 in
        let prepared =
          List.init n_queries (fun _ ->
              let q = Queries.clique ~weights rng ~labels ~size in
              let space =
                Feasible.compute ~retrieval:`Profiles ~label_index:lidx
                  ~profile_index:pidx q g
              in
              (q, space))
        in
        let run refine =
          List.map (fun (q, space) -> fst (refine q g space)) prepared
        in
        let pass ~reps refine () =
          for _ = 1 to reps do
            List.iter (fun (q, space) -> ignore (refine q g space)) prepared
          done
        in
        let kernels =
          [|
            (fun q g s -> Refine.refine q g s);
            (fun q g s -> Refine.refine_packed q g s);
            (fun q g s -> Refine.refine_lists q g s);
          |]
        in
        let auto = run kernels.(0)
        and packed = run kernels.(1)
        and lists = run kernels.(2) in
        (* One pass over the prepared set takes a few ms, less than the
           run-to-run spread of a shared 2-core host, so a timed pass
           repeats the set until the fastest kernel's best calibration
           pass would reach 20 ms; times are reported per set. *)
        let fastest = ref infinity in
        for _ = 1 to 3 do
          Array.iter
            (fun k ->
              fastest := Float.min !fastest (snd (time (pass ~reps:1 k))))
            kernels
        done;
        let reps = max 1 (int_of_float (ceil (0.020 /. !fastest))) in
        (* measured interleaved, rotating which kernel runs first (A P L,
           P L A, L A P, ...), so allocator and frequency drift hit the
           three kernels alike; best-of wins over mean under CI noise *)
        let best = Array.make 3 infinity in
        for r = 0 to 24 do
          for j = 0 to 2 do
            let k = (r + j) mod 3 in
            (* start every pass with no major-GC debt left by the
               kernel before it *)
            Gc.full_major ();
            let _, dt = time (pass ~reps kernels.(k)) in
            best.(k) <- Float.min best.(k) dt
          done
        done;
        let per_set t = t /. float_of_int reps in
        let t_auto = per_set best.(0)
        and t_packed = per_set best.(1)
        and t_lists = per_set best.(2) in
        List.iter
          (fun (kernel, spaces) ->
            List.iter2
              (fun (a : Feasible.space) (b : Feasible.space) ->
                check
                  (a.Feasible.candidates = b.Feasible.candidates)
                  "refine auto and %s kernels disagree at size %d" kernel
                  size)
              auto spaces)
          [ ("packed", packed); ("lists", lists) ];
        let speedup = t_lists /. t_auto in
        row "%-6d %10d %6d %14.3f %14.3f %14.3f %9.2fx\n" size n_queries reps
          (ms t_auto) (ms t_packed) (ms t_lists) speedup;
        (* two-part crossover claim: the dispatch must never lose to
           the list baseline (the PR5 size-4 regression this cell
           exists to pin — tight 5% allowance), and must track the
           better pure kernel within a wider band that absorbs
           run-to-run timer noise on the mixed path *)
        check (t_auto <= 1.05 *. t_lists)
          "refine auto dispatch lost to lists at size %d: auto %.3fms lists \
           %.3fms"
          size (ms t_auto) (ms t_lists);
        check (t_auto <= 1.3 *. Float.min t_packed t_lists)
          "refine auto dispatch lost at size %d: auto %.3fms packed %.3fms \
           lists %.3fms"
          size (ms t_auto) (ms t_packed) (ms t_lists);
        (size, n_queries, reps, t_auto, t_packed, t_lists))
      [ 4; 5; 6 ]
  in
  let tot f = List.fold_left (fun acc c -> acc +. f c) 0.0 cells in
  let t_auto_total = tot (fun (_, _, _, t, _, _) -> t) in
  let t_packed_total = tot (fun (_, _, _, _, t, _) -> t) in
  let t_lists_total = tot (fun (_, _, _, _, _, t) -> t) in
  let speedup = t_lists_total /. t_auto_total in
  row "overall speedup (t_refine_lists / t_refine_auto): %.2fx\n" speedup;
  emit_json "micro.refine_ppi"
    (Json.Obj
       [
         ( "workload",
           Json.Str "PPI clique queries, profiles retrieval, full-level refine"
         );
         ( "sizes",
           Json.List
             (List.map
                (fun (size, n_queries, reps, t_auto, t_packed, t_lists) ->
                  Json.Obj
                    [
                      ("size", Json.Int size);
                      ("queries", Json.Int n_queries);
                      ("sets_per_pass", Json.Int reps);
                      ("t_refine_auto_ms", Json.Float (ms t_auto));
                      ("t_refine_words_ms", Json.Float (ms t_packed));
                      ("t_refine_lists_ms", Json.Float (ms t_lists));
                      ("speedup", Json.Float (t_lists /. t_auto));
                    ])
                cells) );
         ("t_refine_auto_ms", Json.Float (ms t_auto_total));
         ("t_refine_words_ms", Json.Float (ms t_packed_total));
         ("t_refine_lists_ms", Json.Float (ms t_lists_total));
         ("speedup", Json.Float speedup);
       ])

let micro () =
  micro_search_comparison ();
  micro_refine_comparison ();
  let open Bechamel in
  let open Toolkit in
  let g, lidx, pidx = Lazy.force ppi_env in
  let labels = Queries.top_labels lidx 40 in
  let rng = Rng.create 4242 in
  let triangle = Queries.clique rng ~labels ~size:3 in
  let order_q = Queries.clique rng ~labels ~size:6 in
  let order_sizes =
    Feasible.sizes
      (Feasible.compute ~retrieval:`Profiles ~label_index:lidx
         ~profile_index:pidx order_q g)
  in
  let module Itree = Gql_index.Btree.Make (Int) in
  let keys = Array.init 10_000 (fun i -> i * 2654435761 land 0xFFFFFF) in
  let tree = Array.fold_left (fun t k -> Itree.add k k t) (Itree.empty ()) keys in
  let prof_a = Profile.of_labels [ "A"; "B"; "C"; "C"; "D" ] in
  let prof_b = Profile.of_labels [ "A"; "C"; "D" ] in
  let bip =
    {
      Gql_matcher.Bipartite.nl = 6;
      nr = 6;
      adj = Array.init 6 (fun i -> [ i; (i + 1) mod 6; (i + 2) mod 6 ]);
    }
  in
  let tests =
    Test.make_grouped ~name:"core"
      [
        Test.make ~name:"btree-find"
          (Staged.stage (fun () -> ignore (Itree.find keys.(137) tree)));
        Test.make ~name:"btree-add"
          (Staged.stage (fun () -> ignore (Itree.add 424242 0 tree)));
        Test.make ~name:"profile-contains"
          (Staged.stage (fun () -> ignore (Profile.contains ~big:prof_a ~small:prof_b)));
        Test.make ~name:"hopcroft-karp"
          (Staged.stage (fun () -> ignore (Gql_matcher.Bipartite.hopcroft_karp bip)));
        Test.make ~name:"order-greedy"
          (Staged.stage (fun () ->
               ignore (Order.greedy order_q ~sizes:order_sizes)));
        Test.make ~name:"triangle-query-optimized"
          (Staged.stage (fun () ->
               ignore
                 (Engine.run ~limit:hit_limit ~label_index:lidx ~profile_index:pidx
                    triangle g)));
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  header "Micro-benchmarks (bechamel, monotonic clock, ns/run)";
  let estimates = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] ->
        estimates := (name, est) :: !estimates;
        row "%-36s %14.1f ns\n" name est
      | _ -> row "%-36s %14s\n" name "-")
    results;
  emit_json "micro.bechamel_ns"
    (Json.Obj
       (List.map
          (fun (name, est) -> (name, Json.Float est))
          (List.sort compare !estimates)))

(* ---------------------------------------------------------------------- *)
(* concurrent query service: batch throughput vs a sequential loop         *)

(* A mixed chem/PPI workload of repeated queries, run twice: once as a
   plain sequential [Gql.run_query] loop (each query rebuilds its
   indexes from scratch — what a naive client does), once through
   [Gql_exec.Service.run_batch] where the profile-index, plan and
   retrieval caches are shared across the batch. Results must be
   identical; the batch side must be at least 2x faster and must show
   warm-cache hits. *)
let exec_service () =
  header
    "Concurrent query service: shared-cache batch vs sequential run_query \
     loop (chem + PPI workload)";
  let module Service = Gql_exec.Service in
  let module M = Gql_obs.Metrics in
  let module Eval = Gql_core.Eval in
  let module Gql = Gql_core.Gql in
  let chem = Chem.generate ~seed:2008 ~n_compounds:(scale 120 400) () in
  let ppi, ppi_lidx, _ = Lazy.force ppi_env in
  let docs = [ ("CHEM", chem); ("PPI", [ ppi ]) ] in
  let chem_chain l1 l2 l3 =
    (* 3-node chains over rarer atoms: selective (few matches, so both
       sides do little per-match template work) but setup-heavy — the
       sequential side rebuilds indexes, retrieval, refinement and
       ordering for all compounds on every repeat *)
    Printf.sprintf
      {|for graph P { node a where label=%S; node b where label=%S; node c where label=%S; edge e1 (a, b); edge e2 (b, c); } exhaustive in doc("CHEM") return graph { node m <n=1>; }|}
      l1 l2 l3
  in
  let ppi_path ls =
    match Queries.top_labels ppi_lidx 6 with
    | l1 :: l2 :: l3 :: _ ->
      Printf.sprintf
        {|for graph P { node a where label=%S; node b where label=%S; node c where label=%S; edge e1 (a, b); edge e2 (b, c); } in doc("PPI") return graph { node m <n=2>; }|}
        (List.nth [ l1; l2; l3 ] (ls mod 3))
        (List.nth [ l2; l3; l1 ] (ls mod 3))
        (List.nth [ l3; l1; l2 ] (ls mod 3))
    | _ -> assert false
  in
  let distinct =
    [
      chem_chain "N" "C" "S";
      chem_chain "S" "C" "N";
      chem_chain "O" "S" "O";
      chem_chain "N" "C" "N";
      ppi_path 0;
      ppi_path 1;
      ppi_path 2;
    ]
  in
  let rounds = scale 8 16 in
  (* One deliberately heavy query follows the first round: a 4-node
     chain over same-label complete graphs whose search alone crosses
     the scheduler quantum many times while the rest of the round-robin
     is queued behind it. The PR4 incarnation of this bench ran only
     cheap selective queries, so `yields` sat at 0 and the preemption
     path was never exercised — now it is asserted nonzero. A yield
     needs queued work: at the head of the queue the bomb could finish
     its four graphs before the submitting thread had queued anything
     else (about one run in five on a 2-core host). *)
  let bombs = List.init 4 (fun _ ->
      let n = 7 in
      let edges = ref [] in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          edges := (i, j) :: !edges
        done
      done;
      Graph.of_labeled ~labels:(Array.make n "A") !edges)
  in
  let docs = ("K", bombs) :: docs in
  let bomb_query =
    {|for graph P { node a where label="A"; node b where label="A"; node c where label="A"; node d where label="A"; edge e1 (a, b); edge e2 (b, c); edge e3 (c, d); } exhaustive in doc("K") return graph { node m <n=3>; }|}
  in
  (* round-robin over the pool: every query text after round one is a
     repeat, so the second occurrence onwards must hit the caches *)
  let queries =
    distinct
    @ bomb_query :: List.concat (List.init (rounds - 1) (fun _ -> distinct))
  in
  let n = List.length queries in
  let count_returned r = List.length (Eval.returned r) in
  let run_seq () =
    List.fold_left
      (fun acc q -> acc + count_returned (Gql.run_query ~docs q))
      0 queries
  in
  ignore (run_seq ()) (* warmup: page in both datasets *);
  let seq_returned, t_seq = time run_seq in
  let (outcomes, svc), t_batch =
    time (fun () -> Service.run_batch ~jobs:2 ~quantum:512 ~docs queries)
  in
  let batch_returned =
    List.fold_left
      (fun acc o ->
        match o.Service.o_status with
        | Service.Done r -> acc + count_returned r
        | Service.Rejected _ | Service.Failed _ -> acc)
      0 outcomes
  in
  let agg = Service.metrics svc in
  (if Sys.getenv_opt "EXEC_DEBUG" <> None then Format.printf "%a@." M.pp agg);
  let hits = M.get agg M.Exec_cache_hit in
  let misses = M.get agg M.Exec_cache_miss in
  let yields = M.get agg M.Exec_queue_yields in
  let speedup = t_seq /. t_batch in
  let qps t = float_of_int n /. t in
  row "%-12s %10s %14s %12s\n" "side" "queries" "total (ms)" "queries/s";
  row "%-12s %10d %14.2f %12.1f\n" "sequential" n (ms t_seq) (qps t_seq);
  row "%-12s %10d %14.2f %12.1f\n" "batch" n (ms t_batch) (qps t_batch);
  row
    "speedup %.2fx; %d returned graphs per side; cache %d hit / %d miss, %d \
     yield(s)\n"
    speedup seq_returned hits misses yields;
  emit_json "exec.batch"
    (Json.Obj
       [
         ( "workload",
           Json.Str
             "chem edge queries (exhaustive) + PPI path queries, round-robin \
              repeats" );
         ("queries", Json.Int n);
         ("distinct", Json.Int (List.length distinct));
         ("rounds", Json.Int rounds);
         ("t_sequential_ms", Json.Float (ms t_seq));
         ("t_batch_ms", Json.Float (ms t_batch));
         ("speedup", Json.Float speedup);
         ("returned", Json.Int seq_returned);
         ("cache_hits", Json.Int hits);
         ("cache_misses", Json.Int misses);
         ("yields", Json.Int yields);
         ("threshold_speedup", Json.Float 2.0);
       ]);
  check (batch_returned = seq_returned)
    "batch returned %d graphs, sequential %d"
    batch_returned seq_returned;
  check (hits > 0) "no exec.cache.hit on a repeated workload";
  check (yields > 0)
    "no exec.queue.yields — the workload never crossed the quantum";
  check (speedup >= 2.0) "batch speedup %.2fx < 2x" speedup

(* A warm served collection scan, per graph: five chem templates (the
   serving benchmark's [chem_hot] shapes) over 500 compounds through
   [Service] — submit, then wait, every plan cached and fresh — next to
   a bare [Search.run] over the same refined spaces and orders. What
   the service adds per graph on top of search is the plan lookup, the
   engine run's bookkeeping, the yield check and the matched entries;
   per request, the parse-cache hit, the dispatch and the return
   template. The answers must equal the sequential [run_query] route;
   the timing is reported, not gated: a 2-core host's spread is wider
   than any honest bound. *)
let exec_warm_scan () =
  header
    "Warm collection scan: Service vs bare Search.run per graph (5 chem \
     templates x 500 compounds)";
  let module Service = Gql_exec.Service in
  let module M = Gql_obs.Metrics in
  let module Eval = Gql_core.Eval in
  let module Gql = Gql_core.Gql in
  let chem = Chem.generate ~seed:2008 ~n_compounds:500 () in
  let docs = [ ("CHEM", chem) ] in
  let shapes =
    [
      ([ ("a", Some "C"); ("b", Some "N") ], [ ("a", "b") ]);
      ([ ("a", Some "C"); ("b", Some "O") ], [ ("a", "b") ]);
      ( [ ("a", Some "S"); ("b", None); ("c", Some "O") ],
        [ ("a", "b"); ("b", "c") ] );
      ( [ ("a", Some "N"); ("b", Some "C"); ("c", Some "C") ],
        [ ("a", "b"); ("b", "c") ] );
      ( [ ("a", Some "C"); ("b", Some "C"); ("c", Some "O"); ("d", Some "C") ],
        [ ("a", "b"); ("b", "c"); ("c", "d") ] );
    ]
  in
  let body (nodes, edges) =
    let node (v, l) =
      match l with
      | Some l -> Printf.sprintf "node %s where label=%S; " v l
      | None -> Printf.sprintf "node %s; " v
    in
    "{ "
    ^ String.concat "" (List.map node nodes)
    ^ String.concat ""
        (List.mapi
           (fun i (x, y) -> Printf.sprintf "edge e%d (%s, %s); " i x y)
           edges)
    ^ "}"
  in
  let query ((nodes, edges) as shape) =
    Printf.sprintf
      "for graph P %s exhaustive in doc(\"CHEM\") return graph { node %s; %s};"
      (body shape)
      (String.concat ", " (List.map (fun (v, _) -> "P." ^ v) nodes))
      (String.concat ""
         (List.mapi
            (fun i (x, y) -> Printf.sprintf "edge f%d (P.%s, P.%s); " i x y)
            edges))
  in
  let queries = List.map query shapes in
  let rendered gs = List.sort compare (List.map Graph.to_string gs) in
  let sequential =
    List.map (fun q -> rendered (Eval.returned (Gql.run_query ~docs q))) queries
  in
  (* the bare side: each (template, compound) pair's refined space and
     order, planned once by the engine *)
  let indexes =
    List.map
      (fun g ->
        ( g,
          Gql_index.Label_index.build g,
          Gql_index.Profile_index.build ~r:1 g ))
      chem
  in
  let prepared =
    List.concat_map
      (fun shape ->
        let p = Gql.pattern_of_string ("graph P " ^ body shape) in
        List.map
          (fun (g, label_index, profile_index) ->
            let r = Engine.run ~label_index ~profile_index p g in
            (p, g, r.Engine.space_refined, r.Engine.order))
          indexes)
      shapes
  in
  let n_graphs = List.length prepared in
  let bare () =
    List.fold_left
      (fun acc (p, g, space, order) ->
        acc + (Search.run ~exhaustive:true ~order p g space).Search.n_found)
      0 prepared
  in
  let svc = Service.create ~jobs:1 ~docs () in
  (* submit -> wait is timed; rendering the answers for the check is not *)
  let served () =
    List.map
      (fun q -> (Service.wait svc (Service.submit svc q)).Service.o_status)
      queries
  in
  let answers =
    List.map (function
      | Service.Done r -> rendered (Eval.returned r)
      | Service.Rejected _ | Service.Failed _ -> [ "<failed>" ])
  in
  (* cold, then one warm pass: the cold pass moves the learned epoch, so
     the warm pass re-orders its stale plans once; after it every plan
     is fresh *)
  ignore (served ());
  check
    (answers (served ()) = sequential)
    "warm scan: service answers differ from run_query";
  let stale0 = M.get (Service.metrics svc) M.Exec_plan_stale in
  let repeats = scale 15 40 in
  let t_svc = Array.make repeats 0.0 and t_bare = Array.make repeats 0.0 in
  let found = ref 0 and same = ref true in
  for i = 0 to repeats - 1 do
    let svc_side () =
      let out, dt = time served in
      if answers out <> sequential then same := false;
      t_svc.(i) <- dt
    in
    let bare_side () =
      let n, dt = time bare in
      found := n;
      t_bare.(i) <- dt
    in
    if i land 1 = 0 then (svc_side (); bare_side ())
    else (bare_side (); svc_side ())
  done;
  let stale = M.get (Service.metrics svc) M.Exec_plan_stale - stale0 in
  Service.shutdown svc;
  let returned =
    List.fold_left (fun acc r -> acc + List.length r) 0 sequential
  in
  let us_per_graph t = t *. 1e6 /. float_of_int n_graphs in
  let quartiles a =
    let l = Array.to_list (Array.map us_per_graph a) in
    (percentile 25.0 l, percentile 50.0 l, percentile 75.0 l)
  in
  let s25, s50, s75 = quartiles t_svc and b25, b50, b75 = quartiles t_bare in
  row "%-10s %8s %14s %22s\n" "side" "repeats" "us/graph p50"
    "quartiles (us/graph)";
  row "%-10s %8d %14.3f %10.3f - %-10.3f\n" "service" repeats s50 s25 s75;
  row "%-10s %8d %14.3f %10.3f - %-10.3f\n" "search" repeats b50 b25 b75;
  row "service / bare search %.2fx over %d (template, compound) pairs; %d \
       returned graphs per pass; %d stale plan(s) in the timed passes\n"
    (s50 /. b50) n_graphs returned stale;
  let side p25 p50 p75 =
    Json.Obj
      [
        ("us_per_graph_p50", Json.Float p50);
        ("us_per_graph_p25", Json.Float p25);
        ("us_per_graph_p75", Json.Float p75);
      ]
  in
  emit_json "exec.warm_scan"
    (Json.Obj
       [
         ( "workload",
           Json.Str
             "5 chem templates x 500 compounds, exhaustive, plans cached; \
              Service submit->wait vs bare Search.run" );
         ("graphs_per_pass", Json.Int n_graphs);
         ("repeats", Json.Int repeats);
         ("service", side s25 s50 s75);
         ("search", side b25 b50 b75);
         ("ratio_p50", Json.Float (s50 /. b50));
         ("returned", Json.Int returned);
         ("gated", Json.Bool false);
       ]);
  check !same "warm scan: a timed service pass differs from run_query";
  check (!found = returned)
    "warm scan: bare search found %d matches, run_query returned %d" !found
    returned;
  check (stale = 0) "warm scan: %d stale plan(s) on warm passes" stale

let exec () =
  exec_service ();
  exec_warm_scan ()

(* ---------------------------------------------------------------------- *)
(* adaptive planner: mid-query re-planning vs the static greedy order     *)

(* Two workloads, two claims. On the Zipf/hub skewed graph the static
   constant-γ greedy picks a suffix that joins the non-reducing mesh
   side first; the adaptive driver detects the fan-out drift after its
   first root slice, re-plans to the leaf-first suffix and must win by
   ≥ 1.2x. On the uniform PPI cliques the estimates are fine, no
   re-plan triggers, and the adaptive driver's slicing/profiling
   overhead must stay within noise of the static search. Both cells
   assert identical match counts — re-planning must never change the
   answer. *)
let adaptive () =
  let module Adapt = Gql_matcher.Adapt in
  let module Ws = Gql_matcher.Ws in
  header "Adaptive planner: hub-skewed workload (re-plan wins)";
  let model = Cost.Constant Cost.default_constant in
  (* the one adaptive driver, at one worker *)
  let adaptive_run ?report ~order p g space =
    Ws.search ~domains:1 ~adapt:Adapt.default ~model ?report ~order p g space
  in
  let g =
    Synthetic.hub (Rng.create 2008) ~n_hubs:40 ~n_leaves:400 ~n_mesh:400
  in
  let p = FP.path [ "M"; "H"; "L" ] in
  let space = Feasible.compute ~retrieval:`Node_attrs p g in
  let sizes = Feasible.sizes space in
  let order = Order.greedy ~model p ~sizes in
  let static_out = Search.run ~order p g space in
  let report = ref None in
  let adaptive_out =
    adaptive_run ~report:(fun r -> report := Some r) ~order p g space
  in
  let replans, final_order =
    match !report with
    | Some r -> (r.Ws.r_replans, r.Ws.r_order)
    | None -> (0, order)
  in
  check
    (adaptive_out.Search.n_found = static_out.Search.n_found)
    "adaptive found %d matches, static %d"
    adaptive_out.Search.n_found static_out.Search.n_found;
  check (replans > 0) "hub workload triggered no re-plan";
  let reps = scale 5 20 in
  let t_static = ref infinity and t_adaptive = ref infinity in
  for _ = 1 to 3 do
    let _, ts =
      time (fun () ->
          for _ = 1 to reps do
            ignore (Search.run ~order p g space)
          done)
    in
    let _, ta =
      time (fun () ->
          for _ = 1 to reps do
            ignore (adaptive_run ~order p g space)
          done)
    in
    t_static := Float.min !t_static ts;
    t_adaptive := Float.min !t_adaptive ta
  done;
  let t_static = ms !t_static /. float_of_int reps in
  let t_adaptive = ms !t_adaptive /. float_of_int reps in
  let speedup = t_static /. t_adaptive in
  row "%d matches; static order [%s], adaptive re-planned to [%s]\n"
    static_out.Search.n_found
    (String.concat ";" (Array.to_list (Array.map string_of_int order)))
    (String.concat ";"
       (Array.to_list (Array.map string_of_int final_order)));
  row "%-10s %12s\n" "engine" "ms/query";
  row "%-10s %12.3f\n" "static" t_static;
  row "%-10s %12.3f\n" "adaptive" t_adaptive;
  row "speedup (static / adaptive): %.2fx, %d re-plan(s)\n" speedup replans;
  check (speedup >= 1.2)
    "adaptive speedup %.2fx < 1.2x on the hub workload"
    speedup;
  emit_json "adaptive.skewed"
    (Json.Obj
       [
         ( "workload",
           Json.Str
             "hub graph (40 hubs, 400 Zipf leaves, 400 mesh nodes), M–H–L \
              path, constant-γ static order joins mesh first" );
         ("n_found", Json.Int static_out.Search.n_found);
         ("replans", Json.Int replans);
         ("static_ms", Json.Float t_static);
         ("adaptive_ms", Json.Float t_adaptive);
         ("speedup", Json.Float speedup);
         ("threshold_speedup", Json.Float 1.2);
       ]);
  header "Adaptive planner: uniform PPI cliques (no re-plan, overhead only)";
  let g, lidx, pidx = Lazy.force ppi_env in
  let labels = Queries.top_labels lidx 40 in
  let weights = Queries.label_weights lidx labels in
  row "%-6s %10s %14s %14s %10s\n" "size" "queries" "static (ms)"
    "adaptive (ms)" "ratio";
  let cells =
    List.map
      (fun size ->
        let rng = Rng.create (77001 + size) in
        let n_queries = scale 40 200 in
        let prepared =
          List.init n_queries (fun _ ->
              let q = Queries.clique ~weights rng ~labels ~size in
              let space =
                Feasible.compute ~retrieval:`Profiles ~label_index:lidx
                  ~profile_index:pidx q g
              in
              let space, _ = Refine.refine q g space in
              let order = Order.greedy ~model q ~sizes:(Feasible.sizes space) in
              (q, space, order))
        in
        let static_pass () =
          List.fold_left
            (fun acc (q, space, order) ->
              acc + (Search.run ~order q g space).Search.n_found)
            0 prepared
        in
        let adaptive_pass () =
          List.fold_left
            (fun acc (q, space, order) ->
              acc + (adaptive_run ~order q g space).Search.n_found)
            0 prepared
        in
        let found_static = static_pass () and found_adaptive = adaptive_pass () in
        check (found_static = found_adaptive)
          "size %d: adaptive found %d total matches, static %d"
          size found_adaptive found_static;
        let t_static = ref infinity and t_adaptive = ref infinity in
        for _ = 1 to 5 do
          let _, ts = time (fun () -> ignore (static_pass ())) in
          let _, ta = time (fun () -> ignore (adaptive_pass ())) in
          t_static := Float.min !t_static ts;
          t_adaptive := Float.min !t_adaptive ta
        done;
        let ratio = !t_adaptive /. !t_static in
        row "%-6d %10d %14.3f %14.3f %9.2fx\n" size n_queries (ms !t_static)
          (ms !t_adaptive) ratio;
        (size, n_queries, !t_static, !t_adaptive))
      [ 4; 5; 6 ]
  in
  let tot f = List.fold_left (fun acc c -> acc +. f c) 0.0 cells in
  let t_static_total = tot (fun (_, _, t, _) -> t) in
  let t_adaptive_total = tot (fun (_, _, _, t) -> t) in
  let ratio = t_adaptive_total /. t_static_total in
  row "overall overhead (t_adaptive / t_static): %.2fx\n" ratio;
  (* the "never lose beyond noise" claim; the committed snapshot must
     show ≤ 1.05, the in-run gate allows CI timer jitter on top *)
  check (ratio <= 1.15)
    "adaptive overhead %.2fx > 1.15x on the uniform PPI workload"
    ratio;
  emit_json "adaptive.ppi"
    (Json.Obj
       [
         ( "workload",
           Json.Str
             "PPI clique queries, profiles retrieval + refine, greedy static \
              order vs adaptive driver (uniform data: no re-plan expected)" );
         ( "sizes",
           Json.List
             (List.map
                (fun (size, n_queries, ts, ta) ->
                  Json.Obj
                    [
                      ("size", Json.Int size);
                      ("queries", Json.Int n_queries);
                      ("static_ms", Json.Float (ms ts));
                      ("adaptive_ms", Json.Float (ms ta));
                      ("ratio", Json.Float (ta /. ts));
                    ])
                cells) );
         ("static_ms", Json.Float (ms t_static_total));
         ("adaptive_ms", Json.Float (ms t_adaptive_total));
         ("ratio", Json.Float ratio);
         ("threshold_ratio", Json.Float 1.05);
       ])

(* ---------------------------------------------------------------------- *)
(* online write path: incremental index maintenance and the txn log        *)

(* Three claims. (1) On r-hop-local updates (a relabel or a new edge
   dirties only its radius-1 ball) maintaining the label/profile
   indexes from the mutation delta must beat rebuilding them from
   scratch by ≥ 3x — that is the point of carrying the dirty set
   through [Mutate]. The final incremental profile index is checked
   node-for-node against the rebuild, so the speedup cannot come from
   computing less. (2) The graph itself: [Mutate.apply] extends it
   copy-on-write, which must beat building the same post-state from
   scratch by ≥ 5x, so a slide back to a rebuild per op fails here.
   (3) The transaction log's group commit: staging N DML records and
   publishing them with one superblock swap vs a flush per record. *)
(* One write of each kind, and the index upkeep after it, on 1K- and
   10K-node graphs of one random family: how each op scales with the
   graph. Ungated, a baseline. Each cell is the median over rounds of
   the mean of 10 back-to-back calls on the same pre-state. *)
let write_op_costs () =
  let module LI = Gql_index.Label_index in
  let module PI = Gql_index.Profile_index in
  header "Graph writes: Mutate.apply and index upkeep per op kind";
  let rounds = scale 11 31 in
  let us f =
    1e5
    *. median_time rounds (fun () ->
           for _ = 1 to 10 do
             ignore (Sys.opaque_identity (f ()))
           done)
  in
  let label l = Tuple.make [ ("label", Value.Str l) ] in
  let cell (g, li, pi) (kind, op) =
    let g', d = Mutate.apply ~r:1 g op in
    let apply_us = us (fun () -> Mutate.apply ~r:1 g op) in
    let index_us =
      us (fun () -> (LI.update li ~old_graph:g g' d, PI.update pi g' d))
    in
    let n = Graph.n_nodes g in
    row "%-10s %8d %12.1f %12.1f\n" kind n apply_us index_us;
    Json.Obj
      [
        ("op", Json.Str kind);
        ("nodes", Json.Int n);
        ("apply_us", Json.Float apply_us);
        ("index_us", Json.Float index_us);
      ]
  in
  let ops g =
    let n = Graph.n_nodes g in
    let v = n / 2 and e = Graph.n_edges g / 2 in
    [
      ("Add_node", Mutate.Add_node { name = None; tuple = label "W1" });
      ( "Add_edge",
        Mutate.Add_edge
          { name = None; src = v; dst = (v + 7) mod n; tuple = Tuple.empty } );
      ("Set_node", Mutate.Set_node { v; tuple = label "W2" });
      ("Set_edge", Mutate.Set_edge { e; tuple = label "W3" });
      ("Del_edge", Mutate.Del_edge e);
      ("Del_node", Mutate.Del_node v);
    ]
  in
  row "%-10s %8s %12s %12s\n" "op" "nodes" "apply (us)" "index (us)";
  let cells =
    List.concat_map
      (fun ((g, _, _) as env) -> List.map (cell env) (ops g))
      [ synthetic_env 1_000; Lazy.force synthetic_10k ]
  in
  emit_json "write.ops"
    (Json.Obj [ ("rounds", Json.Int rounds); ("cells", Json.List cells) ])

let write_path () =
  let module LI = Gql_index.Label_index in
  let module PI = Gql_index.Profile_index in
  header "Online writes: incremental index maintenance vs full rebuild";
  let g0, li0, pi0 = Lazy.force synthetic_10k in
  let n = Graph.n_nodes g0 in
  let n_updates = scale 25 100 in
  let relabels = [| "W1"; "W2"; "W3" |] in
  (* precompute the update trajectory so both sides time pure index
     work over identical (graph, delta) pairs *)
  let trajectory =
    let cur = ref g0 in
    List.init n_updates (fun i ->
        let v = i * 2654435761 land 0x3FFFFFFF mod n in
        let op =
          if i mod 3 = 2 then
            Mutate.Add_edge
              { name = None; src = v; dst = (v + 7) mod n; tuple = Tuple.empty }
          else
            Mutate.Set_node
              {
                v;
                tuple = Tuple.make [ ("label", Value.Str relabels.(i mod 3)) ];
              }
        in
        let before = !cur in
        let after, delta = Mutate.apply ~r:1 before op in
        cur := after;
        (before, after, delta))
  in
  let final = match List.rev trajectory with (_, g, _) :: _ -> g | [] -> g0 in
  let recomputed = ref 0 in
  let (li_inc, pi_inc), t_incremental =
    time (fun () ->
        List.fold_left
          (fun (li, pi) (before, after, delta) ->
            let li = LI.update li ~old_graph:before after delta in
            let pi, k = PI.update pi after delta in
            recomputed := !recomputed + k;
            (li, pi))
          (li0, pi0) trajectory)
  in
  let _, t_rebuild =
    time (fun () ->
        List.iter
          (fun (_, after, _) ->
            ignore (LI.build after);
            ignore (PI.build ~r:1 after))
          trajectory)
  in
  (* oracle: the maintained index is the rebuilt index *)
  let li_full = LI.build final and pi_full = PI.build ~r:1 final in
  for v = 0 to Graph.n_nodes final - 1 do
    check
      (Profile.equal (PI.profile pi_inc v) (PI.profile pi_full v))
      "incremental profile of node %d diverged" v
  done;
  List.iter
    (fun l ->
      check (LI.nodes_with_label li_inc l = LI.nodes_with_label li_full l)
        "incremental postings for %S diverged"
        l)
    (LI.labels li_full);
  let speedup = t_rebuild /. t_incremental in
  row "%d r-hop-local updates on %d nodes: %d profiles recomputed (%.1f/update)\n"
    n_updates n !recomputed
    (float_of_int !recomputed /. float_of_int n_updates);
  row "%-14s %14s\n" "side" "total (ms)";
  row "%-14s %14.2f\n" "incremental" (ms t_incremental);
  row "%-14s %14.2f\n" "rebuild" (ms t_rebuild);
  row "speedup (rebuild / incremental): %.1fx\n" speedup;
  check (speedup >= 3.0) "incremental maintenance speedup %.1fx < 3x" speedup;
  header "Graph writes: copy-on-write apply vs a from-scratch build";
  (* one Add_node, then one Add_edge from the new node to node 0 *)
  let w_tuple = Tuple.make [ ("label", Value.Str "W1") ] in
  let cow () =
    let g1, _ =
      Mutate.apply ~r:1 g0 (Mutate.Add_node { name = Some "w"; tuple = w_tuple })
    in
    fst
      (Mutate.apply ~r:1 g1
         (Mutate.Add_edge
            { name = None; src = n; dst = 0; tuple = Tuple.empty }))
  in
  let build () =
    let b =
      Graph.Builder.create ~directed:(Graph.directed g0) ?name:(Graph.name g0)
        ~tuple:(Graph.tuple g0) ()
    in
    Graph.iter_nodes g0 ~f:(fun v ->
        ignore
          (Graph.Builder.add_node b ?name:(Graph.node_name g0 v)
             (Graph.node_tuple g0 v)));
    ignore (Graph.Builder.add_node b ~name:"w" w_tuple);
    Graph.iter_edges g0 ~f:(fun e { Graph.src; dst; etuple } ->
        ignore
          (Graph.Builder.add_edge b ?name:(Graph.edge_name g0 e) ~tuple:etuple
             src dst));
    ignore (Graph.Builder.add_edge b n 0);
    Graph.Builder.build b
  in
  let applied = cow () and built = build () in
  let same_rows v =
    List.for_all
      (fun row -> row applied v = row built v)
      [ Graph.adj_nbrs; Graph.adj_eids; Graph.in_nbrs; Graph.in_eids ]
  in
  check
    (Graph.to_string applied = Graph.to_string built
    && same_rows n && same_rows 0)
    "the copy-on-write post-state differs from the from-scratch build";
  let apply_reps = scale 21 101 in
  let t_cow = median_time apply_reps cow in
  let t_build = median_time apply_reps build in
  let apply_speedup = t_build /. t_cow in
  row "Add_node + Add_edge on %d nodes, median of %d\n" n apply_reps;
  row "%-22s %14s\n" "side" "median (us)";
  row "%-22s %14.1f\n" "copy-on-write apply" (t_cow *. 1e6);
  row "%-22s %14.1f\n" "from-scratch build" (t_build *. 1e6);
  row "speedup (build / apply): %.1fx\n" apply_speedup;
  check (apply_speedup >= 5.0) "copy-on-write apply speedup %.1fx < 5x"
    apply_speedup;
  write_op_costs ();
  header "Transaction log: group commit vs a flush per record";
  let base =
    let b = Graph.Builder.create ~name:"G" () in
    for i = 0 to 63 do
      ignore
        (Graph.Builder.add_node b
           ~name:(Printf.sprintf "n%d" i)
           (Tuple.make [ ("label", Value.Str "A") ]))
    done;
    Graph.Builder.build b
  in
  let n_txns = scale 50 200 in
  let op i =
    Mutate.Set_node
      { v = i mod 64; tuple = Tuple.make [ ("label", Value.Str "B") ] }
  in
  let with_store f =
    let path = Filename.temp_file "gql_bench_write" ".db" in
    let st = Gql_storage.Store.create path in
    let gid = Gql_storage.Store.add_graph st base in
    Gql_storage.Store.flush st;
    let _, t = time (fun () -> f st gid) in
    Gql_storage.Store.close st;
    Sys.remove path;
    t
  in
  let t_per_txn =
    with_store (fun st gid ->
        for i = 1 to n_txns do
          ignore (Gql_storage.Store.append_txn st ~gid [ op i ]);
          Gql_storage.Store.flush st
        done)
  in
  let t_grouped =
    with_store (fun st gid ->
        for i = 1 to n_txns do
          ignore (Gql_storage.Store.append_txn st ~gid [ op i ])
        done;
        Gql_storage.Store.flush st)
  in
  let commit_speedup = t_per_txn /. t_grouped in
  row "%d single-op transactions\n" n_txns;
  row "%-22s %14s %14s\n" "commit policy" "total (ms)" "txns/s";
  row "%-22s %14.2f %14.0f\n" "flush per txn" (ms t_per_txn)
    (float_of_int n_txns /. t_per_txn);
  row "%-22s %14.2f %14.0f\n" "one group commit" (ms t_grouped)
    (float_of_int n_txns /. t_grouped);
  row "group-commit speedup: %.1fx (both fsync-bound sides replay identically)\n"
    commit_speedup;
  emit_json "write.path"
    (Json.Obj
       [
         ( "workload",
           Json.Str
             "10K-node synthetic graph, radius-1-local relabels and edge \
              inserts; index maintenance from Mutate deltas vs full rebuild; \
              64-node store, single-op txn records" );
         ("updates", Json.Int n_updates);
         ("profiles_recomputed", Json.Int !recomputed);
         ("t_incremental_ms", Json.Float (ms t_incremental));
         ("t_rebuild_ms", Json.Float (ms t_rebuild));
         ("speedup", Json.Float speedup);
         ("threshold_speedup", Json.Float 3.0);
         ("t_cow_apply_us", Json.Float (t_cow *. 1e6));
         ("t_scratch_build_us", Json.Float (t_build *. 1e6));
         ("apply_speedup", Json.Float apply_speedup);
         ("threshold_apply_speedup", Json.Float 5.0);
         ("txns", Json.Int n_txns);
         ("t_flush_per_txn_ms", Json.Float (ms t_per_txn));
         ("t_group_commit_ms", Json.Float (ms t_grouped));
         ("group_commit_speedup", Json.Float commit_speedup);
       ])

(* ---------------------------------------------------------------------- *)
(* path queries: RPQ reachability vs naive unrolled evaluation            *)

(* The workload the depth-16 bug silently broke: single-source
   reachability over a long chain. The naive evaluator unrolls the
   recursive motif into one flat chain pattern per length and runs each
   through the full engine; the RPQ engine answers every pair from the
   reachability index after one O(V+E) build. Both must produce the
   same target set — the bench is also the correctness post-mortem,
   reporting how many targets an unroll capped at 16 (the old default)
   would have missed. *)
let paths () =
  header "Path queries: reachability fast path vs unrolled evaluation";
  let n = scale 128 512 in
  let b = Graph.Builder.create ~directed:true ~name:"chain" () in
  for i = 0 to n - 1 do
    let t =
      if i = 0 then Tuple.make [ ("s", Value.Str "1") ] else Tuple.empty
    in
    ignore (Graph.Builder.add_node b t)
  done;
  for i = 0 to n - 2 do
    ignore (Graph.Builder.add_edge b i (i + 1))
  done;
  let g = Graph.Builder.build b in
  (* unrolled flat chain of exactly k hops from the source, built by
     the same lazy bounded-repetition unroll the motif layer uses *)
  let chain_pattern k =
    Gql_core.Gql.pattern_of_string
      (Printf.sprintf {|graph P { node a <s="1">; node b; edge (a, b) *%d; }|}
         k)
  in
  let target_of p =
    let k = FP.size p in
    let rec find i = if FP.var_name p i = "b" then i else find (i + 1) in
    ignore k;
    find 0
  in
  let unrolled_targets max_len patterns =
    let hits = Hashtbl.create 64 in
    List.iteri
      (fun i p ->
        if i < max_len then
          let o =
            (Engine.run ~exhaustive:true p g).Engine.outcome
          in
          let bi = target_of p in
          List.iter
            (fun phi -> Hashtbl.replace hits phi.(bi) ())
            o.Search.mappings)
      patterns;
    List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) hits [])
  in
  (* pattern construction is not part of the measured evaluation *)
  let patterns = List.init (n - 1) (fun i -> chain_pattern (i + 1)) in
  let naive, t_naive = time (fun () -> unrolled_targets (n - 1) patterns) in
  let module Rpq = Gql_matcher.Rpq in
  let seg =
    {
      Rpq.seg_src = 0;
      seg_dst = 1;
      seg_min = 1;
      seg_max = None;
      seg_tuple = Tuple.empty;
      seg_pred = Pred.True;
    }
  in
  let rpq, t_rpq =
    time (fun () ->
        let ctx = Rpq.ctx g in
        let out = ref [] in
        for v = n - 1 downto 0 do
          if fst (Rpq.segment_holds ctx seg ~src:0 ~dst:v) then
            out := v :: !out
        done;
        !out)
  in
  check (naive = rpq)
    "unrolled and RPQ target sets differ (%d vs %d)"
    (List.length naive) (List.length rpq);
  let speedup = t_naive /. t_rpq in
  (* the old evaluator: unrolling silently capped at depth 16 *)
  let truncated16 = unrolled_targets 16 patterns in
  let missed = List.length rpq - List.length truncated16 in
  row "%d-node directed chain, single tagged source\n" n;
  row "%-28s %14s %10s\n" "evaluation" "total (ms)" "targets";
  row "%-28s %14.2f %10d\n" "unrolled (all lengths)" (ms t_naive)
    (List.length naive);
  row "%-28s %14.2f %10d\n" "RPQ reachability index" (ms t_rpq)
    (List.length rpq);
  row "%-28s %14s %10d   (%d silently missed)\n" "unrolled, capped at 16"
    "-" (List.length truncated16) missed;
  row "fast-path speedup: %.1fx (threshold 5x)\n" speedup;
  check (missed = n - 1 - 16)
    "expected the 16-cap to miss %d targets, missed %d"
    (n - 1 - 16) missed;
  check (speedup >= 5.0) "RPQ speedup %.1fx < 5x" speedup;
  (* a shortest witness across the whole chain, for the record *)
  let (_, t_witness) =
    time (fun () ->
        match
          fst (Rpq.shortest_walk (Rpq.ctx g) seg ~src:0 ~dst:(n - 1))
        with
        | Some (nodes, _) ->
          check (List.length nodes = n) "witness walk has %d nodes, expected %d"
            (List.length nodes) n
        | None -> check false "no witness walk across the chain")
  in
  row "shortest %d-hop witness walk: %.2f ms\n" (n - 1) (ms t_witness);
  emit_json "paths.reachability"
    (Json.Obj
       [
         ( "workload",
           Json.Str
             "directed chain, single-source reachability; unrolled flat \
              chains (one engine run per length) vs reachability-index \
              fast path; 16-cap row reproduces the old silent truncation" );
         ("nodes", Json.Int n);
         ("targets", Json.Int (List.length rpq));
         ("t_unrolled_ms", Json.Float (ms t_naive));
         ("t_rpq_ms", Json.Float (ms t_rpq));
         ("speedup", Json.Float speedup);
         ("threshold_speedup", Json.Float 5.0);
         ("missed_at_depth16", Json.Int missed);
         ("t_witness_ms", Json.Float (ms t_witness));
       ])

(* ---------------------------------------------------------------------- *)

(* ---------------------------------------------------------------------- *)
(* serve: the wire-protocol server under closed-loop multi-client load    *)

(* Three server stacks run in-process over unix sockets: a single
   server holding the whole chem collection, and a 2-shard stack
   (positions mod 2) behind a router. The load generator is N client
   threads, each a blocking connection (in-flight depth 1 — closed
   loop), pulling request slots from a shared counter; every request's
   latency lands in the percentile cells. Gates:
   - router scatter-gather results = single-process results (sorted
     multiset of rendered graphs) — always;
   - killing one shard mid-load yields typed shard-failure partial
     responses on affected requests and every request completes — always;
   - 2-shard throughput ≥ 1.5x single-shard — only with ≥ 2 cores (the
     shards' worker domains must actually run in parallel; on a
     single-core container the measured ratio is recorded with a note,
     the PR5 precedent). *)
let serve_bench () =
  header "Wire-protocol serving: single vs 2-shard scatter-gather";
  let module Service = Gql_exec.Service in
  let module Server = Gql_exec.Server in
  let module Router = Gql_exec.Router in
  let module Client = Gql_exec.Client in
  let module Protocol = Gql_exec.Protocol in
  let dir = Filename.temp_file "gql_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock name = Filename.concat dir (name ^ ".sock") in
  let chem = Chem.generate ~seed:2008 ~n_compounds:(scale 60 200) () in
  let part i = List.filteri (fun pos _ -> pos mod 2 = i) chem in
  (* selective but collection-scanning: every request walks all (its
     side's) compounds; the unconstrained middle node gives the result
     graphs distinct renderings, so the equality gate compares real
     content, not just counts *)
  let query =
    {|for graph P { node a where label="S"; node b; node c where label="O"; edge e1 (a, b); edge e2 (b, c); } exhaustive in doc("CHEM") return graph { node m <l=P.b.label>; }|}
  in
  let svc_single = Service.create ~jobs:1 ~docs:[ ("CHEM", chem) ] () in
  let svc0 = Service.create ~jobs:1 ~docs:[ ("CHEM", part 0) ] () in
  let svc1 = Service.create ~jobs:1 ~docs:[ ("CHEM", part 1) ] () in
  let srv_single =
    Server.create (Server.Local svc_single) ~addr:(sock "single")
  in
  let srv0 = Server.create (Server.Local svc0) ~addr:(sock "shard0") in
  let srv1 = Server.create (Server.Local svc1) ~addr:(sock "shard1") in
  let router = Router.connect ~timeout:30.0 [ sock "shard0"; sock "shard1" ] in
  let srv_router =
    Server.create (Server.Routed router) ~addr:(sock "router")
  in
  let spawn srv = Thread.create (fun () -> Server.serve_forever srv) () in
  let th_single = spawn srv_single in
  let th0 = spawn srv0 in
  let th1 = spawn srv1 in
  let th_router = spawn srv_router in
  (* correctness first: the merged result set must equal the
     single-process one as a sorted multiset (shard interleaving is
     allowed to change order, nothing else) *)
  let one_query addr =
    let c = Client.connect ~timeout:60.0 addr in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () -> Client.query c query)
  in
  let r_single = one_query (sock "single") in
  let r_routed = one_query (sock "router") in
  let sorted r = List.sort compare r.Protocol.qr_graphs in
  check
    (r_single.Protocol.qr_status = "ok" && r_routed.Protocol.qr_status = "ok")
    "serve correctness queries did not both succeed";
  check (sorted r_single = sorted r_routed)
    "scatter-gather returned %d graph(s), single-process %d — result sets \
     differ"
    (List.length r_routed.Protocol.qr_graphs)
    (List.length r_single.Protocol.qr_graphs);
  (* the closed-loop load phase *)
  let n_clients = 4 in
  let total = scale 80 240 in
  let load addr =
    let next = Atomic.make 0 in
    let lat_m = Mutex.create () in
    let lats = ref [] in
    let failures = Atomic.make 0 in
    let client () =
      let c = Client.connect ~timeout:60.0 addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let rec go () =
            if Atomic.fetch_and_add next 1 < total then begin
              let t0 = Unix.gettimeofday () in
              let r = Client.query c query in
              let dt = Unix.gettimeofday () -. t0 in
              if r.Protocol.qr_status <> "ok" then Atomic.incr failures;
              Mutex.lock lat_m;
              lats := ms dt :: !lats;
              Mutex.unlock lat_m;
              go ()
            end
          in
          go ())
    in
    let t0 = Unix.gettimeofday () in
    let threads = List.init n_clients (fun _ -> Thread.create client ()) in
    List.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t0 in
    check (Atomic.get failures = 0)
      "%d load request(s) failed against %s"
      (Atomic.get failures) addr;
    let lats = !lats in
    ( float_of_int (List.length lats) /. wall,
      percentile 50.0 lats,
      percentile 95.0 lats,
      percentile 99.0 lats )
  in
  let qps_s, p50_s, p95_s, p99_s = load (sock "single") in
  let qps_r, p50_r, p95_r, p99_r = load (sock "router") in
  let speedup = qps_r /. qps_s in
  let cores = Domain.recommended_domain_count () in
  row "%-10s %10s %12s %12s %12s\n" "side" "qps" "p50 (ms)" "p95 (ms)"
    "p99 (ms)";
  row "%-10s %10.1f %12.3f %12.3f %12.3f\n" "single" qps_s p50_s p95_s p99_s;
  row "%-10s %10.1f %12.3f %12.3f %12.3f\n" "2-shard" qps_r p50_r p95_r p99_r;
  row "scatter-gather speedup %.2fx on %d core(s)\n" speedup cores;
  (* kill one shard mid-load: affected requests must come back as typed
     shard-failure partial results — and every request must come back *)
  let kill_total = 40 in
  let kill_next = Atomic.make 0 in
  let kill_done = Atomic.make 0 in
  let statuses_m = Mutex.create () in
  let statuses = ref [] in
  let kill_client () =
    let c = Client.connect ~timeout:60.0 (sock "router") in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        let rec go () =
          if Atomic.fetch_and_add kill_next 1 < kill_total then begin
            let r = Client.query c query in
            Mutex.lock statuses_m;
            statuses := (r.Protocol.qr_status, r.Protocol.qr_shards_ok,
                         List.length r.Protocol.qr_graphs) :: !statuses;
            Mutex.unlock statuses_m;
            Atomic.incr kill_done;
            go ()
          end
        in
        go ())
  in
  let kill_threads = List.init 2 (fun _ -> Thread.create kill_client ()) in
  (* let a few requests land, then kill shard 1 while the load runs —
     every request issued after this point sees a dead shard *)
  while Atomic.get kill_done < 8 do
    Thread.yield ()
  done;
  Server.stop srv1;
  Thread.join th1;
  Service.shutdown svc1;
  List.iter Thread.join kill_threads;
  let statuses = !statuses in
  let degraded =
    List.filter (fun (st, _, _) -> st = "shard-failure") statuses
  in
  check (List.length statuses = kill_total)
    "%d/%d requests completed after the shard kill"
    (List.length statuses) kill_total;
  check (degraded <> [])
    "no request observed the killed shard as a typed shard-failure";
  List.iter
    (fun (st, ok_shards, n_graphs) ->
      match st with
      | "ok" -> ()
      | "shard-failure" ->
        check (ok_shards = 1 && n_graphs > 0)
          "degraded response carried %d shard(s), %d graph(s) — expected \
           partial results from the survivor"
          ok_shards n_graphs
      | st -> check false "unexpected status %S after shard kill" st)
    statuses;
  row "shard kill: %d/%d requests degraded to typed partial results\n"
    (List.length degraded) kill_total;
  (* teardown *)
  let shutdown_client addr =
    let c = Client.connect ~timeout:10.0 addr in
    (try ignore (Client.call c (Protocol.Shutdown { q_id = 0 }))
     with Gql_core.Error.E _ -> ());
    Client.close c
  in
  shutdown_client (sock "single");
  Server.stop srv_router;
  Thread.join th_router;
  shutdown_client (sock "shard0");
  Thread.join th_single;
  Thread.join th0;
  Service.shutdown svc_single;
  Service.shutdown svc0;
  let single_core_note = cores < 2 && speedup < 1.5 in
  emit_json "serve.load"
    (Json.Obj
       ([
          ( "workload",
            Json.Str
              "chem 3-chain selection, exhaustive, closed-loop 4-client load" );
          ("requests", Json.Int total);
          ("clients", Json.Int n_clients);
          ("graphs_returned", Json.Int (List.length r_single.Protocol.qr_graphs));
          ("single_qps", Json.Float qps_s);
          ("single_lat_p50_ms", Json.Float p50_s);
          ("single_lat_p95_ms", Json.Float p95_s);
          ("single_lat_p99_ms", Json.Float p99_s);
          ("sharded_qps", Json.Float qps_r);
          ("sharded_lat_p50_ms", Json.Float p50_r);
          ("sharded_lat_p95_ms", Json.Float p95_r);
          ("sharded_lat_p99_ms", Json.Float p99_r);
          ("speedup", Json.Float speedup);
          ("cores", Json.Int cores);
          ("degraded_requests", Json.Int (List.length degraded));
          ("threshold_speedup", Json.Float 1.5);
        ]
       @
       if single_core_note then
         [
           ( "note",
             Json.Str
               "single-core container: shard domains cannot run in parallel, \
                the 1.5x gate needs >= 2 cores and is asserted in CI" );
         ]
       else []));
  check (cores < 2 || speedup >= 1.5)
    "2-shard scatter-gather %.2fx < 1.5x single-shard"
    speedup;
  if single_core_note then
    row "note: single core — the >= 1.5x gate is asserted on multi-core CI\n"

(* ---------------------------------------------------------------------- *)
(* Materialized views: hot reads as lookups, O(delta) maintenance          *)

let views_bench () =
  let module Ast = Gql_core.Ast in
  let module Eval = Gql_core.Eval in
  let module Gql = Gql_core.Gql in
  let module View = Gql_exec.View in
  header "Materialized views: hot-query read vs re-evaluation";
  let n = scale 2_000 10_000 in
  (* alternating-label chain plus chords: every chain edge and every
     chord joins an A node to a B node, so the view below materializes
     one 2-node graph per edge *)
  let g0 =
    Graph.of_labeled
      ~labels:(Array.init n (fun i -> if i mod 2 = 0 then "A" else "B"))
      (List.init (n - 1) (fun i -> (i, i + 1))
      @ List.init (n / 7) (fun i -> (i * 7, (i * 7 + 3) mod n)))
  in
  let def =
    match
      Gql.parse_program
        {|for graph P { node a; node b; edge e (a, b); } exhaustive in doc("D")
          where P.a.label < P.b.label
          return graph { node P.a, P.b; edge ee (P.a, P.b); };|}
    with
    | [ Ast.Sflwr f ] -> f
    | _ -> assert false
  in
  let scratch docs =
    Eval.returned (Eval.run ~docs:[ ("D", docs) ] [ Ast.Sflwr def ])
  in
  let multiset gs =
    List.sort compare (List.map (fun g -> Format.asprintf "%a" Graph.pp g) gs)
  in
  let v = View.make ~name:"hot" ~materialized:true def in
  let (), t_seed = time (fun () -> View.attach v ~docs:[ g0 ]) in
  let n_reads = scale 20 50 in
  let answers = ref 0 in
  let (), t_read =
    time (fun () ->
        for _ = 1 to n_reads do
          answers := List.length (View.graphs v)
        done)
  in
  let last_scratch = ref [] in
  let (), t_reeval =
    time (fun () ->
        for _ = 1 to n_reads do
          last_scratch := scratch [ g0 ]
        done)
  in
  check (multiset (View.graphs v) = multiset !last_scratch)
    "materialized read is not the re-evaluated result";
  let read_speedup = t_reeval /. Float.max t_read 1e-9 in
  row "%d-node source, %d answers per read, %d reads each side\n" n !answers
    n_reads;
  row "%-22s %14s\n" "side" "total (ms)";
  row "%-22s %14.3f\n" "materialized lookup" (ms t_read);
  row "%-22s %14.2f\n" "re-evaluation" (ms t_reeval);
  row "%-22s %14.2f\n" "one-time seeding" (ms t_seed);
  row "read speedup (re-evaluation / lookup): %.0fx (result sets multiset-equal)\n"
    read_speedup;
  check (read_speedup >= 10.0)
    "materialized read speedup %.1fx < 10x"
    read_speedup;
  header "Materialized views: O(delta) maintenance vs full re-materialization";
  let n_txns = scale 25 100 in
  (* precompute the DML trajectory so both sides replay identical
     (post-graph, delta) pairs — relabels flip edges in and out of the
     view, edge inserts add matches *)
  let trajectory =
    let cur = ref g0 in
    List.init n_txns (fun i ->
        let vtx = i * 2654435761 land 0x3FFFFFFF mod n in
        let op =
          if i mod 3 = 2 then
            Mutate.Add_edge
              { name = None; src = vtx; dst = (vtx + 11) mod n; tuple = Tuple.empty }
          else
            Mutate.Set_node
              {
                v = vtx;
                tuple =
                  Tuple.make
                    [ ("label", Value.Str (if i mod 2 = 0 then "B" else "A")) ];
              }
        in
        let after, delta = Mutate.apply ~r:1 !cur op in
        cur := after;
        (after, delta))
  in
  let refresh_side vw ?max_dirty_frac () =
    time (fun () ->
        List.iter
          (fun (after, delta) ->
            ignore
              (View.refresh vw ?max_dirty_frac ~docs:[ after ]
                 (View.Update { index = 0; new_graph = after; delta })))
          trajectory)
  in
  let vi = View.make ~name:"hot" ~materialized:true def in
  View.attach vi ~docs:[ g0 ];
  let (), t_incr = refresh_side vi () in
  let vf = View.make ~name:"hot" ~materialized:true def in
  View.attach vf ~docs:[ g0 ];
  (* max_dirty_frac 0 forces every refresh down the re-derivation path:
     exactly the drop-and-re-materialize strategy this PR replaces *)
  let (), t_full = refresh_side vf ~max_dirty_frac:0.0 () in
  let final = match List.rev trajectory with (g, _) :: _ -> g | [] -> g0 in
  let want = multiset (scratch [ final ]) in
  check (multiset (View.graphs vi) = want)
    "incrementally maintained view diverged from scratch";
  check (multiset (View.graphs vf) = want)
    "re-materialized view diverged from scratch";
  let incr_n, full_n = View.refreshes vi in
  let maint_speedup = t_full /. Float.max t_incr 1e-9 in
  row "%d single-op txns: %d O(delta) refreshes, %d fallbacks\n" n_txns incr_n
    full_n;
  row "%-22s %14s %14s\n" "maintenance" "total (ms)" "ms/txn";
  row "%-22s %14.2f %14.3f\n" "incremental" (ms t_incr)
    (ms t_incr /. float_of_int n_txns);
  row "%-22s %14.2f %14.3f\n" "re-materialize" (ms t_full)
    (ms t_full /. float_of_int n_txns);
  row
    "maintenance speedup (re-materialize / incremental): %.1fx (final \
     materializations multiset-equal)\n"
    maint_speedup;
  check (maint_speedup >= 3.0)
    "incremental maintenance speedup %.1fx < 3x"
    maint_speedup;
  emit_json "views"
    (Json.Obj
       [
         ( "workload",
           Json.Str
             "alternating-label chain + chords; ordered-edge view; trickle \
              DML of radius-1-local relabels and edge inserts" );
         ("source_nodes", Json.Int n);
         ("answers", Json.Int !answers);
         ("t_read_ms", Json.Float (ms t_read));
         ("t_reeval_ms", Json.Float (ms t_reeval));
         ("t_seed_ms", Json.Float (ms t_seed));
         ("read_speedup", Json.Float read_speedup);
         ("txns", Json.Int n_txns);
         ("incremental_refreshes", Json.Int incr_n);
         ("fallback_refreshes", Json.Int full_n);
         ("t_incremental_ms", Json.Float (ms t_incr));
         ("t_rematerialize_ms", Json.Float (ms t_full));
         ("maintenance_speedup", Json.Float maint_speedup);
       ])

(* ---------------------------------------------------------------------- *)
(* Text load: a graph declaration to a data graph                          *)

(* Loading is parse plus motif derivation, whose naming scope is a
   persistent map. A linear-time load takes about 4x as long on a 4x
   larger text; a quadratic one about 16x, so the ratio gates the
   complexity independently of the host's speed. *)
let load_bench () =
  let module Gql = Gql_core.Gql in
  header "Text load: parse + derive, graph declaration -> data graph";
  let repeats = 5 in
  (* each repeat starts from a collected heap, so one size's timing
     does not pay for the garbage another left behind *)
  let median_s f =
    let ts =
      List.init repeats (fun _ ->
          Gc.full_major ();
          snd (time f))
    in
    List.nth (List.sort compare ts) (repeats / 2)
  in
  let measure g =
    let text = Graph.to_string g in
    let src = text ^ ";" in
    (* the loaded graph must print back as the text it came from *)
    (match Gql.collection_of_string src with
    | [ g' ] when Graph.to_string g' = text -> ()
    | _ -> check false "loaded graph does not print as its source text");
    let t_parse = median_s (fun () -> Gql.parse_program src) in
    let t_load = median_s (fun () -> Gql.collection_of_string src) in
    row "%-12s %8d %8d %10d %12.2f %12.2f\n"
      (Option.value (Graph.name g) ~default:"")
      (Graph.n_nodes g) (Graph.n_edges g)
      (String.length text / 1024)
      (ms t_parse) (ms t_load);
    ( t_load,
      [
        ("nodes", Json.Int (Graph.n_nodes g));
        ("edges", Json.Int (Graph.n_edges g));
        ("text_kb", Json.Int (String.length text / 1024));
        ("parse_ms", Json.Float (ms t_parse));
        ("load_ms", Json.Float (ms t_load));
      ] )
  in
  row "median of %d repeats; load = parse + derive\n" repeats;
  row "%-12s %8s %8s %10s %12s %12s\n" "graph" "nodes" "edges" "text (kB)"
    "parse (ms)" "load (ms)";
  let n = scale 3_000 10_000 in
  let synthetic n =
    let g = Synthetic.erdos_renyi (Rng.create n) ~n ~m:(4 * n) in
    Graph.with_name g (Some (Printf.sprintf "er%d" n))
  in
  let t_n, cells_n = measure (synthetic n) in
  let t_4n, cells_4n = measure (synthetic (4 * n)) in
  let _, cells_ppi = measure (Ppi.generate ()) in
  let scaling = t_4n /. Float.max t_n 1e-9 in
  row "scaling t(4n)/t(n): %.2f (linear ~4, quadratic ~16; gate <= 8)\n" scaling;
  check (scaling <= 8.0) "load scaling %.2f > 8: loading is superlinear"
    scaling;
  emit_json "load"
    (Json.Obj
       [
         ("repeats", Json.Int repeats);
         ( "sizes",
           Json.List
             [
               Json.Obj (("size", Json.Int n) :: cells_n);
               Json.Obj (("size", Json.Int (4 * n)) :: cells_4n);
             ] );
         ("ppi", Json.Obj cells_ppi);
         ("scaling", Json.Float scaling);
       ])

(* ---------------------------------------------------------------------- *)
(* Response frames: the served writer against the reference route         *)

(* Two answers. A chem collection scan whose return template compiles
   to a skeleton, so its answers print alike and the writer reuses the
   previous graph's text: the 3x gate is on this one. An edge scan of
   the PPI network, whose answers all print differently, so every
   graph is rendered: the writer must not be slower there, which the
   table shows. The reference route renders every graph to a string,
   builds the JSON tree, prints it and frames it; the writer must
   produce the same bytes. *)
let wire_bench () =
  let module Gql = Gql_core.Gql in
  let module Eval = Gql_core.Eval in
  let module Protocol = Gql_exec.Protocol in
  let module Server = Gql_exec.Server in
  header "Response frames: one-pass writer vs reference route";
  let head =
    {
      Protocol.qr_id = 1;
      qr_qid = 7;
      qr_status = "ok";
      qr_stopped = "exhausted";
      qr_error = None;
      qr_graphs = [];
      qr_vars = 0;
      qr_writes = 0;
      qr_wall_ms = 1.234;
      qr_shards_ok = 1;
      qr_shards_failed = [];
    }
  in
  let decode frame =
    match Protocol.decode frame with
    | Error _ -> failwith "wire: frame does not decode"
    | Ok (payload, _) -> (
      match Protocol.Json.parse payload with
      | Error msg -> failwith ("wire: " ^ msg)
      | Ok j -> Protocol.query_response_of_json j)
  in
  let median_ms repeats f = ms (median_time repeats f) in
  (* Each route runs in phases of its own, after a full collection, so
     it pays for its own garbage only. Phases alternate, three each,
     and each route keeps its fastest phase median, so one noisy
     stretch of the host does not decide the ratio. *)
  let best_phases_ms repeats f g =
    let phase h =
      Gc.full_major ();
      ignore (h ());
      median_ms repeats h
    in
    let rec go k (tf, tg) =
      if k = 0 then (tf, tg)
      else go (k - 1) (Float.min tf (phase f), Float.min tg (phase g))
    in
    go 3 (infinity, infinity)
  in
  row "%-10s %8s %9s %10s %14s %12s %8s %14s\n" "answer" "graphs" "distinct"
    "frame (kB)" "reference (ms)" "writer (ms)" "speedup" "decode (ms)";
  let measure name ~repeats docs q =
    let result = Gql.run_query ~docs q in
    let graphs = Eval.returned result in
    (* the route the writer replaced, rendering included *)
    let reference () =
      Protocol.encode
        (Protocol.Json.to_string
           (Protocol.query_response_to_json
              { head with qr_graphs = Server.render_graphs result }))
    in
    let writer () =
      fst
        (Protocol.query_response_frame ~max_frame:Protocol.default_max_frame
           head ~render:Graph.add_to_buffer ~same:Graph.prints_as graphs)
    in
    let frame = reference () in
    check (writer () = frame)
      "%s: the writer's frame differs from the reference route's"
      name;
    let texts = Server.render_graphs result in
    (match decode frame with
    | Ok r when r.Protocol.qr_graphs = texts -> ()
    | _ -> check false "%s: the decoded frame lost graphs" name);
    let t_ref, t_writer = best_phases_ms repeats reference writer in
    let t_decode = median_ms repeats (fun () -> decode frame) in
    let distinct = List.length (List.sort_uniq String.compare texts) in
    let kb = float_of_int (String.length frame) /. 1024.0 in
    let speedup = t_ref /. Float.max t_writer 1e-9 in
    row "%-10s %8d %9d %10.1f %14.3f %12.3f %7.1fx %14.3f\n" name
      (List.length graphs) distinct kb t_ref t_writer speedup t_decode;
    ( speedup,
      Json.Obj
        [
          ("graphs", Json.Int (List.length graphs));
          ("distinct_texts", Json.Int distinct);
          ("frame_kb", Json.Float kb);
          ("repeats", Json.Int repeats);
          ("reference_ms", Json.Float t_ref);
          ("writer_ms", Json.Float t_writer);
          ("decode_ms", Json.Float t_decode);
          ("speedup", Json.Float speedup);
        ] )
  in
  let chem = Chem.generate ~seed:2008 ~n_compounds:500 () in
  let speedup, chem_cells =
    measure "chem scan" ~repeats:(scale 200 1000)
      [ ("C", chem) ]
      {|for graph P { node a where label="C"; node b where label="O"; edge e (a, b); }
        exhaustive in doc("C") return graph { node P.a, P.b; edge f (P.a, P.b); };|}
  in
  let ppi, _, _ = Lazy.force ppi_env in
  let _, ppi_cells =
    measure "ppi edges" ~repeats:(scale 5 21)
      [ ("P", [ ppi ]) ]
      {|for graph P { node a; node b; edge e (a, b); }
        exhaustive in doc("P") return graph { node P.a, P.b; edge f (P.a, P.b); };|}
  in
  row
    "fastest of 3 alternating phase medians; the chem scan's writer must be \
     >= 3x faster (gate)\n";
  check (speedup >= 3.0)
    "writer only %.2fx faster than the reference route on the chem scan \
     (gate >= 3)"
    speedup;
  emit_json "wire"
    (Json.Obj [ ("chem_scan", chem_cells); ("ppi_edges", ppi_cells) ])

let experiments =
  [
    ("fig4.20", fig_4_20);
    ("fig4.21", fig_4_21);
    ("fig4.22", fig_4_22);
    ("fig4.23", fig_4_23);
    ("ablation", ablation);
    ("collection", collection);
    ("parallel", parallel);
    ("storage", storage);
    ("budget", budget_overhead);
    ("obs", obs_overhead);
    ("exec", exec);
    ("adaptive", adaptive);
    ("write", write_path);
    ("paths", paths);
    ("serve", serve_bench);
    ("micro", micro);
    ("views", views_bench);
    ("load", load_bench);
    ("wire", wire_bench);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    List.filter
      (fun a ->
        if a = "--full" then begin
          full_mode := true;
          false
        end
        else true)
      args
  in
  (* --json FILE: dump per-figure timing summaries after the run *)
  let json_file = ref None in
  let rec strip_json = function
    | "--json" :: file :: rest ->
      json_file := Some file;
      strip_json rest
    | [ "--json" ] ->
      prerr_endline "--json requires a file argument";
      exit 2
    | a :: rest -> a :: strip_json rest
    | [] -> []
  in
  let args = strip_json args in
  let selected =
    match args with
    | [] -> experiments
    | names ->
      List.map
        (fun n ->
          match List.assoc_opt n experiments with
          | Some f -> (n, f)
          | None ->
            Printf.eprintf "unknown experiment %s; available: %s\n" n
              (String.concat ", " (List.map fst experiments));
            exit 2)
        names
  in
  Printf.printf
    "GraphQL reproduction benchmarks (%s mode; pass --full for paper-scale counts)\n"
    (if !full_mode then "full" else "quick");
  let verdicts =
    List.map
      (fun (name, f) ->
        match time f with
        | (), elapsed ->
          Printf.printf "[%s completed in %.1f s]\n%!" name elapsed;
          (name, None)
        | exception Check_failed msg ->
          Printf.eprintf "FAIL: %s: %s\n%!" name msg;
          (name, Some msg))
      selected
  in
  Option.iter
    (fun file ->
      write_json ~mode:(if !full_mode then "full" else "quick") ~verdicts file;
      Printf.printf "[wrote %s]\n%!" file)
    !json_file;
  if List.exists (fun (_, v) -> v <> None) verdicts then exit 1
