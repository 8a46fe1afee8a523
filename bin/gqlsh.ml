(* gqlsh — command-line front end for the GraphQL library.

   gqlsh run QUERY.gql --doc DBLP=papers.gql        run a FLWR program
   gqlsh batch FILE.gql --doc ... --jobs N          run many queries, shared caches
   gqlsh match --pattern P.gql --graph G.gql        run the selection operator
   gqlsh explain QUERY.gql                          print the algebra expression
   gqlsh stats --graph G.gql                        graph statistics
   gqlsh store FILE.store                           inspect a disk store
   gqlsh gen ppi|er|dblp|chem [-o out.gql]          generate datasets
   gqlsh serve --listen ADDR --doc ...              socket query server
   gqlsh serve --listen ADDR --router --shards ...  scatter-gather router
   gqlsh client ADDR -e QUERY | --show-queries ...  wire-protocol client

   A .gql graph file is a sequence of named `graph ... { ... };`
   declarations; all of them form the collection.

   Exit codes (stable, asserted by the CLI tests): 0 success, 1 usage,
   2 parse error, 3 evaluation error, 4 corrupt store, 5 protocol
   error, 6 unsupported distributed query, 7 shard failure, 124
   deadline or budget stop. Every failure prints a one-line diagnostic
   on stderr — never a raw OCaml exception. *)

open Gql_core
open Gql_graph
module Budget = Gql_matcher.Budget
module View = Gql_exec.View
module Mount = Gql_exec.Mount

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_collection path = Gql.collection_of_string (read_file path)

(* Make persisted views readable by a standalone evaluation: each view
   becomes a [view("v")] collection in the doc set. Materialized views
   adopt their stored result graphs; plain views re-derive from the
   (already loaded) source collection. *)
let docs_with_views views docs =
  List.fold_left
    (fun docs v ->
      if not (View.materialized v) then
        View.attach v
          ~docs:(Option.value ~default:[] (List.assoc_opt (View.source v) docs));
      (Ast.view_source (View.name v), View.graphs v) :: docs)
    docs views

let strategy_of_string = function
  | "optimized" -> Gql_matcher.Engine.optimized
  | "baseline" -> Gql_matcher.Engine.baseline
  | "subgraphs" ->
    { Gql_matcher.Engine.optimized with retrieval = `Subgraphs }
  | s -> Error.raise_ (Error.Usage (Printf.sprintf "unknown strategy %S" s))

(* --domains N overrides the strategy's search-phase parallelism; the
   work-stealing engine only engages above 1. *)
let with_domains domains strategy =
  match domains with
  | None -> strategy
  | Some d when d >= 1 -> { strategy with Gql_matcher.Engine.search_domains = d }
  | Some d ->
    Error.raise_ (Error.Usage (Printf.sprintf "--domains must be >= 1, got %d" d))

(* A strategy override is only materialized when a flag asks for one —
   otherwise the evaluator keeps its own default. [--adaptive] alone
   must still force a strategy, or the flag would silently no-op. *)
let strategy_opt ~adaptive domains =
  if adaptive || Option.is_some domains then
    Some
      {
        (with_domains domains Gql_matcher.Engine.optimized) with
        Gql_matcher.Engine.adaptive;
      }
  else None

let budget_of timeout max_visited =
  match (timeout, max_visited) with
  | None, None -> None
  | _ ->
    (try Some (Budget.make ?deadline:timeout ?max_visited ()) with
    | Invalid_argument msg -> Error.raise_ (Error.Usage msg))

(* Uniform failure boundary: every command body runs under this, so the
   process always exits through the taxonomy's code, never an OCaml
   backtrace. *)
let guarded f =
  try f () with
  | Error.E t ->
    Format.eprintf "gqlsh: %s@." (Error.to_string t);
    Error.exit_code t
  | Failure msg | Invalid_argument msg ->
    Format.eprintf "gqlsh: %s@." msg;
    1
  | e ->
    (* library exceptions raised outside Gql.wrap (e.g. Codec.Corrupt
       from the store command) still map onto the taxonomy *)
    (match Error.classify e with
    | Some t ->
      Format.eprintf "gqlsh: %s@." (Error.to_string t);
      Error.exit_code t
    | None -> raise e)

(* A budget stop is reported on stderr and through exit code 124, but
   the partial results are still printed first — a deadline delivers
   what was found, it does not discard it. *)
let finish_with stopped what =
  match Error.of_stop_reason stopped what with
  | None -> 0
  | Some t ->
    Format.eprintf "gqlsh: %s (partial results above)@." (Error.to_string t);
    Error.exit_code t

(* --- run ---------------------------------------------------------------- *)

let run_cmd query_file docs domains adaptive timeout max_visited verbose =
  guarded (fun () ->
      let mounts, docs = Mount.open_docs docs in
      Fun.protect
        ~finally:(fun () -> Mount.close_all mounts)
        (fun () ->
          let docs = docs_with_views (Mount.views mounts) docs in
          let strategy = strategy_opt ~adaptive domains in
          (* the deadline clock starts after the inputs are loaded: it
             governs query execution, not file parsing *)
          let budget = budget_of timeout max_visited in
          let result =
            Gql.run_query ~docs ?strategy ?budget ~writer:(Mount.persist mounts)
              (read_file query_file)
          in
          List.iter
            (fun (name, g) ->
              Format.printf "-- variable %s --@.%a@.@." name Graph.pp g)
            (List.rev result.Eval.vars);
          let returned = Eval.returned result in
          if returned <> [] then begin
            Format.printf "-- returned %d graph(s) --@." (List.length returned);
            if verbose then
              List.iter (fun g -> Format.printf "%a@.@." Graph.pp g) returned
          end;
          if result.Eval.writes > 0 then
            Format.printf "-- applied %d write(s) --@." result.Eval.writes;
          finish_with result.Eval.stopped "query"))

(* --- batch -------------------------------------------------------------- *)

(* A batch file is a sequence of FLWR programs separated by lines whose
   first non-blank characters are `---` (a YAML-ish document break that
   is not valid GraphQL, so it can never appear inside a query). *)
let split_batch src =
  let is_sep line =
    let t = String.trim line in
    String.length t >= 3 && String.sub t 0 3 = "---"
  in
  let finish acc cur =
    let q = String.trim (String.concat "\n" (List.rev cur)) in
    if q = "" then acc else q :: acc
  in
  let acc, cur =
    List.fold_left
      (fun (acc, cur) line ->
        if is_sep line then (finish acc cur, []) else (acc, line :: cur))
      ([], [])
      (String.split_on_char '\n' src)
  in
  List.rev (finish acc cur)

module Json = Gql_exec.Protocol.Json

let print_json v = print_endline (Json.to_string v)

let batch_cmd batch_file docs jobs domains quantum timeout wait_watermark json
    verbose =
  guarded (fun () ->
      let module Service = Gql_exec.Service in
      let module M = Gql_obs.Metrics in
      let queries = split_batch (read_file batch_file) in
      if queries = [] then
        Error.raise_ (Error.Usage "batch file contains no queries");
      let strategy = strategy_opt ~adaptive:false domains in
      let mounts, docs = Mount.open_docs docs in
      let t0 = Unix.gettimeofday () in
      let outcomes, svc =
        Fun.protect
          ~finally:(fun () -> Mount.close_all mounts)
          (fun () ->
            let svc =
              Service.create ?jobs ?quantum ?strategy ~docs
                ~on_write:(Mount.persist mounts) ()
            in
            List.iter (Service.install_view svc) (Mount.views mounts);
            List.iter
              (fun q ->
                (* --wait-watermark: every query waits for all writes
                   staged before it — read-your-writes across the batch *)
                let after =
                  if wait_watermark then Some (Service.watermark svc) else None
                in
                ignore (Service.submit svc ?deadline:timeout ?after q))
              queries;
            let outcomes = Service.drain svc in
            Service.shutdown svc;
            (outcomes, svc))
      in
      let wall_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
      let exit_code = ref 0 in
      let prefer code =
        (* failures outrank deadlines outrank success; first one wins
           within its class so reruns are stable *)
        let rank c = match c with 0 -> 0 | 124 -> 1 | _ -> 2 in
        if rank code > rank !exit_code then exit_code := code
      in
      List.iter
        (fun o ->
          (match o.Service.o_status with
          | Service.Done r -> (
            match Error.of_stop_reason r.Eval.stopped "query" with
            | None -> ()
            | Some t -> prefer (Error.exit_code t))
          | Service.Rejected _ -> prefer 124
          | Service.Failed t -> prefer (Error.exit_code t));
          if json then
            print_json
              (Json.Obj
                 ([
                    ("id", Json.Int o.Service.o_id);
                    ("yields", Json.Int o.Service.o_yields);
                    ("ms", Json.Float o.Service.o_wall_ms);
                  ]
                 @
                 match o.Service.o_status with
                 | Service.Done r ->
                   [
                     ("status", Json.Str "ok");
                     ( "stopped",
                       Json.Str (Budget.stop_reason_to_string r.Eval.stopped) );
                     ("returned", Json.Int (List.length (Eval.returned r)));
                     ("vars", Json.Int (List.length r.Eval.vars));
                     ("writes", Json.Int r.Eval.writes);
                   ]
                 | Service.Rejected reason ->
                   [
                     ("status", Json.Str "rejected");
                     ("reason", Json.Str (Budget.stop_reason_to_string reason));
                   ]
                 | Service.Failed t ->
                   [
                     ("status", Json.Str "error");
                     ("error", Json.Str (Error.to_string t));
                   ]))
          else
            match o.Service.o_status with
            | Service.Done r ->
              Format.printf
                "query %d: %d graph(s) returned, %d var(s)%s (%s, %d \
                 yield(s), %.2f ms)@."
                o.Service.o_id
                (List.length (Eval.returned r))
                (List.length r.Eval.vars)
                (if r.Eval.writes > 0 then
                   Printf.sprintf ", %d write(s)" r.Eval.writes
                 else "")
                (Budget.stop_reason_to_string r.Eval.stopped)
                o.Service.o_yields o.Service.o_wall_ms;
              if verbose then
                List.iter
                  (fun g -> Format.printf "%a@.@." Graph.pp g)
                  (Eval.returned r)
            | Service.Rejected reason ->
              Format.printf "query %d: rejected (%s before start)@."
                o.Service.o_id
                (Budget.stop_reason_to_string reason)
            | Service.Failed t ->
              Format.printf "query %d: error: %s@." o.Service.o_id
                (Error.to_string t))
        outcomes;
      let agg = Service.metrics svc in
      let c k = M.get agg k in
      if json then begin
        let counts keys =
          Json.Obj (List.map (fun (k, m) -> (k, Json.Int (c m))) keys)
        in
        print_json
          (Json.Obj
             [
               ( "batch",
                 Json.Obj
                   [
                     ("queries", Json.Int (List.length outcomes));
                     ("wall_ms", Json.Float wall_ms);
                     ( "cache",
                       counts
                         [
                           ("hit", M.Exec_cache_hit);
                           ("miss", M.Exec_cache_miss);
                           ("evictions", M.Exec_cache_evictions);
                           ("index_updates", M.Index_incremental);
                         ] );
                     ( "queue",
                       counts
                         [
                           ("submitted", M.Exec_queue_submitted);
                           ("completed", M.Exec_queue_completed);
                           ("yields", M.Exec_queue_yields);
                           ("deadline_stops", M.Exec_queue_deadline_stops);
                           ("watermark_waits", M.Exec_watermark_waits);
                         ] );
                     ("writes", Json.Int (c M.Exec_writes));
                   ] );
             ])
      end
      else
        Format.printf
          "batch: %d quer(ies) in %.2f ms — cache %d hit / %d miss, queue %d \
           yield(s), %d deadline stop(s), %d write(s)@."
          (List.length outcomes) wall_ms (c M.Exec_cache_hit)
          (c M.Exec_cache_miss) (c M.Exec_queue_yields)
          (c M.Exec_queue_deadline_stops) (c M.Exec_writes);
      !exit_code)

(* --- match -------------------------------------------------------------- *)

let match_cmd pattern_file graph_file strategy domains adaptive exhaustive
    limit timeout max_visited verbose =
  guarded (fun () ->
      let strategy =
        {
          (with_domains domains (strategy_of_string strategy)) with
          Gql_matcher.Engine.adaptive;
        }
      in
      let graphs = load_collection graph_file in
      let patterns = Gql.patterns_of_string (read_file pattern_file) in
      let entries = List.map (fun g -> Algebra.G g) graphs in
      let budget = budget_of timeout max_visited in
      let t0 = Unix.gettimeofday () in
      let matches, stopped =
        Algebra.select_governed ~strategy ~exhaustive ?limit ?budget
          ~patterns:(List.map Gql_matcher.Rpq.flat patterns) entries
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      Format.printf "%d match(es) in %.2f ms@." (List.length matches)
        (1000.0 *. elapsed);
      if verbose then
        List.iter
          (function
            | Algebra.M m -> Format.printf "%a@.@." Graph.pp (Matched.to_graph m)
            | Algebra.G _ -> ())
          matches;
      finish_with stopped "match")

(* --- explain ------------------------------------------------------------ *)

let explain_cmd query_file analyze json docs domains adaptive timeout
    max_visited =
  guarded (fun () ->
      let program = Gql.parse_program (read_file query_file) in
      if not analyze then begin
        if json then
          Error.raise_ (Error.Usage "--json requires --analyze");
        Format.printf "%a@." Plan.pp (Plan.compile program);
        0
      end
      else begin
        (* EXPLAIN ANALYZE: actually execute the program with metrics
           enabled and report the span tree + counters. Doc loading runs
           inside the instrumented window so store traffic is visible;
           the deadline clock still starts at query execution. *)
        let module M = Gql_obs.Metrics in
        let metrics = M.create () in
        let docs, views =
          M.with_span metrics "load" (fun () ->
              let mounts, docs = Mount.open_docs ~metrics docs in
              let views = Mount.views mounts in
              Mount.close_all mounts;
              (docs, views))
        in
        let docs = docs_with_views views docs in
        let view_reads =
          List.length
            (List.filter
               (function
                 | Ast.Sflwr { Ast.f_source = s; _ }
                 | Ast.Spath { Ast.q_source = s; _ } ->
                   Ast.view_of_source s <> None
                 | _ -> false)
               program)
        in
        M.add metrics M.Views_reads view_reads;
        let strategy = strategy_opt ~adaptive domains in
        let budget = budget_of timeout max_visited in
        let result =
          M.with_span metrics "query" (fun () ->
              Eval.run ~docs ?strategy ?budget ~metrics program)
        in
        if json then print_string (M.to_json metrics)
        else begin
          Format.printf "%a@.@." Plan.pp (Plan.compile program);
          Format.printf "%a" M.pp metrics;
          if views <> [] then begin
            Format.printf "@.views:@.";
            List.iter
              (fun v ->
                Format.printf "  %s%s over %a: epoch %d, %d graph(s), %s@."
                  (View.name v)
                  (if View.materialized v then " (materialized)" else "")
                  Ast.pp_source (View.source v) (View.epoch v)
                  (List.length (View.graphs v))
                  (if View.incremental v then "delta-maintained"
                   else "re-evaluated on write"))
              views
          end
        end;
        finish_with result.Eval.stopped "query"
      end)

(* --- stats -------------------------------------------------------------- *)

let stats_cmd graph_file =
  guarded (fun () ->
      List.iter
        (fun g ->
          let idx = Gql_index.Label_index.build g in
          Format.printf "graph %s: %d nodes, %d edges, %d labels@."
            (Option.value (Graph.name g) ~default:"<anonymous>")
            (Graph.n_nodes g) (Graph.n_edges g)
            (Gql_index.Label_index.distinct_labels idx);
          let degrees = List.init (Graph.n_nodes g) (Graph.degree g) in
          let dmax = List.fold_left max 0 degrees in
          let dsum = List.fold_left ( + ) 0 degrees in
          if Graph.n_nodes g > 0 then
            Format.printf "  mean degree %.2f, max degree %d@."
              (float_of_int dsum /. float_of_int (Graph.n_nodes g))
              dmax;
          match Gql_index.Label_index.top_frequent idx 5 with
          | [] -> ()
          | top ->
            Format.printf "  top labels:";
            List.iter
              (fun l ->
                Format.printf " %s(%d)" l (Gql_index.Label_index.frequency idx l))
              top;
            Format.printf "@.")
        (load_collection graph_file);
      0)

(* --- store -------------------------------------------------------------- *)

let store_import store_file gql_file =
  let graphs = load_collection gql_file in
  let store = Gql_storage.Store.create store_file in
  Fun.protect
    ~finally:(fun () -> Gql_storage.Store.close store)
    (fun () ->
      List.iter
        (fun g -> ignore (Gql_storage.Store.add_graph store g))
        graphs);
  Format.printf "imported %d graph(s) into %s@." (List.length graphs)
    store_file;
  0

let store_cmd store_file import verify =
  guarded (fun () ->
      match import with
      | Some gql_file -> store_import store_file gql_file
      | None ->
      let store = Gql_storage.Store.open_existing store_file in
      Fun.protect
        ~finally:(fun () -> Gql_storage.Store.close store)
        (fun () ->
          let n = Gql_storage.Store.live_count store in
          Format.printf "store %s: %d graph(s)@." store_file n;
          let txns = Gql_storage.Store.txn_count store in
          if txns > 0 then
            Format.printf
              "  %d transaction record(s) applied (%d durable)@." txns
              (Gql_storage.Store.durable_txn_count store);
          (match Gql_storage.Store.views store with
          | [] -> ()
          | vs ->
            List.iter
              (fun (name, blob) ->
                let deltas = Gql_storage.Store.view_deltas store name in
                match View.decode ~deltas ~name blob with
                | v ->
                  Format.printf
                    "  view %s%s over %a: epoch %d, %d stored graph(s), %d \
                     byte(s), %d delta record(s) (%d byte(s))@."
                    name
                    (if View.materialized v then " (materialized)" else "")
                    Ast.pp_source (View.source v) (View.epoch v)
                    (List.length (View.graphs v))
                    (String.length blob) (List.length deltas)
                    (List.fold_left (fun a d -> a + String.length d) 0 deltas)
                | exception _ ->
                  (* the record's CRC held but the definition text no
                     longer parses — report, don't fail the summary *)
                  Format.printf "  view %s: unreadable definition (%d byte(s))@."
                    name (String.length blob))
              vs);
          if verify then begin
            let records = Gql_storage.Store.verify store in
            Format.printf "  verified: %d committed record(s), every CRC good@."
              records
          end;
          (match Gql_storage.Store.recovery store with
          | None -> ()
          | Some r ->
            Format.printf
              "  recovered from a torn tail: %d record(s) salvaged%s, %d \
               record(s) / %d byte(s) dropped@."
              r.Gql_storage.Store.salvaged
              (if r.Gql_storage.Store.salvaged_txns > 0 then
                 Printf.sprintf " (%d transaction(s))"
                   r.Gql_storage.Store.salvaged_txns
               else "")
              r.Gql_storage.Store.dropped_records
              r.Gql_storage.Store.dropped_bytes);
          Gql_storage.Store.iter store ~f:(fun i g ->
              Format.printf "  [%d] %s: %d nodes, %d edges@." i
                (Option.value (Graph.name g) ~default:"<anonymous>")
                (Graph.n_nodes g) (Graph.n_edges g));
          0))

(* --- gen ---------------------------------------------------------------- *)

let gen_cmd kind seed out =
  guarded (fun () ->
      let graphs =
        match kind with
        | "ppi" -> [ Gql_datasets.Ppi.generate ~seed () ]
        | "er" ->
          [ Gql_datasets.Synthetic.erdos_renyi (Gql_datasets.Rng.create seed)
              ~n:1000 ~m:5000 |> fun g -> Graph.with_name g (Some "er") ]
        | "dblp" -> Gql_datasets.Dblp.generate ~seed ~n_papers:100 ()
        | "chem" -> Gql_datasets.Chem.generate ~seed ~n_compounds:50 ()
        | k ->
          Error.raise_
            (Error.Usage (Printf.sprintf "unknown dataset %S (ppi|er|dblp|chem)" k))
      in
      let print ppf =
        List.iteri
          (fun i g ->
            let g =
              if Graph.name g = None then
                Graph.with_name g (Some (Printf.sprintf "g%d" i))
              else g
            in
            Format.fprintf ppf "%a;@.@." Graph.pp g)
          graphs
      in
      (match out with
      | None -> print Format.std_formatter
      | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> print (Format.formatter_of_out_channel oc));
        Printf.printf "wrote %d graph(s) to %s\n" (List.length graphs) path);
      0)

(* --- serve -------------------------------------------------------------- *)

(* --partition i/n keeps only the graphs at collection positions ≡ i
   (mod n) of every doc — the disjoint slice a shard owns. Deterministic
   and order-based, so n shards loading the same files cover every
   graph exactly once. *)
let parse_partition spec =
  match String.split_on_char '/' spec with
  | [ i; n ] -> (
    match (int_of_string_opt i, int_of_string_opt n) with
    | Some i, Some n when n >= 1 && i >= 0 && i < n -> (i, n)
    | _ ->
      Error.raise_
        (Error.Usage
           (Printf.sprintf "bad --partition %S: want I/N with 0 <= I < N" spec)))
  | _ ->
    Error.raise_
      (Error.Usage (Printf.sprintf "bad --partition %S: want I/N" spec))

let partition_docs (i, n) docs =
  List.map
    (fun (name, gs) ->
      (name, List.filteri (fun pos _ -> pos mod n = i) gs))
    docs

let serve_cmd listen docs jobs quantum max_inflight partition router shards
    shard_timeout pool verbose =
  guarded (fun () ->
      let module Service = Gql_exec.Service in
      let module Server = Gql_exec.Server in
      let log =
        if verbose then fun s -> Printf.eprintf "gqlsh serve: %s\n%!" s
        else fun _ -> ()
      in
      if router then begin
        let shards =
          List.concat_map (String.split_on_char ',') shards
          |> List.filter (fun s -> s <> "")
        in
        if shards = [] then
          Error.raise_ (Error.Usage "--router requires --shards ADDR,ADDR,...");
        let r = Gql_exec.Router.connect ?timeout:shard_timeout ~pool shards in
        let server =
          Server.create ~max_inflight ~log (Server.Routed r) ~addr:listen
        in
        Printf.printf
          "gqlsh serve: router on %s over %d shard(s), pool %d\n%!" listen
          (List.length shards) pool;
        Server.serve_forever server;
        0
      end
      else begin
        let part = Option.map parse_partition partition in
        let mounts, docs = Mount.open_docs docs in
        (match part with
        | Some _
          when List.exists (fun m -> Option.is_some (Mount.store m)) mounts ->
          (* a partitioned shard sees a filtered doc list, so the
             position -> gid mapping persistence relies on would be
             wrong; shards serve text snapshots for now *)
          Error.raise_
            (Error.Usage "--partition requires .gql docs (not .store)")
        | _ -> ());
        let docs =
          match part with None -> docs | Some p -> partition_docs p docs
        in
        Fun.protect
          ~finally:(fun () -> Mount.close_all mounts)
          (fun () ->
            let svc =
              Service.create ?jobs ?quantum ~docs
                ~on_write:(Mount.persist mounts) ()
            in
            List.iter (Service.install_view svc) (Mount.views mounts);
            let server =
              Server.create ~max_inflight ~log (Server.Local svc) ~addr:listen
            in
            Printf.printf "gqlsh serve: listening on %s (%d graph(s)%s)\n%!"
              listen
              (List.fold_left (fun acc (_, gs) -> acc + List.length gs) 0 docs)
              (match part with
              | Some (i, n) -> Printf.sprintf ", partition %d/%d" i n
              | None -> "");
            Server.serve_forever server;
            ignore (Service.drain svc);
            Service.shutdown svc;
            0)
      end)

(* --- client ------------------------------------------------------------- *)

let client_cmd addr query_file expr show_queries kill_qid ping shutdown
    deadline wait_watermark timeout json_out verbose =
  guarded (fun () ->
      let module Client = Gql_exec.Client in
      let module Protocol = Gql_exec.Protocol in
      let conn = Client.connect ?timeout addr in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          (* a non-query response's exit path: the wire status decides *)
          let finish_status json =
            match Option.bind (Json.member "status" json) Json.str with
            | Some "ok" -> 0
            | Some st ->
              let msg =
                Option.value ~default:st
                  (Option.bind (Json.member "error" json) Json.str)
              in
              let err =
                Option.value
                  (Error.of_wire_status st ~msg)
                  ~default:(Error.Protocol ("unknown wire status " ^ st))
              in
              Format.eprintf "gqlsh: %s@." (Error.to_string err);
              Error.exit_code err
            | None ->
              Error.raise_ (Error.Protocol "response carries no status")
          in
          match (query_file, expr, show_queries, kill_qid, ping, shutdown) with
          | None, None, true, None, false, false ->
            let json = Client.call conn (Protocol.Show_queries { q_id = 0 }) in
            if json_out then print_json json
            else
              (match Option.bind (Json.member "queries" json) Json.list with
              | None -> ()
              | Some qs ->
                Printf.printf "%d quer(ies) in flight\n" (List.length qs);
                List.iter
                  (fun q ->
                    let geti f = Option.bind (Json.member f q) Json.int in
                    let gets f = Option.bind (Json.member f q) Json.str in
                    let getf f = Option.bind (Json.member f q) Json.float in
                    Printf.printf "  qid %d session %d age %.0f ms%s: %s\n"
                      (Option.value ~default:(-1) (geti "qid"))
                      (Option.value ~default:(-1) (geti "session"))
                      (Option.value ~default:0.0 (getf "age_ms"))
                      (match gets "shard" with
                      | Some s -> " shard " ^ s
                      | None -> "")
                      (Option.value ~default:"?" (gets "query")))
                  qs);
            finish_status json
          | None, None, false, Some qid, false, false ->
            let json =
              Client.call conn (Protocol.Kill { q_id = 0; q_target = qid })
            in
            if json_out then print_json json
            else
              Printf.printf "kill query %d: %s\n" qid
                (match Option.bind (Json.member "killed" json) Json.bool with
                | Some true -> "killed"
                | _ -> "not found");
            finish_status json
          | None, None, false, None, true, false ->
            let json = Client.call conn (Protocol.Ping { q_id = 0 }) in
            if json_out then print_json json else print_endline "pong";
            finish_status json
          | None, None, false, None, false, true ->
            let json = Client.call conn (Protocol.Shutdown { q_id = 0 }) in
            if json_out then print_json json
            else print_endline "server stopping";
            finish_status json
          | query_file, expr, false, None, false, false -> (
            let src =
              match (query_file, expr) with
              | Some f, None -> read_file f
              | None, Some e -> e
              | _ ->
                Error.raise_
                  (Error.Usage
                     "exactly one of QUERY.gql, -e, --show-queries, --kill, \
                      --ping, --shutdown")
            in
            let resp = Client.query conn ?deadline ~wait_watermark src in
            if json_out then print_json (Protocol.query_response_to_json resp)
            else begin
              Printf.printf
                "%d graph(s) returned (%s, %.2f ms, %d shard(s))\n"
                (List.length resp.Protocol.qr_graphs)
                resp.Protocol.qr_stopped resp.Protocol.qr_wall_ms
                resp.Protocol.qr_shards_ok;
              if resp.Protocol.qr_writes > 0 then
                Printf.printf "-- applied %d write(s) --\n"
                  resp.Protocol.qr_writes;
              if verbose then
                List.iter
                  (fun g -> Printf.printf "%s\n\n" g)
                  resp.Protocol.qr_graphs
            end;
            match resp.Protocol.qr_status with
            | "ok" -> 0
            | st ->
              let msg =
                Option.value ~default:st resp.Protocol.qr_error
              in
              let err =
                Option.value
                  (Error.of_wire_status st ~msg)
                  ~default:(Error.Protocol ("unknown wire status " ^ st))
              in
              Format.eprintf "gqlsh: %s%s@." (Error.to_string err)
                (if resp.Protocol.qr_graphs <> [] then
                   " (partial results above)"
                 else "");
              Error.exit_code err)
          | _ ->
            Error.raise_
              (Error.Usage
                 "exactly one of QUERY.gql, -e, --show-queries, --kill, \
                  --ping, --shutdown")))

(* --- cmdliner wiring ------------------------------------------------------ *)

open Cmdliner

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECS"
        ~doc:
          "Wall-clock deadline for query execution. On expiry the matches \
           found so far are printed and the exit code is 124.")

let max_visited_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-visited" ] ~docv:"N"
        ~doc:
          "Per-search budget of search-tree expansions (Check calls); exit \
           code 124 when a search is stopped by it.")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Domains for the search phase of each pattern match (default 1). \
           Above 1 every search runs on the work-stealing parallel engine; \
           for batch, that is every search of every query.")

let adaptive_arg =
  Arg.(
    value
    & flag
    & info [ "adaptive" ]
        ~doc:
          "Adaptive mid-query re-planning: track observed vs estimated \
           fan-out per search-order position and re-order the remaining \
           suffix when they diverge. Same match set, better orders on \
           skewed data.")

let run_term =
  let query = Arg.(required & pos 0 (some file) None & info [] ~docv:"QUERY.gql") in
  let docs =
    Arg.(value & opt_all string [] & info [ "doc" ] ~docv:"NAME=FILE"
           ~doc:"Bind a doc(\"NAME\") collection to a graph file. Repeatable.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print returned graphs.") in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Evaluate a GraphQL program: FLWR expressions, DML, and path \
          queries. $(b,find [shortest] path from <decl> to <decl> [over \
          <tuple> *k..m] in doc(\"D\");) returns one shortest witness walk \
          per reachable endpoint pair; $(b,get subgraph from <decl> within \
          N in doc(\"D\");) returns the radius-N neighborhood of each \
          matching node. Patterns may use edge repetition: $(b,edge (a,b) \
          *3) for exactly 3 hops, $(b,*1..4) for a bounded range, \
          $(b,*1..) for unbounded reachability (evaluated by the RPQ \
          engine, never unrolled).")
    Term.(
      const run_cmd $ query $ docs $ domains_arg $ adaptive_arg $ timeout_arg
      $ max_visited_arg $ verbose)

let batch_term =
  let batch =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"BATCH.gql"
           ~doc:"Queries separated by `---` lines.")
  in
  let docs =
    Arg.(value & opt_all string [] & info [ "doc" ] ~docv:"NAME=FILE"
           ~doc:"Bind a doc(\"NAME\") collection to a graph file or .store. \
                 Repeatable; shared by every query of the batch.")
  in
  let jobs =
    Arg.(value & opt (some int) None & info [ "jobs" ] ~docv:"N"
           ~doc:"Worker domains (default: the recommended domain count).")
  in
  let quantum =
    Arg.(value & opt (some int) None & info [ "quantum" ] ~docv:"NODES"
           ~doc:"Visited-node slice before a query yields to queued work \
                 (default 4096).")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Stream one JSON object per query, then a batch summary \
                 with the exec.cache.* / exec.queue.* counters.")
  in
  let wait_watermark =
    Arg.(value & flag & info [ "wait-watermark" ]
           ~doc:"Gate every query on the log watermark of all previously \
                 submitted writes (read-your-writes across the batch). \
                 Without it, pure reads run on the document snapshot \
                 current when they start; DML queries always serialize.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print returned graphs.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Run many queries against one document set on the concurrent \
             query service (shared caches, fair scheduling, per-query \
             deadlines); writes persist to .store-backed docs")
    Term.(
      const batch_cmd $ batch $ docs $ jobs $ domains_arg $ quantum
      $ timeout_arg $ wait_watermark $ json $ verbose)

let match_term =
  let pattern =
    Arg.(required & opt (some file) None & info [ "pattern" ] ~docv:"P.gql"
           ~doc:"Graph pattern file.")
  in
  let graph =
    Arg.(required & opt (some file) None & info [ "graph" ] ~docv:"G.gql"
           ~doc:"Graph collection file.")
  in
  let strategy =
    Arg.(value & opt string "optimized" & info [ "strategy" ]
           ~doc:"Access method: optimized, baseline or subgraphs.")
  in
  let exhaustive =
    Arg.(value & flag & info [ "exhaustive" ] ~doc:"Return all mappings (default: first per graph).")
  in
  let limit =
    Arg.(value & opt (some int) None & info [ "limit" ] ~doc:"Stop after this many matches.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print matched subgraphs.") in
  Cmd.v
    (Cmd.info "match" ~doc:"Run the selection operator (graph pattern matching)")
    Term.(
      const match_cmd $ pattern $ graph $ strategy $ domains_arg $ adaptive_arg
      $ exhaustive $ limit $ timeout_arg $ max_visited_arg $ verbose)

let docs_arg =
  Arg.(value & opt_all string [] & info [ "doc" ] ~docv:"NAME=FILE"
         ~doc:"Bind a doc(\"NAME\") collection to a .gql graph file or a \
               .store disk store. Repeatable.")

let explain_term =
  let query = Arg.(required & pos 0 (some file) None & info [] ~docv:"QUERY.gql") in
  let analyze =
    Arg.(value & flag & info [ "analyze" ]
           ~doc:"Execute the program with instrumentation and print the \
                 per-phase span tree, counters and histograms after the plan.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"With --analyze: print the metrics report as JSON \
                 (schema gql-obs/v1) instead of text.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Print the algebra expression a program compiles to (§3.4); with \
             --analyze, execute it and report observed spans and counters")
    Term.(
      const explain_cmd $ query $ analyze $ json $ docs_arg $ domains_arg
      $ adaptive_arg $ timeout_arg $ max_visited_arg)

let stats_term =
  let graph = Arg.(required & pos 0 (some file) None & info [] ~docv:"G.gql") in
  Cmd.v (Cmd.info "stats" ~doc:"Print collection statistics")
    Term.(const stats_cmd $ graph)

let store_term =
  let store = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE.store") in
  let import =
    Arg.(value & opt (some file) None & info [ "import" ] ~docv:"G.gql"
           ~doc:"Create (or overwrite) the store from a .gql collection \
                 instead of inspecting it.")
  in
  let verify =
    Arg.(value & flag & info [ "verify" ]
           ~doc:"Re-read every committed record (graphs, transactions, aux \
                 blobs and view records) and check its CRC; exit 4 on the \
                 first mismatch.")
  in
  Cmd.v
    (Cmd.info "store"
       ~doc:"Inspect a disk store (recovers from a torn tail if needed), or \
             build one with --import")
    Term.(const store_cmd $ store $ import $ verify)

let gen_term =
  let kind = Arg.(required & pos 0 (some string) None & info [] ~docv:"DATASET") in
  let seed = Arg.(value & opt int 2008 & info [ "seed" ] ~doc:"Generator seed.") in
  let out = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a dataset (ppi, er, dblp, chem) in GraphQL syntax")
    Term.(const gen_cmd $ kind $ seed $ out)

let serve_term =
  let listen =
    Arg.(required & opt (some string) None & info [ "listen" ] ~docv:"ADDR"
           ~doc:"Listen address: a unix-socket path (or unix:PATH) or \
                 HOST:PORT.")
  in
  let jobs =
    Arg.(value & opt (some int) None & info [ "jobs" ] ~docv:"N"
           ~doc:"Worker domains of the query pool.")
  in
  let quantum =
    Arg.(value & opt (some int) None & info [ "quantum" ] ~docv:"NODES"
           ~doc:"Per-slice visited-node allowance before a query yields.")
  in
  let max_inflight =
    Arg.(value & opt int 64 & info [ "max-inflight" ] ~docv:"N"
           ~doc:"Admission bound on concurrently running queries; excess \
                 submissions fail fast with a typed error.")
  in
  let partition =
    Arg.(value & opt (some string) None & info [ "partition" ] ~docv:"I/N"
           ~doc:"Serve only the graphs at collection positions ≡ I (mod N) \
                 of each doc — this process's shard of an N-way partition.")
  in
  let router =
    Arg.(value & flag & info [ "router" ]
           ~doc:"Scatter-gather front end: forward each query to every \
                 --shards server and merge selection results by union. \
                 Composition/joins answer with a typed \
                 unsupported-distributed error.")
  in
  let shards =
    Arg.(value & opt_all string [] & info [ "shards" ] ~docv:"ADDR,ADDR"
           ~doc:"Shard addresses for --router (comma-separated, repeatable).")
  in
  let shard_timeout =
    Arg.(value & opt (some float) None & info [ "shard-timeout" ] ~docv:"SECS"
           ~doc:"Receive timeout per shard (default 30): a shard silent \
                 past it is degraded to a typed shard-failure, never a hang.")
  in
  let pool =
    Arg.(value & opt int 2 & info [ "pool" ] ~docv:"N"
           ~doc:"With --router: wire connections per shard (default 2). \
                 Concurrent queries to the same shard run on separate \
                 pooled connections instead of serializing; a failed call \
                 still poisons only its own connection.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ]
           ~doc:"Log connections, kills and shutdown on stderr.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve queries over a socket: length-prefixed JSON frames \
             (CRC'd header), per-query deadlines and cancellation \
             ($(b,show queries) / $(b,kill)), read-your-writes via \
             --wait-watermark; or route across shard servers with \
             --router --shards")
    Term.(
      const serve_cmd $ listen $ docs_arg $ jobs $ quantum $ max_inflight
      $ partition $ router $ shards $ shard_timeout $ pool $ verbose)

let client_term =
  let addr =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ADDR"
           ~doc:"Server address: unix-socket path or HOST:PORT.")
  in
  let query =
    Arg.(value & pos 1 (some file) None & info [] ~docv:"QUERY.gql")
  in
  let expr =
    Arg.(value & opt (some string) None & info [ "e" ] ~docv:"QUERY"
           ~doc:"Query text inline instead of a file.")
  in
  let show_queries =
    Arg.(value & flag & info [ "show-queries" ]
           ~doc:"List the queries in flight on the server.")
  in
  let kill =
    Arg.(value & opt (some int) None & info [ "kill" ] ~docv:"QID"
           ~doc:"Cancel a running query by its qid (from --show-queries).")
  in
  let ping = Arg.(value & flag & info [ "ping" ] ~doc:"Health check.") in
  let shutdown =
    Arg.(value & flag & info [ "shutdown" ]
           ~doc:"Ask the server to drain and exit.")
  in
  let deadline =
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECS"
           ~doc:"Per-query deadline, applied at admission on the server — \
                 queue wait counts. Exit 124 on expiry, partial results \
                 included.")
  in
  let wait_watermark =
    Arg.(value & flag & info [ "wait-watermark" ]
           ~doc:"Gate the query on all writes staged before it \
                 (read-your-writes).")
  in
  let timeout =
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECS"
           ~doc:"Client-side receive timeout; a silent server fails the \
                 call instead of hanging.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the raw response JSON.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print returned graphs.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Talk to a gqlsh serve instance: run a query, list or kill \
             running queries, ping, or shut the server down")
    Term.(
      const client_cmd $ addr $ query $ expr $ show_queries $ kill $ ping
      $ shutdown $ deadline $ wait_watermark $ timeout $ json $ verbose)

let () =
  let info =
    Cmd.info "gqlsh" ~version:"1.0.0"
      ~doc:"GraphQL: graphs-at-a-time queries over graph databases"
  in
  let group =
    Cmd.group info
      [
        run_term;
        batch_term;
        match_term;
        explain_term;
        stats_term;
        store_term;
        gen_term;
        serve_term;
        client_term;
      ]
  in
  (* eval_value, not eval: cmdliner's own CLI-error code is 124, which
     this front end reserves for deadlines — usage problems must be 1. *)
  exit
    (match Cmd.eval_value group with
    | Ok (`Ok code) -> code
    | Ok (`Version | `Help) -> 0
    | Error (`Parse | `Term) -> 1
    | Error `Exn -> 125)
