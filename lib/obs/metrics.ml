type counter =
  | Retrieval_scanned
  | Retrieval_candidates
  | Profile_hits
  | Profile_misses
  | Refine_levels
  | Refine_pairs_checked
  | Refine_removed
  | Search_visited
  | Search_backtracks
  | Search_matches
  | Parallel_steals
  | Parallel_tasks_spawned
  | Parallel_idle_polls
  | Pages_read
  | Pages_written
  | Pool_hits
  | Pool_misses
  | Pool_evictions
  | Exec_cache_hit
  | Exec_cache_miss
  | Exec_cache_evictions
  | Exec_queue_submitted
  | Exec_queue_completed
  | Exec_queue_yields
  | Exec_queue_deadline_stops
  | Planner_replans
  | Exec_plan_stale
  | Exec_writes
  | Exec_watermark_waits
  | Storage_txn_appended
  | Index_incremental
  | Rpq_segments_checked
  | Rpq_fast_path
  | Rpq_product_visited
  | Views_incremental
  | Views_full
  | Views_reads

let counter_index = function
  | Retrieval_scanned -> 0
  | Retrieval_candidates -> 1
  | Profile_hits -> 2
  | Profile_misses -> 3
  | Refine_levels -> 4
  | Refine_pairs_checked -> 5
  | Refine_removed -> 6
  | Search_visited -> 7
  | Search_backtracks -> 8
  | Search_matches -> 9
  | Parallel_steals -> 10
  | Parallel_tasks_spawned -> 11
  | Parallel_idle_polls -> 12
  | Pages_read -> 13
  | Pages_written -> 14
  | Pool_hits -> 15
  | Pool_misses -> 16
  | Pool_evictions -> 17
  | Exec_cache_hit -> 18
  | Exec_cache_miss -> 19
  | Exec_cache_evictions -> 20
  | Exec_queue_submitted -> 21
  | Exec_queue_completed -> 22
  | Exec_queue_yields -> 23
  | Exec_queue_deadline_stops -> 24
  | Planner_replans -> 25
  | Exec_plan_stale -> 26
  | Exec_writes -> 27
  | Exec_watermark_waits -> 28
  | Storage_txn_appended -> 29
  | Index_incremental -> 30
  | Rpq_segments_checked -> 31
  | Rpq_fast_path -> 32
  | Rpq_product_visited -> 33
  | Views_incremental -> 34
  | Views_full -> 35
  | Views_reads -> 36

let n_counters = 37

let counter_name = function
  | Retrieval_scanned -> "retrieval.scanned"
  | Retrieval_candidates -> "retrieval.candidates"
  | Profile_hits -> "retrieval.profile_hits"
  | Profile_misses -> "retrieval.profile_misses"
  | Refine_levels -> "refine.levels"
  | Refine_pairs_checked -> "refine.pairs_checked"
  | Refine_removed -> "refine.removed"
  | Search_visited -> "search.visited"
  | Search_backtracks -> "search.backtracks"
  | Search_matches -> "search.matches"
  | Parallel_steals -> "parallel.steals"
  | Parallel_tasks_spawned -> "parallel.tasks_spawned"
  | Parallel_idle_polls -> "parallel.idle_polls"
  | Pages_read -> "storage.pages_read"
  | Pages_written -> "storage.pages_written"
  | Pool_hits -> "storage.pool_hits"
  | Pool_misses -> "storage.pool_misses"
  | Pool_evictions -> "storage.pool_evictions"
  | Exec_cache_hit -> "exec.cache.hit"
  | Exec_cache_miss -> "exec.cache.miss"
  | Exec_cache_evictions -> "exec.cache.evictions"
  | Exec_queue_submitted -> "exec.queue.submitted"
  | Exec_queue_completed -> "exec.queue.completed"
  | Exec_queue_yields -> "exec.queue.yields"
  | Exec_queue_deadline_stops -> "exec.queue.deadline_stops"
  | Planner_replans -> "planner.replans"
  | Exec_plan_stale -> "exec.cache.stale_plans"
  | Exec_writes -> "exec.writes.applied"
  | Exec_watermark_waits -> "exec.queue.watermark_waits"
  | Storage_txn_appended -> "storage.txn_appended"
  | Index_incremental -> "exec.cache.index_updates"
  | Rpq_segments_checked -> "rpq.segments_checked"
  | Rpq_fast_path -> "rpq.fast_path_hits"
  | Rpq_product_visited -> "rpq.product_visited"
  | Views_incremental -> "exec.views.incremental"
  | Views_full -> "exec.views.full"
  | Views_reads -> "exec.views.reads"

let all_counters =
  [
    Retrieval_scanned;
    Retrieval_candidates;
    Profile_hits;
    Profile_misses;
    Refine_levels;
    Refine_pairs_checked;
    Refine_removed;
    Search_visited;
    Search_backtracks;
    Search_matches;
    Parallel_steals;
    Parallel_tasks_spawned;
    Parallel_idle_polls;
    Pages_read;
    Pages_written;
    Pool_hits;
    Pool_misses;
    Pool_evictions;
    Exec_cache_hit;
    Exec_cache_miss;
    Exec_cache_evictions;
    Exec_queue_submitted;
    Exec_queue_completed;
    Exec_queue_yields;
    Exec_queue_deadline_stops;
    Planner_replans;
    Exec_plan_stale;
    Exec_writes;
    Exec_watermark_waits;
    Storage_txn_appended;
    Index_incremental;
    Rpq_segments_checked;
    Rpq_fast_path;
    Rpq_product_visited;
    Views_incremental;
    Views_full;
    Views_reads;
  ]

type histogram = Candidate_set_size | Matches_per_graph

let histogram_index = function Candidate_set_size -> 0 | Matches_per_graph -> 1
let n_histograms = 2

let histogram_name = function
  | Candidate_set_size -> "candidate_set_size"
  | Matches_per_graph -> "matches_per_graph"

let all_histograms = [ Candidate_set_size; Matches_per_graph ]

type histo_summary = {
  count : int;
  min : int;
  max : int;
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
}

let n_buckets = 64

(* per-order-position cardinality drift: one slot per position keeps
   (runs contributing, Σ estimated partials, Σ actual partials) *)
let n_drift = 64

type t = {
  e : bool;
  counters : int array;
  (* per histogram: log2 buckets plus exact count/sum/min/max *)
  h_buckets : int array array;
  h_count : int array;
  h_sum : int array;
  h_min : int array;
  h_max : int array;
  d_runs : int array;
  d_est : float array;
  d_act : float array;
  (* spans, structure-of-arrays; parent = -1 for roots *)
  mutable s_name : string array;
  mutable s_start : float array;
  mutable s_stop : float array;
  mutable s_parent : int array;
  mutable n_spans : int;
  mutable current : int;
}

let make e =
  {
    e;
    counters = Array.make n_counters 0;
    h_buckets = Array.init n_histograms (fun _ -> Array.make n_buckets 0);
    h_count = Array.make n_histograms 0;
    h_sum = Array.make n_histograms 0;
    h_min = Array.make n_histograms max_int;
    h_max = Array.make n_histograms min_int;
    d_runs = Array.make n_drift 0;
    d_est = Array.make n_drift 0.0;
    d_act = Array.make n_drift 0.0;
    s_name = Array.make 16 "";
    s_start = Array.make 16 0.0;
    s_stop = Array.make 16 0.0;
    s_parent = Array.make 16 (-1);
    n_spans = 0;
    current = -1;
  }

(* the shared no-op instance; enabled instances never alias it, so the
   [e] gate keeps it immutable *)
let disabled = make false
let create () = make true
let enabled m = m.e

let add m c n = if m.e then begin
    let i = counter_index c in
    m.counters.(i) <- m.counters.(i) + n
  end

let incr m c = add m c 1
let get m c = m.counters.(counter_index c)

(* bucket b >= 1 holds values in [2^(b-1), 2^b); bucket 0 holds 0 *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and v = ref v in
    while !v > 0 do
      Stdlib.incr b;
      v := !v lsr 1
    done;
    Stdlib.min (n_buckets - 1) !b
  end

let observe m h v =
  if m.e then begin
    let v = Stdlib.max 0 v in
    let i = histogram_index h in
    let b = bucket_of v in
    m.h_buckets.(i).(b) <- m.h_buckets.(i).(b) + 1;
    m.h_count.(i) <- m.h_count.(i) + 1;
    m.h_sum.(i) <- m.h_sum.(i) + v;
    if v < m.h_min.(i) then m.h_min.(i) <- v;
    if v > m.h_max.(i) then m.h_max.(i) <- v
  end

let bucket_floor b = if b = 0 then 0 else 1 lsl (b - 1)

let percentile m i q =
  let total = m.h_count.(i) in
  let rank = Stdlib.max 1 (int_of_float (ceil (q *. float_of_int total))) in
  let acc = ref 0 and b = ref 0 and found = ref 0 in
  while !b < n_buckets && !acc < rank do
    acc := !acc + m.h_buckets.(i).(!b);
    if !acc >= rank then found := !b;
    Stdlib.incr b
  done;
  (* clamp the bucket floor to the exact extremes *)
  Stdlib.min m.h_max.(i) (Stdlib.max m.h_min.(i) (bucket_floor !found))

let histogram_quantile m h q =
  if q < 0.0 || q > 1.0 then
    invalid_arg "Metrics.histogram_quantile: q outside [0, 1]";
  let i = histogram_index h in
  if m.h_count.(i) = 0 then None else Some (percentile m i q)

let histo_summary m h =
  let i = histogram_index h in
  if m.h_count.(i) = 0 then None
  else
    Some
      {
        count = m.h_count.(i);
        min = m.h_min.(i);
        max = m.h_max.(i);
        mean = float_of_int m.h_sum.(i) /. float_of_int m.h_count.(i);
        p50 = percentile m i 0.5;
        p90 = percentile m i 0.9;
        p99 = percentile m i 0.99;
      }

(* --- cardinality drift --------------------------------------------------- *)

let record_drift m ~position ~estimated ~actual =
  if m.e && position >= 0 && position < n_drift then begin
    m.d_runs.(position) <- m.d_runs.(position) + 1;
    m.d_est.(position) <- m.d_est.(position) +. estimated;
    m.d_act.(position) <- m.d_act.(position) +. actual
  end

let drift m =
  let acc = ref [] in
  for i = n_drift - 1 downto 0 do
    if m.d_runs.(i) > 0 then
      acc := (i, m.d_runs.(i), m.d_est.(i), m.d_act.(i)) :: !acc
  done;
  !acc

(* --- spans --------------------------------------------------------------- *)

let ensure_span_capacity m =
  let cap = Array.length m.s_name in
  if m.n_spans >= cap then begin
    let grow a fill =
      let a' = Array.make (2 * cap) fill in
      Array.blit a 0 a' 0 cap;
      a'
    in
    m.s_name <- grow m.s_name "";
    m.s_start <- grow m.s_start 0.0;
    m.s_stop <- grow m.s_stop 0.0;
    m.s_parent <- grow m.s_parent (-1)
  end

let push_span m name ~parent ~start ~stop =
  ensure_span_capacity m;
  let id = m.n_spans in
  m.s_name.(id) <- name;
  m.s_start.(id) <- start;
  m.s_stop.(id) <- stop;
  m.s_parent.(id) <- parent;
  m.n_spans <- id + 1;
  id

let with_span m name f =
  if not m.e then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    let id = push_span m name ~parent:m.current ~start:t0 ~stop:t0 in
    m.current <- id;
    Fun.protect
      ~finally:(fun () ->
        m.s_stop.(id) <- Unix.gettimeofday ();
        m.current <- m.s_parent.(id))
      f
  end

let span_count m = m.n_spans

let merge_counts ~into m =
  if into.e && m.e then begin
    Array.iteri (fun i n -> into.counters.(i) <- into.counters.(i) + n) m.counters;
    for i = 0 to n_histograms - 1 do
      Array.iteri
        (fun b n -> into.h_buckets.(i).(b) <- into.h_buckets.(i).(b) + n)
        m.h_buckets.(i);
      into.h_count.(i) <- into.h_count.(i) + m.h_count.(i);
      into.h_sum.(i) <- into.h_sum.(i) + m.h_sum.(i);
      if m.h_min.(i) < into.h_min.(i) then into.h_min.(i) <- m.h_min.(i);
      if m.h_max.(i) > into.h_max.(i) then into.h_max.(i) <- m.h_max.(i)
    done;
    for i = 0 to n_drift - 1 do
      into.d_runs.(i) <- into.d_runs.(i) + m.d_runs.(i);
      into.d_est.(i) <- into.d_est.(i) +. m.d_est.(i);
      into.d_act.(i) <- into.d_act.(i) +. m.d_act.(i)
    done
  end

let merge ~into m =
  merge_counts ~into m;
  if into.e && m.e then begin
    let off = into.n_spans in
    for id = 0 to m.n_spans - 1 do
      let parent =
        if m.s_parent.(id) < 0 then into.current else m.s_parent.(id) + off
      in
      ignore
        (push_span into m.s_name.(id) ~parent ~start:m.s_start.(id)
           ~stop:m.s_stop.(id))
    done
  end

(* --- reporting ----------------------------------------------------------- *)

type span_tree = {
  s_name : string;
  s_count : int;
  s_total : float;
  s_children : span_tree list;
}

(* raw forest from the parent pointers, then aggregate same-name
   siblings (preserving first-appearance order) so a big collection
   renders as one line per operator, not one per graph *)
let span_forest m =
  let children = Array.make (Stdlib.max 1 m.n_spans) [] in
  let roots = ref [] in
  for id = m.n_spans - 1 downto 0 do
    let p = m.s_parent.(id) in
    if p < 0 then roots := id :: !roots
    else children.(p) <- id :: children.(p)
  done;
  let rec aggregate ids =
    let order = ref [] in
    let groups : (string, int list ref) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun id ->
        let name = m.s_name.(id) in
        match Hashtbl.find_opt groups name with
        | Some l -> l := id :: !l
        | None ->
          order := name :: !order;
          Hashtbl.add groups name (ref [ id ]))
      ids;
    List.rev_map
      (fun name ->
        let ids = List.rev !(Hashtbl.find groups name) in
        {
          s_name = name;
          s_count = List.length ids;
          s_total =
            List.fold_left
              (fun acc id -> acc +. (m.s_stop.(id) -. m.s_start.(id)))
              0.0 ids;
          s_children = aggregate (List.concat_map (fun id -> children.(id)) ids);
        })
      !order
  in
  aggregate !roots

let pp ppf m =
  if not m.e then Format.fprintf ppf "(metrics disabled)"
  else begin
    let rec pp_tree indent t =
      Format.fprintf ppf "%s%-*s %6d %12.3f ms@." indent
        (Stdlib.max 1 (30 - String.length indent))
        t.s_name t.s_count (1000.0 *. t.s_total);
      List.iter (pp_tree (indent ^ "  ")) t.s_children
    in
    (match span_forest m with
    | [] -> ()
    | forest ->
      Format.fprintf ppf "%-30s %6s %15s@." "span" "count" "total";
      List.iter (pp_tree "") forest);
    Format.fprintf ppf "counters:@.";
    List.iter
      (fun c ->
        Format.fprintf ppf "  %-28s %12d@." (counter_name c) (get m c))
      all_counters;
    List.iter
      (fun h ->
        match histo_summary m h with
        | None -> ()
        | Some s ->
          Format.fprintf ppf
            "histogram %s: count=%d min=%d p50=%d p90=%d p99=%d max=%d \
             mean=%.2f@."
            (histogram_name h) s.count s.min s.p50 s.p90 s.p99 s.max s.mean)
      all_histograms;
    match drift m with
    | [] -> ()
    | rows ->
      Format.fprintf ppf "cardinality drift (per order position):@.";
      Format.fprintf ppf "  %-8s %6s %14s %14s %8s@." "position" "runs"
        "estimated" "actual" "ratio";
      List.iter
        (fun (pos, runs, est, act) ->
          let ratio = if est > 0.0 then act /. est else Float.nan in
          Format.fprintf ppf "  %-8d %6d %14.1f %14.1f %8.2f@." pos runs est
            act ratio)
        rows
  end

(* minimal JSON writer — names are library-controlled, but escape
   anyway so an adversarial span name cannot break the document *)
let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json m =
  let buf = Buffer.create 1024 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let rec add_tree t =
    addf "{\"name\":\"%s\",\"count\":%d,\"ms\":%.6g,\"children\":["
      (json_escape t.s_name) t.s_count
      (1000.0 *. t.s_total);
    List.iteri
      (fun i c ->
        if i > 0 then addf ",";
        add_tree c)
      t.s_children;
    addf "]}"
  in
  addf "{\"schema\":\"gql-obs/v1\",\"enabled\":%b,\"spans\":[" m.e;
  List.iteri
    (fun i t ->
      if i > 0 then addf ",";
      add_tree t)
    (span_forest m);
  addf "],\"counters\":{";
  List.iteri
    (fun i c ->
      if i > 0 then addf ",";
      addf "\"%s\":%d" (counter_name c) (get m c))
    all_counters;
  addf "},\"histograms\":{";
  let first = ref true in
  List.iter
    (fun h ->
      match histo_summary m h with
      | None -> ()
      | Some s ->
        if not !first then addf ",";
        first := false;
        addf
          "\"%s\":{\"count\":%d,\"min\":%d,\"p50\":%d,\"p90\":%d,\"p99\":%d,\"max\":%d,\"mean\":%.6g}"
          (histogram_name h) s.count s.min s.p50 s.p90 s.p99 s.max s.mean)
    all_histograms;
  addf "},\"drift\":[";
  List.iteri
    (fun i (pos, runs, est, act) ->
      if i > 0 then addf ",";
      addf "{\"position\":%d,\"runs\":%d,\"estimated\":%.6g,\"actual\":%.6g}"
        pos runs est act)
    (drift m);
  addf "]}";
  Buffer.contents buf
