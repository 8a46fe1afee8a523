open Gql_graph

type stats = {
  levels_run : int;
  pairs_checked : int;
  removed : int;
}

(* Per-refinement memo: pattern neighborhoods are precomputed (k is
   small), data-graph neighborhoods are filled on first touch, and the
   bipartite adjacency — packed word rows for the default engine, a
   list-of-lists buffer for the historical one — is a scratch reused
   across every semi-perfect check instead of being reallocated per
   pair. *)
type memo = {
  pat_nbrs : int array array;
  g_nbrs : int array option array;
  mutable row_words : int array;  (* nl × stride packed rows *)
  mutable bip_adj : int list array;  (* list-based baseline scratch *)
}

let make_memo p g =
  {
    pat_nbrs =
      Array.init (Flat_pattern.size p) (fun u ->
          Graph.undirected_neighbor_ids p.Flat_pattern.structure u);
    g_nbrs = Array.make (Graph.n_nodes g) None;
    row_words = Array.make 64 0;
    bip_adj = Array.make 8 [];
  }

let graph_nbrs memo g v =
  match memo.g_nbrs.(v) with
  | Some ns -> ns
  | None ->
    let ns = Graph.undirected_neighbor_ids g v in
    memo.g_nbrs.(v) <- Some ns;
    ns

let bpw = Bitset.bits_per_word

(* B(u,v): left = neighbors of u in the pattern, right = neighbors of v
   in the graph, edge iff v' ∈ Φ(u').  Rows are built as packed bit
   words (no consing), an empty row aborts before any matching runs,
   and the augmenting-path search intersects row ∧ ¬visited one word at
   a time. *)
let has_semi_perfect memo g phi u v =
  let nu = memo.pat_nbrs.(u) in
  let nl = Array.length nu in
  if nl = 0 then true
  else begin
    let nv = graph_nbrs memo g v in
    let nr = Array.length nv in
    if nr < nl then false
    else begin
      let stride = (nr + bpw - 1) / bpw in
      let need = nl * stride in
      if need > Array.length memo.row_words then
        memo.row_words <-
          Array.make (max need (2 * Array.length memo.row_words)) 0;
      let rows = memo.row_words in
      let ok = ref true in
      let li = ref 0 in
      while !ok && !li < nl do
        let phi_u' = phi.(nu.(!li)) in
        let base = !li * stride in
        Array.fill rows base stride 0;
        let any = ref false in
        for j = 0 to nr - 1 do
          if Bitset.unsafe_mem phi_u' (Array.unsafe_get nv j) then begin
            let q = j / bpw in
            let wi = base + q in
            Array.unsafe_set rows wi
              (Array.unsafe_get rows wi lor (1 lsl (j - (q * bpw))));
            any := true
          end
        done;
        if not !any then ok := false;
        incr li
      done;
      !ok
      && (nl = 1 (* a nonempty single row is trivially saturable *)
         || Bipartite.kuhn_packed ~nl ~nr ~stride rows = nl)
    end
  end

(* The PR1-era check: rows consed as int lists, Hopcroft–Karp over
   them. Kept as the bench baseline (micro.refine_ppi) and as a second
   implementation for the equivalence property tests. *)
let has_semi_perfect_lists memo g phi u v =
  let nu = memo.pat_nbrs.(u) in
  let nv = graph_nbrs memo g v in
  let nl = Array.length nu and nr = Array.length nv in
  if nl > Array.length memo.bip_adj then
    memo.bip_adj <- Array.make (max nl (2 * Array.length memo.bip_adj)) [];
  let adj = memo.bip_adj in
  for li = 0 to nl - 1 do
    let phi_u' = phi.(nu.(li)) in
    let ns = ref [] in
    for j = nr - 1 downto 0 do
      if Bitset.mem phi_u' nv.(j) then ns := j :: !ns
    done;
    adj.(li) <- !ns
  done;
  Bipartite.semi_perfect { nl; nr; adj }

(* Kernel crossover, in data-side neighbor count [nr]: the packed rows
   pay a fixed setup cost (stride math, word fills) that dominates tiny
   bipartite problems, where consed lists + Hopcroft–Karp are cheaper;
   from [nr] of about a cache line of words upward the word-at-a-time
   row intersection wins. Measured on the PPI clique workload
   (micro.refine_ppi) — the bench asserts the dispatch never loses to
   either pure kernel. *)
let auto_nr_threshold = 16

let has_semi_perfect_auto memo g phi u v =
  let nu = memo.pat_nbrs.(u) in
  if Array.length nu = 0 then true
  else if Array.length (graph_nbrs memo g v) < auto_nr_threshold then
    has_semi_perfect_lists memo g phi u v
  else has_semi_perfect memo g phi u v

let to_space k phi =
  { Feasible.candidates = Array.init k (fun u -> Bitset.to_array phi.(u)) }

let record_stats metrics (st : stats) =
  let module M = Gql_obs.Metrics in
  if M.enabled metrics then begin
    M.add metrics M.Refine_levels st.levels_run;
    M.add metrics M.Refine_pairs_checked st.pairs_checked;
    M.add metrics M.Refine_removed st.removed
  end

let refine_with check ?(metrics = Gql_obs.Metrics.disabled) p g space =
  let k = Flat_pattern.size p in
  let n = Graph.n_nodes g in
  let phi =
    Array.map (fun c -> Bitset.of_array n c) space.Feasible.candidates
  in
  let memo = make_memo p g in
  let marked : (int * int, unit) Hashtbl.t = Hashtbl.create 1024 in
  let mark u v = Hashtbl.replace marked (u, v) () in
  Array.iteri (fun u s -> Bitset.iter s (fun v -> mark u v)) phi;
  let pairs_checked = ref 0 in
  let removed = ref 0 in
  let levels_run = ref 0 in
  (try
     for _ = 1 to k do
       if Hashtbl.length marked = 0 then raise Exit;
       incr levels_run;
       let batch = Hashtbl.fold (fun pair () acc -> pair :: acc) marked [] in
       List.iter
         (fun (u, v) ->
           (* the pair may have been removed by an earlier check in this
              batch *)
           if Hashtbl.mem marked (u, v) && Bitset.mem phi.(u) v then begin
             incr pairs_checked;
             if check memo g phi u v then Hashtbl.remove marked (u, v)
             else begin
               Hashtbl.remove marked (u, v);
               Bitset.remove phi.(u) v;
               incr removed;
               Array.iter
                 (fun u' ->
                   Array.iter
                     (fun v' -> if Bitset.mem phi.(u') v' then mark u' v')
                     (graph_nbrs memo g v))
                 memo.pat_nbrs.(u)
             end
           end
           else Hashtbl.remove marked (u, v))
         batch
     done
   with Exit -> ());
  let st =
    { levels_run = !levels_run; pairs_checked = !pairs_checked; removed = !removed }
  in
  record_stats metrics st;
  (to_space k phi, st)

let refine ?metrics p g space =
  refine_with has_semi_perfect_auto ?metrics p g space

let refine_packed ?metrics p g space =
  refine_with has_semi_perfect ?metrics p g space

let refine_lists ?metrics p g space =
  refine_with has_semi_perfect_lists ?metrics p g space

let refine_naive ?(metrics = Gql_obs.Metrics.disabled) p g space =
  let k = Flat_pattern.size p in
  let n = Graph.n_nodes g in
  let phi =
    Array.map (fun c -> Bitset.of_array n c) space.Feasible.candidates
  in
  let memo = make_memo p g in
  let pairs_checked = ref 0 in
  let removed = ref 0 in
  let levels_run = ref 0 in
  (try
     for _ = 1 to k do
       incr levels_run;
       let changed = ref false in
       for u = 0 to k - 1 do
         Array.iter
           (fun v ->
             incr pairs_checked;
             (* the lists-based check: the oracle stays on the
                independent implementation *)
             if not (has_semi_perfect_lists memo g phi u v) then begin
               Bitset.remove phi.(u) v;
               incr removed;
               changed := true
             end)
           (Bitset.to_array phi.(u))
       done;
       if not !changed then raise Exit
     done
   with Exit -> ());
  let st =
    { levels_run = !levels_run; pairs_checked = !pairs_checked; removed = !removed }
  in
  record_stats metrics st;
  (to_space k phi, st)
