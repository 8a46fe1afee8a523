open Gql_graph

type outcome = {
  mappings : int array list;
  n_found : int;
  visited : int;
  stopped : Budget.stop_reason;
}

(* Per-order-position observation arrays for the adaptive planner:
   Check calls and successful extensions (descents) at each position.
   Only counted when a profile is passed — the default search pays one
   predictable branch per Check. *)
type profile = {
  pr_checked : int array;
  pr_descents : int array;
}

let profile_create k =
  { pr_checked = Array.make k 0; pr_descents = Array.make k 0 }

let profile_reset pr =
  Array.fill pr.pr_checked 0 (Array.length pr.pr_checked) 0;
  Array.fill pr.pr_descents 0 (Array.length pr.pr_descents) 0

(* Pattern edges from order.(i) to nodes earlier in the order, as flat
   parallel arrays so the inner check loop touches no list cells:
   is_out.(j) — does the edge leave order.(i)?; pe.(j) — pattern edge
   id; other.(j) — the already-mapped endpoint; triv.(j) — pattern edge
   has no constraints, so any connecting data edge satisfies it. *)
type back = {
  is_out : bool array;
  pe : int array;
  other : int array;
  triv : bool array;
}

let back_edges p order =
  let g = p.Flat_pattern.structure in
  let k = Array.length order in
  let pos = Array.make (Flat_pattern.size p) (-1) in
  Array.iteri (fun i u -> pos.(u) <- i) order;
  Array.init k (fun i ->
      let u = order.(i) in
      let acc = ref [] in
      Graph.iter_edges g ~f:(fun e { Graph.src; dst; _ } ->
          if src = u && pos.(dst) < i then acc := (true, e, dst) :: !acc
          else if dst = u && pos.(src) < i then acc := (false, e, src) :: !acc);
      let arr = Array.of_list !acc in
      {
        is_out = Array.map (fun (o, _, _) -> o) arr;
        pe = Array.map (fun (_, e, _) -> e) arr;
        other = Array.map (fun (_, _, w) -> w) arr;
        triv = Array.map (fun (_, e, _) -> Flat_pattern.edge_always_compat p e) arr;
      })

(* Check(uᵢ, v), structural part: every pattern edge from uᵢ to an
   already-mapped node needs a compatible data edge. Each probe is a
   binary search over the sorted adjacency row of the mapped source,
   then a scan of the contiguous parallel-edge run — no hash lookups,
   no allocation. Shared by the sequential engine below and the
   work-stealing one in {!Ws}. *)
let node_check ~g ~p ~pattern_directed (back : back array) (phi : int array) i v
    =
  let b = Array.unsafe_get back i in
  let nb = Array.length b.pe in
  let ok = ref true in
  let j = ref 0 in
  while !ok && !j < nb do
    let v' = phi.(Array.unsafe_get b.other !j) in
    let out = Array.unsafe_get b.is_out !j in
    let s = if out then v else v' in
    let d = if out then v' else v in
    let row = Graph.adj_nbrs g s in
    let n = Array.length row in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if Array.unsafe_get row mid < d then lo := mid + 1 else hi := mid
    done;
    if !lo >= n || Array.unsafe_get row !lo <> d then ok := false
    else if (not pattern_directed) && Array.unsafe_get b.triv !j then
      (* unconstrained undirected pattern edge: membership suffices *)
      ()
    else begin
      let pe = Array.unsafe_get b.pe !j in
      let triv = Array.unsafe_get b.triv !j in
      let eids = Graph.adj_eids g s in
      let found = ref false in
      while (not !found) && !lo < n && Array.unsafe_get row !lo = d do
        let ge = Array.unsafe_get eids !lo in
        let oriented =
          (not pattern_directed)
          ||
          let e = Graph.edge g ge in
          e.Graph.src = s && e.Graph.dst = d
        in
        if oriented && (triv || Flat_pattern.edge_compat p g pe ge) then
          found := true
        else incr lo
      done;
      if not !found then ok := false
    end;
    incr j
  done;
  !ok

let generic_run ?(budget = Budget.unlimited)
    ?(metrics = Gql_obs.Metrics.disabled) ?(order = [||]) ?profile ?root_range
    p g space ~on_match =
  let k = Flat_pattern.size p in
  let order = if Array.length order = 0 then Array.init k (fun i -> i) else order in
  let profiling, pr_checked, pr_descents =
    match profile with
    | Some pr -> (true, pr.pr_checked, pr.pr_descents)
    | None -> (false, [||], [||])
  in
  let back = back_edges p order in
  let phi = Array.make k (-1) in
  let used = Bitset.create (max 1 (Graph.n_nodes g)) in
  let visited = ref 0 in
  (* descents/matches are plain local increments; the metrics object is
     only touched once, after the search, so the disabled path costs a
     register each *)
  let descents = ref 0 in
  let matches = ref 0 in
  let pattern_directed = Graph.directed p.Flat_pattern.structure in
  let stopped = ref false in
  let reason = ref Budget.Exhausted in
  let stop r =
    reason := r;
    stopped := true
  in
  (* Governance: the step budget is one integer compare per Check call;
     deadline and cancellation are polled every Budget.check_interval
     calls so the hot loop never measurably slows down. *)
  let max_visited = Budget.max_visited budget in
  let poll_mask = Budget.check_interval - 1 in
  let check i v =
    incr visited;
    let vis = !visited in
    if vis > max_visited then begin
      stop Budget.Step_budget;
      false
    end
    else if
      vis land poll_mask = 0
      &&
      match Budget.poll budget with
      | Some r ->
        stop r;
        true
      | None -> false
    then false
    else begin
      if profiling then pr_checked.(i) <- pr_checked.(i) + 1;
      node_check ~g ~p ~pattern_directed back phi i v
    end
  in
  let rec go i =
    if !stopped then ()
    else if i >= k then begin
      if Flat_pattern.global_holds p g phi then begin
        incr matches;
        match on_match phi with
        | `Continue -> ()
        | `Stop -> stop Budget.Hit_limit
      end
    end
    else begin
      let u = order.(i) in
      let cands = space.Feasible.candidates.(u) in
      let n = Array.length cands in
      let stop_at =
        match root_range with Some (_, hi) when i = 0 -> min hi n | _ -> n
      in
      let ci =
        ref (match root_range with Some (lo, _) when i = 0 -> lo | _ -> 0)
      in
      while (not !stopped) && !ci < stop_at do
        let v = Array.unsafe_get cands !ci in
        (* bounds-checked used-set ops: a malformed candidate space
           (ids beyond the graph) must raise, not corrupt the heap *)
        if (not (Bitset.mem used v)) && check i v then begin
          incr descents;
          if profiling then pr_descents.(i) <- pr_descents.(i) + 1;
          phi.(u) <- v;
          Bitset.add used v;
          go (i + 1);
          phi.(u) <- -1;
          Bitset.remove used v
        end;
        incr ci
      done
    end
  in
  (* poll once up front: an already-cancelled token or expired deadline
     must do no work, even on searches too small to reach the mask *)
  (match Budget.poll budget with Some r -> stop r | None -> ());
  if !stopped || k = 0 then ()
  else if Array.exists (fun c -> Array.length c = 0) space.Feasible.candidates
  then ()
  else go 0;
  let module M = Gql_obs.Metrics in
  if M.enabled metrics then begin
    M.add metrics M.Search_visited !visited;
    (* a backtrack is a Check call that found no compatible data edge *)
    M.add metrics M.Search_backtracks (!visited - !descents);
    M.add metrics M.Search_matches !matches
  end;
  (!visited, !reason)

let run_raw ?budget ?metrics ?order ?profile ?root_range ~on_match p g space =
  generic_run ?budget ?metrics ?order ?profile ?root_range p g space ~on_match

let run ?(exhaustive = true) ?limit ?budget ?metrics ?order ?profile p g space
    =
  let results = ref [] in
  let n = ref 0 in
  let on_match phi =
    incr n;
    results := Array.copy phi :: !results;
    let hit_limit = match limit with Some l -> !n >= l | None -> false in
    if hit_limit || not exhaustive then `Stop else `Continue
  in
  let visited, stopped =
    generic_run ?budget ?metrics ?order ?profile p g space ~on_match
  in
  { mappings = List.rev !results; n_found = !n; visited; stopped }
