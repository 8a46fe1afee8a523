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
   no allocation. *)
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

(* The descend loop of Algorithm 4.1, the only one. A walker is one
   thread of search: the partial mapping φ and its used-set, the Check
   and budget accounting, the per-position profile counters and the
   match callback. [Search.run] descends it over all roots; each
   {!Ws} task descends it over the task's prefix and candidate range. *)
type walker = {
  p : Flat_pattern.t;
  g : Graph.t;
  cands : int array array;
  pattern_directed : bool;
  budget : Budget.t;
  max_visited : int;
  phi : int array;
  used : Bitset.t;
  prof : profile;
  mutable profiling : bool;
  mutable visited : int;
  mutable descents : int;
  mutable matches : int;
  mutable halted : bool;
  mutable reason : Budget.stop_reason;
  on_match : int array -> bool;
  expose : (int array -> int -> int -> int -> bool) option;
}

let no_profile = profile_create 0

let stop w r =
  w.reason <- r;
  w.halted <- true

let walker ?(budget = Budget.unlimited) ?profile ?expose ~on_match p g space =
  let k = Flat_pattern.size p in
  let w =
    {
      p;
      g;
      cands = space.Feasible.candidates;
      pattern_directed = Graph.directed p.Flat_pattern.structure;
      budget;
      max_visited = Budget.max_visited budget;
      phi = Array.make k (-1);
      used = Bitset.create (max 1 (Graph.n_nodes g));
      prof = Option.value profile ~default:no_profile;
      profiling = Option.is_some profile;
      visited = 0;
      descents = 0;
      matches = 0;
      halted = false;
      reason = Budget.Exhausted;
      on_match;
      expose;
    }
  in
  (* poll once up front: an already-cancelled token or expired deadline
     must do no work, even on searches too small to reach the mask *)
  (match Budget.poll budget with Some r -> stop w r | None -> ());
  w

let halted w = w.halted
let reason w = w.reason
let visited w = w.visited
let set_profiling w on = w.profiling <- on && w.prof != no_profile

let descend w ~order ~back ~prefix lo hi =
  let k = Array.length order in
  let phi = w.phi and used = w.used and cands = w.cands in
  let g = w.g and p = w.p and pattern_directed = w.pattern_directed in
  (* profiling is switched between tasks, never during one *)
  let profiling = w.profiling in
  let pr_checked = w.prof.pr_checked and pr_descents = w.prof.pr_descents in
  (* Governance: the step budget is one integer compare per Check call;
     deadline and cancellation are polled every Budget.check_interval
     calls so the hot loop never measurably slows down. *)
  let max_visited = w.max_visited and poll_mask = Budget.check_interval - 1 in
  let check i v =
    let vis = w.visited + 1 in
    w.visited <- vis;
    if vis > max_visited then begin
      stop w Budget.Step_budget;
      false
    end
    else if
      vis land poll_mask = 0
      &&
      match Budget.poll w.budget with
      | Some r ->
        stop w r;
        true
      | None -> false
    then false
    else begin
      if profiling then pr_checked.(i) <- pr_checked.(i) + 1;
      node_check ~g ~p ~pattern_directed back phi i v
    end
  in
  (* adopt the prefix: it was validated when captured, and graph and
     space are immutable, so no re-checking *)
  let depth = Array.length prefix in
  for i = 0 to depth - 1 do
    let v = prefix.(i) in
    phi.(order.(i)) <- v;
    Bitset.unsafe_add used v
  done;
  let rec level i lo hi =
    let u = Array.unsafe_get order i in
    let cs = Array.unsafe_get cands u in
    let ci = ref lo and hi = ref hi in
    while (not w.halted) && !ci < !hi do
      (match w.expose with
      | Some expose when i + 1 < k && !hi - !ci > 1 ->
        (* hand the untouched siblings to the exposure hook; if it
           takes them, this level ends after the current candidate.
           Never at the last position: a task there is one Check call
           each, so exposing would turn every leaf into a task. *)
        if expose phi i (!ci + 1) !hi then hi := !ci + 1
      | _ -> ());
      let v = Array.unsafe_get cs !ci in
      (* bounds-checked used-set ops: a malformed candidate space (ids
         beyond the graph) must raise, not corrupt the heap *)
      if (not (Bitset.mem used v)) && check i v then begin
        w.descents <- w.descents + 1;
        if profiling then pr_descents.(i) <- pr_descents.(i) + 1;
        phi.(u) <- v;
        Bitset.add used v;
        (if i + 1 >= k then begin
           if Flat_pattern.global_holds p g phi then begin
             w.matches <- w.matches + 1;
             if not (w.on_match phi) then stop w Budget.Hit_limit
           end
         end
         else
           let next = Array.unsafe_get cands (Array.unsafe_get order (i + 1)) in
           level (i + 1) 0 (Array.length next));
        phi.(u) <- -1;
        Bitset.remove used v
      end;
      incr ci
    done
  in
  if (not w.halted) && depth < k then level depth lo hi;
  for i = 0 to depth - 1 do
    phi.(order.(i)) <- -1;
    Bitset.unsafe_remove used prefix.(i)
  done

(* One flush into the metrics after the search, nothing on the hot
   path: descents and matches are plain field increments. *)
let flush w metrics =
  let module M = Gql_obs.Metrics in
  if M.enabled metrics then begin
    M.add metrics M.Search_visited w.visited;
    (* a backtrack is a Check call that found no compatible data edge *)
    M.add metrics M.Search_backtracks (w.visited - w.descents);
    M.add metrics M.Search_matches w.matches
  end

let run ?(exhaustive = true) ?limit ?budget
    ?(metrics = Gql_obs.Metrics.disabled) ?order ?profile p g space =
  let k = Flat_pattern.size p in
  let order =
    match order with
    | Some o when Array.length o > 0 -> o
    | _ -> Array.init k (fun i -> i)
  in
  let results = ref [] in
  let n = ref 0 in
  let on_match phi =
    incr n;
    results := Array.copy phi :: !results;
    exhaustive && match limit with Some l -> !n < l | None -> true
  in
  let w = walker ?budget ?profile ~on_match p g space in
  let empty = Array.exists (fun c -> Array.length c = 0) in
  if k > 0 && not (empty space.Feasible.candidates) then
    descend w ~order ~back:(back_edges p order) ~prefix:[||] 0
      (Array.length space.Feasible.candidates.(order.(0)));
  flush w metrics;
  {
    mappings = List.rev !results;
    n_found = !n;
    visited = w.visited;
    stopped = w.reason;
  }
