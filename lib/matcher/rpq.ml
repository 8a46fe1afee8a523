(* Regular path queries: NFA-product BFS over the data graph.

   A segment [c{min,max}] is the regular expression "min to max steps,
   every step an edge satisfying c". Its automaton is a counter with
   min+1 (unbounded) or max+1 (bounded) states, so the product with the
   data graph has O(V * (bound+1)) states — evaluated by BFS with a
   bitset visited map. Unbounded segments cap the counter at min (once
   enough steps are taken, more never hurt), which is what makes the
   evaluation depth-independent: no unrolling, no truncation. *)

open Gql_graph
module M = Gql_obs.Metrics
module R = Gql_index.Reachability

type segment = {
  seg_src : int;
  seg_dst : int;
  seg_min : int;
  seg_max : int option;
  seg_tuple : Tuple.t;
  seg_pred : Pred.t;
}

type pattern = {
  core : Flat_pattern.t;
  segments : segment list;
}

let flat core = { core; segments = [] }
let is_flat p = p.segments = []

let segment_unconstrained s =
  Tuple.bindings s.seg_tuple = []
  && Tuple.tag s.seg_tuple = None
  && Pred.equal s.seg_pred Pred.True

(* same implicit-equality semantics as [Flat_pattern.edge_compat] *)
let edge_ok g s ge =
  let dtuple = (Graph.edge g ge).Graph.etuple in
  List.for_all
    (fun (k, v) -> Value.equal (Tuple.get dtuple k) v)
    (Tuple.bindings s.seg_tuple)
  && (match Tuple.tag s.seg_tuple with
     | None -> true
     | Some tag -> Tuple.tag dtuple = Some tag)
  && (Pred.equal s.seg_pred Pred.True
     || Pred.holds (Pred.env_of_tuple dtuple) s.seg_pred)

let pp_segment core ppf s =
  let name u = Flat_pattern.var_name core u in
  Format.fprintf ppf "path %s -*%d..%s%s%s-> %s" (name s.seg_src) s.seg_min
    (match s.seg_max with Some m -> string_of_int m | None -> "")
    (if Tuple.bindings s.seg_tuple = [] && Tuple.tag s.seg_tuple = None then ""
     else Format.asprintf " %a" Tuple.pp s.seg_tuple)
    (if Pred.equal s.seg_pred Pred.True then ""
     else Format.asprintf " where %a" Pred.pp s.seg_pred)
    (name s.seg_dst)

let pp ppf p =
  Flat_pattern.pp ppf p.core;
  List.iter (fun s -> Format.fprintf ppf "@,%a" (pp_segment p.core) s) p.segments

(* --- per-graph context ----------------------------------------------------- *)

type ctx = {
  cgraph : Graph.t;
  creach : R.t Lazy.t;
}

let ctx g = { cgraph = g; creach = lazy (R.build g) }
let reach c = Lazy.force c.creach

(* --- product BFS ----------------------------------------------------------- *)

exception Stop of Budget.stop_reason

let poll_or_stop budget =
  match Budget.poll budget with Some r -> raise (Stop r) | None -> ()

(* Existence by forward BFS over (node, counter) product states.
   Counter semantics: exact step count up to [qmax]; with an unbounded
   segment the counter saturates at [qmax = min], with a bounded one it
   stops the walk at [qmax = max]. *)
let product_bfs ?(budget = Budget.unlimited) ?(metrics = M.disabled) c s ~src
    ~dst =
  let g = c.cgraph in
  let n = Graph.n_nodes g in
  let qmax = match s.seg_max with None -> s.seg_min | Some m -> m in
  let saturating = s.seg_max = None in
  let width = qmax + 1 in
  let visited = Bytes.make ((n * width + 7) / 8) '\000' in
  let seen i = Char.code (Bytes.get visited (i lsr 3)) land (1 lsl (i land 7)) <> 0 in
  let mark i =
    Bytes.set visited (i lsr 3)
      (Char.chr (Char.code (Bytes.get visited (i lsr 3)) lor (1 lsl (i land 7))))
  in
  let accept v lvl = v = dst && lvl >= s.seg_min in
  let queue = Queue.create () in
  let expanded = ref 0 in
  let max_visited = Budget.max_visited budget in
  let stopped = ref Budget.Exhausted in
  let found = ref false in
  let push v lvl =
    let id = (v * width) + lvl in
    if not (seen id) then begin
      mark id;
      Queue.push (v, lvl) queue
    end
  in
  let unconstrained = segment_unconstrained s in
  (try
     poll_or_stop budget;
     if accept src 0 then found := true else push src 0;
     while (not !found) && not (Queue.is_empty queue) do
       let v, lvl = Queue.pop queue in
       incr expanded;
       if !expanded > max_visited then raise (Stop Budget.Step_budget);
       if !expanded land (Budget.check_interval - 1) = 0 then poll_or_stop budget;
       let lvl' = if saturating then min (lvl + 1) qmax else lvl + 1 in
       if lvl' <= qmax then begin
         let nbrs = Graph.adj_nbrs g v and eids = Graph.adj_eids g v in
         for i = 0 to Array.length nbrs - 1 do
           if (not !found) && (unconstrained || edge_ok g s eids.(i)) then begin
             let w = nbrs.(i) in
             if accept w lvl' then found := true else push w lvl'
           end
         done
       end
     done
   with Stop r -> stopped := r);
  if M.enabled metrics then M.add metrics M.Rpq_product_visited !expanded;
  (!found, !stopped)

(* Bidirectional BFS for a single-pair constrained reachability check
   ([min <= 1], unbounded, src <> dst): alternate expanding the smaller
   frontier, forward along out-edges and backward along in-edges, until
   the visited sets meet. Explores O(sqrt) of the plain product on
   expander-like graphs. *)
let bidi_reachable ?(budget = Budget.unlimited) ?(metrics = M.disabled) c s
    ~src ~dst =
  let g = c.cgraph in
  let n = Graph.n_nodes g in
  let seen_f = Bytes.make n '\000' and seen_b = Bytes.make n '\000' in
  let expanded = ref 0 in
  let max_visited = Budget.max_visited budget in
  let stopped = ref Budget.Exhausted in
  let found = ref false in
  let step seen_mine seen_other frontier ~backward =
    let next = ref [] in
    List.iter
      (fun v ->
        incr expanded;
        if !expanded > max_visited then raise (Stop Budget.Step_budget);
        if !expanded land (Budget.check_interval - 1) = 0 then
          poll_or_stop budget;
        let nbrs, eids =
          if backward then (Graph.in_nbrs g v, Graph.in_eids g v)
          else (Graph.adj_nbrs g v, Graph.adj_eids g v)
        in
        Array.iteri
          (fun i w ->
            if (not !found) && edge_ok g s eids.(i) then
              if Bytes.get seen_other w = '\001' then found := true
              else if Bytes.get seen_mine w = '\000' then begin
                Bytes.set seen_mine w '\001';
                next := w :: !next
              end)
          nbrs)
      frontier;
    !next
  in
  (try
     poll_or_stop budget;
     Bytes.set seen_f src '\001';
     Bytes.set seen_b dst '\001';
     let ff = ref [ src ] and bf = ref [ dst ] in
     while (not !found) && !ff <> [] && !bf <> [] do
       if List.length !ff <= List.length !bf then
         ff := step seen_f seen_b !ff ~backward:false
       else bf := step seen_b seen_f !bf ~backward:true
     done
   with Stop r -> stopped := r);
  if M.enabled metrics then M.add metrics M.Rpq_product_visited !expanded;
  (!found, !stopped)

(* --- segment evaluation ---------------------------------------------------- *)

let segment_holds ?budget ?(metrics = M.disabled) c s ~src ~dst =
  if M.enabled metrics then M.incr metrics M.Rpq_segments_checked;
  match s.seg_max with
  | None when segment_unconstrained s && s.seg_min <= 1 ->
    (* O(1) existence from the reachability index *)
    let r = reach c in
    let ok =
      if src <> dst then R.reachable r src dst
      else if s.seg_min = 0 then true
      else begin
        (* a closed walk through src *)
        let g = c.cgraph in
        if Graph.directed g then
          Array.exists (fun w -> R.reachable r w src) (Graph.adj_nbrs g src)
        else Graph.degree g src > 0
      end
    in
    if M.enabled metrics then M.incr metrics M.Rpq_fast_path;
    (ok, Budget.Exhausted)
  | None when s.seg_min <= 1 && src <> dst ->
    bidi_reachable ?budget ~metrics c s ~src ~dst
  | _ -> product_bfs ?budget ~metrics c s ~src ~dst

let shortest_walk ?(budget = Budget.unlimited) ?(metrics = M.disabled) c s ~src
    ~dst =
  let g = c.cgraph in
  let n = Graph.n_nodes g in
  let qmax = match s.seg_max with None -> s.seg_min | Some m -> m in
  let saturating = s.seg_max = None in
  let width = qmax + 1 in
  (* prev_state doubles as the visited map; the root points to itself *)
  let prev_state = Array.make (n * width) (-1) in
  let prev_edge = Array.make (n * width) (-1) in
  let queue = Queue.create () in
  let expanded = ref 0 in
  let max_visited = Budget.max_visited budget in
  let stopped = ref Budget.Exhausted in
  let goal = ref (-1) in
  let unconstrained = segment_unconstrained s in
  (try
     poll_or_stop budget;
     let root = (src * width) + 0 in
     prev_state.(root) <- root;
     if src = dst && s.seg_min = 0 then goal := root
     else begin
       Queue.push (src, 0) queue;
       while !goal < 0 && not (Queue.is_empty queue) do
         let v, lvl = Queue.pop queue in
         incr expanded;
         if !expanded > max_visited then raise (Stop Budget.Step_budget);
         if !expanded land (Budget.check_interval - 1) = 0 then
           poll_or_stop budget;
         let lvl' = if saturating then min (lvl + 1) qmax else lvl + 1 in
         if lvl' <= qmax then begin
           let from_id = (v * width) + lvl in
           let nbrs = Graph.adj_nbrs g v and eids = Graph.adj_eids g v in
           for i = 0 to Array.length nbrs - 1 do
             if !goal < 0 && (unconstrained || edge_ok g s eids.(i)) then begin
               let w = nbrs.(i) in
               let id = (w * width) + lvl' in
               if prev_state.(id) < 0 then begin
                 prev_state.(id) <- from_id;
                 prev_edge.(id) <- eids.(i);
                 if w = dst && lvl' >= s.seg_min then goal := id
                 else Queue.push (w, lvl') queue
               end
             end
           done
         end
       done
     end
   with Stop r -> stopped := r);
  if M.enabled metrics then M.add metrics M.Rpq_product_visited !expanded;
  if !goal < 0 then (None, !stopped)
  else begin
    let rec build id nodes edges =
      let v = id / width in
      if prev_state.(id) = id then (v :: nodes, edges)
      else build prev_state.(id) (v :: nodes) (prev_edge.(id) :: edges)
    in
    (Some (build !goal [] []), !stopped)
  end

(* --- whole-pattern evaluation ---------------------------------------------- *)

(* Keep the mappings whose segment checks all hold, then re-apply the
   [exhaustive]/[limit] truncation the core run could not enforce. *)
let filter_outcome ?budget ?(metrics = M.disabled) ?(exhaustive = true) ?limit
    c p (o : Search.outcome) =
  if p.segments = [] then o
  else begin
    let limit =
      if exhaustive then limit
      else Some (match limit with Some l -> min l 1 | None -> 1)
    in
    let stopped = ref o.Search.stopped in
    let kept = ref [] in
    let n = ref 0 in
    let truncated = ref false in
    (try
       List.iter
         (fun phi ->
           (match limit with
           | Some l when !n >= l ->
             truncated := true;
             raise Exit
           | _ -> ());
           let ok =
             List.for_all
               (fun s ->
                 let ok, r =
                   segment_holds ?budget ~metrics c s ~src:phi.(s.seg_src)
                     ~dst:phi.(s.seg_dst)
                 in
                 (match r with
                 | Budget.Exhausted | Budget.Hit_limit -> ()
                 | r -> stopped := Budget.worst !stopped r);
                 if Budget.final !stopped then raise Exit;
                 ok)
               p.segments
           in
           if ok then begin
             kept := phi :: !kept;
             incr n
           end)
         o.Search.mappings
     with Exit -> ());
    let stopped =
      if !truncated then Budget.worst !stopped Budget.Hit_limit else !stopped
    in
    {
      Search.mappings = List.rev !kept;
      n_found = !n;
      visited = o.Search.visited;
      stopped;
    }
  end

let run ?strategy ?(exhaustive = true) ?limit ?budget ?metrics ?ctx:c ?source
    p g =
  match p.segments with
  | [] ->
    (Engine.run ?strategy ~exhaustive ?limit ?budget ?metrics ?source p.core g)
      .Engine.outcome
  | _ ->
    (* the core must run exhaustively: a mapping that fails its
       segments cannot count against the caller's limit *)
    let c = match c with Some c -> c | None -> ctx g in
    let r =
      Engine.run ?strategy ~exhaustive:true ?budget ?metrics ?source p.core g
    in
    filter_outcome ?budget ?metrics ~exhaustive ?limit c p r.Engine.outcome
