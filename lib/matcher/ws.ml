(* Work-stealing parallel search.

   Partitioning Φ(u₁) once into static slices leaves every domain but
   one idle under a skewed Φ(u₁) (one hub node owning almost the whole
   search tree). Here each worker owns a {!Deque} of subtree tasks — a
   prefix assignment u₁…uⱼ ↦ v₁…vⱼ plus a candidate range at level j —
   and:

   - expands its own subtree depth-first, exactly like the sequential
     engine (same [Search.node_check], same budget accounting);
   - lazily exposes work: while its own deque holds fewer than
     [expose_target] tasks and more than one candidate remains at the
     current level, it splits off the untouched siblings as ONE task
     (the grain adapts — nothing is exposed while the deque is primed,
     so exposure cost is O(levels), not O(search tree));
   - when its deque runs dry, steals from a victim's top — the oldest,
     hence shallowest, hence biggest pending subtree — which keeps
     steals rare;
   - spins in a polite idle loop (budget poll + [Domain.cpu_relax],
     backing off to a micro-sleep) until either work appears or the
     global pending-task count hits zero.

   Worker 0 runs on the calling domain, workers 1..n-1 on parked
   helpers of {!Pool}, which outlive the search: no domain is spawned
   or joined per search once the pool is warm. Global ~limit, sibling
   cancellation, exception re-raise (after every worker has finished)
   and per-worker metrics are described in the interface.

   Adaptive mode ([~adapt]) shares one plan — (order, back edges,
   per-position estimates, epoch) — through an Atomic. A task is bound
   to the plan it was created under (its prefix is indexed by that
   plan's order positions), except depth-0 tasks, whose empty prefix is
   order-agnostic: they adopt whatever plan is current when they run,
   which is how a re-plan takes effect on all outstanding root ranges.
   Workers profile descents per position for the current epoch only; a
   worker whose local observations diverge from the plan's estimates
   takes {!Adapt.replan}'s suffix re-order (root pinned, so root ranges
   stay valid) and installs it with compare-and-set — losers simply
   continue under the winner's plan. The match set is unchanged: every root is
   enumerated exactly once and a root's subtree match set does not
   depend on the suffix order. *)

open Gql_graph

let default_domains () = Domain.recommended_domain_count ()

(* Everything a task needs to interpret its prefix and keep searching:
   immutable once built, shared via [Atomic.t plan]. *)
type plan = {
  pl_order : int array;
  pl_back : Search.back array;
  pl_est : float array;  (* Cost.position_estimates; [||] when static *)
  pl_epoch : int;
}

type task = {
  t_depth : int;  (* order positions 0..t_depth-1 are assigned *)
  t_phi : int array;  (* their values, indexed by order position *)
  t_lo : int;  (* candidates of order.(t_depth) left to explore: *)
  t_hi : int;  (* indices [t_lo, t_hi) *)
  t_plan : plan;  (* the plan t_phi's positions refer to *)
}

(* Own-deque priming level: expose while the deque holds fewer tasks
   than this. 2 keeps one task available to thieves even while the
   owner is popping its own backlog, without flooding the deque. *)
let expose_target = 2

type report = {
  r_replans : int;
  r_order : int array;  (* the final plan's order *)
  r_profile : Search.profile;  (* descents observed under the final plan *)
  r_estimates : float array;  (* its position estimates *)
}

let search ?domains ?order ?limit ?(budget = Budget.unlimited)
    ?(metrics = Gql_obs.Metrics.disabled) ?adapt
    ?(model = Cost.Constant Cost.default_constant) ?report p g space =
  let module M = Gql_obs.Metrics in
  let k = Flat_pattern.size p in
  let n_domains =
    max 1 (Option.value domains ~default:(default_domains ()))
  in
  let order =
    match order with
    | Some o when Array.length o > 0 -> o
    | _ -> Array.init k (fun i -> i)
  in
  let adaptive = adapt <> None && k > 1 in
  if k = 0 || n_domains = 1 then
    match adapt with
    | Some config ->
      let r =
        Adapt.run ?limit ~budget ~metrics ~config ~model ~order p g space
      in
      Option.iter
        (fun f ->
          f
            {
              r_replans = r.Adapt.replans;
              r_order = r.Adapt.final_order;
              r_profile = r.Adapt.profile;
              r_estimates = r.Adapt.estimates;
            })
        report;
      r.Adapt.outcome
    | None -> Search.run ?limit ~budget ~metrics ~order p g space
  else if
    Array.exists (fun c -> Array.length c = 0) space.Feasible.candidates
  then begin
    let stopped =
      match Budget.poll budget with Some r -> r | None -> Budget.Exhausted
    in
    { Search.mappings = []; n_found = 0; visited = 0; stopped }
  end
  else begin
    let u0 = order.(0) in
    let roots = space.Feasible.candidates.(u0) in
    let n0 = Array.length roots in
    let siblings = Budget.token () in
    let domain_budget = Budget.with_token budget siblings in
    let tickets = Atomic.make 0 in
    (* tasks sitting in a deque or currently being executed; 0 means the
       whole tree is done and idle workers may exit *)
    let pending = Atomic.make 0 in
    let deques = Array.init n_domains (fun _ -> Deque.create ()) in
    let pattern_directed = Graph.directed p.Flat_pattern.structure in
    let sizes = if adaptive then Feasible.sizes space else [||] in
    let plan0 =
      {
        pl_order = order;
        pl_back = Search.back_edges p order;
        pl_est =
          (if adaptive then Cost.position_estimates model p ~sizes order
           else [||]);
        pl_epoch = 0;
      }
    in
    let current_plan = Atomic.make plan0 in
    let replans = Atomic.make 0 in
    let cfg = Option.value adapt ~default:Adapt.default in
    (* seed: contiguous ranges of Φ(u₁), one depth-0 task per domain —
       the work-stealing equivalent of the static slices, except any
       imbalance is corrected by stealing instead of suffered *)
    let seeds = min n_domains n0 in
    for d = 0 to seeds - 1 do
      let lo = d * n0 / seeds and hi = (d + 1) * n0 / seeds in
      if hi > lo then begin
        Atomic.incr pending;
        Deque.push deques.(d)
          { t_depth = 0; t_phi = [||]; t_lo = lo; t_hi = hi; t_plan = plan0 }
      end
    done;
    let max_visited = Budget.max_visited domain_budget in
    let poll_mask = Budget.check_interval - 1 in
    let worker wid () =
      let dm = M.like metrics in
      let phi = Array.make k (-1) in
      let used = Bitset.create (max 1 (Graph.n_nodes g)) in
      let my_deque = deques.(wid) in
      let results = ref [] in
      let n = ref 0 in
      let visited = ref 0 in
      let descents = ref 0 in
      let matches = ref 0 in
      let steals = ref 0 in
      let spawned = ref 0 in
      let idles = ref 0 in
      let stopped = ref false in
      let reason = ref Budget.Exhausted in
      (* the plan of the task being executed; set by [run_task] *)
      let w_plan = ref plan0 in
      (* descents per order position, for the epoch [prof_epoch] only —
         stale-plan tasks are executed but not profiled *)
      let prof = Search.profile_create k in
      let prof_epoch = ref 0 in
      let profiling = ref false in
      let stop r =
        reason := r;
        stopped := true
      in
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
          match Budget.poll domain_budget with
          | Some r ->
            stop r;
            true
          | None -> false
        then false
        else begin
          if !profiling then
            prof.Search.pr_checked.(i) <- prof.Search.pr_checked.(i) + 1;
          Search.node_check ~g ~p ~pattern_directed !w_plan.pl_back phi i v
        end
      in
      let on_match () =
        incr matches;
        let accepted =
          match limit with
          | None -> true
          | Some l ->
            let ticket = Atomic.fetch_and_add tickets 1 in
            if ticket + 1 >= l then Budget.cancel siblings;
            ticket < l
        in
        if accepted then begin
          incr n;
          results := Array.copy phi :: !results
        end
        else stop Budget.Hit_limit
      in
      (* explore candidates [lo, hi) of order.(depth) under the prefix
         currently installed in phi/used *)
      let rec explore depth lo hi =
        let order = !w_plan.pl_order in
        let u = Array.unsafe_get order depth in
        let cands = Array.unsafe_get space.Feasible.candidates u in
        let ci = ref lo in
        let hi = ref hi in
        while (not !stopped) && !ci < !hi do
          if !hi - !ci > 1 && Deque.length my_deque < expose_target then begin
            (* split: keep the current candidate, publish the rest of
               this level as one stealable task *)
            Atomic.incr pending;
            incr spawned;
            Deque.push my_deque
              {
                t_depth = depth;
                t_phi = Array.init depth (fun i -> phi.(order.(i)));
                t_lo = !ci + 1;
                t_hi = !hi;
                t_plan = !w_plan;
              };
            hi := !ci + 1
          end;
          let v = Array.unsafe_get cands !ci in
          (* bounds-checked used-set ops: a malformed candidate space
             (ids beyond the graph) must raise, not corrupt the heap *)
          if (not (Bitset.mem used v)) && check depth v then begin
            incr descents;
            if !profiling then
              prof.Search.pr_descents.(depth) <-
                prof.Search.pr_descents.(depth) + 1;
            phi.(u) <- v;
            Bitset.add used v;
            (if depth + 1 >= k then begin
               if Flat_pattern.global_holds p g phi then on_match ()
             end
             else
               explore (depth + 1) 0
                 (Array.length space.Feasible.candidates.(order.(depth + 1))));
            phi.(u) <- -1;
            Bitset.remove used v
          end;
          incr ci
        done
      in
      let run_task t =
        (* a depth-0 task has an empty, order-agnostic prefix: bind it
           to the freshest plan so an applied re-plan reaches every
           pending root range. Deeper prefixes are glued to the order
           they were captured under. *)
        let pl =
          if t.t_depth = 0 && adaptive then Atomic.get current_plan
          else t.t_plan
        in
        w_plan := pl;
        if adaptive then begin
          if pl.pl_epoch > !prof_epoch then begin
            Search.profile_reset prof;
            prof_epoch := pl.pl_epoch
          end;
          profiling := pl.pl_epoch = !prof_epoch
        end;
        let order = pl.pl_order in
        (* adopt the prefix: it was validated when captured, and graph
           and space are immutable, so no re-checking *)
        for i = 0 to t.t_depth - 1 do
          let v = t.t_phi.(i) in
          phi.(order.(i)) <- v;
          Bitset.unsafe_add used v
        done;
        Fun.protect
          ~finally:(fun () ->
            for i = 0 to t.t_depth - 1 do
              phi.(order.(i)) <- -1;
              Bitset.unsafe_remove used t.t_phi.(i)
            done;
            Atomic.decr pending)
          (fun () -> explore t.t_depth t.t_lo t.t_hi)
      in
      (* task-boundary re-plan trigger: cheap (a handful of float
         divides) and outside the search hot path *)
      let maybe_replan () =
        if adaptive && Atomic.get replans < cfg.Adapt.max_replans then begin
          let pl = Atomic.get current_plan in
          if pl.pl_epoch = !prof_epoch then
            match
              Adapt.replan cfg ~model p ~sizes ~order:pl.pl_order
                ~estimates:pl.pl_est prof.Search.pr_descents
            with
            | None -> ()
            | Some (order, pl_est) ->
              (* an unchanged order still gets a new epoch, so its
                 refreshed estimates start a fresh profile *)
              let reordered = order != pl.pl_order in
              let pl' =
                {
                  pl_order = order;
                  pl_back =
                    (if reordered then Search.back_edges p order
                     else pl.pl_back);
                  pl_est;
                  pl_epoch = pl.pl_epoch + 1;
                }
              in
              if Atomic.compare_and_set current_plan pl pl' && reordered
              then begin
                Atomic.incr replans;
                if M.enabled dm then M.incr dm M.Planner_replans
              end
        end
      in
      let try_steal () =
        let found = ref None in
        let tried = ref 0 in
        while !found = None && !tried < n_domains - 1 do
          let victim = (wid + 1 + !tried) mod n_domains in
          (match Deque.steal deques.(victim) with
          | Some t -> found := Some t
          | None -> ());
          incr tried
        done;
        !found
      in
      (* an already-expired deadline or cancelled token must do no work *)
      (match Budget.poll domain_budget with Some r -> stop r | None -> ());
      let idle_rounds = ref 0 in
      while not !stopped do
        match Deque.pop my_deque with
        | Some t ->
          idle_rounds := 0;
          run_task t;
          maybe_replan ()
        | None -> (
          match try_steal () with
          | Some t ->
            idle_rounds := 0;
            incr steals;
            run_task t;
            maybe_replan ()
          | None ->
            if Atomic.get pending = 0 then stopped := true
            else begin
              incr idles;
              (match Budget.poll domain_budget with
              | Some r -> stop r
              | None ->
                Domain.cpu_relax ();
                incr idle_rounds;
                (* on an oversubscribed machine spinning starves the
                   worker that owns the remaining work; yield the core
                   after a while *)
                if !idle_rounds > 1000 then begin
                  idle_rounds := 0;
                  Unix.sleepf 1e-4
                end)
            end)
      done;
      if M.enabled dm then begin
        M.add dm M.Search_visited !visited;
        M.add dm M.Search_backtracks (!visited - !descents);
        M.add dm M.Search_matches !matches;
        M.add dm M.Parallel_steals !steals;
        M.add dm M.Parallel_tasks_spawned !spawned;
        M.add dm M.Parallel_idle_polls !idles
      end;
      (List.rev !results, !n, !visited, !reason, dm, prof, !prof_epoch)
    in
    (* worker 0 runs here, the others on parked pool helpers; [Pool.run]
       returns only after every worker has finished *)
    let finished =
      Pool.run n_domains (fun wid ->
          match worker wid () with
          | outcome -> outcome
          | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            Budget.cancel siblings;
            Printexc.raise_with_backtrace e bt)
    in
    let outcomes =
      Array.to_list finished
      |> List.map (function
           | Ok o -> o
           | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    in
    let rev_mappings, n_found, visited, reason =
      List.fold_left
        (fun (ms, n, vis, reason)
             (mappings, n_dom, visited, stopped, dm, _, _) ->
          M.merge ~into:metrics dm;
          ( List.rev_append mappings ms,
            n + n_dom,
            vis + visited,
            Budget.worst reason stopped ))
        ([], 0, 0, Budget.Exhausted)
        outcomes
    in
    (if adaptive then
       Option.iter
         (fun f ->
           let final = Atomic.get current_plan in
           let merged = Search.profile_create k in
           List.iter
             (fun (_, _, _, _, _, prof, epoch) ->
               if epoch = final.pl_epoch then
                 for i = 0 to k - 1 do
                   merged.Search.pr_checked.(i) <-
                     merged.Search.pr_checked.(i)
                     + prof.Search.pr_checked.(i);
                   merged.Search.pr_descents.(i) <-
                     merged.Search.pr_descents.(i)
                     + prof.Search.pr_descents.(i)
                 done)
             outcomes;
           f
             {
               r_replans = Atomic.get replans;
               r_order = final.pl_order;
               r_profile = merged;
               r_estimates = final.pl_est;
             })
         report);
    let stopped =
      match limit with
      | Some l when n_found >= l -> Budget.Hit_limit
      | _ -> reason
    in
    { Search.mappings = List.rev rev_mappings; n_found; visited; stopped }
  end
