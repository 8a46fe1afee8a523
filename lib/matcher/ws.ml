(* The search driver: work-stealing at any width, adaptive on request.

   Partitioning Φ(u₁) once into static slices leaves every domain but
   one idle under a skewed Φ(u₁) (one hub node owning almost the whole
   search tree). Here each worker owns a {!Deque} of subtree tasks — a
   prefix assignment u₁…uⱼ ↦ v₁…vⱼ plus a candidate range at level j —
   and:

   - runs each task through the one descend loop, {!Search.descend}
     (same Check, same budget accounting, same profile counters);
   - lazily exposes work through the loop's exposure hook: while its
     own deque holds fewer than [expose_target] tasks and more than one
     candidate remains at the current level, it splits off the
     untouched siblings as ONE task (the grain adapts — nothing is
     exposed while the deque is primed, so exposure cost is O(levels),
     not O(search tree));
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

   One worker is the same loop without the sharing: its tasks are a
   plain list (one root range, or the adaptive root slices), nothing is
   exposed, the pool is not touched, matches need no tickets and the
   caller's metrics are written directly.

   Adaptive mode ([~adapt]) shares one plan — (order, back edges,
   per-position estimates, epoch) — through an Atomic. A task is bound
   to the plan it was created under (its prefix is indexed by that
   plan's order positions), except root tasks, whose empty prefix is
   order-agnostic: they adopt whatever plan is current when they run,
   which is how a re-plan takes effect on all outstanding root ranges.
   Workers profile descents per position for the current epoch only; a
   worker whose local observations diverge from the plan's estimates
   takes {!Adapt.replan}'s suffix re-order (root pinned, so root ranges
   stay valid) and installs it with compare-and-set — losers simply
   continue under the winner's plan. The match set is unchanged: every
   root is enumerated exactly once and a root's subtree match set does
   not depend on the suffix order. *)

(* Everything a task needs to interpret its prefix and keep searching:
   immutable once built, shared via [Atomic.t plan]. *)
type plan = {
  pl_order : int array;
  pl_back : Search.back array;
  pl_est : float array;  (* Cost.position_estimates; [||] without a model *)
  pl_epoch : int;
}

type task = {
  t_phi : int array;  (* values of order positions 0..d-1; d = length *)
  t_lo : int;  (* candidates of order.(d) left to explore: *)
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
  r_profile : Search.profile;  (* observed under the final plan *)
  r_estimates : float array;  (* its position estimates *)
}

(* What one worker hands back once it has finished. *)
type finished = {
  w_found : int array list;  (* its kept mappings, latest first *)
  w_n : int;
  w_visited : int;
  w_reason : Budget.stop_reason;
  w_metrics : Gql_obs.Metrics.t;  (* the caller's own at one worker *)
  w_prof : Search.profile option;
  w_epoch : int;  (* the plan epoch [w_prof] was counted under *)
}

(* The one-worker adaptive root slices: the first clears [min_samples],
   each next one doubles, so feedback arrives after a fraction of the
   work but a well-estimated query pays only O(log n) task
   boundaries. *)
let root_slices cfg n0 =
  let rec go lo size acc =
    if lo >= n0 then List.rev acc
    else
      let hi = min n0 (lo + size) in
      go hi (size * 2) ((lo, hi) :: acc)
  in
  go 0 (max 8 cfg.Adapt.min_samples) []

let search ~domains ?order ?limit ?(budget = Budget.unlimited)
    ?(metrics = Gql_obs.Metrics.disabled) ?adapt ?model ?report p g space =
  let module M = Gql_obs.Metrics in
  let k = Flat_pattern.size p in
  let n_domains = max 1 domains in
  let order =
    match order with
    | Some o when Array.length o > 0 -> o
    | _ -> Array.init k (fun i -> i)
  in
  let adaptive = adapt <> None && k > 1 in
  let cfg = Option.value adapt ~default:Adapt.default in
  let estimating = adaptive || Option.is_some model in
  let model =
    Option.value model ~default:(Cost.Constant Cost.default_constant)
  in
  let sizes = if estimating then Feasible.sizes space else [||] in
  let estimates order =
    if estimating then Cost.position_estimates model p ~sizes order else [||]
  in
  let n0 =
    if
      k = 0
      || Array.exists (fun c -> Array.length c = 0) space.Feasible.candidates
    then 0
    else Array.length space.Feasible.candidates.(order.(0))
  in
  if n0 = 0 || (n_domains = 1 && not adaptive) then begin
    (* nothing to split, or one static worker: one descend over every
       root, which is [Search.run]; tasks would add only setup *)
    let profile = Option.map (fun _ -> Search.profile_create k) report in
    let outcome =
      Search.run ?limit ~budget ~metrics ~order ?profile p g space
    in
    (match (report, profile) with
    | Some f, Some r_profile ->
      f
        {
          r_replans = 0;
          r_order = order;
          r_profile;
          r_estimates = estimates order;
        }
    | _ -> ());
    outcome
  end
  else
    let plan0 =
      {
        pl_order = order;
        pl_back = Search.back_edges p order;
        pl_est = estimates order;
        pl_epoch = 0;
      }
    in
    (* one worker here is an adaptive one *)
    let solo = n_domains = 1 in
    (* root tasks: one range per worker when fanned out (any imbalance
       is corrected by stealing), else the adaptive root slices *)
    let seeds =
      List.map
        (fun (lo, hi) -> { t_phi = [||]; t_lo = lo; t_hi = hi; t_plan = plan0 })
        (if solo then root_slices cfg n0
         else
           let s = min n_domains n0 in
           List.init s (fun d -> (d * n0 / s, (d + 1) * n0 / s)))
    in
    let current_plan = Atomic.make plan0 in
    let replans = Atomic.make 0 in
    let siblings = Budget.token () in
    let budget = if solo then budget else Budget.with_token budget siblings in
    let tickets = Atomic.make 0 in
    (* tasks sitting in a deque or currently being executed; 0 means
       the whole tree is done and idle workers may exit *)
    let pending = Atomic.make (if solo then 0 else List.length seeds) in
    let deques =
      if solo then [||] else Array.init n_domains (fun _ -> Deque.create ())
    in
    if not solo then List.iteri (fun d t -> Deque.push deques.(d) t) seeds;
    (* one worker's whole queue *)
    let queue = ref (if solo then seeds else []) in
    let profiled = adaptive || Option.is_some report in
    let worker wid =
      let dm = if solo then metrics else M.like metrics in
      let results = ref [] in
      let n = ref 0 in
      let keep phi =
        incr n;
        results := Array.copy phi :: !results
      in
      let on_match =
        match limit with
        | None ->
          fun phi ->
            keep phi;
            true
        | Some l when solo ->
          fun phi ->
            keep phi;
            !n < l
        | Some l ->
          (* a global cap: a mapping is kept iff its ticket is below
             the limit, and the last ticket stops the siblings *)
          fun phi ->
            let ticket = Atomic.fetch_and_add tickets 1 in
            if ticket < l then keep phi;
            if ticket + 1 >= l then begin
              Budget.cancel siblings;
              false
            end
            else true
      in
      (* the plan of the task being executed; set by [run_task] *)
      let w_plan = ref plan0 in
      let spawned = ref 0 in
      let expose =
        if solo then None
        else
          Some
            (fun phi depth lo hi ->
              let dq = deques.(wid) in
              Deque.length dq < expose_target
              &&
              let pl = !w_plan in
              Atomic.incr pending;
              incr spawned;
              Deque.push dq
                {
                  t_phi = Array.init depth (fun i -> phi.(pl.pl_order.(i)));
                  t_lo = lo;
                  t_hi = hi;
                  t_plan = pl;
                };
              true)
      in
      (* per-position counts, for the epoch [prof_epoch] only —
         stale-plan tasks are executed but not profiled *)
      let prof = if profiled then Some (Search.profile_create k) else None in
      let prof_epoch = ref 0 in
      let w =
        Search.walker ~budget ?profile:prof ?expose ~on_match p g space
      in
      let run_task t =
        (* a root task has an empty, order-agnostic prefix: bind it to
           the freshest plan so an applied re-plan reaches every
           pending root range. Deeper prefixes are glued to the order
           they were captured under. *)
        let pl =
          if adaptive && Array.length t.t_phi = 0 then Atomic.get current_plan
          else t.t_plan
        in
        w_plan := pl;
        (match prof with
        | Some pr when adaptive ->
          if pl.pl_epoch > !prof_epoch then begin
            Search.profile_reset pr;
            prof_epoch := pl.pl_epoch
          end;
          Search.set_profiling w (pl.pl_epoch = !prof_epoch)
        | _ -> ());
        Search.descend w ~order:pl.pl_order ~back:pl.pl_back ~prefix:t.t_phi
          t.t_lo t.t_hi;
        if not solo then Atomic.decr pending
      in
      let more_work () =
        if solo then !queue <> [] else Atomic.get pending > 0
      in
      (* task-boundary re-plan trigger: cheap (a handful of float
         divides) and outside the search hot path; pointless once no
         task is left to run under a new plan *)
      let maybe_replan () =
        match prof with
        | Some pr
          when adaptive
               && Atomic.get replans < cfg.Adapt.max_replans
               && more_work () -> (
          let pl = Atomic.get current_plan in
          if pl.pl_epoch = !prof_epoch then
            match
              Adapt.replan cfg ~model p ~sizes ~order:pl.pl_order
                ~estimates:pl.pl_est pr.Search.pr_descents
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
              end)
        | _ -> ()
      in
      let steals = ref 0 in
      let idles = ref 0 in
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
      let rec next idle_rounds =
        if solo then (
          match !queue with
          | t :: rest ->
            queue := rest;
            Some t
          | [] -> None)
        else
          match Deque.pop deques.(wid) with
          | Some t -> Some t
          | None -> (
            match try_steal () with
            | Some t ->
              incr steals;
              Some t
            | None ->
              if Atomic.get pending = 0 then None
              else begin
                incr idles;
                match Budget.poll budget with
                | Some r ->
                  Search.stop w r;
                  None
                | None ->
                  Domain.cpu_relax ();
                  (* on an oversubscribed machine spinning starves the
                     worker that owns the remaining work; yield the core
                     after a while *)
                  if idle_rounds > 1000 then begin
                    Unix.sleepf 1e-4;
                    next 0
                  end
                  else next (idle_rounds + 1)
              end)
      in
      let rec loop () =
        if not (Search.halted w) then
          match next 0 with
          | Some t ->
            run_task t;
            maybe_replan ();
            loop ()
          | None -> ()
      in
      loop ();
      Search.flush w dm;
      if (not solo) && M.enabled dm then begin
        M.add dm M.Parallel_steals !steals;
        M.add dm M.Parallel_tasks_spawned !spawned;
        M.add dm M.Parallel_idle_polls !idles
      end;
      {
        w_found = !results;
        w_n = !n;
        w_visited = Search.visited w;
        w_reason = Search.reason w;
        w_metrics = dm;
        w_prof = prof;
        w_epoch = !prof_epoch;
      }
    in
    let outcomes =
      if solo then [ worker 0 ]
      else
        (* worker 0 runs here, the others on parked pool helpers;
           [Pool.run] returns only after every worker has finished *)
        Pool.run n_domains (fun wid ->
            match worker wid with
            | outcome -> outcome
            | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              Budget.cancel siblings;
              Printexc.raise_with_backtrace e bt)
        |> Array.to_list
        |> List.map (function
             | Ok o -> o
             | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    in
    if not solo then
      List.iter (fun o -> M.merge ~into:metrics o.w_metrics) outcomes;
    let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
    let n_found = sum (fun o -> o.w_n) in
    Option.iter
      (fun f ->
        let final = Atomic.get current_plan in
        let merged = Search.profile_create k in
        List.iter
          (fun o ->
            match o.w_prof with
            | Some pr when o.w_epoch = final.pl_epoch ->
              for i = 0 to k - 1 do
                merged.Search.pr_checked.(i) <-
                  merged.Search.pr_checked.(i) + pr.Search.pr_checked.(i);
                merged.Search.pr_descents.(i) <-
                  merged.Search.pr_descents.(i) + pr.Search.pr_descents.(i)
              done
            | _ -> ())
          outcomes;
        f
          {
            r_replans = Atomic.get replans;
            r_order = final.pl_order;
            r_profile = merged;
            r_estimates = final.pl_est;
          })
      report;
    {
      Search.mappings =
        List.concat_map (fun o -> List.rev o.w_found) outcomes;
      n_found;
      visited = sum (fun o -> o.w_visited);
      stopped =
        (match limit with
        | Some l when n_found >= l -> Budget.Hit_limit
        | _ ->
          List.fold_left
            (fun r o -> Budget.worst r o.w_reason)
            Budget.Exhausted outcomes);
    }
