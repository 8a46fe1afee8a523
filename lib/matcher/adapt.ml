open Gql_graph

type config = { threshold : float; min_samples : int; max_replans : int }

let default = { threshold = 4.0; min_samples = 16; max_replans = 2 }

type result = {
  outcome : Search.outcome;
  replans : int;
  final_order : int array;
  profile : Search.profile;
  estimates : float array;
}

(* Every pattern edge is closed at exactly one order position: the one
   where its later endpoint joins the partial order. *)
let closed_at p order =
  let k = Array.length order in
  let pos = Array.make (Flat_pattern.size p) (-1) in
  Array.iteri (fun i u -> pos.(u) <- i) order;
  let by_pos = Array.make k [] in
  Graph.iter_edges p.Flat_pattern.structure ~f:(fun e { Graph.src; dst; _ } ->
      let i = max pos.(src) pos.(dst) in
      by_pos.(i) <- e :: by_pos.(i));
  by_pos

let gamma_floor = 1e-6
let clamp_gamma g = Float.min 1.0 (Float.max gamma_floor g)

(* Observed fan-out at position i — descents at i per partial mapping
   alive at i-1 — against the model's prediction for the same ratio.
   Fan-outs are per-parent, so slicing the root set does not skew them. *)
let diverged cfg estimates (pd : int array) =
  let k = Array.length pd in
  let rec go i =
    if i >= k then false
    else if pd.(i - 1) >= cfg.min_samples then begin
      let obs = Float.max 1e-9 (float_of_int pd.(i) /. float_of_int pd.(i - 1)) in
      let est = Float.max 1e-9 (estimates.(i) /. Float.max 1e-9 estimates.(i - 1)) in
      if obs /. est >= cfg.threshold || est /. obs >= cfg.threshold then true
      else go (i + 1)
    end
    else go (i + 1)
  in
  if k <= 1 then false else go 1

(* Per-edge γ overrides from the observed fan-outs: the fan-out at
   position i is |Φ(u)| scaled by the product of the factors of the m
   edges closed there, so each closed edge is attributed the geometric
   share (fanout / |Φ(u)|)^(1/m). Positions without enough samples
   leave their edges at -1 (inherit from the base model). *)
let observed_overrides cfg p ~sizes order (pd : int array) =
  let k = Array.length order in
  let overrides = Array.make (Graph.n_edges p.Flat_pattern.structure) (-1.0) in
  let by_pos = closed_at p order in
  for i = 1 to k - 1 do
    if pd.(i - 1) >= cfg.min_samples then begin
      match by_pos.(i) with
      | [] -> ()
      | es ->
        let f = float_of_int pd.(i) /. float_of_int pd.(i - 1) in
        let su = Float.max 1.0 (float_of_int sizes.(order.(i))) in
        let m = List.length es in
        let per = clamp_gamma (clamp_gamma (f /. su) ** (1.0 /. float_of_int m)) in
        List.iter (fun e -> overrides.(e) <- per) es
    end
  done;
  overrides

(* The re-plan step both drivers take at a slice or task boundary. *)
let replan cfg ~model p ~sizes ~order ~estimates (pd : int array) =
  if not (diverged cfg estimates pd) then None
  else begin
    let overrides = observed_overrides cfg p ~sizes order pd in
    let model' = Cost.Edge_gamma { base = model; overrides } in
    let candidate =
      Order.exhaustive_from ~model:model' p ~sizes ~prefix:[| order.(0) |]
    in
    let order' =
      if
        Cost.order_cost model' p ~sizes candidate
        < Cost.order_cost model' p ~sizes order
      then candidate
      else order
    in
    Some (order', Cost.position_estimates model' p ~sizes order')
  end

let run ?(exhaustive = true) ?limit ?budget ?(metrics = Gql_obs.Metrics.disabled)
    ?(config = default) ~model ~order p g space =
  let module M = Gql_obs.Metrics in
  let k = Flat_pattern.size p in
  let sizes = Feasible.sizes space in
  let order = ref order in
  let profile = Search.profile_create k in
  let estimates = ref (Cost.position_estimates model p ~sizes !order) in
  let replans = ref 0 in
  let results = ref [] in
  let n_found = ref 0 in
  let visited = ref 0 in
  let reason = ref Budget.Exhausted in
  let on_match phi =
    incr n_found;
    results := Array.copy phi :: !results;
    let hit_limit = match limit with Some l -> !n_found >= l | None -> false in
    if hit_limit || not exhaustive then `Stop else `Continue
  in
  let n_roots =
    if k = 0 then 0 else Array.length space.Feasible.candidates.(!order.(0))
  in
  if k = 0 || n_roots = 0 then begin
    (* nothing to slice — delegate so degenerate cases keep Search.run's
       exact semantics (up-front budget poll included) *)
    let o =
      Search.run ~exhaustive ?limit ?budget ~metrics ~order:!order p g space
    in
    {
      outcome = o;
      replans = 0;
      final_order = !order;
      profile;
      estimates = !estimates;
    }
  end
  else begin
  (* Root slices start small — enough to clear [min_samples] — and
     double, so feedback arrives after a fraction of the work but a
     well-estimated query pays only O(log) slice boundaries. *)
  let slice = ref (max 8 config.min_samples) in
  let lo = ref 0 in
  let running = ref true in
  while !running && !lo < n_roots do
    let hi = min n_roots (!lo + !slice) in
    let v, r =
      Search.run_raw ?budget ~metrics ~order:!order ~profile
        ~root_range:(!lo, hi) ~on_match p g space
    in
    visited := !visited + v;
    (match r with
    | Budget.Exhausted -> ()
    | r ->
      reason := r;
      running := false);
    lo := hi;
    slice := !slice * 2;
    if !running && !lo < n_roots && !replans < config.max_replans then
      match
        replan config ~model p ~sizes ~order:!order ~estimates:!estimates
          profile.Search.pr_descents
      with
      | None -> ()
      | Some (order', estimates') ->
        estimates := estimates';
        if order' != !order then begin
          order := order';
          Search.profile_reset profile;
          incr replans;
          if M.enabled metrics then M.incr metrics M.Planner_replans
        end
  done;
    let outcome =
      {
        Search.mappings = List.rev !results;
        n_found = !n_found;
        visited = !visited;
        stopped = !reason;
      }
    in
    {
      outcome;
      replans = !replans;
      final_order = !order;
      profile;
      estimates = !estimates;
    }
  end
