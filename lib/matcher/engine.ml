
type strategy = {
  retrieval : Feasible.retrieval;
  refine : bool;
  optimize_order : bool;
  cost_model : Cost.model option;
  search_domains : int;
  adaptive : bool;
}

let optimized =
  {
    retrieval = `Profiles;
    refine = true;
    optimize_order = true;
    cost_model = None;
    search_domains = 1;
    adaptive = false;
  }

let baseline =
  {
    retrieval = `Node_attrs;
    refine = false;
    optimize_order = false;
    cost_model = None;
    search_domains = 1;
    adaptive = false;
  }

let strategy_name s =
  let retr =
    match s.retrieval with
    | `Node_attrs -> "attrs"
    | `Profiles -> "profiles"
    | `Subgraphs -> "subgraphs"
  in
  Printf.sprintf "%s%s%s%s" retr
    (if s.refine then "+refine" else "")
    (if s.optimize_order then "+order" else "")
    (if s.adaptive then "+adaptive" else "")

type timings = {
  t_retrieve : float;
  t_refine : float;
  t_order : float;
  t_search : float;
}

let total t = t.t_retrieve +. t.t_refine +. t.t_order +. t.t_search

type phase = Retrieve | Refine | Order | Search

type result = {
  outcome : Search.outcome;
  space_initial : Feasible.space;
  space_refined : Feasible.space;
  refine_stats : Refine.stats option;
  order : int array;
  replans : int;
  timings : timings;
  stopped_in : phase option;
}

type plan =
  | Fresh of Feasible.space * int array
  | Stale of Feasible.space
  | Miss of (unit -> Feasible.space)

type source = {
  plan : plan;
  save : order:int array -> Feasible.space -> unit;
  model : unit -> Cost.model;
  observe :
    Search.outcome ->
    Feasible.space ->
    order:int array ->
    Search.profile ->
    unit;
}

let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let run ?(strategy = optimized) ?(exhaustive = true) ?limit
    ?(budget = Budget.unlimited) ?(metrics = Gql_obs.Metrics.disabled)
    ?label_index ?profile_index ?source p g =
  let module M = Gql_obs.Metrics in
  (* Each phase runs inside a trace span named after it, so `explain
     --analyze` renders the same tree the timings describe. The budget
     is polled at each phase boundary so a deadline that expires during
     retrieval or refinement is attributed to that phase and the
     remaining phases are skipped, returning an empty outcome. *)
  let phase_timed name f = timed (fun () -> M.with_span metrics name f) in
  (* The cost model is taken at most once per run: a source's model may
     be a copy of shared statistics, too dear to take per phase. *)
  let model =
    lazy
      (match source with
      | Some s -> s.model ()
      | None ->
        Option.value strategy.cost_model
          ~default:(Cost.Constant Cost.default_constant))
  in
  (* Only a search on a plan built in this run is profiled and observed:
     repeating a cached plan's search observes nothing new. *)
  let built =
    match source with Some { plan = Fresh _ | Stale _; _ } -> false | _ -> true
  in
  let empty stopped =
    { Search.mappings = []; n_found = 0; visited = 0; stopped }
  in
  let start ~order space =
    {
      outcome = empty Budget.Exhausted;
      space_initial = space;
      space_refined = space;
      refine_stats = None;
      order;
      replans = 0;
      timings =
        { t_retrieve = 0.0; t_refine = 0.0; t_order = 0.0; t_search = 0.0 };
      stopped_in = None;
    }
  in
  let poll_then phase r k =
    match Budget.poll budget with
    | Some reason -> { r with outcome = empty reason; stopped_in = Some phase }
    | None -> k r
  in
  let search r =
    let space = r.space_refined and order = r.order in
    (* A search on a plan built in this run is profiled when metrics
       are on, so [explain --analyze] can show estimate/actual drift,
       or when a source will observe it — at every width. *)
    let observed = built && (M.enabled metrics || Option.is_some source) in
    (* The model is taken for the re-planner and for drift estimates
       only: a warm static search leaves it alone, since a source's
       model may be a snapshot taken under a lock. *)
    let model =
      if strategy.adaptive || (observed && M.enabled metrics) then
        Some (Lazy.force model)
      else None
    in
    (* [Ws.search] has no [exhaustive] switch; first-match mode is a
       global limit of 1 *)
    let limit =
      if exhaustive then limit
      else Some (match limit with Some l -> min l 1 | None -> 1)
    in
    let report = ref None in
    let outcome, t_search =
      phase_timed "search" (fun () ->
          Ws.search ~domains:strategy.search_domains ?limit ~budget ~metrics
            ?adapt:(if strategy.adaptive then Some Adapt.default else None)
            ?model
            ?report:
              (if observed || strategy.adaptive then
                 Some (fun rp -> report := Some rp)
               else None)
            ~order p g space)
    in
    (match !report with
    | Some rp when observed ->
      if M.enabled metrics then
        Array.iteri
          (fun i estimated ->
            M.record_drift metrics ~position:i ~estimated
              ~actual:(float_of_int rp.Ws.r_profile.Search.pr_descents.(i)))
          rp.Ws.r_estimates;
      Option.iter
        (fun s -> s.observe outcome space ~order:rp.Ws.r_order rp.Ws.r_profile)
        source
    | _ -> ());
    {
      r with
      outcome;
      order = (match !report with Some rp -> rp.Ws.r_order | None -> order);
      replans = (match !report with Some rp -> rp.Ws.r_replans | None -> 0);
      timings = { r.timings with t_search };
      stopped_in =
        (match outcome.Search.stopped with
        | Budget.Exhausted | Budget.Hit_limit -> None
        | Budget.Deadline | Budget.Step_budget | Budget.Cancelled ->
          Some Search);
    }
  in
  (* order, hand the new order to the source, poll, search *)
  let order_then_search r =
    let order, t_order =
      if strategy.optimize_order then
        phase_timed "order" (fun () ->
            Order.greedy ~model:(Lazy.force model) p
              ~sizes:(Feasible.sizes r.space_refined))
      else (Order.identity p, 0.0)
    in
    Option.iter (fun s -> s.save ~order r.space_refined) source;
    poll_then Order
      { r with order; timings = { r.timings with t_order } }
      search
  in
  (* the whole pipeline: retrieve, poll, refine, poll, then order *)
  let build retrieve =
    let space, t_retrieve = phase_timed "retrieve" retrieve in
    let r = start ~order:(Order.identity p) space in
    poll_then Retrieve { r with timings = { r.timings with t_retrieve } }
      (fun r ->
        let r =
          if strategy.refine then
            let (space_refined, st), t_refine =
              phase_timed "refine" (fun () ->
                  Refine.refine ~metrics p g space)
            in
            {
              r with
              space_refined;
              refine_stats = Some st;
              timings = { r.timings with t_refine };
            }
          else r
        in
        poll_then Refine r order_then_search)
  in
  match source with
  | Some { plan = Fresh (space, order); _ } ->
    poll_then Order (start ~order space) search
  | Some { plan = Stale space; _ } ->
    order_then_search (start ~order:(Order.identity p) space)
  | Some { plan = Miss retrieve; _ } -> build retrieve
  | None ->
    build (fun () ->
        Feasible.compute ~retrieval:strategy.retrieval ~metrics ?label_index
          ?profile_index p g)

let count_matches ?strategy ?limit ?budget p g =
  (run ?strategy ?limit ?budget p g).outcome.Search.n_found
