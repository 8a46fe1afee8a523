(** End-to-end graph pattern matching pipelines.

    Combines the phases of Section 4 — feasible-mate retrieval with
    local pruning, joint reduction, search-order optimization, and the
    backtracking search — under a configurable strategy, with per-phase
    wall-clock timings and search-space statistics for the experimental
    study.

    The paper's named configurations:
    - {e Optimized}: retrieval by profiles, refinement, optimized order;
    - {e Baseline}: retrieval by node attributes, input order, no
      refinement. *)

open Gql_graph

type strategy = {
  retrieval : Feasible.retrieval;
  refine : bool;
  refine_level : int option;  (** default: pattern size *)
  optimize_order : bool;
  cost_model : Cost.model option;  (** default: constant γ = 0.5 *)
  search_domains : int;
  (** > 1: run the search phase on the work-stealing parallel engine
      ({!Ws.search}) with that many domains. Default 1 (sequential) in
      both named strategies; [gqlsh --domains N] overrides it. *)
  adaptive : bool;
  (** Mid-query re-planning ({!Adapt}): profile per-position fan-out
      against the cost model's estimates and re-order the suffix when
      they diverge. Same match set; default false in both named
      strategies; [gqlsh --adaptive] enables it. *)
}

val optimized : strategy
val baseline : strategy
val strategy_name : strategy -> string

type timings = {
  t_retrieve : float;  (** seconds *)
  t_refine : float;
  t_order : float;
  t_search : float;
}

val total : timings -> float

type phase = Retrieve | Refine | Order | Search
(** Pipeline phase, for attributing where a budget stop happened. *)

type result = {
  outcome : Search.outcome;
  space_initial : Feasible.space;  (** after retrieval/local pruning *)
  space_refined : Feasible.space;  (** = initial when refinement off *)
  refine_stats : Refine.stats option;
  order : int array;
  (** the order the search finished under (adaptive runs may have
      re-planned away from the planner's choice) *)
  replans : int;
  (** re-plans applied by an adaptive search; 0 otherwise *)
  timings : timings;
  stopped_in : phase option;
  (** [None] on a normal completion (including [Hit_limit]); [Some p]
      when the budget stopped the pipeline during phase [p]. The
      pre-search phases poll the budget at their boundaries, so a
      deadline expiring inside retrieval is reported as
      [Some Retrieve] with an empty outcome. *)
}

(** {1 Plan sources}

    A caller that keeps plans across runs (the exec service's plan
    cache) hands {!run} a {!source}: where this run's plan comes from,
    and what to do with what the run learns. The phase sequence itself
    stays in {!run}. *)

type plan =
  | Fresh of Feasible.space * int array
      (** a refined space and its order: skip straight to search *)
  | Stale of Feasible.space
      (** a refined space whose order is out of date: re-order, then
          search *)
  | Miss of (unit -> Feasible.space)
      (** nothing cached: this thunk is the retrieval phase; refine,
          order and search follow as usual *)

type source = {
  plan : plan;
  save : order:int array -> Feasible.space -> unit;
      (** called with every order this run computes, and the refined
          space it was computed for *)
  model : unit -> Cost.model;
      (** the planner's cost model; called at most once per run, and
          only when ordering, adaptive search or drift estimates need
          it *)
  observe :
    Search.outcome ->
    Feasible.space ->
    order:int array ->
    Search.profile ->
    unit;
      (** called after a profiled search on a plan built in this run
          ([Miss]), with the order the search finished under *)
  domains : order:int array -> Feasible.space -> int;
      (** the search fan-out; > 1 runs the work-stealing engine *)
}

val run :
  ?strategy:strategy ->
  ?exhaustive:bool ->
  ?limit:int ->
  ?budget:Budget.t ->
  ?metrics:Gql_obs.Metrics.t ->
  ?label_index:Gql_index.Label_index.t ->
  ?profile_index:Gql_index.Profile_index.t ->
  ?source:source ->
  Flat_pattern.t ->
  Graph.t ->
  result
(** Defaults: [optimized] strategy, exhaustive, no limit, unlimited
    budget, disabled metrics, no source. Indexes are built on the fly
    when not supplied (pass prebuilt ones when timing — the paper
    treats index construction as offline). With metrics enabled, each
    phase runs in a span of the same name
    ([retrieve]/[refine]/[order]/[search]) and the phase counters
    (retrieval, refine, search) are recorded.

    With a [source], the source's model and fan-out replace the
    strategy's [cost_model] and [search_domains]. A cached plan skips
    the phases it covers, and its search is neither profiled nor
    observed, nor does it record drift: a warm run is one budget poll
    and one [search] span. *)

val count_matches :
  ?strategy:strategy ->
  ?limit:int ->
  ?budget:Budget.t ->
  Flat_pattern.t ->
  Graph.t ->
  int
