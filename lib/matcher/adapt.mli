(** Mid-query re-planning (adaptive execution): the re-plan step.

    The search order is chosen from estimates; when the data disagrees
    — a hub-dominated degree distribution, a label pair far denser than
    the frequency model assumes — the estimate/actual gap shows up as
    per-position fan-out drift long before the query finishes. The one
    adaptive driver, {!Ws.search} with [~adapt] (at any width), runs the
    search over root ranges — at one worker, geometrically growing root
    slices — compares the observed fan-out at each order position
    ({!Search.profile}) against {!Cost.position_estimates} at every
    task boundary, and when the ratio diverges past [threshold] takes
    {!replan}: the order suffix is re-planned with
    {!Order.exhaustive_from} under an {!Cost.Edge_gamma} model carrying
    the observed reduction factors. The root node is pinned, so every
    root is enumerated exactly once and the union of per-root subtree
    match sets — which do not depend on the suffix order — equals the
    static search's match set. The driver's [~report], when given, is
    always called with the final plan, the re-plan count and the merged
    profile. *)

type config = {
  threshold : float;
  (** re-plan when observed/estimated fan-out (either direction)
        reaches this ratio at some position. Default 4.0. *)
  min_samples : int;
  (** minimum partial mappings alive at position [i-1] before the
        fan-out at [i] is trusted. Default 16 (also the initial root
        slice size). *)
  max_replans : int;
  (** cap on re-plans per query — each one is an
        {!Order.exhaustive_from} run plus a back-edge rebuild. Default
        2. *)
}

val default : config

val diverged : config -> float array -> int array -> bool
(** [diverged cfg estimates descents]: does some order position with
    enough samples show a fan-out (descents.(i)/descents.(i-1)) off the
    estimated ratio (estimates.(i)/estimates.(i-1)) by [threshold] in
    either direction? *)

val replan :
  config ->
  model:Cost.model ->
  Flat_pattern.t ->
  sizes:int array ->
  order:int array ->
  estimates:float array ->
  int array ->
  (int array * float array) option
(** [replan cfg ~model p ~sizes ~order ~estimates descents]: the step
    {!Ws} takes at a task boundary. [None] unless
    [descents] (per position of [order]) {!diverged} from [estimates].
    Otherwise each position's observed fan-out is attributed
    geometrically to the pattern edges closed there, as γ overrides of
    [model] in a {!Cost.Edge_gamma} model, and the result is
    [Some (order', estimates')]: [order'] is the cheapest order with
    [order]'s root pinned when it costs less than [order] under that
    model, else [order] itself (physically), and [estimates'] are its
    {!Cost.position_estimates} — so an order that stands gets a fresh
    baseline and the same drift does not re-trigger. *)
