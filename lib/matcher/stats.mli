(** Learned planner statistics (the feedback half of §4.4's cost model).

    Aggregates what the static [Cost.Frequencies] model only estimates:
    per-(label, log2 pattern-degree bucket) candidate {e selectivity}
    |Φ(u)| / |V(g)| as observed after retrieval and refinement, and
    per-(label, label) edge {e reduction factors} γ as observed from the
    search's per-position fan-out. Both tables are exponentially decayed
    averages ([decay] is the weight of a new observation), so the model
    tracks workload drift instead of averaging it away.

    Every [epoch_every] folded-in runs the [epoch] counter bumps; the
    exec-service plan cache stamps cached plans with the epoch they were
    planned under and re-plans when it ages out.

    Instances are not domain-safe: the exec service folds observations
    in under its cache mutex and hands {!snapshot}s to concurrent
    planners. The statistics live in memory only: they are learned
    afresh by each process and never written to a store. *)

type t

val create : ?decay:float -> ?epoch_every:int -> unit -> t
(** Defaults: [decay = 0.25], [epoch_every = 64]. Raises
    [Invalid_argument] for [decay] outside (0, 1] or non-positive
    [epoch_every]. *)

val decay : t -> float
val epoch : t -> int
val observations : t -> int
(** Runs folded in via {!observe_run}. *)

val snapshot : t -> t
(** Deep copy — safe to read from another domain while the original
    keeps learning. *)

val observe_selectivity :
  t -> label:string option -> degree:int -> float -> unit
(** Fold in one observed selectivity (clamped to [0, 1]) for a pattern
    node with the given required label and pattern degree. *)

val selectivity : t -> label:string option -> degree:int -> float option
(** The decayed average for that (label, degree-bucket), if any run
    observed it. *)

val observe_gamma : t -> string option -> string option -> float -> unit
(** Fold in one observed per-edge reduction factor for an edge between
    nodes of the two labels (unordered; clamped to [1e-6, 1]). *)

val gamma : t -> string option -> string option -> float option

val observe_run :
  t ->
  p:Flat_pattern.t ->
  n_nodes:int ->
  sizes:int array ->
  order:int array ->
  fanouts:float array ->
  unit
(** Fold one finished search in: [sizes.(u)] is |Φ(u)| after
    refinement, [n_nodes] the data-graph size, [order] the search order
    used, and [fanouts.(i)] the observed mean number of successful
    extensions per partial at order position [i] (non-finite = position
    never observed; position 0 is ignored). The fan-out at position [i]
    is attributed to the pattern edges closed there, each receiving the
    m-th root of the observed reduction. Bumps [observations] and, every
    [epoch_every] runs, [epoch]. *)

val estimate_sizes : t -> Flat_pattern.t -> n_nodes:int -> int array
(** Estimated |Φ(u)| per pattern node of a pattern {e before} running
    it, from the learned selectivities; unseen (label, degree) buckets
    estimate [n_nodes]. Used to cost whole patterns against each other
    in multi-pattern programs. *)
