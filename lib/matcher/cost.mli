(** Cost model for search orders (§4.4).

    A search order is a left-deep join tree over the pattern nodes. The
    result size of a join is [Size(left) × Size(right) × γ] where the
    reduction factor γ is either a constant or the product of the
    conditional edge probabilities [P(e(u,v)) = freq(e(u,v)) /
    (freq(u) · freq(v))] over the pattern edges closed by the join
    (Definition 4.11); the cost of a join is [Size(left) × Size(right)]
    (Definition 4.12) and the cost of an order is the sum over its
    joins (Definition 4.13). *)

open Gql_graph

type stats
(** Label and edge-label frequencies of a data graph. *)

val stats_of_graph : Graph.t -> stats

val label_frequency : stats -> string option -> float
(** Number of data nodes carrying the label ([n_nodes] for [None]). *)

val edge_probability : stats -> string option -> string option -> float
(** [P(e(u,v))] from the frequency estimates; falls back to the
    constant factor when either label is unknown. *)

type model =
  | Constant of float  (** fixed γ per joined edge *)
  | Frequencies of stats
  | Learned of { learned : Stats.t; fallback : stats option }
      (** γ from the decayed per-label-pair observations of {!Stats};
          label pairs no run has observed yet fall back to [fallback]'s
          frequency estimate, or to {!default_constant} without one. *)
  | Edge_gamma of { base : model; overrides : float array }
      (** [base] with per-pattern-edge overrides (indexed by pattern
          edge id; a negative entry means "inherit from [base]"). How
          the adaptive search injects the fan-outs it has actually
          observed into suffix re-planning. *)

val default_constant : float
(** γ = 0.5, the simple estimate. *)

val edge_factor : model -> Flat_pattern.t -> u:int -> u':int -> int -> float
(** [edge_factor m p ~u ~u' e]: the reduction factor of the single
    pattern edge [e] when node [u] joins a partial order already
    containing [u']. [join_gamma] is the product of these over the
    closed edges. *)

val join_gamma :
  model -> Flat_pattern.t -> in_set:bool array -> int -> float
(** Reduction factor of joining pattern node [u] into the partial order
    covering the nodes flagged in [in_set]: the product of the factors
    of the pattern edges the join closes. *)

val order_cost :
  model -> Flat_pattern.t -> sizes:int array -> int array -> float
(** [order_cost m p ~sizes order]: estimated total cost of matching the
    pattern nodes in the given order, [sizes.(u)] being |Φ(u)|. *)

val position_estimates :
  model -> Flat_pattern.t -> sizes:int array -> int array -> float array
(** Per-position estimated partial-result cardinalities: entry [i] is
    the expected number of partial mappings alive after matching
    [order.(0..i)]. The baseline the adaptive search and
    [explain --analyze] compare observed descent counts against. *)
