(** Incrementally maintained (materialized) graph views.

    A view is a stored FLWR definition [for P exhaustive in doc("D")
    where ... return T] whose result collection the service keeps
    fresh across writes. Reading the view is a collection lookup; the
    cost of keeping it true moves to the write path, where this module
    makes it O(delta):

    - the maintainer caches, per source graph and per pattern
      derivation, every match [phi] together with its instantiated
      output graph;
    - a committed write carries the {!Gql_graph.Mutate.delta} dirty
      ball; a cached match none of whose images touch the ball {e
      survives} with its node ids remapped and its output graph reused
      verbatim (no search, no template instantiation);
    - matches gained by the write must touch the ball, so they are
      found by searching the pivot-partitioned restriction of the
      feasible space: for pivot position [i], candidates of [i] are
      intersected with the dirty set, positions before [i] are
      restricted to clean nodes, positions after are unrestricted —
      the partitions are disjoint and cover exactly the new matches,
      so nothing is found twice.

    The delta rule is sound at dirty radius >= 1 because every flat
    pattern constraint — node predicate, edge existence/orientation,
    edge predicate, the [where] filter over matched tuples — is local
    to a match's nodes and their incident edges, all of which are
    unchanged for nodes outside the ball.

    Views that the delta rule cannot cover fall back to full
    re-evaluation of the definition ({!Gql_core.Eval.run} on the
    current source collection — by construction identical to dropping
    and re-creating the view): non-exhaustive selection (which match
    is taken is order-dependent), derivations with path segments (RPQ
    reachability is not radius-local), and writes whose dirty ball
    exceeds [max_dirty_frac] of the graph (the restricted searches
    would approach the full search's cost). *)

open Gql_graph

type t

val make :
  name:string -> materialized:bool -> ?epoch:int -> Gql_core.Ast.flwr -> t
(** Compile the definition with {!Gql_core.Plan.compile_view} — the
    derivations, the [where] filter and the template {!Gql_core.Eval.run}
    uses — and decide incremental eligibility. The view starts
    unseeded: materialization and match caches are built by
    {!attach}. Raises {!Gql_core.Eval.Error} on a definition that is
    not self-contained, does not [return], or has more derivations
    than the cap. *)

val name : t -> string
val materialized : t -> bool
val source : t -> string
(** The source collection the definition reads — refreshes are driven
    by writes to it. *)

val def : t -> Gql_core.Ast.flwr
val epoch : t -> int
(** Refresh generation: bumped once per {!refresh}. *)

val graphs : t -> Graph.t list
(** The current materialization. Order is canonical (derivation-major,
    then source order, then discovery order) — multiset-equal to, but
    not necessarily ordered like, a scratch evaluation. *)

val incremental : t -> bool
(** Whether the delta rule applies to this definition (exhaustive, all
    derivations flat). *)

val refreshes : t -> int * int
(** [(incremental, full)] refresh counts over this handle's life. *)

type indexes =
  Graph.t -> (Gql_index.Label_index.t * Gql_index.Profile_index.t) option
(** Prebuilt label/profile indexes for a source graph, e.g.
    {!Cache.indexes} — the maintainer's restricted retrievals reuse
    the service's incrementally maintained indexes instead of
    rebuilding them. Return [None] to build on demand. *)

val attach :
  ?strategy:Gql_matcher.Engine.strategy ->
  ?metrics:Gql_obs.Metrics.t ->
  ?indexes:indexes ->
  ?graphs:Graph.t list ->
  t ->
  docs:Graph.t list ->
  unit
(** Seed the view against the current source collection. With
    [?graphs] (a persisted materialization, or the result the creating
    evaluation just produced) the materialization is adopted as-is and
    the incremental match caches stay lazy — the first refresh
    rebuilds them (counted as a full refresh). Without it, the view is
    evaluated from scratch now. *)

type change =
  | Update of { index : int; new_graph : Graph.t; delta : Mutate.delta }
  | Insert of { new_graph : Graph.t }
  | Remove of { index : int }
      (** One committed write to the source collection, mirroring
          {!Gql_core.Eval.write}. [index]/[new_graph] describe the
          post-write collection passed as [docs]. *)

val refresh :
  ?strategy:Gql_matcher.Engine.strategy ->
  ?metrics:Gql_obs.Metrics.t ->
  ?max_dirty_frac:float ->
  ?indexes:indexes ->
  t ->
  docs:Graph.t list ->
  change ->
  [ `Incremental | `Full ]
(** Bring the materialization up to date with one committed write
    ([docs] is the source collection {e after} it). Returns which path
    ran, bumps {!epoch} and counts [exec.views.incremental] /
    [exec.views.full] into [metrics]. [max_dirty_frac] (default 0.5)
    is the fallback threshold: an update whose dirty ball covers more
    than that fraction of the graph's nodes is re-derived from
    scratch. *)

(** {2 Persistence}

    The full store blob ({!Gql_storage.Store.set_view}) carries the
    definition as query text (printed with {!Gql_core.Ast.pp_flwr},
    re-parsed on load), the materialized flag, the epoch, and — for
    materialized views — the result graphs in {!Gql_storage.Codec}
    format, so reopening a store restores the view without
    re-evaluating it. A refresh can instead be persisted as a delta
    over the list before it ({!encode_delta}); {!decode} applies the
    chain. *)

val encode : t -> string

val encode_delta :
  prev:Graph.t array -> epoch:int -> Graph.t list -> string option
(** A refresh as a delta blob ({!Gql_storage.Store.add_view_delta}):
    the edit script from [prev], the materialization last persisted,
    to the new one — runs of copied [prev] positions and the new
    graphs in {!Gql_storage.Codec} format, plus the new [epoch].
    Survivors are recognized by {!Graph.stamp}, since {!refresh} hands
    a surviving match's output graph on verbatim, so an update that
    touches one source graph encodes a few runs and the graphs it
    gained. [None] when no graph of the new list is one of [prev]: a
    delta would only restate the whole list. *)

val decode : ?deltas:string list -> name:string -> string -> t
(** Decode a full blob, then apply [deltas] (default none), the
    chain logged after it, in order: the view comes back with the
    graphs, order and epoch of the last refresh persisted. Raises
    [Gql_storage.Codec.Corrupt] on a malformed blob or delta or a
    definition text that no longer parses, and {!Gql_core.Eval.Error}
    on a definition {!make} rejects — one over the derivation cap
    fails before its derivations are materialized. *)

val decoded_graphs : string -> Graph.t list
(** The materialization inside a full blob ([[]] for def-only/plain
    blobs), without compiling the definition. *)
