(** Bipartite matching.

    The joint-reduction refinement (§4.3) tests, for each pattern node
    [u] and feasible mate [v], whether the bipartite graph B(u,v)
    between the neighbors of [u] and the neighbors of [v] has a
    {e semi-perfect matching} — one saturating every neighbor of [u].

    [hopcroft_karp] is the O(E·sqrt(V)) algorithm referenced by the
    paper [Hopcroft & Karp 1973]; [kuhn] is the simple augmenting-path
    algorithm kept as a test oracle. *)

type graph = {
  nl : int;  (** left vertices [0 .. nl-1] *)
  nr : int;  (** right vertices [0 .. nr-1] *)
  adj : int list array;
      (** [adj.(l)] = right neighbors of left vertex [l]. May be longer
          than [nl] (rows past [nl] are ignored), so callers can reuse a
          scratch buffer across instances. *)
}

val hopcroft_karp : graph -> int
(** Size of a maximum matching. *)

val hopcroft_karp_matching : graph -> int * int array
(** Maximum matching size and the left-to-right assignment ([-1] for
    unmatched left vertices). *)

val kuhn : graph -> int
(** Reference implementation (Hungarian-style augmenting paths). *)

val semi_perfect : graph -> bool
(** True iff a matching saturates every left vertex, i.e. the maximum
    matching has size [nl]. Short-circuits on an obvious degree
    deficiency ([nr < nl] or an isolated left vertex). *)

val kuhn_packed : nl:int -> nr:int -> stride:int -> int array -> int
(** [kuhn_packed ~nl ~nr ~stride rows]: maximum-matching size by
    augmenting paths over a packed adjacency — row [l] occupies words
    [rows.(l*stride) .. rows.(l*stride + stride - 1)], bit [j]
    ({!Bitset.bits_per_word} bits per word) meaning edge [(l, j)].
    [rows] may be a larger scratch buffer; words beyond bit [nr-1] in a
    row must be clear. The search intersects each row with the
    unvisited mask one word at a time — no per-edge list cells. *)
