(** Fixed-capacity mutable bit sets, stored 63 bits per word.

    Candidate sets Φ(u) over the data graph's nodes: membership tests
    during refinement must be O(1) over up to hundreds of thousands of
    nodes, and the refinement inner loops want to combine whole rows a
    machine word at a time rather than element by element.

    Layout: bit [i] lives in word [i / 63] at position [i mod 63] (an
    OCaml immediate int carries 63 usable bits).  Bits at positions
    [>= capacity] in the last word are kept clear by construction —
    every kernel preserves that invariant, so word-level scans never
    see phantom members. *)

type t

val create : int -> t
(** [create n]: capacity [n], all bits clear. *)

val capacity : t -> int

val mem : t -> int -> bool
(** Bounds-checked; raises [Invalid_argument] outside [0, capacity). *)

val add : t -> int -> unit
val remove : t -> int -> unit

val unsafe_mem : t -> int -> bool
(** No bounds check — for hot loops whose indices are known in range. *)

val unsafe_add : t -> int -> unit
val unsafe_remove : t -> int -> unit

val cardinal : t -> int
(** O(1) — maintained incrementally, including by the word kernels. *)

val iter : t -> (int -> unit) -> unit
(** Ascending; skips empty words, O(words + members). *)

val fold : t -> init:'a -> f:('a -> int -> 'a) -> 'a

val to_list : t -> int list
(** Ascending. *)

val to_array : t -> int array
(** Ascending; length = {!cardinal}. *)

val of_list : int -> int list -> t
val of_array : int -> int array -> t
val copy : t -> t
val is_empty : t -> bool

val clear : t -> unit
(** Reset to empty in O(words). *)

(** {2 Word-level kernels}

    All binary kernels require equal capacities ([Invalid_argument]
    otherwise).  [into] may alias either operand. *)

val inter_into : into:t -> t -> t -> unit
(** [inter_into ~into a b]: [into := a ∩ b], one word at a time. *)

val union_into : into:t -> t -> t -> unit
val diff_into : into:t -> t -> t -> unit
(** [diff_into ~into a b]: [into := a \ b]. *)

val inter_exists : t -> t -> bool
(** [a ∩ b ≠ ∅], early-exiting on the first overlapping word. *)

val inter_card : t -> t -> int
(** |a ∩ b| without materialising the intersection. *)

(** {2 Raw word access}

    For callers that run their own word-parallel scans (e.g. packed
    bipartite rows in {!Refine}). *)

val bits_per_word : int
(** 63. *)

val n_words : t -> int

val get_word : t -> int -> int
(** [get_word t wi]: word [wi] (unchecked). *)

val last_word_mask : t -> int
(** Mask of in-capacity bits of the final word (-1 when full). *)

val popcount : int -> int
(** Population count of a 63-bit value (SWAR, no table). *)
