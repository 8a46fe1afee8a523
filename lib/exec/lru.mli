(** Byte-budgeted LRU cache keyed by strings.

    Two caches of the exec service are instances: the retrieval cache
    ({!Cache}), which maps a pattern-node signature to the feasible-mate
    row Φ(u) computed for it, and the {!Service} parse cache, which maps
    a query text to its AST. Each entry is charged the [weight] its
    creator gives it — an approximate heap footprint — against a fixed
    byte budget; inserting past the budget evicts least-recently-used
    entries until the cache fits again.

    Not synchronized — the owner wraps every call in its mutex. *)

type 'a t

val create : budget_bytes:int -> weight:(string -> 'a -> int) -> 'a t
(** [budget_bytes] must be positive. [weight key value] is the bytes an
    entry is charged. An entry larger than the whole budget is not
    cached at all (counted as an eviction). *)

val find : 'a t -> string -> 'a option
(** Marks the entry most recently used. Counts a hit or a miss. *)

val add : 'a t -> string -> 'a -> unit
(** Insert (or replace) and evict from the cold end until within
    budget. The stored value is shared with the caller — treat it as
    immutable. *)

val mem : 'a t -> string -> bool
(** Does not touch recency or the hit/miss counters. *)

type stats = {
  entries : int;
  bytes : int;  (** current charged footprint *)
  budget : int;
  hits : int;
  misses : int;
  evictions : int;
}

val stats : 'a t -> stats

val entry_bytes : string -> int array -> int
(** The weight of a candidate row: key bytes + 8 bytes per candidate +
    constant overhead — what {!Cache} charges, exposed so tests can
    size a budget for an exact eviction scenario. *)
