(** A process-wide pool of parked helper domains.

    The work-stealing search ({!Ws}) fans out through this pool instead
    of spawning and joining domains per search: a spawn+join pair costs
    hundreds of microseconds and, repeated per query, grows a server's
    resident memory. Helpers are started lazily and then stay. Between
    calls each one blocks on its own condition variable — no spinning,
    no sleep loop. A new helper starts only when no parked one is free,
    so the pool's size is the peak number of helpers busy at once. The
    pool is never created by a process that does not fan out. *)

val run : int -> (int -> 'a) -> ('a, exn * Printexc.raw_backtrace) result array
(** [run n f] evaluates [f 0] on the calling domain and [f 1] …
    [f (n-1)] on helpers, and returns once every call has returned or
    raised: element [i] is [f i]'s value or its exception with the
    backtrace. A helper that cannot be started (the runtime's domain
    limit) reports that exception as its call's. Safe to call from
    several domains at once. Raises [Invalid_argument] if [n < 1]. *)

val helpers : unit -> int
(** Helper domains started so far (they are never stopped). *)
