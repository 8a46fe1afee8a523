(** Resource governance for query execution.

    Subgraph-isomorphism selection (Algorithm 4.1) is worst-case
    exponential; the paper's own experiments only terminate by stopping
    at 1000 hits. A {!t} bounds a search by wall-clock deadline, by a
    Check-call ("visited") budget, and/or by a shared cooperative
    cancellation token, so every execution path degrades to {e partial
    results plus a reason} instead of running away.

    The search hot loop consults the step budget on every Check call
    (one integer compare) and polls the deadline and cancellation
    tokens every {!check_interval} calls, so governance overhead is
    unmeasurable (< 2% on the PPI clique workload; see bench
    [budget]). *)

(** Why a search returned. [Exhausted] is the clean case: the candidate
    space was fully explored. [Hit_limit] means the caller's match
    limit (or first-match mode) stopped it. The remaining reasons are
    resource stops: the partial mappings gathered so far are still
    returned. *)
type stop_reason =
  | Exhausted
  | Hit_limit
  | Deadline
  | Step_budget
  | Cancelled

val stop_reason_to_string : stop_reason -> string

val worst : stop_reason -> stop_reason -> stop_reason
(** Merge two reasons (e.g. across parallel domains or collection
    graphs): [Cancelled > Deadline > Step_budget > Hit_limit >
    Exhausted]. *)

val final : stop_reason -> bool
(** [true] for [Deadline] and [Cancelled]: the condition also holds for
    any subsequent search sharing the budget, so callers iterating a
    collection should short-circuit. *)

(** {1 Cancellation tokens} *)

type token
(** A shared cooperative cancellation flag ([Atomic]-based): safe to
    cancel from another domain while searches poll it. *)

val token : unit -> token
val cancel : token -> unit
val is_cancelled : token -> bool

(** {1 Budgets} *)

type t

val unlimited : t
(** No deadline, no step budget, no token: never stops a search. *)

val make :
  ?deadline:float -> ?deadline_at:float -> ?max_visited:int ->
  ?cancel:token -> unit -> t
(** [deadline] is {e relative} (seconds from now); [deadline_at] is an
    absolute [Unix.gettimeofday] time — when both are given the earlier
    wins, so a budget threaded through several phases enforces one
    end-to-end deadline. [max_visited] bounds Check calls per search
    run. Raises [Invalid_argument] on a negative [deadline] or
    non-positive [max_visited]. *)

val with_token : t -> token -> t
(** Add one more token to poll (the budget then stops when {e any} of
    its tokens is cancelled). Used by [Parallel.search] to combine the
    caller's token with the internal stop-siblings token. *)

val is_unlimited : t -> bool

val max_visited : t -> int
(** [max_int] when unbounded — the hot loop compares against it
    unconditionally. *)

val poll : t -> stop_reason option
(** Check the cancellation tokens, then the deadline (in that order:
    token reads are cheap atomics, the deadline costs a clock read).
    Does {e not} check the step budget — the caller owns the visited
    counter. *)

val check_interval : int
(** Poll granularity of the search hot loop (1024): [poll] runs every
    [check_interval] Check calls, plus once before the search starts so
    an already-expired budget does no work. *)
