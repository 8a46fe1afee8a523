(** The unified error taxonomy of the query processor.

    Every failure a client can provoke — bad command line, malformed
    query text, a semantic error during evaluation, a corrupt store, or
    a blown deadline — is one value of {!t}, so front ends ([gqlsh])
    print a single one-line diagnostic and exit with a stable,
    distinguishable code instead of leaking raw OCaml exceptions.

    Exit-code contract (also asserted by the CLI tests):
    - [Usage] → 1 (bad flags/arguments)
    - [Parse] → 2 (lexical/syntax error, with source position)
    - [Eval] → 3 (pattern derivation, template, typing, evaluation)
    - [Corrupt] → 4 (store integrity: bad magic, CRC mismatch, …)
    - [Deadline] → 124 (budget stop, mirroring [timeout(1)])
    - [Protocol] → 5 (malformed wire frame or request)
    - [Unsupported_distributed] → 6 (query shape the sharded router
      cannot scatter-gather yet — composition, joins, writes)
    - [Shard_failure] → 7 (a shard died or timed out; the response may
      still carry the surviving shards' partial results) *)

type t =
  | Usage of string
  | Parse of { line : int; col : int; msg : string }
  | Eval of string
  | Corrupt of string
  | Deadline of string
  | Protocol of string
  | Unsupported_distributed of string
  | Shard_failure of string

exception E of t

val raise_ : t -> 'a
(** [raise (E t)]. *)

val to_string : t -> string
(** One-line rendering, prefixed with the category
    (e.g. ["parse error at 3:14: ..."]). *)

val pp : Format.formatter -> t -> unit

val exit_code : t -> int
(** The contract above: 1, 2, 3, 4, 5, 6, 7 or 124. *)

val wire_status : t -> string
(** The stable status string a server puts in a wire response
    (["usage"], ["parse"], …, ["shard-failure"]). The human-readable
    message travels separately, so {!of_wire_status} inverts this. *)

val of_wire_status : string -> msg:string -> t option
(** Rebuild the taxonomy value a client should exit through from a
    wire status plus the response's error message. [None] for unknown
    statuses (a newer server — treat as [Protocol]). [Parse] loses its
    position (0:0): the server already rendered it into [msg]. *)

val classify : exn -> t option
(** Map a known exception from any layer onto the taxonomy:
    [Eval.Error] (which compile errors raise too), [Motif.Error],
    [Template.Error], [Value.Type_error] and [Pred.Unresolved] become
    [Eval];
    [Codec.Corrupt] becomes [Corrupt]; [Sys_error] becomes [Usage].
    Positioned lexer/parser errors are {e not} classified here — they
    need the source text to compute line/column, which [Gql.wrap]
    owns. [None] for anything unknown (genuine bugs should still
    crash loudly). *)

val of_stop_reason : Gql_matcher.Budget.stop_reason -> string -> t option
(** [Some (Deadline …)] for resource stops ([Deadline], [Step_budget],
    [Cancelled]); [None] for [Exhausted] and [Hit_limit]. The string
    names what was interrupted, e.g. ["query"]. *)
