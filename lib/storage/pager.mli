(** Fixed-size page I/O over a file.

    The lowest layer of the §7 storage substrate: a file is an array of
    4 KiB pages addressed by page id. No caching here — that is
    {!Buffer_pool}'s job.

    The pager is also the crash-injection point for the recovery tests:
    {!set_fault} arms a byte budget after which writes tear mid-page and
    raise {!Crash}, simulating a power cut at any byte offset. *)

exception Crash
(** Raised by a write once an armed fault budget is exhausted. The
    prefix of the page that fit in the budget {e is} written (a torn
    page); all subsequent writes crash immediately. *)

type t

val page_size : int
(** 4096 bytes. *)

val create : string -> t
(** Create or truncate the file. *)

val open_existing : ?allow_torn_tail:bool -> string -> t
(** Raises [Sys_error] if missing. A file whose size is not a multiple
    of [page_size] (the signature of a crashed append) is an error by
    default; with [allow_torn_tail] the trailing partial page is simply
    invisible — {!Store}'s recovery opens files this way. *)

val close : t -> unit
(** Idempotent. *)

val n_pages : t -> int

val alloc : t -> int
(** Append a zeroed page; returns its id. *)

val read : t -> int -> bytes
(** A fresh [page_size] buffer with the page's contents. *)

val write : t -> int -> bytes -> unit
(** [Invalid_argument] unless the buffer is exactly one page and the id
    is allocated. *)

val sync : t -> unit
(** fsync. *)

(** {1 Fault injection (tests only)} *)

val set_fault : t -> after_bytes:int -> unit
(** Arm the crash: the next writes spend the budget byte by byte; the
    write that exceeds it is torn at the boundary and raises {!Crash}. *)

val bytes_written : t -> int
(** Total bytes successfully written through this handle — the crash
    matrix iterates a fault over [0 .. bytes_written] of a clean run. *)

(** {1 Observability} *)

val set_metrics : t -> Gql_obs.Metrics.t -> unit
(** Subsequent page reads/writes count into [storage.pages_read] /
    [storage.pages_written]. Defaults to the disabled instance (no
    overhead beyond one branch per page operation). *)
